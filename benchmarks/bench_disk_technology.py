"""Experiment E12 (ablation) — how the conclusions age with hardware.

The paper's second main conclusion: "disk operations are the major
performance bottleneck in providing fault tolerance." This ablation
re-runs the append-delete experiment while sweeping disk technology
from the 1993 Wren IV to a modern low-latency device, and watches the
conclusion — and NVRAM's raison d'être — dissolve as seeks vanish:
with sub-millisecond storage the plain group service converges on the
NVRAM variant, and the cost of fault tolerance falls toward the pure
protocol overhead.
"""

from dataclasses import replace

from repro.bench.harness import fig7_cell
from repro.sim.latency import DiskLatency, LatencyModel

from conftest import write_result

DISK_GENERATIONS = {
    # label: (seek, rotation, per_kb) in ms
    "1993 Wren IV": DiskLatency(seek_ms=24.0, rotation_ms=8.3, per_kb_ms=0.8),
    "2000s 10k rpm": DiskLatency(seek_ms=4.5, rotation_ms=3.0, per_kb_ms=0.02),
    "SATA SSD": DiskLatency(seek_ms=0.05, rotation_ms=0.0, per_kb_ms=0.003),
    "NVMe": DiskLatency(seek_ms=0.01, rotation_ms=0.0, per_kb_ms=0.0005),
}


def pair_latency(impl: str, disk: DiskLatency, seed: int = 0) -> float:
    latency = LatencyModel.paper_testbed()
    latency = replace(latency, disk=disk)
    return fig7_cell(impl, "append_delete", 8, seed, latency=latency)


def test_disk_technology_sweep(benchmark, results_dir):
    def run():
        table = {}
        for label, disk in DISK_GENERATIONS.items():
            table[label] = {
                impl: pair_latency(impl, disk) for impl in ("group", "nvram")
            }
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "E12 — append-delete pair (ms) vs disk generation",
        f"{'disk':<16}{'Group (3)':>12}{'Group+NVRAM':>14}{'NVRAM gain':>12}",
    ]
    for label, row in table.items():
        gain = row["group"] / row["nvram"]
        lines.append(
            f"{label:<16}{row['group']:>12.1f}{row['nvram']:>14.1f}{gain:>11.1f}x"
        )
    lines.append(
        "(the paper's 'disks are the bottleneck' conclusion is hardware-\n"
        " bound: on NVMe-class storage the NVRAM board buys almost nothing\n"
        " and fault tolerance costs only the group protocol itself)"
    )
    write_result(results_dir, "e12_disk_technology.txt", "\n".join(lines))

    wren = table["1993 Wren IV"]
    nvme = table["NVMe"]
    assert wren["group"] / wren["nvram"] > 5.0  # the paper's 6.8x era
    assert nvme["group"] / nvme["nvram"] < 1.5  # the advantage is gone
    assert nvme["group"] < wren["group"] * 0.2