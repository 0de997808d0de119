"""Experiment E8 (ablation) — NVRAM sizing and the /tmp optimization.

Section 5 cites Baker et al.: half a megabyte of NVRAM can cut disk
accesses by 20-90%. This ablation runs a temporary-name workload
(append soon followed by delete, the paper's /tmp pattern) against
group+NVRAM services with different board sizes and measures disk
operations saved and the annihilation rate.
"""

from repro.cluster import NvramServiceCluster

from conftest import write_result


def tmp_name_workload(nvram_bytes: int, pairs: int = 60, seed: int = 0):
    """Run append→(short delay)→delete pairs; return disk-op stats."""
    cluster = NvramServiceCluster(
        seed=seed, name=f"nv{nvram_bytes}", nvram_bytes=nvram_bytes
    )
    cluster.start()
    cluster.wait_operational()
    client = cluster.add_client("c")
    root = cluster.root_capability

    def work():
        target = yield from client.create_dir()
        yield cluster.sim.sleep(2_000.0)  # initial create flushed
        for i in range(pairs):
            yield from client.append_row(root, f"tmp{i}", (target,))
            yield from client.delete_row(root, f"tmp{i}")

    baseline_ops = sum(site.disk.total_ops for site in cluster.sites)
    cluster.run_process(work())
    cluster.run(until=cluster.sim.now + 5_000.0)  # final flush
    disk_ops = sum(site.disk.total_ops for site in cluster.sites) - baseline_ops
    counter = cluster.obs.registry.counter
    boards = [site.nvram.name for site in cluster.sites]
    annihilations = sum(counter(b, "nvram.annihilations").value for b in boards)
    flushes = sum(counter(b, "nvram.flushes").value for b in boards)
    return {
        "disk_ops": disk_ops,
        "annihilations": annihilations,
        "flushes": flushes,
    }


def disk_service_ops(pairs: int = 60, seed: int = 0) -> int:
    """Same workload on the plain (disk) group service, for reference."""
    from repro.cluster import GroupServiceCluster

    cluster = GroupServiceCluster(seed=seed, name="nvref")
    cluster.start()
    cluster.wait_operational()
    client = cluster.add_client("c")
    root = cluster.root_capability

    def work():
        target = yield from client.create_dir()
        for i in range(pairs):
            yield from client.append_row(root, f"tmp{i}", (target,))
            yield from client.delete_row(root, f"tmp{i}")

    baseline = sum(site.disk.total_ops for site in cluster.sites)
    cluster.run_process(work())
    cluster.run(until=cluster.sim.now + 2_000.0)
    return sum(site.disk.total_ops for site in cluster.sites) - baseline


def test_nvram_size_ablation(benchmark, results_dir):
    sizes = (2 * 1024, 8 * 1024, 24 * 1024)

    def run():
        reference = disk_service_ops()
        return reference, {size: tmp_name_workload(size) for size in sizes}

    reference, by_size = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "E8 — NVRAM sizing on the /tmp workload (60 append-delete pairs)",
        f"  plain group service: {reference} disk ops",
    ]
    for size, stats in sorted(by_size.items()):
        saved = 100.0 * (1.0 - stats["disk_ops"] / reference) if reference else 0.0
        lines.append(
            f"  NVRAM {size // 1024:3d} KB: {stats['disk_ops']:4d} disk ops "
            f"({saved:4.0f}% saved), {stats['annihilations']} annihilations, "
            f"{stats['flushes']} flushes"
        )
    lines.append("  (Baker et al.: NVRAM write buffers save 20-90% of disk ops)")
    write_result(results_dir, "e8_nvram_size.txt", "\n".join(lines))
    paper_board = by_size[24 * 1024]
    # The paper-size board annihilates the tmp pattern almost entirely.
    assert paper_board["disk_ops"] < reference * 0.2
    assert paper_board["annihilations"] > 0
    # Bigger boards never cost more disk ops than smaller ones.
    ops = [by_size[s]["disk_ops"] for s in sorted(by_size)]
    assert ops[0] >= ops[-1]
