"""Experiment E11 — the production workload mix (section 2).

"Measurements over three weeks showed that 98% of all directory
operations are reads. Therefore, both the RPC directory service and
the group directory service optimize read operations."

This bench runs the 98/2 mix against the group and NVRAM services and
verifies the design's payoff: under the real mix, overall throughput
is read-dominated (disks barely matter), so the fault-tolerant
services sustain hundreds of mixed ops/s even though pure-write
throughput is only ~10 ops/s.
"""

from repro.bench.harness import PAPER_SERVER, build_deployment
from repro.workloads.clients import ClosedLoopClient, run_closed_loop
from repro.workloads.generators import mixed_once
from repro.workloads.metrics import Metrics

from conftest import write_result


def mixed_throughput(impl: str, read_fraction: float, n_clients: int = 4,
                     seed: int = 0, measure_ms: float = 10_000.0):
    deployment = build_deployment(impl, seed=seed, **PAPER_SERVER)
    sim = deployment.sim
    root = deployment.root
    metrics = Metrics()

    setup_client = deployment.add_client("setup")
    shared = {"names": [], "target": None}

    def setup():
        shared["target"] = yield from setup_client.create_dir()
        for i in range(10):
            name = f"seed-{i}"
            yield from setup_client.append_row(root, name, (shared["target"],))
            shared["names"].append(name)

    deployment.cluster.run_process(setup())

    clients = []
    for i in range(n_clients):
        directory_client = deployment.add_client(f"mix{i}")
        rng = sim.rng.stream(f"mix.{i}")

        def iteration(_n, c=directory_client, r=rng, tag=i):
            kind = yield from mixed_once(
                c, root, r, shared["names"], shared["target"],
                read_fraction=read_fraction, tag=f"c{tag}",
            )
            return kind

        clients.append(ClosedLoopClient(sim, f"mix{i}", iteration, metrics, "op"))
    window = run_closed_loop(sim, clients, 2_000.0, measure_ms)
    return metrics.throughput_per_second("op", window)


def test_production_mix(benchmark, results_dir):
    def run():
        out = {}
        for impl in ("group", "nvram"):
            out[impl] = {
                fraction: mixed_throughput(impl, fraction)
                for fraction in (0.98, 0.50, 0.0)
            }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "E11 — throughput under read/write mixes (4 clients, total ops/s)",
        f"{'read fraction':<16}{'Group (3)':>12}{'Group+NVRAM':>14}",
    ]
    for fraction in (0.98, 0.50, 0.0):
        lines.append(
            f"{fraction:<16.2f}{results['group'][fraction]:>12.0f}"
            f"{results['nvram'][fraction]:>14.0f}"
        )
    lines.append(
        "(two findings: the 98%-read production mix runs ~25x above the\n"
        " pure-write rate, vindicating the read-optimized design; AND a\n"
        " closed-loop client still stalls ~300 ms on every write, so\n"
        " NVRAM pays off even at 2% writes — each write is 6+ read-times)"
    )
    write_result(results_dir, "e11_production_mix.txt", "\n".join(lines))
    group = results["group"]
    # Read-dominated: production mix runs far above the write-only rate.
    assert group[0.98] > group[0.0] * 10.0
    # NVRAM multiplies pure-write throughput several-fold...
    assert results["nvram"][0.0] > group[0.0] * 3.0
    # ...and still helps at the production mix, because the rare writes
    # stall closed-loop clients for hundreds of milliseconds each.
    nvram_gain_at_98 = results["nvram"][0.98] / group[0.98]
    assert 1.2 < nvram_gain_at_98 < 4.0
