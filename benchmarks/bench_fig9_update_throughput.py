"""Experiment E3 — Fig. 9: append-delete throughput vs clients.

Write operations cannot be performed in parallel (they serialize in
the group thread's total order / the RPC intent handshake), so each
paper-configured service hits a flat ceiling: ~45 pairs/s for
group+NVRAM and ~5 pairs/s for both disk-based services. The paper
rows below therefore run the paper's server (``PAPER_SERVER``,
``batch_max=1``) — the classic one-record apply/persist loop the
paper measured.

The group-commit extension (E3b) lifts the disk service's ceiling:
with batching on and enough initiator threads to keep requests in
flight, concurrent writers share one seek per batch instead of paying
two random writes each, so aggregate throughput *scales* with load —
and a lone writer pays one arm pass per update instead of two random
writes, because the batched server writes every cut out the same way.
"""

from repro.bench import PAPER_SERVER, fig7_cell, update_throughput
from repro.bench.tables import format_throughput_curve
from repro.directory.config import ServiceConfig

from conftest import write_result

CLIENTS = (1, 2, 3, 5, 7)
SCALE_CLIENTS = (1, 4, 8)
#: E3b's deployment: the engineered default, named because
#: ``fig7_cell`` builds the paper's server unless told otherwise.
BATCHED = {"server_threads": 8, "batch_max": ServiceConfig.batch_max}
UNBATCHED = {"server_threads": 8, **PAPER_SERVER}


def run_fig9():
    curves = {}
    for impl in ("group", "nvram", "rpc"):
        curves[impl] = {
            n: update_throughput(impl, n, seed=0, measure_ms=15_000.0, **PAPER_SERVER)
            for n in CLIENTS
        }
    return curves


def run_group_commit_scaling():
    """E3b: the batched disk service vs the same deployment unbatched.

    ``server_threads=8`` on both sides — the paper's single initiator
    thread caps in-flight requests at one per server, which starves
    batch formation; the comparison isolates the batching lever.
    """
    out = {"batched": {}, "unbatched": {}}
    for n in SCALE_CLIENTS:
        out["batched"][n] = update_throughput(
            "group", n, seed=0, measure_ms=15_000.0, **BATCHED
        )
        out["unbatched"][n] = update_throughput(
            "group", n, seed=0, measure_ms=15_000.0, **UNBATCHED
        )
    out["latency_batched_ms"] = fig7_cell(
        "group", "append_delete", 20, seed=0, **BATCHED
    )
    out["latency_unbatched_ms"] = fig7_cell(
        "group", "append_delete", 20, seed=0, **UNBATCHED
    )
    return out


def test_fig9_update_throughput(benchmark, results_dir):
    curves = benchmark.pedantic(run_fig9, rounds=1, iterations=1)
    write_result(
        results_dir,
        "fig9_update_throughput.txt",
        format_throughput_curve(
            "Fig. 9 — append-delete pairs/s vs clients, batch_max=1 "
            "(paper ceilings: NVRAM 45, group 5, RPC 5)",
            curves,
            "append-delete pairs per second (write throughput is 2x)",
        ),
    )
    group, rpc, nvram = curves["group"], curves["rpc"], curves["nvram"]
    # Flat ceilings: one client is enough to saturate.
    for impl_curve, ceiling, low, high in (
        (group, "group", 4.0, 6.5),
        (rpc, "rpc", 3.5, 6.5),
        (nvram, "nvram", 35.0, 60.0),
    ):
        for n in CLIENTS:
            assert low <= impl_curve[n] <= high, (
                f"{ceiling} at {n} clients: {impl_curve[n]:.1f} pairs/s "
                f"outside [{low}, {high}]"
            )
    # NVRAM is roughly an order of magnitude above the disk services.
    assert nvram[7] > group[7] * 6.0


def test_fig9b_group_commit_scaling(benchmark, results_dir):
    data = benchmark.pedantic(run_group_commit_scaling, rounds=1, iterations=1)
    batched, unbatched = data["batched"], data["unbatched"]
    write_result(
        results_dir,
        "fig9b_group_commit_scaling.txt",
        format_throughput_curve(
            "Fig. 9b — group (disk) with group-commit batching, "
            "server_threads=8",
            {"batched": batched, "unbatched": unbatched},
            "append-delete pairs per second",
        )
        + (
            f"\n  single-client pair latency: "
            f"batched {data['latency_batched_ms']:.1f} ms, "
            f"batch_max=1 {data['latency_unbatched_ms']:.1f} ms"
        ),
    )
    # Unbatched stays pinned at the paper's flat ceiling.
    for n in SCALE_CLIENTS:
        assert 4.0 <= unbatched[n] <= 6.5
    # Batching turns the ceiling into a scaling curve: the issue's
    # acceptance bar is >= 2x aggregate throughput at 8 writers.
    assert batched[8] >= 2.0 * batched[1], (
        f"batched 8-client throughput {batched[8]:.1f} not 2x the "
        f"single-client {batched[1]:.1f}"
    )
    assert batched[8] >= 2.0 * unbatched[8]
    # ...and the lone writer gains too: one arm pass, not two writes.
    assert data["latency_batched_ms"] < data["latency_unbatched_ms"]
