"""Whole-cluster power cuts while the NVRAM flusher is writing out.

The board is a reliable medium, so an update acknowledged to a client
must survive all three replicas losing power at *any* instant — in
particular between two directories' write-outs of one flush, when the
object table is the only witness of which log records the disk already
reflects (docs/PROTOCOL.md, "The NVRAM variant").

Set-up: 3 replicas with a 4 KB board each, 4 closed-loop writers
appending alternately to two directories (so every flush has two dirty
directories and the small board keeps the flusher busy). Tier-1 runs
one directed trial — cut the instant any of the two directories'
object-table entries first advances on any replica — and an 8-instant
mini-sweep. Run as a script for the full-resolution sweep CI's
``bitrot-smoke`` job uses (121 instants, 10 ms apart)::

    PYTHONPATH=src python tests/integration/test_nvram_power_cut.py
"""

import sys

import pytest

from repro.cluster import NvramServiceCluster

WRITERS = 4
#: Cut instants, measured from the writers' start (the first flush
#: reaches the object table near +350 ms).
SWEEP_MS = range(300, 1501, 10)
MINI_SWEEP_MS = (360, 500, 650, 800, 950, 1100, 1250, 1400)


def power_cut_trial(cut_after_ms=None):
    """Run the writers, cut all three replicas (at *cut_after_ms*, or —
    when None — the instant an entry of either directory first
    advances), restart, and return ``(lost, consistent)``: the
    acknowledged appends missing from their directory afterwards."""
    cluster = NvramServiceCluster(seed=17, name="cut", nvram_bytes=4096)
    cluster.start()
    cluster.wait_operational()
    sim = cluster.sim
    setup = cluster.add_client("setup")

    def make_dirs():
        first = yield from setup.create_dir()
        second = yield from setup.create_dir()
        yield sim.sleep(2_000.0)  # idle flush: both have table entries
        return first, second

    dirs = cluster.run_process(make_dirs())
    acked = []

    def writer(client, w):
        k = 0
        while True:
            target = dirs[(w + k) % 2]
            name = f"w{w}.{k}"
            yield from client.append_row(target, name, ())
            acked.append((target, name))
            k += 1

    writers = [
        sim.spawn(writer(cluster.add_client(f"w{w}"), w), f"writer{w}")
        for w in range(WRITERS)
    ]
    started = sim.now
    if cut_after_ms is not None:
        cluster.run(until=started + cut_after_ms)
    else:
        objs = [cap.object_number for cap in dirs]

        def table():
            return [
                tuple(s.admin.entries[obj][1] for obj in objs)
                for s in cluster.servers
            ]

        before = table()
        while table() == before and sim.now < started + 5_000.0:
            cluster.run(until=sim.now + 1.0)
        assert table() != before, "no flush ever reached the object table"
    promised = list(acked)  # acknowledged before the lights went out
    for w in writers:
        w.kill("power cut")
    for i in range(3):
        cluster.crash_server(i)
    cluster.run(until=sim.now + 500.0)
    for i in range(3):
        cluster.restart_server(i)
    cluster.wait_operational(timeout_ms=60_000.0)

    reader = cluster.add_client("reader")

    def listing():
        names = {}
        for target in dirs:
            rows = yield from reader.list_dir(target)
            names[target] = {row.name for row in rows}
        return names

    names = cluster.run_process(listing())
    lost = [(t.object_number, n) for t, n in promised if n not in names[t]]
    return lost, cluster.replicas_consistent()


def test_cut_between_two_directories_of_one_flush():
    lost, consistent = power_cut_trial()
    assert lost == []
    assert consistent


@pytest.mark.parametrize("cut_after_ms", MINI_SWEEP_MS)
def test_power_cut_mini_sweep(cut_after_ms):
    lost, consistent = power_cut_trial(cut_after_ms)
    assert lost == []
    assert consistent


if __name__ == "__main__":
    bad = 0
    for at in SWEEP_MS:
        lost, consistent = power_cut_trial(at)
        if lost or not consistent:
            bad += 1
        print(f"+{at:4d} ms  lost={len(lost):2d}  consistent={consistent}")
    print(f"{bad} of {len(SWEEP_MS)} instants lost acknowledged updates")
    sys.exit(1 if bad else 0)
