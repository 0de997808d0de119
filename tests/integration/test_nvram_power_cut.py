"""Whole-cluster power cuts while the NVRAM flusher is writing out.

The board is a reliable medium, so an update acknowledged to a client
must survive all three replicas losing power at *any* instant — in
particular between two directories' write-outs of one flush, when the
object table is the only witness of which log records the disk already
reflects (docs/PROTOCOL.md, "The NVRAM variant").

Set-up: 3 replicas with a 4 KB board each, 4 closed-loop writers
appending alternately to two directories (so every flush has two dirty
directories and the small board keeps the flusher busy) — or, on the
replicated file service, creating 256-byte files (every flush writes
out a handful of new objects). Tier-1 runs one directed trial — cut
the instant any object-table entry first advances on any replica — and
an 8-instant mini-sweep per service. Run as a script for the
full-resolution sweeps CI's ``bitrot-smoke`` job uses (121 instants,
10 ms apart, directories then files)::

    PYTHONPATH=src python tests/integration/test_nvram_power_cut.py
"""

import sys

import pytest

from repro.cluster import NvramServiceCluster, ReplicatedBulletCluster
from repro.errors import NoSuchFile

WRITERS = 4
#: Cut instants, measured from the writers' start (the first flush
#: reaches the object table near +350 ms).
SWEEP_MS = range(300, 1501, 10)
MINI_SWEEP_MS = (360, 500, 650, 800, 950, 1100, 1250, 1400)


def append_rows(cluster):
    """The directory workload: ``(write, lost)`` generator functions.
    ``write(client, w, k)`` is writer *w*'s *k*-th update and returns
    what was promised; ``lost(reader, promised)`` returns the promises
    the service no longer keeps."""
    setup = cluster.add_client("setup")

    def make_dirs():
        first = yield from setup.create_dir()
        second = yield from setup.create_dir()
        yield cluster.sim.sleep(2_000.0)  # idle flush: both have table entries
        return first, second

    dirs = cluster.run_process(make_dirs())

    def write(client, w, k):
        target = dirs[(w + k) % 2]
        yield from client.append_row(target, f"w{w}.{k}", ())
        return target, f"w{w}.{k}"

    def lost(reader, promised):
        names = {}
        for target in dirs:
            rows = yield from reader.list_dir(target)
            names[target] = {row.name for row in rows}
        return [(t.object_number, n) for t, n in promised if n not in names[t]]

    return write, lost


def create_files(cluster):
    """The same on the replicated file service: every acknowledged
    capability must read back its bytes."""

    def write(client, w, k):
        data = f"w{w}.{k}".encode().ljust(256, b".")
        cap = yield from client.create(data)
        return cap, data

    def lost(reader, promised):
        missing = []
        for cap, data in promised:
            try:
                intact = (yield from reader.read(cap)) == data
            except NoSuchFile:
                intact = False
            if not intact:
                missing.append(cap.object_number)
        return missing

    return write, lost


def power_cut_trial(cut_after_ms=None, files=False):
    """Run the writers, cut all three replicas (at *cut_after_ms*, or —
    when None — the instant an object-table entry first advances),
    restart, and return ``(lost, consistent)``: the acknowledged
    updates missing afterwards."""
    if files:
        cluster = ReplicatedBulletCluster(
            seed=17, name="cut", nvram=True, nvram_bytes=4096
        )
    else:
        cluster = NvramServiceCluster(seed=17, name="cut", nvram_bytes=4096)
    cluster.start()
    cluster.wait_operational()
    sim = cluster.sim
    write, lost = (create_files if files else append_rows)(cluster)
    acked = []

    def writer(client, w):
        k = 0
        while True:
            acked.append((yield from write(client, w, k)))
            k += 1

    writers = [
        sim.spawn(writer(cluster.add_client(f"w{w}"), w), f"writer{w}")
        for w in range(WRITERS)
    ]
    started = sim.now
    if cut_after_ms is not None:
        cluster.run(until=started + cut_after_ms)
    else:

        def table():
            return [
                {obj: seqno for obj, (_, seqno) in s.admin.entries.items()}
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
    missing = cluster.run_process(lost(cluster.add_client("reader"), promised))
    return missing, cluster.replicas_consistent()


def test_cut_between_two_directories_of_one_flush():
    lost, consistent = power_cut_trial()
    assert lost == []
    assert consistent


@pytest.mark.parametrize(
    "cut_after_ms, files",
    [pytest.param(at, False, id=str(at)) for at in MINI_SWEEP_MS]
    + [pytest.param(at, True, id=f"files-{at}") for at in MINI_SWEEP_MS],
)
def test_power_cut_mini_sweep(cut_after_ms, files):
    lost, consistent = power_cut_trial(cut_after_ms, files)
    assert lost == []
    assert consistent


if __name__ == "__main__":
    failed = False
    for files in (False, True):
        bad = 0
        for at in SWEEP_MS:
            lost, consistent = power_cut_trial(at, files)
            if lost or not consistent:
                bad += 1
            print(f"+{at:4d} ms  lost={len(lost):2d}  consistent={consistent}")
        print(
            f"{bad} of {len(SWEEP_MS)} instants lost acknowledged "
            f"{'files' if files else 'updates'}"
        )
        failed = failed or bool(bad)
    sys.exit(1 if failed else 0)
