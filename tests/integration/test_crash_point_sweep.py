"""Power cuts at every block boundary of a write-out.

The batched server makes a cut durable — and a recovery installs a
donor's snapshot — in ONE ``commit_batch`` arm pass: journal first,
then entries, removals, the commit block, session records last. The
claim (docs/PROTOCOL.md, "Group commit") is that this is as atomic as
the paper's shadow-page commit: a pass the power cuts persists a
prefix, and no prefix is a disk that claims what it does not hold.

Each trial arms PR 9's ``crash_point`` on one replica so that its
machine dies *cut_after* blocks into the pass, and checks the disk
twice, both times by rebuilding a state from that disk alone:

* at rest right after the cut — every directory is its old image or
  every one its new image (a session record never leads the update it
  acknowledges), or the commit block's recovering flag says "mixture"
  and the disk claims sequence number zero; and, for the first pass
  after a reset, the commit block holds the new view's configuration
  vector (the reset's write of it was queued ahead of the pass on the
  arm, so it lands whatever the cut);
* after the replica has restarted and recovered — the disk is the
  live state of the other replicas, every acknowledged row is on every
  operational replica and every disk, and no Bullet file is orphaned
  (``file_count == len(admin.entries)``) except, on the machine that
  lost power, the files of the pass it was cut in: the new ones if the
  table never named them, else the old ones nobody lived to delete.

Tier-1 runs a strided subset; run as a script for every boundary of
every case (CI's ``bitrot-smoke`` job)::

    PYTHONPATH=src python -m tests.integration.test_crash_point_sweep
"""

import sys

import pytest

from repro.cluster import GroupServiceCluster
from repro.directory.admin import COMMIT_BLOCK, AdminPartition, CommitBlock
from repro.directory.state import DirectoryState
from repro.directory.store import DirectoryStore
from repro.faults.plan import FaultPlan
from repro.storage.bullet import BulletClient

from tests.helpers import pin_to_server

VICTIM = 2
#: The one-record write-outs: the update, "+session" for a retry-safe
#: client (its session record rides the same pass).
ONE_RECORD_CASES = ("append", "append+session", "delete_dir", "delete_dir+session")


class _DiskReader:
    """What a :class:`DirectoryStore` needs of a server, for a store
    that only ever loads: rebuilds the state one site's disk holds."""

    alive = operational = True

    def __init__(self, cluster, site, rpc):
        self.sim, self.config, self.me = cluster.sim, cluster.config, "reader"
        self.state = DirectoryState(self.config.port, self.config.root_check)
        self.admin = AdminPartition(site.partition, site.index, self.config.n_servers)
        self.store = DirectoryStore(
            self, self.admin, BulletClient(rpc, site.bullet.port), "reader"
        )

    def adopt_state(self, state):
        self.state = state


def disk_image(cluster, site, rpc):
    """``(directories, sessions, claimed seqno)`` as *site*'s disk
    alone holds them (the Bullet machine is up; the directory server
    need not be)."""
    reader = _DiskReader(cluster, site, rpc)
    cluster.run_process(reader.store.load())
    state = reader.state
    return (
        {obj: d.to_bytes() for obj, d in state.directories.items()},
        {cid: entry.last_seqno for cid, entry in state.sessions.items()},
        reader.admin.highest_seqno(),
    )


def live_image(server):
    state = server.state
    return (
        {obj: d.to_bytes() for obj, d in state.directories.items()},
        {cid: entry.last_seqno for cid, entry in state.sessions.items()},
        state.update_seqno,
    )


def boot(seed=0):
    cluster = GroupServiceCluster(seed=seed, name="cp")
    cluster.start()
    cluster.wait_operational()
    return cluster


def arm(cluster, cut_after, passes):
    """Arm the crash point on the victim's admin partition and note
    how many blocks the pass it cuts holds."""
    site = cluster.sites[VICTIM]
    write_blocks = site.disk.write_blocks

    def counting(writes, lineage=None):
        passes.append(len(writes))
        return write_blocks(writes, lineage=lineage)

    site.disk.write_blocks = counting
    FaultPlan().crash_point(0.0, VICTIM, cut_after).events[0].apply(cluster)


def restart_and_check(cluster, rpc, client, target, acked, in_flight):
    """The second check: restart the victim, make one more update,
    then — everybody operational, every disk the live state, every
    acknowledged row everywhere, no orphaned file beyond the
    *in_flight* ones of the victim's cut pass."""
    cluster.restart_server(VICTIM)
    cluster.wait_operational(timeout_ms=60_000.0)

    def afterwards():
        yield from client.append_row(target, "post", ())
        acked.append((target.object_number, "post"))
        yield cluster.sim.sleep(1_000.0)

    cluster.run_process(afterwards())
    problems = []
    if len(cluster.operational_servers()) != 3:
        return ["a replica did not come back"]
    if not cluster.replicas_consistent():
        problems.append("replicas diverge")
    live = live_image(cluster.servers[0])
    for site in cluster.sites:
        if disk_image(cluster, site, rpc) != live:
            problems.append(f"site {site.index}: disk is not the live state")
        orphans = site.bullet.file_count - len(site.server.admin.entries)
        if not 0 <= orphans <= (in_flight if site.index == VICTIM else 0):
            problems.append(f"site {site.index}: {orphans} orphaned Bullet files")
        for obj, name in acked:
            directory = site.server.state.directories.get(obj)
            if directory is None or name not in directory.names():
                problems.append(f"site {site.index}: lost {name!r}")
    return problems


def one_record_trial(case, cut_after):
    """Cut the victim *cut_after* blocks into the write-out of one
    update. Returns ``(blocks in the pass, problems)``."""
    update, _, with_session = case.partition("+")
    cluster = boot()
    sim, root = cluster.sim, cluster.root_capability
    client = cluster.add_client("c", retry_safe=bool(with_session))
    pin_to_server(client, cluster, 0)
    checker = cluster.add_client("checker").rpc
    victim_site = cluster.sites[VICTIM]
    acked, passes = [], []

    def setup():
        sub = yield from client.create_dir()
        doomed = yield from client.create_dir()
        yield from client.append_row(root, "sub", (sub,))
        yield from client.append_row(sub, "pre", ())
        acked.extend([(1, "sub"), (sub.object_number, "pre")])
        yield sim.sleep(500.0)
        return sub, doomed

    sub, doomed = cluster.run_process(setup())
    old = disk_image(cluster, victim_site, checker)
    arm(cluster, cut_after, passes)

    def the_update():
        if update == "append":
            yield from client.append_row(sub, "new", ())
            acked.append((sub.object_number, "new"))
        else:
            yield from client.delete_dir(doomed)
        yield sim.sleep(500.0)

    cluster.run_process(the_update())
    problems = []
    if cluster.servers[VICTIM].alive:
        return passes[0], ["the crash point never fired"]
    new = live_image(cluster.servers[0])
    cut = disk_image(cluster, victim_site, checker)
    if cut[0] not in (old[0], new[0]):
        problems.append("directories are a mixture of old and new")
    if cut[1] not in (old[1], new[1]):
        problems.append("sessions are a mixture of old and new")
    if cut[2] == new[2] and cut[0] != new[0]:
        problems.append("the disk claims a seqno its directories do not hold")
    if cut[1] != old[1] and cut[0] != new[0]:
        problems.append("a session record leads the update it acknowledges")
    return passes[0], problems + restart_and_check(
        cluster, checker, client, sub, acked, in_flight=1)


def install_trial(cut_after):
    """Cut the victim *cut_after* blocks into the ONE pass that
    installs a donor's snapshot: three directories rewritten, one
    removed, four session records. Returns ``(blocks, problems)``."""
    cluster = boot()
    sim, root = cluster.sim, cluster.root_capability
    setup_client = cluster.add_client("setup")
    checker = cluster.add_client("checker").rpc
    victim_site = cluster.sites[VICTIM]
    acked, passes = [], []

    def setup():
        subs = []
        for k in range(3):
            sub = yield from setup_client.create_dir()
            yield from setup_client.append_row(root, f"sub{k}", (sub,))
            acked.append((1, f"sub{k}"))
            subs.append(sub)
        doomed = yield from setup_client.create_dir()
        yield sim.sleep(500.0)
        return subs, doomed

    subs, doomed = cluster.run_process(setup())
    cluster.crash_server(VICTIM)
    cluster.run(until=sim.now + 1_000.0)

    def while_it_is_down():
        for k in range(4):
            client = cluster.add_client(f"s{k}", retry_safe=True)
            pin_to_server(client, cluster, k % 2)
            yield from client.append_row(subs[k % 3], f"row{k}", ())
            acked.append((subs[k % 3].object_number, f"row{k}"))
        yield from setup_client.delete_dir(doomed)
        yield sim.sleep(500.0)

    cluster.run_process(while_it_is_down())
    # The recovering flag is a single-block write ahead of the pass:
    # arm only once the install hands its write-out to the store.
    cluster.restart_server(VICTIM)
    store = cluster.servers[VICTIM].store
    write_out = store.write_out

    def armed_write_out(*args, **kwargs):
        arm(cluster, cut_after, passes)
        return write_out(*args, **kwargs)

    store.write_out = armed_write_out
    cluster.run(until=sim.now + 3_000.0)
    problems = []
    if cluster.servers[VICTIM].alive:
        return passes[0], ["the crash point never fired"]
    if len(passes) != 1:
        problems.append(f"the install took {len(passes)} passes, not one")
    new = live_image(cluster.servers[0])
    cut = disk_image(cluster, victim_site, checker)
    if cut[2] != 0:
        problems.append("a disk cut mid-install claims a sequence number")
    if cut_after >= passes[0] and cut[:2] != new[:2]:
        problems.append("the whole pass landed and the disk is not the donor's")
    return passes[0], problems + restart_and_check(
        cluster, checker, setup_client, subs[0], acked, in_flight=4)


def post_reset_trial(cut_after):
    """Cut the victim *cut_after* blocks into its first write-out after
    a reset that kept the majority: the sequencer crashes, a DeleteDir
    held at the third replica across the reset is applied at both
    survivors, and the victim's pass (no Bullet file to write first)
    runs with the reset's commit-block write of the new configuration
    vector queued ahead of it on the arm. Returns ``(blocks,
    problems)``."""
    cluster = boot()
    sim = cluster.sim
    [sequencer] = [
        i for i, s in enumerate(cluster.servers) if s.member.is_sequencer
    ]
    assert sequencer != VICTIM
    front = 3 - VICTIM - sequencer
    client = cluster.add_client("c", retry_safe=True)
    pin_to_server(client, cluster, front)
    checker = cluster.add_client("checker").rpc
    victim, victim_site = cluster.servers[VICTIM], cluster.sites[VICTIM]
    acked, passes, vector_ahead = [], [], []

    def setup():
        sub = yield from client.create_dir()
        doomed = yield from client.create_dir()
        yield from client.append_row(cluster.root_capability, "sub", (sub,))
        yield from client.append_row(sub, "pre", ())
        acked.extend([(1, "sub"), (sub.object_number, "pre")])
        yield sim.sleep(500.0)
        return sub, doomed

    sub, doomed = cluster.run_process(setup())
    old = disk_image(cluster, victim_site, checker)
    start, end = victim_site.partition.region
    write_blocks = victim_site.disk.write_blocks

    def first_pass(writes, lineage=None):
        if not passes:
            vector = victim._vector_write
            vector_ahead.append(vector is not None and not vector.resolved)
            # Armed past the commit block: the vector write still on
            # the arm must land, the pass behind it is what is cut.
            victim_site.disk.arm_fault(
                "crash_point", region=(start + 1, end),
                hook=lambda: cluster.crash_server(VICTIM), cut_after=cut_after,
            )
        passes.append(len(writes))
        return write_blocks(writes, lineage=lineage)

    victim_site.disk.write_blocks = first_pass
    cluster.crash_server(sequencer)

    deleted = []

    def the_update():
        yield from client.delete_dir(doomed)
        deleted.append(doomed.object_number)

    sim.spawn(the_update(), "update")
    cluster.run(until=sim.now + 3_000.0)
    if victim.alive:
        return passes[0] if passes else 0, ["the crash point never fired"]
    problems = []
    if vector_ahead != [True]:
        problems.append("the vector write was not queued ahead of the pass")
    new = live_image(cluster.servers[front])
    cut = disk_image(cluster, victim_site, checker)
    if cut[0] not in (old[0], new[0]):
        problems.append("directories are a mixture of old and new")
    if cut[1] not in (old[1], new[1]):
        problems.append("sessions are a mixture of old and new")
    if cut[1] != old[1] and cut[0] != new[0]:
        problems.append("a session record leads the update it acknowledges")
    raw = victim_site.partition.peek_block(COMMIT_BLOCK)
    if CommitBlock.from_bytes(raw, 3).config_vector[sequencer]:
        problems.append("the new view's vector is not on the victim's disk")
    cluster.restart_server(sequencer)
    after = cluster.add_client("after")
    pin_to_server(after, cluster, front)
    problems += restart_and_check(cluster, checker, after, sub, acked, in_flight=1)
    for server in cluster.servers:
        if [obj for obj in deleted if obj in server.state.directories]:
            problems.append(f"site {server.index}: an acknowledged delete undone")
    return passes[0], problems


def sweep(trial):
    """Every boundary of one pass: before its first block, after each
    one, after the last. Yields ``(cut_after, blocks, problems)``."""
    cut_after = 0
    while True:
        blocks, problems = trial(cut_after)
        yield cut_after, blocks, problems
        if cut_after >= blocks:
            return
        cut_after += 1


@pytest.mark.parametrize(
    "case, cut_after",
    [("append+session", 2), ("delete_dir", 1), ("append", 1)],
)
def test_one_record_write_out_cut(case, cut_after):
    blocks, problems = one_record_trial(case, cut_after)
    assert problems == []
    # Journal + home (or blanked home + commit block), + the session.
    assert blocks == (3 if case.endswith("session") else 2)


@pytest.mark.parametrize("cut_after", [2, 7])
def test_install_cut(cut_after):
    blocks, problems = install_trial(cut_after)
    assert problems == []
    # Journal, 3 entries, 1 removal, the commit block, 4 sessions.
    assert blocks == 10


@pytest.mark.parametrize("cut_after", [0, 2])
def test_first_write_out_after_a_reset_cut(cut_after):
    blocks, problems = post_reset_trial(cut_after)
    assert problems == []
    # Blanked home + the commit block + the session record.
    assert blocks == 3


if __name__ == "__main__":
    bad = total = 0
    trials = {case: (lambda k, case=case: one_record_trial(case, k))
              for case in ONE_RECORD_CASES}
    trials["install"] = install_trial
    trials["reset, delete_dir"] = post_reset_trial
    for case, trial in trials.items():
        for cut_after, blocks, problems in sweep(trial):
            total += 1
            bad += bool(problems)
            print(f"{case:20s} cut after {cut_after:2d}/{blocks:2d} blocks  "
                  f"{'; '.join(problems) or 'ok'}")
    print(f"{bad} of {total} boundaries left a mixture or lost an "
          "acknowledged row")
    sys.exit(1 if bad else 0)
