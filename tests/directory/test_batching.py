"""Group-commit batching: equivalence with the unbatched path.

The contract of the batching pipeline is that it may only change the
*storage schedule* — which disk operations happen when — never the
replicated outcome. These tests run one fixed concurrent workload
under ``batch_max ∈ {1, 4, 16}`` and require byte-identical directory
state, byte-identical commit blocks, and identical object-table entry
seqnos across all three configurations.

The workload is built so its total order is pinned: every writer
performs exactly ONE update, launched at staggered instants that all
fall inside the first record's persist window. Sequencing order is
then fixed before batching can influence any timing, so any
divergence across batch sizes is a real batching bug, not workload
noise.
"""

import pytest

from repro.cluster import GroupServiceCluster, NvramServiceCluster
from repro.directory.admin import COMMIT_BLOCK
from repro.directory.config import ServiceConfig
from tests.helpers import disk_ops, pin_to_server


def run_workload(batch_max, seed=11, trace=False, retry_safe=False):
    cluster = GroupServiceCluster(
        seed=seed, name="bt", server_threads=8, batch_max=batch_max
    )
    cluster.start()
    cluster.wait_operational()
    if trace:
        cluster.sim.obs.tracer.enable()
    sim = cluster.sim
    root = cluster.root_capability

    def add_client(name):
        return cluster.add_client(name, retry_safe=retry_safe)

    # Sequential setup: subdirectories whose later deletion exercises
    # the commit block's seqno/next_object bookkeeping.
    setup = add_client("setup")
    holder = {}

    def do_setup():
        caps = []
        for i in range(3):
            cap = yield from setup.create_dir()
            yield from setup.append_row(root, f"sub{i}", (cap,))
            caps.append(cap)
        holder["subs"] = caps

    cluster.run_process(do_setup())
    subs = holder["subs"]

    # Concurrent phase: one update per client, staggered 3 ms apart.
    ops = []
    for i in range(6):
        c = add_client(f"w{i}")
        ops.append(lambda c=c, i=i: c.append_row(root, f"row{i}", (subs[0],)))
    # The initiator mints a new directory's check field from its own
    # RNG stream, so which replica serves a CreateDir is part of the
    # outcome: pin both creators to one replica instead of leaving it
    # to a locate race that batch timing can tip either way.
    c6 = add_client("w6")
    pin_to_server(c6, cluster, 0)
    ops.append(lambda: c6.create_dir())
    c7 = add_client("w7")
    pin_to_server(c7, cluster, 0)
    ops.append(lambda: c7.create_dir())
    c8 = add_client("w8")
    ops.append(lambda: c8.delete_dir(subs[1]))
    c9 = add_client("w9")
    ops.append(lambda: c9.delete_dir(subs[2]))
    c10 = add_client("w10")
    ops.append(lambda: c10.delete_row(root, "sub1"))
    c11 = add_client("w11")
    ops.append(lambda: c11.chmod_row(root, "sub0", 0b011, (subs[0],)))

    def one_shot(delay, fn):
        def runner():
            yield sim.sleep(delay)
            yield from fn()

        return runner

    procs = [
        sim.spawn(one_shot(3.0 * i, fn)(), f"op{i}")
        for i, fn in enumerate(ops)
    ]

    def waiter():
        for proc in procs:
            yield proc
        yield sim.sleep(1_000.0)  # settle: replies, gc, commits

    cluster.run_process(waiter())
    return cluster


def state_digest(cluster):
    """Everything the equivalence contract covers, per server."""
    out = []
    for server in cluster.servers:
        out.append(
            {
                "fingerprint": server.state.fingerprint(),
                "update_seqno": server.state.update_seqno,
                "next_object": server.state.next_object,
                "entry_seqnos": {
                    obj: seqno
                    for obj, (_, seqno) in sorted(server.admin.entries.items())
                },
                "entry_checks": dict(sorted(server.admin.entry_checks.items())),
                "commit_block": server.admin.partition.peek_block(COMMIT_BLOCK),
            }
        )
    return out


class TestBatchedUnbatchedEquivalence:
    @pytest.fixture(scope="class")
    def runs(self):
        return {bm: run_workload(bm) for bm in (1, 4, 16)}

    def test_replicas_consistent_within_each_run(self, runs):
        for bm, cluster in runs.items():
            assert cluster.replicas_consistent(), f"batch_max={bm}"

    def test_state_and_commit_blocks_identical_across_batch_sizes(self, runs):
        digests = {bm: state_digest(cluster) for bm, cluster in runs.items()}
        assert digests[1] == digests[4], "batch_max=4 diverged from unbatched"
        assert digests[1] == digests[16], "batch_max=16 diverged from unbatched"

    def test_batches_actually_formed(self, runs):
        sizes = []
        for server in runs[16].servers:
            hist = runs[16].sim.obs.registry.histogram(
                str(server.me), "dir.batch_size"
            )
            sizes.extend(hist._values)
        assert sizes and max(sizes) >= 2, "no multi-record batch ever formed"

    def test_batch_max_bounds_batch_size(self, runs):
        # dir.batch_size is observed at the cut: one sample per flush.
        for server in runs[4].servers:
            hist = runs[4].sim.obs.registry.histogram(
                str(server.me), "dir.batch_size"
            )
            assert all(size <= 4 for size in hist._values)

    def test_unbatched_run_records_no_batches(self, runs):
        for server in runs[1].servers:
            hist = runs[1].sim.obs.registry.histogram(
                str(server.me), "dir.batch_size"
            )
            assert hist.count == 0


class TestSessionBatchingEquivalence:
    """The equivalence contract extends to the session layer: session
    tables ride the object table, so batched and unbatched runs of a
    retry-safe (session-stamped) workload must still be byte-equal —
    fingerprints include the session tables."""

    @pytest.fixture(scope="class")
    def runs(self):
        return {bm: run_workload(bm, retry_safe=True) for bm in (1, 16)}

    def test_session_workload_byte_equal_across_batch_sizes(self, runs):
        digests = {bm: state_digest(cluster) for bm, cluster in runs.items()}
        assert digests[1] == digests[16], "batching changed session state"

    def test_sessions_were_actually_recorded(self, runs):
        for bm, cluster in runs.items():
            for server in cluster.servers:
                assert len(server.state.sessions) >= 12, f"batch_max={bm}"

    def test_replicas_consistent_within_each_run(self, runs):
        for bm, cluster in runs.items():
            assert cluster.replicas_consistent(), f"batch_max={bm}"


class TestBatchTracing:
    def test_batched_run_emits_dir_batch_events(self):
        cluster = run_workload(16, trace=True)
        events = [
            e for e in cluster.sim.obs.tracer.events() if e.name == "dir.batch"
        ]
        assert events, "batching enabled but no dir.batch events"
        assert any(e.args["size"] >= 2 for e in events)
        for e in events:
            assert e.args["first"] <= e.args["last"]

    def test_batch_max_1_trace_is_batch_free(self):
        """batch_max=1 must be bit-for-bit the old behavior — that
        includes never emitting batching trace events."""
        cluster = run_workload(1, trace=True)
        names = {e.name for e in cluster.sim.obs.tracer.events()}
        assert "dir.batch" not in names

    def test_batched_trace_is_deterministic(self):
        def trace_tuple(cluster):
            return [
                (e.ts, e.node, e.cat, e.name, e.ph, e.dur, e.lineage,
                 tuple(sorted(e.args.items())))
                for e in cluster.sim.obs.tracer.events()
            ]

        first = run_workload(16, trace=True)
        second = run_workload(16, trace=True)
        assert trace_tuple(first) == trace_tuple(second)


def run_pair_writers(cluster, n_writers, run_ms):
    """*n_writers* closed-loop clients doing append+delete pairs on
    unique names for *run_ms*."""
    sim = cluster.sim
    root = cluster.root_capability
    until = sim.now + run_ms

    def writer(client, i):
        k = 0
        while sim.now < until:
            yield from client.append_row(root, f"w{i}.{k}", ())
            yield from client.delete_row(root, f"w{i}.{k}")
            k += 1

    procs = [
        sim.spawn(writer(cluster.add_client(f"w{i}"), i), f"w{i}")
        for i in range(n_writers)
    ]

    def waiter():
        for proc in procs:
            yield proc
        yield sim.sleep(500.0)

    cluster.run_process(waiter())


def traced_cluster(kind=GroupServiceCluster, **kwargs):
    cluster = kind(seed=5, name="tu", server_threads=8, **kwargs)
    cluster.start()
    cluster.wait_operational()
    cluster.sim.obs.tracer.enable()
    return cluster


def events_by_node(cluster, *names):
    out = {str(server.me): [] for server in cluster.servers}
    for e in cluster.sim.obs.tracer.events():
        if e.name in names and e.node in out:
            out[e.node].append(e)
    return out


class TestTopUp:
    """The apply loop keeps draining the kernel while it applies, so
    requests sequenced behind a convoy leader join its flush."""

    def test_eight_writers_fill_every_flush(self):
        """Closed loop, 8 writers: all eight requests of a round are
        sequenced within ~3 ms of each other, well inside the leader's
        7 ms apply — every flush must carry all eight (the drain-once
        loop alternated 1-record and 7-record flushes)."""
        cluster = traced_cluster()
        started = cluster.sim.now
        run_pair_writers(cluster, 8, 4_000.0)
        assert cluster.replicas_consistent()
        # The apply stage's meter (the capacity lens's top station):
        # every delivered record is applied once, and the loop's busy
        # time is real and bounded by the run.
        registry = cluster.sim.obs.registry
        for server in cluster.servers:
            node = str(server.me)
            applied = registry.counter(node, "dir.applied_records").value
            assert applied == registry.counter(node, "group.delivered").value
            busy = registry.counter(node, "dir.apply_busy_ms").value
            assert 0.0 < busy <= cluster.sim.now, node
        warm = started + 500.0
        by_node = events_by_node(cluster, "dir.batch", "dir.persist.start")
        for node, events in by_node.items():
            sizes = [
                e.args["size"] for e in events
                if e.name == "dir.batch" and e.ts > warm
            ]
            assert len(sizes) >= 20, node
            assert set(sizes) == {8}, (node, sorted(set(sizes)))
            # None was a cut of one: every flush is shared (an
            # unshared persist carries no batch argument).
            assert all(
                "batch" in e.args for e in events
                if e.name == "dir.persist.start" and e.ts > warm
            ), node

    @pytest.mark.parametrize("retry_safe", [False, True])
    def test_single_client_pays_one_arm_pass_per_update(self, retry_safe):
        """A solo op never finds anything to top up, and the batched
        server writes its cut of one out like any other: ONE batch arm
        op on the admin partition and no random write, where the
        paper's server pays two (three with a session record). The
        protocol is untouched — same results, same frames by kind —
        only the latency is lower."""

        def solo(**kwargs):
            cluster = traced_cluster(**kwargs)
            client = cluster.add_client("solo", retry_safe=retry_safe)
            root = cluster.root_capability
            sim = cluster.sim
            out = {}

            def work():
                yield from client.append_row(root, "warm", ())
                yield sim.sleep(500.0)  # every replica's commit has landed
                ops = [disk_ops(site.disk) for site in cluster.sites]
                frames = dict(cluster.network.stats.frames_by_kind)
                began = sim.now
                out["result"] = yield from client.append_row(root, "n", ())
                out["latency"] = sim.now - began
                yield sim.sleep(500.0)
                out["ops"] = [
                    {kind: disk_ops(site.disk)[kind] - was[kind] for kind in was}
                    for site, was in zip(cluster.sites, ops)
                ]
                out["frames"] = {
                    kind: count - frames.get(kind, 0)
                    for kind, count in cluster.network.stats.frames_by_kind.items()
                    # Heartbeats and echoes count elapsed time, not work.
                    if not kind.endswith((".hb", ".echo"))
                }

            cluster.run_process(work())
            assert cluster.replicas_consistent()
            out["rows"] = [
                list(server.state.directories[1].names())
                for server in cluster.servers
            ]
            return out

        default, paper = solo(), solo(batch_max=1)
        for ops in default["ops"]:
            assert (ops["batch"], ops["random"]) == (1, 0)
        for ops in paper["ops"]:
            assert (ops["batch"], ops["random"]) == (0, 3 if retry_safe else 2)
        assert default["result"] == paper["result"]
        assert default["rows"] == paper["rows"]
        assert default["frames"] == paper["frames"]
        assert default["latency"] < paper["latency"] - 30.0  # one random write

    def test_nvram_backend_drains_once_per_receive(self, monkeypatch):
        """The NVRAM commit is per-record programmed I/O with no fixed
        cost to share, so that backend opts out of topping up: at most
        one receive_ready per blocking receive, as before."""
        from repro.group.member import GroupMember

        drains = {}  # member -> receive_ready calls since its last receive
        worst = {"calls": 0}
        receive, receive_ready = GroupMember.receive, GroupMember.receive_ready

        def counted_receive(member):
            record = yield from receive(member)
            drains[member] = 0
            return record

        def counted_receive_ready(member, limit=None):
            drains[member] = drains.get(member, 0) + 1
            worst["calls"] = max(worst["calls"], drains[member])
            return receive_ready(member, limit)

        monkeypatch.setattr(GroupMember, "receive", counted_receive)
        monkeypatch.setattr(GroupMember, "receive_ready", counted_receive_ready)
        cluster = traced_cluster(kind=NvramServiceCluster)
        run_pair_writers(cluster, 7, 1_500.0)
        assert cluster.replicas_consistent()
        sizes = [
            e.args["size"]
            for events in events_by_node(cluster, "dir.batch").values()
            for e in events
        ]
        assert max(sizes) >= 2  # it still batches what one drain finds
        assert worst["calls"] == 1


class TestDefaults:
    def test_batching_on_by_default(self):
        config = ServiceConfig(name="x", server_addresses=("a", "b", "c"))
        assert config.batch_max > 1
