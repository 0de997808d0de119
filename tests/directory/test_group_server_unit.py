"""Focused tests of GroupDirectoryServer internals."""

import pytest

from repro.cluster import GroupServiceCluster
from repro.directory.operations import AppendRow, CreateDir, SessionOp, mint_check
from repro.errors import CapabilityError, GroupFailure, NoMajority, ServiceDown
from repro.group.kernel import BcRecord

from tests.helpers import counter_total


@pytest.fixture
def cluster():
    c = GroupServiceCluster(seed=23)
    c.start()
    c.wait_operational()
    return c


def _inject(server, op):
    """What the initiator does to a write before it broadcasts it."""
    return mint_check(op, server.sim.rng, server.check_stream)


class TestCheckFieldInjection:
    def test_initiator_injects_check(self, cluster):
        server = cluster.servers[0]
        op = CreateDir()
        injected = _inject(server, op)
        assert injected.check is not None
        assert op.check is None

    def test_a_session_envelope_is_minted_inside(self, cluster):
        op = SessionOp(CreateDir(), "c", 1)
        minted = _inject(cluster.servers[0], op)
        assert minted.op.check is not None and minted.session_seqno == 1
        assert op.op.check is None

    def test_existing_check_untouched(self, cluster):
        server = cluster.servers[0]
        op = CreateDir(check=777)
        assert _inject(server, op) is op

    def test_different_servers_inject_different_checks(self, cluster):
        checks = {
            _inject(s, CreateDir()).check for s in cluster.servers
        }
        assert len(checks) == 3

    def test_injection_is_deterministic_per_seed(self):
        def first_check(seed):
            c = GroupServiceCluster(seed=seed, name=f"ck{seed}")
            c.start()
            c.wait_operational()
            return _inject(c.servers[0], CreateDir()).check

        assert first_check(3) == first_check(3)


class TestApplyResultBookkeeping:
    def test_results_stored_only_for_own_requests(self, cluster):
        client = cluster.add_client("c")
        root = cluster.root_capability
        client.rpc._kernel.port_cache[cluster.config.port] = [
            cluster.config.server_addresses[0]
        ]

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "x", (sub,))
            yield cluster.sim.sleep(500.0)

        cluster.run_process(work())
        # The initiator removed its reply slots; bystanders never had any.
        for server in cluster.servers:
            assert server._reply_slots == {}

    def test_applied_kernel_advances_in_step(self, cluster):
        client = cluster.add_client("c")
        root = cluster.root_capability

        def work():
            for i in range(3):
                sub = yield from client.create_dir()
                yield from client.append_row(root, f"n{i}", (sub,))
            yield cluster.sim.sleep(1_000.0)

        cluster.run_process(work())
        applied = {s._applied_kernel for s in cluster.servers}
        assert applied == {5}  # 6 updates, kernel seqnos 0..5


class TestApplyLoopCuts:
    def test_top_ups_join_one_cut_and_skip_replays(self, cluster):
        """Scripted top-ups, the second headed by a replayed seqno. The
        loop must keep topping up until the kernel runs dry, apply the
        replayed record only once and cut the whole run as one batch."""
        server = cluster.servers[0]
        cluster.sim.obs.tracer.enable()
        root = cluster.root_capability
        base = server._applied_kernel

        def record(offset, payload):
            return BcRecord(base + offset, ("unit", offset), "peer", payload, 64)

        ops = [AppendRow(root, f"n{i}", ()) for i in range(4)]
        script = [
            [],  # the up-front drain finds nothing behind the leader
            [record(2, ops[1]), record(3, ops[2])],
            [record(3, ops[2]), record(4, ops[3])],
        ]
        server.member.receive_ready = (
            lambda limit=None: script.pop(0) if script else []
        )
        cluster.run_process(server._apply_loop(record(1, ops[0])))

        assert server._applied_kernel == base + 4
        events = [
            e for e in cluster.sim.obs.tracer.events()
            if e.node == str(server.me)
        ]
        cuts = [
            (e.args["first"], e.args["last"], e.args["size"])
            for e in events
            if e.name == "dir.batch"
        ]
        assert cuts == [(base + 1, base + 4, 4)]
        applied = [e for e in events if e.name == "dir.apply.end"]
        assert [e.args["seqno"] for e in applied] == [
            base + 1, base + 2, base + 3, base + 4
        ]
        assert not any(e.args["failed"] for e in applied)


class _FakeHandle:
    """Stands in for an RPC request handle in direct _handle_write calls."""

    def __init__(self):
        self.replies = []
        self.errors = []

    def reply(self, result, size=0):
        self.replies.append(result)

    def error(self, exc):
        self.errors.append(exc)


class TestApplyResultLeak:
    """Regression: a writer that aborts on GroupFailure between
    send_to_group and wait_applied used to leave its apply result
    behind forever — one leaked dict entry per injected failure."""

    def _injecting(self, server, *, before_apply):
        """Wrap wait_applied so it raises GroupFailure — either
        immediately (the apply has not happened yet) or after the real
        wait (the apply result is already stored)."""
        real = server.member.wait_applied

        def fake(target_seqno, applied):
            if not before_apply:
                yield from real(target_seqno, applied)
            raise GroupFailure("injected")
            yield  # pragma: no cover - make this a generator

        server.member.wait_applied = fake

    def _drive_writes(self, cluster, server, n, tag):
        root = cluster.root_capability
        handles = []

        def work():
            for i in range(n):
                handle = _FakeHandle()
                handles.append(handle)
                yield from server._handle_write(
                    AppendRow(root, f"{tag}{i}", (root,)), handle
                )
            yield cluster.sim.sleep(2_000.0)  # let every apply land

        cluster.run_process(work())
        return handles

    def test_no_leak_when_failure_follows_apply(self, cluster):
        server = cluster.servers[0]
        self._injecting(server, before_apply=False)
        handles = self._drive_writes(cluster, server, 5, "late")
        for handle in handles:
            assert len(handle.errors) == 1
            assert isinstance(handle.errors[0], ServiceDown)
        # The old code left 5 entries here (one per injected failure).
        assert server._reply_slots == {}

    def test_no_leak_when_failure_precedes_apply(self, cluster):
        server = cluster.servers[0]
        self._injecting(server, before_apply=True)
        handles = self._drive_writes(cluster, server, 5, "early")
        for handle in handles:
            assert isinstance(handle.errors[0], ServiceDown)
        # The abandon landed before the apply: the group thread found
        # no slot for the record and stored nothing.
        assert server._reply_slots == {}

    def test_updates_still_applied_despite_abandoned_replies(self, cluster):
        server = cluster.servers[0]
        self._injecting(server, before_apply=False)
        self._drive_writes(cluster, server, 3, "r")
        # The updates were r-safe when abandoned, so every replica
        # (including the abandoning one) still applied them.
        for replica in cluster.servers:
            names = set(replica.state.directories[1].names())
            assert {"r0", "r1", "r2"} <= names
        assert cluster.replicas_consistent()


class TestCounters:
    def test_read_write_counters(self, cluster):
        client = cluster.add_client("c")
        root = cluster.root_capability

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "x", (sub,))
            for _ in range(3):
                yield from client.lookup(root, "x")

        cluster.run_process(work())
        assert counter_total(cluster.sim, "dir.writes") == 2
        assert counter_total(cluster.sim, "dir.reads") == 3

    def test_refused_counter_under_minority(self, cluster):
        client = cluster.add_client("c")
        root = cluster.root_capability
        cluster.crash_server(0)
        cluster.crash_server(1)
        cluster.run(until=cluster.sim.now + 2_000.0)
        refused = cluster.obs.registry.counter(str(cluster.servers[2].me), "dir.refused")
        before = refused.value

        def work():
            try:
                yield from client.lookup(root, "x")
            except Exception:
                pass

        cluster.run_process(work())
        assert refused.value >= before


class TestMajorityAccounting:
    def test_members_present_and_config_vector(self, cluster):
        server = cluster.servers[0]
        assert server.members_present() == 3
        assert server.config_vector() == (True, True, True)
        cluster.crash_server(2)
        cluster.run(until=cluster.sim.now + 2_500.0)
        assert server.members_present() == 2
        assert server.config_vector() == (True, True, False)
        assert server.has_majority()

    def test_majority_follows_a_reset_to_a_minority_and_back(self, cluster):
        """members_present() counts each view list once; a reset into a
        minority view, the recovery after it and the rejoin each hand
        the server a new list, so the count follows."""
        server = cluster.servers[0]

        def recount():
            view = server.member.kernel.view
            return sum(a in view for a in cluster.config.server_addresses)

        assert server.has_majority() and server.members_present() == 3
        cluster.crash_server(1)
        cluster.crash_server(2)
        cluster.run(until=cluster.sim.now + 2_500.0)
        assert not server.has_majority()
        assert server.members_present() == recount() < cluster.config.majority
        cluster.restart_server(1)
        cluster.restart_server(2)
        cluster.wait_operational()
        assert server.has_majority()
        assert server.members_present() == recount() == 3

    def test_mourned_set_tracks_config_vector(self, cluster):
        server = cluster.servers[0]
        assert server.mourned_set() == set()
        cluster.crash_server(2)
        cluster.run(until=cluster.sim.now + 2_500.0)
        # The view change wrote the new config vector to disk; the
        # crashed server is now mourned.
        assert server.mourned_set() == {cluster.config.server_addresses[2]}
