"""Unit tests for the consistency checkers."""

from repro.bench.harness import build_deployment
from repro.directory.admin import COMMIT_BLOCK
from repro.verify import (
    HistoryRecorder,
    check_durability,
    check_exactly_once_applies,
    check_linearizability,
)


def record_sequence(history, client, steps):
    """steps: list of (kind, key, value) applied at increasing times."""
    for t, (kind, key, value) in enumerate(steps):
        history.record(client, kind, key, value, float(t), float(t) + 0.5)


class TestSessionGuarantees:
    """Read-your-writes, as register inputs: the history one client's
    operations leave, judged by a closing read of the key."""

    def test_stale_read_detected(self):
        h = HistoryRecorder()
        record_sequence(h, "c1", [("append", "k", "cap1"), ("delete", "k", None)])
        h.record("final", "lookup", "k", None, 5.0, 5.5)
        assert check_linearizability(h) == []
        h.record("final", "lookup", "k", "cap1", 6.0, 6.5)  # the deleted value
        problems = check_linearizability(h)
        assert len(problems) == 1 and "'k'" in problems[0]

    def test_lost_write_detected(self):
        h = HistoryRecorder()
        record_sequence(h, "c1", [("append", "k", "cap1")])
        h.record("final", "lookup", "k", "cap1", 5.0, 5.5)
        assert check_linearizability(h) == []
        h.record("final", "lookup", "k", None, 6.0, 6.5)  # the write vanished
        assert len(check_linearizability(h)) == 1

    def test_read_before_any_write_expects_none(self):
        h = HistoryRecorder()
        h.record("final", "lookup", "k", None, 0.0, 0.5)
        assert check_linearizability(h) == []
        h.record("final", "lookup", "k", "phantom", 1.0, 1.5)
        assert len(check_linearizability(h)) == 1

    def test_clients_checked_independently(self):
        # The RPC pair's layout: every client on keys of its own.
        h = HistoryRecorder()
        record_sequence(h, "good", [("append", "a", "x")])
        record_sequence(h, "bad", [("append", "b", "y")])
        h.record("final", "lookup", "a", "x", 5.0, 5.5)
        h.record("final", "lookup", "b", None, 6.0, 6.5)
        problems = check_linearizability(h)
        assert len(problems) == 1 and "'b'" in problems[0]

    def test_events_sorted_by_start_time(self):
        h = HistoryRecorder()
        # Recorded out of order: the checker orders by time, not arrival.
        h.record("final", "lookup", "k", "v", 10.0, 10.5)
        h.record("c", "append", "k", "v", 1.0, 1.5)
        assert check_linearizability(h) == []


class TestNoLostUpdates:
    """The final listing is a closing read of every key."""

    def test_last_writer_wins_across_clients(self):
        h = HistoryRecorder()
        h.record("a", "append", (1, "n"), "cap", 0.0, 1.0)
        h.record("b", "delete", (1, "n"), None, 2.0, 3.0)
        h.record("final", "lookup", (1, "n"), None, 4.0, 5.0)
        assert check_linearizability(h) == []
        h.record("final", "lookup", (1, "n"), "cap", 6.0, 7.0)
        assert len(check_linearizability(h)) == 1


class TestSharedKeyLinearizability:
    """Wing-Gong register check over histories of shared keys."""

    def test_sequential_history_linearizable(self):
        h = HistoryRecorder()
        h.record("c1", "append", "k", "A", 0.0, 1.0)
        h.record("c2", "lookup", "k", "A", 2.0, 3.0)
        h.record("c1", "delete", "k", None, 4.0, 5.0)
        h.record("c2", "lookup", "k", None, 6.0, 7.0)
        assert check_linearizability(h) == []

    def test_stale_read_is_a_violation(self):
        h = HistoryRecorder()
        h.record("c1", "append", "k", "A", 0.0, 1.0)
        h.record("c1", "append", "k", "B", 2.0, 3.0)
        h.record("c2", "lookup", "k", "A", 4.0, 5.0)  # reads overwritten value
        problems = check_linearizability(h)
        assert len(problems) == 1 and "'k'" in problems[0]

    def test_concurrent_writes_may_land_in_either_order(self):
        h = HistoryRecorder()
        h.record("c1", "append", "k", "A", 0.0, 2.0)
        h.record("c2", "append", "k", "B", 1.0, 3.0)
        h.record("c3", "lookup", "k", "A", 4.0, 5.0)  # B then A is legal
        assert check_linearizability(h) == []

    def test_reads_cannot_flip_flop_settled_writes(self):
        h = HistoryRecorder()
        h.record("c1", "append", "k", "A", 0.0, 2.0)
        h.record("c2", "append", "k", "B", 1.0, 3.0)
        h.record("c3", "lookup", "k", "A", 4.0, 5.0)
        h.record("c3", "lookup", "k", "B", 6.0, 7.0)  # no B-write remains
        assert len(check_linearizability(h)) == 1

    def test_ambiguous_write_is_optional(self):
        # The "append?" may be linearized (second read sees B) or not
        # (first read still sees A) — both at once is also fine because
        # its linearization point floats freely after its start.
        h = HistoryRecorder()
        h.record("c1", "append", "k", "A", 0.0, 1.0)
        h.record("c2", "append?", "k", "B", 2.0, 9.0)
        h.record("c3", "lookup", "k", "A", 3.0, 4.0)
        h.record("c3", "lookup", "k", "B", 5.0, 6.0)
        assert check_linearizability(h) == []

    def test_ambiguous_delete_cannot_unhappen(self):
        h = HistoryRecorder()
        h.record("c1", "append", "k", "A", 0.0, 1.0)
        h.record("c2", "delete?", "k", None, 2.0, 9.0)
        h.record("c3", "lookup", "k", None, 4.0, 5.0)  # delete linearized
        h.record("c3", "lookup", "k", "A", 6.0, 7.0)  # ... it can't revert
        assert len(check_linearizability(h)) == 1

    def test_keys_checked_independently(self):
        h = HistoryRecorder()
        h.record("c1", "append", "good", "A", 0.0, 1.0)
        h.record("c2", "lookup", "good", "A", 2.0, 3.0)
        h.record("c1", "append", "bad", "X", 0.0, 1.0)
        h.record("c2", "lookup", "bad", "Y", 2.0, 3.0)
        problems = check_linearizability(h)
        assert len(problems) == 1 and "'bad'" in problems[0]

    def test_definitive_error_kinds_skipped(self):
        h = HistoryRecorder()
        h.record("c1", "append!", "k", "AlreadyExists(...)", 0.0, 1.0)
        h.record("c2", "lookup", "k", None, 2.0, 3.0)
        assert check_linearizability(h) == []


def apply_event(node, client, sess, failed=False, dedup=False):
    return {
        "name": "dir.apply.end",
        "node": node,
        "args": {"client": client, "sess": sess, "failed": failed, "dedup": dedup},
    }


class TestExactlyOnceApplies:
    def test_double_execution_detected(self):
        events = [apply_event("s0", "c1", 1), apply_event("s0", "c1", 1)]
        problems = check_exactly_once_applies(events)
        assert len(problems) == 1 and "2 times" in problems[0]

    def test_dedup_hits_are_not_executions(self):
        events = [
            apply_event("s0", "c1", 1),
            apply_event("s0", "c1", 1, dedup=True),
        ]
        assert check_exactly_once_applies(events) == []

    def test_failed_replay_is_not_an_execution(self):
        events = [
            apply_event("s0", "c1", 1, failed=True),
            apply_event("s0", "c1", 1, failed=True),
        ]
        assert check_exactly_once_applies(events) == []

    def test_each_replica_applies_once(self):
        # Active replication: every node executes every op exactly once.
        events = [apply_event("s0", "c1", 1), apply_event("s1", "c1", 1)]
        assert check_exactly_once_applies(events) == []

    def test_unstamped_applies_ignored(self):
        events = [
            {"name": "dir.apply.end", "node": "s0", "args": {"failed": False}},
            {"name": "dir.apply.end", "node": "s0", "args": {"failed": False}},
        ]
        assert check_exactly_once_applies(events) == []


class TestDurabilityAudit:
    """An RPC replica writes its commit block only on a DeleteDir, so a
    pair that has only appended has a blank block 0: the audit must
    expect the commit block only once the disk has held one."""

    def _rpc_pair_after(self, delete_dir):
        cluster = build_deployment("rpc", seed=0).cluster
        client = cluster.add_client("c")
        root = cluster.root_capability

        def script():
            for i in range(3):
                sub = yield from client.create_dir()
                yield from client.append_row(root, f"n{i}", (sub,))
            if delete_dir:
                yield from client.delete_dir((yield from client.create_dir()))

        cluster.run_process(script(), "script")
        cluster.settle(2_000.0)
        return cluster

    def test_a_fault_free_rpc_pair_passes(self):
        cluster = self._rpc_pair_after(delete_dir=False)
        assert not any(s.admin.commit_on_disk for s in cluster.servers)
        assert check_durability(cluster) == []

    def test_a_written_commit_block_is_audited(self):
        cluster = self._rpc_pair_after(delete_dir=True)
        assert check_durability(cluster) == []
        server = cluster.servers[0]
        assert server.admin.commit_on_disk
        server.admin.partition.disk._blocks.pop(
            server.admin.partition._translate(COMMIT_BLOCK)
        )
        assert check_durability(cluster) == [
            f"server {server.index}: admin block 0 does not hold its "
            f"acknowledged contents (unrepaired rot, or a "
            f"lost/torn/misdirected write)"
        ]
