"""Unit tests for group-kernel internals: safe-point math, dedup,
send watchdog, and required-ack degradation."""

import pytest

from repro.group import GroupMember, GroupTimings
from repro.group import kernel as group_kernel
from repro.group.kernel import GroupKernel

from tests.group.test_basic import build_group
from tests.helpers import TestBed


def lone_kernel(resilience=2):
    bed = TestBed(["solo"])
    member = GroupMember(bed["solo"].transport, "g")
    member.create(resilience)
    return bed, member.kernel


class TestSafePoint:
    def test_full_acks_commit_everything(self):
        bed, members = build_group(["a", "b", "c"], resilience=2)
        kernel = members["a"].kernel  # sequencer
        kernel.history.update({0: None, 1: None, 2: None})  # placeholder
        kernel.received = 2
        kernel.ack_progress = {"b": 2, "c": 2}
        assert kernel._safe_point() == 2

    def test_slowest_required_ack_bounds_commit(self):
        bed, members = build_group(["a", "b", "c"], resilience=2)
        kernel = members["a"].kernel
        kernel.received = 5
        kernel.ack_progress = {"b": 5, "c": 1}
        # r=2 needs BOTH others: the laggard bounds the safe point.
        assert kernel._safe_point() == 1

    def test_r1_needs_only_the_fastest_other(self):
        bed, members = build_group(["a", "b", "c"], resilience=1)
        kernel = members["a"].kernel
        kernel.received = 5
        kernel.ack_progress = {"b": 5, "c": 1}
        assert kernel._safe_point() == 5

    def test_required_acks_degrade_with_small_views(self):
        bed, kernel = lone_kernel(resilience=2)
        # A singleton view cannot wait for anyone.
        assert kernel._required_acks() == 0

    def test_safe_point_never_exceeds_received(self):
        bed, members = build_group(["a", "b", "c"], resilience=1)
        kernel = members["a"].kernel
        kernel.received = 3
        kernel.ack_progress = {"b": 9, "c": 9}  # acks ahead of us?!
        assert kernel._safe_point() == 3

    def test_r2_of_three_others_takes_the_second_fastest(self):
        bed, members = build_group(["a", "b", "c", "d"], resilience=2)
        kernel = members["a"].kernel
        kernel.received = 9
        kernel.ack_progress = {"b": 4, "c": 8, "d": 6}
        assert kernel._safe_point() == 6


class TestSequencerDedup:
    def test_duplicate_request_does_not_reassign(self):
        bed, members = build_group(["a", "b", "c"])
        kernel = members["a"].kernel

        def run():
            yield from members["b"].send_to_group("once")
            yield bed.sim.sleep(5.0)
            assigned_before = kernel.next_assign
            # Replay the same msg_id as if b's watchdog re-sent it.
            record = kernel.history[0]
            kernel._sequence(record.msg_id, record.sender, record.payload, 10)
            return assigned_before

        assigned_before = bed.run_until(bed.sim.spawn(run()))
        assert kernel.next_assign == assigned_before
        assert len(kernel.history) == 1

    def test_duplicate_triggers_rebroadcast(self):
        bed, members = build_group(["a", "b", "c"])
        kernel = members["a"].kernel

        def run():
            yield from members["b"].send_to_group("once")
            yield bed.sim.sleep(5.0)
            before = bed.network.stats.frames_by_kind.get("grp.g.bc", 0)
            record = kernel.history[0]
            kernel._sequence(record.msg_id, record.sender, record.payload, 10)
            yield bed.sim.sleep(5.0)
            return bed.network.stats.frames_by_kind.get("grp.g.bc", 0) - before

        assert bed.run_until(bed.sim.spawn(run())) == 1


class TestSendWatchdog:
    def test_lost_request_is_retransmitted(self, monkeypatch):
        """Drop the first req packet; the watchdog re-sends and the
        message still commits."""
        monkeypatch.setattr(group_kernel, "SEND_RETRY_MS", 30.0)
        bed, members = build_group(["a", "b", "c"])
        kernel_b = members["b"].kernel
        # Sabotage exactly one request by monkeypatching _send once.
        original = kernel_b._send
        dropped = {"done": False}

        def lossy(dst, suffix, payload, size=64):
            if suffix == "req" and not dropped["done"]:
                dropped["done"] = True
                return  # swallowed by the network gremlin
            original(dst, suffix, payload, size)

        kernel_b._send = lossy

        def run():
            seqno = yield from members["b"].send_to_group("persistent")
            return seqno

        assert bed.run_until(bed.sim.spawn(run())) == 0
        assert dropped["done"]

    def test_send_to_idle_kernel_fails_immediately(self):
        bed = TestBed(["x"])
        member = GroupMember(bed["x"].transport, "g")
        fut = member.kernel.submit("nope", 10)
        assert fut.resolved
        from repro.errors import GroupFailure

        assert isinstance(fut.exception, GroupFailure)


class TestHistoryGc:
    def test_history_stays_bounded_under_sustained_traffic(self):
        from repro.group.kernel import HISTORY_MARGIN

        bed, members = build_group(["a", "b", "c"])
        n_messages = 3 * HISTORY_MARGIN

        def sender():
            for i in range(n_messages):
                yield from members["a"].send_to_group(i, size=16)

        def receiver(addr):
            for _ in range(n_messages):
                yield from members[addr].receive()

        for addr in ("a", "b", "c"):
            bed.sim.spawn(receiver(addr), f"r-{addr}")
        bed.sim.spawn(sender(), "s")
        bed.run(until=bed.sim.now + 120_000.0)
        for addr in ("a", "b", "c"):
            kernel = members[addr].kernel
            assert kernel.taken == n_messages - 1
            # Ticker pruning keeps the buffer near the margin, far
            # below the total message count.
            assert len(kernel.history) <= 2 * HISTORY_MARGIN + 8

    def test_pruning_never_drops_undelivered_messages(self):
        bed, members = build_group(["a", "b", "c"])

        def sender():
            for i in range(100):
                yield from members["a"].send_to_group(i, size=16)

        # b consumes nothing for a long while; its history must keep
        # everything it has not taken.
        bed.sim.spawn(sender(), "s")
        bed.run(until=bed.sim.now + 30_000.0)
        kernel_b = members["b"].kernel
        assert kernel_b.taken == -1
        assert set(range(100)) <= set(kernel_b.history)

        def drain():
            got = []
            for _ in range(100):
                record = yield from members["b"].receive()
                got.append(record.payload)
            return got

        assert bed.run_until(bed.sim.spawn(drain())) == list(range(100))

    @staticmethod
    def floor(kernel):
        """What _prune_history's docstring says may go: everything
        strictly below this seqno."""
        floor = min(kernel.taken, kernel.committed - group_kernel.HISTORY_MARGIN)
        if kernel.me == kernel.sequencer and kernel.ack_progress:
            floor = min(floor, min(kernel.ack_progress.values()))
        return floor

    def test_no_seqno_below_the_floor_survives_a_prune(self):
        bed, members = build_group(["a", "b", "c"])
        n_messages = 3 * group_kernel.HISTORY_MARGIN

        def sender():
            for i in range(n_messages):
                yield from members["a"].send_to_group(i, size=16)

        def receiver(addr):
            for _ in range(n_messages):
                yield from members[addr].receive()

        for addr in ("a", "b", "c"):
            bed.sim.spawn(receiver(addr), f"r-{addr}")
        bed.sim.spawn(sender(), "s")
        bed.run(until=bed.sim.now + 120_000.0)
        for addr in ("a", "b", "c"):
            kernel = members[addr].kernel
            kernel._prune_history()
            floor = self.floor(kernel)
            assert floor > group_kernel.HISTORY_MARGIN
            assert min(kernel.history) >= floor
            # A record older than everything pruned arrives late (a
            # straggler's retransmission, a vote tail): it is held, and
            # the next prune drops it with its dedup entry.
            late = group_kernel.BcRecord(3, ("late", addr), "a", None, 16)
            assert kernel._hold(late)
            kernel._prune_history()
            assert min(kernel.history) >= floor
            assert ("late", addr) not in kernel.sequenced_ids


class TestInfo:
    def test_info_snapshot_matches_kernel(self):
        bed, members = build_group(["a", "b", "c"])

        def run():
            yield from members["a"].send_to_group("m")
            yield bed.sim.sleep(5.0)

        bed.run_until(bed.sim.spawn(run()))
        info = members["b"].info()
        kernel = members["b"].kernel
        assert info.received == kernel.received
        assert info.committed == kernel.committed
        assert info.taken == kernel.taken
        assert info.size == 3
        assert info.buffered == kernel.received - kernel.taken


class TestRestartSafety:
    """Regressions for the chaos-harness finding: state left over from a
    machine's (or group instance's) previous life must never alias new
    protocol traffic."""

    def test_msg_ids_unique_across_kernel_restarts(self):
        # A restarted machine builds a fresh kernel whose message
        # counter starts over; peers may still hold dedup entries from
        # its previous life. The kernel epoch must disambiguate them,
        # or the sequencer swallows new messages as "duplicates" and
        # acknowledges sends that were never sequenced.
        bed = TestBed(["a"])
        k1 = GroupKernel(bed["a"].transport, "g")
        first_life = {k1.new_msg_id() for _ in range(5)}
        bed.sim.run(until=100.0)  # the restart happens later in time
        k2 = GroupKernel(bed["a"].transport, "g")
        second_life = {k2.new_msg_id() for _ in range(5)}
        assert first_life.isdisjoint(second_life)

    def test_drop_speculation_purges_above_gap_records(self):
        from repro.group.kernel import BcRecord

        bed, kernel = lone_kernel()
        for seqno in (0, 1, 4):  # gap at 2-3: 4 is uncommitted speculation
            record = BcRecord(seqno, ("m", 0, seqno), "m", f"p{seqno}", 8)
            kernel.history[seqno] = record
            kernel.sequenced_ids[record.msg_id] = seqno
        kernel.received = 1
        kernel._drop_speculation()
        assert sorted(kernel.history) == [0, 1]
        assert ("m", 0, 4) not in kernel.sequenced_ids
        assert kernel.sequenced_ids[("m", 0, 1)] == 1

    def test_reset_does_not_resurrect_speculation(self):
        # A coordinator concluding a reset must not keep above-gap
        # records: seqno assignment restarts at received+1 and would
        # collide with them.
        from repro.group.kernel import BcRecord

        bed, kernel = lone_kernel()
        stale = BcRecord(7, ("ghost", 0, 1), "ghost", "stale", 8)
        kernel.history[7] = stale
        kernel.sequenced_ids[stale.msg_id] = 7
        kernel.state = "failed"
        key = kernel.begin_reset_round(kernel.incarnation + 1)
        assert key is not None
        view = kernel.conclude_reset(key)
        assert view is not None
        assert 7 not in kernel.history
        assert kernel.next_assign == kernel.received + 1


class TestEvictionBaseline:
    """Regression: `_sequencer_tick` used to judge never-echoed members
    against ``last_echo.get(member, self.last_heartbeat)``, and the
    sequencer never refreshed ``last_heartbeat`` on its own ticks — so
    a freshly joined, alive-but-quiet member could be evicted against a
    baseline that predates its own existence in the view."""

    def test_never_echoed_member_survives_stale_baseline(self):
        bed, members = build_group(["a", "b", "c"])
        kernel = members["a"].kernel
        assert kernel.sequencer == kernel.me
        # Simulate a stamping gap right after a view change: no echo
        # record for c, and the fallback baseline is long stale.
        kernel.last_echo.pop("c", None)
        kernel.last_heartbeat = (
            bed.sim.now - 10 * kernel.timings.heartbeat_timeout_ms
        )
        kernel._sequencer_tick()
        assert kernel.state == "member"  # no spurious eviction
        # The member's eviction clock starts at first observation.
        assert kernel.last_echo["c"] == bed.sim.now

    def test_sequencer_tick_refreshes_heartbeat_stamp(self):
        bed, members = build_group(["a", "b", "c"])
        kernel = members["a"].kernel
        kernel.last_heartbeat = -1.0
        kernel._sequencer_tick()
        assert kernel.last_heartbeat == bed.sim.now

    def test_genuinely_silent_member_still_evicted(self):
        bed, members = build_group(["a", "b", "c"])
        kernel = members["a"].kernel
        bed["c"].crash()
        kernel.last_echo.pop("c", None)  # worst case: no stamp at all
        bed.run(until=bed.sim.now + 4 * kernel.timings.heartbeat_timeout_ms)
        assert kernel.state != "member"
        assert "stopped echoing" in (kernel.failure_reason or "")

    def test_joiner_first_echo_just_inside_window(self):
        # Heartbeats almost as slow as the detection timeout: the
        # first echo a joiner can produce lands only just inside
        # heartbeat_timeout_ms of the moment the sequencer first saw it.
        timings = GroupTimings(heartbeat_interval_ms=100.0, heartbeat_timeout_ms=120.0)
        bed, members = build_group(["a", "b"], timings=timings)
        kernel = members["a"].kernel
        joiner = GroupMember(_attach(bed, "c"), "g", timings)

        def join():
            yield from joiner.join()

        bed.run_until(bed.sim.spawn(join(), "join-c"))
        # Force the regression's shape: the sequencer has no echo
        # record for the joiner and a stale fallback baseline.
        kernel.last_echo.pop("c", None)
        kernel.last_heartbeat = bed.sim.now - 10 * timings.heartbeat_timeout_ms
        kernel._sequencer_tick()
        assert kernel.state == "member"
        stamp = kernel.last_echo["c"]
        # The joiner's first echo (next heartbeat + one RPC hop, just
        # inside the 120 ms window) refreshes the stamp; nobody is
        # evicted in the meantime.
        bed.run(until=bed.sim.now + 5 * timings.heartbeat_interval_ms)
        assert kernel.state == "member"
        assert sorted(kernel.view) == ["a", "b", "c"]
        assert kernel.last_echo["c"] > stamp
        assert joiner.is_member


def _attach(bed, address):
    """Add one more machine to an existing TestBed."""
    from tests.helpers import Machine

    machine = Machine(bed.network, address)
    bed.machines[address] = machine
    return machine.transport


class TestReceiveReady:
    """The non-blocking drain behind group-commit batching."""

    def _flood(self, bed, members, count):
        def send_all():
            for i in range(count):
                yield from members["a"].send_to_group(f"m{i}")

        bed.run_until(bed.sim.spawn(send_all(), "sender"))
        bed.run(until=bed.sim.now + 300.0)  # let commits propagate

    def test_drains_committed_backlog_in_order(self):
        bed, members = build_group(["a", "b", "c"])
        self._flood(bed, members, 4)
        got = members["b"].receive_ready()
        assert [r.payload for r in got] == ["m0", "m1", "m2", "m3"]
        assert members["b"].receive_ready() == []

    def test_limit_bounds_the_drain(self):
        bed, members = build_group(["a", "b", "c"])
        self._flood(bed, members, 5)
        first = members["b"].receive_ready(limit=2)
        rest = members["b"].receive_ready()
        assert [r.payload for r in first] == ["m0", "m1"]
        assert [r.payload for r in rest] == ["m2", "m3", "m4"]

    def test_costs_zero_time_and_tolerates_empty_group(self):
        bed, members = build_group(["a", "b"])
        before = bed.sim.now
        assert members["a"].receive_ready() == []
        assert bed.sim.now == before

    def test_mixes_with_blocking_receive(self):
        bed, members = build_group(["a", "b", "c"])
        self._flood(bed, members, 3)

        def consume():
            head = yield from members["c"].receive()
            tail = members["c"].receive_ready()
            return [head.payload] + [r.payload for r in tail]

        got = bed.run_until(bed.sim.spawn(consume(), "consumer"))
        assert got == ["m0", "m1", "m2"]


class TestBacklogGauge:
    """``group.backlog`` — what the health monitor reads for an apply
    backlog — is sequenced-but-untaken depth on every member."""

    def test_backlog_is_received_minus_taken_and_drains_to_zero(self):
        bed, members = build_group(["a", "b", "c"])
        reg = bed.sim.obs.registry

        def backlogs():
            return {
                addr: (reg.gauge(addr, "group.backlog").value,
                       member.kernel.received - member.kernel.taken)
                for addr, member in members.items()
            }

        def send():
            for i in range(3):
                yield from members["b"].send_to_group(f"m{i}")

        # Nobody consumes yet: every member holds the whole stream.
        bed.run_until(bed.sim.spawn(send()))
        bed.run(until=bed.sim.now + 100.0)
        assert members["a"].kernel.me == members["a"].kernel.sequencer
        assert backlogs() == {"a": (3, 3), "b": (3, 3), "c": (3, 3)}

        # One member takes one record: only its backlog moves.
        bed.run_until(bed.sim.spawn(members["c"].receive(), "take-one"))
        assert backlogs() == {"a": (3, 3), "b": (3, 3), "c": (2, 2)}

        def drain(addr, n):
            for _ in range(n):
                yield from members[addr].receive()

        for addr, n in (("a", 3), ("b", 3), ("c", 2)):
            bed.run_until(bed.sim.spawn(drain(addr, n), f"drain-{addr}"))
        assert backlogs() == {"a": (0, 0), "b": (0, 0), "c": (0, 0)}
