"""Failure detection by deadline, and a reset that ends on evidence.

A member arms one silence timer for the instant its detector could
trip, ``last_heartbeat + heartbeat_timeout_ms``; a timer that fires
early re-arms for the new deadline. Only the sequencer runs a periodic
ticker: it sends heartbeats and checks echoes. The detector that fails
the group names its suspect, and a reset coordinator concludes once
every unsuspected member of the failed view has voted — when at most
``r`` members are suspected — or after its vote window otherwise. A
voter that goes into one coordinator's view withdraws its vote from
every other round it voted in.
"""

import pytest

from repro.group.timings import RESET_VOTE_WINDOW_MS
from repro.net.policy import Drop, LinkFilter

from tests.group.test_basic import build_group
from tests.group.test_failures import crash_machine


def failure_instants(bed, members):
    """Record when each kernel's ``fail_group`` first takes effect."""
    failed = {}
    for addr, member in members.items():
        kernel = member.kernel
        original = kernel.fail_group

        def spy(*args, addr=addr, kernel=kernel, original=original, **kwargs):
            was_member = kernel.state == "member"
            original(*args, **kwargs)
            if was_member and kernel.state == "failed":
                failed.setdefault(addr, bed.sim.now)

        kernel.fail_group = spy
    return failed


class TestDeadline:
    def test_member_trips_at_its_deadline(self):
        bed, members = build_group(["a", "b"])
        kernel = members["b"].kernel
        failed = failure_instants(bed, members)
        crash_machine(bed, members, "a")
        deadline = kernel.last_heartbeat + kernel.timings.heartbeat_timeout_ms
        bed.run(until=deadline + 100.0)
        # Exactly at the deadline, not at the next 25 ms tick after it.
        assert failed == {"b": deadline}
        assert kernel.failure_reason == "sequencer heartbeat lost"
        assert kernel.suspect == "a"

    def test_sequencer_names_the_member_that_stopped_echoing(self):
        bed, members = build_group(["a", "b"])
        kernel = members["a"].kernel
        failed = failure_instants(bed, members)
        crash_machine(bed, members, "b")
        deadline = kernel.last_echo["b"] + kernel.timings.heartbeat_timeout_ms
        bed.run(until=deadline + 100.0)
        # The sequencer's check rides its heartbeat tick.
        assert deadline < failed["a"] <= deadline + kernel.timings.heartbeat_interval_ms
        assert kernel.failure_reason == "member 'b' stopped echoing"
        assert kernel.suspect == "b"

    def test_a_peer_report_passes_the_suspect_on(self):
        bed, members = build_group(["a", "b", "c"])
        crash_machine(bed, members, "a")
        bed.run(until=bed.sim.now + 400.0)
        reasons = {addr: members[addr].kernel.failure_reason for addr in ("b", "c")}
        # One of the two detected the silence; the other may have been
        # told first. Either way both blame the sequencer.
        assert "sequencer heartbeat lost" in reasons.values()
        assert {members[addr].kernel.suspect for addr in ("b", "c")} == {"a"}

    def test_one_ulp_disagreement_terminates(self):
        """``(L + T) - L < T`` for some stamps L: a detector comparing
        ``now - last >= timeout`` at the instant ``L + T`` finds itself
        one ulp early and re-arms a zero-length sleep forever. The
        deadline comparison trips exactly at ``L + T``."""
        bed, members = build_group(["a", "b"])
        kernel = members["b"].kernel
        timeout = kernel.timings.heartbeat_timeout_ms
        failed = failure_instants(bed, members)
        crash_machine(bed, members, "a")
        base = float(int(bed.sim.now)) + 1.0
        stamp = next(
            base + k / 10 for k in range(1, 1000)
            if (base + k / 10 + timeout) - (base + k / 10) < timeout
        )
        kernel.last_heartbeat = stamp  # later than the armed deadline
        # A livelock raises SimulationError here instead of hanging.
        bed.sim.run(until=stamp + timeout + 100.0, max_events=1_000)
        assert failed == {"b": stamp + timeout}


class TestTimers:
    def test_a_member_kernel_spawns_no_ticker(self):
        bed, members = build_group(["a", "b", "c"])
        assert [p.name for p in bed.sim.alive_processes()] == ["grp(g@a).ticker"]
        assert members["b"].kernel._ticker is None
        assert members["c"].kernel._ticker is None

    def test_an_idle_group_schedules_fewer_events(self):
        """One idle simulated second of a 3-member group: 40 heartbeat
        ticks, 80 heartbeat and 80 echo deliveries, and the two members'
        silence timers firing 20 times. The member tickers' 80 wakeups
        are gone (the same second cost 280 events with them)."""
        bed, members = build_group(["a", "b", "c"])
        bed.run(until=bed.sim.now + 1000.0)
        before = bed.sim._sequence
        bed.run(until=bed.sim.now + 1000.0)
        assert bed.sim._sequence - before == 220

    def test_a_failed_sequencer_ticker_stops_once_demoted(self):
        bed, members = build_group(["a", "b", "c"])
        for member in members.values():
            member.kernel.fail_group("test failure")

        def reset():
            view = yield from members["c"].reset()
            return view

        assert bed.run_until(bed.sim.spawn(reset())) == ["a", "b", "c"]
        bed.run(until=bed.sim.now + 100.0)
        assert members["c"].kernel._ticker is not None
        assert members["a"].kernel._ticker is None


def reset_alone(bed, members, addr):
    """Run ``addr``'s ResetGroup; returns (view, start, end, the
    instants votes reached ``addr``)."""
    votes = []
    kernel = members[addr].kernel

    def on_vote(packet, handler=kernel._on_vote):
        votes.append(bed.sim.now)
        handler(packet)

    bed[addr].transport.register("grp.g.vote", on_vote)
    start = bed.sim.now

    def reset():
        view = yield from members[addr].reset()
        return sorted(view), bed.sim.now

    view, end = bed.run_until(bed.sim.spawn(reset()))
    return view, start, end, votes


class TestResetEndsOnEvidence:
    def test_sequencer_crash_concludes_one_round_trip_after_the_probe(self):
        bed, members = build_group(["a", "b", "c"], resilience=2)
        crash_machine(bed, members, "a")
        bed.run(until=bed.sim.now + 400.0)
        view, start, end, votes = reset_alone(bed, members, "b")
        assert view == ["b", "c"]
        # c's vote completes the round: b concludes the moment it lands,
        # one probe/vote round trip (about 1.3 ms) after probing.
        assert end == votes[0]
        assert end - start < 3.0

    def test_no_suspect_waits_the_whole_window(self):
        bed, members = build_group(["a", "b", "c"], resilience=2)
        for member in members.values():
            member.kernel.fail_group("test failure")
        view, start, end, votes = reset_alone(bed, members, "b")
        assert len(votes) == 2 and max(votes) < start + 3.0
        assert view == ["a", "b", "c"]
        assert end == pytest.approx(start + RESET_VOTE_WINDOW_MS)

    def test_more_suspects_than_r_waits_the_whole_window(self):
        # r = 0: a record may live on the suspect alone, so no vote
        # count short of the window's can prove nothing is lost.
        bed, members = build_group(["a", "b", "c"], resilience=0)
        crash_machine(bed, members, "a")
        bed.run(until=bed.sim.now + 400.0)
        assert members["b"].kernel.suspect == "a"
        view, start, end, votes = reset_alone(bed, members, "b")
        assert len(votes) == 1 and votes[0] < start + 3.0
        assert view == ["b", "c"]
        assert end == pytest.approx(start + RESET_VOTE_WINDOW_MS)


class TestMutualSuspicion:
    """The sequencer a and member c cannot hear each other, so each
    blames the other and neither needs the other's vote. With c probing
    a little after a, the voters b, d and e vote for a, then for the
    stronger c before a's view reaches them: both rounds complete, and
    both coordinators form a 4-member view from one failed view. The
    voters adopt a's; their withdrawal reaches c, whose view fails."""

    @pytest.mark.parametrize("gap", [0.3, 0.6, 0.9, 1.2])
    def test_one_view_survives_two_concluded_rounds(self, gap):
        bed, members = build_group(["a", "b", "c", "d", "e"], resilience=1)
        for src, dst in (("a", "c"), ("c", "a")):
            bed.network.add_policy(Drop(f"cut-{src}{dst}", LinkFilter(src=src, dst=dst)))
        members["a"].kernel.fail_group("test", suspect="c")
        for addr in ("b", "c", "d", "e"):
            members[addr].kernel.fail_group("test", suspect="a")
        formed = {}

        def reset(addr, delay):
            yield bed.sim.sleep(delay)
            formed[addr] = sorted((yield from members[addr].reset()))

        done = [bed.sim.spawn(reset("a", 0.0)), bed.sim.spawn(reset("c", gap))]
        for process in done:
            bed.run_until(process)
        bed.run(until=bed.sim.now + 5.0)

        assert formed == {"a": ["a", "b", "d", "e"], "c": ["b", "c", "d", "e"]}
        kernels = {addr: member.kernel for addr, member in members.items()}
        # Every view still held is the one all its members adopted.
        for kernel in kernels.values():
            if kernel.state == "member":
                assert {kernels[m].instance for m in kernel.view} == {kernel.instance}
        assert all(kernels[m].state == "member" for m in formed["a"])
        assert kernels["c"].state == "failed"
        assert kernels["c"].failure_reason.endswith("adopted another view")
