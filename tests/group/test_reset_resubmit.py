"""What a sender and a losing coordinator do across a reset.

* A send that died with the old view is made again under the *same*
  message id. The sequencer's dedup table survives the reset's vote
  merge, so a message the survivors already hold is answered from it —
  at once, with its old seqno, without a frame — and one the reset
  lost is sequenced afresh. Either way it is delivered once.
* A coordinator that loses the arbitration waits for the winner's view
  instead of out-bidding it the moment its own window closes.
"""

import pytest

from repro.errors import GroupFailure
from repro.group.timings import RESET_VOTE_WINDOW_MS
from repro.net.policy import Drop, LinkFilter

from tests.group.test_basic import build_group
from tests.group.test_failures import crash_machine
from tests.helpers import wire_count


def failed_send(bed, members, sender, payload, lose):
    """Submit *payload* from *sender* under a pre-minted id while the
    frames matching *lose* are dropped, crash the sequencer "a", and
    let the survivors reset. Returns the id the send died under."""
    kernel = members[sender].kernel
    msg_id = kernel.new_msg_id()
    bed.network.add_policy(Drop("lose", lose))
    outcome = {}

    def send():
        try:
            yield from members[sender].send_to_group(payload, msg_id=msg_id)
        except GroupFailure:
            outcome["send"] = "failed"

    bed.sim.spawn(send())
    bed.run(until=bed.sim.now + 5.0)
    crash_machine(bed, members, "a")
    bed.network.remove_policy("lose")
    bed.run(until=bed.sim.now + 400.0)  # detection fires, the send dies
    assert outcome == {"send": "failed"}

    def reset(addr):
        yield from members[addr].reset()

    for process in [bed.sim.spawn(reset(addr)) for addr in ("b", "c")]:
        bed.run_until(process)
    assert sorted(kernel.view) == ["b", "c"]
    return msg_id


def drain(bed, member):
    """Everything deliverable at *member* (zero simulated time)."""
    bed.run(until=bed.sim.now + 50.0)
    return [(r.seqno, r.payload) for r in member.receive_ready()]


class TestResubmitUnderTheSameId:
    def test_id_the_rebuilt_view_committed_resolves_at_once_without_a_frame(self):
        bed, members = build_group(["a", "b", "c"])
        # The message reaches b and c, but no ack reaches the
        # sequencer: sequenced and held, never committed.
        msg_id = failed_send(
            bed, members, "b", "held", LinkFilter(dst="a", kind="grp.g.ack")
        )
        kernel = members["b"].kernel
        held_at = kernel.sequenced_ids[msg_id]
        assert held_at <= kernel.committed  # the reset recommitted it

        frames_before = wire_count(bed.network, "net.frames_sent")
        now = bed.sim.now
        future = kernel.submit("held", 128, msg_id=msg_id)
        assert future.resolved and future.value == held_at
        assert bed.sim.now == now
        assert wire_count(bed.network, "net.frames_sent") == frames_before
        assert msg_id not in kernel.pending_sends

        # Delivered exactly once, on both survivors.
        for addr in ("b", "c"):
            assert drain(bed, members[addr]).count((held_at, "held")) == 1

    def test_id_the_reset_lost_gets_a_fresh_seqno(self):
        bed, members = build_group(["a", "b", "c"])
        # The request never reaches the sequencer: nobody holds it.
        msg_id = failed_send(
            bed, members, "b", "lost", LinkFilter(dst="a", kind="grp.g.req")
        )
        kernel = members["b"].kernel
        assert msg_id not in kernel.sequenced_ids
        horizon = kernel.committed

        def resubmit():
            seqno = yield from members["b"].send_to_group("lost", msg_id=msg_id)
            return seqno

        seqno = bed.run_until(bed.sim.spawn(resubmit()))
        assert seqno == horizon + 1
        for addr in ("b", "c"):
            assert drain(bed, members[addr]).count((seqno, "lost")) == 1

    def test_resubmitting_a_committed_id_twice_is_still_one_message(self):
        bed, members = build_group(["a", "b", "c"])
        msg_id = failed_send(
            bed, members, "b", "held", LinkFilter(dst="a", kind="grp.g.ack")
        )
        kernel = members["b"].kernel
        first = kernel.submit("held", 128, msg_id=msg_id).value
        second = kernel.submit("held", 128, msg_id=msg_id).value
        assert first == second
        assert [p for _, p in drain(bed, members["c"])].count("held") == 1


@pytest.mark.parametrize("seed", range(20))
def test_near_simultaneous_detectors_form_the_view_in_one_round(seed):
    """Two survivors detect within 1 ms of each other and both probe.
    The winner concludes the moment the loser's vote completes its
    round; the loser must wait for the view — out-bidding the winner
    then lands a probe on it within a fraction of a millisecond of its
    conclusion, and which side of it decides between one round and
    three. Which one wins turns on the gap: c's probe pre-empts b when
    it reaches b before c's vote for b does; past one link delay c has
    voted for b before bidding, and b's round is complete first."""
    bed, members = build_group(["a", "b", "c"], seed=seed)
    window = RESET_VOTE_WINDOW_MS
    before = members["b"].kernel.incarnation
    crash_machine(bed, members, "a")
    bed.run(until=bed.sim.now + 400.0)
    assert members["b"].info().state == members["c"].info().state == "failed"

    resets, sent, votes = [], [], {}
    led_before = {
        addr: members[addr].kernel._c_resets.value for addr in ("b", "c")
    }
    for addr in ("b", "c"):
        kernel = members[addr].kernel
        original = kernel.begin_reset_round

        def spy(cand_inc, addr=addr, original=original):
            key = original(cand_inc)
            if key is not None:
                sent.append((bed.sim.now, addr, cand_inc))
            return key

        kernel.begin_reset_round = spy

        def on_vote(packet, addr=addr, handler=kernel._on_vote):
            votes.setdefault(addr, bed.sim.now)
            handler(packet)

        bed[addr].transport.register("grp.g.vote", on_vote)

    def reset(addr, delay):
        yield bed.sim.sleep(delay)
        view = yield from members[addr].reset()
        resets.append((addr, sorted(view), bed.sim.now))

    # b first, c (the stronger key) up to 1 ms later — the gap varies
    # by seed so c's probe and c's vote for b reach b in either order.
    gap = 0.05 + 0.95 * seed / 19.0
    start = bed.sim.now
    done = [bed.sim.spawn(reset("b", 0.0)), bed.sim.spawn(reset("c", gap))]
    for process in done:
        bed.run_until(process)

    assert [view for _, view, _ in resets] == [["b", "c"], ["b", "c"]]
    # One round: each survivor probed once, at the first candidate
    # incarnation; exactly one of them formed the view.
    assert sorted(sent) == [
        (start, "b", before + 1),
        (pytest.approx(start + gap), "c", before + 1),
    ]
    led = {
        addr: members[addr].kernel._c_resets.value - led_before[addr]
        for addr in ("b", "c")
    }
    # c wins while its probe reaches b before its vote for b does: the
    # gap is within one link delay at seeds 0-11. From seed 12 on, b's
    # round is complete first.
    winner, loser = ("b", "c") if seed >= 12 else ("c", "b")
    assert led == {winner: 1, loser: 0}
    for addr in ("b", "c"):
        assert members[addr].kernel.incarnation == before + 1
    # The winner concluded when the loser's vote arrived, well inside
    # its window; the loser returned the moment the view reached it,
    # not a backoff later.
    ended = {addr: at for addr, _, at in resets}
    assert ended[winner] == votes[winner] < start + window
    assert ended[winner] < ended[loser] < ended[winner] + 2.0
