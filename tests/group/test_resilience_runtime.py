"""Resilience as a runtime operation, at the kernel level.

``set_resilience`` is an ordered group operation: every member adopts
the new degree at the same sequence number, and the change lands in
the kernel's ``view_log`` so ``cluster.report()`` can show the history.
"""

from repro.group.kernel import ResilienceChange

from tests.group.test_basic import build_group


class TestRuntimeResilience:
    def test_all_members_adopt_the_new_degree(self):
        bed, members = build_group(["a", "b", "c"], resilience=1)

        def run():
            return (yield from members["b"].set_resilience(2))

        seqno = bed.run_until(bed.sim.spawn(run()))
        assert seqno >= 0
        bed.run(until=bed.sim.now + 500.0)
        for member in members.values():
            assert member.kernel.resilience == 2

    def test_change_is_ordered_with_traffic(self):
        """The marker occupies a seqno between surrounding sends, and
        every member sees the control record at that exact position."""
        bed, members = build_group(["a", "b", "c"], resilience=1)

        def run():
            before = yield from members["a"].send_to_group("pre")
            marker = yield from members["b"].set_resilience(2)
            after = yield from members["a"].send_to_group("post")
            return before, marker, after

        before, marker, after = bed.run_until(bed.sim.spawn(run()))
        assert before < marker < after
        bed.run(until=bed.sim.now + 500.0)
        for member in members.values():
            record = member.kernel.history.get(marker)
            assert isinstance(record.payload, ResilienceChange)
            assert record.payload.resilience == 2

    def test_view_log_records_the_resilience_trigger(self):
        bed, members = build_group(["a", "b", "c"], resilience=1)

        def run():
            yield from members["a"].set_resilience(2)

        bed.run_until(bed.sim.spawn(run()))
        bed.run(until=bed.sim.now + 500.0)
        for member in members.values():
            triggers = [e["trigger"] for e in member.kernel.view_log]
            assert "resilience" in triggers
            entry = next(
                e for e in member.kernel.view_log
                if e["trigger"] == "resilience"
            )
            assert entry["resilience"] == 2
