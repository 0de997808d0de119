"""The sequencer's r-safe horizon, held to its sorted definition.

``GroupKernel._safe_point`` runs on every ack and echo, so it scans the
view in place instead of building and sorting a list. Its definition is
the sorted one below; this checks the two agree on every small case:
r = 0..3, views of 1 to 5 members with this kernel at either end, every
acknowledgement from "none yet" (no entry, which counts as -1) to above
``received``, and ``received`` from below every acknowledgement to
above them all.
"""

from itertools import product

from repro.group import GroupMember

from tests.helpers import TestBed

#: An acknowledgement of None leaves the member out of ack_progress.
ACKS = (None, -1, 0, 1, 2, 3)
RECEIVED = (-1, 0, 2, 4)


def sorted_definition(kernel) -> int:
    """The ``need``-th highest acknowledgement among the other members,
    capped at ``received``; with nothing to wait for, ``received``."""
    need = min(kernel.resilience, len(kernel.view) - 1)
    if need == 0:
        return kernel.received
    acks = sorted(
        (kernel.ack_progress.get(m, -1) for m in kernel.view if m != kernel.me),
        reverse=True,
    )
    return min(acks[need - 1], kernel.received)


def sequencer_kernel():
    bed = TestBed(["m"])
    member = GroupMember(bed["m"].transport, "g")
    member.create(resilience=0)
    return member.kernel


def test_safe_point_matches_the_sorted_definition_on_every_small_case():
    kernel = sequencer_kernel()
    me = kernel.me
    checked = 0
    for size in range(1, 6):
        others = [f"o{i}" for i in range(size - 1)]
        for view in ([me, *others], [*others, me]):
            kernel.view = view
            for acks in product(ACKS, repeat=len(others)):
                kernel.ack_progress = {
                    m: a for m, a in zip(others, acks) if a is not None
                }
                for resilience, received in product(range(4), RECEIVED):
                    kernel.resilience = resilience
                    kernel.received = received
                    assert kernel._safe_point() == sorted_definition(kernel), (
                        view, kernel.ack_progress, resilience, received,
                    )
                    checked += 1
    assert checked == 2 * 4 * 4 * sum(len(ACKS) ** n for n in range(5))
