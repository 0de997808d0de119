"""Unit/property tests for the replicated state machine."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.amoeba import ALL_RIGHTS, Port, Rights, new_check, restrict
from repro.directory.operations import (
    AppendRow,
    ChmodRow,
    CreateDir,
    DeleteDir,
    DeleteRow,
    ListDir,
    LookupSet,
    ReplaceSet,
)
from repro.directory.state import ROOT_OBJECT, DirectoryState
from repro.errors import (
    CapabilityError,
    DirectoryError,
    NotEmpty,
    NotFound,
)
from tests.helpers import root_capability

PORT = Port.for_service("dir.test")


def make_state(seed=0):
    rng = random.Random(seed)
    return DirectoryState(PORT, new_check(rng)), rng


def file_cap(rng, obj=99):
    from repro.amoeba.capability import owner_capability

    return owner_capability(Port.for_service("bullet.x"), obj, new_check(rng))


class TestCreateDelete:
    def test_root_exists(self):
        state, _ = make_state()
        root = root_capability(state)
        assert root.object_number == ROOT_OBJECT
        assert state.query(ListDir(root)) == []

    def test_create_returns_owner_cap(self):
        state, rng = make_state()
        cap, effects = state.apply(CreateDir(check=new_check(rng)))
        assert cap.is_owner
        assert effects.created == [cap.object_number]
        assert state.query(ListDir(cap)) == []

    def test_create_without_check_rejected(self):
        state, _ = make_state()
        with pytest.raises(DirectoryError):
            state.apply(CreateDir())

    def test_object_numbers_are_sequential(self):
        state, rng = make_state()
        a, _ = state.apply(CreateDir(check=new_check(rng)))
        b, _ = state.apply(CreateDir(check=new_check(rng)))
        assert b.object_number == a.object_number + 1

    def test_delete_empty_dir(self):
        state, rng = make_state()
        cap, _ = state.apply(CreateDir(check=new_check(rng)))
        result, effects = state.apply(DeleteDir(cap))
        assert result is True
        assert effects.deleted == [cap.object_number]
        with pytest.raises(NotFound):
            state.query(ListDir(cap))

    def test_delete_nonempty_requires_force(self):
        state, rng = make_state()
        cap, _ = state.apply(CreateDir(check=new_check(rng)))
        state.apply(AppendRow(cap, "x", (file_cap(rng),)))
        with pytest.raises(NotEmpty):
            state.apply(DeleteDir(cap))
        result, _ = state.apply(DeleteDir(cap, force=True))
        assert result is True

    def test_root_cannot_be_deleted(self):
        state, _ = make_state()
        with pytest.raises(DirectoryError):
            state.apply(DeleteDir(root_capability(state)))

    def test_update_seqno_increments_per_write(self):
        state, rng = make_state()
        assert state.update_seqno == 0
        state.apply(CreateDir(check=new_check(rng)))
        assert state.update_seqno == 1
        state.apply(CreateDir(check=new_check(rng)))
        assert state.update_seqno == 2

    def test_failed_write_does_not_bump_seqno(self):
        state, rng = make_state()
        cap, _ = state.apply(CreateDir(check=new_check(rng)))
        before = state.update_seqno
        with pytest.raises(NotFound):
            state.apply(DeleteRow(cap, "ghost"))
        assert state.update_seqno == before


class TestRowOperations:
    def test_append_lookup_delete(self):
        state, rng = make_state()
        root = root_capability(state)
        target = file_cap(rng)
        state.apply(AppendRow(root, "prog", (target,)))
        [found] = state.query(LookupSet(((root, "prog"),)))
        assert found == target
        state.apply(DeleteRow(root, "prog"))
        [missing] = state.query(LookupSet(((root, "prog"),)))
        assert missing is None

    def test_chmod_row(self):
        state, rng = make_state()
        root = root_capability(state)
        a, b = file_cap(rng, 1), file_cap(rng, 2)
        state.apply(AppendRow(root, "f", (a, None, None)))
        state.apply(ChmodRow(root, "f", 0b010, (None, b, None)))
        listing = state.query(ListDir(root))
        assert listing[0].capabilities[:2] == (a, b)

    def test_replace_set_is_atomic(self):
        state, rng = make_state()
        root = root_capability(state)
        a, b = file_cap(rng, 1), file_cap(rng, 2)
        state.apply(AppendRow(root, "x", (a,)))
        before = state.fingerprint()
        # Second item names a missing row: nothing may change.
        with pytest.raises(NotFound):
            state.apply(
                ReplaceSet(((root, "x", (b,)), (root, "ghost", (b,))))
            )
        assert state.fingerprint() == before
        state.apply(ReplaceSet(((root, "x", (b,)),)))
        [found] = state.query(LookupSet(((root, "x"),)))
        assert found == b

    def test_lookup_set_spans_directories(self):
        state, rng = make_state()
        root = root_capability(state)
        sub, _ = state.apply(CreateDir(check=new_check(rng)))
        f1, f2 = file_cap(rng, 1), file_cap(rng, 2)
        state.apply(AppendRow(root, "a", (f1,)))
        state.apply(AppendRow(sub, "b", (f2,)))
        results = state.query(LookupSet(((root, "a"), (sub, "b"), (sub, "a"))))
        assert results == [f1, f2, None]


class TestProtection:
    def test_read_only_cap_cannot_write(self):
        state, rng = make_state()
        cap, _ = state.apply(CreateDir(check=new_check(rng)))
        weak = restrict(cap, Rights.READ | Rights.COL_1)
        with pytest.raises(CapabilityError):
            state.apply(AppendRow(weak, "x", (file_cap(rng),)))

    def test_modify_without_destroy_cannot_delete_dir(self):
        state, rng = make_state()
        cap, _ = state.apply(CreateDir(check=new_check(rng)))
        weak = restrict(cap, Rights.READ | Rights.MODIFY | Rights.COL_1)
        with pytest.raises(CapabilityError):
            state.apply(DeleteDir(weak))

    def test_column_restricted_cap_sees_only_its_column(self):
        """The paper's sharing example: a third-column capability gives
        no access to the stronger capabilities in columns one and two."""
        state, rng = make_state()
        root = root_capability(state)
        strong, weak_target = file_cap(rng, 1), file_cap(rng, 2)
        state.apply(AppendRow(root, "f", (strong, None, weak_target)))
        third_col = restrict(root, Rights.READ | Rights.COL_3)
        [visible] = state.query(LookupSet(((third_col, "f"),)))
        assert visible == weak_target  # never the owner-column cap

    def test_forged_capability_rejected(self):
        state, _ = make_state()
        from dataclasses import replace

        forged = replace(root_capability(state), check=12345)
        with pytest.raises(CapabilityError):
            state.query(ListDir(forged))

    def test_foreign_port_capability_rejected(self):
        state, rng = make_state()
        with pytest.raises(NotFound):
            state.query(ListDir(file_cap(rng)))

    def test_stale_capability_after_delete_rejected(self):
        state, rng = make_state()
        cap, _ = state.apply(CreateDir(check=new_check(rng)))
        state.apply(DeleteDir(cap))
        with pytest.raises(NotFound):
            state.apply(AppendRow(cap, "x", (file_cap(rng),)))


class TestSnapshots:
    def test_snapshot_roundtrip(self):
        state, rng = make_state()
        root = root_capability(state)
        sub, _ = state.apply(CreateDir(check=new_check(rng)))
        state.apply(AppendRow(root, "s", (sub,)))
        state.apply(AppendRow(sub, "f", (file_cap(rng),)))
        restored = DirectoryState.from_snapshot(PORT, state.to_snapshot())
        assert restored.fingerprint() == state.fingerprint()

    def test_restored_state_keeps_counting_correctly(self):
        state, rng = make_state()
        state.apply(CreateDir(check=new_check(rng)))
        restored = DirectoryState.from_snapshot(PORT, state.to_snapshot())
        new_cap, _ = restored.apply(CreateDir(check=new_check(rng)))
        assert new_cap.object_number == state.next_object

    def test_snapshot_size_positive(self):
        state, _ = make_state()
        assert state.snapshot_size() > 0


class TestDeterminism:
    @given(st.integers(min_value=0, max_value=2**32))
    def test_same_op_sequence_same_fingerprint(self, seed):
        """Two replicas applying the same ops converge — the heart of
        active replication."""

        def run():
            state, _ = make_state(seed=1)
            rng = random.Random(seed)
            root = root_capability(state)
            caps = [root]
            for i in range(12):
                choice = rng.randrange(4)
                try:
                    if choice == 0:
                        cap, _ = state.apply(CreateDir(check=rng.randint(1, 2**48 - 1)))
                        caps.append(cap)
                    elif choice == 1:
                        state.apply(
                            AppendRow(rng.choice(caps), f"n{i}", (file_cap(rng),))
                        )
                    elif choice == 2:
                        target = rng.choice(caps)
                        names = state.directories[
                            target.object_number
                        ].names() if target.object_number in state.directories else []
                        if names:
                            state.apply(DeleteRow(target, rng.choice(names)))
                    else:
                        target = rng.choice(caps[1:] or caps)
                        state.apply(DeleteDir(target, force=True))
                        if target in caps and target.object_number != ROOT_OBJECT:
                            caps.remove(target)
                except (DirectoryError, CapabilityError):
                    pass
            return state.fingerprint()

        assert run() == run()


class TestApplyDispatch:
    """``DirectoryState.apply`` finds a write's applier by the op's
    class, falling back along its MRO: a subclass op (the replicated
    Bullet service's ``CreateFile`` is a ``CreateDir``) runs its base's
    applier, and a read is still refused by name."""

    def test_a_subclass_op_runs_its_base_applier(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class TaggedCreate(CreateDir):
            tag: str = "t"

        state, rng = make_state()
        cap, effects = state.apply(TaggedCreate(check=new_check(rng)))
        assert cap.is_owner and effects.created == [cap.object_number]
        assert state.query(ListDir(cap)) == []
        again, _ = state.apply(TaggedCreate(check=new_check(rng)))
        assert again.object_number == cap.object_number + 1

    @pytest.mark.parametrize("read", ["list", "lookup"])
    def test_a_read_is_not_a_write(self, read):
        state, _ = make_state()
        root = root_capability(state)
        op = ListDir(root) if read == "list" else LookupSet(((root, "x"),))
        with pytest.raises(DirectoryError) as raised:
            state.apply(op)
        assert str(raised.value) == f"{type(op).__name__} is not a write operation"
        assert state.update_seqno == 0
