"""Unit tests for the exactly-once session layer.

The session table lives inside the replicated state machine
(:mod:`repro.directory.state`) and its byte encodings
(:mod:`repro.directory.session`) ride the object table and the NVRAM
log. These tests pin the semantics the servers rely on: duplicate
suppression with reply replay (successes AND failures), stale-seqno
suppression, the LRU bound, and encode/decode round-trips.
"""

import random

import pytest

from repro.amoeba import Port, new_check
from repro.amoeba.capability import owner_capability
from repro.directory import state as state_module
from repro.directory.admin import SESSION_BLOCKS
from repro.directory.operations import (
    AppendRow,
    CreateDir,
    DeleteRow,
    SessionOp,
    unwrap,
)
from repro.directory.session import (
    SessionEntry,
    decode_reply,
    decode_session_record,
    encode_reply,
    encode_session_record,
)
from repro.directory.state import DirectoryState
from repro.errors import AlreadyExists, DirectoryError, NotFound
from tests.helpers import root_capability

PORT = Port.for_service("dir.sess.test")


def make_state(seed=0):
    rng = random.Random(seed)
    state = DirectoryState(PORT, new_check(rng))
    return state, rng


class TestDedup:
    def test_duplicate_append_replays_cached_reply(self):
        state, rng = make_state()
        root = root_capability(state)
        target = owner_capability(Port.for_service("x"), 7, new_check(rng))
        op = SessionOp(AppendRow(root, "n", (target,)), "c1", 1)
        first, effects = state.apply(op)
        assert first is True
        assert effects.sessions == ["c1"]
        seqno_after = state.update_seqno

        again, effects2 = state.apply(op)
        assert again is True  # NOT AlreadyExists
        assert effects2.sessions == []
        assert state.update_seqno == seqno_after  # dedup hit: no bump
        assert state.dedup_hits == 1
        assert len(state.directories[1].listing(~0)) == 1

    def test_failed_execution_is_cached_too(self):
        state, rng = make_state()
        root = root_capability(state)
        target = owner_capability(Port.for_service("x"), 7, new_check(rng))
        state.apply(SessionOp(AppendRow(root, "n", (target,)), "c1", 1))
        dup_append = SessionOp(AppendRow(root, "n", (target,)), "c2", 1)
        result, effects = state.apply(dup_append)
        assert isinstance(result, AlreadyExists)
        assert effects.sessions == ["c2"]  # the failure IS recorded

        # c1 deletes the row; c2's delayed duplicate must replay the
        # cached AlreadyExists, not re-execute (and silently succeed).
        state.apply(SessionOp(DeleteRow(root, "n"), "c1", 2))
        replay, _ = state.apply(dup_append)
        assert isinstance(replay, AlreadyExists)
        assert state.dedup_hits == 1
        assert "n" not in state.directories[1]

    def test_stale_seqno_suppressed_with_error(self):
        state, rng = make_state()
        root = root_capability(state)
        target = owner_capability(Port.for_service("x"), 7, new_check(rng))
        state.apply(SessionOp(AppendRow(root, "a", (target,)), "c1", 1))
        state.apply(SessionOp(AppendRow(root, "b", (target,)), "c1", 2))
        with pytest.raises(DirectoryError, match="stale session seqno"):
            state.apply(SessionOp(AppendRow(root, "c", (target,)), "c1", 1))
        assert state.dedup_hits == 1
        assert "c" not in state.directories[1]

    def test_dedup_disabled_reexecutes(self):
        state, rng = make_state()
        state.dedup_enabled = False
        op = SessionOp(CreateDir(check=new_check(rng)), "c1", 1)
        cap1, _ = state.apply(op)
        cap2, _ = state.apply(op)
        assert cap2.object_number != cap1.object_number  # applied twice
        assert state.duplicate_executions == 1
        assert state.dedup_hits == 0

    def test_failed_session_op_still_bumps_update_seqno(self):
        state, rng = make_state()
        root = root_capability(state)
        before = state.update_seqno
        result, _ = state.apply(SessionOp(DeleteRow(root, "ghost"), "c1", 1))
        assert isinstance(result, NotFound)
        assert state.update_seqno == before + 1

    def test_non_session_ops_unaffected(self):
        state, rng = make_state()
        root = root_capability(state)
        with pytest.raises(NotFound):
            state.apply(DeleteRow(root, "ghost"))


class TestLruBound:
    def test_every_tracked_client_has_a_session_block(self):
        """Each persisted session entry takes one reserved admin block:
        a table bound above the reservation would let persisted entries
        lag the replicated table."""
        assert state_module.SESSION_CACHE_SIZE <= SESSION_BLOCKS

    def test_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(state_module, "SESSION_CACHE_SIZE", 4)
        state, rng = make_state()
        for i in range(10):
            state.apply(SessionOp(CreateDir(check=new_check(rng)), f"c{i}", 1))
        assert len(state.sessions) == 4
        # The most recently active clients survive.
        assert set(state.sessions) == {"c6", "c7", "c8", "c9"}

    def test_eviction_prefers_least_recently_active(self, monkeypatch):
        monkeypatch.setattr(state_module, "SESSION_CACHE_SIZE", 2)
        state, rng = make_state()
        state.apply(SessionOp(CreateDir(check=new_check(rng)), "a", 1))
        state.apply(SessionOp(CreateDir(check=new_check(rng)), "b", 1))
        state.apply(SessionOp(CreateDir(check=new_check(rng)), "a", 2))  # touch a
        state.apply(SessionOp(CreateDir(check=new_check(rng)), "c", 1))
        assert set(state.sessions) == {"a", "c"}  # b was the LRU victim


class TestSnapshotAndFingerprint:
    def test_sessions_survive_snapshot_roundtrip(self):
        state, rng = make_state()
        root = root_capability(state)
        target = owner_capability(Port.for_service("x"), 7, new_check(rng))
        state.apply(SessionOp(AppendRow(root, "n", (target,)), "c1", 3))
        state.apply(SessionOp(AppendRow(root, "n", (target,)), "c2", 1))  # fails

        clone = DirectoryState.from_snapshot(PORT, state.to_snapshot())
        assert clone.fingerprint() == state.fingerprint()
        assert clone.sessions["c1"].last_seqno == 3
        assert isinstance(clone.sessions["c2"].reply, AlreadyExists)
        # The restored table keeps suppressing duplicates.
        again, _ = clone.apply(SessionOp(AppendRow(root, "n", (target,)), "c1", 3))
        assert again is True
        assert clone.dedup_hits == 1

    def test_fingerprint_distinguishes_session_tables(self):
        a, rng = make_state()
        b, _ = make_state()
        assert a.fingerprint() == b.fingerprint()
        a.apply(SessionOp(CreateDir(check=new_check(rng)), "c1", 1))
        b.apply(CreateDir(check=a.sessions["c1"].reply.check))
        assert a.content_fingerprint() == b.content_fingerprint()
        assert a.fingerprint() != b.fingerprint()


class TestEncodings:
    def test_reply_roundtrip(self):
        rng = random.Random(1)
        cap = owner_capability(Port.for_service("x"), 9, new_check(rng))
        for reply in (None, True, False, cap):
            assert decode_reply(encode_reply(reply)) == reply

    def test_error_reply_roundtrip(self):
        raw = encode_reply(AlreadyExists("row 'n' already exists"))
        back = decode_reply(raw)
        assert isinstance(back, AlreadyExists)
        assert str(back) == "row 'n' already exists"
        assert encode_reply(back) == raw  # stable re-encoding

    def test_uncacheable_reply_rejected(self):
        with pytest.raises(DirectoryError):
            encode_reply(object())

    def test_session_record_roundtrip(self):
        rng = random.Random(2)
        cap = owner_capability(Port.for_service("x"), 5, new_check(rng))
        entry = SessionEntry(41, cap, 1007)
        raw = encode_session_record("cluster.client.c1", entry)
        client_id, back = decode_session_record(raw)
        assert client_id == "cluster.client.c1"
        assert back == entry

    def test_non_session_block_rejected(self):
        assert decode_session_record(b"\x00" * 64) is None

    def test_oversized_client_id_rejected(self):
        entry = SessionEntry(1, True, 1)
        with pytest.raises(DirectoryError):
            encode_session_record("x" * 1500, entry)


class TestSessionOpEnvelope:
    def test_unwrap_and_delegation(self):
        rng = random.Random(3)
        inner = CreateDir(check=new_check(rng))
        wrapped = SessionOp(inner, "c1", 5)
        assert unwrap(wrapped) is inner
        assert unwrap(inner) is inner
        assert wrapped.is_read is False
        assert wrapped.wire_size() == inner.wire_size() + 24
