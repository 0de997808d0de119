"""Unit and property tests for the directory data model."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.amoeba import Port, Rights, new_check
from repro.amoeba.capability import owner_capability
from repro.directory.model import DEFAULT_COLUMNS, Directory, DirRow
from repro.errors import AlreadyExists, DirectoryError, NotFound


def same(a, b) -> bool:
    """Same columns and the same rows, in order."""
    return a.columns == b.columns and list(a._rows.items()) == list(b._rows.items())


def cap(obj=1, seed=0):
    rng = random.Random(seed)
    return owner_capability(Port.for_service("dir"), obj, new_check(rng))


class TestDirectoryBasics:
    def test_new_directory_is_empty(self):
        d = Directory()
        assert d.empty and d.names() == []
        assert d.columns == DEFAULT_COLUMNS

    def test_column_count_bounds(self):
        with pytest.raises(DirectoryError):
            Directory(())
        with pytest.raises(DirectoryError):
            Directory(("a", "b", "c", "d", "e"))

    def test_append_and_lookup(self):
        d = Directory()
        c = cap()
        d.append_row("file", (c, None, None))
        assert "file" in d
        assert d.lookup("file", 0b111) == c

    def test_append_pads_missing_columns(self):
        d = Directory()
        d.append_row("x", (cap(),))
        assert len(d.row("x").capabilities) == 3

    def test_too_many_capabilities_rejected(self):
        d = Directory()
        with pytest.raises(DirectoryError):
            d.append_row("x", (cap(), cap(), cap(), cap()))

    def test_duplicate_append_raises(self):
        d = Directory()
        d.append_row("x", (cap(),))
        with pytest.raises(AlreadyExists):
            d.append_row("x", (cap(),))

    def test_delete_row(self):
        d = Directory()
        d.append_row("x", (cap(),))
        d.delete_row("x")
        assert "x" not in d
        with pytest.raises(NotFound):
            d.delete_row("x")

    def test_row_missing_raises(self):
        with pytest.raises(NotFound):
            Directory().row("ghost")

    def test_names_keep_insertion_order(self):
        d = Directory()
        for name in ("c", "a", "b"):
            d.append_row(name, (cap(),))
        assert d.names() == ["c", "a", "b"]


class TestColumnMasking:
    def test_lookup_respects_column_mask(self):
        d = Directory()
        owner_cap, other_cap = cap(1), cap(2)
        d.append_row("f", (owner_cap, None, other_cap))
        # Mask exposing only column 2 (index 2 -> bit 4).
        assert d.lookup("f", 0b100) == other_cap
        # Mask exposing only column 1 (empty cell) -> None.
        assert d.lookup("f", 0b010) is None

    def test_listing_masks_cells(self):
        d = Directory()
        a, b = cap(1), cap(2)
        d.append_row("f", (a, b, None))
        rows = d.listing(0b001)
        assert rows[0].capabilities == (a, None, None)

    def test_chmod_replaces_only_masked_columns(self):
        d = Directory()
        a, b, c = cap(1), cap(2), cap(3)
        d.append_row("f", (a, b, None))
        d.chmod_row("f", 0b100, (None, None, c))
        assert d.row("f").capabilities == (a, b, c)

    def test_replace_row(self):
        d = Directory()
        d.append_row("f", (cap(1),))
        new = cap(2)
        d.replace_row("f", (new,))
        assert d.row("f").capabilities[0] == new
        with pytest.raises(NotFound):
            d.replace_row("ghost", (new,))

    def test_rows_are_frozen(self):
        # The cached encoding is only sound if a row never changes.
        row = DirRow("n", (cap(1), None, None))
        assert len(row.encoded) == 2 + 1 + 3 * 16
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.capabilities = (cap(2), None, None)

    def test_masked_row_object(self):
        row = DirRow("n", (cap(1), cap(2), None))
        masked = row.masked(0b010)
        assert masked.capabilities[0] is None
        assert masked.capabilities[1] == row.capabilities[1]


class TestSerialization:
    def test_roundtrip_empty(self):
        d = Directory(("only",))
        assert same(Directory.from_bytes(d.to_bytes()), d)

    def test_roundtrip_with_rows(self):
        d = Directory()
        d.append_row("alpha", (cap(1), cap(2), None))
        d.append_row("beta", (None, cap(3), None))
        restored = Directory.from_bytes(d.to_bytes())
        assert same(restored, d)
        assert restored.names() == ["alpha", "beta"]

    def test_serialization_is_deterministic(self):
        def build():
            d = Directory()
            d.append_row("x", (cap(1),))
            d.append_row("y", (cap(2), cap(3)))
            return d.to_bytes()

        assert build() == build()

    def test_size_grows_with_rows(self):
        d = Directory()
        small = d.serialized_size()
        for i in range(10):
            d.append_row(f"name-{i}", (cap(i),))
        assert d.serialized_size() > small + 100

    def test_copy_is_independent(self):
        d = Directory()
        d.append_row("x", (cap(),))
        dup = Directory.from_bytes(d.to_bytes())
        dup.delete_row("x")
        assert "x" in d and "x" not in dup

    @given(
        st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                    min_size=1,
                    max_size=20,
                ),
                st.lists(
                    st.integers(min_value=1, max_value=(1 << 48) - 1), max_size=3
                ),
            ),
            max_size=12,
            unique_by=lambda pair: pair[0],
        )
    )
    def test_roundtrip_property(self, rows):
        from repro.amoeba.capability import owner_capability

        d = Directory()
        for name, checks in rows:
            caps = tuple(
                owner_capability(Port.for_service("dir"), i + 1, check)
                for i, check in enumerate(checks)
            )
            d.append_row(name, caps)
        restored = Directory.from_bytes(d.to_bytes())
        assert same(restored, d)

    def test_roundtrip_with_separator_like_bytes(self):
        """Regression: capabilities whose wire bytes contain 0x1E (or
        any other value) must survive serialization — an earlier
        format used 0x1E as a record separator and corrupted them."""
        from repro.amoeba.capability import owner_capability

        d = Directory()
        tricky_check = int.from_bytes(b"\x1e" * 6, "big")
        tricky = owner_capability(Port.for_service("dir"), 0x1E1E1E, tricky_check)
        d.append_row("\x1e-ish name", (tricky, tricky, tricky))
        assert same(Directory.from_bytes(d.to_bytes()), d)


def reference_bytes(directory):
    """The encoding loop ``to_bytes`` ran before rows carried their own."""
    header = ("|".join(directory.columns)).encode()
    parts = [
        len(header).to_bytes(2, "big"),
        header,
        len(directory.names()).to_bytes(3, "big"),
    ]
    for row in map(directory.row, directory.names()):
        name = row.name.encode()
        parts.append(len(name).to_bytes(2, "big"))
        parts.append(name)
        for c in row.capabilities:
            parts.append(c.to_bytes() if c is not None else b"\x00" * 16)
    return b"".join(parts)


def reference_lookup(directory, name, column_mask):
    """``Directory.lookup`` as it was: through a masked row."""
    for c in directory.row(name).masked(column_mask).capabilities:
        if c is not None:
            return c
    return None


class TestCachedRowEncoding:
    """Rows keep their encoding; the image, its size and lookups must
    be exactly what the row-by-row encoder and the masked-row lookup
    gave, whatever sequence of edits built the directory."""

    NAMES = ("a", "file-1", "é", "名前", "x" * 40, "tmp")

    def random_caps(self, rng, n_columns):
        return tuple(
            None
            if rng.random() < 0.3
            else cap(rng.randrange(1, 1 << 24), rng.randrange(1 << 30))
            for _ in range(rng.randint(0, n_columns))
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        n_columns=st.integers(min_value=1, max_value=4),
        steps=st.integers(min_value=1, max_value=40),
    )
    def test_every_step_matches_the_reference(self, seed, n_columns, steps):
        rng = random.Random(seed)
        d = Directory(tuple(f"c{i}" for i in range(n_columns)))
        for _ in range(steps):
            names = d.names()
            action = rng.choice(
                ("append", "append", "replace", "chmod", "delete", "copy", "reload")
            )
            if action == "append":
                name = rng.choice(self.NAMES)
                if name not in d:
                    d.append_row(name, self.random_caps(rng, n_columns))
            elif action == "copy":
                before = d.to_bytes()
                dup = Directory.from_bytes(d.to_bytes())
                if names:
                    dup.delete_row(rng.choice(names))
                assert d.to_bytes() == before
                d = dup
            elif action == "reload":
                d = Directory.from_bytes(d.to_bytes())
            elif names:
                name = rng.choice(names)
                if action == "replace":
                    d.replace_row(name, self.random_caps(rng, n_columns))
                elif action == "chmod":
                    d.chmod_row(
                        name, rng.randrange(16), self.random_caps(rng, n_columns)
                    )
                else:
                    d.delete_row(name)
            image = d.to_bytes()
            assert image == reference_bytes(d)
            assert d.serialized_size() == len(image)
            for name in d.names():
                for mask in range(16):
                    assert d.lookup(name, mask) == reference_lookup(d, name, mask)
