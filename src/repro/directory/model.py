"""The directory data model.

A directory in Amoeba is a table: one row per name, one column per
protection domain (e.g. owner / group / other). Each cell holds a
capability — typically the same object with progressively restricted
rights across the columns. A capability *for a directory* carries a
column mask in its low rights bits, so handing out a third-column
capability gives access to only the third column's entries (section 2
of the paper).

Directories serialize to bytes for storage in Bullet files; the
serialization is deterministic so that every replica produces an
identical file for the same logical state. A row is never edited, only
replaced, so each :class:`DirRow` carries its own encoding, built the
first time it is asked for: writing a directory out encodes only the
rows changed since the last write-out, and the image is a join.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.amoeba.capability import Capability
from repro.errors import AlreadyExists, DirectoryError, NotFound

#: Most directories use three protection columns, as in the paper.
DEFAULT_COLUMNS = ("owner", "group", "other")

MAX_COLUMNS = 4  # the capability rights field has four column bits

#: The encoding of an empty cell (no capability in that column).
_EMPTY_CELL = b"\x00" * 16


@dataclass(frozen=True)
class DirRow:
    """One (name, capability-per-column) row. Frozen: its cached
    :attr:`encoded` is only sound because a row never changes."""

    name: str
    capabilities: tuple  # Capability | None, one slot per column

    @cached_property
    def encoded(self) -> bytes:
        """The row's part of the Bullet image: 2-byte name length, the
        name, then 16 bytes per cell (zeros for an empty one)."""
        name = self.name.encode()
        return b"".join([
            len(name).to_bytes(2, "big"),
            name,
            *(
                cap.to_bytes() if cap is not None else _EMPTY_CELL
                for cap in self.capabilities
            ),
        ])

    def masked(self, column_mask: int) -> "DirRow":
        """The row as visible through a capability's column mask."""
        visible = tuple(
            cap if column_mask & (1 << i) else None
            for i, cap in enumerate(self.capabilities)
        )
        return DirRow(self.name, visible)


class Directory:
    """One directory: ordered rows keyed by name."""

    def __init__(self, columns=DEFAULT_COLUMNS):
        columns = tuple(columns)
        if not 1 <= len(columns) <= MAX_COLUMNS:
            raise DirectoryError(
                f"directories have 1..{MAX_COLUMNS} columns, got {len(columns)}"
            )
        self.columns = columns
        self._rows: dict[str, DirRow] = {}

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, name: str) -> bool:
        return name in self._rows

    @property
    def empty(self) -> bool:
        return not self._rows

    def row(self, name: str) -> DirRow:
        """The named row; raises NotFound."""
        try:
            return self._rows[name]
        except KeyError:
            raise NotFound(f"no row {name!r}") from None

    def names(self) -> list[str]:
        """All row names in insertion order."""
        return list(self._rows)

    def listing(self, column_mask: int) -> list[DirRow]:
        """All rows masked to the visible columns."""
        return [row.masked(column_mask) for row in self._rows.values()]

    def lookup(self, name: str, column_mask: int) -> Capability | None:
        """First visible capability of the named row (leftmost column)."""
        for i, cap in enumerate(self.row(name).capabilities):
            if cap is not None and column_mask & (1 << i):
                return cap
        return None

    # -- mutation ----------------------------------------------------------

    def _normalize(self, capabilities) -> tuple:
        caps = tuple(capabilities)
        if len(caps) > len(self.columns):
            raise DirectoryError(
                f"{len(caps)} capabilities for {len(self.columns)} columns"
            )
        return caps + (None,) * (len(self.columns) - len(caps))

    def append_row(self, name: str, capabilities) -> None:
        """Add a new row; raises AlreadyExists on a duplicate name."""
        if name in self._rows:
            raise AlreadyExists(f"row {name!r} already exists")
        self._rows[name] = DirRow(name, self._normalize(capabilities))

    def replace_row(self, name: str, capabilities) -> None:
        """Replace the capabilities of an existing row."""
        if name not in self._rows:
            raise NotFound(f"no row {name!r}")
        self._rows[name] = DirRow(name, self._normalize(capabilities))

    def chmod_row(self, name: str, column_mask: int, capabilities) -> None:
        """Change protection: replace only the masked columns' cells."""
        existing = self.row(name)
        new_caps = self._normalize(capabilities)
        merged = tuple(
            new_caps[i] if column_mask & (1 << i) else existing.capabilities[i]
            for i in range(len(self.columns))
        )
        self._rows[name] = DirRow(name, merged)

    def delete_row(self, name: str) -> None:
        """Remove a row; raises NotFound."""
        if name not in self._rows:
            raise NotFound(f"no row {name!r}")
        del self._rows[name]

    # -- serialization ----------------------------------------------------------

    def _header(self) -> bytes:
        return ("|".join(self.columns)).encode()

    def to_bytes(self) -> bytes:
        """Deterministic, length-prefixed encoding for Bullet storage:
        the column header, the row count, each row's :attr:`DirRow.encoded`."""
        header = self._header()
        return b"".join([
            len(header).to_bytes(2, "big"),
            header,
            len(self._rows).to_bytes(3, "big"),
            *(row.encoded for row in self._rows.values()),
        ])

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Directory":
        """Decode :meth:`to_bytes` output."""
        offset = 2
        header_len = int.from_bytes(raw[:2], "big")
        columns = tuple(raw[offset : offset + header_len].decode().split("|"))
        offset += header_len
        directory = cls(columns)
        n_cols = len(columns)
        row_count = int.from_bytes(raw[offset : offset + 3], "big")
        offset += 3
        for _ in range(row_count):
            name_len = int.from_bytes(raw[offset : offset + 2], "big")
            offset += 2
            name = raw[offset : offset + name_len].decode()
            offset += name_len
            caps = []
            for _ in range(n_cols):
                cell = raw[offset : offset + 16]
                offset += 16
                caps.append(
                    None if cell == _EMPTY_CELL else Capability.from_bytes(cell)
                )
            directory._rows[name] = DirRow(name, tuple(caps))
        return directory

    def serialized_size(self) -> int:
        """Byte size of the Bullet file this directory occupies
        (``len(self.to_bytes())``, without building the image)."""
        return 2 + len(self._header()) + 3 + sum(
            len(row.encoded) for row in self._rows.values()
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Directory)
            and self.columns == other.columns
            and self._rows == other._rows
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Directory cols={self.columns} rows={list(self._rows)}>"
