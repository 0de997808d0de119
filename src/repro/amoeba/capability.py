"""Capabilities: sparse, unforgeable object names.

Layout mirrors the paper's description (section 2): a capability is a
128-bit string with four parts —

* **port** (48 bits): identifies the service,
* **object number** (24 bits): identifies an object at that service,
* **rights** (8 bits): which operations the holder may perform,
* **check** (48 bits): validates the capability.

Protection works as in Amoeba: the server stores a random *owner
check* per object. The owner capability carries that check with all
rights bits on. A holder restricts a capability by running the check
and the new rights mask through a public one-way function ``F``; the
server can recompute ``F(owner_check, rights)`` to validate a
restricted capability, but a holder cannot invert ``F`` to escalate
rights. We use truncated SHA-256 as ``F``.

For directory capabilities the low rights bits double as the *column
mask*: bit ``i`` grants access to column ``i`` of the directory, which
is how an owner hands out a capability for a single column (the
third-column example in the paper).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from enum import IntFlag
from typing import Hashable

from repro.errors import CapabilityError

_CHECK_BITS = 48
_CHECK_MASK = (1 << _CHECK_BITS) - 1
_OBJECT_MASK = (1 << 24) - 1


class Rights(IntFlag):
    """The 8 rights bits of a capability.

    For directory capabilities, ``COL_1``..``COL_4`` form the column
    mask; ``MODIFY`` permits write operations (append/chmod/delete/
    replace) and ``DESTROY`` permits deleting the directory itself.
    For other services only ``READ``/``MODIFY``/``DESTROY`` are
    meaningful.
    """

    COL_1 = 0x01
    COL_2 = 0x02
    COL_3 = 0x04
    COL_4 = 0x08
    READ = 0x10
    MODIFY = 0x20
    DESTROY = 0x40
    ADMIN = 0x80


#: The owner's rights mask: everything on.
ALL_RIGHTS = Rights(0xFF)


class Port(bytes):
    """A 48-bit service port.

    Ports are sparse names: knowing a service's port is what lets a
    client address it (the RPC locate machinery broadcasts the port).
    We derive the 6 bytes from a human-readable service name so logs
    and tests stay legible.

    A port *is* its six bytes: every RPC looks ports up in its kernel's
    tables several times, and as a ``bytes`` it hashes and compares
    there in C.
    """

    __slots__ = ()

    def __new__(cls, id: bytes) -> "Port":
        if len(id) != 6:
            raise CapabilityError(f"port must be 6 bytes, got {len(id)}")
        return super().__new__(cls, id)

    @classmethod
    def for_service(cls, name: str) -> "Port":
        """Deterministic port for a named service."""
        return cls(hashlib.sha256(f"port:{name}".encode()).digest()[:6])

    def __str__(self) -> str:
        return self.hex()

    def __repr__(self) -> str:
        return f"Port(id={bytes(self)!r})"


@dataclass(frozen=True)
class Capability:
    """One 128-bit capability."""

    port: Port
    object_number: int
    rights: Rights
    check: int

    def __post_init__(self):
        if not 0 <= self.object_number <= _OBJECT_MASK:
            raise CapabilityError(
                f"object number {self.object_number} out of 24-bit range"
            )
        if not 0 <= self.check <= _CHECK_MASK:
            raise CapabilityError("check field out of 48-bit range")

    def __eq__(self, other):
        # The dataclass's comparison without its two tuples per call
        # (lookup results are compared); __hash__ stays the dataclass's.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self.check == other.check
            and self.object_number == other.object_number
            and self.rights == other.rights
            and self.port == other.port
        )

    @property
    def is_owner(self) -> bool:
        """True for the all-rights (owner) capability."""
        return self.rights == ALL_RIGHTS

    def has_rights(self, required: Rights) -> bool:
        """Whether the capability claims all bits in *required*."""
        # Plain ints: Rights & Rights would build an IntFlag per request.
        return int.__and__(self.rights, required) == required

    def column_mask(self) -> int:
        """The low four rights bits, interpreted as a column mask."""
        return int(self.rights) & 0x0F

    def to_bytes(self) -> bytes:
        """The canonical 16-byte wire encoding."""
        return (
            self.port
            + self.object_number.to_bytes(3, "big")
            + int(self.rights).to_bytes(1, "big")
            + self.check.to_bytes(6, "big")
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Capability":
        """Decode the 16-byte wire encoding."""
        if len(raw) != 16:
            raise CapabilityError(f"capability must be 16 bytes, got {len(raw)}")
        return cls(
            port=Port(raw[:6]),
            object_number=int.from_bytes(raw[6:9], "big"),
            rights=Rights(raw[9]),
            check=int.from_bytes(raw[10:16], "big"),
        )

    def __str__(self) -> str:
        return (
            f"{self.port}:{self.object_number}"
            f"/{int(self.rights):02x}.{self.check:012x}"
        )


def new_check(rng) -> int:
    """A fresh random owner check field.

    *rng* is any object with a ``randint`` method (e.g. a stream from
    :class:`repro.sim.randomness.RngStreams`), keeping check-field
    generation deterministic per simulation seed.
    """
    return rng.randint(1, _CHECK_MASK)


def _one_way(check: int, rights: Rights) -> int:
    """The public one-way function F(check, rights)."""
    material = check.to_bytes(6, "big") + int(rights).to_bytes(1, "big")
    digest = hashlib.sha256(b"amoeba-F:" + material).digest()
    return int.from_bytes(digest[:6], "big")


def restrict(cap: Capability, rights: Rights) -> Capability:
    """Derive a weaker capability from an owner capability.

    Only the owner capability can be restricted directly (matching
    Amoeba, where restricting an already-restricted capability requires
    a round-trip to the server, which we do not need here). The new
    rights must be a subset of ALL minus nothing — i.e. any mask other
    than the owner mask itself.
    """
    if not cap.is_owner:
        raise CapabilityError("only the owner capability can be restricted")
    if rights == ALL_RIGHTS:
        raise CapabilityError("restriction must drop at least one right")
    return replace(cap, rights=rights, check=_one_way(cap.check, rights))


def validate(cap: Capability, owner_check: int) -> bool:
    """Server-side check-field validation.

    *owner_check* is the server's stored random check for the object.
    The owner capability must present it verbatim; a restricted
    capability must present ``F(owner_check, rights)``.
    """
    if cap.is_owner:
        return cap.check == owner_check
    return cap.check == _one_way(owner_check, cap.rights)


def require(cap: Capability, owner_check: int, rights: Rights) -> None:
    """Validate *cap* and require *rights*; raise CapabilityError if not."""
    if not validate(cap, owner_check):
        raise CapabilityError(f"bad check field in {cap}")
    if not cap.has_rights(rights):
        raise CapabilityError(f"capability {cap} lacks rights {rights!r}")


def owner_capability(port: Port, object_number: int, owner_check: int) -> Capability:
    """Convenience constructor for a fresh owner capability."""
    return Capability(port, object_number, ALL_RIGHTS, owner_check)


# Re-export type used in annotations elsewhere.
Address = Hashable
