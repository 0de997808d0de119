"""Unit and property tests for Amoeba capabilities."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.amoeba import (
    ALL_RIGHTS,
    Capability,
    Port,
    Rights,
    new_check,
    restrict,
    validate,
)
from repro.amoeba.capability import owner_capability, require
from repro.errors import CapabilityError


def make_owner(obj=1, seed=0):
    rng = random.Random(seed)
    return owner_capability(Port.for_service("dir"), obj, new_check(rng))


class TestPort:
    def test_for_service_is_deterministic(self):
        assert Port.for_service("dir") == Port.for_service("dir")

    def test_different_services_differ(self):
        assert Port.for_service("dir") != Port.for_service("bullet")

    def test_length_enforced(self):
        with pytest.raises(CapabilityError):
            Port(b"short")

    def test_a_port_hashes_and_compares_as_its_bytes(self):
        # Every RPC looks its port up in the kernel's port-keyed tables;
        # bytes' own slots do that in C.
        assert Port.__hash__ is bytes.__hash__
        assert Port.__eq__ is bytes.__eq__
        port = Port.for_service("dir")
        assert str(port) == f"{port}" == bytes(port).hex()

    def test_a_decoded_port_is_the_same_key(self):
        cap = make_owner(obj=7)
        decoded = Capability.from_bytes(cap.to_bytes()).port
        assert type(decoded) is Port
        assert decoded == cap.port and hash(decoded) == hash(cap.port)
        assert {cap.port: "served"}[decoded] == "served"


class TestCapability:
    def test_object_number_range(self):
        with pytest.raises(CapabilityError):
            Capability(Port.for_service("x"), 1 << 24, ALL_RIGHTS, 0)

    def test_check_range(self):
        with pytest.raises(CapabilityError):
            Capability(Port.for_service("x"), 1, ALL_RIGHTS, 1 << 48)

    def test_owner_flag(self):
        cap = make_owner()
        assert cap.is_owner
        assert not restrict(cap, Rights.READ).is_owner

    def test_has_rights(self):
        cap = make_owner()
        weak = restrict(cap, Rights.READ | Rights.COL_1)
        assert weak.has_rights(Rights.READ)
        assert not weak.has_rights(Rights.MODIFY)
        assert weak.has_rights(Rights.READ | Rights.COL_1)

    def test_has_rights_agrees_with_the_intflag_expression_everywhere(self):
        owner = make_owner()
        for rights in range(256):
            cap = Capability(owner.port, 1, Rights(rights), owner.check)
            for required in map(Rights, range(256)):
                expected = (cap.rights & required) == required
                assert cap.has_rights(required) is expected, (rights, required)

    def test_column_mask(self):
        cap = make_owner()
        weak = restrict(cap, Rights.COL_1 | Rights.COL_3 | Rights.READ)
        assert weak.column_mask() == 0b0101

    def test_wire_roundtrip(self):
        cap = make_owner(obj=12345)
        assert Capability.from_bytes(cap.to_bytes()) == cap
        assert len(cap.to_bytes()) == 16

    def test_from_bytes_length_check(self):
        with pytest.raises(CapabilityError):
            Capability.from_bytes(b"too short")

    def test_str_is_compact(self):
        assert ":" in str(make_owner())

    def test_equality_and_hash_are_the_dataclass_forms(self):
        """Set and dict orders depend on the hash: it stays the one the
        dataclass computed from the four fields."""
        owner = make_owner(obj=7)
        twin = Capability.from_bytes(owner.to_bytes())
        for cap in (owner, twin, restrict(owner, Rights.READ)):
            assert hash(cap) == hash((cap.port, cap.object_number, cap.rights, cap.check))
            assert hash(cap) == hash(cap)  # and again, from the stored value
        assert twin == owner and twin is not owner and hash(twin) == hash(owner)
        for field, value in (
            ("port", Port.for_service("other")),
            ("object_number", 8),
            ("rights", Rights.READ),
            ("check", owner.check ^ 1),
        ):
            changed = replace(owner, **{field: value})
            assert changed != owner and not changed == owner
        assert owner != (owner.port, owner.object_number, owner.rights, owner.check)


class TestRestriction:
    def test_owner_validates(self):
        rng = random.Random(1)
        check = new_check(rng)
        cap = owner_capability(Port.for_service("dir"), 7, check)
        assert validate(cap, check)

    def test_restricted_validates(self):
        rng = random.Random(2)
        check = new_check(rng)
        cap = owner_capability(Port.for_service("dir"), 7, check)
        weak = restrict(cap, Rights.READ)
        assert validate(weak, check)

    def test_forged_rights_escalation_fails(self):
        """Flipping rights bits without recomputing the check must fail."""
        rng = random.Random(3)
        check = new_check(rng)
        cap = owner_capability(Port.for_service("dir"), 7, check)
        weak = restrict(cap, Rights.READ)
        forged = Capability(weak.port, weak.object_number, ALL_RIGHTS, weak.check)
        assert not validate(forged, check)

    def test_forged_check_fails(self):
        rng = random.Random(4)
        check = new_check(rng)
        cap = owner_capability(Port.for_service("dir"), 7, check)
        forged = Capability(cap.port, cap.object_number, cap.rights, check ^ 1)
        assert not validate(forged, check)

    def test_cannot_restrict_a_restricted_capability(self):
        weak = restrict(make_owner(), Rights.READ | Rights.MODIFY)
        with pytest.raises(CapabilityError):
            restrict(weak, Rights.READ)

    def test_restriction_to_all_rights_rejected(self):
        with pytest.raises(CapabilityError):
            restrict(make_owner(), ALL_RIGHTS)

    def test_require_passes_and_fails(self):
        rng = random.Random(5)
        check = new_check(rng)
        cap = owner_capability(Port.for_service("dir"), 1, check)
        require(cap, check, Rights.MODIFY)  # owner has every right
        weak = restrict(cap, Rights.READ)
        with pytest.raises(CapabilityError):
            require(weak, check, Rights.MODIFY)
        with pytest.raises(CapabilityError):
            require(weak, check ^ 1, Rights.READ)


class TestProperties:
    @given(st.integers(min_value=1, max_value=(1 << 48) - 1),
           st.integers(min_value=0, max_value=254))
    def test_any_restriction_validates_and_cannot_escalate(self, check, rights_value):
        """For every owner check and rights mask: the restricted cap
        validates, and no *stronger* mask validates with the same check."""
        cap = owner_capability(Port.for_service("svc"), 1, check)
        rights = Rights(rights_value)
        weak = restrict(cap, rights)
        assert validate(weak, check)
        stronger = Capability(cap.port, 1, ALL_RIGHTS, weak.check)
        assert not validate(stronger, check)

    @given(st.integers(min_value=0, max_value=(1 << 24) - 1),
           st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_wire_roundtrip_property(self, obj, rights_value, check):
        cap = Capability(Port.for_service("p"), obj, Rights(rights_value), check)
        assert Capability.from_bytes(cap.to_bytes()) == cap

    @given(st.integers(min_value=1, max_value=(1 << 48) - 1))
    def test_distinct_rights_produce_distinct_checks(self, check):
        cap = owner_capability(Port.for_service("svc"), 1, check)
        a = restrict(cap, Rights.READ)
        b = restrict(cap, Rights.MODIFY)
        assert a.check != b.check
