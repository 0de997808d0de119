"""ServiceConfig: the static facts every replica of one service shares."""

import dataclasses

import pytest

from repro.directory.config import ServiceConfig


class TestServiceConfig:
    def test_fields_cannot_be_reassigned(self):
        """Every replica holds the same config object, so one replica
        writing a field would change it under all the others; the
        server set and the resilience degree are fixed at build time."""
        config = ServiceConfig(name="x", server_addresses=("a", "b", "c"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.resilience = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.batch_max = 1
