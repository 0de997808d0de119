"""Composable fault injection for whole-cluster scenarios.

A :class:`~repro.faults.plan.FaultPlan` is a timed script of
:class:`~repro.faults.plan.FaultEvent` records, one per builder call —
crash, restart, partition, heal, disk failure, the storage faults (bit
and extent rot, torn/lost/misdirected writes, NVRAM blips, crash
points; docs/CHAOS.md), link policies and live interventions — and is
the tool behind the chaos tests and the recovery benchmarks.
:class:`~repro.faults.plan.RandomFaultPlan` generates seeded random
schedules for property-style soak testing.
"""

from repro.faults.plan import FaultEvent, FaultPlan, RandomFaultPlan, rot_blocks, rot_extents

__all__ = ["FaultEvent", "FaultPlan", "RandomFaultPlan", "rot_blocks", "rot_extents"]
