"""Simulated 10 Mbit/s Ethernet segment with multicast.

The paper's testbed is a single Ethernet; Amoeba's FLIP protocol uses
the hardware multicast capability so a ``SendToGroup`` costs one packet
on the wire regardless of group size. This package models exactly
that: point-to-point frames, true multicast/broadcast frames, clean
network partitions (any two nodes in the same partition communicate;
across partitions nothing does), and counters used by the
message-count benchmarks.

Link faults — random or asymmetric drop, per-receiver multicast
loss, duplication, bounded reordering, delay spikes — are injected via
the :mod:`repro.net.policy` interceptor chain (``network.add_policy``).
"""

from repro.net.network import BROADCAST, Network, NetworkStats, Nic, Packet
from repro.net.partition import PartitionController
from repro.net.policy import (
    Delay,
    Drop,
    Duplicate,
    LinkContext,
    LinkDecision,
    LinkFilter,
    LinkPolicy,
    Reorder,
)

__all__ = [
    "BROADCAST",
    "Delay",
    "Drop",
    "Duplicate",
    "LinkContext",
    "LinkDecision",
    "LinkFilter",
    "LinkPolicy",
    "Network",
    "NetworkStats",
    "Nic",
    "Packet",
    "PartitionController",
    "Reorder",
]
