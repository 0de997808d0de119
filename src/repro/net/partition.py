"""Clean network partitions.

The paper assumes *clean* partitions: any two processors in the same
partition can communicate, while any two processors in different
partitions cannot (section 2). The controller tracks a mapping from
address to component id; by default every address is in component 0
(the network is whole).
"""

from __future__ import annotations

from typing import Hashable, Iterable

Address = Hashable


class PartitionController:
    """Tracks which partition component each address belongs to."""

    def __init__(self):
        self._component: dict[Address, int] = {}

    def component_of(self, address: Address) -> int:
        """The partition component *address* currently belongs to."""
        return self._component.get(address, 0)

    def connected(self, a: Address, b: Address) -> bool:
        """True when *a* and *b* can exchange packets."""
        return self.component_of(a) == self.component_of(b)

    def split(self, groups: Iterable[Iterable[Address]]) -> None:
        """Partition the network into the given address groups.

        Addresses not mentioned in any group stay in component 0, so
        ``split([["s3"]])`` isolates s3 from everyone else. Groups are
        assigned components 1, 2, ... in order.
        """
        self._component = {}
        for component, group in enumerate(groups, start=1):
            for address in group:
                self._component[address] = component

    def heal(self) -> None:
        """Repair all partitions: everyone back in component 0."""
        self._component = {}
