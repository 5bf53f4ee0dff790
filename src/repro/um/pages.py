"""Page residency tracking for the Unified Memory model.

The Fig. 12 model reads its fault counts from an LRU stack-distance
histogram (:func:`repro.um.oversubscription.um_curve`); this scalar
set is the reference the tests hold that histogram to.
"""

from __future__ import annotations

from collections import OrderedDict


class ResidencySet:
    """LRU set of device-resident pages with a fixed capacity."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise ValueError("device must hold at least one page")
        self.capacity = capacity_pages
        self._pages: OrderedDict[int, None] = OrderedDict()
        self.faults = 0
        self.hits = 0
        self.evictions = 0

    def touch(self, page: int) -> bool:
        """Access a page; migrate it in on a fault.  Returns hit."""
        if page in self._pages:
            self._pages.move_to_end(page)
            self.hits += 1
            return True
        self.faults += 1
        self._pages[page] = None
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
            self.evictions += 1
        return False

    @property
    def resident(self) -> int:
        return len(self._pages)

    @property
    def accesses(self) -> int:
        return self.hits + self.faults

    @property
    def fault_rate(self) -> float:
        return self.faults / self.accesses if self.accesses else 0.0
