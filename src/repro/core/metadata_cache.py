"""The metadata cache (Fig. 5 of the paper).

A small set-associative cache in front of the per-entry size metadata.
Each 32 B line covers 64 consecutive memory-entries' 4-bit codes, so a
miss prefetches 63 neighbours — spatially local workloads hit nearly
always.  The paper's final configuration is 4 KB, 4-way per L2 slice
(32 slices -> 128 KB total in Table 2's GPU; the Fig.-5b study sweeps
total capacity), with metadata interleaved across DRAM channels by the
regular physical-address hash.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import ENTRIES_PER_METADATA_LINE, METADATA_LINE_BYTES

#: Metadata cache line size (bytes) — matches a DRAM sector; shared
#: with the metadata store's address geometry via :mod:`repro.units`.
LINE_BYTES = METADATA_LINE_BYTES


@dataclass
class CacheStats:
    """Hit/miss counters."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


class MetadataCache:
    """Sliced, set-associative, LRU metadata cache.

    Args:
        total_bytes: Aggregate capacity across all slices.
        ways: Associativity.
        slices: Number of slices (one per L2 slice in the paper);
            lines interleave across slices by line address.
    """

    def __init__(
        self, total_bytes: int = 64 * 1024, ways: int = 4, slices: int = 8
    ) -> None:
        if total_bytes <= 0 or ways < 1 or slices < 1:
            raise ValueError(
                f"metadata cache needs a positive size, ways and slices; "
                f"got {total_bytes} B, {ways} ways, {slices} slices"
            )
        if total_bytes % (ways * slices * LINE_BYTES):
            raise ValueError(
                f"{total_bytes} bytes not divisible into {slices} slices "
                f"x {ways} ways of {LINE_BYTES} B lines"
            )
        self.total_bytes = total_bytes
        self.ways = ways
        self.slices = slices
        self.sets_per_slice = total_bytes // (ways * slices * LINE_BYTES)
        # sets[set_index(line)] -> list of tags, most recent last
        self._sets: list[list[int]] = [
            [] for _ in range(slices * self.sets_per_slice)
        ]
        self.stats = CacheStats()

    def set_index(self, line):
        """Slice-major set of a metadata line (elementwise on arrays).

        Lines interleave across slices by line address, then across
        the sets of their slice.
        """
        slice_index = line % self.slices
        set_in_slice = (line // self.slices) % self.sets_per_slice
        return slice_index * self.sets_per_slice + set_in_slice

    def access_entry(self, entry_index: int) -> bool:
        """Access the metadata for a memory-entry; returns hit."""
        line = entry_index // ENTRIES_PER_METADATA_LINE
        return self.access_line(line)

    def access_line(self, line: int) -> bool:
        """Access a metadata line by line index; returns hit."""
        tag = line // (self.slices * self.sets_per_slice)
        ways = self._sets[self.set_index(line)]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        ways.append(tag)
        if len(ways) > self.ways:
            ways.pop(0)
        return False

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def flush(self) -> None:
        """Invalidate all lines and reset statistics."""
        for ways in self._sets:
            ways.clear()
        self.reset_stats()
