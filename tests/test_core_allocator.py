"""Tests for the split device/buddy allocator and translation."""

import pytest

from repro.core.allocator import BuddyAllocator, OutOfMemoryError
from repro.core.entry import TargetRatio
from repro.core.metadata_cache import MetadataCache
from repro.core.translation import (
    ENTRIES_PER_METADATA_LINE,
    MetadataStore,
    PageTableEntryExtension,
    TranslationUnit,
)
from repro.units import GIB, KIB, MIB


class TestBuddyAllocator:
    def test_allocate_places_device_and_buddy(self):
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        alloc = allocator.allocate("a", 64 * KIB, TargetRatio.X2)
        assert alloc.entries == 512
        assert alloc.device_bytes == 32 * KIB
        assert alloc.buddy_bytes == 32 * KIB
        assert allocator.device_used == 32 * KIB
        assert allocator.buddy_used == 32 * KIB

    def test_1x_needs_no_buddy(self):
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        alloc = allocator.allocate("raw", 64 * KIB, TargetRatio.X1)
        assert alloc.buddy_bytes == 0
        assert alloc.buddy_offset == -1
        with pytest.raises(ValueError, match="no buddy slots"):
            alloc.buddy_address(0)

    def test_oversubscription_fits_via_compression(self):
        """24 GB of data on a 12 GB GPU at 2x — the paper's headline use."""
        allocator = BuddyAllocator(device_capacity=12 * GIB)
        allocator.allocate("big", 24 * GIB, TargetRatio.X2)
        assert allocator.device_used == 12 * GIB

    def test_device_exhaustion(self):
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        with pytest.raises(OutOfMemoryError, match="device"):
            allocator.allocate("too-big", 2 * MIB, TargetRatio.X1)

    def test_carve_out_exhaustion(self):
        # 16x keeps 8/128 in device, 120/128 in carve-out; carve-out is
        # only 3x device, so a huge 16x allocation hits the buddy limit
        # first.
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        with pytest.raises(OutOfMemoryError, match="carve-out"):
            allocator.allocate("zeros", 4 * MIB, TargetRatio.X16)

    def test_duplicate_name_rejected(self):
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        allocator.allocate("a", 1024, TargetRatio.X1)
        with pytest.raises(ValueError, match="already exists"):
            allocator.allocate("a", 1024, TargetRatio.X1)

    def test_free_returns_capacity(self):
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        allocator.allocate("a", 512 * KIB, TargetRatio.X2)
        allocator.free("a")
        assert allocator.device_used == 0
        assert allocator.buddy_used == 0
        with pytest.raises(KeyError):
            allocator.free("a")

    def test_entry_addresses(self):
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        alloc = allocator.allocate("a", 1024, TargetRatio.X2)
        assert alloc.device_address(0) == alloc.device_base
        assert alloc.device_address(1) == alloc.device_base + 64
        assert alloc.buddy_address(1) == alloc.buddy_offset + 64
        with pytest.raises(IndexError):
            alloc.device_address(alloc.entries)

    def test_effective_capacity_ratio(self):
        allocator = BuddyAllocator(device_capacity=1 * MIB)
        allocator.allocate("a", 256 * KIB, TargetRatio.X2)
        allocator.allocate("b", 128 * KIB, TargetRatio.X1)
        logical = 256 + 128
        device = 128 + 128
        assert allocator.effective_capacity_ratio() == pytest.approx(logical / device)


class TestTranslation:
    def test_pte_roundtrip(self):
        for target in TargetRatio:
            ext = PageTableEntryExtension(True, target, 12345)
            assert PageTableEntryExtension.unpack(ext.pack()) == ext

    def test_pte_is_24_bits(self):
        ext = PageTableEntryExtension(True, TargetRatio.X16, (1 << 20) - 1)
        assert ext.pack() < (1 << 24)
        assert PageTableEntryExtension.BITS == 24

    def test_pte_offset_overflow(self):
        ext = PageTableEntryExtension(True, TargetRatio.X2, 1 << 20)
        with pytest.raises(ValueError, match="20 bits"):
            ext.pack()

    def test_unpack_rejects_wide_values(self):
        with pytest.raises(ValueError):
            PageTableEntryExtension.unpack(1 << 24)

    def test_metadata_overhead_is_0_4_percent(self):
        store = MetadataStore(12 * GIB)
        assert store.overhead_fraction == pytest.approx(0.0039, abs=1e-4)
        assert store.overhead_bytes == 12 * GIB // 128 // 2

    def test_metadata_codes(self):
        store = MetadataStore(1 * MIB)
        store.write_sectors(0, 1, is_zero=True)
        store.write_sectors(1, 3)
        assert store.read(0) == 0
        assert store.read(1) == 3
        with pytest.raises(ValueError, match="4 bits"):
            store.write(0, 16)

    def test_metadata_line_covers_64_entries(self):
        store = MetadataStore(1 * MIB)
        assert ENTRIES_PER_METADATA_LINE == 64
        assert store.metadata_address(0) == store.metadata_address(63)
        assert store.metadata_address(64) == store.metadata_address(0) + 32

    def test_metadata_line_geometry_is_defined_once(self):
        """The cache line and the store's address arithmetic share one
        constant (repro.units), tied to the per-entry metadata width."""
        from repro.core.metadata_cache import LINE_BYTES
        from repro.units import (
            METADATA_BITS_PER_ENTRY,
            METADATA_LINE_BYTES,
        )

        assert LINE_BYTES == METADATA_LINE_BYTES
        assert (
            ENTRIES_PER_METADATA_LINE
            == METADATA_LINE_BYTES * 8 // METADATA_BITS_PER_ENTRY
        )
        store = MetadataStore(1 * MIB)
        for entry in (0, 1, 63, 64, 1000):
            assert store.metadata_address(entry) == (
                entry // ENTRIES_PER_METADATA_LINE
            ) * METADATA_LINE_BYTES

    def test_buddy_address_via_gbbr(self):
        unit = TranslationUnit(gbbr_base=1 << 40)
        ext = PageTableEntryExtension(True, TargetRatio.X2, buddy_page_offset=2)
        unit.map_page(7, ext)
        base = (1 << 40) + 2 * 8192
        assert unit.buddy_address(7, 0) == base
        assert unit.buddy_address(7, 3) == base + 3 * 64
        with pytest.raises(KeyError):
            unit.lookup(8)
        with pytest.raises(ValueError):
            unit.buddy_address(7, 64)


class TestMetadataCache:
    def test_spatial_streaming_hits(self):
        """Sequential entries share metadata lines: 63/64 hits."""
        cache = MetadataCache(total_bytes=4096, ways=4, slices=1)
        for entry in range(64 * 8):
            cache.access_entry(entry)
        assert cache.stats.misses == 8
        assert cache.stats.hit_rate == pytest.approx(1 - 8 / 512)

    def test_capacity_miss_on_huge_stride(self):
        cache = MetadataCache(total_bytes=1024, ways=2, slices=1)
        lines = 1024 // 32
        for _ in range(3):
            for line in range(0, lines * 64, 64):  # 64 lines > capacity
                cache.access_line(line)
        assert cache.stats.hit_rate == 0.0

    def test_lru_within_set(self):
        cache = MetadataCache(total_bytes=64, ways=2, slices=1)  # 1 set
        cache.access_line(0)
        cache.access_line(1)
        cache.access_line(0)  # refresh 0
        cache.access_line(2)  # evicts 1
        assert cache.access_line(0)  # hit
        assert not cache.access_line(1)  # miss

    def test_small_working_set_hits(self):
        cache = MetadataCache(total_bytes=64 * 1024, ways=4, slices=8)
        for _ in range(4):
            for line in range(100):
                cache.access_line(line)
        assert cache.stats.hit_rate > 0.7

    def test_bigger_cache_never_hurts(self):
        """Hit rate grows with capacity on a reused random stream."""
        import numpy as np

        rng = np.random.default_rng(9)
        stream = rng.integers(0, 4096, 4000)
        rates = []
        for kib in (8, 32, 128):
            cache = MetadataCache(total_bytes=kib * 1024, ways=4, slices=8)
            for line in stream:
                cache.access_line(int(line))
            rates.append(cache.stats.hit_rate)
        assert rates == sorted(rates)

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="not divisible"):
            MetadataCache(total_bytes=1000, ways=3, slices=7)

    @pytest.mark.parametrize(
        "total_bytes, ways, slices",
        [(0, 4, 1), (-4096, 4, 1), (4096, 0, 1), (4096, 4, 0), (4096, -1, 1)],
    )
    def test_rejects_empty_geometry(self, total_bytes, ways, slices):
        """A cache without capacity, ways or slices is refused up
        front, not by a ZeroDivisionError on first access."""
        with pytest.raises(ValueError, match="positive"):
            MetadataCache(total_bytes=total_bytes, ways=ways, slices=slices)

    def test_flush(self):
        cache = MetadataCache(total_bytes=4096, ways=4, slices=1)
        cache.access_line(0)
        cache.flush()
        assert cache.stats.accesses == 0
        assert not cache.access_line(0)  # cold again
