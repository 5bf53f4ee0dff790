"""The LRU stack-distance kernel against the scalar LRU models.

``ResidencySet`` (one fully associative LRU) and ``MetadataCache`` (a
sliced, set-associative LRU) replay a stream access by access; the
kernel must predict their hit counts exactly, at every capacity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metadata_cache import LINE_BYTES, MetadataCache
from repro.core.stack_distance import stack_distance_histogram
from repro.um.pages import ResidencySet

#: Small keys, with some streams also holding keys beyond 16 bits.
streams = st.lists(
    st.integers(0, 24) | st.integers(2**40, 2**40 + 6), max_size=300
)


def residency_faults(stream, capacity: int) -> int:
    pool = ResidencySet(capacity)
    for key in stream:
        pool.touch(int(key))
    return pool.faults


def assert_matches_residency(stream) -> None:
    """Every capacity's faults, and the cold misses, match the oracle."""
    hist, cold = stack_distance_histogram(np.asarray(stream, dtype=np.int64))
    assert hist.sum() + cold == len(stream)
    assert hist.size == 0 or hist[-1] > 0
    distinct = len(set(stream))
    assert cold == distinct
    for capacity in range(1, distinct + 2):
        hits = int(hist[:capacity].sum())
        assert len(stream) - hits == residency_faults(stream, capacity), capacity


@given(streams)
@settings(max_examples=150, deadline=None)
def test_matches_residency_set_at_every_capacity(stream):
    assert_matches_residency(stream)


@given(
    st.lists(st.integers(0, 200), max_size=400),
    st.integers(1, 4),
    st.integers(1, 8),
    st.integers(1, 5),
)
@settings(max_examples=150, deadline=None)
def test_matches_metadata_cache(lines, slices, sets_per_slice, max_ways):
    """Per-set distances give the hit count at every associativity."""
    lines = np.asarray(lines, dtype=np.int64)
    geometry = MetadataCache(slices * sets_per_slice * LINE_BYTES, 1, slices)
    hist, cold = stack_distance_histogram(lines, geometry.set_index(lines))
    assert cold == np.unique(lines).size
    for ways in range(1, max_ways + 1):
        cache = MetadataCache(ways * slices * sets_per_slice * LINE_BYTES, ways, slices)
        for line in lines.tolist():
            cache.access_line(line)
        assert cache.stats.hits == int(hist[:ways].sum()), ways


def test_empty_stream():
    hist, cold = stack_distance_histogram(np.zeros(0, dtype=np.int64))
    assert hist.size == 0 and cold == 0
    hist, cold = stack_distance_histogram([], [])
    assert hist.size == 0 and cold == 0


def test_single_key():
    hist, cold = stack_distance_histogram([7])
    assert hist.size == 0 and cold == 1
    hist, cold = stack_distance_histogram([7, 7, 7])
    assert hist.tolist() == [2] and cold == 1


def test_capacity_one_hits_only_immediate_repeats():
    stream = [1, 1, 2, 1, 1, 1, 3, 2]
    hist, _ = stack_distance_histogram(stream)
    assert hist[:1].sum() == 3
    assert_matches_residency(stream)


def test_capacity_covering_every_key_misses_only_cold():
    rng = np.random.default_rng(3)
    stream = rng.integers(0, 50, 2000)
    hist, cold = stack_distance_histogram(stream)
    distinct = np.unique(stream).size
    assert cold == distinct
    assert hist[:distinct].sum() == stream.size - distinct
    assert hist.size <= distinct


@pytest.mark.parametrize("keys", [1, 2, 5, 64])
def test_cyclic_stream_thrashes_one_short_of_its_keys(keys):
    """K+1 keys cycled through a K-entry LRU never hit; K+1 entries
    hit every access after the first lap."""
    stream = np.tile(np.arange(keys + 1), 6)
    hist, cold = stack_distance_histogram(stream)
    assert hist[:keys].sum() == 0
    assert hist[: keys + 1].sum() == stream.size - cold
    assert hist.tolist() == [0] * keys + [stream.size - keys - 1]


@pytest.mark.parametrize("length", [255, 256, 257, 1023, 1024, 1025])
def test_lengths_either_side_of_a_power_of_two(length):
    rng = np.random.default_rng(length)
    assert_matches_residency(rng.integers(0, 40, length).tolist())
    # One long window spanning the whole stream.
    stream = [0] + rng.integers(1, 500, length - 2).tolist() + [0]
    assert_matches_residency(stream)


def test_wide_keys():
    """Keys past 16 bits (no radix sort) and past 32 bits, including
    keys that coincide in their low 16 bits."""
    rng = np.random.default_rng(11)
    small = rng.integers(0, 30, 500)
    expected = stack_distance_histogram(small)
    for wide in (small // 2 + (small % 2) * 2**16, small + 2**40, small + 2**62):
        got = stack_distance_histogram(wide)
        assert got[1] == expected[1] and np.array_equal(got[0], expected[0])
    assert_matches_residency((small + 2**40).tolist())


def test_sets_are_independent_stacks():
    """Interleaving two sets' streams changes no per-set distance."""
    rng = np.random.default_rng(5)
    a = rng.integers(0, 20, 400) * 2  # even keys: set 0
    b = rng.integers(0, 20, 300) * 2 + 1  # odd keys: set 1
    mixed = np.empty(700, dtype=np.int64)
    slots = rng.permutation(700)
    mixed[np.sort(slots[:400])] = a
    mixed[np.sort(slots[400:])] = b
    ha, ca = stack_distance_histogram(a)
    hb, cb = stack_distance_histogram(b)
    size = max(ha.size, hb.size)
    expected = np.pad(ha, (0, size - ha.size)) + np.pad(hb, (0, size - hb.size))
    # Set ids within 16 bits, past them, and equal in their low 16 bits.
    for set_ids in (mixed % 2, mixed % 2 + 2**40, (mixed % 2) * 2**16):
        hist, cold = stack_distance_histogram(mixed, set_ids)
        assert cold == ca + cb
        assert np.array_equal(hist, expected)


def test_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        stack_distance_histogram(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        stack_distance_histogram([1, 2, 3], [0, 0])
