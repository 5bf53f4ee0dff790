"""Tests for the Bit-Plane Compression codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.bpc import (
    _CHUNK_BLOCKS,
    _PLANE_MASK,
    BPCCompressor,
    _bulk_planes,
    _dbp_planes,
    _dbx_planes,
    _is_two_consecutive_ones,
)
from repro.units import MEMORY_ENTRY_BYTES, WORDS_PER_ENTRY

BPC = BPCCompressor()

blocks_strategy = hnp.arrays(
    dtype=np.uint32,
    shape=(WORDS_PER_ENTRY,),
    elements=st.integers(0, 2**32 - 1),
)

structured_blocks = st.one_of(
    # Arithmetic ramps: the best case for delta + bit-plane coding.
    st.builds(
        lambda start, step: (start + step * np.arange(32, dtype=np.int64)).astype(
            np.uint32
        ),
        st.integers(0, 2**20),
        st.integers(-64, 64),
    ),
    # Constant blocks.
    st.builds(
        lambda value: np.full(32, value, dtype=np.uint32),
        st.integers(0, 2**32 - 1),
    ),
    # Low-entropy small integers.
    hnp.arrays(np.uint32, (WORDS_PER_ENTRY,), elements=st.integers(0, 255)),
    blocks_strategy,
)


class TestScalarCodec:
    def test_zero_block_compresses_hard(self):
        block = np.zeros(WORDS_PER_ENTRY, dtype=np.uint32)
        assert BPC.compressed_size(block) <= 2

    def test_constant_block_compresses_hard(self):
        block = np.full(WORDS_PER_ENTRY, 0xDEADBEEF, dtype=np.uint32)
        # base raw (33) + one zero-run of all planes (8) + flag
        assert BPC.compressed_size(block) <= 6

    def test_ramp_block_compresses(self):
        block = np.arange(WORDS_PER_ENTRY, dtype=np.uint32)
        assert BPC.compressed_size(block) <= 8

    def test_random_block_does_not_exceed_entry(self):
        rng = np.random.default_rng(7)
        block = rng.integers(0, 2**32, WORDS_PER_ENTRY, dtype=np.uint32)
        assert BPC.compressed_size(block) == MEMORY_ENTRY_BYTES

    def test_wrong_algorithm_rejected(self):
        block = BPC.encode(np.zeros(WORDS_PER_ENTRY, dtype=np.uint32))
        other = type(block)("bdi", block.bits, block.bit_length)
        with pytest.raises(ValueError):
            BPC.decode(other)

    @given(blocks_strategy)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_random(self, block):
        decoded = BPC.decode(BPC.encode(block))
        np.testing.assert_array_equal(decoded, block)

    @given(structured_blocks)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_structured(self, block):
        decoded = BPC.decode(BPC.encode(block))
        np.testing.assert_array_equal(decoded, block)

    def test_roundtrip_float_data(self):
        rng = np.random.default_rng(3)
        values = rng.normal(1.0, 1e-3, WORDS_PER_ENTRY).astype(np.float32)
        block = values.view(np.uint32)
        decoded = BPC.decode(BPC.encode(block))
        np.testing.assert_array_equal(decoded, block)


class TestVectorisedSizes:
    @given(st.lists(st.one_of(blocks_strategy, structured_blocks), min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar(self, blocks):
        stacked = np.stack(blocks)
        expected = np.array([BPC.compressed_size(b) for b in blocks])
        np.testing.assert_array_equal(BPC.compressed_sizes(stacked), expected)

    def test_empty_input(self):
        assert BPC.compressed_sizes(np.zeros((0, 32), dtype=np.uint32)).size == 0

    def test_accepts_flat_bytes(self):
        data = np.zeros(256, dtype=np.uint8)
        sizes = BPC.compressed_sizes(data)
        assert sizes.shape == (2,)

    def test_smooth_float_fields_compress_well(self):
        """Homogeneous fp32 data is the paper's motivating case for BPC."""
        x = np.linspace(0.0, 1.0, 4096, dtype=np.float32)
        field = (np.sin(x * 3.0) * 0.5 + 1.0).astype(np.float32)
        ratio = BPC.compression_ratio(field)
        assert ratio > 1.5

    def test_random_floats_do_not_compress(self):
        rng = np.random.default_rng(11)
        data = rng.random(4096, dtype=np.float32) * 1e9
        ratio = BPC.compression_ratio(data)
        assert ratio < 1.2


def _from_dbx(dbx: dict[int, int], base: int = 0) -> np.ndarray:
    """A block whose DBX planes are ``dbx`` (plane -> 31-bit value).

    Planes below 24 only, so every delta stays positive and below
    2**24 and the words never wrap: the block's own planes are exactly
    the ones asked for.
    """
    dbp, acc = {}, 0
    for bit in range(23, -1, -1):
        acc ^= dbx.get(bit, 0)
        dbp[bit] = acc
    deltas = [
        sum(((plane >> i) & 1) << bit for bit, plane in dbp.items())
        for i in range(WORDS_PER_ENTRY - 1)
    ]
    return (base + np.concatenate([[0], np.cumsum(deltas)])).astype(np.uint32)


def _zero_runs(dbx: list[int]) -> list[int]:
    """Lengths of the maximal runs of zero DBX planes."""
    runs, run = [], 0
    for plane in dbx:
        if plane == 0:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    return runs + [run] if run else runs


_NOISE = 0x2345_6789 & _PLANE_MASK

#: Blocks that hit each branch of the plane code and each zero-run
#: boundary, including the borrow plane 32.
ADVERSARIAL_BLOCKS = [
    # Descending ramps: negative deltas set the high planes and plane 32.
    *(
        (start - step * np.arange(WORDS_PER_ENTRY, dtype=np.int64)).astype(np.uint32)
        for start, step in ((0xFFFF_FFFF, 1), (1000, 3), (0x8000_0000, 0x0400_0001))
    ),
    # 0 / 0xFFFFFFFF alternation: deltas of +-(2**32 - 1) set plane 32
    # and make DBX plane 31 all ones.
    np.tile(np.array([0, 0xFFFF_FFFF], dtype=np.uint32), 16),
    np.tile(np.array([0xFFFF_FFFF, 0], dtype=np.uint32), 16),
    # All-ones DBX planes.
    _from_dbx({0: _PLANE_MASK}),
    _from_dbx({4: _PLANE_MASK, 9: _NOISE}),
    # Single one and two consecutive ones at positions 0 and 30.
    _from_dbx({0: 1}),
    _from_dbx({0: 1 << 30}),
    _from_dbx({7: 1, 12: 1 << 30}),
    _from_dbx({0: 0b11}),
    _from_dbx({3: 0b11 << 29}),
    _from_dbx({5: 0b11, 6: 0b11 << 29}),
    # DBX != 0 while DBP == 0.
    _from_dbx({3: 0b1011, 4: 0b1011}),
    # Zero runs of exactly 1, 2 and 3 planes, at the bottom and inside.
    _from_dbx({1: _NOISE}),
    _from_dbx({0: _NOISE, 2: _NOISE}),
    _from_dbx({0: _NOISE, 3: _NOISE}),
    _from_dbx({0: _NOISE, 4: _NOISE, 8: _NOISE}),
    _from_dbx({2: _NOISE, 3: 5, 5: 0b11, 9: 1 << 30}, base=0x7FFF),
    # A run of all 33 planes: constant blocks whose base words sit on
    # both sides of every base-code class boundary.
    *(
        np.full(WORDS_PER_ENTRY, value & 0xFFFF_FFFF, dtype=np.uint32)
        for width in (4, 8, 16)
        for value in (
            (1 << (width - 1)) - 1,
            1 << (width - 1),
            -(1 << (width - 1)),
            -(1 << (width - 1)) - 1,
        )
    ),
    np.zeros(WORDS_PER_ENTRY, dtype=np.uint32),
    np.full(WORDS_PER_ENTRY, 0xFFFF_FFFF, dtype=np.uint32),
]


def test_adversarial_blocks_cover_every_case():
    """Guards the batch below: each targeted pattern really occurs."""
    dbps = [_dbp_planes(block) for block in ADVERSARIAL_BLOCKS]
    dbxs = [_dbx_planes(dbp) for dbp in dbps]
    assert any(dbp[32] for dbp in dbps)
    assert any(dbp[32] == 0x5555_5555 & _PLANE_MASK for dbp in dbps)
    planes = [(b, p) for dbx in dbxs for b, p in enumerate(dbx)]
    assert {b for b, p in planes if p == _PLANE_MASK} >= {0, 4, 31}
    for pattern in (1, 1 << 30, 0b11, 0b11 << 29):
        assert any(p == pattern for _, p in planes), pattern
    assert any(
        dbx[b] != 0 and dbp[b] == 0
        for dbp, dbx in zip(dbps, dbxs)
        for b in range(33)
    )
    runs = {run for dbx in dbxs for run in _zero_runs(dbx)}
    assert runs >= {1, 2, 3, 33}


@pytest.mark.parametrize("size", [1, 2, 31, 33, 1000, _CHUNK_BLOCKS + 1])
def test_adversarial_batches_match_scalar(size):
    rng = np.random.default_rng(size)
    pool = ADVERSARIAL_BLOCKS + list(
        rng.integers(0, 2**32, (8, WORDS_PER_ENTRY), dtype=np.uint64).astype(np.uint32)
    )
    expected_pool = np.array([BPC.compressed_size(block) for block in pool])
    # Stream lengths too: a one-bit error need not change a byte size.
    expected_bits = np.array([BPC.encode(block).bit_length for block in pool])
    picks = rng.integers(0, len(pool), size)
    batch = np.stack([pool[i] for i in picks])
    np.testing.assert_array_equal(BPC.compressed_sizes(batch), expected_pool[picks])
    # encode stores an entry raw (1 + 1024 bits) once coding is no shorter.
    bits = np.minimum(BPC._stream_bits_vectorised(batch), 1 + 8 * MEMORY_ENTRY_BYTES)
    np.testing.assert_array_equal(bits, expected_bits[picks])


class TestBulkPlanes:
    @given(
        st.lists(st.one_of(blocks_strategy, structured_blocks), min_size=1, max_size=40)
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_scalar_planes(self, blocks):
        planes = _bulk_planes(np.stack(blocks))
        assert planes.shape == (len(blocks), 33)
        assert planes.dtype == np.uint32
        for row, block in zip(planes, blocks):
            assert [int(p) for p in row] == _dbp_planes(block)

    def test_adversarial_rows_and_borrow_plane(self):
        planes = _bulk_planes(np.stack(ADVERSARIAL_BLOCKS))
        for row, block in zip(planes, ADVERSARIAL_BLOCKS):
            assert [int(p) for p in row] == _dbp_planes(block)
        # Alternating 0 / 0xFFFFFFFF: every odd delta is negative.
        alternating = np.tile(np.array([0, 0xFFFF_FFFF], dtype=np.uint32), 16)
        assert int(_bulk_planes(alternating[None])[0, 32]) == 0x2AAA_AAAA


class TestInputSafety:
    @staticmethod
    def _blocks() -> np.ndarray:
        rng = np.random.default_rng(5)
        blocks = rng.integers(0, 1 << 12, (257, WORDS_PER_ENTRY), dtype=np.uint32)
        blocks[: len(ADVERSARIAL_BLOCKS)] = np.stack(ADVERSARIAL_BLOCKS)
        return blocks

    def test_caller_array_unchanged(self):
        blocks = self._blocks()
        before = blocks.tobytes()
        BPC.compressed_sizes(blocks)
        assert blocks.tobytes() == before

    def test_non_contiguous_view(self):
        view = self._blocks()[::2]
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(
            BPC.compressed_sizes(view),
            BPC.compressed_sizes(np.ascontiguousarray(view)),
        )

    def test_read_only_array(self):
        blocks = self._blocks()
        expected = BPC.compressed_sizes(blocks.copy())
        blocks.setflags(write=False)
        np.testing.assert_array_equal(BPC.compressed_sizes(blocks), expected)


class TestTransforms:
    def test_dbp_plane_count(self):
        planes = _dbp_planes(np.arange(32, dtype=np.uint32))
        assert len(planes) == 33

    def test_ramp_has_constant_deltas(self):
        """Uniform deltas make every DBX plane zero except possibly one."""
        planes = _dbp_planes(np.arange(32, dtype=np.uint32))
        dbx = _dbx_planes(planes)
        nonzero = [p for p in dbx if p != 0]
        assert len(nonzero) <= 1

    def test_two_consecutive_ones_detector(self):
        assert _is_two_consecutive_ones(0b11)
        assert _is_two_consecutive_ones(0b1100)
        assert not _is_two_consecutive_ones(0b101)
        assert not _is_two_consecutive_ones(0b1)
        assert not _is_two_consecutive_ones(0)
        assert not _is_two_consecutive_ones(0b111)
