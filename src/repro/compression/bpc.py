"""Bit-Plane Compression (BPC), after Kim et al., ISCA 2016.

BPC is the codec Buddy Compression builds on.  For one 128 B
memory-entry (32 little-endian ``uint32`` words) it:

1. keeps the first word as the *base* and takes 31 consecutive deltas
   (33-bit signed values);
2. transposes the deltas into 33 *delta bit-planes* (DBP), each a
   31-bit symbol;
3. XORs adjacent planes (DBX transform): ``DBX[b] = DBP[b] ^ DBP[b+1]``
   with the top plane passed through;
4. encodes the base word and each DBX plane with a short prefix-free
   code exploiting the frequent all-zero / all-one / single-one plane
   patterns that homogeneous GPU data produces.

Two paths are provided:

* :meth:`BPCCompressor.encode` / :meth:`BPCCompressor.decode` — a
  bit-exact scalar codec, property-tested for roundtrip fidelity.
* :meth:`BPCCompressor.compressed_sizes` — a vectorised size-only
  path (what every snapshot study consumes), property-tested for
  equality with the scalar encoder.  It works on 4096 blocks at a time
  in plane-major order: the 31 deltas are wrapping ``uint32``
  subtractions into a private ``(33, 4096)`` uint32 array, a 32×32
  bit-matrix transpose (five masked shift/xor stages, Hacker's Delight
  §7-3) turns them into planes 0–31, and plane 32 is the subtraction's
  borrow.  The per-plane cost table is ``uint8`` and zero runs are
  counted by popcount on a packed 33-bit zero-plane mask, so the
  temporaries of a pass total a few MB whatever the batch size.

Code table for DBX planes (prefix-free):

=====================  ==========================  =====
Plane pattern          Code                        Bits
=====================  ==========================  =====
run of 2–33 zeros      ``001`` + 5-bit (run − 2)   8
single zero plane      ``01``                      2
all ones               ``00000``                   5
DBX ≠ 0 but DBP = 0    ``00001``                   5
two consecutive ones   ``00010`` + 5-bit position  10
single one             ``00011`` + 5-bit position  10
uncompressed           ``1`` + 31 raw bits         32
=====================  ==========================  =====

Base-word code: ``000`` for zero, ``001``/``010``/``011`` + 4/8/16-bit
sign-extended payloads, ``1`` + 32 raw bits otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedBlock, CompressionAlgorithm, as_blocks
from repro.compression.bitio import BitReader, BitWriter
from repro.units import MEMORY_ENTRY_BYTES, WORDS_PER_ENTRY

_NUM_DELTAS = WORDS_PER_ENTRY - 1  # 31
_NUM_PLANES = 33  # 33-bit deltas -> 33 bit-planes
_PLANE_MASK = (1 << _NUM_DELTAS) - 1  # 31-bit planes
_DELTA_MASK = (1 << _NUM_PLANES) - 1  # 33-bit two's-complement deltas
_RAW_BITS = MEMORY_ENTRY_BYTES * 8  # 1024

# Stages of the 32x32 bit-matrix transpose: (sub-block width, mask of
# the low sub-block's bits in each word).
_TRANSPOSE_STAGES = (
    (16, 0x0000FFFF),
    (8, 0x00FF00FF),
    (4, 0x0F0F0F0F),
    (2, 0x33333333),
    (1, 0x55555555),
)
# Blocks per pass of the size-only kernel: its plane-major uint32 and
# uint8 temporaries (about 0.5 MB each) then stay in a core's cache.
_CHUNK_BLOCKS = 4096

# Base-word payload widths for the sign-extended classes.
_BASE_CLASSES = ((0b001, 4), (0b010, 8), (0b011, 16))


def _signed_fits(value: int, bits: int) -> bool:
    """Whether a signed integer fits in ``bits`` two's-complement bits."""
    bound = 1 << (bits - 1)
    return -bound <= value < bound


def _dbp_planes(words: np.ndarray) -> list[int]:
    """Compute the 33 delta bit-planes of one entry as Python ints."""
    values = [int(w) for w in words]
    deltas = [
        (values[i + 1] - values[i]) & _DELTA_MASK for i in range(_NUM_DELTAS)
    ]
    planes = []
    for bit in range(_NUM_PLANES):
        plane = 0
        for j, delta in enumerate(deltas):
            plane |= ((delta >> bit) & 1) << j
        planes.append(plane)
    return planes


def _dbx_planes(dbp: list[int]) -> list[int]:
    """XOR-transform adjacent planes; the top plane passes through."""
    dbx = [dbp[b] ^ dbp[b + 1] for b in range(_NUM_PLANES - 1)]
    dbx.append(dbp[_NUM_PLANES - 1])
    return dbx


def _is_two_consecutive_ones(plane: int) -> bool:
    """True when the plane has exactly two set bits and they are adjacent."""
    if plane == 0:
        return False
    low = plane & -plane
    return plane == (low | (low << 1))


class BPCCompressor(CompressionAlgorithm):
    """Bit-Plane Compression codec for 128 B memory-entries."""

    name = "bpc"

    # ------------------------------------------------------------------
    # Exact scalar codec
    # ------------------------------------------------------------------
    def encode(self, words: np.ndarray) -> CompressedBlock:
        """Encode one entry to a bitstream (falls back to raw storage).

        If the compressed stream would be at least as large as the raw
        1024 bits, the entry is stored raw with a leading ``1`` flag
        (real hardware records the raw/compressed choice in the 4-bit
        size metadata; the in-stream flag keeps this codec
        self-contained for testing).
        """
        words = np.asarray(words, dtype=np.uint32).reshape(WORDS_PER_ENTRY)
        writer = BitWriter()
        writer.write(0, 1)  # compressed-stream flag
        self._encode_base(writer, int(words[0]))
        dbp = _dbp_planes(words)
        dbx = _dbx_planes(dbp)
        self._encode_planes(writer, dbp, dbx)
        if writer.bit_length >= 1 + _RAW_BITS:
            raw = BitWriter()
            raw.write(1, 1)  # raw flag
            for word in words:
                raw.write(int(word), 32)
            writer = raw
        return CompressedBlock(self.name, writer.to_bytes(), writer.bit_length)

    def decode(self, block: CompressedBlock) -> np.ndarray:
        """Decode a stream produced by :meth:`encode` back to 32 words."""
        if block.algorithm != self.name:
            raise ValueError(f"cannot decode {block.algorithm!r} stream with BPC")
        reader = BitReader(block.bits, block.bit_length)
        if reader.read(1):  # raw entry
            return np.array(
                [reader.read(32) for _ in range(WORDS_PER_ENTRY)], dtype=np.uint32
            )
        base = self._decode_base(reader)
        dbx = self._decode_planes(reader)
        dbp = [0] * _NUM_PLANES
        dbp[_NUM_PLANES - 1] = dbx[_NUM_PLANES - 1]
        for bit in range(_NUM_PLANES - 2, -1, -1):
            if dbx[bit] is _DBP_ZERO:
                dbp[bit] = 0
            else:
                dbp[bit] = dbx[bit] ^ dbp[bit + 1]
        deltas = []
        for j in range(_NUM_DELTAS):
            delta = 0
            for bit in range(_NUM_PLANES):
                delta |= ((dbp[bit] >> j) & 1) << bit
            if delta >> (_NUM_PLANES - 1):  # sign-extend 33-bit value
                delta -= 1 << _NUM_PLANES
            deltas.append(delta)
        words = [base]
        for delta in deltas:
            words.append((words[-1] + delta) & 0xFFFF_FFFF)
        return np.array(words, dtype=np.uint32)

    def compressed_size(self, words: np.ndarray) -> int:
        """Compressed size in bytes of one entry (capped at 128)."""
        return min(self.encode(words).size_bytes, MEMORY_ENTRY_BYTES)

    # ------------------------------------------------------------------
    # Vectorised size-only path
    # ------------------------------------------------------------------
    def compressed_sizes(self, blocks: np.ndarray) -> np.ndarray:
        """Sizes in bytes for ``(n, 32)`` uint32 blocks, vectorised.

        Matches the scalar encoder bit for bit (property-tested), but
        runs orders of magnitude faster, which makes the multi-snapshot
        studies tractable in Python.
        """
        blocks = as_blocks(blocks)
        if blocks.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        bits = self._stream_bits_vectorised(blocks)
        sizes = (bits + 7) // 8
        return np.minimum(sizes, MEMORY_ENTRY_BYTES).astype(np.int64)

    # -- scalar helpers -------------------------------------------------
    def _encode_base(self, writer: BitWriter, word: int) -> None:
        signed = word - (1 << 32) if word >> 31 else word
        if signed == 0:
            writer.write(0b000, 3)
            return
        for code, width in _BASE_CLASSES:
            if _signed_fits(signed, width):
                writer.write(code, 3)
                writer.write(signed & ((1 << width) - 1), width)
                return
        writer.write(1, 1)
        writer.write(word, 32)

    def _decode_base(self, reader: BitReader) -> int:
        if reader.read(1):
            return reader.read(32)
        code = reader.read(2)
        if code == 0b00:
            return 0
        width = {0b01: 4, 0b10: 8, 0b11: 16}[code]
        payload = reader.read(width)
        if payload >> (width - 1):  # sign-extend
            payload -= 1 << width
        return payload & 0xFFFF_FFFF

    def _encode_planes(
        self, writer: BitWriter, dbp: list[int], dbx: list[int]
    ) -> None:
        bit = _NUM_PLANES - 1
        while bit >= 0:
            plane = dbx[bit]
            if plane == 0:
                run = 1
                while bit - run >= 0 and dbx[bit - run] == 0:
                    run += 1
                if run >= 2:
                    writer.write(0b001, 3)
                    writer.write(run - 2, 5)
                else:
                    writer.write(0b01, 2)
                bit -= run
                continue
            if plane == _PLANE_MASK:
                writer.write(0b00000, 5)
            elif dbp[bit] == 0:
                writer.write(0b00001, 5)
            elif _is_two_consecutive_ones(plane):
                writer.write(0b00010, 5)
                writer.write((plane & -plane).bit_length() - 1, 5)
            elif plane & (plane - 1) == 0:  # single one
                writer.write(0b00011, 5)
                writer.write(plane.bit_length() - 1, 5)
            else:
                writer.write(1, 1)
                writer.write(plane, _NUM_DELTAS)
            bit -= 1

    def _decode_planes(self, reader: BitReader) -> list[object]:
        """Decode DBX planes top-down; ``_DBP_ZERO`` marks DBP==0 planes."""
        planes: list[object] = [None] * _NUM_PLANES
        bit = _NUM_PLANES - 1
        while bit >= 0:
            if reader.read(1):  # raw plane
                planes[bit] = reader.read(_NUM_DELTAS)
                bit -= 1
                continue
            if reader.read(1):  # '01' single zero plane
                planes[bit] = 0
                bit -= 1
                continue
            if reader.read(1):  # '001' zero run
                run = reader.read(5) + 2
                for _ in range(run):
                    planes[bit] = 0
                    bit -= 1
                continue
            code = reader.read(2)
            if code == 0b00:
                planes[bit] = _PLANE_MASK
            elif code == 0b01:
                planes[bit] = _DBP_ZERO
            elif code == 0b10:
                position = reader.read(5)
                planes[bit] = 0b11 << position
            else:
                position = reader.read(5)
                planes[bit] = 1 << position
            bit -= 1
        return planes

    # -- vectorised helpers ----------------------------------------------
    @staticmethod
    def _stream_bits_vectorised(blocks: np.ndarray) -> np.ndarray:
        """Encoded bit count (incl. 1 flag bit) per block, before capping.

        Runs :func:`_chunk_stream_bits` on ``_CHUNK_BLOCKS`` blocks at a time.
        """
        return np.concatenate(
            [
                _chunk_stream_bits(blocks[start : start + _CHUNK_BLOCKS])
                for start in range(0, blocks.shape[0], _CHUNK_BLOCKS)
            ]
        )


def _bulk_planes(blocks: np.ndarray) -> np.ndarray:
    """The 33 delta bit-planes of ``(n, 32)`` uint32 blocks, ``(n, 33)`` uint32.

    Row ``k`` equals ``_dbp_planes(blocks[k])``.  The result is the
    transposed view of a fresh plane-major ``(33, n)`` array; the
    caller's blocks are only read.
    """
    n = blocks.shape[0]
    words = blocks.T
    planes = np.empty((_NUM_PLANES, n), dtype=np.uint32)
    # The low 32 bits of each 33-bit delta are the wrapping uint32
    # difference.  Row 31 is zero, completing a 32x32 bit matrix whose
    # row i, bit b is bit b of delta i.
    np.subtract(words[1:], words[:-1], out=planes[:_NUM_DELTAS])
    planes[_NUM_DELTAS] = 0
    # Transpose that matrix in place (Hacker's Delight 7-3, LSB-first):
    # each stage swaps the off-diagonal width x width sub-blocks of
    # every 2*width x 2*width block, so plane b, bit i = delta i, bit b.
    square = planes[:WORDS_PER_ENTRY]
    for width, mask in _TRANSPOSE_STAGES:
        pairs = square.reshape(WORDS_PER_ENTRY // (2 * width), 2, width, n)
        low, high = pairs[:, 0], pairs[:, 1]
        swap = low >> width
        swap ^= high
        swap &= mask
        high ^= swap
        swap <<= width
        low ^= swap
    # Plane 32, the delta's sign bit, is the borrow of the subtraction.
    borrow = np.packbits(words[1:] < words[:-1], axis=0, bitorder="little")
    planes[_NUM_PLANES - 1] = np.ascontiguousarray(borrow.T).view("<u4")[:, 0]
    return planes.T


def _chunk_stream_bits(blocks: np.ndarray) -> np.ndarray:
    """Encoded bit count per block of one chunk, plane-major throughout."""
    n = blocks.shape[0]
    dbp = _bulk_planes(blocks).T
    dbx = dbp.copy()
    dbx[:-1] ^= dbp[1:]

    # Bits each plane saves against the 32-bit uncompressed code; where
    # several patterns match, the encoder takes the cheapest code.
    low_bit = ~dbx
    low_bit += 1
    low_bit &= dbx
    one_or_two = dbx == low_bit  # a single one (or zero, overridden below)
    one_or_two |= dbx == low_bit * np.uint32(3)  # two consecutive ones
    five_bit = dbp == 0  # the 5-bit codes: DBP == 0 or all ones
    five_bit |= dbx == _PLANE_MASK
    zero = dbx == 0
    saved = one_or_two.view(np.uint8) * np.uint8(32 - 10)
    np.maximum(saved, five_bit.view(np.uint8) * np.uint8(32 - 5), out=saved)
    np.maximum(saved, zero.view(np.uint8) * np.uint8(32), out=saved)
    total = 32 * _NUM_PLANES - saved.sum(axis=0, dtype=np.int64)

    # Zero planes, packed into a 33-bit mask Z: a maximal run of r >= 2
    # zero planes costs 8 bits and a lone zero plane 2.  Each run starts
    # at a set bit of Z & ~(Z << 1); a lone plane also has no zero above.
    zero_bytes = np.zeros((n, 8), dtype=np.uint8)
    zero_bytes[:, :5] = np.packbits(zero, axis=0, bitorder="little").T
    z = zero_bytes.view("<u8")[:, 0]
    starts = z & ~(z << 1)
    lone = starts & ~(z >> 1)
    total += 8 * np.bitwise_count(starts).astype(np.int64)
    total -= 6 * np.bitwise_count(lone).astype(np.int64)

    # Base word: 3 bits for zero, 7/11/19 for the 4/8/16-bit signed
    # classes, 33 raw.  It fits w signed bits when its magnitude (the
    # word, or its complement if negative) is below 2**(w-1).
    base = blocks[:, 0].view(np.int32)
    magnitude = (base ^ (base >> 31)).view(np.uint32)
    base_cost = (
        33
        - 14 * (magnitude < 1 << 15)
        - 8 * (magnitude < 1 << 7)
        - 4 * (magnitude < 1 << 3)
        - 4 * (base == 0)
    )
    return 1 + base_cost + total


#: Sentinel used by the decoder for planes known to have DBP == 0.
class _DBPZeroType:
    """Marker type: the encoder said this plane's DBP is all-zero."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<DBP=0>"


_DBP_ZERO = _DBPZeroType()
