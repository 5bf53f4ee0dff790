"""Warp-instruction trace intermediate representation.

The paper drives its simulator with SASS traces of 1–9 billion warp
instructions; we use the same shape at reduced length.  A trace is a
set of per-warp instruction streams over three operations:

* ``COMPUTE n`` — n back-to-back arithmetic instructions;
* ``LOAD addr sectors`` — a coalesced global load touching
  ``sectors`` 32 B sectors of the 128 B line at ``addr``;
* ``STORE addr sectors`` — a global store (fire-and-forget through
  the write buffer).

Traces carry two interchangeable representations of the same streams:

* :class:`ColumnarTrace` — structured NumPy arrays (op codes,
  operands, CSR warp offsets, per-warp SM ids and MLP limits).  This
  is what the trace generator emits and what the vectorized simulator
  consumes; per-access quantities are derived from it with whole-array
  operations instead of per-instruction Python work.
* per-warp ``(op, a, b)`` tuple lists (:class:`WarpTrace`) — the
  legacy representation the per-access oracle engine walks.  It is
  materialised lazily from the columns, so a run confined to the
  columnar consumers (the vectorized engine, the cycle-stepped
  reference, the metadata study) never builds a single tuple; :data:`tuple_materialisations` counts every decode so tests
  can pin that property.

Both views decode to identical instruction streams; the equivalence
tests pin this.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Op(enum.IntEnum):
    COMPUTE = 0
    LOAD = 1
    STORE = 2


#: Per-process count of columnar-to-tuple decodes.  The columnar
#: consumers must never bump it; tests pin the counter the same way
#: ``repro.core.profiler.bulk_compression_call_count`` pins the
#: one-bulk-call profiling contract.
tuple_materialisations = 0


@dataclass
class WarpTrace:
    """One warp's instruction stream.

    Attributes:
        sm: Home SM index.
        instructions: List of ``(op, operand_a, operand_b)`` tuples:
            ``(COMPUTE, n, 0)``, ``(LOAD, address, sectors)`` or
            ``(STORE, address, sectors)``.
        max_outstanding: Loads in flight before the warp stalls —
            the memory-level parallelism the kernel's independent
            instructions allow (latency-sensitive kernels have 1).
    """

    sm: int
    instructions: list[tuple[int, int, int]]
    max_outstanding: int = 4

    @property
    def instruction_count(self) -> int:
        return sum(
            instr[1] if instr[0] == Op.COMPUTE else 1
            for instr in self.instructions
        )


@dataclass
class ColumnarTrace:
    """All warps' instruction streams as structured NumPy arrays.

    Attributes:
        ops: ``(n,)`` int8 op codes (:class:`Op` values) over every
            instruction row of every warp, concatenated in warp order.
        a: ``(n,)`` int64 first operands (compute run length or byte
            address).
        b: ``(n,)`` int64 second operands (0 or sector count).
        warp_starts: ``(w + 1,)`` int64 CSR offsets: warp ``i`` owns
            rows ``warp_starts[i]:warp_starts[i + 1]``.
        warp_sm: ``(w,)`` int32 home SM per warp.
        warp_mlp: ``(w,)`` int32 ``max_outstanding`` per warp.
    """

    ops: np.ndarray
    a: np.ndarray
    b: np.ndarray
    warp_starts: np.ndarray
    warp_sm: np.ndarray
    warp_mlp: np.ndarray

    @property
    def warp_count(self) -> int:
        return int(self.warp_sm.size)

    @property
    def instruction_count(self) -> int:
        compute = self.ops == int(Op.COMPUTE)
        return int(self.a[compute].sum() + np.count_nonzero(~compute))

    @property
    def memory_instruction_count(self) -> int:
        return int(np.count_nonzero(self.ops != int(Op.COMPUTE)))

    @classmethod
    def from_warps(cls, warps: list[WarpTrace]) -> "ColumnarTrace":
        rows = [np.array(w.instructions, dtype=np.int64).reshape(-1, 3)
                for w in warps]
        lengths = np.array([r.shape[0] for r in rows], dtype=np.int64)
        stacked = (
            np.concatenate(rows, axis=0)
            if rows else np.empty((0, 3), dtype=np.int64)
        )
        starts = np.zeros(len(warps) + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        return cls(
            ops=stacked[:, 0].astype(np.int8),
            a=stacked[:, 1].copy(),
            b=stacked[:, 2].copy(),
            warp_starts=starts,
            warp_sm=np.array([w.sm for w in warps], dtype=np.int32),
            warp_mlp=np.array(
                [w.max_outstanding for w in warps], dtype=np.int32
            ),
        )

    def materialise_warps(self) -> list[WarpTrace]:
        """Decode the columns back into per-warp tuple lists."""
        global tuple_materialisations
        tuple_materialisations += 1
        ops = self.ops.tolist()
        a = self.a.tolist()
        b = self.b.tolist()
        starts = self.warp_starts.tolist()
        sms = self.warp_sm.tolist()
        mlps = self.warp_mlp.tolist()
        warps = []
        for w in range(self.warp_count):
            lo, hi = starts[w], starts[w + 1]
            instructions = [
                (ops[i], a[i], b[i]) for i in range(lo, hi)
            ]
            warps.append(
                WarpTrace(sms[w], instructions, max_outstanding=mlps[w])
            )
        return warps


class KernelTrace:
    """A traced kernel: all warps plus address-space metadata.

    Holds either representation (or both); each converts to the other
    on first use and is cached.  Construct with ``warps`` (the legacy
    path, used by unit tests building streams by hand) or with
    ``columnar`` (the generator's native output).
    """

    def __init__(
        self,
        benchmark: str,
        warps: list[WarpTrace] | None = None,
        footprint_bytes: int = 0,
        allocation_ranges: dict[str, tuple[int, int]] | None = None,
        host_traffic_fraction: float = 0.0,
        columnar: ColumnarTrace | None = None,
    ) -> None:
        if warps is None and columnar is None:
            raise ValueError("KernelTrace needs warps or columnar data")
        self.benchmark = benchmark
        self.footprint_bytes = footprint_bytes
        #: Address ranges per allocation: name -> (start, end) offsets.
        self.allocation_ranges = dict(allocation_ranges or {})
        #: Fraction of accesses that natively target host memory
        #: (FF_HPGMG's synchronous copies) — served over the link even
        #: without compression.
        self.host_traffic_fraction = host_traffic_fraction
        self._warps = warps
        self._columnar = columnar

    # -- representations ----------------------------------------------
    @property
    def warps(self) -> list[WarpTrace]:
        """Per-warp tuple lists (legacy/reference engines)."""
        if self._warps is None:
            self._warps = self._columnar.materialise_warps()
        return self._warps

    def columnar(self) -> ColumnarTrace:
        """Structured-array view (vectorized engine)."""
        if self._columnar is None:
            self._columnar = ColumnarTrace.from_warps(self._warps)
        return self._columnar

    # -- summary properties -------------------------------------------
    @property
    def warp_count(self) -> int:
        if self._columnar is not None:
            return self._columnar.warp_count
        return len(self._warps)

    @property
    def instruction_count(self) -> int:
        return self.columnar().instruction_count

    @property
    def memory_instruction_count(self) -> int:
        return self.columnar().memory_instruction_count

    def allocation_of(self, address: int) -> str:
        """Name of the allocation owning a byte address."""
        for name, (start, end) in self.allocation_ranges.items():
            if start <= address < end:
                return name
        raise KeyError(f"address {address:#x} outside all allocations")
