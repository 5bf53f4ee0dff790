"""Vectorized batched-event core for the dependency-driven simulator.

The legacy engine (:mod:`repro.gpusim.simulator`) resolves every
instruction with a stack of Python method calls — heap pop, sector
mask arithmetic, ``OrderedDict`` cache probes, per-access
``CompressionState`` lookups, DRAM channel decomposition.  Profiling
shows those per-access recomputations dominating the Fig. 10/11 hot
path, yet almost all of them are static for a given ``(trace, state,
machine)``: the address never changes, so neither do the sector mask,
the cache set, the DRAM channel/row/bank, the metadata line, the
compressed transfer sizes or the per-hop service times.

This engine therefore splits the simulation into:

1. **Columnar resolution** — every per-access quantity is computed
   for the *whole trace at once* with array operations over the
   :class:`ColumnarTrace` columns and the :class:`CompressionState`
   entry tables
   (:meth:`~repro.gpusim.compression.CompressionState.device_transfer_bytes_table`
   /
   :meth:`~repro.gpusim.compression.CompressionState.buddy_transfer_bytes_table`),
   using the batched geometry helpers (:meth:`ChannelSet.decompose`,
   :meth:`VectorSectoredCache.decompose`).  Trace/machine geometry
   (:func:`_geometry_columns`) is shared by every compression state;
   the per-state tables (:func:`_state_columns`) are shared by every
   link bandwidth — so the Fig. 11 sweep resolves each benchmark's
   accesses once, not once per design point.  Everything is kept as
   flat C-contiguous ``int64``/``float64`` columns.
2. **An event core** (:mod:`repro.gpusim._event_core`) that advances
   ready warps in the *exact* ``(ready time, sequence)`` order of the
   legacy scheduler over those flat columns.  Cache, DRAM and
   interconnect state transitions are inherently order-dependent, so
   each round's accesses resolve sequentially — but all the
   per-access *derivation* already happened in step 1.  The core has
   two interchangeable implementations behind one interface: an
   always-available pure-Python loop and an optional compiled C
   extension (``_event_core_ext``) that is bit-identical to it (see
   the module docstring of :mod:`repro.gpusim._event_core` for the
   selection rules and ``REPRO_NO_EXT``).

The result is the oracle contract the studies rely on: identical
integer traffic counters (``dram_bytes``, ``link_bytes``, fills, hit
counts) and bit-identical cycle counts to the legacy engine, at a
fraction of the wall-clock (``bench_fig11_performance.py`` pins the
speedup; ``tests/test_vector_sim.py`` pins the equivalence and
``tests/test_event_core.py`` pins compiled == pure-Python).

Why the columns are layered the way they are
--------------------------------------------

The resolution tables deliberately split along reuse boundaries:

* :func:`_geometry_columns` depends only on ``(trace, machine
  geometry)`` — addresses, sector masks, cache sets, DRAM
  channel/row/bank coordinates, metadata-line slots.  Every
  compression state of a trace shares one copy, because compression
  never moves an access, it only changes how many bytes the access
  transfers.
* :func:`_state_columns` adds the per-``CompressionState`` tables —
  compressed device/buddy transfer sizes and the per-hop service
  times derived from them.  These are keyed without the interconnect
  (:func:`_machine_key`): link bandwidth only scales the runtime
  divisions inside the event core, so one per-state resolution
  serves the whole Fig. 11 link sweep.
"""

from __future__ import annotations

import weakref
from dataclasses import replace

import numpy as np

from repro.core.metadata_cache import MetadataCache
from repro.gpusim import _event_core
from repro.gpusim.compression import CompressionMode, CompressionState
from repro.gpusim.config import GPUConfig
from repro.gpusim.dram import (
    BANKS_PER_CHANNEL,
    ROW_BYTES,
    ROW_HIT_OVERHEAD,
    ROW_MISS_OVERHEAD,
    ChannelSet,
)
from repro.gpusim.interconnect import TRANSACTION_OVERHEAD_BYTES
from repro.gpusim.trace import KernelTrace, Op
from repro.gpusim.vector_cache import VectorSectoredCache
from repro.units import (
    ENTRIES_PER_METADATA_LINE,
    MEMORY_ENTRY_BYTES,
    METADATA_LINE_BYTES,
    SECTOR_BYTES,
    SECTORS_PER_ENTRY,
)

#: Event codes: compute / local load / local store / host load /
#: host store / local store needing the read-modify-write check.
_COMPUTE, _LOAD, _STORE, _HOST_LOAD, _HOST_STORE, _STORE_RMW = range(6)

#: Dirty-sector population count for 4-bit masks (sectored writebacks).
_POPCOUNT4 = [bin(mask).count("1") for mask in range(16)]

_FULL = (1 << SECTORS_PER_ENTRY) - 1

#: Per-trace column memos.  Values hold their states/configs strongly
#: (keeping ids valid); entries die with their trace.
_GEOMETRY_MEMO: "weakref.WeakKeyDictionary[KernelTrace, dict]" = (
    weakref.WeakKeyDictionary()
)
_STATE_MEMO: "weakref.WeakKeyDictionary[KernelTrace, dict]" = (
    weakref.WeakKeyDictionary()
)


def _machine_key(config: GPUConfig):
    """Machine geometry key: everything except the interconnect.

    Link bandwidth only scales runtime divisions, so one column
    resolution serves the whole Fig. 11 link sweep.
    """
    return replace(config, link=None)


class _Geometry:
    """Per-(trace, machine) columns shared by every compression state.

    Every slot is a flat C-contiguous ``int64``/``float64`` column (or
    a plain int for the cache-shape scalars) — the struct-of-arrays
    pack the event core consumes directly.  ``rows_cache`` is the
    pure-Python core's memo for the transient row tuples it derives
    from these columns (the compiled core reads the arrays in place).
    """

    __slots__ = (
        "codes_ideal", "codes_packed", "busy",
        "lid", "mask", "l1flat", "l2set", "chan", "row", "bank", "count",
        "hbytes", "hnum",
        "mtag", "mslot", "mchan", "mrow", "mbank",
        "warp_start", "warp_sm", "warp_mlp",
        "l1_sets_total", "l1_ways", "l2_sets", "l2_ways",
        "meta_slots", "meta_ways",
        "rows_cache",
    )


class _StateColumns:
    """Per-(trace, state, machine) resolution tables (flat columns)."""

    __slots__ = (
        "codes", "dev", "serv_hit", "serv_miss", "bud", "bnum",
        "entries", "use_meta", "ideal",
        "wb_dev", "wb_serv", "wb_bud", "wb_bnum",
        "wb_ideal_bytes", "wb_ideal_serv",
        "rows_cache",
    )


def _freeze(columns) -> None:
    """Make every array slot read-only.

    The event core validates a geometry or state once and memoises the
    verdict in its ``rows_cache``; frozen columns keep that verdict
    true.
    """
    for name in columns.__slots__:
        value = getattr(columns, name, None)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


def _geometry_columns(trace: KernelTrace, config: GPUConfig) -> _Geometry:
    key = _machine_key(config)
    per_trace = _GEOMETRY_MEMO.get(trace)
    if per_trace is None:
        per_trace = {}
        _GEOMETRY_MEMO[trace] = per_trace
    geometry = per_trace.get(key)
    if geometry is not None:
        return geometry

    col = trace.columnar()
    ops = col.ops.astype(np.int64)
    a = col.a
    b = col.b
    is_mem = ops != int(Op.COMPUTE)
    host_base = (
        trace.footprint_bytes if trace.host_traffic_fraction > 0 else None
    )
    host = (
        (a >= host_base) & is_mem
        if host_base is not None
        else np.zeros(ops.size, dtype=bool)
    )

    # Event codes for the sectored baseline and the compressed modes
    # (the latter mark partial local stores for the RMW check).
    codes_ideal = ops.copy()
    codes_ideal[host & (ops == int(Op.LOAD))] = _HOST_LOAD
    codes_ideal[host & (ops == int(Op.STORE))] = _HOST_STORE
    codes_packed = codes_ideal.copy()
    codes_packed[
        (ops == int(Op.STORE)) & (b < SECTORS_PER_ENTRY) & ~host
    ] = _STORE_RMW

    # Address geometry: line ids, sector masks, cache sets, DRAM
    # coordinates — one batched decompose per trace.
    lid = a // MEMORY_ENTRY_BYTES
    first = (a % MEMORY_ENTRY_BYTES) // SECTOR_BYTES
    count = np.minimum(b, SECTORS_PER_ENTRY - first)
    mask = ((1 << count) - 1) << first
    l1_proto = VectorSectoredCache(
        config.l1_bytes, config.l1_ways, config.line_bytes
    )
    l2_proto = VectorSectoredCache(
        config.l2_bytes, config.l2_ways, config.line_bytes
    )
    _, l1set = l1_proto.decompose(a)
    _, l2set = l2_proto.decompose(a)
    # The owning SM is fixed per warp, so the flat per-(SM, set) L1
    # index resolves at build time too.
    row_counts = np.diff(col.warp_starts)
    row_sm = np.repeat(col.warp_sm.astype(np.int64), row_counts)
    l1flat = row_sm * l1_proto.sets + l1set

    dram = ChannelSet(
        config.dram_channels,
        config.dram_bytes_per_cycle_per_channel,
        config.dram_latency,
        config.line_bytes,
    )
    chan, row, bank = dram.decompose(lid * MEMORY_ENTRY_BYTES)

    def _i64(column):
        return np.ascontiguousarray(column, dtype=np.int64)

    geometry = _Geometry()
    geometry.codes_ideal = _i64(codes_ideal)
    geometry.codes_packed = _i64(codes_packed)
    geometry.busy = np.ascontiguousarray(
        np.where(is_mem, 0, a).astype(np.float64) * config.issue_interval
    )
    geometry.lid = _i64(lid)
    geometry.mask = _i64(mask)
    geometry.l1flat = _i64(l1flat)
    geometry.l2set = _i64(l2set)
    geometry.chan = _i64(chan)
    geometry.row = _i64(row)
    geometry.bank = _i64(bank)
    geometry.count = count

    if host_base is not None:
        hbytes = b * SECTOR_BYTES
        geometry.hbytes = _i64(hbytes)
        geometry.hnum = _i64(hbytes + TRANSACTION_OVERHEAD_BYTES)
    else:
        geometry.hbytes = geometry.hnum = None

    # Metadata line geometry (consumed by BUDDY states only).
    meta = MetadataCache(
        config.metadata_cache_bytes,
        config.metadata_cache_ways,
        config.metadata_cache_slices,
    )
    meta_line = lid // ENTRIES_PER_METADATA_LINE
    mslice = meta_line % meta.slices
    mset = (meta_line // meta.slices) % meta.sets_per_slice
    geometry.mslot = _i64(mslice * meta.sets_per_slice + mset)
    geometry.mtag = _i64(meta_line // (meta.slices * meta.sets_per_slice))
    mchan, mrow, mbank = dram.decompose(meta_line * METADATA_LINE_BYTES)
    geometry.mchan = _i64(mchan)
    geometry.mrow = _i64(mrow)
    geometry.mbank = _i64(mbank)

    # Warp cursors and cache shapes (the event core builds its own
    # stamp tables; only the geometry crosses the boundary).
    geometry.warp_start = _i64(col.warp_starts)
    geometry.warp_sm = _i64(col.warp_sm)
    geometry.warp_mlp = _i64(col.warp_mlp)
    geometry.l1_sets_total = config.sm_count * l1_proto.sets
    geometry.l1_ways = l1_proto.ways
    geometry.l2_sets = l2_proto.sets
    geometry.l2_ways = l2_proto.ways
    geometry.meta_slots = meta.slices * meta.sets_per_slice
    geometry.meta_ways = meta.ways
    geometry.rows_cache = {}
    _freeze(geometry)

    per_trace[key] = geometry
    return geometry


def _state_columns(
    trace: KernelTrace, state: CompressionState, config: GPUConfig
) -> tuple[_Geometry, _StateColumns]:
    key = (id(state), _machine_key(config))
    per_trace = _STATE_MEMO.get(trace)
    if per_trace is None:
        per_trace = {}
        _STATE_MEMO[trace] = per_trace
    hit = per_trace.get(key)
    if hit is not None and hit[0] is state:
        return hit[1], hit[2]

    geometry = _geometry_columns(trace, config)
    mode = state.mode
    ideal = mode is CompressionMode.IDEAL
    use_meta = mode is CompressionMode.BUDDY
    chan_bpc = config.dram_bytes_per_cycle_per_channel

    entries = state.entries
    entry = geometry.lid % entries
    dev_table = state.device_transfer_bytes_table()
    buddy_table = state.buddy_transfer_bytes_table()
    if ideal:
        dev = geometry.count * SECTOR_BYTES  # sectored fill
    else:
        dev = np.take(dev_table, entry)
    serv = dev / chan_bpc

    columns = _StateColumns()
    columns.codes = (
        geometry.codes_ideal if ideal else geometry.codes_packed
    )
    columns.entries = entries
    columns.use_meta = use_meta
    columns.ideal = ideal
    columns.dev = np.ascontiguousarray(dev, dtype=np.int64)
    columns.serv_hit = np.ascontiguousarray(serv + ROW_HIT_OVERHEAD)
    columns.serv_miss = np.ascontiguousarray(serv + ROW_MISS_OVERHEAD)
    if use_meta:
        bud = np.take(buddy_table, entry)
        columns.bud = np.ascontiguousarray(bud, dtype=np.int64)
        columns.bnum = np.ascontiguousarray(
            bud + TRANSACTION_OVERHEAD_BYTES, dtype=np.int64
        )
    else:
        columns.bud = columns.bnum = None

    # Writeback tables: per-entry for the compressed modes, dirty-mask
    # indexed for the sectored IDEAL baseline.
    if ideal:
        wb_bytes = np.array(
            [
                _POPCOUNT4[m] * SECTOR_BYTES
                for m in range(1 << SECTORS_PER_ENTRY)
            ],
            dtype=np.int64,
        )
        columns.wb_ideal_bytes = wb_bytes
        columns.wb_ideal_serv = wb_bytes / chan_bpc
        columns.wb_dev = columns.wb_serv = None
        columns.wb_bud = columns.wb_bnum = None
    else:
        columns.wb_ideal_bytes = columns.wb_ideal_serv = None
        columns.wb_dev = np.ascontiguousarray(dev_table, dtype=np.int64)
        columns.wb_serv = np.ascontiguousarray(dev_table / chan_bpc)
        columns.wb_bud = np.ascontiguousarray(buddy_table, dtype=np.int64)
        columns.wb_bnum = np.ascontiguousarray(
            buddy_table + TRANSACTION_OVERHEAD_BYTES, dtype=np.int64
        )
    columns.rows_cache = {}
    _freeze(columns)
    per_trace[key] = (state, geometry, columns)
    return geometry, columns


def _pack(config: GPUConfig, trace: KernelTrace, state: CompressionState):
    """The :func:`~repro.gpusim._event_core.run_exact` arguments of one run.

    The one column-resolution path: single runs and batches both build
    their packs here, from the memoised geometry and state columns.
    """
    geometry, columns = _state_columns(trace, state, config)
    ideal = columns.ideal
    use_meta = columns.use_meta

    chan_bpc = config.dram_bytes_per_cycle_per_channel
    fill_tail = (
        0 if ideal else config.decompression_latency
    ) + config.l2_latency
    meta_serv = METADATA_LINE_BYTES / chan_bpc
    warp_count = geometry.warp_sm.shape[0]

    arrays = (
        columns.codes, geometry.busy,
        geometry.lid, geometry.mask, geometry.l1flat, geometry.l2set,
        geometry.chan, geometry.row, geometry.bank,
        columns.dev, columns.serv_hit, columns.serv_miss,
        columns.bud, columns.bnum,
        geometry.hbytes, geometry.hnum,
        geometry.mtag, geometry.mslot,
        geometry.mchan, geometry.mrow, geometry.mbank,
        columns.wb_dev, columns.wb_serv,
        columns.wb_bud, columns.wb_bnum,
        columns.wb_ideal_bytes, columns.wb_ideal_serv,
        geometry.warp_start, geometry.warp_sm, geometry.warp_mlp,
    )
    iscalars = (
        warp_count, config.sm_count,
        config.dram_channels, BANKS_PER_CHANNEL,
        config.line_bytes, ROW_BYTES, columns.entries,
        geometry.l1_sets_total, geometry.l1_ways,
        geometry.l2_sets, geometry.l2_ways,
        geometry.meta_slots, geometry.meta_ways,
        int(ideal), int(use_meta), _FULL, METADATA_LINE_BYTES,
    )
    fscalars = (
        config.issue_interval,
        float(config.l1_latency),
        float(config.l2_latency),
        float(config.dram_latency),
        config.link.bytes_per_cycle(config.clock_hz),
        float(config.link.latency_cycles),
        float(fill_tail),
        meta_serv + ROW_HIT_OVERHEAD,
        meta_serv + ROW_MISS_OVERHEAD,
        ROW_HIT_OVERHEAD,
        ROW_MISS_OVERHEAD,
    )
    return arrays, iscalars, fscalars, geometry.rows_cache, columns.rows_cache


def _result(trace: KernelTrace, state: CompressionState, counters):
    """The :class:`~repro.gpusim.simulator.SimResult` of one counter tuple."""
    from repro.gpusim.simulator import SimResult

    (
        cycles, l1_hits, l1_misses, l2_hits, l2_misses, dram_bytes,
        link_read_bytes, link_write_bytes, meta_hits, meta_misses,
        buddy_fills, demand_fills,
    ) = counters

    l1_total = l1_hits + l1_misses
    l2_total = l2_hits + l2_misses
    meta_total = meta_hits + meta_misses
    return SimResult(
        benchmark=trace.benchmark,
        mode=state.mode.value,
        cycles=cycles,
        instructions=trace.instruction_count,
        l1_hit_rate=l1_hits / l1_total if l1_total else 0.0,
        l2_hit_rate=l2_hits / l2_total if l2_total else 0.0,
        dram_bytes=dram_bytes,
        link_bytes=link_read_bytes + link_write_bytes,
        metadata_hit_rate=meta_hits / meta_total if meta_total else 0.0,
        buddy_fills=buddy_fills,
        demand_fills=demand_fills,
    )


def run_many(jobs):
    """Simulate ``(config, trace, state)`` jobs; results in job order.

    Each job's pack is resolved as the event core asks for it, so the
    next job's columns resolve while earlier ones simulate (see
    :func:`repro.gpusim._event_core.run_exact_many`).  The results are
    those of ``VectorizedSimulator(config).run(trace, state)``.
    """
    jobs = list(jobs)
    counters = _event_core.run_exact_many(_pack(*job) for job in jobs)
    return [
        _result(trace, state, result)
        for (_, trace, state), result in zip(jobs, counters)
    ]


class VectorizedSimulator:
    """The batched-event engine behind ``engine="vectorized"``."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config

    def run(self, trace: KernelTrace, state: CompressionState):
        """Simulate a kernel trace under a compression state.

        Returns a :class:`repro.gpusim.simulator.SimResult` whose
        traffic counters are identical to the legacy engine's and
        whose cycle count is bit-identical.
        """
        counters = _event_core.run_exact(*_pack(self.config, trace, state))
        return _result(trace, state, counters)
