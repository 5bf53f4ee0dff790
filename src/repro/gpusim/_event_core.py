"""Exact-order event core over compacted struct-of-arrays state.

This module is the extraction point of the hot loop of
:mod:`repro.gpusim.vector_sim`: the exact ``(ready, sequence)`` event
scheduler of :class:`~repro.gpusim.vector_sim.VectorizedSimulator`
(:func:`run_exact`).  It operates on **flat arrays only** — the caller
hands over a fixed tuple of C-contiguous ``int64``/``float64`` NumPy
columns plus scalar tuples, and gets back a counter tuple.  No dicts,
tuples-per-row or Python objects cross the boundary, which is what
makes the loop compilable.

Two interchangeable implementations sit behind the same interface:

* the pure-Python fallback in this file — always available, and the
  reference for the contract;
* the optional C extension :mod:`repro.gpusim._event_core_ext`
  (``_event_core_ext.c``, built by ``setup.py build_ext``) — a
  transcription of the fallback using the same IEEE double operations
  in the same order, so counters *and* cycles are bit-identical
  between the two (``tests/test_event_core.py`` pins this; the CI
  ``event-core`` job diffs full study digests).

Pop order is the contract both share: events leave the scheduler in
strict ``(ready, sequence)`` order, where ``sequence`` is unique and
grows by one per executed instruction.  The fallback gets it from
``heapq`` over ``(ready, sequence, warp)`` tuples; the compiled core
from one packed 128-bit key per warp (``ready bits << 64 | sequence
<< 20 | warp``), which orders the same way because every ready time is
a non-negative, non-NaN sum starting at ``+0.0``.  The key's
preconditions are part of the pack validation both cores run before
the loop (:func:`_check_pack`): a malformed pack raises the same
``TypeError`` or ``ValueError`` from either core instead of reading
out of bounds or wrapping an index.

Selection happens once at import: the extension is used when it
imports and its ``ABI`` constant matches :data:`EXT_ABI` (a stale
``.so`` from an older layout is ignored, not trusted).  Setting
``REPRO_NO_EXT=1`` in the environment forces the pure-Python path;
:func:`force_python` forces it temporarily (the benchmark suite uses
it to measure the compiled speedup in one process).

The compiled core releases the GIL while it validates and simulates,
so :func:`run_exact_many` runs independent packs (one Fig. 11 point's
six simulations) on a per-call thread pool as wide as the CPUs this
process may use.  It runs them one after another on the pure-Python
core, on one CPU and inside a ``multiprocessing`` worker, whose pool
already uses the CPUs.  Results come back in input order and are
identical either way, because each pack runs alone on its own state.

Array-pack layout
-----------------

``run_exact`` takes ``(arrays, iscalars, fscalars)``.  ``arrays`` is a
30-tuple indexed by the ``A_*`` constants below; slots that do not
apply to the mode are ``None``.  All per-row columns are ``int64``
except ``busy``/``serv_*`` (``float64``).  ``iscalars`` / ``fscalars``
are indexed by ``I_*`` / ``F_*``.
"""

from __future__ import annotations

import gc
import math
import os
from contextlib import contextmanager
from itertools import repeat

import numpy as np

#: Bump when the array-pack layout or the call contract changes (4: the
#: compiled core validates packs and releases the GIL); a compiled
#: extension whose ``ABI`` constant differs is silently ignored (stale
#: build).
EXT_ABI = 4

_ext = None
_ext_error: str | None = None
_ext_stale = False
if os.environ.get("REPRO_NO_EXT"):
    _ext_error = "disabled by REPRO_NO_EXT"
else:
    try:
        import importlib

        _candidate = importlib.import_module("repro.gpusim._event_core_ext")
    except ImportError as exc:
        _ext_error = f"extension not built ({exc})"
    else:
        if getattr(_candidate, "ABI", None) == EXT_ABI:
            _ext = _candidate
        else:
            _ext_stale = True
            _ext_error = (
                "stale extension build: ABI "
                f"{getattr(_candidate, 'ABI', None)!r} != {EXT_ABI}"
            )

#: Session-scoped override (see :func:`force_python`).
_forced_python = False


def compiled_active() -> bool:
    """Whether calls currently dispatch to the C extension."""
    return _ext is not None and not _forced_python


def describe() -> dict:
    """Attribution record for perf reports (``repro doctor``)."""
    return {
        "event_core": "compiled" if compiled_active() else "python",
        "extension_available": _ext is not None,
        "extension_abi": EXT_ABI,
        "extension_stale": _ext_stale,
        "forced_python": _forced_python or _ext is None,
        "detail": None if _ext is not None else _ext_error,
    }


@contextmanager
def force_python():
    """Temporarily route through the pure-Python implementation.

    Used by the benchmarks to measure compiled-vs-fallback speedups in
    a single process; a no-op when the extension is absent anyway.
    """
    global _forced_python
    previous = _forced_python
    _forced_python = True
    try:
        yield
    finally:
        _forced_python = previous


# -- array-pack indices (mirrored in _event_core_ext.c) ---------------------
(
    A_CODES, A_BUSY, A_LID, A_MASK, A_L1FLAT, A_L2SET,
    A_CHAN, A_ROW, A_BANK,
    A_DEV, A_SERV_HIT, A_SERV_MISS,
    A_BUD, A_BNUM, A_HBYTES, A_HNUM,
    A_MTAG, A_MSLOT, A_MCHAN, A_MROW, A_MBANK,
    A_WB_DEV, A_WB_SERV, A_WB_BUD, A_WB_BNUM,
    A_WB_IDEAL_BYTES, A_WB_IDEAL_SERV,
    A_WARP_START, A_WARP_SM, A_WARP_MLP,
) = range(30)

(
    I_WARP_COUNT, I_SM_COUNT, I_CHANNELS, I_BANKS,
    I_LINE_BYTES, I_ROW_BYTES, I_ENTRIES,
    I_L1_SETS, I_L1_WAYS, I_L2_SETS, I_L2_WAYS,
    I_META_SLOTS, I_META_WAYS,
    I_IDEAL, I_USE_META, I_FULL_MASK, I_META_LINE_BYTES,
) = range(17)

(
    F_INTERVAL, F_L1_LAT, F_L2_LAT, F_DRAM_LAT,
    F_LINK_BPC, F_LINK_LAT, F_FILL_TAIL,
    F_META_SERV_HIT, F_META_SERV_MISS,
    F_ROW_HIT_OV, F_ROW_MISS_OV,
) = range(11)

#: Slot names as the error messages spell them (mirrored in
#: _event_core_ext.c).
_A_NAMES = (
    "codes", "busy", "lid", "mask", "l1flat", "l2set",
    "chan", "row", "bank",
    "dev", "serv_hit", "serv_miss",
    "bud", "bnum", "hbytes", "hnum",
    "mtag", "mslot", "mchan", "mrow", "mbank",
    "wb_dev", "wb_serv", "wb_bud", "wb_bnum",
    "wb_ideal_bytes", "wb_ideal_serv",
    "warp_start", "warp_sm", "warp_mlp",
)
_I_NAMES = (
    "warp_count", "sm_count", "channels", "banks",
    "line_bytes", "row_bytes", "entries",
    "l1_sets", "l1_ways", "l2_sets", "l2_ways",
    "meta_slots", "meta_ways",
    "ideal", "use_meta", "full_mask", "meta_line_bytes",
)
_F_NAMES = (
    "interval", "l1_lat", "l2_lat", "dram_lat",
    "link_bpc", "link_lat", "fill_tail",
    "meta_serv_hit", "meta_serv_miss",
    "row_hit_ov", "row_miss_ov",
)

# -- pack limits (mirrored in _event_core_ext.c) ----------------------------
_MAX_WARPS = 1 << 20  # warp bits of the compiled heap key
_MAX_EVENTS = 1 << 44  # sequence bits of the compiled heap key
_MAX_DIM = 1 << 24  # cache/DRAM/SM dimensions
_MAX_FULL_MASK_BITS = 62
#: +inf: the largest bit pattern of a valid (non-negative) time.
_TIME_BITS_MAX = 0x7FF0000000000000

_FLOAT_SLOTS = frozenset(
    (A_BUSY, A_SERV_HIT, A_SERV_MISS, A_WB_SERV, A_WB_IDEAL_SERV)
)
#: Byte counts that become link transfer times.
_NONNEG_SLOTS = frozenset((A_BNUM, A_HNUM, A_WB_BNUM))
#: Columns owned by the trace/machine geometry, shared by every
#: compression state; the rest belong to the state.
_GEOMETRY_SLOTS = tuple(
    k
    for k in range(len(_A_NAMES))
    if k != A_CODES
    and not A_DEV <= k <= A_BNUM
    and not A_WB_DEV <= k <= A_WB_IDEAL_SERV
)
_GEOMETRY_ISCALARS = tuple(
    k for k in range(len(_I_NAMES)) if k not in (I_ENTRIES, I_IDEAL, I_USE_META)
)


def _index_bound(k, isc):
    """Exclusive index bound of slot ``k`` (0: not an index column)."""
    if k == A_CODES:
        return 6
    if k == A_LID:
        # victim * line_bytes must not overflow an int64
        return (2**63 - 1) // isc[I_LINE_BYTES] + 1
    if k == A_MASK:
        return isc[I_FULL_MASK] + 1
    if k == A_L1FLAT:
        return isc[I_L1_SETS]
    if k == A_L2SET:
        return isc[I_L2_SETS]
    if k in (A_CHAN, A_MCHAN):
        return isc[I_CHANNELS]
    if k in (A_BANK, A_MBANK):
        return isc[I_CHANNELS] * isc[I_BANKS]
    if k == A_MSLOT:
        return isc[I_META_SLOTS]
    if k == A_WARP_SM:
        return isc[I_SM_COUNT]
    return 0


def _view(col, k):
    """Slot ``k`` as a 1-D C-contiguous int64/float64 buffer, or None."""
    if col is None:
        return None
    kind = "float64" if k in _FLOAT_SLOTS else "int64"
    message = (
        f"event core: column {_A_NAMES[k]!r} must be a 1-D C-contiguous "
        f"{kind} buffer"
    )
    try:
        view = memoryview(col)
    except TypeError:
        raise TypeError(message) from None
    if not view.c_contiguous:
        raise TypeError(message)
    fmt = view.format[1:] if view.format[:1] in ("@", "=") else view.format
    if not (
        view.ndim == 1
        and view.itemsize == 8
        and (fmt == "d" if k in _FLOAT_SLOTS else fmt in ("l", "q"))
    ):
        raise TypeError(
            f"{message} (got format {view.format!r}, itemsize "
            f"{view.itemsize}, ndim {view.ndim})"
        )
    return view


def _check_shape(views, isc, fsc, n_rows):
    """Scalars, presence and lengths: the checks that scan no column."""
    for k, value in enumerate(isc):
        if k in (I_IDEAL, I_USE_META, I_META_LINE_BYTES):
            continue
        if k == I_FULL_MASK:
            if not (
                0 <= value < 1 << _MAX_FULL_MASK_BITS and value & (value + 1) == 0
            ):
                raise ValueError(
                    "event core: iscalar 'full_mask' must be 2**k - 1 with "
                    f"0 <= k < {_MAX_FULL_MASK_BITS}, got {value}"
                )
            continue
        if k == I_WARP_COUNT:
            lo, hi = 0, _MAX_WARPS - 1
        elif k == I_ENTRIES:
            lo, hi = 1, 2**63 - 1
        else:
            lo, hi = 1, _MAX_DIM
        if not lo <= value <= hi:
            raise ValueError(
                f"event core: iscalar {_I_NAMES[k]!r} must be in [{lo}, {hi}], "
                f"got {value}"
            )
    for k, value in enumerate(fsc):
        if k == F_LINK_BPC:
            if not value > 0.0:
                raise ValueError(
                    "event core: fscalar 'link_bpc' must be a positive rate"
                )
        elif not (value >= 0.0 and math.copysign(1.0, value) > 0.0):
            raise ValueError(
                f"event core: fscalar {_F_NAMES[k]!r} must be a non-negative "
                "time (not NaN or -0.0)"
            )

    ideal = bool(isc[I_IDEAL])
    use_meta = bool(isc[I_USE_META])
    for k, view in enumerate(views):
        if k <= A_SERV_MISS or k >= A_WARP_START:
            required = True
        elif k in (A_BUD, A_BNUM, A_WB_BUD, A_WB_BNUM) or A_MTAG <= k <= A_MBANK:
            required = use_meta
        elif k in (A_WB_DEV, A_WB_SERV):
            required = not ideal
        elif k in (A_WB_IDEAL_BYTES, A_WB_IDEAL_SERV):
            required = ideal
        else:
            required = False  # hbytes/hnum: only when host events exist
        if required and view is None:
            raise TypeError(
                f"event core: column {_A_NAMES[k]!r} is required (got None)"
            )

    for k, view in enumerate(views):
        if view is None:
            continue
        rows = view.nbytes // 8
        if k <= A_MBANK:
            if rows == n_rows:
                continue
            relation, want = "", n_rows
        else:
            relation = "at least "
            if A_WB_DEV <= k <= A_WB_BNUM:
                want = isc[I_ENTRIES]
            elif k in (A_WB_IDEAL_BYTES, A_WB_IDEAL_SERV):
                want = isc[I_FULL_MASK] + 1
            elif k == A_WARP_START:
                want = isc[I_WARP_COUNT] + 1
            else:
                want = isc[I_WARP_COUNT]
            if rows >= want:
                continue
        raise ValueError(
            f"event core: column {_A_NAMES[k]!r} has {rows} rows, expected "
            f"{relation}{want}"
        )
    if n_rows >= _MAX_EVENTS - isc[I_WARP_COUNT]:
        raise ValueError("event core: warp_count + rows must be below 2**44")


def _scan_columns(arrays, views, isc, n_rows, geometry):
    """Value checks of the geometry or the state columns, in slot order."""
    warp_count = isc[I_WARP_COUNT]
    has_host = has_rmw = False
    for k, view in enumerate(views):
        if view is None or (k in _GEOMETRY_SLOTS) != geometry:
            continue
        bits = np.frombuffer(view, dtype=np.uint64)
        if k == A_WARP_SM:
            bits = bits[:warp_count]
        top = int(bits.max()) if bits.size else None
        bound = _index_bound(k, isc)
        name = _A_NAMES[k]
        if bound:
            if top is not None and top >= bound:
                raise ValueError(
                    f"event core: column {name!r} holds a value outside "
                    f"[0, {bound})"
                )
        elif k in _FLOAT_SLOTS:
            if top is not None and top > _TIME_BITS_MAX:
                raise ValueError(
                    f"event core: column {name!r} holds a negative, NaN or "
                    "-0.0 time"
                )
        elif k in _NONNEG_SLOTS:
            if top is not None and top >= 1 << 63:
                raise ValueError(
                    f"event core: column {name!r} holds a negative value"
                )
        elif k == A_WARP_START:
            starts = bits.view(np.int64)[: warp_count + 1]
            if starts[0] < 0 or starts[-1] > n_rows or (np.diff(starts) < 0).any():
                raise ValueError(
                    "event core: column 'warp_start' must be non-decreasing "
                    f"within [0, {n_rows}]"
                )
        if k == A_CODES:
            has_host = bool(((bits == 3) | (bits == 4)).any())
            has_rmw = bool((bits == 5).any())
    # Event kinds that read optional columns need them present.
    for needed, k in (
        (has_host, A_HBYTES), (has_host, A_HNUM),
        (has_rmw, A_WB_DEV), (has_rmw, A_WB_SERV),
    ):
        if needed and arrays[k] is None:
            raise TypeError(
                f"event core: column {_A_NAMES[k]!r} is required (got None)"
            )


def _memo_key(arrays, isc, n_rows, geometry):
    """``(scalars, *columns)`` a validation memo vouches for.

    The memo holds the columns themselves, so their identity cannot be
    recycled while it lives; the compiled core builds the same tuple.
    """
    if geometry:
        scalars = (n_rows, *(isc[k] for k in _GEOMETRY_ISCALARS))
        return (scalars, *(arrays[k] for k in _GEOMETRY_SLOTS))
    return ((n_rows, *isc), *arrays)


def _memo_hit(cache, key):
    memo = cache.get("checked") if cache is not None else None
    return (
        memo is not None
        and len(memo) == len(key)
        and memo[0] == key[0]
        and all(a is b for a, b in zip(memo[1:], key[1:]))
    )


def _check_pack(arrays, isc, fsc, geo_cache, state_cache):
    """Validate a pack exactly as the compiled core does.

    Raises ``TypeError`` for a column of the wrong kind or a missing
    one, ``ValueError`` for a wrong length, an out-of-range index, an
    invalid time or scalar.  The column scans are memoised in the
    caller's ``geo_cache`` / ``state_cache`` under ``"checked"``, so a
    geometry or state is scanned once however many runs share it; the
    memo trusts that a validated column is not written in place.
    """
    if len(arrays) != len(_A_NAMES) or len(isc) != len(_I_NAMES) or len(
        fsc
    ) != len(_F_NAMES):
        raise ValueError(
            f"event core: expected {len(_A_NAMES)} arrays, {len(_I_NAMES)} "
            f"iscalars and {len(_F_NAMES)} fscalars"
        )
    if not all(c is None or isinstance(c, dict) for c in (geo_cache, state_cache)):
        raise TypeError(
            "event core: geo_cache and state_cache must be dicts or None"
        )
    views = [_view(col, k) for k, col in enumerate(arrays)]
    n_rows = views[A_CODES].nbytes // 8 if views[A_CODES] is not None else 0
    _check_shape(views, isc, fsc, n_rows)
    for geometry, cache in ((True, geo_cache), (False, state_cache)):
        key = _memo_key(arrays, isc, n_rows, geometry)
        if not _memo_hit(cache, key):
            _scan_columns(arrays, views, isc, n_rows, geometry)
            if cache is not None:
                cache["checked"] = key


def _normalised(arrays, iscalars, fscalars, geo_cache=None, state_cache=None):
    """One pack as both cores take it.

    The extension parses scalars with the exact C long-long / double
    converters; NumPy scalars are normalised up front.
    """
    return (
        tuple(arrays),
        tuple(int(v) for v in iscalars),
        tuple(float(v) for v in fscalars),
        geo_cache,
        state_cache,
    )


def run_exact(arrays, iscalars, fscalars, geo_cache=None, state_cache=None):
    """One exact-order simulation over the packed columns.

    Returns the counter tuple ``(cycles, l1_hits, l1_misses, l2_hits,
    l2_misses, dram_bytes, link_read_bytes, link_write_bytes,
    meta_hits, meta_misses, buddy_fills, demand_fills)``.

    ``geo_cache``/``state_cache`` are optional dicts owned by the
    pack's geometry and compression state.  Both cores keep their pack
    validation memo there; the pure-Python core also keeps its derived
    row tuples, so repeated runs of the same geometry/state pay the
    conversion once.
    """
    pack = _normalised(arrays, iscalars, fscalars, geo_cache, state_cache)
    if _ext is not None and not _forced_python:
        return _ext.run_exact(*pack)
    return _run_exact_py(*pack)


def _fan_out_width() -> int:
    """Threads :func:`run_exact_many` may use (1: run serially)."""
    if not compiled_active():
        return 1
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        return 1  # a pool worker: the pool already uses the CPUs
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_exact_many(packs):
    """Run independent packs; returns ``[run_exact(*p) for p in packs]``.

    Each pack is a :func:`run_exact` argument tuple ``(arrays,
    iscalars, fscalars[, geo_cache[, state_cache]])``.  On the compiled
    core, with more than one usable CPU and outside a
    ``multiprocessing`` worker, every pack starts on a per-call thread
    pool as soon as the iterable yields it, so the caller can resolve
    the next pack while earlier ones run; the compiled loop holds no
    GIL.  Otherwise the packs run one after another.  Results are in
    input order either way.  An error in any pack propagates, and no
    thread outlives the call.

    The workers call the extension directly, never the module-level
    :func:`run_exact`, so wrappers installed on that name (profilers,
    tracers) are never entered from several threads at once.
    """
    width = _fan_out_width()
    if width <= 1:
        run = _ext.run_exact if compiled_active() else _run_exact_py
        return [run(*_normalised(*pack)) for pack in packs]

    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=width)
    try:
        futures = [
            pool.submit(_ext.run_exact, *_normalised(*pack)) for pack in packs
        ]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _cached(cache, key, build):
    if cache is None:
        return build()
    value = cache.get(key)
    if value is None:
        value = build()
        cache[key] = value
    return value


def _run_exact_py(arrays, iscalars, fscalars, geo_cache, state_cache):
    """The always-available pure-Python event core.

    A verbatim port of the historical inline loop of
    ``VectorizedSimulator.run``, behind the same pack validation as
    the compiled core; the compiled extension transcribes *this*
    function.  Derived row tuples (zips of the input columns)
    are memoised in the caller-owned caches so repeated runs over the
    same geometry pay the conversion once, matching the old
    list-of-tuples columns' steady-state speed.
    """
    from heapq import heappop, heappushpop

    _check_pack(arrays, iscalars, fscalars, geo_cache, state_cache)
    (
        codes_a, busy_a, lid_a, mask_a, l1flat_a, l2set_a,
        chan_a, row_a, bank_a,
        dev_a, servh_a, servm_a,
        bud_a, bnum_a, hbytes_a, hnum_a,
        mtag_a, mslot_a, mchan_a, mrow_a, mbank_a,
        wbdev_a, wbserv_a, wbbud_a, wbbnum_a, wbib_a, wbis_a,
        wstart_a, wsm_a, wmlp_a,
    ) = arrays
    warp_count = int(iscalars[I_WARP_COUNT])
    channels = int(iscalars[I_CHANNELS])
    banks = int(iscalars[I_BANKS])
    line_bytes = int(iscalars[I_LINE_BYTES])
    row_bytes = int(iscalars[I_ROW_BYTES])
    entries = int(iscalars[I_ENTRIES])
    l1_sets_total = int(iscalars[I_L1_SETS])
    l1_ways = int(iscalars[I_L1_WAYS])
    l2_sets = int(iscalars[I_L2_SETS])
    l2_ways = int(iscalars[I_L2_WAYS])
    meta_slots = int(iscalars[I_META_SLOTS])
    meta_ways = int(iscalars[I_META_WAYS])
    ideal = bool(iscalars[I_IDEAL])
    use_meta = bool(iscalars[I_USE_META])
    full_mask = int(iscalars[I_FULL_MASK])
    meta_line_bytes = int(iscalars[I_META_LINE_BYTES])

    interval = fscalars[F_INTERVAL]
    l1_lat = fscalars[F_L1_LAT]
    l2_lat = fscalars[F_L2_LAT]
    dram_lat = fscalars[F_DRAM_LAT]
    link_bpc = fscalars[F_LINK_BPC]
    link_lat = fscalars[F_LINK_LAT]
    fill_tail = fscalars[F_FILL_TAIL]
    meta_serv_hit = fscalars[F_META_SERV_HIT]
    meta_serv_miss = fscalars[F_META_SERV_MISS]
    row_hit_ov = fscalars[F_ROW_HIT_OV]
    row_miss_ov = fscalars[F_ROW_MISS_OV]

    # -- derived row tuples (memoised per geometry/state) -------------
    codes = _cached(geo_cache, ("codes", id(codes_a)), codes_a.tolist)
    busy_col = _cached(geo_cache, "busy", busy_a.tolist)
    probe_rows = _cached(
        geo_cache,
        "probe",
        lambda: list(
            zip(
                lid_a.tolist(), mask_a.tolist(),
                l1flat_a.tolist(), l2set_a.tolist(),
            )
        ),
    )
    host_rows = (
        _cached(
            geo_cache,
            "host",
            lambda: list(zip(hbytes_a.tolist(), hnum_a.tolist())),
        )
        if hbytes_a is not None
        else None
    )
    meta_rows = (
        _cached(
            geo_cache,
            "meta",
            lambda: list(
                zip(
                    mtag_a.tolist(), mslot_a.tolist(), mchan_a.tolist(),
                    mrow_a.tolist(), mbank_a.tolist(),
                )
            ),
        )
        if use_meta
        else None
    )

    def _build_fill():
        fm_iter = mask_a.tolist() if ideal else repeat(full_mask)
        base = (
            dev_a.tolist(), servh_a.tolist(), servm_a.tolist(),
            chan_a.tolist(), row_a.tolist(), bank_a.tolist(), fm_iter,
        )
        if use_meta:
            return list(zip(*base, bud_a.tolist(), bnum_a.tolist()))
        return list(zip(*base))

    fill_rows = _cached(state_cache, "fill", _build_fill)

    def _build_wb():
        return (
            wbdev_a.tolist() if wbdev_a is not None else None,
            wbserv_a.tolist() if wbserv_a is not None else None,
            wbbud_a.tolist() if wbbud_a is not None else None,
            wbbnum_a.tolist() if wbbnum_a is not None else None,
            wbib_a.tolist() if wbib_a is not None else None,
            wbis_a.tolist() if wbis_a is not None else None,
        )

    wb_dev, wb_serv, wb_bud, wb_bnum, wb_ideal_bytes, wb_ideal_serv = (
        _cached(state_cache, "wb", _build_wb)
    )

    starts, warp_sm, warp_mlp = _cached(
        geo_cache,
        "warps",
        lambda: (wstart_a.tolist(), wsm_a.tolist(), wmlp_a.tolist()),
    )

    # -- memory-system state ------------------------------------------
    l1_masks: list[dict] = [{} for _ in range(l1_sets_total)]
    l2_masks: list[dict] = [{} for _ in range(l2_sets)]
    l2_dirty: list[dict] = [{} for _ in range(l2_sets)]
    meta_flat: list[list] = [[] for _ in range(meta_slots)]

    next_free = [0.0] * channels
    open_rows = [-1] * (channels * banks)
    link_read_free = 0.0
    link_write_free = 0.0

    # -- counters ------------------------------------------------------
    l1_hits = l1_misses = 0
    l2_hits = l2_misses = 0
    dram_bytes = 0
    link_read_bytes = link_write_bytes = 0
    meta_hits = meta_misses = 0
    buddy_fills = demand_fills = 0
    rmw_counter = 0

    # NOTE: the event core below is fully inlined — no closures.  A
    # nested helper capturing the loop's counters would turn them (and
    # every other shared local) into cell variables, degrading the
    # hottest loads/stores from LOAD_FAST to LOAD_DEREF across the
    # whole loop (~2.5x slower core).  The writeback and RMW-fill
    # blocks are therefore spelled out at each of their call sites.

    # -- warp state ----------------------------------------------------
    ips = starts[:warp_count]
    ends = starts[1:]
    outstanding: list[list] = [[] for _ in range(warp_count)]
    out_heads = [0] * warp_count
    sm_free = [0.0] * int(iscalars[I_SM_COUNT])
    heap = [(0.0, w, w) for w in range(warp_count)]
    sequence = warp_count
    finish = 0.0
    pushpop = heappushpop

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # -- the event core -------------------------------------------
        event = heappop(heap) if heap else None
        while event is not None:
            ready, _, w = event
            i = ips[w]
            if i == ends[w]:
                out = outstanding[w]
                head = out_heads[w]
                if len(out) > head:
                    last = max(out[head:])
                    if last > finish:
                        finish = last
                if ready > finish:
                    finish = ready
                event = heappop(heap) if heap else None
                continue
            ips[w] = i + 1
            sm = warp_sm[w]
            free = sm_free[sm]
            issue = ready if ready > free else free
            code = codes[i]

            if code == 0:  # _COMPUTE
                next_ready = issue + busy_col[i]
                sm_free[sm] = next_ready
            elif code == 1:  # _LOAD
                sm_free[sm] = issue + interval
                lid, msk, flat1, s2 = probe_rows[i]
                d1 = l1_masks[flat1]
                e1 = d1.get(lid)
                if e1 is not None and e1 & msk == msk:
                    l1_hits += 1
                    del d1[lid]
                    d1[lid] = e1
                    done = issue + l1_lat
                else:
                    l1_misses += 1
                    d2 = l2_masks[s2]
                    e2 = d2.get(lid)
                    if e2 is not None and e2 & msk == msk:
                        l2_hits += 1
                        del d2[lid]
                        d2[lid] = e2
                        done = issue + l2_lat
                    else:
                        l2_misses += 1
                        arrival = issue + l2_lat
                        demand_fills += 1
                        if use_meta:
                            (
                                dev, sh, sm_, ch, rw, bk, fm, bud, bnum,
                            ) = fill_rows[i]
                        else:
                            dev, sh, sm_, ch, rw, bk, fm = fill_rows[i]
                        # The sectored baseline requests even a
                        # zero-sector fill (degenerate traces):
                        # the oracle charges the channel overhead.
                        if dev or ideal:
                            if open_rows[bk] == rw:
                                serv = sh
                            else:
                                serv = sm_
                                open_rows[bk] = rw
                            free = next_free[ch]
                            start = free if free > arrival else arrival
                            end = start + serv
                            next_free[ch] = end
                            dram_bytes += dev
                            done = end + dram_lat
                        else:
                            done = arrival
                        if use_meta:
                            mt, ms, mc, mr, mb = meta_rows[i]
                            ways = meta_flat[ms]
                            if mt in ways:
                                ways.remove(mt)
                                ways.append(mt)
                                meta_hits += 1
                                meta_ready = arrival
                            else:
                                meta_misses += 1
                                ways.append(mt)
                                if len(ways) > meta_ways:
                                    ways.pop(0)
                                if open_rows[mb] == mr:
                                    serv = meta_serv_hit
                                else:
                                    serv = meta_serv_miss
                                    open_rows[mb] = mr
                                free = next_free[mc]
                                start = (
                                    free if free > arrival else arrival
                                )
                                end = start + serv
                                next_free[mc] = end
                                dram_bytes += meta_line_bytes
                                meta_ready = end + dram_lat
                                if meta_ready > done:
                                    done = meta_ready
                            if bud:
                                start = (
                                    link_read_free
                                    if link_read_free > meta_ready
                                    else meta_ready
                                )
                                end = start + bnum / link_bpc
                                link_read_free = end
                                link_read_bytes += bud
                                buddy_fills += 1
                                t = end + link_lat
                                if t > done:
                                    done = t
                        # Install (full line for compressed fills).
                        if e2 is not None:
                            del d2[lid]
                            d2[lid] = e2 | fm
                        else:
                            if len(d2) >= l2_ways:
                                victim = next(iter(d2))
                                del d2[victim]
                                dirty_mask = l2_dirty[s2].pop(victim, 0)
                                if dirty_mask:
                                    # Writeback (dirty eviction).
                                    if ideal:
                                        num = wb_ideal_bytes[dirty_mask]
                                        serv = wb_ideal_serv[dirty_mask]
                                    else:
                                        ventry = victim % entries
                                        num = wb_dev[ventry]
                                        serv = wb_serv[ventry]
                                    if num:
                                        vch = victim % channels
                                        vrow = victim * line_bytes // row_bytes
                                        vbk = vch * banks + vrow % banks
                                        if open_rows[vbk] == vrow:
                                            serv = serv + row_hit_ov
                                        else:
                                            serv = serv + row_miss_ov
                                            open_rows[vbk] = vrow
                                        vfree = next_free[vch]
                                        vstart = (
                                            vfree
                                            if vfree > arrival
                                            else arrival
                                        )
                                        next_free[vch] = vstart + serv
                                        dram_bytes += num
                                    if use_meta:
                                        vbud = wb_bud[victim % entries]
                                        if vbud:
                                            vstart = (
                                                link_write_free
                                                if link_write_free
                                                > arrival
                                                else arrival
                                            )
                                            link_write_free = (
                                                vstart
                                                + wb_bnum[
                                                    victim % entries
                                                ]
                                                / link_bpc
                                            )
                                            link_write_bytes += vbud
                            d2[lid] = fm
                        done = done + fill_tail
                    # L1 fill (never dirty; evictions are silent).
                    if e1 is not None:
                        del d1[lid]
                        d1[lid] = e1 | msk
                    else:
                        if len(d1) >= l1_ways:
                            del d1[next(iter(d1))]
                        d1[lid] = msk
                out = outstanding[w]
                out.append(done)
                head = out_heads[w]
                if len(out) - head >= warp_mlp[w]:
                    next_ready = out[head]
                    out_heads[w] = head + 1
                else:
                    next_ready = issue + interval
            elif code == 2 or code == 5:  # _STORE / _STORE_RMW
                sm_free[sm] = issue + interval
                lid, msk, flat1, s2 = probe_rows[i]
                if code == 5:
                    # Partial store into a compressed entry: every
                    # fourth pays the read-modify-write fetch
                    # unless the line is fully resident.  This is
                    # the load-miss fill at arrival ``issue``; the
                    # completion time is discarded because stores
                    # do not stall the warp.
                    rmw_counter += 1
                    if not rmw_counter % 4:
                        d2 = l2_masks[s2]
                        e2 = d2.get(lid)
                        if e2 is not None and e2 & full_mask == full_mask:
                            l2_hits += 1
                            del d2[lid]
                            d2[lid] = e2
                        else:
                            l2_misses += 1
                            demand_fills += 1
                            if use_meta:
                                (
                                    dev, sh, sm_, ch, rw, bk, fm,
                                    bud, bnum,
                                ) = fill_rows[i]
                            else:
                                dev, sh, sm_, ch, rw, bk, fm = (
                                    fill_rows[i]
                                )
                            if dev:
                                if open_rows[bk] == rw:
                                    serv = sh
                                else:
                                    serv = sm_
                                    open_rows[bk] = rw
                                free = next_free[ch]
                                start = free if free > issue else issue
                                next_free[ch] = start + serv
                                dram_bytes += dev
                            if use_meta:
                                meta_ready = issue
                                mt, ms, mc, mr, mb = meta_rows[i]
                                ways = meta_flat[ms]
                                if mt in ways:
                                    ways.remove(mt)
                                    ways.append(mt)
                                    meta_hits += 1
                                else:
                                    meta_misses += 1
                                    ways.append(mt)
                                    if len(ways) > meta_ways:
                                        ways.pop(0)
                                    if open_rows[mb] == mr:
                                        serv = meta_serv_hit
                                    else:
                                        serv = meta_serv_miss
                                        open_rows[mb] = mr
                                    free = next_free[mc]
                                    start = (
                                        free if free > issue else issue
                                    )
                                    end = start + serv
                                    next_free[mc] = end
                                    dram_bytes += meta_line_bytes
                                    meta_ready = end + dram_lat
                                if bud:
                                    start = (
                                        link_read_free
                                        if link_read_free > meta_ready
                                        else meta_ready
                                    )
                                    link_read_free = (
                                        start + bnum / link_bpc
                                    )
                                    link_read_bytes += bud
                                    buddy_fills += 1
                            # Install the whole line.
                            if e2 is not None:
                                del d2[lid]
                                d2[lid] = e2 | fm
                            else:
                                if len(d2) >= l2_ways:
                                    victim = next(iter(d2))
                                    del d2[victim]
                                    dirty_mask = l2_dirty[s2].pop(
                                        victim, 0
                                    )
                                    if dirty_mask:
                                        # Writeback (RMW is only
                                        # taken in the compressed
                                        # modes).
                                        ventry = victim % entries
                                        num = wb_dev[ventry]
                                        serv = wb_serv[ventry]
                                        if num:
                                            vch = victim % channels
                                            vrow = victim * line_bytes // row_bytes
                                            vbk = (
                                                vch * banks
                                                + vrow % banks
                                            )
                                            if open_rows[vbk] == vrow:
                                                serv = serv + row_hit_ov
                                            else:
                                                serv = (
                                                    serv + row_miss_ov
                                                )
                                                open_rows[vbk] = vrow
                                            vfree = next_free[vch]
                                            vstart = (
                                                vfree
                                                if vfree > issue
                                                else issue
                                            )
                                            next_free[vch] = (
                                                vstart + serv
                                            )
                                            dram_bytes += num
                                        if use_meta:
                                            vbud = wb_bud[ventry]
                                            if vbud:
                                                vstart = (
                                                    link_write_free
                                                    if link_write_free
                                                    > issue
                                                    else issue
                                                )
                                                link_write_free = (
                                                    vstart
                                                    + wb_bnum[ventry]
                                                    / link_bpc
                                                )
                                                link_write_bytes += (
                                                    vbud
                                                )
                                d2[lid] = fm
                d2 = l2_masks[s2]
                e2 = d2.get(lid)
                if e2 is not None:
                    del d2[lid]
                    d2[lid] = e2 | msk
                    dirty = l2_dirty[s2]
                    dirty[lid] = dirty.get(lid, 0) | msk
                else:
                    if len(d2) >= l2_ways:
                        victim = next(iter(d2))
                        del d2[victim]
                        dirty_mask = l2_dirty[s2].pop(victim, 0)
                        if dirty_mask:
                            # Writeback (dirty eviction).
                            if ideal:
                                num = wb_ideal_bytes[dirty_mask]
                                serv = wb_ideal_serv[dirty_mask]
                            else:
                                ventry = victim % entries
                                num = wb_dev[ventry]
                                serv = wb_serv[ventry]
                            if num:
                                vch = victim % channels
                                vrow = victim * line_bytes // row_bytes
                                vbk = vch * banks + vrow % banks
                                if open_rows[vbk] == vrow:
                                    serv = serv + row_hit_ov
                                else:
                                    serv = serv + row_miss_ov
                                    open_rows[vbk] = vrow
                                vfree = next_free[vch]
                                vstart = (
                                    vfree if vfree > issue else issue
                                )
                                next_free[vch] = vstart + serv
                                dram_bytes += num
                            if use_meta:
                                vbud = wb_bud[victim % entries]
                                if vbud:
                                    vstart = (
                                        link_write_free
                                        if link_write_free > issue
                                        else issue
                                    )
                                    link_write_free = (
                                        vstart
                                        + wb_bnum[victim % entries]
                                        / link_bpc
                                    )
                                    link_write_bytes += vbud
                    d2[lid] = msk
                    l2_dirty[s2][lid] = msk
                next_ready = issue + interval
            elif code == 3:  # _HOST_LOAD
                sm_free[sm] = issue + interval
                hbytes, hnum = host_rows[i]
                start = (
                    link_read_free if link_read_free > issue else issue
                )
                end = start + hnum / link_bpc
                link_read_free = end
                link_read_bytes += hbytes
                done = end + link_lat
                out = outstanding[w]
                out.append(done)
                head = out_heads[w]
                if len(out) - head >= warp_mlp[w]:
                    next_ready = out[head]
                    out_heads[w] = head + 1
                else:
                    next_ready = issue + interval
            else:  # _HOST_STORE: fire-and-forget remote write
                sm_free[sm] = issue + interval
                hbytes, hnum = host_rows[i]
                start = (
                    link_write_free if link_write_free > issue else issue
                )
                link_write_free = start + hnum / link_bpc
                link_write_bytes += hbytes
                next_ready = issue + interval

            sequence += 1
            continuation = (next_ready, sequence, w)
            if heap:
                # A continuation that precedes the whole heap is
                # the next event by construction — skip the sift.
                if continuation < heap[0]:
                    event = continuation
                else:
                    event = pushpop(heap, continuation)
            else:
                event = continuation
    finally:
        if gc_was_enabled:
            gc.enable()

    # -- drain + counters ---------------------------------------------
    cycles = max(
        finish,
        max(next_free),
        link_read_free,
        link_write_free,
        max(sm_free),
    )
    return (
        cycles, l1_hits, l1_misses, l2_hits, l2_misses, dram_bytes,
        link_read_bytes, link_write_bytes, meta_hits, meta_misses,
        buddy_fills, demand_fills,
    )
