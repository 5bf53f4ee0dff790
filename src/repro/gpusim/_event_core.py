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
  line-for-line transcription of the fallback using the same IEEE
  double operations in the same order, so counters *and* cycles are
  bit-identical between the two (``tests/test_event_core.py`` pins
  this; the CI ``event-core`` job diffs full study digests).

Selection happens once at import: the extension is used when it
imports and its ``ABI`` constant matches :data:`EXT_ABI` (a stale
``.so`` from an older layout is ignored, not trusted).  Setting
``REPRO_NO_EXT=1`` in the environment forces the pure-Python path;
:func:`force_python` forces it temporarily (the benchmark suite uses
it to measure the compiled speedup in one process).

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
import os
from contextlib import contextmanager
from itertools import repeat

#: Bump when the array-pack layout changes; a compiled extension whose
#: ``ABI`` constant differs is silently ignored (stale build).
EXT_ABI = 3

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

def run_exact(arrays, iscalars, fscalars, geo_cache=None, state_cache=None):
    """One exact-order simulation over the packed columns.

    Returns the counter tuple ``(cycles, l1_hits, l1_misses, l2_hits,
    l2_misses, dram_bytes, link_read_bytes, link_write_bytes,
    meta_hits, meta_misses, buddy_fills, demand_fills)``.

    ``geo_cache``/``state_cache`` are optional dicts the pure-Python
    implementation uses to keep its derived row tuples across runs of
    the same geometry/state (the compiled path reads the arrays
    directly and ignores them).
    """
    if _ext is not None and not _forced_python:
        # The extension parses scalars with the exact C long-long /
        # double converters; normalise any NumPy scalars up front.
        return _ext.run_exact(
            arrays,
            tuple(int(v) for v in iscalars),
            tuple(float(v) for v in fscalars),
        )
    return _run_exact_py(arrays, iscalars, fscalars, geo_cache, state_cache)


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
    ``VectorizedSimulator.run``; the compiled extension transcribes
    *this* function.  Derived row tuples (zips of the input columns)
    are memoised in the caller-owned caches so repeated runs over the
    same geometry pay the conversion once, matching the old
    list-of-tuples columns' steady-state speed.
    """
    from heapq import heappop, heappushpop

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
