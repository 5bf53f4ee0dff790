"""Compiled-vs-fallback contract of the exact-order event core.

``repro/gpusim/_event_core.py`` dispatches between the optional C
extension and the pure-Python loop.  The two must be **bit-identical**
on every observable — counters and cycles — because engine results are
digest-pinned and the compiled core must never become a cache axis.
These tests fuzz that identity across all compression modes and close
the loop against the legacy oracle.

They also pin the two cores' shared pack validation (a malformed pack
is the same ``TypeError``/``ValueError`` from either core) and the
batch entry ``run_exact_many``: the same results as one-by-one runs,
in input order, concurrent only where it may be, and no thread left
behind.

When the extension is unavailable (or ``REPRO_NO_EXT=1``), the
equivalence tests skip and the fallback-only tests still run — CI
exercises both configurations.
"""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.entry import TargetRatio
from repro.gpusim import (
    CompressionMode,
    CompressionState,
    DependencyDrivenSimulator,
    KernelTrace,
    VectorizedSimulator,
    WarpTrace,
    scaled_config,
)
from repro.gpusim import _event_core
from repro.gpusim.trace import Op
from repro.gpusim.vector_sim import _pack
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig, generate_trace, layout_snapshot
from tests.test_vector_sim import single_warp_case

needs_ext = pytest.mark.skipif(
    not _event_core.compiled_active(),
    reason="compiled event core not active (build_ext or REPRO_NO_EXT=1)",
)

SMALL_TRACE = TraceConfig(
    sm_count=4,
    warps_per_sm=8,
    memory_instructions_per_warp=24,
    snapshot_config=SnapshotConfig(
        scale=1.0 / 16384, min_footprint_bytes=256 * 1024
    ),
)
SMALL_GPU = scaled_config(sm_count=4, warps_per_sm=8)

RESULT_FIELDS = (
    "cycles",
    "instructions",
    "l1_hit_rate",
    "l2_hit_rate",
    "dram_bytes",
    "link_bytes",
    "metadata_hit_rate",
    "buddy_fills",
    "demand_fills",
)


def small_state(name, mode, trace):
    if mode is CompressionMode.IDEAL:
        return CompressionState.ideal(trace.footprint_bytes)
    snapshot = layout_snapshot(name, SMALL_TRACE)
    selection = {a.name: TargetRatio.X2 for a in snapshot.allocations}
    return CompressionState.from_snapshot(snapshot, selection, mode)


def fuzz_trace(seed, n=1024):
    """Random unit trace incl. degenerate 0-sector and 0-cycle rows."""
    rng = np.random.default_rng(seed)
    warps = []
    for w in range(8):
        instructions = []
        for _ in range(96):
            kind = rng.integers(0, 3)
            if kind == 0:
                instructions.append(
                    (int(Op.COMPUTE), int(rng.integers(0, 20)), 0)
                )
            else:
                address = int(rng.integers(0, n * 128))
                sectors = int(rng.integers(0, 5))
                op = Op.LOAD if kind == 1 else Op.STORE
                instructions.append((int(op), address, sectors))
        warps.append(
            WarpTrace(
                w % 2, instructions, max_outstanding=int(rng.integers(1, 6))
            )
        )
    return KernelTrace("fuzz", warps, n * 128), rng


def fuzz_state(mode, rng, trace, n=1024):
    if mode is CompressionMode.IDEAL:
        return CompressionState.ideal(trace.footprint_bytes)
    sectors = rng.integers(1, 5, n).astype(np.int8)
    budgets = rng.integers(0, 5, n).astype(np.int8)
    zero_fit = rng.random(n) < 0.2
    return CompressionState(mode, sectors, budgets, zero_fit)


def run_both_cores(trace, state, config):
    """One vectorized run per core; returns (compiled, python) results."""
    compiled = VectorizedSimulator(config).run(trace, state)
    with _event_core.force_python():
        fallback = VectorizedSimulator(config).run(trace, state)
    return compiled, fallback


# ---------------------------------------------------------------------------
# Dispatch plumbing.
# ---------------------------------------------------------------------------
class TestDispatch:
    def test_describe_shape(self):
        info = _event_core.describe()
        assert info["event_core"] in ("compiled", "python")
        assert set(info) == {
            "event_core",
            "extension_available",
            "extension_abi",
            "extension_stale",
            "forced_python",
            "detail",
        }
        assert info["extension_abi"] == _event_core.EXT_ABI
        assert info["extension_stale"] is False

    def test_slot_names_follow_the_constants(self):
        """The error messages name each slot after its constant."""
        for prefix, names in (
            ("A_", _event_core._A_NAMES),
            ("I_", _event_core._I_NAMES),
            ("F_", _event_core._F_NAMES),
        ):
            constants = {
                name: value
                for name, value in vars(_event_core).items()
                if name.startswith(prefix) and isinstance(value, int)
            }
            assert len(constants) == len(names)
            for name, value in constants.items():
                assert names[value] == name[len(prefix):].lower(), name

    @needs_ext
    def test_extension_abi_matches(self):
        assert _event_core._ext.ABI == _event_core.EXT_ABI

    @needs_ext
    def test_force_python_restores(self):
        assert _event_core.compiled_active()
        with _event_core.force_python():
            assert not _event_core.compiled_active()
            assert _event_core.describe()["event_core"] == "python"
        assert _event_core.compiled_active()


# ---------------------------------------------------------------------------
# Compiled == pure-Python, bit for bit.
# ---------------------------------------------------------------------------
@needs_ext
class TestCompiledMatchesPython:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fuzzed_unit_traces_all_modes(self, seed):
        """Fuzzed streams agree across cores — and with the legacy
        oracle, closing the mode x engine matrix."""
        trace, rng = fuzz_trace(seed)
        config = scaled_config(sm_count=2, warps_per_sm=4)
        for mode in CompressionMode:
            state = fuzz_state(mode, rng, trace)
            compiled, fallback = run_both_cores(trace, state, config)
            legacy = DependencyDrivenSimulator(config, engine="legacy").run(
                trace, state
            )
            for field in RESULT_FIELDS:
                value = getattr(compiled, field)
                assert value == getattr(fallback, field), field
                assert value == getattr(legacy, field), field

    def test_host_region_trace(self):
        footprint = 1 << 20
        stores = [(int(Op.STORE), footprint + 128 * i, 4) for i in range(64)]
        loads = [(int(Op.LOAD), footprint + 128 * i, 2) for i in range(32)]
        warps = [
            WarpTrace(0, stores, max_outstanding=1),
            WarpTrace(0, loads, max_outstanding=2),
        ]
        trace = KernelTrace("unit", warps, footprint, host_traffic_fraction=0.5)
        config = scaled_config(sm_count=1, warps_per_sm=2, link_gbps=50)
        compiled, fallback = run_both_cores(
            trace, CompressionState.ideal(footprint), config
        )
        assert compiled.link_bytes > 0
        for field in RESULT_FIELDS:
            assert getattr(compiled, field) == getattr(fallback, field), field

    def test_partial_store_rmw_path(self):
        n = 4096
        instructions = [
            (int(Op.STORE), (i * 128) % (n * 128), 1) for i in range(512)
        ]
        warps = [WarpTrace(0, instructions, max_outstanding=4)]
        trace = KernelTrace("unit", warps, n * 128)
        state = CompressionState(
            CompressionMode.BUDDY,
            np.full(n, 4, dtype=np.int8),
            np.full(n, 2, dtype=np.int8),
            np.zeros(n, dtype=bool),
        )
        config = scaled_config(sm_count=1, warps_per_sm=1)
        compiled, fallback = run_both_cores(trace, state, config)
        assert compiled.demand_fills > 0
        for field in RESULT_FIELDS:
            assert getattr(compiled, field) == getattr(fallback, field), field

    @pytest.mark.parametrize(
        "name", ["VGG16", "354.cg", "356.sp", "FF_HPGMG", "FF_Lulesh"]
    )
    @pytest.mark.parametrize("mode", list(CompressionMode))
    @pytest.mark.parametrize("link", [50.0, 150.0, 200.0])
    def test_generated_trace_all_modes(self, name, mode, link):
        trace = generate_trace(name, SMALL_TRACE)
        state = small_state(name, mode, trace)
        compiled, fallback = run_both_cores(
            trace, state, SMALL_GPU.with_link(link)
        )
        for field in RESULT_FIELDS:
            assert getattr(compiled, field) == getattr(fallback, field), field

    @pytest.mark.parametrize("mode", list(CompressionMode))
    @pytest.mark.parametrize("link", [50.0, 100.0, 150.0, 200.0])
    def test_single_warp_traces(self, mode, link):
        trace, state = single_warp_case(mode)
        config = scaled_config(sm_count=1, warps_per_sm=1).with_link(link)
        compiled, fallback = run_both_cores(trace, state, config)
        for field in RESULT_FIELDS:
            assert getattr(compiled, field) == getattr(fallback, field), field


# ---------------------------------------------------------------------------
# Pack validation: a malformed pack is the same typed error on both cores.
# ---------------------------------------------------------------------------
def generated_pack(mode, link=150.0, name="VGG16"):
    """The event-core pack of one generated-trace run, without caches."""
    trace = generate_trace(name, SMALL_TRACE)
    state = small_state(name, mode, trace)
    arrays, iscalars, fscalars, _, _ = _pack(
        SMALL_GPU.with_link(link), trace, state
    )
    return list(arrays), list(iscalars), list(fscalars)


def core_errors(arrays, iscalars, fscalars, geo_cache=None, state_cache=None):
    """``(type, message)`` raised by each available core, Python first."""
    runners = [_event_core._run_exact_py]
    if _event_core._ext is not None:
        runners.append(_event_core._ext.run_exact)
    raised = []
    for run in runners:
        pack = _event_core._normalised(
            arrays, iscalars, fscalars, geo_cache, state_cache
        )
        with pytest.raises((TypeError, ValueError)) as info:
            run(*pack)
        raised.append((type(info.value), str(info.value)))
    return raised


def _set(column, index, value):
    column = np.array(column)
    column[index] = value
    return column


A = _event_core
#: (case, mode, edit(arrays, iscalars, fscalars), error type, message part)
MALFORMED = [
    ("int32-lid", CompressionMode.BUDDY,
     lambda a, i, f: a.__setitem__(A.A_LID, a[A.A_LID].astype(np.int32)),
     TypeError, "column 'lid' must be a 1-D C-contiguous int64 buffer (got format 'i'"),
    ("short-lid", CompressionMode.BUDDY,
     lambda a, i, f: a.__setitem__(A.A_LID, a[A.A_LID][:10].copy()),
     ValueError, "column 'lid' has 10 rows, expected"),
    ("float-codes", CompressionMode.BUDDY,
     lambda a, i, f: a.__setitem__(A.A_CODES, a[A.A_CODES].astype(np.float64)),
     TypeError, "column 'codes' must be a 1-D C-contiguous int64 buffer"),
    ("float-as-int-busy", CompressionMode.IDEAL,
     lambda a, i, f: a.__setitem__(A.A_BUSY, a[A.A_BUSY].astype(np.int64)),
     TypeError, "column 'busy' must be a 1-D C-contiguous float64 buffer"),
    ("strided-lid", CompressionMode.IDEAL,
     lambda a, i, f: a.__setitem__(A.A_LID, np.repeat(a[A.A_LID], 2)[::2]),
     TypeError, "column 'lid' must be a 1-D C-contiguous int64 buffer"),
    ("list-lid", CompressionMode.IDEAL,
     lambda a, i, f: a.__setitem__(A.A_LID, a[A.A_LID].tolist()),
     TypeError, "column 'lid' must be a 1-D C-contiguous int64 buffer"),
    ("2d-mask", CompressionMode.IDEAL,
     lambda a, i, f: a.__setitem__(A.A_MASK, a[A.A_MASK].reshape(-1, 1)),
     TypeError, "ndim 2"),
    ("missing-bud", CompressionMode.BUDDY,
     lambda a, i, f: a.__setitem__(A.A_BUD, None),
     TypeError, "column 'bud' is required (got None)"),
    ("missing-wb-ideal", CompressionMode.IDEAL,
     lambda a, i, f: a.__setitem__(A.A_WB_IDEAL_BYTES, None),
     TypeError, "column 'wb_ideal_bytes' is required (got None)"),
    ("l2set-past-end", CompressionMode.BUDDY,
     lambda a, i, f: a.__setitem__(A.A_L2SET, _set(a[A.A_L2SET], 7, i[A.I_L2_SETS])),
     ValueError, "column 'l2set' holds a value outside [0, "),
    ("l2set-negative", CompressionMode.BUDDY,
     lambda a, i, f: a.__setitem__(A.A_L2SET, _set(a[A.A_L2SET], 7, -1)),
     ValueError, "column 'l2set' holds a value outside [0, "),
    ("l1flat-past-end", CompressionMode.IDEAL,
     lambda a, i, f: a.__setitem__(A.A_L1FLAT, _set(a[A.A_L1FLAT], 0, i[A.I_L1_SETS])),
     ValueError, "column 'l1flat' holds a value outside [0, "),
    ("bank-negative", CompressionMode.BANDWIDTH,
     lambda a, i, f: a.__setitem__(A.A_BANK, _set(a[A.A_BANK], 3, -2)),
     ValueError, "column 'bank' holds a value outside [0, "),
    ("mslot-past-end", CompressionMode.BUDDY,
     lambda a, i, f: a.__setitem__(A.A_MSLOT, _set(a[A.A_MSLOT], 3, i[A.I_META_SLOTS])),
     ValueError, "column 'mslot' holds a value outside [0, "),
    ("mask-past-full", CompressionMode.IDEAL,
     lambda a, i, f: a.__setitem__(A.A_MASK, _set(a[A.A_MASK], 3, 16)),
     ValueError, "column 'mask' holds a value outside [0, 16)"),
    ("codes-unknown", CompressionMode.BUDDY,
     lambda a, i, f: a.__setitem__(A.A_CODES, _set(a[A.A_CODES], 3, 6)),
     ValueError, "column 'codes' holds a value outside [0, 6)"),
    ("host-code-without-host-columns", CompressionMode.IDEAL,
     lambda a, i, f: a.__setitem__(A.A_CODES, _set(a[A.A_CODES], 3, 3)),
     TypeError, "column 'hbytes' is required (got None)"),
    ("warp-sm-past-end", CompressionMode.IDEAL,
     lambda a, i, f: a.__setitem__(A.A_WARP_SM, _set(a[A.A_WARP_SM], 0, i[A.I_SM_COUNT])),
     ValueError, "column 'warp_sm' holds a value outside [0, "),
    ("warp-start-decreasing", CompressionMode.IDEAL,
     lambda a, i, f: a.__setitem__(A.A_WARP_START, _set(a[A.A_WARP_START], 1, -1)),
     ValueError, "column 'warp_start' must be non-decreasing within [0, "),
    ("short-wb-table", CompressionMode.BANDWIDTH,
     lambda a, i, f: a.__setitem__(A.A_WB_DEV, a[A.A_WB_DEV][:1].copy()),
     ValueError, "column 'wb_dev' has 1 rows, expected at least"),
    ("negative-bnum", CompressionMode.BUDDY,
     lambda a, i, f: a.__setitem__(A.A_BNUM, _set(a[A.A_BNUM], 0, -1)),
     ValueError, "column 'bnum' holds a negative value"),
    ("negative-busy", CompressionMode.IDEAL,
     lambda a, i, f: a.__setitem__(A.A_BUSY, _set(a[A.A_BUSY], 0, -1.0)),
     ValueError, "column 'busy' holds a negative, NaN or -0.0 time"),
    ("nan-busy", CompressionMode.IDEAL,
     lambda a, i, f: a.__setitem__(A.A_BUSY, _set(a[A.A_BUSY], 0, math.nan)),
     ValueError, "column 'busy' holds a negative, NaN or -0.0 time"),
    ("negative-zero-serv", CompressionMode.BUDDY,
     lambda a, i, f: a.__setitem__(A.A_SERV_HIT, _set(a[A.A_SERV_HIT], 0, -0.0)),
     ValueError, "column 'serv_hit' holds a negative, NaN or -0.0 time"),
    ("negative-interval", CompressionMode.IDEAL,
     lambda a, i, f: f.__setitem__(A.F_INTERVAL, -1.0),
     ValueError, "fscalar 'interval' must be a non-negative time"),
    ("negative-zero-latency", CompressionMode.IDEAL,
     lambda a, i, f: f.__setitem__(A.F_L1_LAT, -0.0),
     ValueError, "fscalar 'l1_lat' must be a non-negative time"),
    ("nan-latency", CompressionMode.BUDDY,
     lambda a, i, f: f.__setitem__(A.F_LINK_LAT, math.nan),
     ValueError, "fscalar 'link_lat' must be a non-negative time"),
    ("zero-link-rate", CompressionMode.BUDDY,
     lambda a, i, f: f.__setitem__(A.F_LINK_BPC, 0.0),
     ValueError, "fscalar 'link_bpc' must be a positive rate"),
    ("negative-link-rate", CompressionMode.BUDDY,
     lambda a, i, f: f.__setitem__(A.F_LINK_BPC, -4.0),
     ValueError, "fscalar 'link_bpc' must be a positive rate"),
    ("nan-link-rate", CompressionMode.BUDDY,
     lambda a, i, f: f.__setitem__(A.F_LINK_BPC, math.nan),
     ValueError, "fscalar 'link_bpc' must be a positive rate"),
    ("too-many-warps", CompressionMode.IDEAL,
     lambda a, i, f: i.__setitem__(A.I_WARP_COUNT, 2**20),
     ValueError, "iscalar 'warp_count' must be in [0, 1048575], got 1048576"),
    ("zero-l2-sets", CompressionMode.IDEAL,
     lambda a, i, f: i.__setitem__(A.I_L2_SETS, 0),
     ValueError, "iscalar 'l2_sets' must be in [1, 16777216], got 0"),
    ("ragged-full-mask", CompressionMode.IDEAL,
     lambda a, i, f: i.__setitem__(A.I_FULL_MASK, 10),
     ValueError, "iscalar 'full_mask' must be 2**k - 1"),
]


class TestPackValidation:
    @pytest.mark.parametrize(
        "mode, edit, error, message",
        [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_malformed_pack_is_the_same_typed_error(
        self, mode, edit, error, message
    ):
        arrays, iscalars, fscalars = generated_pack(mode)
        edit(arrays, iscalars, fscalars)
        raised = core_errors(arrays, iscalars, fscalars)
        for kind, text in raised:
            assert kind is error, raised
            assert text.startswith("event core: "), text
            assert message in text, text
        assert len(set(raised)) == 1, raised

    def test_public_entry_validates_on_either_core(self):
        arrays, iscalars, fscalars = generated_pack(CompressionMode.BUDDY)
        arrays[_event_core.A_L2SET] = _set(arrays[_event_core.A_L2SET], 0, -1)
        with pytest.raises(ValueError, match="'l2set'"):
            _event_core.run_exact(arrays, iscalars, fscalars)
        with _event_core.force_python():
            with pytest.raises(ValueError, match="'l2set'"):
                _event_core.run_exact(arrays, iscalars, fscalars)

    def test_wrong_pack_arity(self):
        arrays, iscalars, fscalars = generated_pack(CompressionMode.IDEAL)
        raised = core_errors(arrays[:-1], iscalars, fscalars)
        assert {kind for kind, _ in raised} == {ValueError}
        assert len(set(raised)) == 1, raised

    @pytest.mark.parametrize("mode", list(CompressionMode))
    def test_memo_vouches_only_for_the_columns_it_saw(self, mode):
        """A validated geometry/state is not re-scanned, but a swapped
        column is: the memo holds the columns it checked."""
        arrays, iscalars, fscalars = generated_pack(mode)
        geo_cache, state_cache = {}, {}
        expected = _event_core._run_exact_py(
            *_event_core._normalised(arrays, iscalars, fscalars, None, None)
        )
        for run in self._runners():
            pack = _event_core._normalised(
                arrays, iscalars, fscalars, geo_cache, state_cache
            )
            assert run(*pack) == expected
            assert run(*pack) == expected
        assert "checked" in geo_cache and "checked" in state_cache
        bad_lid = _set(arrays[_event_core.A_LID], 0, -5)
        bad_codes = _set(arrays[_event_core.A_CODES], 0, 9)
        for slot, column in ((_event_core.A_LID, bad_lid),
                             (_event_core.A_CODES, bad_codes)):
            swapped = list(arrays)
            swapped[slot] = column
            raised = core_errors(
                swapped, iscalars, fscalars, geo_cache, state_cache
            )
            assert {kind for kind, _ in raised} == {ValueError}, raised
            assert len(set(raised)) == 1, raised

    @staticmethod
    def _runners():
        runners = [_event_core._run_exact_py]
        if _event_core._ext is not None:
            runners.append(_event_core._ext.run_exact)
        return runners

    def test_simulator_columns_are_read_only(self):
        arrays, _, _ = generated_pack(CompressionMode.BUDDY)
        for column in arrays:
            if column is not None:
                assert not column.flags.writeable


# ---------------------------------------------------------------------------
# The batch entry: run_exact_many.
# ---------------------------------------------------------------------------
def recording_pool(widths):
    """A ``ThreadPoolExecutor`` that appends each pool's width to ``widths``."""
    import concurrent.futures

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            widths.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    return Recording


class PoolSpy:
    """Counts the thread pools ``run_exact_many`` builds."""

    def __init__(self, monkeypatch):
        import concurrent.futures

        self.widths = []
        monkeypatch.setattr(
            concurrent.futures, "ThreadPoolExecutor", recording_pool(self.widths)
        )


@pytest.fixture
def pool_spy(monkeypatch):
    return PoolSpy(monkeypatch)


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


def link_sweep_packs(names=("VGG16", "FF_HPGMG")):
    """Generated traces x 3 modes x 4 links, as vector_sim packs them."""
    packs = []
    for name in names:
        trace = generate_trace(name, SMALL_TRACE)
        for mode in CompressionMode:
            state = small_state(name, mode, trace)
            for link in (50.0, 100.0, 150.0, 200.0):
                packs.append(_pack(SMALL_GPU.with_link(link), trace, state))
    return packs


def fuzz_packs():
    trace, rng = fuzz_trace(7)
    config = scaled_config(sm_count=2, warps_per_sm=4)
    return [
        _pack(config.with_link(link), trace, fuzz_state(mode, rng, trace))
        for mode in CompressionMode
        for link in (50.0, 200.0)
    ]


def fan_out_probe(packs, cpus=2):
    """Run ``run_exact_many`` with a pool spy; for child processes."""
    import concurrent.futures

    widths = []
    concurrent.futures.ThreadPoolExecutor = recording_pool(widths)
    os.sched_getaffinity = lambda pid: set(range(cpus))
    results = _event_core.run_exact_many(packs)
    return results, widths, _event_core.compiled_active()


class TestRunExactMany:
    def test_matches_one_by_one_in_input_order(self, monkeypatch, pool_spy):
        packs = link_sweep_packs()
        expected = [_event_core.run_exact(*pack) for pack in packs]
        use_cpus(monkeypatch, 2)
        assert _event_core.run_exact_many(iter(packs)) == expected
        assert _event_core.run_exact_many(reversed(packs)) == expected[::-1]
        with _event_core.force_python():
            assert _event_core.run_exact_many(packs) == expected
        expected_widths = [2, 2] if _event_core.compiled_active() else []
        assert pool_spy.widths == expected_widths

    def test_shared_caches_under_thread_stress(self, monkeypatch):
        """Eight threads on fewer cores, all packs sharing one geometry
        memo and three state memos, with rapid thread switches: every
        result still equals the serial one."""
        trace = generate_trace("VGG16", SMALL_TRACE)
        states = [small_state("VGG16", mode, trace) for mode in CompressionMode]
        packs = [
            _pack(SMALL_GPU.with_link(link), trace, state)
            for _ in range(3)
            for state in states
            for link in (50.0, 100.0, 150.0, 200.0)
        ]
        expected = [_event_core.run_exact(*pack[:3]) for pack in packs]
        use_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for pack in packs:
                pack[3].pop("checked", None)
                pack[4].pop("checked", None)
            assert _event_core.run_exact_many(packs) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_accepts_packs_without_caches(self, monkeypatch):
        packs = fuzz_packs()
        use_cpus(monkeypatch, 2)
        expected = [_event_core.run_exact(*pack) for pack in packs]
        assert _event_core.run_exact_many(p[:3] for p in packs) == expected

    def test_empty_batch(self, monkeypatch, pool_spy):
        use_cpus(monkeypatch, 2)
        assert _event_core.run_exact_many([]) == []

    @needs_ext
    def test_fans_out_on_several_cpus(self, monkeypatch, pool_spy):
        use_cpus(monkeypatch, 3)
        _event_core.run_exact_many(fuzz_packs())
        assert pool_spy.widths == [3]

    def test_serial_under_force_python(self, monkeypatch, pool_spy):
        use_cpus(monkeypatch, 2)
        packs = fuzz_packs()
        with _event_core.force_python():
            results = _event_core.run_exact_many(packs)
        assert pool_spy.widths == []
        assert results == [_event_core.run_exact(*p) for p in packs]

    def test_serial_on_one_cpu(self, monkeypatch, pool_spy):
        use_cpus(monkeypatch, 1)
        packs = fuzz_packs()
        assert _event_core.run_exact_many(packs) == [
            _event_core.run_exact(*p) for p in packs
        ]
        assert pool_spy.widths == []

    def test_serial_inside_a_multiprocessing_worker(self):
        packs = [pack[:3] for pack in fuzz_packs()]
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            results, widths, compiled = pool.submit(
                fan_out_probe, packs
            ).result(timeout=120)
        assert compiled == _event_core.compiled_active()
        assert widths == []
        assert results == [_event_core.run_exact(*p) for p in packs]

    def test_serial_with_repro_no_ext(self):
        root = Path(__file__).resolve().parents[1]
        script = (
            "import json\n"
            "from repro.gpusim import _event_core\n"
            "from tests.test_event_core import fan_out_probe, fuzz_packs\n"
            "results, widths, compiled = fan_out_probe(fuzz_packs())\n"
            "print(json.dumps([_event_core._ext is None, widths, compiled,"
            " len(results)]))\n"
        )
        env = dict(
            os.environ,
            REPRO_NO_EXT="1",
            PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
        )
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=root, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        no_ext, widths, compiled, count = json.loads(done.stdout.splitlines()[-1])
        assert no_ext and widths == [] and not compiled
        assert count == len(fuzz_packs())

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_error_propagates_and_no_thread_survives(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        good = fuzz_packs()
        arrays, iscalars, fscalars = (list(part) for part in good[0][:3])
        arrays[_event_core.A_L2SET] = _set(arrays[_event_core.A_L2SET], 0, -1)
        baseline = threading.active_count()
        with pytest.raises(ValueError, match="'l2set'"):
            _event_core.run_exact_many(
                [*good[:3], (arrays, iscalars, fscalars), *good[3:]]
            )
        assert threading.active_count() == baseline

        def failing_source():
            yield from good[:2]
            raise RuntimeError("pack source failed")

        with pytest.raises(RuntimeError, match="pack source failed"):
            _event_core.run_exact_many(failing_source())
        assert threading.active_count() == baseline
        assert _event_core.run_exact_many(good) == [
            _event_core.run_exact(*p) for p in good
        ]
        assert threading.active_count() == baseline


class TestForkSafety:
    def test_fan_out_then_forked_worker_pool(self, monkeypatch, pool_spy):
        """The fig11 subset fans out in this process and lands on its
        golden; a forked worker pool then starts with no thread left
        behind (Python 3.12 warns on fork with live threads, and tier-1
        turns that into an error) and lands on the same golden."""
        from repro.analysis.perf_study import run_perf_study
        from repro.engine import ExperimentRunner, result_digest
        from tests.test_vector_sim import TestGoldenDigest

        def subset(workers):
            return run_perf_study(
                benchmarks=("VGG16", "354.cg"),
                trace_config=SMALL_TRACE,
                link_sweep=(50.0, 150.0),
                profile_config=SnapshotConfig(scale=1.0 / 65536),
                runner=ExperimentRunner(workers=workers),
            )

        use_cpus(monkeypatch, 2)
        baseline = threading.active_count()
        assert result_digest(subset(1)) == TestGoldenDigest.GOLDEN
        assert pool_spy.widths == (
            [2, 2] if _event_core.compiled_active() else []
        )
        assert threading.active_count() == baseline

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = subset(2)
        assert result_digest(result) == TestGoldenDigest.GOLDEN
        assert threading.active_count() == baseline


# ---------------------------------------------------------------------------
# repro doctor.
# ---------------------------------------------------------------------------
class TestDoctorCLI:
    def test_text_report(self, capsys, tmp_path):
        assert main(["doctor", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "event core:" in out
        assert ("compiled" in out) or ("python" in out)
        assert "numpy:" in out
        assert str(tmp_path) in out
        assert "tape" not in out

    def test_json_report(self, capsys, tmp_path):
        assert main(["doctor", "--json", "--cache-dir", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["event_core"]["event_core"] in ("compiled", "python")
        assert info["event_core"]["extension_abi"] == _event_core.EXT_ABI
        assert info["numpy"] == np.__version__
        assert info["cache"]["root"] == str(tmp_path)
        assert "tape" not in info

    def test_doctor_reflects_active_core(self, capsys, tmp_path):
        expected = (
            "compiled" if _event_core.compiled_active() else "python"
        )
        assert main(["doctor", "--json", "--cache-dir", str(tmp_path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["event_core"]["event_core"] == expected
