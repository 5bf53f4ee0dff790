"""Compiled-vs-fallback contract of the exact-order event core.

``repro/gpusim/_event_core.py`` dispatches between the optional C
extension and the pure-Python loop.  The two must be **bit-identical**
on every observable — counters and cycles — because engine results are
digest-pinned and the compiled core must never become a cache axis.
These tests fuzz that identity across all compression modes and close
the loop against the legacy oracle.

When the extension is unavailable (or ``REPRO_NO_EXT=1``), the
equivalence tests skip and the fallback-only tests still run — CI
exercises both configurations.
"""

import json

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
