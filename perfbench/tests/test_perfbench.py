"""Tests of the benchmark's own code.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json

import pytest

import layers
import run
from spans import Recorder, chrome_trace, layer_self_times, self_times
from stats import backlog_growing, nearest_rank, summarize, tail_percentile


# ---------------------------------------------------------------------------
# The percentile rule: the highest percentile with ten samples beyond it.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (100, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    ordered = list(range(count))
    beyond = sum(v > nearest_rank(ordered, expected) for v in ordered)
    assert beyond >= 10 or count < 20


def test_nearest_rank_and_summary():
    values = list(range(1, 1001))  # 1..1000
    assert nearest_rank(values, 50.0) == 500
    assert nearest_rank(values, 99.0) == 990
    summary = summarize(list(reversed(values)))
    assert summary == {"n": 1000, "p50": 500, "tail_percentile": 99.0, "tail": 990}


def test_summary_of_tiny_sample_reports_the_median():
    assert summarize([3.0, 1.0, 2.0]) == {
        "n": 3, "p50": 2.0, "tail_percentile": 50.0, "tail": 2.0,
    }


# ---------------------------------------------------------------------------
# Self time over nested spans.
# ---------------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a: the union 1..6 is covered once
        ["leaf", 2.0, 3.0, 1],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])
    assert layer_self_times(spans) == pytest.approx(
        {"root": 5.0, "a": 2.0, "b": 3.0, "leaf": 1.0}
    )


def test_recorder_nests_wrapped_calls_and_sums_self_time():
    recorder = Recorder("unit")
    inner = recorder.wrap("inner", lambda: 1)
    outer = recorder.wrap("outer", lambda: inner() + inner())
    assert outer() == 2
    names = [(name, parent) for name, _, _, parent in recorder.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    own = layer_self_times(recorder.spans)
    total = recorder.spans[0][2] - recorder.spans[0][1]
    assert own["outer"] + own["inner"] == pytest.approx(total)
    assert all(value >= 0 for value in own.values())


def test_recorder_closes_spans_when_the_call_raises():
    recorder = Recorder("unit")
    errors = []

    def hook(rec, args, kwargs, result, error):
        errors.append(error)

    def boom():
        raise KeyError("x")

    wrapped = recorder.wrap("boom", boom, hook)
    with pytest.raises(KeyError):
        wrapped()
    assert recorder.spans[0][2] is not None
    assert isinstance(errors[0], KeyError)


def test_chrome_trace_events():
    events = chrome_trace([["a", 1.0, 1.5, -1], ["b", 1.1, 1.2, 0]], "run-7")
    assert events[0]["ph"] == "X" and events[0]["ts"] == 0.0
    assert events[0]["dur"] == pytest.approx(5e5)
    assert events[1]["args"] == {"span": 1, "parent": 0, "run_id": "run-7"}
    json.dumps({"traceEvents": events})


# ---------------------------------------------------------------------------
# The backlog detector behind advice_max_rps.
# ---------------------------------------------------------------------------
def test_backlog_detector_accepts_a_settled_queue():
    settled = [3, 5, 4, 6, 5, 4, 5, 3, 6, 5, 4, 5] * 20
    assert not backlog_growing(settled)


def test_backlog_detector_flags_a_growing_queue():
    growing = list(range(1, 400))
    assert backlog_growing(growing)


def test_backlog_detector_flags_a_cut_phase_and_ignores_tiny_ones():
    assert backlog_growing([1, 1, 1, 1, 1, 1, 1, 1], cut_short=True)
    assert not backlog_growing([1, 50, 100])


# ---------------------------------------------------------------------------
# A digest mismatch counts as a failure.
# ---------------------------------------------------------------------------
def test_digest_mismatch_counts_as_failure():
    check = run.DigestCheck([["fig7", "aa"], ["fig9", "bb"]])
    check.check([["fig7", "aa"], ["fig9", "bb"]], 2)
    assert (check.attempted, check.failed, check.verified) == (2, 0, True)
    check.check([["fig7", "aa"], ["fig9", "XX"]], 2)
    assert (check.attempted, check.failed) == (4, 1)
    check.check(None, 2)  # the iteration raised
    assert (check.attempted, check.failed) == (6, 3)


def test_unrecorded_seed_checks_repetitions_against_each_other():
    check = run.DigestCheck(None)
    check.check([["fig5b", "aa"]], 1)
    check.check([["fig5b", "aa"]], 1)
    assert (check.failed, check.verified) == (0, False)
    check.check([["fig5b", "zz"]], 1)
    assert check.failed == 1


# ---------------------------------------------------------------------------
# Wrapper coverage: each named layer records work on a small version of
# the workload meant to exercise it.
# ---------------------------------------------------------------------------
def _small_workloads(tmp_path):
    from repro.engine import ExperimentRunner, ResultCache
    from repro.gpusim.config import scaled_config
    from repro.um.oversubscription import UMConfig
    from repro.workloads.snapshots import SnapshotConfig
    from repro.workloads.traces import TraceConfig

    tiny = SnapshotConfig(scale=1.0 / 262144, min_footprint_bytes=256 * 1024)
    small_trace = TraceConfig(
        sm_count=4,
        warps_per_sm=8,
        memory_instructions_per_warp=24,
        snapshot_config=SnapshotConfig(scale=1.0 / 16384, min_footprint_bytes=256 * 1024),
    )
    runner = ExperimentRunner(cache=ResultCache(str(tmp_path / "cache")))
    return runner, {
        "compress-cold": [
            ("compression.fig3", {"benchmarks": ("356.sp",), "config": tiny}),
            ("compression.fig7", {"benchmarks": ("356.sp",), "config": tiny}),
        ],
        "simulate-warm": [
            ("perf.fig11", {
                "benchmarks": ("VGG16",),
                "config": scaled_config(sm_count=4, warps_per_sm=8),
                "trace_config": small_trace,
                "link_sweep": (150.0,),
            }),
            ("correlation.fig10", {"benchmarks": ("354.cg",), "instruction_scales": (6,)}),
        ],
        "replay-cold": [
            ("metadata.fig5b", {"benchmarks": ("354.cg",), "trace_config": small_trace}),
            ("um.fig12", {
                "benchmarks": ("360.ilbdc",),
                "levels": (0.2,),
                "config": UMConfig(footprint_pages=128, sweeps=2),
            }),
        ],
    }


#: Per workload, the counters its layers must advance.
EXERCISED = {
    "compress-cold": (
        "compression.calls", "compression.blocks", "compression.bpc.blocks",
        "workloads.snapshot.calls", "core.profile.calls", "core.evaluate.calls",
        "engine.cache.put.calls", "engine.cache.get.calls", "engine.points",
    ),
    "simulate-warm": (
        "workloads.trace.calls", "workloads.trace.instructions",
        "gpusim.event_core.calls", "gpusim.resolve.calls", "gpusim.reference.calls",
        "engine.cache.get.hits", "engine.points",
    ),
    "replay-cold": ("core.metadata.accesses", "um.replay.calls", "workloads.trace.calls"),
    "advise-open": ("serve.advise_batch.calls", "core.evaluate.calls"),
}


def test_every_layer_records_work_on_its_workload(tmp_path):
    from repro.engine import execute_plan, plan

    import advise

    runner, workloads = _small_workloads(tmp_path)
    for name, requests in workloads.items():
        recorder = Recorder(name)
        patches = layers.install(recorder)
        try:
            if name == "simulate-warm":
                # Second pass: the profile artifacts come from the cache.
                execute_plan(plan(requests, runner), runner)
            execute_plan(plan(requests, runner), runner)
        finally:
            layers.uninstall(patches)
        missing = [key for key in EXERCISED[name] if recorder.counts[key] <= 0]
        assert not missing, f"{name}: no work recorded for {missing}"
        metrics = layers.layer_metrics(recorder)
        named = {m["name"] for m in run.SPEC["per_layer"]}
        assert set(metrics) == named - {"trace.overhead_s"}

    recorder = Recorder("advise-open")
    patches = layers.install(recorder)
    try:
        from repro.serve.advisor import advise_batch
        from repro.workloads.snapshots import SnapshotConfig

        tiny = SnapshotConfig(scale=1.0 / 262144, min_footprint_bytes=256 * 1024)
        advise_batch(advise.working_set(1, 4, tiny))
    finally:
        layers.uninstall(patches)
    missing = [k for k in EXERCISED["advise-open"] if recorder.counts[k] <= 0]
    assert not missing, f"advise-open: no work recorded for {missing}"


def test_uninstall_restores_every_original():
    from repro.core import profiler
    from repro.engine.cache import ResultCache

    before = (profiler.profile_tensors_bulk, ResultCache.__dict__["get"])
    patches = layers.install(Recorder("restore"))
    assert profiler.profile_tensors_bulk is not before[0]
    layers.uninstall(patches)
    assert (profiler.profile_tensors_bulk, ResultCache.__dict__["get"]) == before
