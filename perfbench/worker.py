"""One batch iteration of a workload, in a fresh process.

``run.py`` starts this script once per iteration so that every
iteration pays the program's own per-process costs (imports, memo
warm-up) exactly as a ``repro sweep`` invocation does.  Modes:

* default — plan and execute the workload's sweep into ``--cache``
  and print one JSON line: the monotonic time at which the first
  design point could run (``ready``), the execution wall-clock,
  peak RSS, per-experiment result digests and the simulated outputs;
* ``--setup-only`` — stop once the plan is built (set-up samples);
* ``--prepare`` — build only the shared ``profile.*`` artifacts the
  sweep needs into ``--cache`` (the warm start of ``simulate-warm``);
* ``--goldens`` — reproduce the test suite's cheap golden digests and
  describe the environment.

With ``--trace FILE`` the layer wrappers are installed first and the
spans, counters and per-layer metrics are written to ``FILE``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: The goldens the test suite pins (tests/test_columnar.py,
#: tests/test_vector_sim.py); reproduced before any timed run.
GOLDENS = {
    "fig7_tiny": "6e5a5f47e4c5533d5532daefe0ef550d",
    "fig9_tiny": "ba735b7ef1d933d15ed6e7032cfaa84e",
    "fig11_subset": "36fffebd7889855276c66e53065155ba",
}

#: Fig. 11 trace seeds simulated per ``simulate-warm`` iteration:
#: more design points of the same kind, so the run is long enough to
#: time steadily without re-running cached work.
SIMULATE_TRACE_SEEDS = 3


def requests_for(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's experiment requests; the seed reaches only config seeds."""
    from repro.workloads.snapshots import SnapshotConfig
    from repro.workloads.traces import TraceConfig

    if workload == "compress-cold":
        config = SnapshotConfig(seed=seed)
        return [
            (name, {"config": config})
            for name in (
                "compression.fig3",
                "compression.fig7",
                "compression.fig8",
                "compression.fig9",
            )
        ]
    if workload == "simulate-warm":
        from repro.gpusim.config import scaled_config

        gpu = scaled_config()
        snapshots = SnapshotConfig(scale=1.0 / 2048, seed=seed)
        requests = [
            (
                "perf.fig11",
                {
                    "trace_config": TraceConfig(
                        sm_count=gpu.sm_count,
                        warps_per_sm=gpu.warps_per_sm,
                        snapshot_config=snapshots,
                        seed=seed + offset,
                    ),
                    "profile_config": SnapshotConfig(scale=1.0 / 65536, seed=seed),
                },
            )
            for offset in range(SIMULATE_TRACE_SEEDS)
        ]
        return requests + [("correlation.fig10", {})]
    if workload == "replay-cold":
        from repro.um.oversubscription import UMConfig

        return [
            (
                "metadata.fig5b",
                {
                    "trace_config": TraceConfig(
                        snapshot_config=SnapshotConfig(scale=1.0 / 2048, seed=seed),
                        seed=seed,
                    )
                },
            ),
            ("um.fig12", {"config": UMConfig(seed=seed)}),
        ]
    raise ValueError(f"unknown batch workload {workload!r}")


def outputs_for(workload: str, values: list) -> dict:
    """The simulated outputs reported beside the paper's values."""
    if workload == "compress-cold":
        study = values[1]  # compression.fig7
        return {
            "ratio_final_hpc": study.suite_summary("final", True)[0],
            "ratio_final_dl": study.suite_summary("final", False)[0],
        }
    if workload == "simulate-warm":
        return {"fig11_buddy150_gmean": values[0].overall_gmean("buddy", 150.0)}
    return {}


def environment() -> dict:
    import platform

    import numpy

    from repro.gpusim import _event_core

    return {
        "event_core": _event_core.describe(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def run_goldens() -> dict:
    from repro.analysis.perf_study import run_perf_study
    from repro.engine import ExperimentRunner, result_digest
    from repro.workloads.snapshots import SnapshotConfig
    from repro.workloads.traces import TraceConfig

    tiny = SnapshotConfig(scale=1.0 / 262144, min_footprint_bytes=256 * 1024)
    benchmarks = ("356.sp", "355.seismic", "ResNet50")
    runner = ExperimentRunner()
    got = {
        "fig7_tiny": result_digest(
            runner.run("compression.fig7", {"benchmarks": benchmarks, "config": tiny})
        ),
        "fig9_tiny": result_digest(
            runner.run(
                "compression.fig9",
                {
                    "benchmarks": benchmarks,
                    "thresholds": (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40),
                    "config": tiny,
                },
            )
        ),
    }
    small_trace = TraceConfig(
        sm_count=4,
        warps_per_sm=8,
        memory_instructions_per_warp=24,
        snapshot_config=SnapshotConfig(scale=1.0 / 16384, min_footprint_bytes=256 * 1024),
    )
    got["fig11_subset"] = result_digest(
        run_perf_study(
            benchmarks=("VGG16", "354.cg"),
            trace_config=small_trace,
            link_sweep=(50.0, 150.0),
            profile_config=SnapshotConfig(scale=1.0 / 65536),
            runner=ExperimentRunner(),
            engine_spec="vectorized",
        )
    )
    return {"goldens": got, "expected": GOLDENS, "environment": environment()}


def prepare_profiles(workload: str, seed: int, cache_dir: str) -> dict:
    """Build only the shared profile artifacts the sweep's points consume."""
    from repro.core import profiler
    from repro.engine import ExperimentRunner, ResultCache, plan

    cache = ResultCache(cache_dir)
    runner = ExperimentRunner(cache=cache)
    sweep_plan = plan(requests_for(workload, seed), runner)
    previous = profiler.set_tensor_cache(cache)
    try:
        for group in sweep_plan.merge_groups:
            profiler.profile_tensors_bulk(group.benchmarks, group.config, group.algorithm)
        for node_id in sweep_plan.entry_nodes:
            spec = sweep_plan.shared[node_id].spec
            profiler.entry_state_tensor(spec.benchmark, spec.config, spec.index)
    finally:
        profiler.set_tensor_cache(previous)
    return {"namespaces": sorted(os.listdir(cache_dir))}


def run_iteration(args, recorder) -> dict:
    from repro.engine import ExperimentRunner, ResultCache, execute_plan, plan
    from repro.engine.cache import result_digest

    requests = requests_for(args.workload, args.seed)
    runner = ExperimentRunner(cache=ResultCache(args.cache))
    span = recorder.span if recorder is not None else lambda name: contextlib.nullcontext()
    with span("engine.plan"):
        sweep_plan = plan(requests, runner)
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}
    with span("engine.overhead"):
        result = execute_plan(sweep_plan, runner)
    done = time.monotonic()
    digests = [
        [name, result_digest(value)]
        for (name, _), value in zip(requests, result.values)
    ]
    return {
        "ready": ready,
        "wall_s": done - ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
        "outputs": outputs_for(args.workload, result.values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--goldens", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args(argv)

    if args.goldens:
        out = run_goldens()
    elif args.prepare:
        out = prepare_profiles(args.workload, args.seed, args.cache)
    else:
        recorder = None
        if args.trace:
            import layers
            from spans import Recorder

            recorder = Recorder(run_id=f"{args.workload}/{args.seed}/{os.getpid()}")
            layers.install(recorder)
        out = run_iteration(args, recorder)
        if recorder is not None:
            with open(args.trace, "w") as handle:
                json.dump(
                    {
                        "run_id": recorder.run_id,
                        "spans": recorder.spans,
                        "metrics": layers.layer_metrics(recorder),
                    },
                    handle,
                )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
