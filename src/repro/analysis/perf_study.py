"""Fig. 11 driver: performance relative to an ideal large-memory GPU.

For every benchmark, runs the dependency-driven simulator under:

* the ideal (uncompressed, unlimited-capacity) baseline;
* bandwidth-only compression;
* full Buddy Compression at each swept interconnect bandwidth
  (50/100/150/200 GB/s full-duplex, per the paper).

All results are reported as speedup relative to the ideal baseline
with a 150 GB/s interconnect, exactly as the paper normalises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.controller import BuddyCompressor, BuddyConfig
from repro.core.targets import FINAL
from repro.gpusim.compression import CompressionMode, CompressionState
from repro.gpusim.config import GPUConfig, scaled_config
from repro.gpusim.simulator import DependencyDrivenSimulator, check_engine
from repro.workloads.catalog import get_benchmark
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig, generate_trace, layout_state

#: The paper's interconnect sweep (GB/s, unidirectional full-duplex).
LINK_SWEEP = (50.0, 100.0, 150.0, 200.0)

#: The six-brick NVLink2 point every Fig. 11 series is normalised
#: against; its buddy run also reports the metadata hit rate.
REFERENCE_LINK_GBPS = 150.0


@dataclass
class BenchmarkPerf:
    """Fig. 11 series for one benchmark (speedups vs ideal@150)."""

    benchmark: str
    is_hpc: bool
    ideal_cycles: float
    bandwidth_only: float
    buddy: dict[float, float]
    metadata_hit_rate: float
    buddy_access_fraction: float


@dataclass
class PerfStudyResult:
    """Full Fig. 11 dataset."""

    per_benchmark: list[BenchmarkPerf]

    def suite_gmean(self, hpc: bool, series: str, link: float = 150.0) -> float:
        values = []
        for row in self.per_benchmark:
            if row.is_hpc != hpc:
                continue
            if series == "bandwidth":
                values.append(row.bandwidth_only)
            else:
                values.append(row.buddy[link])
        return float(np.exp(np.mean(np.log(values)))) if values else 0.0

    def overall_gmean(self, series: str, link: float = 150.0) -> float:
        values = []
        for row in self.per_benchmark:
            value = row.bandwidth_only if series == "bandwidth" else row.buddy[link]
            values.append(value)
        return float(np.exp(np.mean(np.log(values))))


def perf_benchmark_row(
    benchmark: str,
    config: GPUConfig | None = None,
    trace_config: TraceConfig | None = None,
    link_sweep=LINK_SWEEP,
    profile_config: SnapshotConfig | None = None,
    engine: str = "vectorized",
) -> BenchmarkPerf:
    """One benchmark's full Fig. 11 series (the engine's point unit).

    ``engine`` selects the simulator core: ``"vectorized"`` (default)
    and ``"legacy"`` are bit-identical, so the choice only affects
    wall-clock — the vectorized engine resolves its accesses once per
    (trace, state) and shares the resolution across the whole link
    sweep (see ``docs/engines.md``).
    """
    config = config or scaled_config()
    trace_config = trace_config or TraceConfig(
        sm_count=config.sm_count, warps_per_sm=config.warps_per_sm
    )
    profile_config = profile_config or SnapshotConfig(scale=1.0 / 65536)
    compressor = BuddyCompressor(BuddyConfig(snapshot_config=profile_config))

    trace = generate_trace(benchmark, trace_config)
    # The cached per-entry state behind the trace layout: profiling,
    # trace generation and both compression states all reuse tensors
    # served by the profiler's memo / the engine result cache, so a
    # warm design point regenerates no snapshots at all.
    layout = layout_state(benchmark, trace_config)
    selection = compressor.select(compressor.profile(benchmark), FINAL)

    ideal = DependencyDrivenSimulator(config, engine).run(
        trace, CompressionState.ideal(trace.footprint_bytes)
    )
    bandwidth_state = CompressionState.from_entry_state(
        layout, selection, CompressionMode.BANDWIDTH
    )
    bandwidth = DependencyDrivenSimulator(config, engine).run(
        trace, bandwidth_state
    )

    buddy_state = CompressionState.from_entry_state(
        layout, selection, CompressionMode.BUDDY
    )
    buddy = {}
    meta_hit = 0.0
    for link in link_sweep:
        result = DependencyDrivenSimulator(config.with_link(link), engine).run(
            trace, buddy_state
        )
        buddy[link] = ideal.cycles / result.cycles
        if link == REFERENCE_LINK_GBPS:
            meta_hit = result.metadata_hit_rate

    return BenchmarkPerf(
        benchmark=benchmark,
        is_hpc=get_benchmark(benchmark).is_hpc,
        ideal_cycles=ideal.cycles,
        bandwidth_only=ideal.cycles / bandwidth.cycles,
        buddy=buddy,
        metadata_hit_rate=meta_hit,
        buddy_access_fraction=buddy_state.buddy_access_fraction(),
    )


def fig11_plan(point: dict) -> list:
    """Shared dependency graph of one Fig. 11 design point.

    Target selection consumes the profile-role tensor at the (small)
    profiling scale; the trace generator and both compression states
    consume the per-entry state of the layout dump behind the trace
    config.  The trace itself is declared for statistics only — it is
    cheap to regenerate from a warm entry-state tensor.
    """
    from repro.compression.bpc import BPCCompressor
    from repro.engine.planner import (
        EntryStateSpec,
        ProfileTensorSpec,
        SnapshotsSpec,
        TraceSpec,
    )

    benchmark = point["benchmark"]
    profile_config = point["profile_config"].as_profile()
    trace_config = point["trace_config"]
    return [
        ProfileTensorSpec(benchmark, profile_config, BPCCompressor()),
        SnapshotsSpec(benchmark, profile_config),
        EntryStateSpec(
            benchmark, trace_config.snapshot_config, trace_config.snapshot_index
        ),
        TraceSpec(benchmark, trace_config),
    ]


def run_perf_study(
    benchmarks=None,
    config: GPUConfig | None = None,
    trace_config: TraceConfig | None = None,
    link_sweep=LINK_SWEEP,
    profile_config: SnapshotConfig | None = None,
    runner=None,
    engine_spec: str = "vectorized",
) -> PerfStudyResult:
    """Run the full Fig. 11 sweep.

    Args:
        benchmarks: Iterable of benchmark names (default: all 16).
        config: Simulator machine (default: the scaled machine).
        trace_config: Trace generation knobs.
        link_sweep: Interconnect bandwidths for the buddy runs.
        profile_config: Snapshot scaling for the profiling pass that
            picks target ratios (smaller than the trace scale — it
            only needs histograms).
        runner: :class:`repro.engine.ExperimentRunner` controlling
            parallelism and caching (default: serial, uncached).
        engine_spec: The simulator core, one of
            :data:`repro.gpusim.simulator.ENGINES`; it is a cache axis,
            so cached results never mix engines.
    """
    from repro.engine.runner import default_runner

    engine = check_engine(engine_spec)
    runner = runner or default_runner()
    if trace_config is None and config is not None:
        # Preserve the historical coupling: an explicit machine implies
        # a trace shaped for that machine's SM/warp geometry.
        trace_config = TraceConfig(
            sm_count=config.sm_count, warps_per_sm=config.warps_per_sm
        )
    return runner.run(
        "perf.fig11",
        {
            "benchmarks": tuple(benchmarks) if benchmarks else None,
            "config": config,
            "trace_config": trace_config,
            "link_sweep": tuple(link_sweep),
            "profile_config": profile_config,
            "engine": engine,
        },
    )


def format_perf_table(result: PerfStudyResult, link_sweep=LINK_SWEEP) -> str:
    """Render the Fig. 11 dataset as an ASCII table."""
    header = (
        f"{'benchmark':14s} {'bw-only':>8s} "
        + " ".join(f"bud@{int(l):<3d}" for l in link_sweep)
        + "  meta-hit"
    )
    lines = [header]
    for row in result.per_benchmark:
        buddies = " ".join(f"{row.buddy[l]:7.3f}" for l in link_sweep)
        lines.append(
            f"{row.benchmark:14s} {row.bandwidth_only:8.3f} {buddies}  {row.metadata_hit_rate:7.2f}"
        )
    for label, hpc in (("HPC", True), ("DL", False)):
        buddies = " ".join(
            f"{result.suite_gmean(hpc, 'buddy', l):7.3f}" for l in link_sweep
        )
        lines.append(
            f"{'GMEAN ' + label:14s} {result.suite_gmean(hpc, 'bandwidth'):8.3f} {buddies}"
        )
    return "\n".join(lines)
