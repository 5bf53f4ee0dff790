"""Fig. 5b: metadata cache hit rate versus total cache size.

The study runs each benchmark's demand-miss metadata stream — derived
from its synthetic trace — against metadata caches of increasing
capacity.  Each capacity is one exact LRU stack-distance histogram
over the stream's per-set order (:mod:`repro.core.stack_distance`),
not a line-by-line replay.  At a larger footprint scale than the timing
runs (metadata capacity only matters relative to footprint), the
strided large-footprint codes (351.palm, 355.seismic) stay below the
streaming and small-footprint benchmarks, reproducing the paper's
Fig. 5b ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metadata_cache import CacheStats, MetadataCache
from repro.core.stack_distance import stack_distance_histogram
from repro.gpusim.trace import Op
from repro.units import ENTRIES_PER_METADATA_LINE, KIB, MEMORY_ENTRY_BYTES
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig, generate_trace

#: Cache sizes swept (total bytes across slices).
DEFAULT_SIZES = tuple(k * KIB for k in (1, 2, 4, 8, 16, 32, 64))


@dataclass
class MetadataStudyRow:
    benchmark: str
    hit_rates: dict[int, float]  # cache bytes -> hit rate


def metadata_access_stream(benchmark: str, config: TraceConfig) -> np.ndarray:
    """Per-access metadata entry indices, in interleaved warp order.

    Derived straight from the trace's columnar representation: memory
    rows are ranked by their position *within* their warp's memory
    stream, then by warp age, which is exactly the historical
    round-robin interleaving across per-warp streams — without ever
    materialising the per-warp tuple lists.
    """
    trace = generate_trace(benchmark, config)
    col = trace.columnar()
    memory_rows = np.flatnonzero(col.ops != int(Op.COMPUTE))
    if memory_rows.size == 0:
        return np.zeros(0, dtype=np.int64)
    entries = col.a[memory_rows] // MEMORY_ENTRY_BYTES
    # Each memory row's warp, and its rank inside that warp's stream.
    starts = col.warp_starts
    row_warp = np.searchsorted(starts, memory_rows, side="right") - 1
    memory_before = np.concatenate(
        ([0], np.cumsum(col.ops != int(Op.COMPUTE)))
    )[starts[:-1]]
    position = np.arange(memory_rows.size) - memory_before[row_warp]
    # Round-robin across warps approximates the issue interleaving:
    # position-major, warp-age-minor.
    order = np.lexsort((row_warp, position))
    return entries[order]


def metadata_row(
    benchmark: str,
    sizes=DEFAULT_SIZES,
    trace_config: TraceConfig | None = None,
) -> MetadataStudyRow:
    """One benchmark's cache-size sweep (the engine's point unit)."""
    trace_config = trace_config or TraceConfig(
        snapshot_config=SnapshotConfig(scale=1.0 / 2048)
    )
    lines = (
        metadata_access_stream(benchmark, trace_config) // ENTRIES_PER_METADATA_LINE
    )
    hit_rates = {}
    for size in sizes:
        cache = MetadataCache(size, ways=2, slices=2)
        hist, _ = stack_distance_histogram(lines, cache.set_index(lines))
        hits = int(hist[: cache.ways].sum())
        hit_rates[size] = CacheStats(hits, lines.size - hits).hit_rate
    return MetadataStudyRow(benchmark, hit_rates)


def fig5b_plan(point: dict) -> list:
    """Shared dependency graph of one Fig. 5b design point: the trace
    and the per-entry layout tensor behind it."""
    from repro.engine.planner import EntryStateSpec, TraceSpec

    trace_config = point["trace_config"]
    return [
        EntryStateSpec(
            point["benchmark"],
            trace_config.snapshot_config,
            trace_config.snapshot_index,
        ),
        TraceSpec(point["benchmark"], trace_config),
    ]


def run_metadata_study(
    benchmarks=None,
    sizes=DEFAULT_SIZES,
    trace_config: TraceConfig | None = None,
    runner=None,
) -> list[MetadataStudyRow]:
    """Sweep metadata cache sizes per benchmark (Fig. 5b)."""
    from repro.engine.runner import default_runner

    runner = runner or default_runner()
    return runner.run(
        "metadata.fig5b",
        {
            "benchmarks": tuple(benchmarks) if benchmarks else None,
            "sizes": tuple(sizes),
            "trace_config": trace_config,
        },
    )


def format_metadata_table(rows: list[MetadataStudyRow]) -> str:
    sizes = sorted(rows[0].hit_rates) if rows else []
    header = f"{'benchmark':14s} " + " ".join(
        f"{size // KIB:>4d}K" for size in sizes
    )
    lines = [header]
    for row in rows:
        cells = " ".join(f"{row.hit_rates[s]:5.2f}" for s in sizes)
        lines.append(f"{row.benchmark:14s} {cells}")
    return "\n".join(lines)
