"""Golden pins for the Fig. 5b and Fig. 12 LRU studies.

The digests and raw hit/fault counts below were recorded from the
scalar replays (one ``MetadataCache`` per size, one ``ResidencySet``
per oversubscription level).  Any replacement of those replays must
reproduce every count and every float bit for bit.
"""

import pytest

from repro.analysis.metadata_study import (
    DEFAULT_SIZES,
    metadata_access_stream,
    metadata_row,
)
from repro.analysis.um_study import FIG12_BENCHMARKS, um_benchmark_curve
from repro.core.metadata_cache import MetadataCache
from repro.engine.cache import result_digest
from repro.um.oversubscription import UMConfig, _page_stream, um_slowdown
from repro.um.pages import ResidencySet
from repro.workloads.snapshots import SnapshotConfig
from repro.workloads.traces import TraceConfig

FIG5B_TRACE = TraceConfig(
    sm_count=8,
    warps_per_sm=16,
    memory_instructions_per_warp=64,
    snapshot_config=SnapshotConfig(scale=1.0 / 2048),
)
#: benchmark -> (stream length, hits per cache size in DEFAULT_SIZES order)
FIG5B_HITS = {
    "351.palm": (8192, (5908, 5908, 6990, 8038, 8038, 8038, 8038)),
    "355.seismic": (8192, (5841, 5841, 6526, 8024, 8024, 8024, 8024)),
    "360.ilbdc": (8192, (2210, 4549, 8076, 8076, 8076, 8076, 8076)),
}
FIG5B_DIGEST = "0b9cb375e4a5173c60328bfeccdf479a"

FIG12_CONFIG = UMConfig(footprint_pages=256, accesses_per_page=8, sweeps=4)
#: benchmark -> (stream length, faults per level in FIG12_LEVELS order)
FIG12_FAULTS = {
    "360.ilbdc": (7776, (243, 601, 1342, 2077, 2881)),
    "356.sp": (6528, (204, 204, 204, 816, 816)),
    "351.palm": (13056, (204, 204, 204, 816, 816)),
}
FIG12_DIGEST = "45265b4d95cd9eb5c9412c819065d636"
#: ``um_slowdown("356.sp", 0.49)``, the Sec. 4.3 comparison point.
SEC43_DIGEST = "326a3c72031b4ef63baf0c8310b76be0"


def test_fig5b_hits_and_digest():
    rows = []
    for benchmark, (length, hits) in FIG5B_HITS.items():
        assert len(metadata_access_stream(benchmark, FIG5B_TRACE)) == length
        row = metadata_row(benchmark, DEFAULT_SIZES, FIG5B_TRACE)
        assert tuple(row.hit_rates) == DEFAULT_SIZES
        assert tuple(round(row.hit_rates[s] * length) for s in DEFAULT_SIZES) == hits
        rows.append(row)
    assert result_digest(rows) == FIG5B_DIGEST


def test_fig12_faults_and_digest():
    curves = []
    for benchmark in FIG12_BENCHMARKS:
        length, faults = FIG12_FAULTS[benchmark]
        assert _page_stream(benchmark, FIG12_CONFIG).size == length
        curve = um_benchmark_curve(benchmark, config=FIG12_CONFIG)
        assert tuple(round(r.fault_rate * length) for r in curve) == faults
        curves.append(curve)
    assert result_digest(curves) == FIG12_DIGEST


def test_sec43_point_digest():
    assert result_digest(um_slowdown("356.sp", 0.49, FIG12_CONFIG)) == SEC43_DIGEST


def test_studies_make_no_per_access_calls(monkeypatch):
    """Both studies read the kernel's histograms; neither replays its
    stream through the scalar LRU models."""

    def replay(*args):
        raise AssertionError("scalar LRU replay on a study path")

    monkeypatch.setattr(MetadataCache, "access_line", replay)
    monkeypatch.setattr(MetadataCache, "access_entry", replay)
    monkeypatch.setattr(ResidencySet, "touch", replay)
    metadata_row("351.palm", DEFAULT_SIZES, FIG5B_TRACE)
    um_benchmark_curve("360.ilbdc", config=FIG12_CONFIG)
    with pytest.raises(AssertionError):
        MetadataCache(4096, 4, 1).access_line(0)
