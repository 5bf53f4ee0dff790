"""Buddy Compression — the paper's primary contribution.

The engine follows the paper's flow end to end:

1. :mod:`repro.core.profiler` runs the profiling pass over a smaller
   dataset (the paper: SpecAccel ``train``, DL small batch) and builds
   the columnar :class:`~repro.core.profile_tensor.ProfileTensor` of
   per-allocation compressed-size histograms.
2. :mod:`repro.core.targets` turns the tensor into per-allocation
   target compression ratios under a Buddy Threshold, including the
   naive whole-program baseline and the 16x zero-page promotion.
3. :mod:`repro.core.allocator` and :mod:`repro.core.translation` model
   the split device/buddy layout: GBBR-relative carve-out addressing,
   page-table extension bits and the 4-bit-per-entry size metadata.
4. :mod:`repro.core.metadata_cache` models the sliced metadata cache
   (Fig. 5b), and :mod:`repro.core.stack_distance` computes the exact
   LRU stack-distance histograms that size it (and the Fig. 12
   Unified Memory residency) in one pass per stream.
5. :mod:`repro.core.controller` ties it together: profile → annotate →
   place → measure compression ratio and buddy traffic on the
   reference run (Figs. 7, 8, 9).
"""

from repro.core.entry import TargetRatio, ALLOWED_TARGETS
from repro.core.histogram import SectorHistogram
from repro.core.profile_tensor import EntryStateTensor, ProfileTensor
from repro.core.profiler import (
    AllocationProfile,
    BenchmarkProfile,
    entry_state_tensor,
    profile_benchmark,
    profile_tensor,
)
from repro.core.targets import (
    DesignPoint,
    select_naive,
    select_per_allocation,
    apply_zero_page,
    selection_ratio,
    threshold_sweep,
)
from repro.core.controller import BuddyCompressor, BuddyConfig, EvaluationResult

__all__ = [
    "TargetRatio",
    "ALLOWED_TARGETS",
    "SectorHistogram",
    "ProfileTensor",
    "EntryStateTensor",
    "AllocationProfile",
    "BenchmarkProfile",
    "entry_state_tensor",
    "profile_benchmark",
    "profile_tensor",
    "DesignPoint",
    "select_naive",
    "select_per_allocation",
    "apply_zero_page",
    "selection_ratio",
    "threshold_sweep",
    "BuddyCompressor",
    "BuddyConfig",
    "EvaluationResult",
]
