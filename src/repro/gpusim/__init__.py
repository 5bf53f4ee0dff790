"""Dependency-driven GPU performance simulator.

A Python reimplementation of the class of simulator the paper uses
(Section 4.1): in-order SMs with greedy-then-oldest warp scheduling, a
sectored two-level cache hierarchy, HBM2 channels, and NVLink bricks,
driven by warp-instruction traces.  Compression hooks implement the
three memory-system modes of Fig. 11:

* ``ideal`` — no compression, unlimited-capacity baseline;
* ``bandwidth`` — link compression between L2 and DRAM only;
* ``buddy`` — full Buddy Compression: metadata cache, buddy-memory
  overflow sectors over the interconnect, decompression latency.

The simulator ships two bit-identical engines behind one front door
(:class:`DependencyDrivenSimulator`): the default ``"vectorized"``
batched-event core (:mod:`repro.gpusim.vector_sim`) and the
``"legacy"`` per-access oracle it is pinned against.  The contract is
documented in ``docs/engines.md``.  :mod:`repro.gpusim.reference`
provides a cycle-stepped reference machine used as the silicon proxy
for the Fig. 10 correlation study.
"""

from repro.gpusim.config import GPUConfig, LinkConfig, scaled_config
from repro.gpusim.compression import CompressionMode, CompressionState
from repro.gpusim.simulator import (
    ENGINES,
    DependencyDrivenSimulator,
    SimResult,
    check_engine,
)
from repro.gpusim.trace import ColumnarTrace, KernelTrace, WarpTrace
from repro.gpusim.vector_cache import VectorSectoredCache
from repro.gpusim.vector_sim import VectorizedSimulator

__all__ = [
    "GPUConfig",
    "LinkConfig",
    "scaled_config",
    "CompressionMode",
    "CompressionState",
    "DependencyDrivenSimulator",
    "VectorizedSimulator",
    "VectorSectoredCache",
    "ENGINES",
    "check_engine",
    "SimResult",
    "ColumnarTrace",
    "KernelTrace",
    "WarpTrace",
]
