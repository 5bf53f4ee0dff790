#!/usr/bin/env python
"""The paper's DL case study: train with larger mini-batches.

For each of the six DL workloads, finds the largest mini-batch a
12 GB GPU fits, expands capacity by the compression ratio Buddy
Compression actually achieves on that network's memory, and projects
the training-throughput gain of the larger batch (paper Fig. 13c:
+14 % on average).

The per-network ratios execute through the :mod:`repro.api` facade
(pass --workers / --cache-dir / --no-cache), sharing the result cache
with ``repro run dl.ratios`` and ``repro run dl.fig13``.
"""

import repro
from repro.dlmodel import buddy_batch_speedups, footprint_bytes
from repro.dlmodel.casestudy import mean_speedup
from repro.engine import example_runner
from repro.units import GIB


def main() -> None:
    runner = example_runner(description=__doc__)
    print("measuring per-network compression ratios (Fig. 7 pipeline)...")
    ratios = repro.run("dl.ratios", runner=runner).value
    rows = buddy_batch_speedups(ratios)

    print(f"\n{'network':14s} {'ratio':>6s} {'batch 12GB':>10s} {'with buddy':>10s} {'speedup':>8s}")
    for row in rows:
        print(
            f"{row.network:14s} {row.compression_ratio:5.2f}x "
            f"{row.baseline_batch:10d} {row.buddy_batch:10d} "
            f"{row.speedup:7.2f}x"
        )
    print(f"\nmean speedup: {mean_speedup(rows):.2f}x  (paper: 1.14x)")

    print("\nwhy: footprints vs batch size (GB)")
    for name in ("VGG16", "BigLSTM"):
        series = ", ".join(
            f"{batch}: {footprint_bytes(name, batch) / GIB:.1f}"
            for batch in (16, 32, 64, 128)
        )
        print(f"  {name:10s} {series}  <- batch 64 does not fit 12 GB")


if __name__ == "__main__":
    main()
