"""Record the reference result digests of each (workload, seed).

Usage (from the root of a checkout)::

    python3 perfbench/record_digests.py 0 12               # seeds 0..12 inclusive
    python3 perfbench/record_digests.py 0 12 advise-open   # one workload only

Runs one untimed iteration of every batch workload per seed, and the
advice answers of ``advise-open``'s working set, and merges their
digests into ``perfbench/reference_digests.json``.  ``run.py`` then
counts any later digest that differs as a failed operation.  Record
again only when a change is meant to alter results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run


def record(seed: int, workloads: tuple[str, ...]) -> dict:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import advise

    out = {}
    if "advise-open" in workloads:
        out["advise-open"] = [advise.Traffic(seed).digest()]
    os.makedirs(run.OUT_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-", dir=run.OUT_ROOT)
    try:
        for workload in (w for w in run.BATCH_WORKLOADS if w in workloads):
            cache = os.path.join(scratch, workload)
            if workload == "simulate-warm":
                run.run_child([os.path.join(run.HERE, "worker.py"), "--prepare",
                               "--workload", workload, "--seed", str(seed),
                               "--cache", cache], "profile preparation")
            _, result = run.iteration(workload, seed, cache)
            out[workload] = result["digests"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return out


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    workloads = tuple(argv[2:]) or run.WORKLOADS
    run.build_event_core()
    run.golden_gate()
    references = run.load_references()
    for seed in range(first, last + 1):
        for workload, digests in record(seed, workloads).items():
            references.setdefault(workload, {})[str(seed)] = digests
        with open(run.REFERENCES, "w") as handle:
            json.dump(references, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"seed {seed} recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
