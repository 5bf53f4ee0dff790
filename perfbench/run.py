"""The repository benchmark: four workloads over the paper sweep and the advisor.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload compress-cold --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``compress-cold`` — Figs. 3, 7, 8 and 9 as one planned sweep into an
  empty cache: the codec-bound cold path;
* ``simulate-warm`` — Figs. 11 and 10 from a cache holding only the
  ``profile.*`` artifacts: the simulator-bound developer loop;
* ``replay-cold`` — Figs. 5b and 12 cold: the scalar LRU replays;
* ``advise-open`` — open-loop advice clients against ``repro serve``.

Every run first builds the compiled event core when a C compiler is
present, then reproduces the test suite's cheap golden digests and
aborts on a mismatch.  Batch workloads run each iteration in a fresh
process (``worker.py``) and repeat it for about ``--seconds``.  With ``--trace 0`` the last line of standard output is a
JSON object carrying the end-to-end metrics; with ``--trace 1`` the
run is repeated once with the layer wrappers installed, and the line
carries the per-layer metrics instead.  Spans are written as Chrome
trace-event JSON under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

from statistics import median

from spans import chrome_trace, layer_self_times
from stats import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
REFERENCES = os.path.join(HERE, "reference_digests.json")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


#: Workloads and metrics, as BENCHMARK.json declares them.
SPEC = load_spec()
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
BATCH_WORKLOADS = tuple(w for w in WORKLOADS if w != "advise-open")
#: Set-up-only processes started per batch run (each iteration adds one
#: more sample).
SETUP_SAMPLES = 6
CHILD_TIMEOUT_S = 170

#: Simulated outputs and the values the paper reports for them.
PAPER = {
    "ratio_final_hpc": 1.90,
    "ratio_final_dl": 1.50,
    "fig11_buddy150_gmean": 0.985,
}

#: The twelve user-visible metrics, in report order, with units.
REPORTED = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_ratio", "ratio"),
    ("advice_p50_ms.r200", "ms"),
    ("advice_p99_ms.r200", "ms"),
    ("advice_p50_ms.r800", "ms"),
    ("advice_p99_ms.r800", "ms"),
    ("advice_max_rps", "1/s"),
    ("ratio_final_hpc", "x"),
    ("ratio_final_dl", "x"),
    ("fig11_buddy150_gmean", "x"),
)


class BenchError(Exception):
    """A run that must stop without printing a result."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def run_child(argv: list[str], what: str) -> dict:
    """Run a Python child from the checkout root; its last line is JSON."""
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{what} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Preparation: compiled event core, golden gate, environment.
# ---------------------------------------------------------------------------
def build_event_core() -> str:
    """Build the optional compiled event core in place when a compiler exists."""
    import sysconfig

    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        return "no compiler; pure-Python event core"
    source = os.path.join(ROOT, "src", "repro", "gpusim", "_event_core_ext.c")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    target = os.path.join(ROOT, "src", "repro", "gpusim", "_event_core_ext" + suffix)
    if os.path.exists(target) and os.path.getmtime(target) >= os.path.getmtime(source):
        return "compiled event core up to date"
    done = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", os.path.join(BUILD_DIR, "temp"),
         "--build-lib", os.path.join(BUILD_DIR, "lib")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0 or not os.path.exists(target):
        raise BenchError(f"compiled event core failed to build: {done.stderr[-2000:]}", 3)
    return "compiled event core built"


def source_digest() -> str:
    """Content hash of the program's sources.

    It identifies the code measured where :func:`commit` cannot: a
    checkout exported without its git metadata.
    """
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".c")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def golden_gate() -> dict:
    """Reproduce the cheap goldens; abort the run on any mismatch."""
    try:
        gate = run_child([os.path.join(HERE, "worker.py"), "--goldens"], "golden gate")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        raise BenchError(f"golden gate could not run: {err}", 4) from None
    bad = [k for k, v in gate["expected"].items() if gate["goldens"].get(k) != v]
    if bad:
        raise BenchError(f"golden digest mismatch: {', '.join(bad)}: {gate['goldens']}", 4)
    event_core = gate["environment"]["event_core"]
    if event_core.get("extension_stale"):
        raise BenchError("compiled event core is stale (ABI mismatch)", 3)
    return gate["environment"]


def load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Batch workloads.
# ---------------------------------------------------------------------------
class DigestCheck:
    """Counts experiments that raised or whose digest did not match.

    With a recorded reference for the (workload, seed) the digests are
    verified against it; for an unrecorded seed the first iteration is
    the baseline every later iteration must repeat, and the run is
    reported as unverified.
    """

    def __init__(self, reference: list | None) -> None:
        self.reference = reference
        self.verified = reference is not None
        self.attempted = 0
        self.failed = 0

    def check(self, digests: list | None, count: int) -> None:
        """Account ``count`` outputs (``digests`` None when they raised)."""
        self.attempted += count
        if digests is None:
            self.failed += count
            return
        if self.reference is None:
            self.reference = digests
        mismatched = sum(got != want for got, want in zip(digests, self.reference))
        self.failed += mismatched + abs(len(digests) - len(self.reference))


def iteration(workload: str, seed: int, cache: str, trace_file: str | None = None,
              setup_only: bool = False) -> tuple[float, dict]:
    argv = [os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--cache", cache]
    if setup_only:
        argv.append("--setup-only")
    if trace_file:
        argv += ["--trace", trace_file]
    spawned = time.monotonic()
    out = run_child(argv, f"{workload} iteration")
    return out["ready"] - spawned, out


def more_iterations(elapsed: float, done: int, seconds: float) -> bool:
    """Whether another iteration fits: measure for about ``seconds``.

    Another iteration starts only if, at the mean pace so far, it ends
    no later than half an iteration past ``seconds``; a workload whose
    single iteration is long therefore runs it once, not twice.
    """
    return elapsed + 0.5 * elapsed / done < seconds


def run_batch(workload: str, seed: int, seconds: float, trace: bool, out: str,
              reference: list | None) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from worker import requests_for

    expected_count = len(requests_for(workload, seed))
    warm = None
    if workload == "simulate-warm":
        warm = os.path.join(out, "profiles")
        run_child([os.path.join(HERE, "worker.py"), "--prepare", "--workload", workload,
                   "--seed", str(seed), "--cache", warm], "profile preparation")

    def fresh_cache(name: str) -> str:
        path = os.path.join(out, name)
        if warm:
            shutil.copytree(warm, path)
        else:
            os.makedirs(path)
        return path

    setup = []
    for sample in range(SETUP_SAMPLES):
        cache = fresh_cache(f"setup{sample}")
        setup.append(iteration(workload, seed, cache, setup_only=True)[0])
        shutil.rmtree(cache)

    check = DigestCheck(reference)
    iterations = []
    started = time.monotonic()
    while not iterations or (not trace and more_iterations(time.monotonic() - started,
                                                          len(iterations), seconds)):
        cache = fresh_cache(f"cache{len(iterations)}")
        try:
            ready, result = iteration(workload, seed, cache)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
            print(f"iteration failed: {err}", file=sys.stderr)
            check.check(None, expected_count)
            iterations.append(None)
            continue
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        setup.append(ready)
        check.check(result["digests"], expected_count)
        iterations.append(result)
    done = [r for r in iterations if r is not None]
    if not done:
        raise BenchError(f"every {workload} iteration failed", 5)

    summary = {
        "setup_samples": setup,
        "wall_samples": [r["wall_s"] for r in done],
        "setup_s": median(setup),
        "wall_s": median([r["wall_s"] for r in done]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in done]),
        "outputs": done[0]["outputs"],
        "digests": done[0]["digests"],
        "check": check,
    }
    if trace:
        trace_file = os.path.join(out, "spans.json")
        cache = fresh_cache("traced")
        try:
            _, traced = iteration(workload, seed, cache, trace_file=trace_file)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        check.check(traced["digests"], expected_count)
        with open(trace_file) as handle:
            summary["trace"] = json.load(handle)
        summary["traced_wall_s"] = traced["wall_s"]
    if warm:
        shutil.rmtree(warm, ignore_errors=True)
    return summary


# ---------------------------------------------------------------------------
# advise-open.
# ---------------------------------------------------------------------------
def run_advise(seed: int, seconds: float, trace: bool, out: str,
               reference: list | None) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import advise

    traffic = advise.Traffic(seed)
    check = DigestCheck(reference)
    check.check([traffic.digest()], 1)
    session = advise.run_session(ROOT, seconds, traffic)
    summary = {
        "setup_samples": session["report"]["setup_samples"],
        "wall_samples": session["report"]["bursts"],
        "setup_s": session["setup_s"],
        "wall_s": session["wall_s"],
        "peak_rss_mb": session["peak_rss_mb"],
        "outputs": {k: v for k, v in session["report"].items()
                    if k.startswith("advice_") or k == "lateness_p99_ms"},
        "rungs": session["report"]["rungs"],
        "digests": [traffic.digest()],
        "failure_reasons": session["failure_reasons"],
        "check": check,
    }
    check.attempted += session["attempted"]
    check.failed += session["failed"]
    if trace:
        traced = advise.run_session(
            ROOT, seconds, traffic, trace_file=os.path.join(out, "spans.json")
        )
        check.attempted += traced["attempted"]
        check.failed += traced["failed"]
        summary["trace"] = traced["trace"]
        summary["traced_wall_s"] = traced["wall_s"]
    return summary


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------
def _format(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(workload: str, seed: int, env: dict, summary: dict) -> None:
    check = summary["check"]
    core = env["event_core"]
    print(
        f"perfbench {workload} seed={seed} event_core={core['event_core']} "
        f"stale={core['extension_stale']} python={env['python']} "
        f"numpy={env['numpy']} nproc={env['nproc']} source={env['source']} "
        f"commit={env['commit']}"
    )
    values = {
        "setup_s": summary["setup_s"],
        "wall_s": summary["wall_s"],
        "peak_rss_mb": summary["peak_rss_mb"],
        "failed_ratio": check.failed / check.attempted if check.attempted else 0.0,
        **summary["outputs"],
    }
    for name, unit in REPORTED:
        line = f"  {name:24s} {_format(values.get(name)):>12s} {unit}"
        if name in ("setup_s", "wall_s"):
            s = summarize(summary[name.replace("_s", "_samples")])
            line += f"   median of n={s['n']}"
            if s["tail_percentile"] > 50.0:
                line += f", p{s['tail_percentile']:g} {s['tail']:.6g}"
        if name in PAPER and values.get(name) is not None:
            line += f"   paper {PAPER[name]}"
        print(line)
    if "lateness_p99_ms" in values:
        print(f"  {'generator lateness p99':24s} {_format(values['lateness_p99_ms']):>12s} ms")
    status = (
        "checked against the recorded reference" if check.verified
        else "unverified: seed not recorded, repetitions compared"
    )
    digests = " ".join(d if isinstance(d, str) else d[1] for d in summary["digests"])
    print(f"  digests ({status}): {digests}")


def print_layers(workload: str, summary: dict, trace_path: str) -> None:
    """Self time per layer, as seconds and as a share of the traced window."""
    spans = summary["trace"]["spans"]
    own = layer_self_times(spans)
    window = max(end for _, _, end, _ in spans) - min(start for _, start, _, _ in spans)
    print(f"self time by layer, {workload}: traced window {window:.4g} s, "
          f"wall_s traced {summary['traced_wall_s']:.4g} s vs untraced "
          f"{summary['wall_s']:.4g} s")
    for name, seconds in sorted(own.items(), key=lambda item: -item[1]):
        print(f"  {name:24s} {seconds:10.4f} s {100.0 * seconds / window:6.1f} %")
    print(f"chrome trace: {os.path.relpath(trace_path, ROOT)}")


def write_chrome_trace(summary: dict, path: str) -> None:
    events = chrome_trace(summary["trace"]["spans"], summary["trace"]["run_id"])
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        out = os.path.join(OUT_ROOT, f"{args.workload}-s{args.seed}-{os.getpid()}")
        os.makedirs(out)
        build = build_event_core()
        env = golden_gate()
        env.update(source=source_digest(), commit=commit(), build=build)
        reference = load_references().get(args.workload, {}).get(str(args.seed))
        if args.workload == "advise-open":
            summary = run_advise(args.seed, args.seconds, bool(args.trace), out, reference)
        else:
            summary = run_batch(args.workload, args.seed, args.seconds,
                                bool(args.trace), out, reference)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return err.code

    print_report(args.workload, args.seed, env, summary)
    check = summary["check"]
    if args.trace:
        trace_path = os.path.join(out, "trace.json")
        write_chrome_trace(summary, trace_path)
        print_layers(args.workload, summary, trace_path)
        values = {
            **summary["trace"]["metrics"],
            "trace.overhead_s": summary["traced_wall_s"] - summary["wall_s"],
        }
        table = SPEC["per_layer"]
    else:
        values, table = summary, SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "digests": summary["digests"],
        "verified": check.verified,
        "outputs": summary["outputs"],
        "setup_samples": summary["setup_samples"],
        "wall_samples": summary["wall_samples"],
        "rungs": summary.get("rungs"),
        "failure_reasons": summary.get("failure_reasons"),
        "metrics": metrics,
    }
    with open(os.path.join(out, "result.json"), "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": max(1, check.attempted),
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
