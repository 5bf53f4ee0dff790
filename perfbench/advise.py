"""The ``advise-open`` workload: independent advice clients against ``repro serve``.

The server runs as a child process (``python -m repro serve``, or
``serve_launcher.py`` when traced).  The generator here is one process
with one asyncio loop and ``nproc`` TCP connections.  Each request is
an allocation histogram resampled from the real profile of a catalog
benchmark, drawn Zipf-style from a working set of twice the server's
default hot-cache size, so hot-cache hits and misses both occur.  A
session measures:

* set-up: server start until its first answer, several times;
* ``wall_s``: closed bursts (a fixed number of requests, each client
  waiting for its reply before the next), median over the bursts;
* an open-loop ladder of Poisson arrival rates, each request timed
  from the moment it was due; ``advice_max_rps`` is the highest rate
  up to which every rung's p99 stays within the limit with no growing
  backlog.

Every answer's digest is compared with ``repro.api.advise`` on the same
request; after the session the first served payload of each request is
digested again on the client side, so a payload that does not match
its own digest also counts as a failure.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np

from statistics import median

from stats import backlog_growing, summarize

#: Popularity of the working set: rank r is drawn with weight r^-s.
#: s = 1 is an assumption (classic Zipf); no advisor traffic has been
#: recorded to fit it from.
ZIPF_EXPONENT = 1.0
#: Closed-loop clients per burst and requests per burst.
CLOSED_CLIENTS = 32
BURST_REQUESTS = 2000
MIN_BURSTS = 3
#: Offered rates of the open-loop ladder, requests/second.  Rates up
#: to the largest reported one always run; past it the ladder stops at
#: the first rung that misses the latency limit.
LADDER = (200, 400, 800, 1200, 1600, 2400, 3200)
REPORTED_RATES = (200, 800)
#: Requests offered per rung: enough for ten samples beyond p99.
RUNG_REQUESTS = 1000
LATENCY_LIMIT_MS = 20.0
REQUEST_TIMEOUT_S = 10.0
SETUP_SAMPLES = 5


@functools.lru_cache(maxsize=None)
def serve_defaults():
    """The flags ``repro serve`` runs with when none are given."""
    from repro.cli import build_parser

    return build_parser().parse_args(["serve"])


def working_set_size() -> int:
    """Twice the server's default hot-cache bound (``--hot-entries``)."""
    return 2 * serve_defaults().hot_entries


def backlog_cut() -> int:
    """Unanswered requests at which a rung is cut short.

    Half the server's default admission bound (``--max-pending``), so
    the generator stops offering load before the server would reject.
    """
    return serve_defaults().max_pending // 2


def catalog_profiles(config) -> list:
    """The real profile of every catalog benchmark under ``config``."""
    from repro.core.profiler import profile_tensor
    from repro.workloads.catalog import ALL_BENCHMARKS

    return [profile_tensor(benchmark.name, config) for benchmark in ALL_BENCHMARKS]


def resampled_request(base, label: str, rng: np.random.Generator):
    """A histogram request shaped like ``base``, with its entries resampled.

    Every (allocation, snapshot) row keeps its entry total; the entries
    are redrawn over the sector buckets with the row's own bucket mix,
    and the zero-page entries within bucket 0 likewise.  The result has
    the real profile's allocations, snapshots and footprint fractions,
    as another run of the same benchmark would.
    """
    from repro.serve import AdviceRequest, build_histogram

    totals = base.counts.sum(axis=2)
    mix = base.counts / np.maximum(totals, 1)[:, :, None]
    mix[totals == 0] = 1.0 / base.counts.shape[2]
    counts = rng.multinomial(totals, mix)
    zero_share = base.zero_fit / np.maximum(base.counts[:, :, 0], 1)
    zero_fit = rng.binomial(counts[:, :, 0], zero_share)
    return AdviceRequest(
        histogram=build_histogram(label, base.names, base.fractions, counts, zero_fit)
    )


def working_set(seed: int, size: int, config=None) -> list:
    """``size`` requests, cycling over the catalog's profiles at ``config``.

    ``config`` defaults to the default-scale snapshot configuration with
    the workload seed.
    """
    from repro.workloads.snapshots import SnapshotConfig

    bases = catalog_profiles(config or SnapshotConfig(seed=seed))
    requests = []
    for index in range(size):
        base = bases[index % len(bases)]
        rng = np.random.default_rng([seed, index])
        requests.append(resampled_request(base, f"{base.benchmark}~{index}", rng))
    return requests


class Traffic:
    """The seeded request mix: working set, popularity and schedules."""

    def __init__(self, seed: int) -> None:
        from repro import api

        size = working_set_size()
        self.rng = np.random.default_rng(seed)
        self.requests = working_set(seed, size)
        ranks = self.rng.permutation(size) + 1
        weights = 1.0 / ranks.astype(float) ** ZIPF_EXPONENT
        self.popularity = weights / weights.sum()
        self.expected = [api.advise(request).digest for request in self.requests]
        #: The first served answer of each request, checked after the
        #: session by recomputing its payload digest (untimed).
        self.first_answers: dict = {}

    def draw(self, count: int) -> np.ndarray:
        return self.rng.choice(len(self.requests), size=count, p=self.popularity)

    def arrivals(self, rate: float, count: int) -> np.ndarray:
        """Poisson arrival offsets (seconds) at ``rate`` requests/second."""
        return np.cumsum(self.rng.exponential(1.0 / rate, size=count))

    def digest(self) -> str:
        from repro.engine.cache import result_digest

        return result_digest(self.expected)

    def recheck_payloads(self, tally: "Tally") -> None:
        """Count served payloads whose own digest differs from the expected one."""
        from repro.engine.cache import result_digest

        for index, advice in self.first_answers.items():
            if result_digest(advice.payload) != self.expected[index]:
                tally.fail("payload-mismatch")
        self.first_answers.clear()


class Server:
    """``repro serve`` as a child process."""

    def __init__(self, root: str, trace_file: str | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        serve_args = ["serve", "--no-cache", "--port", "0"]
        if trace_file:
            here = os.path.dirname(os.path.abspath(__file__))
            argv = [sys.executable, os.path.join(here, "serve_launcher.py"),
                    "--trace", trace_file, *serve_args]
        else:
            argv = [sys.executable, "-m", "repro", *serve_args]
        self.started = time.monotonic()
        self.process = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline()
        if not line.startswith("advisor listening on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split()[3]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Tally:
    """Attempts, failures and their reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


async def _ask(client, traffic: Traffic, index: int, tally: Tally) -> bool:
    """One request; True when answered correctly."""
    from repro.serve import AdviceError, ServiceOverloaded

    tally.attempted += 1
    try:
        advice = await asyncio.wait_for(
            client.advise(traffic.requests[index]), REQUEST_TIMEOUT_S
        )
    except ServiceOverloaded:
        tally.fail("rejected")
        return False
    except asyncio.TimeoutError:
        tally.fail("timeout")
        return False
    except (AdviceError, ConnectionError, OSError):
        tally.fail("error")
        return False
    if advice.digest != traffic.expected[index]:
        tally.fail("mismatch")
        return False
    traffic.first_answers.setdefault(index, advice)
    return True


async def _connect(server: Server, count: int):
    from repro.serve import AdvisorClient

    return [await AdvisorClient.connect(server.host, server.port) for _ in range(count)]


async def _close(clients) -> None:
    for client in clients:
        await client.aclose()


async def first_answer(server: Server, traffic: Traffic, tally: Tally) -> float:
    """Seconds from the server's spawn until its first answer arrived."""
    (client,) = await _connect(server, 1)
    try:
        await _ask(client, traffic, 0, tally)
    finally:
        await _close([client])
    return time.monotonic() - server.started


async def closed_burst(clients, traffic: Traffic, tally: Tally) -> float:
    """Seconds to answer one burst of closed-loop requests."""
    order = iter(traffic.draw(BURST_REQUESTS).tolist())

    async def user(client) -> None:
        for index in order:
            await _ask(client, traffic, index, tally)

    started = time.monotonic()
    users = [
        asyncio.ensure_future(user(clients[i % len(clients)]))
        for i in range(CLOSED_CLIENTS)
    ]
    await asyncio.gather(*users)
    return time.monotonic() - started


async def open_rung(clients, traffic: Traffic, rate: float, tally: Tally) -> dict:
    """Offer ``RUNG_REQUESTS`` Poisson arrivals at ``rate``; time from due."""
    offsets = traffic.arrivals(rate, RUNG_REQUESTS)
    indices = traffic.draw(RUNG_REQUESTS).tolist()
    latencies: list[float] = []
    lateness: list[float] = []
    in_flight_samples: list[int] = []
    in_flight = 0
    cut_short = False
    cut = backlog_cut()

    async def send(client, index: int, due: float) -> None:
        nonlocal in_flight
        ok = await _ask(client, traffic, index, tally)
        in_flight -= 1
        latencies.append((time.monotonic() - due) * 1e3 if ok else float("inf"))

    tasks = []
    start = time.monotonic()
    for position, (offset, index) in enumerate(zip(offsets.tolist(), indices)):
        due = start + offset
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        now = time.monotonic()
        lateness.append((now - due) * 1e3)
        if in_flight >= cut:
            cut_short = True
            break
        in_flight += 1
        in_flight_samples.append(in_flight)
        tasks.append(
            asyncio.ensure_future(send(clients[position % len(clients)], index, due))
        )
    await asyncio.gather(*tasks)
    summary = summarize(latencies)
    growing = backlog_growing(in_flight_samples, cut_short)
    return {
        "rate": rate,
        "sent": len(tasks),
        "p50_ms": summary["p50"],
        "tail_percentile": summary["tail_percentile"],
        "tail_ms": summary["tail"],
        "lateness_p99_ms": summarize(lateness)["tail"],
        "backlog_growing": growing,
        "meets_limit": (
            not growing
            and summary["tail_percentile"] >= 99.0
            and summary["tail"] <= LATENCY_LIMIT_MS
        ),
    }


async def _session(root: str, seconds: float, trace_file, traffic) -> dict:
    tally = Tally()
    setup = []
    for sample in range(SETUP_SAMPLES):
        last = sample == SETUP_SAMPLES - 1
        # The last server started is the one the session measures.
        server = Server(root, trace_file if last else None)
        try:
            setup.append(await first_answer(server, traffic, tally))
        except BaseException:
            server.stop()
            raise
        if not last:
            server.stop()
    try:
        clients = await _connect(server, os.cpu_count() or 1)
        try:
            # Warm the hot cache to its steady state (untimed).
            await closed_burst(clients, traffic, tally)
            bursts = []
            burst_started = time.monotonic()
            while len(bursts) < MIN_BURSTS or time.monotonic() - burst_started < seconds / 2:
                bursts.append(await closed_burst(clients, traffic, tally))
            rungs = []
            for rate in LADDER:
                if rate > max(REPORTED_RATES) and not rungs[-1]["meets_limit"]:
                    break
                rungs.append(await open_rung(clients, traffic, rate, tally))
        finally:
            await _close(clients)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    traffic.recheck_payloads(tally)
    max_rps = 0.0
    for rung in rungs:
        if not rung["meets_limit"]:
            break
        max_rps = rung["rate"]
    by_rate = {r["rate"]: r for r in rungs}
    report = {
        "setup_samples": setup,
        "bursts": bursts,
        "rungs": rungs,
        "advice_max_rps": max_rps,
        "lateness_p99_ms": max(r["lateness_p99_ms"] for r in rungs),
    }
    for rate in REPORTED_RATES:
        report[f"advice_p50_ms.r{rate}"] = by_rate[rate]["p50_ms"]
        report[f"advice_p99_ms.r{rate}"] = by_rate[rate]["tail_ms"]
    return {
        "setup_s": median(setup),
        "wall_s": median(bursts),
        "peak_rss_mb": peak_rss,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failure_reasons": tally.reasons,
        "report": report,
    }


def run_session(root: str, seconds: float, traffic: Traffic,
                trace_file: str | None = None) -> dict:
    """One advise-open session; traced when ``trace_file`` is given."""
    result = asyncio.run(_session(root, seconds, trace_file, traffic))
    if trace_file:
        with open(trace_file) as handle:
            result["trace"] = json.load(handle)
    return result
