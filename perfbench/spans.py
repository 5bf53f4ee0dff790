"""In-memory span recording, self-time accounting and Chrome trace export.

Spans are recorded from the benchmark's side of each layer boundary:
:class:`Recorder.wrap` returns a wrapper that opens a span named after
the layer, calls the real function and closes the span.  Each span
holds its name, start, end (``time.monotonic`` seconds), the index of
the span that was open when it started (its parent, ``-1`` for none)
and the run id of the recorder.  Nothing is written until the run
ends: :func:`chrome_trace` turns the list into trace-event JSON that
Perfetto or ``chrome://tracing`` opens.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict


class Recorder:
    """Collects spans and counters for one run of one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.last = -1  # index of the span closed most recently
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self.last = index
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped} open)")

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`open` / :meth:`close`."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, name: str, fn, hook=None):
        """Wrap ``fn`` in a span named ``name``.

        ``hook(recorder, args, kwargs, result, error)`` runs after the
        call, outside the span, to count the work the call did.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                self.close(index)
                if hook is not None:
                    hook(self, args, kwargs, None, error)
                raise
            self.close(index)
            if hook is not None:
                hook(self, args, kwargs, result, None)
            return result

        return wrapper


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        clipped = [
            (max(start, s), min(end, e))
            for s, e in children.get(index, ())
            if min(end, e) > max(start, s)
        ]
        out.append((end - start) - _covered(clipped))
    return out


def layer_self_times(spans: list) -> dict[str, float]:
    """Self time summed per span name."""
    totals: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name] += own
    return dict(totals)


def chrome_trace(spans: list, run_id: str) -> list[dict]:
    """Complete ("X") trace events, microseconds from the first span."""
    if not spans:
        return []
    origin = min(start for _, start, _, _ in spans)
    return [
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"span": index, "parent": parent, "run_id": run_id},
        }
        for index, (name, start, end, parent) in enumerate(spans)
    ]
