"""The layer table: which public functions are timed, and under which name.

:func:`install` wraps each function listed in :data:`FUNCTIONS` (a
module attribute, replaced in every ``repro`` module that imported it
by name) and :data:`METHODS` (a class attribute, which every caller
reaches through the class), so a traced run records one span per
call without any change to the program.  :func:`layer_metrics` turns
the recorded spans and counters into the per-layer metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import sys

from spans import Recorder, layer_self_times

#: Codec classes whose ``compressed_sizes`` is timed, by span suffix.
CODECS = {
    "bpc": ("repro.compression.bpc", "BPCCompressor"),
    "bdi": ("repro.compression.bdi", "BDICompressor"),
    "cpack": ("repro.compression.cpack", "CPackCompressor"),
    "fpc": ("repro.compression.fpc", "FPCCompressor"),
    "zeroblock": ("repro.compression.zeroblock", "ZeroBlockCompressor"),
}


def _codec_hook(codec: str):
    def hook(recorder, args, kwargs, result, error):
        if error is not None:
            return
        rows = int(args[1].shape[0])  # compressed_sizes(self, blocks)
        # Count only outermost codec calls: a codec delegating to
        # another would otherwise count its blocks twice.
        if _nested_in(recorder, "compression."):
            return
        recorder.count("compression.calls")
        recorder.count("compression.blocks", rows)
        recorder.count(f"compression.{codec}.blocks", rows)
        recorder.peak("compression.max_blocks_per_call", rows)

    return hook


def _nested_in(recorder: Recorder, prefix: str) -> bool:
    """Whether the span just closed sits inside another ``prefix`` span."""
    parent = recorder.spans[recorder.last][3]
    while parent >= 0:
        if recorder.spans[parent][0].startswith(prefix):
            return True
        parent = recorder.spans[parent][3]
    return False


def _counter(key: str):
    def hook(recorder, args, kwargs, result, error):
        if error is None:
            recorder.count(key)

    return hook


def _trace_hook(recorder, args, kwargs, result, error):
    if error is None:
        recorder.count("workloads.trace.calls")
        recorder.count("workloads.trace.instructions", result.instruction_count)


def _sim_hook(key: str):
    def hook(recorder, args, kwargs, result, error):
        if error is None:
            recorder.count(key)
            # run(self, trace, state)
            recorder.count("gpusim.instructions", args[1].instruction_count)

    return hook


def _stream_hook(recorder, args, kwargs, result, error):
    if error is None:
        recorder.count("core.metadata.stream", len(result))


def _metadata_row_hook(recorder, args, kwargs, result, error):
    if error is None:
        # metadata_row(benchmark, sizes, trace_config) replays its one
        # stream once per size.
        stream = recorder.counts.pop("core.metadata.stream", 0)
        recorder.count("core.metadata.accesses", stream * len(args[1]))


def _cache_get_hook(recorder, args, kwargs, result, error):
    from repro.engine.cache import CacheMiss

    recorder.count("engine.cache.get.calls")
    if error is None:
        recorder.count("engine.cache.get.hits")
    elif not isinstance(error, CacheMiss):
        recorder.count("engine.cache.get.errors")


def _cache_put_hook(recorder, args, kwargs, result, error):
    if error is None:
        cache, key = args[0], args[1]
        recorder.count("engine.cache.put.calls")
        try:
            recorder.count("engine.cache.put_bytes", cache.path_for(key).stat().st_size)
        except OSError:
            pass


#: (module, attribute, span name, hook factory or hook)
FUNCTIONS = (
    ("repro.workloads.snapshots", "generate_snapshot", "workloads.snapshot",
     _counter("workloads.snapshot.calls")),
    ("repro.workloads.traces", "generate_trace", "workloads.trace", _trace_hook),
    ("repro.core.profiler", "profile_tensors_bulk", "core.profile",
     _counter("core.profile.calls")),
    ("repro.core.profiler", "profile_tensor", "core.profile",
     _counter("core.profile.calls")),
    ("repro.core.controller", "evaluate_selections_batch", "core.evaluate",
     _counter("core.evaluate.calls")),
    ("repro.analysis.metadata_study", "metadata_access_stream", "core.metadata",
     _stream_hook),
    ("repro.analysis.metadata_study", "metadata_row", "core.metadata",
     _metadata_row_hook),
    ("repro.um.oversubscription", "um_slowdown", "um.replay",
     _counter("um.replay.calls")),
    ("repro.um.oversubscription", "pinned_slowdown", "um.replay",
     _counter("um.replay.calls")),
    ("repro.gpusim._event_core", "run_exact", "gpusim.event_core",
     _counter("gpusim.event_core.calls")),
    ("repro.engine.runner", "run_point_seeded", "analysis",
     _counter("engine.points")),
    ("repro.serve.advisor", "advise_batch", "serve.advise_batch",
     _counter("serve.advise_batch.calls")),
)

#: (module, class, method, span name, hook)
METHODS = (
    ("repro.gpusim.vector_sim", "VectorizedSimulator", "run", "gpusim.resolve",
     _sim_hook("gpusim.resolve.calls")),
    ("repro.gpusim.reference", "CycleSteppedReference", "run", "gpusim.reference",
     _sim_hook("gpusim.reference.calls")),
    ("repro.engine.cache", "ResultCache", "get", "engine.cache.get", _cache_get_hook),
    ("repro.engine.cache", "ResultCache", "put", "engine.cache.put", _cache_put_hook),
) + tuple(
    (module, cls, "compressed_sizes", f"compression.{codec}", _codec_hook(codec))
    for codec, (module, cls) in CODECS.items()
)

#: Modules imported before wrapping so every by-name import site exists.
PRELOAD = (
    "repro.analysis.compression_study",
    "repro.analysis.correlation_study",
    "repro.analysis.metadata_study",
    "repro.analysis.perf_study",
    "repro.analysis.um_study",
    "repro.engine.experiments",
    "repro.engine.planner",
    "repro.gpusim.vector_sim",
    "repro.serve.service",
)


def install(recorder: Recorder) -> list[tuple]:
    """Wrap every listed function and method.

    Returns the ``(owner, attribute, original)`` patches, which
    :func:`uninstall` reverts.
    """
    for name in PRELOAD:
        importlib.import_module(name)
    patches = []
    for module_name, attribute, span, hook in FUNCTIONS:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        wrapper = recorder.wrap(span, original, hook)
        for site in list(sys.modules.values()):
            if not getattr(site, "__name__", "").startswith("repro"):
                continue
            if getattr(site, attribute, None) is original:
                patches.append((site, attribute, original))
                setattr(site, attribute, wrapper)
    for module_name, class_name, method, span, hook in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__.get(method)
        if original is None:
            raise LookupError(f"{class_name}.{method} is not defined on the class")
        patches.append((cls, method, original))
        setattr(cls, method, recorder.wrap(span, original, hook))
    return patches


def uninstall(patches: list[tuple]) -> None:
    """Put back what :func:`install` replaced."""
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder, extra: dict | None = None) -> dict[str, float]:
    """The per-layer metrics of one traced run, zero where a layer idled."""
    own = layer_self_times(recorder.spans)
    counts = recorder.counts
    compression_s = sum(v for k, v in own.items() if k.startswith("compression."))
    gpusim_s = sum(
        own.get(k, 0.0)
        for k in ("gpusim.event_core", "gpusim.resolve", "gpusim.reference")
    )
    gets = counts["engine.cache.get.calls"]
    batches = [(s, e) for n, s, e, _ in recorder.spans if n == "serve.advise_batch"]
    serve_busy = sum(e - s for s, e in batches)
    serve_window = (
        max(e for _, e in batches) - min(s for s, _ in batches) if batches else 0.0
    )
    metrics = {
        "compression.s": compression_s,
        "compression.calls": counts["compression.calls"],
        "compression.blocks": counts["compression.blocks"],
        "compression.blocks_per_s": _ratio(counts["compression.blocks"], compression_s),
        "compression.bpc.s": own.get("compression.bpc", 0.0),
        "compression.bpc.blocks": counts["compression.bpc.blocks"],
        "compression.max_blocks_per_call": recorder.maxima.get(
            "compression.max_blocks_per_call", 0
        ),
        "workloads.snapshot.s": own.get("workloads.snapshot", 0.0),
        "workloads.snapshot.calls": counts["workloads.snapshot.calls"],
        "workloads.trace.s": own.get("workloads.trace", 0.0),
        "workloads.trace.calls": counts["workloads.trace.calls"],
        "workloads.trace.instructions": counts["workloads.trace.instructions"],
        "core.profile.s": own.get("core.profile", 0.0),
        "core.profile.calls": counts["core.profile.calls"],
        "core.evaluate.s": own.get("core.evaluate", 0.0),
        "core.evaluate.calls": counts["core.evaluate.calls"],
        "core.metadata.s": own.get("core.metadata", 0.0),
        "core.metadata.accesses": counts["core.metadata.accesses"],
        "um.replay.s": own.get("um.replay", 0.0),
        "um.replay.calls": counts["um.replay.calls"],
        "gpusim.event_core.s": own.get("gpusim.event_core", 0.0),
        "gpusim.event_core.calls": counts["gpusim.event_core.calls"],
        "gpusim.resolve.s": own.get("gpusim.resolve", 0.0),
        "gpusim.reference.s": own.get("gpusim.reference", 0.0),
        "gpusim.instructions_per_s": _ratio(counts["gpusim.instructions"], gpusim_s),
        "engine.plan.s": own.get("engine.plan", 0.0),
        "engine.cache.put.s": own.get("engine.cache.put", 0.0),
        "engine.cache.put.calls": counts["engine.cache.put.calls"],
        "engine.cache.put_bytes": counts["engine.cache.put_bytes"],
        "engine.cache.get.s": own.get("engine.cache.get", 0.0),
        "engine.cache.get.calls": gets,
        "engine.cache.hit_ratio": _ratio(counts["engine.cache.get.hits"], gets),
        "engine.points": counts["engine.points"],
        "engine.overhead.s": own.get("engine.overhead", 0.0),
        "analysis.s": own.get("analysis", 0.0),
        "serve.advise_batch.s": own.get("serve.advise_batch", 0.0),
        "serve.busy_frac": _ratio(serve_busy, serve_window),
        "serve.batches": 0,
        "serve.batch_size_mean": 0.0,
        "serve.hot.hit_ratio": 0.0,
        "serve.rejected": 0,
    }
    metrics.update(extra or {})
    return {name: float(value) for name, value in metrics.items()}

