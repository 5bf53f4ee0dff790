"""Run ``repro serve`` with the layer wrappers installed.

Usage: ``python serve_launcher.py --trace FILE serve [repro serve flags]``.
The server runs exactly as ``python -m repro serve`` would; when it is
interrupted (SIGINT), the launcher writes the recorded spans, the
per-layer metrics and the service's own counters to ``FILE``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _service_metrics(services) -> dict:
    if not services:
        return {}
    service = services[-1]
    stats = service.stats
    hot = service.hot.stats.per_namespace.get("serve.advice", [0, 0, 0])
    lookups = hot[0] + hot[1]
    return {
        "serve.batches": stats.batches,
        "serve.batch_size_mean": (
            stats.batched_requests / stats.batches if stats.batches else 0.0
        ),
        "serve.hot.hit_ratio": hot[0] / lookups if lookups else 0.0,
        "serve.rejected": stats.rejected,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace":
        print(__doc__, file=sys.stderr)
        return 2
    trace_file, serve_argv = argv[1], argv[2:]

    import layers
    from repro import cli
    from repro.serve.service import AdvisorService
    from spans import Recorder

    recorder = Recorder(run_id=f"serve/{os.getpid()}")
    layers.install(recorder)
    services = []
    original_start = AdvisorService.start

    async def start(self):
        services.append(self)
        return await original_start(self)

    AdvisorService.start = start
    code = 0
    try:
        code = cli.main(serve_argv)
    except KeyboardInterrupt:
        pass
    finally:
        with open(trace_file, "w") as handle:
            json.dump(
                {
                    "run_id": recorder.run_id,
                    "spans": recorder.spans,
                    "metrics": layers.layer_metrics(
                        recorder, _service_metrics(services)
                    ),
                },
                handle,
            )
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
