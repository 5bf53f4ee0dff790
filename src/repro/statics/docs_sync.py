"""The ``docs-sync`` pass.

The documentation checker, run by ``repro check`` (the CI ``statics``
job) and by ``tests/test_docs.py``.  Docs rot in four ways this
catches mechanically:

``docs-link``
    A relative markdown link in a tracked doc stops resolving (file
    moved or renamed).
``docs-readme``
    README.md no longer links one of the docs' front doors.
``docs-experiment``
    A documented ``repro run <experiment>`` name drifts from the
    experiment registry (resolved statically from the same
    ``register(Experiment(...))`` parse the salt pass uses — no
    imports are executed).
``docs-digest``
    A digest quoted in the docs (full 32-hex or abbreviated
    ``36fffebd…`` form) is not pinned by any test.
"""

from __future__ import annotations

import re

from repro.statics.framework import Context, Finding, Pass, Severity
from repro.statics.salts import (
    RegistrationParseError,
    parse_registrations,
)

#: Markdown files whose relative links must resolve.
DOC_FILES = (
    "README.md",
    "docs/architecture.md",
    "docs/engines.md",
    "docs/planner.md",
    "docs/serving.md",
    "docs/statics.md",
)

#: Links README must carry (the docs' front doors).
REQUIRED_README_LINKS = (
    "docs/architecture.md",
    "docs/engines.md",
    "docs/planner.md",
    "docs/serving.md",
    "docs/statics.md",
)

#: Test files whose digest literals are the source of truth.
DIGEST_TEST_FILES = ("tests/test_vector_sim.py",)

_LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(?:#[^)\s]*)?\)")
_RUN_NAME = re.compile(r"repro run ([a-z_]+\.[a-z0-9_]+)")
_DIGEST = re.compile(r"\b[0-9a-f]{32}\b")
#: Abbreviated digests in prose, e.g. "36fffebd…" / "282a94e8...".
_SHORT_DIGEST = re.compile(r"\b([0-9a-f]{8})(?:…|\.\.\.)")


def check_docs(ctx: Context) -> list[Finding]:
    """All documentation-consistency findings for the repo."""
    findings: list[Finding] = []

    def error(rule: str, path: str, line: int, message: str) -> None:
        findings.append(
            Finding(
                rule=rule,
                severity=Severity.ERROR,
                path=path,
                line=line,
                message=message,
            )
        )

    docs: dict[str, str] = {}
    for name in DOC_FILES:
        path = ctx.repo_root / name
        if not path.is_file():
            error("docs-link", name, 0, "tracked documentation file is missing")
            continue
        docs[name] = path.read_text()

    # -- registry names, resolved statically ---------------------------
    try:
        registered = {
            registration.name
            for registration in parse_registrations(ctx)
        }
    except RegistrationParseError as exc:
        registered = None
        error(
            "docs-experiment",
            "src/repro/engine/experiments.py",
            0,
            f"cannot resolve registered experiment names: {exc}",
        )

    # -- test-pinned digests -------------------------------------------
    pinned: set[str] = set()
    for test_file in DIGEST_TEST_FILES:
        path = ctx.repo_root / test_file
        if path.is_file():
            pinned.update(_DIGEST.findall(path.read_text()))

    for name, text in docs.items():
        doc_dir = (ctx.repo_root / name).parent
        for lineno, line in enumerate(text.splitlines(), start=1):
            for target in _LINK.findall(line):
                if "://" in target:  # external URL, not checked offline
                    continue
                if not (doc_dir / target).resolve().exists():
                    error(
                        "docs-link",
                        name,
                        lineno,
                        f"broken relative link -> {target}",
                    )
            if registered is not None:
                for experiment in _RUN_NAME.findall(line):
                    if experiment not in registered:
                        error(
                            "docs-experiment",
                            name,
                            lineno,
                            f"documents unregistered experiment "
                            f"{experiment!r}",
                        )
            for digest in _DIGEST.findall(line):
                if digest not in pinned:
                    error(
                        "docs-digest",
                        name,
                        lineno,
                        f"digest {digest} is not pinned by any test",
                    )
            for prefix in _SHORT_DIGEST.findall(line):
                if not any(full.startswith(prefix) for full in pinned):
                    error(
                        "docs-digest",
                        name,
                        lineno,
                        f"abbreviated digest {prefix}… matches no "
                        "test-pinned digest",
                    )

    if "README.md" in docs:
        for required in REQUIRED_README_LINKS:
            if required not in docs["README.md"]:
                error(
                    "docs-readme",
                    "README.md",
                    0,
                    f"README does not link {required}",
                )
    return findings


class DocsSyncPass(Pass):
    name = "docs-sync"
    description = (
        "markdown links resolve, README links the doc front doors, and "
        "documented experiment names and digests match the code"
    )
    rules = ("docs-link", "docs-readme", "docs-experiment", "docs-digest")

    def run(self, ctx: Context) -> list[Finding]:
        return check_docs(ctx)
