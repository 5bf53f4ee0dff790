"""The ``c-twin-drift`` pass.

``_event_core_ext.c`` is a hand-written, line-for-line transcription
of ``_event_core.py``; the two communicate over a packed
struct-of-arrays ABI.  A layout edit that forgets one twin is only
caught dynamically today — *if* a digest happens to change.  This
pass fails CI before any simulation runs by cross-checking, statically:

``ctwin-abi``
    ``EXT_ABI = N`` in the Python module against ``#define EXT_ABI N``
    in the C file.  (The ABI gate at import time only *rejects stale
    builds*; it cannot catch the twin edit that forgot to bump either
    side.)
``ctwin-layout``
    The ``ARRAYS`` / ``ISCALARS`` / ``FSCALARS`` packing tuples (the
    ``A_*`` / ``I_*`` / ``F_*`` index constants): names, order and
    count must match the C ``enum`` blocks exactly (the C sentinel
    ``*_COUNT`` tail must equal the Python tuple length).
``ctwin-missing``
    One of the two source files is absent.

The Python side is parsed with ``ast``; the C side with targeted
regexes over the comment-stripped text (the file is hand-written to a
fixed idiom precisely so this stays checkable).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.statics.framework import Context, Finding, Pass, Severity

#: The two twin-contract source files, package-relative.
PY_CORE = "gpusim/_event_core.py"
C_CORE = "gpusim/_event_core_ext.c"

#: Packing groups by constant-name prefix (underscore-terminated).
GROUP_PREFIXES = ("A", "I", "F")


@dataclass
class PySide:
    """What ``ast`` extracts from the Python twin."""

    abi: int | None = None
    abi_line: int = 0
    groups: dict[str, list[str]] = field(default_factory=dict)
    group_lines: dict[str, int] = field(default_factory=dict)


@dataclass
class CSide:
    """What the targeted regexes extract from the C twin."""

    abi: int | None = None
    enums: dict[str, list[str]] = field(default_factory=dict)


def _prefix_of(name: str) -> str | None:
    head = name.split("_", 1)[0]
    return head if head in GROUP_PREFIXES else None


def parse_py_core(source: str) -> PySide:
    """Extract ABI and packing tuples from the Python core."""
    side = PySide()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and target.id == "EXT_ABI"
                and isinstance(node.value, ast.Constant)
            ):
                side.abi = node.value.value
                side.abi_line = node.lineno
            elif isinstance(target, ast.Tuple) and all(
                isinstance(e, ast.Name) for e in target.elts
            ):
                names = [e.id for e in target.elts]
                prefix = _prefix_of(names[0])
                if prefix and all(_prefix_of(n) == prefix for n in names):
                    side.groups[prefix] = names
                    side.group_lines[prefix] = node.lineno
    return side


_C_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
_C_ABI = re.compile(r"#define\s+EXT_ABI\s+(\d+)")
_C_ENUM = re.compile(r"enum\s*\{([^}]*)\}")


def parse_c_core(source: str) -> CSide:
    """Extract ABI and enum blocks from the C twin."""
    side = CSide()
    stripped = _C_COMMENT.sub(" ", source)
    abi = _C_ABI.search(stripped)
    if abi:
        side.abi = int(abi.group(1))
    for block in _C_ENUM.findall(stripped):
        names = [
            part.split("=")[0].strip()
            for part in block.split(",")
            if part.strip()
        ]
        prefix = _prefix_of(names[0]) if names else None
        if prefix is None:
            continue
        # Drop the C-only sentinel (A_COUNT, I_COUNT, ...).
        if names[-1] == f"{prefix}_COUNT":
            names = names[:-1]
        side.enums[prefix] = names
    return side


def compare_twins(
    py_source: str,
    c_source: str,
    py_path: str = PY_CORE,
    c_path: str = C_CORE,
) -> list[Finding]:
    """All drift findings between the two event-core twins."""
    py = parse_py_core(py_source)
    c = parse_c_core(c_source)
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

    # -- ABI -----------------------------------------------------------
    if py.abi is None:
        error("ctwin-abi", py_path, 0, "EXT_ABI constant not found")
    if c.abi is None:
        error("ctwin-abi", c_path, 0, "#define EXT_ABI not found")
    if py.abi is not None and c.abi is not None and py.abi != c.abi:
        error(
            "ctwin-abi",
            c_path,
            0,
            f"C EXT_ABI is {c.abi} but Python EXT_ABI is {py.abi}; "
            "the twins disagree on the pack layout version",
        )

    # -- packing layout ------------------------------------------------
    for prefix in GROUP_PREFIXES:
        py_names = py.groups.get(prefix)
        c_names = c.enums.get(prefix)
        label = f"{prefix}_* pack"
        if py_names is None:
            error(
                "ctwin-layout", py_path, 0, f"{label}: Python tuple not found"
            )
            continue
        if c_names is None:
            error("ctwin-layout", c_path, 0, f"{label}: C enum not found")
            continue
        if py_names != c_names:
            line = py.group_lines.get(prefix, 0)
            if len(py_names) != len(c_names):
                detail = (
                    f"Python has {len(py_names)} slots, C has "
                    f"{len(c_names)}"
                )
            else:
                diffs = [
                    f"slot {i}: Python {a!r} vs C {b!r}"
                    for i, (a, b) in enumerate(zip(py_names, c_names))
                    if a != b
                ]
                detail = "; ".join(diffs)
            error(
                "ctwin-layout",
                py_path,
                line,
                f"{label} drifted between the twins ({detail}); every "
                "layout edit must change _event_core.py and "
                "_event_core_ext.c together and bump EXT_ABI",
            )

    return findings


class CTwinDriftPass(Pass):
    name = "c-twin-drift"
    description = (
        "_event_core_ext.c agrees with _event_core.py on EXT_ABI and "
        "the array-pack layout"
    )
    rules = ("ctwin-abi", "ctwin-layout", "ctwin-missing")

    def run(self, ctx: Context) -> list[Finding]:
        package_root = ctx.src_root / ctx.package
        paths = {
            name: package_root / name
            for name in (PY_CORE, C_CORE)
        }
        missing = [
            ctx.rel(path) for path in paths.values() if not path.is_file()
        ]
        if missing:
            return [
                Finding(
                    rule="ctwin-missing",
                    severity=Severity.ERROR,
                    path=path,
                    line=0,
                    message="event-core twin source file is missing",
                )
                for path in missing
            ]
        return compare_twins(
            ctx.source(paths[PY_CORE]),
            Path(paths[C_CORE]).read_text(),
            py_path=ctx.rel(paths[PY_CORE]),
            c_path=ctx.rel(paths[C_CORE]),
        )
