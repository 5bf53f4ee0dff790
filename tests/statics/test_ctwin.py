"""c-twin-drift: the live twins agree, and every drift class is caught.

The mutation tests run :func:`compare_twins` over the *real* source
files with one planted edit, so they prove the pass would catch the
corresponding real-world mistake (editing one twin and forgetting the
other).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.statics.ctwin import (
    CTwinDriftPass,
    compare_twins,
    parse_c_core,
    parse_py_core,
)
from repro.statics.framework import Context

_GPUSIM = Path(repro.__file__).parent / "gpusim"


@pytest.fixture(scope="module")
def sources():
    return (
        (_GPUSIM / "_event_core.py").read_text(),
        (_GPUSIM / "_event_core_ext.c").read_text(),
    )


def test_live_twins_have_no_drift(sources):
    assert compare_twins(*sources) == []


def test_parsers_extract_the_contract_anchors(sources):
    py_source, c_source = sources
    py = parse_py_core(py_source)
    c = parse_c_core(c_source)

    assert py.abi == c.abi
    assert set(py.groups) == {"A", "I", "F"}
    assert py.groups == c.enums
    assert len(py.groups["A"]) > 10  # the big array pack, not a stub


def test_abi_bump_on_one_side_is_caught(sources):
    py_source, c_source = sources
    mutated = c_source.replace("#define EXT_ABI", "#define EXT_ABI 9 //", 1)
    findings = compare_twins(py_source, mutated)
    assert any(f.rule == "ctwin-abi" for f in findings)


def test_renamed_enum_slot_is_caught(sources):
    py_source, c_source = sources
    name = parse_c_core(c_source).enums["A"][0]
    mutated = re.sub(rf"\b{name}\b", f"{name}_RENAMED", c_source)
    findings = compare_twins(py_source, mutated)
    assert any(
        f.rule == "ctwin-layout" and "A_* pack" in f.message
        for f in findings
    )


def test_dropped_python_pack_slot_is_caught(sources):
    py_source, c_source = sources
    py = parse_py_core(py_source)
    first = py.groups["I"][0]
    slots = len(py.groups["I"])
    mutated = py_source.replace(f"{first},", "", 1)
    findings = compare_twins(mutated, c_source)
    assert any(
        f.rule == "ctwin-layout"
        and "I_* pack" in f.message
        and f"Python has {slots - 1} slots, C has {slots}" in f.message
        for f in findings
    )


def test_pass_reports_missing_twin_files(tmp_path):
    ctx = Context(tmp_path, tmp_path / "src", "fixpkg")
    (tmp_path / "src/fixpkg/gpusim").mkdir(parents=True)
    findings = CTwinDriftPass().run(ctx)
    assert findings
    assert {f.rule for f in findings} == {"ctwin-missing"}


def test_pass_runs_clean_on_the_live_tree():
    assert CTwinDriftPass().run(Context.for_repo()) == []
