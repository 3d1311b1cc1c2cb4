"""Byte-identity of CLI output against the benchmark's recorded golden file.

Every ``session``, ``verify-ladder`` and ``families`` op of ``perfbench``
is run in this process through ``cli.main``; its exit code and stdout must
equal what ``perfbench/golden/outputs.json.gz`` recorded, with
``elapsed_seconds`` masked in ``corpus`` output.  The golden file is only
read.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys
from pathlib import Path

import pytest

from spectop.cli import main

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import golden  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def recorded():
    with gzip.open(golden.GOLDEN_PATH, "rt", encoding="utf-8") as handle:
        return json.load(handle)["ops"]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, golden.mask(argv, out.getvalue())


def _mismatches(recorded, ops):
    wrong = []
    for argv in ops:
        expected = recorded[golden.op_key(argv)]
        if _run(argv) != (expected["exit"], expected["stdout"]):
            wrong.append(argv)
    return wrong


def test_session_ops_match_golden(recorded):
    ops = [argv for argv, _ in workloads.session_cells()]
    assert _mismatches(recorded, ops) == []


def test_verify_ladder_ops_match_golden(recorded):
    assert _mismatches(recorded, workloads.ladder_ops()) == []


def test_families_ops_match_golden(recorded):
    assert _mismatches(recorded, workloads.family_ops()) == []
