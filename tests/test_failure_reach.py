"""A reach guard: every failure branch of a check is run by some negative
control.

The negative controls of ``harness`` and ``sring`` (the tests of
``test_harness.py`` and ``test_sring.py`` whose names hold "fail") run in
a fresh interpreter under a line collector restricted to ``harness.py``,
``sring.py`` and ``spectrum.py``.  The target lines are found in the
source by AST: every ``problems.append(`` and ``failures.append(``, every
``return`` of a check whose second element is a dict (a counterexample),
and every ``raise`` of a function in ``REFUSALS``.  A target that no
control reaches fails the guard, unless it is listed in ``UNREACHABLE``
with the reason that its function's docstring gives.  Only these controls
are traced, not all of tier-1: the tracer slows every line of the traced
files, and some tests hold time bounds.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spectop

SOURCE = Path(spectop.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
FILES = ("harness.py", "sring.py", "spectrum.py")

# The functions, by file, whose every raise is a target: the refusal of an
# int that is no point set, which the checks' public entries call.
REFUSALS = {("spectrum.py", "check_mask")}

# Target lines that no patch can reach, as (file, function, line text), each
# with the reason its function's docstring states.  A control reaches every
# target today.
UNREACHABLE: dict[tuple[str, str, str], str] = {}

# Runs the selected tests with a line collector on FILES, then prints the
# lines each file reached as JSON on the last line of its output.
_TRACED_RUN = """
import json, os, sys
import pytest
import spectop
root = os.path.dirname(spectop.__file__)
files = {os.path.join(root, name): name for name in sys.argv[1].split(",")}
reached = {}

def collect(frame, event, arg):
    name = files.get(frame.f_code.co_filename)
    if name is None:
        return None
    lines = reached.setdefault(name, set())

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local

sys.settrace(collect)
code = pytest.main(sys.argv[2:])
sys.settrace(None)
print(json.dumps({"exit": int(code), **{k: sorted(v) for k, v in reached.items()}}))
"""


def _reached(source_root: Path) -> dict[str, set[int]]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(source_root.parent), str(TESTS)]))
    run = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, ",".join(FILES), "-q", "-p", "no:cacheprovider",
         "-k", "fail",
         str(TESTS / "test_harness.py"), str(TESTS / "test_sring.py")],
        env=env, cwd=TESTS.parent, capture_output=True, text=True, timeout=600)
    found = json.loads(run.stdout.strip().splitlines()[-1])
    assert found.pop("exit") == 0, run.stdout[-3000:]
    return {name: set(lines) for name, lines in found.items()}


@pytest.fixture(scope="module")
def reached() -> dict[str, set[int]]:
    return _reached(SOURCE)


def _is_target(node: ast.AST, path: Path, func: str) -> bool:
    if isinstance(node, ast.Call):
        func = node.func
        return (isinstance(func, ast.Attribute) and func.attr == "append"
                and isinstance(func.value, ast.Name)
                and func.value.id in ("problems", "failures"))
    if isinstance(node, ast.Return):
        value = node.value
        return (isinstance(value, ast.Tuple) and len(value.elts) == 2
                and isinstance(value.elts[1], ast.Dict))
    return isinstance(node, ast.Raise) and (path.name, func) in REFUSALS


def targets(root: Path) -> list[tuple[str, str, int, str, str]]:
    """Each target line as (file, function, line, line text, docstring)."""
    found = []
    for name in FILES:
        path = root / name
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            doc = " ".join((ast.get_docstring(func) or "").split())
            # Nested functions are reported under their own name, once.
            nested = {id(n) for inner in ast.walk(func) if inner is not func
                      and isinstance(inner, ast.FunctionDef) for n in ast.walk(inner)}
            for node in ast.walk(func):
                if id(node) not in nested and _is_target(node, path, func.name):
                    found.append((name, func.name, node.lineno,
                                  lines[node.lineno - 1].strip(), doc))
    return sorted(set(found), key=lambda t: (t[0], t[2]))


def unreached(root: Path, reached: dict[str, set[int]],
              unreachable=UNREACHABLE) -> list[str]:
    """The target lines that no negative control reached and that are not
    listed as unreachable with their function's stated reason."""
    missing = []
    for name, func, line, text, doc in targets(root):
        if line in reached.get(name, ()):
            continue
        reason = unreachable.get((name, func, text))
        if reason is None or reason not in doc:
            missing.append(f"{name}:{line} {text}")
    return missing


def test_every_failure_branch_of_a_check_is_reached(reached):
    assert unreached(SOURCE, reached) == []


def test_each_unreachable_branch_is_a_target_and_stays_unreached(reached):
    listed = {(name, func, text): line for name, func, line, text, _ in targets(SOURCE)}
    for key in UNREACHABLE:
        assert key in listed
        assert listed[key] not in reached[key[0]]


def test_the_selected_controls_reach_both_files(reached):
    # A selection that ran no control would leave every target unreached.
    reached_in = {func for name, func, line, _, _ in targets(SOURCE)
                  if line in reached.get(name, ())}
    assert {"check_topology_characterization", "check_crt_decomposition",
            "stable_sets_open", "check_mask"} <= reached_in


def test_the_reach_guard_flags_an_added_unreached_branch(tmp_path, reached):
    copy = tmp_path / "spectop"
    shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert unreached(copy, reached) == []
    # Appended at the end, so the lines the controls reached do not move.
    with open(copy / "harness.py", "a", encoding="utf-8") as handle:
        handle.write('\n\ndef check_nothing(ring, entry):\n'
                     '    problems = []\n'
                     '    if ring is None:\n'
                     '        problems.append("no ring")\n'
                     '    return {}, ({"problems": problems} if problems else None)\n')
    with open(copy / "sring.py", "a", encoding="utf-8") as handle:
        handle.write('\n\ndef _never(x):\n'
                     '    if x:\n'
                     '        raise AssertionError("never")\n'
                     '    return {}, {"x": x}\n')
    with open(copy / "spectrum.py", "a", encoding="utf-8") as handle:
        handle.write('\n\nclass _Poset(SpectrumPoset):\n'
                     '    def check_mask(self, mask):\n'
                     '        if mask is None:\n'
                     '            raise ValueError("no mask")\n')
    lines = (copy / "harness.py").read_text(encoding="utf-8").count("\n")
    srlines = (copy / "sring.py").read_text(encoding="utf-8").count("\n")
    splines = (copy / "spectrum.py").read_text(encoding="utf-8").count("\n")
    assert unreached(copy, reached) == [
        f'harness.py:{lines - 1} problems.append("no ring")',
        f'spectrum.py:{splines} raise ValueError("no mask")',
        f'sring.py:{srlines} return {{}}, {{"x": x}}',
    ]
    # Listing a line exempts it only once its function's docstring gives
    # the reason.
    listed = {("harness.py", "check_nothing", 'problems.append("no ring")'): "No ring is None."}
    assert len(unreached(copy, reached, listed)) == 3
    text = (copy / "harness.py").read_text(encoding="utf-8")
    (copy / "harness.py").write_text(text.replace(
        "    problems = []\n    if ring is None",
        '    """No ring is None."""\n    problems = []\n    if ring is None'), encoding="utf-8")
    assert unreached(copy, reached, listed) == [
        f'spectrum.py:{splines} raise ValueError("no mask")',
        f'sring.py:{srlines} return {{}}, {{"x": x}}',
    ]
