"""Rules the library's source code keeps."""

from __future__ import annotations

import ast
from pathlib import Path

import spectop


def test_no_runtime_check_is_an_assert_statement():
    # `python -O` strips assert statements, so a check written as one
    # silently stops checking.
    found = []
    for path in sorted(Path(spectop.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
