"""Properties of the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import tsk

SRC = Path(tsk.__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` strips assert statements; every check must be a raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
