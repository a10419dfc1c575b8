"""Properties of the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import tsk

SRC = Path(tsk.__file__).resolve().parent


def _nodes():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            yield path, node


def test_no_assert_statements():
    # `python -O` strips assert statements; every check must be a raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_raise_assertion_error():
    # Internal contradictions raise RuntimeError, which the CLI maps to
    # its documented exit code; AssertionError is reserved for tests.
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "AssertionError"
        in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert found == []
