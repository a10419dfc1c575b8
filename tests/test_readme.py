"""The README's command-line examples and library quick start, run as
written."""

from __future__ import annotations

import ast
import io
import re
import shlex
import tokenize
from functools import reduce
from itertools import product
from pathlib import Path

import tsk
from tsk import cli, multifilt
from tsk.documents import SheafDocument, dump_document, load_document
from tsk.linalg import ZERO, Subspace
from tsk.multifilt import apply_elementary
from tsk.reflexive import to_multifiltration

README = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")


def readme_examples():
    """(argv, stdout, exit code) for every `$ tsk ...` line: its output
    is the next line, and an `# exit code N` note gives a nonzero code."""
    lines = README.splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("$ tsk "):
            output = lines[i + 1]
            note = re.fullmatch(r"(.*?)\s+# exit code (\d+)", output)
            code = 0
            if note:
                output, code = note.group(1), int(note.group(2))
            out.append((shlex.split(line)[2:], output + "\n", code))
    return out


def test_readme_examples(tmp_path, monkeypatch, capsys):
    # start.json is the block under "Documents"; dropped.json is its drop
    # at sigma0 = (0,1,2), m0 = (-1,0,0) to ZERO, as the README says.
    start = README.split("### Documents", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "start.json").write_text(start)
    e = apply_elementary(
        load_document(start).as_multifiltration(), (0, 1, 2), (-1, 0, 0), ZERO
    )
    (tmp_path / "dropped.json").write_text(
        dump_document(SheafDocument("multifiltration", e))
    )
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) == 9 and [c for _, _, c in examples].count(2) == 1
    for argv, stdout, code in examples:
        assert (cli.main(argv), capsys.readouterr().out) == (code, stdout), argv


def quick_start():
    """(source, tree) for each statement of the Python block under
    "Library quick start", in order: lines are joined until they parse,
    so a statement may span lines, and blank lines are left out."""
    block = README.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    statements, source = [], ""
    for line in block.split("```", 1)[0].splitlines(keepends=True):
        source += line
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        if tree.body:
            statements.append((source, tree))
        source = ""
    assert source == ""
    return statements


def test_readme_library_quick_start():
    # An expression line's comment starts with the literal it evaluates to
    # (prose may follow); every other line is only run, its comment prose.
    namespace: dict = {}
    shown = []
    for source, tree in quick_start():
        (stmt,) = tree.body
        if not isinstance(stmt, ast.Expr):
            exec(compile(tree, "README.md", "exec"), namespace)
            continue
        (comment,) = [
            t.string for t in tokenize.generate_tokens(io.StringIO(source).readline)
            if t.type == tokenize.COMMENT
        ]
        first = next(tokenize.generate_tokens(io.StringIO(comment[1:].strip()).readline))
        want = ast.literal_eval(first.string)
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert (type(got), got) == (type(want), want), source
        shown.append(want)
    assert shown == [
        "1 + 13*H + 48*H^2 + 36*H^3", "stable", 23, "1 + 13*H + 48*H^2", True
    ]
    assert [name for name in tsk.__all__ if not hasattr(tsk, name)] == []


def test_readme_eval_jumps_note():
    # The API note's reading of a value, run on the quick start's family
    # (rays jump at -6, -1 and 0): on every cone, at classes below, on,
    # between and past the jumps, the meet of its rays' filtrations.
    (expr,) = re.findall(r"`(multifilt\.eval_jumps\([^`]*\))`", README)
    code = compile(expr, "README.md", "eval")
    namespace: dict = {}
    for _, tree in quick_start():
        if "f" in namespace:
            break
        exec(compile(tree, "README.md", "exec"), namespace)
    f = namespace["f"]
    mf = to_multifiltration(f)
    for cone in mf.jumps:
        for mu in product((-7, -6, -3, -1, 0, 1), repeat=len(cone)):
            rays = [f.rays[r].value_at(x) for r, x in zip(cone, mu)]
            got = eval(code, {"multifilt": multifilt, "mf": mf, "cone": cone, "mu": mu})
            assert got is reduce(Subspace.meet, rays), (cone, mu)
