"""Fuzzing the CLI's exit-code contract on the parse path.

The jump payloads of the cli-docs benchmark documents are mutated
(coordinates, subspaces, added and removed jumps, cone ray lists) with
n fixed, and each document command must keep the contract: an exit
code in 0-4, no traceback, one error line and no stdout on exit 1, and
every accepted document reads back byte-identically from its dump.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tsk import cli  # noqa: E402
from tsk.documents import dump_document, load_document  # noqa: E402

CLI_DOCS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "cli-docs"
SOURCES = {
    name: json.loads((CLI_DOCS / f"{name}.json").read_text("utf-8"))
    for name in ("p4", "p5", "e", "f")
}
COMMANDS = ("validate", "chern", "obstruct")

INTS = st.integers(-8, 8) | st.sampled_from([-(10**40), 10**40])
SUBSPACES = (
    st.sampled_from([{"kind": "zero"}, {"kind": "full"}])
    | st.lists(st.integers(-3, 3), min_size=2, max_size=2).map(
        lambda pair: {"kind": "line", "line": pair}
    )
    | st.sampled_from([{"kind": "plane"}, {"kind": "line"}, {}, None, 0, [1, 0]])
)
KINDS = ("coords", "arity", "subspace", "add", "remove", "duplicate", "reverse", "rays")


def _mutate(doc: dict, draw) -> None:
    """One mutation of one cone's entry, in place."""
    n = doc["n"]
    cone = draw(st.sampled_from(doc["cones"]))
    jumps, rays = cone["jumps"], cone["rays"]
    kind = draw(st.sampled_from(KINDS))
    if kind in ("coords", "arity", "subspace", "remove", "duplicate") and not jumps:
        kind = "add"
    if kind in ("coords", "arity"):
        coords = draw(st.sampled_from(jumps))["coords"]
        if not coords:
            coords.append(draw(INTS))
        elif kind == "coords":
            coords[draw(st.integers(0, len(coords) - 1))] = draw(INTS)
        elif draw(st.booleans()):
            coords.pop()
        else:
            coords.append(draw(INTS))
    elif kind == "subspace":
        draw(st.sampled_from(jumps))["subspace"] = draw(SUBSPACES)
    elif kind == "add":
        coords = draw(st.lists(INTS, min_size=len(rays), max_size=len(rays)))
        jump = {"coords": coords, "subspace": draw(SUBSPACES)}
        jumps.insert(draw(st.integers(0, len(jumps))), jump)
    elif kind == "remove":
        del jumps[draw(st.integers(0, len(jumps) - 1))]
    elif kind == "duplicate":
        jumps.append(copy.deepcopy(draw(st.sampled_from(jumps))))
    elif kind == "reverse":
        jumps.reverse()
    else:
        action = draw(st.sampled_from(("replace", "drop", "append", "reverse")))
        if not rays:
            action = "append"
        if action == "replace":
            rays[draw(st.integers(0, len(rays) - 1))] = draw(st.integers(-1, n + 1))
        elif action == "drop":
            rays.pop()
        elif action == "append":
            rays.append(draw(st.integers(-1, n + 1)))
        else:
            rays.reverse()


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@pytest.mark.parametrize("name", sorted(SOURCES))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(doc_path, name, data):
    doc = copy.deepcopy(SOURCES[name])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data.draw)
    text = json.dumps(doc)
    doc_path.write_text(text)
    try:
        accepted = load_document(text)
    except ValueError:
        accepted = None
    for command in COMMANDS:
        code, out, err = _run(command, doc_path)
        assert code in (0, 1, 2, 3, 4), (command, code)
        assert "Traceback" not in err, (command, err)
        if code == 1:
            assert out == "" and err.startswith("tsk: error: "), (command, err)
            assert err.count("\n") == 1, (command, err)
        if command == "validate":
            assert code == (1 if accepted is None else 0), err
    if accepted is not None:
        dumped = dump_document(accepted)
        again = load_document(dumped)
        assert again.payload == accepted.payload
        assert dump_document(again) == dumped
