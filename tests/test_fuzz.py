"""Fuzzing the CLI's exit-code contract on the parse path.

The jump payloads of the cli-docs benchmark documents are mutated
(coordinates, subspaces, added and removed jumps, cone ray lists) with
n fixed, and so is the ray data of its reflexive document (a, b, lines,
added and removed rays, the normalization tag), which every command
takes through the hull.  The raw bytes of every cli-docs document are
mutated too (bit flips, inserted and deleted bytes, truncation).  Each
document command must keep the contract: an exit code in 0-4, no
traceback, one error line and no stdout on exit 1, and every accepted
document reads back byte-identically from its dump, with `tsk chern`
exiting 0: its Chern routes agree.  The jump-payload mutants also go to
the family constructor and to the check of every facet edge
(`oracles.validate_all_edges`), which must agree on each.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tsk import cli, documents  # noqa: E402
from tsk.documents import dump_document, load_document  # noqa: E402

from oracles import walk_and_all_edges  # noqa: E402

CLI_DOCS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "cli-docs"
SOURCES = {
    name: json.loads((CLI_DOCS / f"{name}.json").read_text("utf-8"))
    for name in ("p4", "p5", "e", "f")
}
COMMANDS = ("validate", "chern", "obstruct")
START = json.loads((CLI_DOCS / "start.json").read_text("utf-8"))
RAW = {
    name: (CLI_DOCS / f"{name}.json").read_bytes()
    for name in ("e", "f", "invalid", "p4", "p5", "start")
}

INTS = st.integers(-8, 8) | st.sampled_from([-(10**40), 10**40])
SUBSPACES = (
    st.sampled_from([{"kind": "zero"}, {"kind": "full"}])
    | st.lists(st.integers(-3, 3), min_size=2, max_size=2).map(
        lambda pair: {"kind": "line", "line": pair}
    )
    | st.sampled_from([{"kind": "plane"}, {"kind": "line"}, {}, None, 0, [1, 0]])
)
LINES = (
    st.sampled_from([[1, 0], [1, 1], [1, 2], [0, 0], [10**40, 1], [1, -(10**40)]])
    | st.lists(st.integers(-3, 3), min_size=2, max_size=2)
    | st.sampled_from([[1], [1, 0, 0], "x", None])
)
TAGS = st.sampled_from(["b_zero", "a_zero", "general", "other", None, 0])
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


def _mutate_rays(doc: dict, draw) -> None:
    """One mutation of the reflexive document's ray data, in place."""
    rays = doc["rays"]
    kind = draw(st.sampled_from(("a", "b", "line", "same line", "add", "remove", "tag")))
    if kind in ("a", "b"):
        draw(st.sampled_from(rays))[kind] = draw(INTS)
    elif kind == "line":
        ray = draw(st.sampled_from(rays))
        line = draw(LINES)
        if line is None:
            ray.pop("line", None)
        else:
            ray["line"] = line
    elif kind == "same line":
        # a line another ray already carries: data off general position
        lines = [ray["line"] for ray in rays if "line" in ray]
        if lines:
            draw(st.sampled_from(rays))["line"] = list(draw(st.sampled_from(lines)))
    elif kind == "add":
        a = draw(INTS)
        ray = {"a": a, "b": a + draw(st.integers(0, 4))}
        if draw(st.booleans()):
            ray["line"] = draw(LINES)
        rays.insert(draw(st.integers(0, len(rays))), ray)
        if doc["n"] < 5 and draw(st.booleans()):
            doc["n"] += 1
    elif kind == "remove" and len(rays) > 1:
        del rays[draw(st.integers(0, len(rays) - 1))]
        if doc["n"] > 1 and draw(st.booleans()):
            doc["n"] -= 1
    elif kind == "tag":
        tag = draw(TAGS)
        if tag is None:
            doc.pop("normalization", None)
        else:
            doc["normalization"] = tag


NUMBER_BYTES = [bytes([byte]) for byte in b"-0123456789"]


def _mutate_bytes(data: bytearray, draw, aimed: bool) -> None:
    """One raw-byte mutation, in place: a bit flip, an inserted or a
    deleted run of bytes, or a truncation.  An aimed one falls on a
    digit and mostly keeps the document JSON (flip bit 0, insert a digit
    or a minus sign, delete one byte; no truncation), so that it reaches
    the family checks and the commands."""
    digits = [i for i, byte in enumerate(data) if byte in b"0123456789"]
    aimed = aimed and bool(digits)
    kinds = ("flip", "insert", "delete") + (() if aimed else ("truncate",))
    kind = draw(st.sampled_from(kinds))
    at = draw(st.sampled_from(digits) if aimed else st.integers(0, len(data) - 1))
    if kind == "flip":
        data[at] ^= 1 << (0 if aimed else draw(st.integers(0, 7)))
    elif kind == "insert":
        inserts = st.sampled_from(NUMBER_BYTES) if aimed else st.binary(min_size=1, max_size=4)
        data[at:at] = draw(inserts)
    elif kind == "delete":
        del data[at : at + (1 if aimed else draw(st.integers(1, 4)))]
    else:
        del data[at:]


def _run(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def _assert_contract(doc_path, data: bytes, commands) -> None:
    """Run each command on the document bytes and hold it to the
    contract; an accepted document's `tsk chern` exits 0, its routes
    agreeing."""
    doc_path.write_bytes(data)
    try:
        accepted = load_document(doc_path.read_text("utf-8"))
    except ValueError:  # UnicodeDecodeError included
        accepted = None
    codes = {}
    for command in commands:
        code, out, err = _run(command, doc_path)
        assert code in (0, 1, 2, 3, 4), (command, code)
        assert "Traceback" not in err, (command, err)
        if code == 1:
            assert out == "" and err.startswith("tsk: error: "), (command, err)
            assert err.count("\n") == 1, (command, err)
        if command == "validate":
            assert code == (1 if accepted is None else 0), err
        codes[command] = code
    if accepted is not None:
        assert codes["chern"] == 0, (data, codes)
        dumped = dump_document(accepted)
        again = load_document(dumped)
        assert again.payload == accepted.payload
        assert dump_document(again) == dumped


@pytest.mark.parametrize("name", sorted(SOURCES))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(doc_path, name, data):
    doc = copy.deepcopy(SOURCES[name])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data.draw)
    _assert_contract(doc_path, json.dumps(doc).encode(), COMMANDS)


class _Handed(Exception):
    """The (fan, jumps) a document hands the family constructor."""


def _constructor_input(text: str):
    """What parsing `text` hands `Multifiltration`, or None when the
    document layer refuses it first."""

    def capture(fan, jumps):
        raise _Handed(fan, jumps)

    with mock.patch.object(documents, "Multifiltration", capture):
        try:
            load_document(text)
        except _Handed as handed:
            return handed.args
        except ValueError:
            return None
    raise AssertionError("a cones document parsed without the constructor")


@pytest.mark.parametrize("name", sorted(SOURCES))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutants_meet_the_all_edges_oracle(name, data):
    # The constructor's top-down walk accepts the mutants that a check of
    # every facet edge accepts, with the same canonical lists, and refuses
    # the others.
    doc = copy.deepcopy(SOURCES[name])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data.draw)
    handed = _constructor_input(json.dumps(doc))
    if handed is not None:
        walk, all_edges = walk_and_all_edges(*handed)
        assert walk == all_edges


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_reflexive_documents_keep_the_exit_code_contract(doc_path, data):
    doc = copy.deepcopy(START)
    for _ in range(data.draw(st.integers(1, 4))):
        _mutate_rays(doc, data.draw)
    if data.draw(st.booleans()):
        doc.pop("normalization", None)  # so that general data is accepted too
    _assert_contract(doc_path, json.dumps(doc).encode(), COMMANDS + ("stability",))


@pytest.mark.parametrize("aimed", (False, True), ids=("anywhere", "at-digits"))
@pytest.mark.parametrize("name", sorted(RAW))
@settings(max_examples=25, deadline=2000, derandomize=True, database=None)
@given(data=st.data())
def test_raw_byte_mutants_keep_the_exit_code_contract(doc_path, name, aimed, data):
    raw = bytearray(RAW[name])
    for _ in range(data.draw(st.integers(1, 3))):
        if raw:
            _mutate_bytes(raw, data.draw, aimed)
    _assert_contract(doc_path, bytes(raw), COMMANDS)
