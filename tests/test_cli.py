"""CLI contract: commands, exit codes, canonical output."""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

import tsk
from tsk import chern, cli
from tsk.documents import (
    SheafDocument,
    canonical_dumps,
    dump_document,
    load_document,
    multifilt_to_doc,
)
from tsk.fan import Fan
from tsk.linalg import ZERO
from tsk.multifilt import apply_elementary, reflexive_hull
from tsk.prescribe import (
    Infeasible,
    PrescriptionProblem,
    build_sequence,
    family_pn,
    solve_p,
)
from tsk.reflexive import R2Filtration, to_multifiltration
from tsk.sampling import random_drops, random_reflexive
from tsk.ring import TruncPoly


@pytest.fixture()
def start_doc(tmp_path):
    f = R2Filtration.b_zero_data(Fan(4), (1, 6, 6, 0, 0))
    path = tmp_path / "start.json"
    path.write_text(dump_document(SheafDocument("reflexive", f)))
    return path


@pytest.fixture()
def dropped_doc(tmp_path):
    f = R2Filtration.b_zero_data(Fan(4), (1, 6, 6, 0, 0))
    mf = to_multifiltration(f)
    e = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), ZERO)
    path = tmp_path / "dropped.json"
    path.write_text(dump_document(SheafDocument("multifiltration", e)))
    return path


@pytest.fixture()
def hull_doc(tmp_path):
    f = R2Filtration.b_zero_data(Fan(4), (1, 6, 6, 0, 0))
    path = tmp_path / "hull.json"
    path.write_text(
        dump_document(SheafDocument("multifiltration", to_multifiltration(f)))
    )
    return path


@pytest.fixture(scope="module")
def p5_built_doc(tmp_path_factory):
    """The family_pn(5) sheaf built drop by drop (2060 drops)."""
    sol = family_pn(5)
    path = tmp_path_factory.mktemp("p5") / "p5-built.json"
    path.write_text(canonical_dumps(multifilt_to_doc(build_sequence(sol.problem, sol).final)))
    return path


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out):
    assert out.endswith("\n")
    data = json.loads(out)
    # canonical: re-serializing with sorted keys reproduces the bytes
    assert json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n" == out
    return data


def test_chern_auto(capsys, start_doc):
    code, out, _ = run(capsys, "chern", start_doc)
    assert code == 0
    data = payload(out)
    assert data["chern"] == "1 + 13*H + 48*H^2 + 36*H^3"
    assert set(data["methods"]) == {"resolution", "klyachko", "symmetric"}


def test_chern_single_method(capsys, start_doc):
    code, out, _ = run(capsys, "chern", start_doc, "--method", "resolution")
    assert code == 0
    assert payload(out)["method"] == "resolution"


def test_chern_multifilt(capsys, dropped_doc):
    code, out, _ = run(capsys, "chern", dropped_doc)
    assert code == 0
    data = payload(out)
    assert list(data["methods"]) == ["klyachko"]
    # one 3-drop with weight -1: c(F) / ratio_saturated(3, -1)
    assert data["chern"] == "1 + 13*H + 48*H^2 + 34*H^3 - 29*H^4"


def test_chern_method_not_applicable(capsys, dropped_doc):
    code, out, err = run(capsys, "chern", dropped_doc, "--method", "symmetric")
    assert code == 1
    assert out == ""
    assert "does not apply" in err


def test_chern_symmetric_requires_b_zero(capsys, tmp_path):
    from tsk.reflexive import normalize

    f = normalize(R2Filtration.b_zero_data(Fan(3), (1, 1, 1, 0)), "a_zero")
    path = tmp_path / "azero.json"
    path.write_text(dump_document(SheafDocument("reflexive", f)))
    code, out, err = run(capsys, "chern", path, "--method", "symmetric")
    assert code == 1
    assert "b_zero" in err


def test_chern_disagreement_sentinel(capsys, start_doc, monkeypatch):
    def fake_routes(f):
        return {
            "resolution": TruncPoly(4, (1, 1)),
            "klyachko": TruncPoly(4, (1, 2)),
        }

    monkeypatch.setattr(cli.refl, "chern_routes", fake_routes)
    code, out, _ = run(capsys, "chern", start_doc)
    assert code == 3
    assert payload(out)["error"] == "method disagreement"


def test_stability(capsys, start_doc):
    code, out, _ = run(capsys, "stability", start_doc)
    assert code == 0
    data = payload(out)
    assert data == {
        "verdict": "stable",
        "slope": "13/2",
        "delta": 23,
        "bogomolov": "ok",
    }


def test_stability_unstable_suppresses_bg(capsys, tmp_path):
    f = R2Filtration.b_zero_data(Fan(4), (3, 1, 1, 0, 0))
    path = tmp_path / "unstable.json"
    path.write_text(dump_document(SheafDocument("reflexive", f)))
    code, out, _ = run(capsys, "stability", path)
    assert code == 0
    data = payload(out)
    assert data["verdict"] == "unstable"
    assert data["bogomolov"] == "n/a"


def test_stability_reflexive_multifilt_accepted(capsys, hull_doc):
    code, out, _ = run(capsys, "stability", hull_doc)
    assert code == 0
    assert payload(out)["verdict"] == "stable"


def test_stability_rejects_non_reflexive(capsys, dropped_doc):
    code, out, err = run(capsys, "stability", dropped_doc)
    assert code == 1
    assert "hull" in err


def test_factorize(capsys, dropped_doc, hull_doc):
    code, out, _ = run(capsys, "factorize", dropped_doc, hull_doc)
    assert code == 0
    data = payload(out)
    assert data["count"] == 1
    assert data["recomposition"] == "ok"
    step = data["steps"][0]
    assert step == {
        "k0": 3,
        "sigma0": [0, 1, 2],
        "m0": [-1, 0, 0],
        "m_Sigma": -1,
        "saturated": True,
    }


def test_factorize_equal(capsys, hull_doc):
    code, out, _ = run(capsys, "factorize", hull_doc, hull_doc)
    assert code == 0
    assert payload(out) == {"count": 0, "recomposition": "ok", "steps": []}


def test_factorize_wrong_order(capsys, dropped_doc, hull_doc):
    code, out, err = run(capsys, "factorize", hull_doc, dropped_doc)
    assert code == 1
    assert "cannot factorize" in err


def test_factorize_mismatch_sentinel(capsys, dropped_doc, hull_doc, monkeypatch):
    monkeypatch.setattr(cli, "recompose", lambda f, steps: f)
    code, out, _ = run(capsys, "factorize", dropped_doc, hull_doc)
    assert code == 4
    assert payload(out)["error"] == "recomposition mismatch"


def test_factorize_step_limit(capsys, dropped_doc, hull_doc, monkeypatch):
    # The pair has one step: a limit of one admits it, a limit of zero
    # refuses it before any drop.
    monkeypatch.setattr(cli, "MAX_FACTORIZE_STEPS", 1)
    assert run(capsys, "factorize", dropped_doc, hull_doc)[0] == 0
    monkeypatch.setattr(cli, "MAX_FACTORIZE_STEPS", 0)
    monkeypatch.setattr(cli, "factorize", None)
    code, out, err = run(capsys, "factorize", dropped_doc, hull_doc)
    assert (code, out) == (1, "")
    assert err == (
        "tsk: error: cannot factorize: 1 elementary steps, more than the limit of 0\n"
    )


@pytest.mark.parametrize("n", [6, 7, 8])
def test_factorize_refuses_the_run_built_family_pairs(tmp_path, n):
    # The final/start pairs of the run-built family_pn(6..8) have 10^15 to
    # 10^76 steps.  A child process under its own address-space limit
    # runs the command, so a regression that lists the steps fails with
    # a MemoryError instead of exhausting the host.
    pytest.importorskip("resource")
    sol = family_pn(n)
    built = build_sequence(sol.problem, sol)
    paths = []
    for name, mf in (("final", built.final), ("start", built.start)):
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_dumps(multifilt_to_doc(mf)))
        paths.append(str(path))
    limit = 512 * 2**20
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from tsk.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "factorize", *paths],
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tsk.__file__))},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"tsk: error: cannot factorize: {sol.injection_count} elementary steps,"
        f" more than the limit of {cli.MAX_FACTORIZE_STEPS}\n"
    )


def test_prescribe(capsys):
    code, out, _ = run(
        capsys, "prescribe", "--n", "4", "--start", "1,6,6,0,0", "--closed-form"
    )
    assert code == 0
    data = payload(out)
    assert data["p"] == [18, 240]
    assert data["chern"] == "1 + 13*H + 48*H^2"
    assert data["schwarzenberger"] == "ok"
    assert data["closed_form"] == {"p3": "18", "p4": "240"}
    assert data["injections"] == 258


def test_prescribe_infeasible(capsys):
    code, out, _ = run(capsys, "prescribe", "--n", "4", "--start", "1,1,1,0,0")
    assert code == 2
    data = payload(out)
    assert data["infeasible"] == {"reason": "NonInteger", "q": 3, "value": "1/2"}


def test_prescribe_invalid(capsys):
    code, out, err = run(capsys, "prescribe", "--n", "4", "--start", "1,1")
    assert code == 1 and "5 values" in err
    code, _, err = run(capsys, "prescribe", "--n", "4", "--start", "a,b,c,d,e")
    assert code == 1
    code, _, err = run(
        capsys, "prescribe", "--n", "3", "--start", "1,2,2,0", "--closed-form"
    )
    assert code == 1 and "closed-form" in err


def test_family_p4_odd(capsys):
    code, out, _ = run(capsys, "family", "--which", "p4-odd", "--t", "1")
    assert code == 0
    data = payload(out)
    assert data["chern"] == "1 + 13*H + 48*H^2"
    assert data["delta"] == 23


def test_family_p5_reports_both(capsys):
    code, out, _ = run(capsys, "family", "--which", "p5", "--t", "1")
    assert code == 0
    data = payload(out)
    assert data["selected"] == "c=120t"
    assert set(data["candidates"]) == {"c=120t", "c=12t"}
    assert data["candidates"]["c=12t"]["chern"] == "1 + 25*H + 168*H^2"


def test_family_p5_reports_an_infeasible_candidate(capsys, monkeypatch):
    real = cli.family_p5_candidates(1)
    stuck = Infeasible("Negative", 4, Fraction(-3, 2))
    for label, code_expected in (("c=12t", 0), ("c=120t", 2)):
        monkeypatch.setattr(cli, "family_p5_candidates", lambda t: {**real, label: stuck})
        code, out, _ = run(capsys, "family", "--which", "p5", "--t", "1")
        assert code == code_expected
        data = payload(out)
        assert data["candidates"][label] == {
            "infeasible": {"reason": "Negative", "q": 4, "value": "-3/2"}
        }
        other = "c=120t" if label == "c=12t" else "c=12t"
        assert data["candidates"][other] == real[other].certificate()
        if code == 0:
            assert data["selected"] == "c=120t"
        else:
            assert data["error"] == "the c=120t recipe is infeasible"


def test_family_pn(capsys):
    code, out, _ = run(capsys, "family", "--which", "pn", "--n", "3")
    assert code == 0
    data = payload(out)
    assert data["multiplier"] == 2
    assert data["stability"] == "stable"


def test_family_pn_writes_integers_past_the_digit_limit(capsys):
    # p_14 of family_pn(14) has 9384 digits, past Python's default limit
    # of 4300 on int-str conversions, which stays in force for parsing.
    code, out, err = run(capsys, "family", "--which", "pn", "--n", "14")
    assert code == 0 and err == ""
    # Decimal reads any number of digits exactly, and so does int(Decimal)
    data = json.loads(out, parse_int=lambda s: int(Decimal(s)))
    m = data["multiplier"]
    sol = solve_p(PrescriptionProblem(14, (1, m, m) + (0,) * 12))
    assert tuple(data["p"]) == sol.p and max(sol.p) > 10**9000


@pytest.mark.parametrize("digits, code", [(4, 0), (5000, 1)])
def test_documents_are_read_under_the_digit_limit(capsys, tmp_path, digits, code):
    path = tmp_path / "long.json"
    path.write_text(
        '{"n":1,"rank":2,"cones":['
        f'{{"rays":[0],"jumps":[{{"coords":[{"9" * digits}],"subspace":{{"kind":"full"}}}}]}},'
        '{"rays":[1],"jumps":[{"coords":[0],"subspace":{"kind":"full"}}]}]}'
    )
    got, out, err = run(capsys, "validate", path)
    assert got == code
    if code:
        assert out == "" and "Traceback" not in err


def test_a_cones_list_of_the_wrong_length_exits_at_once(capsys, tmp_path):
    # A family has one list per cone, 2^(n + 1) - 2 of them, so a list
    # of any other length is refused before the fan is built: n = 60 has
    # about 2.3e18 cones.
    path = tmp_path / "short.json"
    path.write_text('{"n":60,"rank":2,"cones":[]}')
    for command in ("validate", "chern", "obstruct"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, path)
        assert time.perf_counter() - start < 0.5, command
        assert code == 1 and out == "" and "2^61 - 2 cones" in err, (command, err)


def test_family_missing_parameter(capsys):
    code, _, err = run(capsys, "family", "--which", "p4-odd")
    assert code == 1 and "--t" in err
    code, _, err = run(capsys, "family", "--which", "pn")
    assert code == 1 and "--n" in err


def test_obstruct(capsys, dropped_doc):
    code, out, _ = run(capsys, "obstruct", dropped_doc)
    assert code == 0
    data = payload(out)
    assert data["verdict"] == "Inconclusive"
    assert data["q"] == 3


def test_obstruct_on_the_full_p5_build(capsys, p5_built_doc):
    # The profile is counted per cone, so 2060 drops cost a few cones:
    # milliseconds, where factorizing them takes most of a second.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "obstruct", p5_built_doc)
    elapsed = time.perf_counter() - t0
    assert code == 0 and err == ""
    assert out == '{"profile":{"3":8,"4":56,"5":1996},"q":3,"verdict":"Inconclusive"}\n'
    assert elapsed < 0.25


def test_obstruct_reflexive_invalid(capsys, start_doc, hull_doc):
    # The same reflexive family as ray data and as its "cones" dump: the
    # per-cone count is empty, and main reports that as a usage error.
    for doc in (start_doc, hull_doc):
        code, out, err = run(capsys, "obstruct", doc)
        assert (code, out) == (1, "")
        assert err == (
            "tsk: error: degenerate input: E is reflexive, the torsion profile is undefined\n"
        )


@pytest.mark.parametrize("error", [RuntimeError, ArithmeticError])
def test_internal_error_exits_3(capsys, dropped_doc, monkeypatch, error):
    def falsified(_mf):
        raise error("obstruction argument falsified")

    monkeypatch.setattr(cli, "obstruction_verdict", falsified)
    code, out, err = run(capsys, "obstruct", dropped_doc)
    assert code == 3
    assert out == ""
    assert err == "tsk: internal error: obstruction argument falsified\n"


def test_validate(capsys, start_doc, dropped_doc):
    code, out, _ = run(capsys, "validate", start_doc)
    assert code == 0
    assert payload(out) == {"valid": True, "kind": "reflexive", "n": 4, "rank": 2}
    code, out, _ = run(capsys, "validate", dropped_doc)
    assert payload(out)["kind"] == "multifiltration"


def test_validate_bad_document(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, "rays": "nope"}')
    code, out, err = run(capsys, "validate", bad)
    assert code == 1 and out == ""
    code, out, err = run(capsys, "validate", tmp_path / "missing.json")
    assert code == 1 and "cannot read" in err


def test_undecodable_document_exits_1(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"n": 4, "label": "\xff"}')
    code, out, err = run(capsys, "validate", bad)
    assert code == 1 and out == ""
    assert err.startswith(f"tsk: error: invalid document {str(bad)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
    code, out, err = run(capsys, "validate", "-")
    assert code == 1 and out == ""
    assert err.startswith("tsk: error: invalid document '-': ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_deeply_nested_document_exits_1(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run(capsys, "validate", deep)
    assert code == 1 and out == ""
    assert err == f"tsk: error: invalid document {str(deep)!r}: nested too deeply\n"


def test_validate_rejects_unsupported_subspaces(capsys, tmp_path, hull_doc):
    doc = json.loads(hull_doc.read_text())
    rank3 = tmp_path / "rank3.json"
    rank3.write_text(json.dumps(dict(doc, rank=3)))
    code, out, err = run(capsys, "validate", rank3)
    assert code == 1 and out == ""
    assert "'rank' must be 2, got 3" in err and "Traceback" not in err
    doc["cones"][0]["jumps"][0]["subspace"] = {"kind": "basis", "rows": [["1", "0"]]}
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", basis)
    assert code == 1 and out == ""
    assert "unknown subspace kind 'basis'" in err and "Traceback" not in err


def test_rank_one_documents_exit_1(capsys, tmp_path):
    # Every sheaf has rank 2: a rank-1 multifiltration document (the
    # trivial line bundle on P^2) is invalid input for every command.
    cones = [
        {
            "rays": list(cone),
            "jumps": [{"coords": [0] * len(cone), "subspace": {"kind": "full"}}],
        }
        for cone in Fan(2).all_cones(min_dim=1)
    ]
    rank1 = tmp_path / "rank1.json"
    rank1.write_text(json.dumps({"n": 2, "rank": 1, "cones": cones}))
    for argv in (
        ("validate", rank1),
        ("chern", rank1),
        ("factorize", rank1, rank1),
        ("obstruct", rank1),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "'rank' must be 2, got 1" in err and "Traceback" not in err
    # the same document at rank 2 is the trivial rank-2 bundle
    rank1.write_text(json.dumps({"n": 2, "rank": 2, "cones": cones}))
    code, out, _ = run(capsys, "chern", rank1)
    assert code == 0 and payload(out)["chern"] == "1"


def test_stdin_input(capsys, monkeypatch, start_doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(start_doc.read_text()))
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0
    assert payload(out)["valid"] is True


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["chern", "x.json", "--method", "bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 1


def test_no_command_prints_help(capsys):
    code = cli.main([])
    captured = capsys.readouterr()
    assert code == 1
    assert "chern" in captured.err
    # the hidden subcommand is not advertised
    assert "selftest" not in captured.err


def test_selftest_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest"])
    assert exc.value.code == 1
    assert "invalid choice" in capsys.readouterr().err


P1 = '{"n":1,"rays":[{"a":-1,"b":0,"line":[1,0]},{"a":-2,"b":0,"line":[1,1]}]}'
# three distinct lines, [1,0] on two rays: outside general position
REPEATED = (
    '{"n":3,"rays":[{"a":-1,"b":0,"line":[1,0]},{"a":-2,"b":0,"line":[1,0]},'
    '{"a":-1,"b":0,"line":[1,1]},{"a":-3,"b":0,"line":[1,2]}]}'
)
# one line on every ray: O(4) (+) O
ONE_LINE = '{"n":3,"rays":[' + ",".join(['{"a":-1,"b":0,"line":[1,0]}'] * 4) + "]}"


def _multifilt_doc(edit=None):
    doc = multifilt_to_doc(to_multifiltration(R2Filtration.b_zero_data(Fan(2), (1, 1, 1))))
    if edit is not None:
        edit(doc["cones"][1])
    return canonical_dumps(doc)


EDGE_DOCUMENTS = {
    "p1": P1,
    "repeated-line": REPEATED,
    "one-line": ONE_LINE,
    "bool-n": P1.replace('"n":1', '"n":true'),
    "bool-a": P1.replace('"a":-1', '"a":true'),
    "bool-b": P1.replace('"b":0', '"b":false', 1),
    "bool-coords": _multifilt_doc(lambda c: c["jumps"][0].update(coords=[True])),
    "bool-rays": _multifilt_doc(lambda c: c.update(rays=[True])),
    "reflexive-multifiltration": _multifilt_doc(),
    "dropped": canonical_dumps(
        multifilt_to_doc(
            apply_elementary(
                to_multifiltration(R2Filtration.b_zero_data(Fan(2), (1, 1, 1))),
                (0, 1),
                (-1, 0),
                ZERO,
            )
        )
    ),
}

DOCUMENT_COMMANDS = [
    ("chern",),
    ("chern", "--method", "resolution"),
    ("chern", "--method", "klyachko"),
    ("chern", "--method", "symmetric"),
    ("stability",),
    ("obstruct",),
    ("validate",),
    ("factorize",),
]


@pytest.mark.parametrize("name", sorted(EDGE_DOCUMENTS))
def test_exit_code_contract_on_edge_documents(capsys, tmp_path, name):
    # Whatever the document, every command keeps the contract: an exit
    # code in 0-4, no traceback, and nothing on stdout when input is
    # rejected.
    path = tmp_path / f"{name}.json"
    path.write_text(EDGE_DOCUMENTS[name])
    for command in DOCUMENT_COMMANDS:
        argv = [command[0], path, *command[1:]]
        if command[0] == "factorize":
            argv.append(path)
        try:
            code, out, err = run(capsys, *argv)
        except SystemExit as exc:
            captured = capsys.readouterr()
            code, out, err = exc.code, captured.out, captured.err
        assert code in (0, 1, 2, 3, 4), (argv, code)
        assert "Traceback" not in err, (argv, err)
        if code == 1:
            assert out == "", (argv, out)
            assert err.startswith("tsk: error: ") and err.count("\n") == 1, (argv, err)
        if name.startswith("bool-"):  # true/false are not JSON integers
            assert code == 1 and "invalid document" in err, (argv, err)


def test_p1_stability_is_invalid_input(capsys, tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(P1)
    code, out, err = run(capsys, "stability", path)
    assert (code, out) == (1, "")
    assert err == "tsk: error: discriminant needs n >= 2\n"


def test_chern_lists_only_the_routes_whose_hypothesis_holds(capsys, tmp_path):
    repeated, one_line = tmp_path / "repeated.json", tmp_path / "one-line.json"
    repeated.write_text(REPEATED)
    one_line.write_text(ONE_LINE)
    code, out, _ = run(capsys, "chern", repeated)
    assert code == 0
    assert payload(out) == {
        "chern": "1 + 7*H + 15*H^2 + 9*H^3",
        "methods": {"klyachko": "1 + 7*H + 15*H^2 + 9*H^3"},
    }
    code, out, _ = run(capsys, "chern", one_line)
    assert code == 0
    assert payload(out) == {
        "chern": "1 + 4*H",
        "methods": {"klyachko": "1 + 4*H", "resolution": "1 + 4*H"},
    }
    for path, method in ((repeated, "resolution"), (repeated, "symmetric"), (one_line, "symmetric")):
        code, out, err = run(capsys, "chern", path, "--method", method)
        assert (code, out) == (1, "")
        assert "pairwise distinct" in err
    # no closed formula gives c_2 here, so the discriminant takes it from klyachko
    code, out, _ = run(capsys, "stability", repeated)
    assert code == 0
    assert payload(out) == {"bogomolov": "ok", "delta": 11, "slope": "7/2", "verdict": "stable"}


def test_determinism(capsys, start_doc):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "chern", start_doc)
        outs.add(out)
    assert len(outs) == 1


def test_stdout_is_the_same_under_any_hash_seed(tmp_path, start_doc, dropped_doc, hull_doc):
    # Subspaces hash by identity and strings by PYTHONHASHSEED, so two
    # processes order a set or a hash table differently: neither order
    # may reach stdout.  A seeded drop chain on P^3 carries several lines.
    rng = random.Random(4343)
    start = to_multifiltration(random_reflexive(rng, 3, max_c=3))
    chain, applied = random_drops(rng, start, 6, (1, 2, 3))
    assert applied
    paths = {}
    for name, mf in (("chain", chain), ("start", start), ("hull", reflexive_hull(chain))):
        paths[name] = tmp_path / f"chain-{name}.json"
        paths[name].write_text(dump_document(SheafDocument("multifiltration", mf)))
    commands = [
        ["chern", start_doc],
        ["chern", paths["chain"]],
        ["factorize", dropped_doc, hull_doc],
        ["factorize", paths["chain"], paths["start"]],
        ["factorize", paths["chain"], paths["hull"]],
        ["obstruct", dropped_doc],
        ["obstruct", paths["chain"]],
    ]
    src = os.path.dirname(os.path.dirname(tsk.__file__))
    for argv in commands:
        outs = {
            subprocess.run(
                [sys.executable, "-m", "tsk.cli", *map(str, argv)],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                timeout=120,
            ).stdout
            for seed in ("0", "4242")
        }
        assert len(outs) == 1 and outs != {b""}, argv


def _scattered_p5_doc(count):
    """The trivial family on P^5 (C^2 from class 0 on every cone) but
    for `count` pairwise incomparable FULL jumps on the cone (0,1,2,3,4):
    its grid has count^5 points, and it fails the facet check."""
    fan = Fan(5)
    cones = []
    for cone in fan.all_cones(min_dim=1):
        coords = [[0] * len(cone)]
        if cone == (0, 1, 2, 3, 4):
            coords = [[i, -i, 2 * i, -2 * i, 3 * i] for i in range(count)]
        jumps = [{"coords": c, "subspace": {"kind": "full"}} for c in coords]
        cones.append({"rays": list(cone), "jumps": jumps})
    return canonical_dumps({"n": 5, "rank": 2, "cones": cones})


def test_parse_work_is_bounded_by_the_list(capsys, monkeypatch, tmp_path):
    # Canonicalizing and validating a document builds no grid: 20 jumps
    # whose grid has 3.2e6 points are rejected after a scan of the list.
    calls = []
    grid_flat = chern._grid_flat
    monkeypatch.setattr(
        chern, "_grid_flat", lambda *args: calls.append(args) or grid_flat(*args)
    )
    text = _scattered_p5_doc(20)
    with pytest.raises(ValueError, match="facet compatibility fails: cone \\(0, 1, 2, 3, 4\\)"):
        load_document(text)
    path = tmp_path / "scattered.json"
    path.write_text(text)
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (1, "")
    assert err.startswith("tsk: error: invalid document") and err.count("\n") == 1
    assert "facet compatibility fails" in err and "Traceback" not in err
    assert calls == []
