"""CLI contract: commands, exit codes, canonical output."""

from __future__ import annotations

import io
import json

import pytest

from tsk import cli
from tsk.documents import SheafDocument, dump_document
from tsk.fan import Fan
from tsk.linalg import Subspace
from tsk.multifilt import apply_elementary
from tsk.reflexive import R2Filtration, to_multifiltration
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
    e = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), Subspace.zero(2))
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
    def fake_methods(doc):
        return {
            "resolution": TruncPoly(4, (1, 1)),
            "klyachko": TruncPoly(4, (1, 2)),
        }

    monkeypatch.setattr(cli, "_chern_methods", fake_methods)
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


def test_family_pn(capsys):
    code, out, _ = run(capsys, "family", "--which", "pn", "--n", "3")
    assert code == 0
    data = payload(out)
    assert data["multiplier"] == 2
    assert data["stability"] == "stable"


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


def test_obstruct_reflexive_invalid(capsys, hull_doc):
    code, out, err = run(capsys, "obstruct", hull_doc)
    assert code == 1
    assert "degenerate" in err


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


def test_validate_rejects_unsupported_subspaces(capsys, tmp_path, hull_doc):
    doc = json.loads(hull_doc.read_text())
    rank3 = tmp_path / "rank3.json"
    rank3.write_text(json.dumps(dict(doc, rank=3)))
    code, out, err = run(capsys, "validate", rank3)
    assert code == 1 and out == ""
    assert "'rank' must be 1 or 2" in err and "Traceback" not in err
    doc["cones"][0]["jumps"][0]["subspace"] = {"kind": "basis", "rows": [["1", "0"]]}
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", basis)
    assert code == 1 and out == ""
    assert "unknown subspace kind 'basis'" in err and "Traceback" not in err


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


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "5")
    assert code == 0
    data = payload(out)
    assert data["selftest"] == "ok"
    assert data["seed"] == 5
    assert data["checks"]["chern_triple"] == 25


def test_determinism(capsys, start_doc):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "chern", start_doc)
        outs.add(out)
    assert len(outs) == 1
