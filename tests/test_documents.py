"""Canonical JSON wire formats."""

from __future__ import annotations

import copy
import json
import random
import sys
from collections import Counter
from math import comb

import pytest

from tsk import cli, multifilt
from tsk.documents import (
    SheafDocument,
    canonical_dumps,
    canonical_loads,
    dump_document,
    load_document,
    multifilt_from_doc,
    multifilt_to_doc,
    reflexive_from_doc,
    reflexive_to_doc,
    subspace_from_doc,
    subspace_to_doc,
)
from tsk.fan import Fan
from tsk.linalg import FULL, ZERO, Subspace
from tsk.multifilt import apply_elementary
from tsk.prescribe import build_sequence, family_pn
from tsk.reflexive import R2Filtration, RayDatum, to_multifiltration
from tsk.sampling import random_drops, random_reflexive


def sample_reflexive():
    return R2Filtration.b_zero_data(Fan(4), (1, 6, 6, 0, 0))


def test_canonical_dumps():
    text = canonical_dumps({"b": 1, "a": [2, 3]})
    assert text == '{"a":[2,3],"b":1}\n'
    # repeated serialization is byte-identical
    assert canonical_dumps(json.loads(text)) == text
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("nan")})


def test_long_integers_are_written_but_not_read():
    text = canonical_dumps({"x": 10**5000})
    assert text == '{"x":1' + "0" * 5000 + "}\n"
    if hasattr(sys, "get_int_max_str_digits"):
        # parsing stays under Python's limit on int-str digits
        with pytest.raises(ValueError, match="limit"):
            canonical_loads(text)


def test_float_rejection():
    with pytest.raises(ValueError):
        canonical_loads('{"a": 1.5}')
    with pytest.raises(ValueError):
        canonical_loads('{"a": NaN}')
    assert canonical_loads('{"a": 2}') == {"a": 2}


def test_subspace_docs():
    cases = [
        (ZERO, {"kind": "zero"}),
        (FULL, {"kind": "full"}),
        (Subspace.line(2, 4), {"kind": "line", "line": [1, 2]}),
    ]
    for w, doc in cases:
        assert subspace_to_doc(w) == doc
        assert subspace_from_doc(doc) is w
    # there is no general-rank basis encoding
    with pytest.raises(ValueError, match="unknown subspace kind 'basis'"):
        subspace_from_doc({"kind": "basis", "rows": [["1", "0"]]})
    with pytest.raises(ValueError):
        subspace_from_doc({"kind": "sphere"})
    with pytest.raises(ValueError):
        subspace_from_doc({"kind": "line", "line": [1]})
    with pytest.raises(ValueError):
        subspace_from_doc({"kind": "line", "line": [0, 0]})


def test_reflexive_roundtrip():
    f = sample_reflexive()
    doc = reflexive_to_doc(f)
    assert doc["n"] == 4
    assert doc["normalization"] == "b_zero"
    assert doc["rays"][0] == {"a": -1, "b": 0, "line": [1, 0]}
    assert doc["rays"][3] == {"a": 0, "b": 0}  # inactive: no line key
    assert reflexive_from_doc(doc) == f
    # general (non-normalized) data round-trips too
    g = R2Filtration(
        Fan(3),
        (
            RayDatum(-1, 2, (1, 0)),
            RayDatum(0, 3, (1, 1)),
            RayDatum(2, 2, None),
            RayDatum(-4, 0, (1, 2)),
        ),
    )
    gd = reflexive_to_doc(g)
    assert gd["normalization"] == "general"
    assert reflexive_from_doc(gd) == g


def test_reflexive_doc_errors():
    doc = reflexive_to_doc(sample_reflexive())
    bad = dict(doc, normalization="a_zero")
    with pytest.raises(ValueError):
        reflexive_from_doc(bad)
    with pytest.raises(ValueError):
        reflexive_from_doc(dict(doc, rays=doc["rays"][:2]))
    with pytest.raises(ValueError):
        reflexive_from_doc(dict(doc, n="four"))
    with pytest.raises(ValueError):
        reflexive_from_doc({"n": 2, "rays": [{"a": 0, "b": "x"}] * 3})


def test_every_fitting_normalization_tag_is_accepted(tmp_path, capsys):
    # a = b = 0 on every ray is both b_zero and a_zero data; dumps write b_zero.
    zero = {"n": 2, "rays": [{"a": 0, "b": 0}] * 3}
    for tag in ("b_zero", "a_zero"):
        assert reflexive_from_doc(dict(zero, normalization=tag)).is_a_zero()
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(dict(zero, normalization=tag)))
        assert cli.main(["validate", str(path)]) == 0, capsys.readouterr().err
    assert reflexive_to_doc(reflexive_from_doc(zero))["normalization"] == "b_zero"
    with pytest.raises(ValueError, match="does not match the data \\(b_zero\\)"):
        reflexive_from_doc(dict(zero, normalization="general"))
    a_zero = {"n": 1, "rays": [{"a": 0, "b": 2, "line": [1, 0]}, {"a": 0, "b": 0}]}
    assert reflexive_to_doc(reflexive_from_doc(a_zero))["normalization"] == "a_zero"
    with pytest.raises(ValueError, match="does not match the data \\(a_zero\\)"):
        reflexive_from_doc(dict(a_zero, normalization="b_zero"))


def test_booleans_are_not_integers():
    # bool is an int subclass in Python; JSON true/false never stand in
    # for an integer, wherever a document needs one.
    rdoc = reflexive_to_doc(R2Filtration.b_zero_data(Fan(1), (1, 2)))
    assert reflexive_from_doc(rdoc).n == 1
    ray = {"a": -1, "b": 0, "line": [1, 0]}
    for bad in (
        dict(rdoc, n=True),
        dict(rdoc, rays=[dict(ray, a=True), rdoc["rays"][1]]),
        dict(rdoc, rays=[dict(ray, b=False), rdoc["rays"][1]]),
        dict(rdoc, rays=[dict(ray, line=[True, 0]), rdoc["rays"][1]]),
    ):
        with pytest.raises(ValueError):
            reflexive_from_doc(bad)
    with pytest.raises(ValueError, match="integer pair"):
        subspace_from_doc({"kind": "line", "line": [1, False]})
    mdoc = multifilt_to_doc(to_multifiltration(R2Filtration.b_zero_data(Fan(2), (1, 1, 1))))
    assert multifilt_from_doc(mdoc).fan == Fan(2)
    cone = mdoc["cones"][1]
    jump = cone["jumps"][0]
    for bad_cone in (
        dict(cone, rays=[True]),
        dict(cone, jumps=[dict(jump, coords=[True])] + cone["jumps"][1:]),
    ):
        cones = [bad_cone if c is cone else c for c in mdoc["cones"]]
        with pytest.raises(ValueError, match="integers|ray indices"):
            multifilt_from_doc(dict(mdoc, cones=cones))
    with pytest.raises(ValueError, match="positive integer"):
        multifilt_from_doc(dict(mdoc, n=True))


def test_multifilt_roundtrip():
    mf = to_multifiltration(sample_reflexive())
    doc = multifilt_to_doc(mf)
    assert doc["n"] == 4 and doc["rank"] == 2
    assert multifilt_from_doc(doc) == mf
    # after a drop (a genuinely non-reflexive family)
    e = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), ZERO)
    assert multifilt_from_doc(multifilt_to_doc(e)) == e


def test_multifilt_doc_errors():
    doc = multifilt_to_doc(to_multifiltration(sample_reflexive()))
    for rank in (0, 1, 3, True):
        with pytest.raises(ValueError, match=f"^'rank' must be 2, got {rank!r}$"):
            multifilt_from_doc(dict(doc, rank=rank))
    with pytest.raises(ValueError, match="^'rank' must be 2, got None$"):
        multifilt_from_doc({k: v for k, v in doc.items() if k != "rank"})
    with pytest.raises(ValueError):
        multifilt_from_doc(dict(doc, cones="nope"))
    dup = dict(doc, cones=doc["cones"] + [doc["cones"][0]])
    with pytest.raises(ValueError):
        multifilt_from_doc(dup)
    # one entry per cone: a missing one, or a duplicate in its place
    for cones in (doc["cones"][1:], doc["cones"][1:] + doc["cones"][1:2]):
        with pytest.raises(ValueError, match=r"2\^5 - 2 cones|duplicate"):
            multifilt_from_doc(dict(doc, cones=cones))
    # the count is refused before 2^(n + 1) is computed, for any n
    with pytest.raises(ValueError, match=r"2\^1000001 - 2 cones of the fan of P\^1000000, got 0"):
        multifilt_from_doc(dict(doc, n=10**6, cones=[]))


def test_load_dump_documents():
    f = sample_reflexive()
    text = dump_document(SheafDocument("reflexive", f, label="start"))
    doc = load_document(text)
    assert doc.kind == "reflexive"
    assert doc.label == "start"
    assert doc.n == 4
    assert doc.payload == f
    # byte-identical round trip
    assert dump_document(doc) == text
    # multifiltration documents detect by the "cones" key
    mf_text = dump_document(
        SheafDocument("multifiltration", to_multifiltration(f))
    )
    mf_doc = load_document(mf_text)
    assert mf_doc.kind == "multifiltration"
    assert mf_doc.label is None
    assert dump_document(mf_doc) == mf_text
    # conversion helpers
    assert mf_doc.as_multifiltration() == to_multifiltration(f)
    assert doc.as_multifiltration() == to_multifiltration(f)
    with pytest.raises(ValueError):
        mf_doc.reflexive()
    with pytest.raises(AttributeError):
        doc.label = "other"


def test_load_dump_round_trip_on_random_documents():
    # load inverts dump on the payload, and dump inverts load on the bytes:
    # general-b reflexive data and drop chains below its hull.
    rng = random.Random(16)
    docs = []
    for i in range(30):
        n = (2, 3, 4)[i % 3]
        f = random_reflexive(rng, n, max_c=4)
        docs.append(SheafDocument("reflexive", f, label=f"r{i}" if i % 2 else None))
        e, _ = random_drops(rng, to_multifiltration(f), rng.randint(1, 4), range(1, n + 1))
        docs.append(SheafDocument("multifiltration", e))
    for doc in docs:
        text = dump_document(doc)
        back = load_document(text)
        assert back == doc
        assert dump_document(back) == text


def test_load_document_errors():
    for bad in [
        "[1]",
        '{"n": 3}',
        '{"rays": [], "cones": [], "n": 1}',
        '{"n": 3, "rays": [], "label": 7}',
        '{"n":1,"rays":[{"a":0,"b":1.0,"line":[1,0]},{"a":0,"b":0}]}',
    ]:
        with pytest.raises(ValueError):
            load_document(bad)


def test_deterministic_output():
    # scrambled key order parses to the same canonical bytes
    f = sample_reflexive()
    text = dump_document(SheafDocument("reflexive", f))
    scrambled = json.dumps(json.loads(text), indent=2, sort_keys=False)
    assert dump_document(load_document(scrambled)) == text


def _family_pn_text(n):
    """The dumped run-built family_pn(n) sheaf: canonical lists."""
    sol = family_pn(n)
    return dump_document(SheafDocument("multifiltration", build_sequence(sol.problem, sol).final))


@pytest.fixture
def canonicalizations(monkeypatch):
    """Counts the canonicalizer's calls: "cached" through its cache,
    "one-off" through `__wrapped__`."""
    calls = Counter()
    canonical = multifilt._canonical_jumps

    def counted(jumps):
        calls["cached"] += 1
        return canonical(jumps)

    def one_off(jumps):
        calls["one-off"] += 1
        return canonical.__wrapped__(jumps)

    counted.__wrapped__ = one_off
    monkeypatch.setattr(multifilt, "_canonical_jumps", counted)
    return calls


@pytest.mark.parametrize("n", range(3, 9))
def test_parse_canonicalizes_the_top_cones_only(canonicalizations, n):
    # A canonical document costs the walk n + 1 canonicalizations, of the
    # top cones, and one projection per facet edge it checks: two under
    # each (n - 1)-cone, one under each lower cone.  Checking every edge
    # costs 2^(n+1) - 2 and (n + 1)(2^n - 2).
    text = _family_pn_text(n)
    canonicalizations.clear()
    load_document(text)
    edges = n * (n + 1) + sum(comb(n + 1, k) for k in range(1, n - 1))
    assert canonicalizations == {"cached": n + 1, "one-off": edges}


def _redundant(jumps):
    """A FULL jump one step above every jump: the value there is C^2."""
    top = [max(c) + 1 for c in zip(*(j["coords"] for j in jumps))]
    return jumps + [{"coords": top, "subspace": {"kind": "full"}}]


NOT_CANONICAL = {
    "redundant": _redundant,
    "disorder": lambda jumps: jumps[::-1],
    "repeated": lambda jumps: jumps + [copy.deepcopy(jumps[0])],
}


@pytest.mark.parametrize("cone", [(0, 1, 2, 3), (0, 1, 2), (0,)], ids=("top", "n-1", "ray"))
@pytest.mark.parametrize("edit", sorted(NOT_CANONICAL))
def test_lists_that_are_not_canonical_load_to_their_family(canonicalizations, cone, edit):
    # A valid list that is not canonical, on a top cone, an (n - 1)-cone or
    # a ray, loads to the family of the canonical dump, and dumps to the
    # same bytes; off the top cones the walk canonicalizes it once more.
    text = _family_pn_text(4)
    doc = json.loads(text)
    entry = next(e for e in doc["cones"] if tuple(e["rays"]) == cone)
    assert len(entry["jumps"]) >= 2
    entry["jumps"] = NOT_CANONICAL[edit](entry["jumps"])
    edited = json.dumps(doc)
    canonicalizations.clear()
    loaded = load_document(edited)
    assert canonicalizations["cached"] == 5 + (len(cone) < 4)
    assert loaded == load_document(text)
    assert dump_document(loaded) == text


def test_a_ray_list_wrong_by_one_jump_is_refused():
    # A ray is checked under one coface only: moving its C^2 jump by one
    # step, and touching no other list, is still refused.
    doc = json.loads(_family_pn_text(4))
    ray = next(e for e in doc["cones"] if e["rays"] == [0])
    assert ray["jumps"][-1]["subspace"] == {"kind": "full"}
    ray["jumps"][-1]["coords"][0] += 1
    with pytest.raises(ValueError, match=r"facet compatibility fails: .* its facet \(0,\)"):
        load_document(json.dumps(doc))
