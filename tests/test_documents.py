"""Canonical JSON wire formats."""

from __future__ import annotations

import json

import pytest

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
from tsk.linalg import Subspace
from tsk.multifilt import apply_elementary
from tsk.reflexive import R2Filtration, RayDatum, to_multifiltration


def sample_reflexive():
    return R2Filtration.b_zero_data(Fan(4), (1, 6, 6, 0, 0))


def test_canonical_dumps():
    text = canonical_dumps({"b": 1, "a": [2, 3]})
    assert text == '{"a":[2,3],"b":1}\n'
    # repeated serialization is byte-identical
    assert canonical_dumps(json.loads(text)) == text
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("nan")})


def test_float_rejection():
    with pytest.raises(ValueError):
        canonical_loads('{"a": 1.5}')
    with pytest.raises(ValueError):
        canonical_loads('{"a": NaN}')
    assert canonical_loads('{"a": 2}') == {"a": 2}


def test_subspace_docs():
    cases = [
        (Subspace.zero(2), {"kind": "zero"}),
        (Subspace.full(2), {"kind": "full"}),
        (Subspace.line(2, 4), {"kind": "line", "line": [1, 2]}),
    ]
    for w, doc in cases:
        assert subspace_to_doc(w) == doc
        assert subspace_from_doc(doc, 2) == w
    # rank 1 has only zero and full
    for w, doc in [
        (Subspace.zero(1), {"kind": "zero"}),
        (Subspace.full(1), {"kind": "full"}),
    ]:
        assert subspace_to_doc(w) == doc
        assert subspace_from_doc(doc, 1) is w
    with pytest.raises(ValueError):
        subspace_from_doc({"kind": "line", "line": [1, 0]}, 1)
    # there is no general-rank basis encoding
    with pytest.raises(ValueError, match="unknown subspace kind 'basis'"):
        subspace_from_doc({"kind": "basis", "rows": [["1", "0"]]}, 2)
    with pytest.raises(ValueError):
        subspace_from_doc({"kind": "sphere"}, 2)
    with pytest.raises(ValueError):
        subspace_from_doc({"kind": "line", "line": [1]}, 2)


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


def test_multifilt_roundtrip():
    mf = to_multifiltration(sample_reflexive())
    doc = multifilt_to_doc(mf)
    assert doc["n"] == 4 and doc["rank"] == 2
    assert multifilt_from_doc(doc) == mf
    # after a drop (a genuinely non-reflexive family)
    e = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), Subspace.zero(2))
    assert multifilt_from_doc(multifilt_to_doc(e)) == e


def test_multifilt_doc_errors():
    doc = multifilt_to_doc(to_multifiltration(sample_reflexive()))
    for rank in (0, 3):
        with pytest.raises(ValueError, match="'rank' must be 1 or 2"):
            multifilt_from_doc(dict(doc, rank=rank))
    with pytest.raises(ValueError):
        multifilt_from_doc(dict(doc, cones="nope"))
    dup = dict(doc, cones=doc["cones"] + [doc["cones"][0]])
    with pytest.raises(ValueError):
        multifilt_from_doc(dup)


def test_load_dump_documents():
    f = sample_reflexive()
    text = dump_document(SheafDocument("reflexive", f, label="start"))
    doc = load_document(text)
    assert doc.kind == "reflexive"
    assert doc.label == "start"
    assert doc.n == 4 and doc.rank == 2
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
