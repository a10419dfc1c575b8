"""JSON document layer.

Two sheaf encodings travel on the wire:

  reflexive       {"n":4,"normalization":"b_zero",
                   "rays":[{"a":-1,"b":0,"line":[1,0]}, ...]}
  multifiltration {"n":4,"rank":2,"cones":[{"rays":[0,1,2],
                   "jumps":[{"coords":[-1,0,0],
                             "subspace":{"kind":"line","line":[1,0]}}]}]}

plus an optional "label".  Every sheaf has rank 2: a multifiltration
document must carry "rank":2, and each jump subspace of C^2 is
{"kind":"zero"}, {"kind":"full"} or {"kind":"line","line":[p,q]}.
Serialization is canonical (sorted keys, tight separators, trailing
newline, integers only -- floats are rejected outright, and so are
booleans where an integer belongs), so documents round-trip
byte-identically and identical inputs give identical outputs.
"""

from __future__ import annotations

import json
import sys
from typing import Any, NamedTuple

from .fan import Fan
from .linalg import FULL, ZERO, Subspace
from .multifilt import Multifiltration
from .reflexive import R2Filtration, RayDatum, to_multifiltration


def _is_int(x: Any) -> bool:
    """A JSON integer: bool is an int subclass, but true and false are
    not integers."""
    return type(x) is int


def _is_int_pair(x: Any) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(_is_int, x))


def canonical_dumps(obj: Any) -> str:
    """The one true JSON rendering: sorted keys, no spaces, newline.

    Exact integers are written in full.  Python's limit on the digits
    of an int-str conversion (3.10.7 on) guards parsing, so documents
    are still read under it; it is lifted only while writing.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return (
            json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
            + "\n"
        )
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _reject_float(s: str) -> None:
    raise ValueError(f"floats are not allowed in documents: {s!r}")


def canonical_loads(text: str) -> Any:
    return json.loads(
        text, parse_float=_reject_float, parse_constant=_reject_float
    )


# ---------------------------------------------------------------------------
# subspaces


def subspace_to_doc(w: Subspace) -> dict:
    if w is ZERO:
        return {"kind": "zero"}
    if w is FULL:
        return {"kind": "full"}
    return {"kind": "line", "line": list(w.line_pair())}


def subspace_from_doc(doc: Any) -> Subspace:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError(f"subspace document must be an object with 'kind': {doc!r}")
    kind = doc["kind"]
    if kind == "zero":
        return ZERO
    if kind == "full":
        return FULL
    if kind == "line":
        pair = doc.get("line")
        if not _is_int_pair(pair):
            raise ValueError(f"'line' needs an integer pair, got {pair!r}")
        return Subspace.line(pair[0], pair[1])
    raise ValueError(f"unknown subspace kind {kind!r}")


# ---------------------------------------------------------------------------
# reflexive documents


def _normalization_tags(f: R2Filtration) -> list[str]:
    """The tags that describe the data, the one a dump writes first:
    data with a = b = 0 on every ray is both b_zero and a_zero."""
    tags = [tag for tag, fits in (("b_zero", f.is_b_zero()), ("a_zero", f.is_a_zero())) if fits]
    return tags or ["general"]


def reflexive_to_doc(f: R2Filtration) -> dict:
    rays = []
    for r in f.rays:
        entry: dict = {"a": r.a, "b": r.b}
        if r.line is not None:
            entry["line"] = list(r.line)
        rays.append(entry)
    return {"n": f.n, "normalization": _normalization_tags(f)[0], "rays": rays}


def reflexive_from_doc(doc: Any) -> R2Filtration:
    if not isinstance(doc, dict):
        raise ValueError("reflexive document must be a JSON object")
    n = doc.get("n")
    rays = doc.get("rays")
    if not _is_int(n) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    if not isinstance(rays, list) or len(rays) != n + 1:
        raise ValueError(f"'rays' must list {n + 1} entries for P^{n}")
    data = []
    for i, entry in enumerate(rays):
        if not isinstance(entry, dict):
            raise ValueError(f"ray {i}: expected an object, got {entry!r}")
        a, b = entry.get("a"), entry.get("b")
        if not _is_int(a) or not _is_int(b):
            raise ValueError(f"ray {i}: 'a' and 'b' must be integers")
        line = entry.get("line")
        if line is not None:
            if not _is_int_pair(line):
                raise ValueError(f"ray {i}: 'line' must be an integer pair")
            line = (line[0], line[1])
        data.append(RayDatum(a, b, line))
    f = R2Filtration(Fan(n), tuple(data))
    tag = doc.get("normalization")
    fits = _normalization_tags(f)
    if tag is not None and tag not in fits:
        raise ValueError(
            f"normalization tag {tag!r} does not match the data ({fits[0]})"
        )
    return f


# ---------------------------------------------------------------------------
# multifiltration documents


def multifilt_to_doc(mf: Multifiltration) -> dict:
    cones = []
    for cone in mf.fan.all_cones(min_dim=1):
        jumps = mf.jumps[cone]
        if not jumps:
            continue
        cones.append(
            {
                "rays": list(cone),
                "jumps": [
                    {"coords": list(coords), "subspace": subspace_to_doc(w)}
                    for coords, w in jumps
                ],
            }
        )
    return {"n": mf.fan.n, "rank": 2, "cones": cones}


def multifilt_from_doc(doc: Any) -> Multifiltration:
    if not isinstance(doc, dict):
        raise ValueError("multifiltration document must be a JSON object")
    n = doc.get("n")
    if not _is_int(n) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    if doc.get("rank") != 2:
        raise ValueError(f"'rank' must be 2, got {doc.get('rank')!r}")
    cones = doc.get("cones")
    if not isinstance(cones, list):
        raise ValueError("'cones' must be a list")
    # A family has a list reaching C^2 on each of the 2^(n+1) - 2 cones,
    # so no other count can be valid; checking it first spares building
    # the fan.  That count has n + 1 bits, so a huge n costs no power.
    size = len(cones)
    if size.bit_length() != n + 1 or size != (1 << (n + 1)) - 2:
        raise ValueError(
            f"'cones' must hold one entry for each of the 2^{n + 1} - 2 cones"
            f" of the fan of P^{n}, got {size}"
        )
    jumps: dict[tuple[int, ...], list] = {}
    for entry in cones:
        if not isinstance(entry, dict):
            raise ValueError(f"cone entry must be an object, got {entry!r}")
        rays = entry.get("rays")
        if not isinstance(rays, list) or not all(map(_is_int, rays)):
            raise ValueError(f"cone 'rays' must be a list of ray indices: {rays!r}")
        cone = tuple(rays)
        if cone in jumps:
            raise ValueError(f"duplicate cone entry {cone!r}")
        cone_jumps = entry.get("jumps")
        if not isinstance(cone_jumps, list):
            raise ValueError(f"cone {cone!r}: 'jumps' must be a list")
        parsed = []
        for j in cone_jumps:
            if not isinstance(j, dict):
                raise ValueError(f"jump entry must be an object, got {j!r}")
            coords = j.get("coords")
            if not isinstance(coords, list) or not all(map(_is_int, coords)):
                raise ValueError(f"jump 'coords' must be integers: {coords!r}")
            parsed.append((tuple(coords), subspace_from_doc(j.get("subspace"))))
        jumps[cone] = parsed
    return Multifiltration(Fan(n), jumps, validate=True)


# ---------------------------------------------------------------------------
# tagged documents


class SheafDocument(NamedTuple):
    """A parsed wire document: reflexive rank-2 data or a general
    multifiltration, with an optional label."""

    kind: str  # "reflexive" | "multifiltration"
    payload: R2Filtration | Multifiltration
    label: str | None = None

    @property
    def n(self) -> int:
        return self.payload.fan.n

    def as_multifiltration(self) -> Multifiltration:
        if isinstance(self.payload, R2Filtration):
            return to_multifiltration(self.payload)
        return self.payload

    def reflexive(self) -> R2Filtration:
        if not isinstance(self.payload, R2Filtration):
            raise ValueError(
                "this operation needs reflexive rank-2 ray data, not a"
                " general multifiltration document"
            )
        return self.payload


def load_document(text: str) -> SheafDocument:
    doc = canonical_loads(text)
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError("'label' must be a string")
    if "rays" in doc and "cones" in doc:
        raise ValueError("document mixes reflexive and multifiltration keys")
    if "rays" in doc:
        return SheafDocument("reflexive", reflexive_from_doc(doc), label)
    if "cones" in doc:
        return SheafDocument("multifiltration", multifilt_from_doc(doc), label)
    raise ValueError("document has neither 'rays' nor 'cones'")


def dump_document(doc: SheafDocument) -> str:
    if isinstance(doc.payload, R2Filtration):
        payload = reflexive_to_doc(doc.payload)
    else:
        payload = multifilt_to_doc(doc.payload)
    if doc.label is not None:
        payload["label"] = doc.label
    return canonical_dumps(payload)
