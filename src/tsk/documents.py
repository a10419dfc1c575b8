"""JSON document layer.

Two sheaf encodings travel on the wire:

  reflexive       {"n":4,"normalization":"b_zero",
                   "rays":[{"a":-1,"b":0,"line":[1,0]}, ...]}
  multifiltration {"n":4,"rank":2,"cones":[{"rays":[0,1,2],
                   "jumps":[{"coords":[-1,0,0],
                             "subspace":{"kind":"line","line":[1,0]}}]}]}

plus an optional "label".  A multifiltration has rank 1 or 2, and each
jump subspace is {"kind":"zero"}, {"kind":"full"} or (rank 2 only)
{"kind":"line","line":[p,q]}.  Serialization is canonical (sorted keys,
tight separators, trailing newline, integers only -- floats are
rejected outright), so documents round-trip byte-identically and
identical inputs give identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .fan import Fan
from .linalg import RANKS, Subspace
from .multifilt import Multifiltration
from .reflexive import R2Filtration, RayDatum, to_multifiltration


def canonical_dumps(obj: Any) -> str:
    """The one true JSON rendering: sorted keys, no spaces, newline."""
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
        + "\n"
    )


def _reject_float(s: str) -> None:
    raise ValueError(f"floats are not allowed in documents: {s!r}")


def canonical_loads(text: str) -> Any:
    return json.loads(
        text, parse_float=_reject_float, parse_constant=_reject_float
    )


# ---------------------------------------------------------------------------
# subspaces


def subspace_to_doc(w: Subspace) -> dict:
    if w.dim == 0:
        return {"kind": "zero"}
    if w.dim == w.r:
        return {"kind": "full"}
    return {"kind": "line", "line": list(w.line_pair())}


def subspace_from_doc(doc: Any, rank: int) -> Subspace:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError(f"subspace document must be an object with 'kind': {doc!r}")
    kind = doc["kind"]
    if kind == "zero":
        return Subspace.zero(rank)
    if kind == "full":
        return Subspace.full(rank)
    if kind == "line":
        if rank != 2:
            raise ValueError("'line' subspaces are specific to rank 2")
        pair = doc.get("line")
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, int) for x in pair)
        ):
            raise ValueError(f"'line' needs an integer pair, got {pair!r}")
        return Subspace.line(pair[0], pair[1])
    raise ValueError(f"unknown subspace kind {kind!r}")


# ---------------------------------------------------------------------------
# reflexive documents


def _normalization_tag(f: R2Filtration) -> str:
    if f.is_b_zero():
        return "b_zero"
    if f.is_a_zero():
        return "a_zero"
    return "general"


def reflexive_to_doc(f: R2Filtration) -> dict:
    rays = []
    for r in f.rays:
        entry: dict = {"a": r.a, "b": r.b}
        if r.line is not None:
            entry["line"] = list(r.line)
        rays.append(entry)
    return {"n": f.n, "normalization": _normalization_tag(f), "rays": rays}


def reflexive_from_doc(doc: Any) -> R2Filtration:
    if not isinstance(doc, dict):
        raise ValueError("reflexive document must be a JSON object")
    n = doc.get("n")
    rays = doc.get("rays")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    if not isinstance(rays, list) or len(rays) != n + 1:
        raise ValueError(f"'rays' must list {n + 1} entries for P^{n}")
    data = []
    for i, entry in enumerate(rays):
        if not isinstance(entry, dict):
            raise ValueError(f"ray {i}: expected an object, got {entry!r}")
        a, b = entry.get("a"), entry.get("b")
        if not isinstance(a, int) or not isinstance(b, int):
            raise ValueError(f"ray {i}: 'a' and 'b' must be integers")
        line = entry.get("line")
        if line is not None:
            if (
                not isinstance(line, list)
                or len(line) != 2
                or not all(isinstance(x, int) for x in line)
            ):
                raise ValueError(f"ray {i}: 'line' must be an integer pair")
            line = (line[0], line[1])
        data.append(RayDatum(a, b, line))
    f = R2Filtration(Fan(n), tuple(data))
    tag = doc.get("normalization")
    if tag is not None and tag != _normalization_tag(f):
        raise ValueError(
            f"normalization tag {tag!r} does not match the data"
            f" ({_normalization_tag(f)})"
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
    return {"n": mf.fan.n, "rank": mf.rank, "cones": cones}


def multifilt_from_doc(doc: Any) -> Multifiltration:
    if not isinstance(doc, dict):
        raise ValueError("multifiltration document must be a JSON object")
    n, rank = doc.get("n"), doc.get("rank")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    if rank not in RANKS:
        raise ValueError(f"'rank' must be 1 or 2, got {rank!r}")
    cones = doc.get("cones")
    if not isinstance(cones, list):
        raise ValueError("'cones' must be a list")
    jumps: dict[tuple[int, ...], list] = {}
    for entry in cones:
        if not isinstance(entry, dict):
            raise ValueError(f"cone entry must be an object, got {entry!r}")
        rays = entry.get("rays")
        if not isinstance(rays, list) or not all(isinstance(x, int) for x in rays):
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
            if not isinstance(coords, list) or not all(
                isinstance(x, int) for x in coords
            ):
                raise ValueError(f"jump 'coords' must be integers: {coords!r}")
            parsed.append((tuple(coords), subspace_from_doc(j.get("subspace"), rank)))
        jumps[cone] = parsed
    return Multifiltration(Fan(n), rank, jumps, validate=True)


# ---------------------------------------------------------------------------
# tagged documents


@dataclass(frozen=True)
class SheafDocument:
    """A parsed wire document: reflexive rank-2 data or a general
    multifiltration, with an optional label."""

    kind: str  # "reflexive" | "multifiltration"
    payload: R2Filtration | Multifiltration
    label: str | None = None

    @property
    def n(self) -> int:
        return (
            self.payload.n
            if isinstance(self.payload, R2Filtration)
            else self.payload.fan.n
        )

    @property
    def rank(self) -> int:
        return 2 if isinstance(self.payload, R2Filtration) else self.payload.rank

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
