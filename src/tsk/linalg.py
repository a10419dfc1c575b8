"""The subspace lattice of C^2.

Every sheaf in this library has rank 2, and all its subspace data is
defined over Q, so a subspace of C^2 is one of three kinds of value:
ZERO, FULL, or a line C*(p, q) with (p, q) the coprime pair from
`line2`.  Values are interned, so each subspace exists exactly once:
equality is identity, and join, meet and containment are case analysis
(two distinct lines join to FULL and meet to ZERO).
"""

from __future__ import annotations

from math import gcd
from typing import Iterable


def line2(p: int, q: int) -> tuple[int, int]:
    """Canonical coprime representative of the line C*(p, q) in C^2."""
    if p == 0 and q == 0:
        raise ValueError("the zero vector defines no line")
    g = gcd(p, q)
    p, q = p // g, q // g
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return (p, q)


class Subspace:
    """A linear subspace of C^2: ZERO, FULL or a line.

    Immutable and interned: use the module constants ZERO and FULL and
    build lines with `line`, never by calling the class.  `pair` is the
    canonical coprime (p, q) of a line and None otherwise.  Equality is
    identity, so the hash is object's, computed in C: the caches keyed
    by jump lists hash their subspaces without a Python call.
    """

    __slots__ = ("dim", "pair")

    def __init__(self, dim: int, pair: tuple[int, int] | None = None) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "pair", pair)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("Subspace is immutable")

    @classmethod
    def line(cls, p: int, q: int) -> "Subspace":
        """The line C*(p, q) in C^2 (canonicalized)."""
        key = line2(p, q)
        try:
            return _LINE[key]
        except KeyError:
            return _LINE.setdefault(key, cls(1, key))

    # -- basic protocol -------------------------------------------------

    def __repr__(self) -> str:
        if self.pair is not None:
            return f"Subspace.line({self.pair[0]}, {self.pair[1]})"
        return "ZERO" if self.dim == 0 else "FULL"

    # -- lattice operations ----------------------------------------------

    def _match(self, other: "Subspace") -> None:
        if not isinstance(other, Subspace):
            raise TypeError(f"expected Subspace, got {other!r}")

    def __le__(self, other: "Subspace") -> bool:
        """Containment self <= other."""
        if self is other:
            return True
        self._match(other)
        return self.dim == 0 or other.dim == 2

    def join(self, other: "Subspace") -> "Subspace":
        """Sum of subspaces."""
        if self is other:
            return self
        self._match(other)
        if other.dim == 0:
            return self
        if self.dim == 0:
            return other
        return FULL

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection of subspaces."""
        if self is other:
            return self
        self._match(other)
        if other.dim == 2:
            return self
        if self.dim == 2:
            return other
        return ZERO


def join_all(spaces: Iterable[Subspace]) -> Subspace:
    out = ZERO
    for s in spaces:
        out = out.join(s)
        if out is FULL:
            break
    return out


def echelon_hyperplane(big: Subspace, small: Subspace) -> Subspace:
    """The echelon-first hyperplane H with small <= H < big, codim 1.

    Below a line this is ZERO; below FULL it is `small` when that is a
    line, else the first coordinate axis Line(1, 0).
    """
    if not small <= big:
        raise ValueError("small subspace not contained in big subspace")
    if big.dim - small.dim < 1:
        raise ValueError("no room for a hyperplane between equal subspaces")
    if big.dim - small.dim == 1:
        return small
    return Subspace.line(1, 0)


ZERO = Subspace(0)
FULL = Subspace(2)
_LINE: dict[tuple[int, int], Subspace] = {}
