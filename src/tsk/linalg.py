"""The subspace lattice of C^r for r in {1, 2}.

Every sheaf in this library has rank 1 or 2, and all its subspace data
is defined over Q, so a subspace of C^r is one of three kinds of value:
Zero(r), Full(r), or (in rank 2 only) a line C*(p, q) with (p, q) the
coprime pair from `line2`.  Values are interned, so each subspace
exists exactly once: equality is identity, and join, meet and
containment are case analysis (two distinct lines join to Full and
meet to Zero).
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

RANKS = (1, 2)


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
    """A linear subspace of C^r, r in {1, 2}: Zero, Full or a line.

    Immutable and interned: build values with `zero`, `full` and
    `line`, never by calling the class.  `pair` is the canonical
    coprime (p, q) of a line and None otherwise.
    """

    __slots__ = ("r", "dim", "pair", "_hash")

    def __init__(self, r: int, dim: int, pair: tuple[int, int] | None = None) -> None:
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "_hash", hash((r, dim, pair)))

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("Subspace is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, r: int) -> "Subspace":
        try:
            return _ZERO[r]
        except KeyError:
            raise ValueError(f"ambient rank must be 1 or 2, got {r!r}") from None

    @classmethod
    def full(cls, r: int) -> "Subspace":
        try:
            return _FULL[r]
        except KeyError:
            raise ValueError(f"ambient rank must be 1 or 2, got {r!r}") from None

    @classmethod
    def line(cls, p: int, q: int) -> "Subspace":
        """The line C*(p, q) in C^2 (canonicalized)."""
        key = line2(p, q)
        try:
            return _LINE[key]
        except KeyError:
            return _LINE.setdefault(key, cls(2, 1, key))

    # -- basic protocol -------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.pair is not None:
            return f"Subspace.line({self.pair[0]}, {self.pair[1]})"
        return f"Subspace.{'zero' if self.dim == 0 else 'full'}({self.r})"

    def line_pair(self) -> tuple[int, int]:
        """The canonical coprime (p, q) of a line in C^2."""
        if self.pair is None:
            raise ValueError(f"{self!r} is not a line in C^2")
        return self.pair

    # -- lattice operations ----------------------------------------------

    def _match(self, other: "Subspace") -> None:
        if not isinstance(other, Subspace):
            raise TypeError(f"expected Subspace, got {other!r}")
        if self.r != other.r:
            raise ValueError("subspaces live in different ambient spaces")

    def __le__(self, other: "Subspace") -> bool:
        """Containment self <= other."""
        self._match(other)
        return self is other or self.dim == 0 or other.dim == other.r

    def join(self, other: "Subspace") -> "Subspace":
        """Sum of subspaces."""
        self._match(other)
        if self is other or other.dim == 0:
            return self
        if self.dim == 0:
            return other
        return _FULL[self.r]

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection of subspaces."""
        self._match(other)
        if self is other or other.dim == other.r:
            return self
        if self.dim == self.r:
            return other
        return _ZERO[self.r]

    def codim_in(self, other: "Subspace") -> int:
        if not self <= other:
            raise ValueError(f"{self!r} is not contained in {other!r}")
        return other.dim - self.dim


def join_all(r: int, spaces: Iterable[Subspace]) -> Subspace:
    out = Subspace.zero(r)
    for s in spaces:
        out = out.join(s)
        if out.dim == r:
            break
    return out


def meet_all(r: int, spaces: Iterable[Subspace]) -> Subspace:
    out = Subspace.full(r)
    for s in spaces:
        out = out.meet(s)
        if out.dim == 0:
            break
    return out


def echelon_hyperplane(big: Subspace, small: Subspace) -> Subspace:
    """The echelon-first hyperplane H with small <= H < big, codim 1.

    Below a line or C^1 this is Zero; below C^2 it is `small` when that
    is a line, else the first coordinate axis Line(1, 0).
    """
    if not small <= big:
        raise ValueError("small subspace not contained in big subspace")
    if big.dim - small.dim < 1:
        raise ValueError("no room for a hyperplane between equal subspaces")
    if big.dim - small.dim == 1:
        return small
    return Subspace.line(1, 0)


_ZERO: dict[int, Subspace] = {r: Subspace(r, 0) for r in RANKS}
_FULL: dict[int, Subspace] = {r: Subspace(r, r) for r in RANKS}
_LINE: dict[tuple[int, int], Subspace] = {}
