"""Fan of projective space and its weight combinatorics.

The fan of P^n lives in N = Z^n with rays

    u_1 = e_1, ..., u_n = e_n,    u_0 = -(e_1 + ... + e_n),

and cones sigma_I spanned by {u_i : i in I} for every subset
I of {0, ..., n} with |I| <= n (all such subsets are cones of the fan;
|I| = n + 1 is excluded because the rays are not independent).

Cones are represented by sorted tuples of ray indices.  A character
m in M = Z^n is a length-n integer tuple; its class in M/(sigma^perp & M)
is stored as the tuple of pairings (<m, u_rho>) for rho in the cone,
in sorted ray order.  The componentwise order on those coordinate
tuples is exactly the cone order m <=_sigma m' (difference lies in the
dual cone).
"""

from __future__ import annotations

from itertools import combinations
from operator import index
from typing import Iterator

Cone = tuple[int, ...]
Weight = tuple[int, ...]


def _check_cone(n: int, cone: Cone) -> Cone:
    cone = tuple(cone)
    if list(cone) != sorted(set(cone)):
        raise ValueError(f"cone rays must be sorted and distinct: {cone!r}")
    if cone and not (0 <= cone[0] and cone[-1] <= n):
        raise ValueError(f"ray index out of range for P^{n}: {cone!r}")
    if len(cone) > n:
        raise ValueError(
            f"no {len(cone)}-dimensional cones in the fan of P^{n}: {cone!r}"
        )
    return cone


class Fan:
    """The complete fan of P^n (n >= 1).

    Immutable and interned like the lines of `linalg`: `Fan(n)` is the
    one fan of P^n, so equality is identity.
    """

    __slots__ = ("n",)

    def __new__(cls, n: int) -> "Fan":
        n = index(n)
        try:
            return _FANS[n]
        except KeyError:
            pass
        if n < 1:
            raise ValueError("P^n needs n >= 1")
        fan = object.__new__(cls)
        object.__setattr__(fan, "n", n)
        return _FANS.setdefault(n, fan)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("Fan is immutable")

    def __repr__(self) -> str:
        return f"Fan({self.n})"

    @property
    def rays(self) -> range:
        """Ray indices 0..n; ray 0 is u_0 = -(e_1 + ... + e_n)."""
        return range(self.n + 1)

    def cones(self, k: int) -> list[Cone]:
        """All k-dimensional cones, lexicographically sorted."""
        if not 0 <= k <= self.n:
            raise ValueError(f"no {k}-cones in the fan of P^{self.n}")
        return list(combinations(range(self.n + 1), k))

    def all_cones(self, min_dim: int = 0) -> Iterator[Cone]:
        """All cones of dimension >= min_dim, by (dimension, lex) order."""
        for k in range(min_dim, self.n + 1):
            yield from self.cones(k)

    def codim(self, cone: Cone) -> int:
        return self.n - len(_check_cone(self.n, cone))

    def cofaces(self, cone: Cone) -> list[Cone]:
        """All cones containing `cone` (itself included), by (dim, lex)."""
        cone = _check_cone(self.n, cone)
        rest = [r for r in range(self.n + 1) if r not in cone]
        out = []
        for extra in range(self.n - len(cone) + 1):
            grown = [tuple(sorted(cone + more)) for more in combinations(rest, extra)]
            out.extend(sorted(grown))
        return out


_FANS: dict[int, Fan] = {}
