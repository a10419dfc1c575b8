"""Rank-2 equivariant reflexive sheaves on P^n as filtration data.

A reflexive rank-2 sheaf is encoded by one bounded increasing
filtration of C^2 per ray: empty below a_rho, a line L_rho on
[a_rho, b_rho), everything from b_rho on.  The module provides the
normalizations, the Chern-class formulas (resolution quotient for the
non-locally-free regime, split-bundle divisor arithmetic otherwise)
and the table of every Chern route, slope stability, the
discriminant, and the conversion to the full multifiltration
encoding.

The module imports `multifilt` and `chern` only where the conversion
and the general route run, so a command reads, checks and judges ray
data without compiling them.

Derived scalars follow the usual conventions: c_rho = b_rho - a_rho,
a = sum a_rho, b = sum b_rho, c = sum c_rho, and s_k is the k-th
elementary symmetric polynomial of the c_rho.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import index
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .fan import Fan
from .linalg import FULL, ZERO, Subspace, line2
from .record import Frozen
from .ring import TruncPoly, linear_product

if TYPE_CHECKING:
    from .multifilt import Multifiltration


class Stability(str, Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictly_semistable"
    UNSTABLE = "unstable"


class RayDatum(Frozen):
    """Filtration of one ray: (a, b, line), with line the subspace on
    [a, b); the line is meaningless and stored as None when a = b.  a
    and b go through `operator.index`, so a float raises TypeError."""

    __slots__ = ("a", "b", "line")

    def __init__(self, a: int, b: int, line: tuple[int, int] | None = None) -> None:
        a, b = index(a), index(b)
        if a > b:
            raise ValueError(f"need a <= b, got ({a}, {b})")
        if a == b:
            line = None
        elif line is None:
            raise ValueError("a < b requires a line")
        else:
            line = line2(*line)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "line", line)

    @property
    def c(self) -> int:
        return self.b - self.a

    def value_at(self, i: int) -> Subspace:
        """The filtration subspace E^rho(i)."""
        if i < self.a:
            return ZERO
        if i < self.b:
            return Subspace.line(*self.line)  # type: ignore[misc]
        return FULL


class R2Filtration(Frozen):
    """One RayDatum per ray of the fan of P^n."""

    __slots__ = ("fan", "rays")

    def __init__(self, fan: Fan, rays: Sequence[RayDatum]) -> None:
        rays = tuple(rays)
        if len(rays) != fan.n + 1:
            raise ValueError(
                f"P^{fan.n} has {fan.n + 1} rays, got {len(rays)} data"
            )
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "rays", rays)

    @classmethod
    def b_zero_data(cls, fan: Fan, c: Sequence[int]) -> "R2Filtration":
        """The b_zero filtration with the given c_rho, with the pairwise
        distinct lines L_i = span(1, i) on the active rays."""
        data = [RayDatum(-ci, 0, (1, i) if ci > 0 else None) for i, ci in enumerate(c)]
        return cls(fan, data)

    # -- derived scalars --------------------------------------------------

    @property
    def n(self) -> int:
        return self.fan.n

    @property
    def a_vec(self) -> tuple[int, ...]:
        return tuple(r.a for r in self.rays)

    @property
    def b_vec(self) -> tuple[int, ...]:
        return tuple(r.b for r in self.rays)

    @property
    def c_vec(self) -> tuple[int, ...]:
        return tuple(r.c for r in self.rays)

    @property
    def a_sum(self) -> int:
        return sum(self.a_vec)

    @property
    def b_sum(self) -> int:
        return sum(self.b_vec)

    @property
    def c_sum(self) -> int:
        return sum(self.c_vec)

    def is_b_zero(self) -> bool:
        return all(r.b == 0 for r in self.rays)

    def is_a_zero(self) -> bool:
        return all(r.a == 0 for r in self.rays)


# ---------------------------------------------------------------------------
# normalization


def normalize(f: R2Filtration, mode: str) -> R2Filtration:
    """Shift every ray filtration so the chosen endpoint sits at 0.

    Tensoring by the invariant line bundle O(sum d_rho D_rho) shifts
    (a_rho, b_rho) by -d_rho per ray; c_rho is preserved.
    """
    if mode == "b_zero":
        data = [RayDatum(r.a - r.b, 0, r.line) for r in f.rays]
    elif mode == "a_zero":
        data = [RayDatum(0, r.b - r.a, r.line) for r in f.rays]
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    return R2Filtration(f.fan, data)


# ---------------------------------------------------------------------------
# symmetric functions and Chern classes


def elementary_symmetric(f: R2Filtration, k: int) -> int:
    """s_k, the k-th elementary symmetric polynomial of (c_rho)."""
    if not 1 <= k <= f.n:
        raise ValueError(f"k must be in [1, {f.n}], got {k}")
    return _esym(f.c_vec)[k]


def _esym(values: Sequence[int]) -> list[int]:
    """All elementary symmetric polynomials e_0..e_len of the values."""
    e = [1] + [0] * len(values)
    for v in values:
        for k in range(len(values), 0, -1):
            e[k] += v * e[k - 1]
    return e


def line_sums(f: R2Filtration) -> dict[tuple[int, int], int]:
    """S_L for each distinct active line L, in first-occurrence order:
    the sum of c_rho over the rays carrying L.  The one reading of the
    active lines: general position, local freeness, the split degrees
    and stability all count or walk its keys."""
    sums: dict[tuple[int, int], int] = {}
    for r in f.rays:
        if r.c > 0:
            sums[r.line] = sums.get(r.line, 0) + r.c  # type: ignore[index]
    return sums


def in_general_position(f: R2Filtration) -> bool:
    """The closed formulas' hypothesis: the active lines are pairwise
    distinct (no two active rays carry the same line)."""
    return len(line_sums(f)) == sum(r.c > 0 for r in f.rays)


def chern_symmetric(f: R2Filtration) -> TruncPoly:
    """Total Chern class of b_zero data in general position by the
    symmetric-function formula c_k = s_k, independent of
    `chern_total`'s two routes."""
    if not f.is_b_zero():
        raise ValueError("the symmetric-function formula needs b_zero reflexive data")
    if not in_general_position(f):
        raise ValueError(
            "the symmetric-function formula needs pairwise distinct active lines"
        )
    return TruncPoly(f.n, _esym(f.c_vec)[: f.n + 1])


def is_locally_free(f: R2Filtration) -> bool:
    """Locally free iff at most two distinct lines occur on active rays
    (the filtration then splits as a sum of two line bundles)."""
    return len(line_sums(f)) <= 2


def _split_degrees(f: R2Filtration) -> tuple[int, int]:
    """Summand degrees of a locally free (splittable) filtration.

    Summand j is the invariant line bundle of the distinct line L_j:
    on each ray it enters at a_rho when that ray's line is L_j, at
    b_rho otherwise; its degree is minus the sum of entry levels.  A
    missing line is None, the line of the inactive rays, where a = b.
    """
    d1, d2 = (
        -sum(r.a if r.line == line else r.b for r in f.rays)
        for line in [*line_sums(f), None, None][:2]
    )
    return d1, d2


def chern_total(f: R2Filtration) -> TruncPoly:
    """Total Chern class in Z[H]/<H^{n+1}>.

    Locally free data: the split-bundle product (1+d1*H)(1+d2*H).
    Otherwise: the resolution quotient
        prod_rho (1-(b-c_rho)H) * (1-bH)^-(n-1),   b = sum b_rho,
    which needs the active lines in general position (pairwise
    distinct), else ValueError; the two pipelines agree on their
    common boundary.
    """
    if is_locally_free(f):
        d1, d2 = _split_degrees(f)
        return linear_product(f.n, [(d1, 1), (d2, 1)])
    if not in_general_position(f):
        raise ValueError(
            "the resolution formula needs locally free data or pairwise"
            " distinct active lines"
        )
    b = f.b_sum
    return linear_product(
        f.n, [(-(b - r.c), 1) for r in f.rays] + [(-b, -(f.n - 1))]
    )


def slope(f: R2Filtration) -> Fraction:
    """mu = -(1/2) sum_rho iota_rho with iota_rho = a_rho + b_rho."""
    return Fraction(-(f.a_sum + f.b_sum), 2)


def stability(f: R2Filtration) -> Stability:
    """Slope stability of the reflexive sheaf.

    For each line L among the active lines compare S_L = sum of c_rho
    over rays carrying L with c - S_L: any strict excess destabilizes,
    any tie gives strict semistability.  Split data with no active ray
    (c = 0) is a sum of two equal-degree line bundles, hence strictly
    semistable.
    """
    c = f.c_sum
    if c == 0:
        return Stability.STRICTLY_SEMISTABLE
    tie = False
    for s_l in line_sums(f).values():
        if 2 * s_l > c:
            return Stability.UNSTABLE
        if 2 * s_l == c:
            tie = True
    return Stability.STRICTLY_SEMISTABLE if tie else Stability.STABLE


def _klyachko(f: R2Filtration) -> TruncPoly:
    """The general formula on the family of the ray data."""
    from .chern import chern_general

    return chern_general(to_multifiltration(f))


# Every Chern route of reflexive data, in a fixed order.  The general
# (klyachko) formula covers every sheaf; a closed route raises
# ValueError outside its hypothesis.  Each entry looks the functions it
# runs up by name when called, so a rebinding of those names is seen.
CHERN_ROUTES: dict[str, Callable[[R2Filtration], TruncPoly]] = {
    "resolution": lambda f: chern_total(f),
    "klyachko": _klyachko,
    "symmetric": lambda f: chern_symmetric(f),
}


def _route_classes(f: R2Filtration) -> Iterator[tuple[str, TruncPoly]]:
    """(name, class) of every route of CHERN_ROUTES whose hypothesis
    holds, in table order, each computed when it is reached."""
    for name, route in CHERN_ROUTES.items():
        try:
            c = route(f)
        except ValueError:
            continue
        yield name, c


def chern_routes(f: R2Filtration) -> dict[str, TruncPoly]:
    """Every route of CHERN_ROUTES whose hypothesis holds, in table order."""
    return dict(_route_classes(f))


def chern_class(f: R2Filtration) -> TruncPoly:
    """The total Chern class by the first route of CHERN_ROUTES whose
    hypothesis holds: the closed formula when it applies, else the
    general one, which covers every sheaf."""
    return next(_route_classes(f))[1]


def discriminant(f: R2Filtration) -> int:
    """Delta = 4c_2 - c_1^2 of `chern_class`; invariant under both
    normalizations."""
    if f.n < 2:
        raise ValueError("discriminant needs n >= 2")
    c = chern_class(f)
    return 4 * c[2] - c[1] ** 2


def bogomolov_ok(f: R2Filtration) -> bool | None:
    """Delta >= 0 when (semi)stable; None when unstable (no claim)."""
    if stability(f) is Stability.UNSTABLE:
        return None
    return discriminant(f) >= 0


# ---------------------------------------------------------------------------
# conversion to/from multifiltrations


def to_multifiltration(f: R2Filtration) -> Multifiltration:
    """The full family E^sigma_m = meet of E^rho(m_rho) over the cone's
    rays, in jump-list encoding: the reflexive hull of the ray
    filtrations, built from each ray's ends (a, b, E^rho(a))."""
    from .multifilt import hull_of_ends

    return hull_of_ends(f.fan, [(r.a, r.b, r.value_at(r.a)) for r in f.rays])


def from_multifiltration(mf: Multifiltration) -> R2Filtration:
    """Recover the ray data (a, b, L) from a family's ray filtrations;
    `ray_ends` raises InvalidFamily on lists that are no ray data."""
    from .multifilt import ray_ends

    return R2Filtration(mf.fan, [RayDatum(a, b, v.pair) for a, b, v in ray_ends(mf)])
