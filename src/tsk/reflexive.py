"""Rank-2 equivariant reflexive sheaves on P^n as filtration data.

A reflexive rank-2 sheaf is encoded by one bounded increasing
filtration of C^2 per ray: empty below a_rho, a line L_rho on
[a_rho, b_rho), everything from b_rho on.  The module provides the
normalizations, the Chern-class formulas (resolution quotient for the
non-locally-free regime, split-bundle divisor arithmetic otherwise),
slope stability, the discriminant, the positivity inequalities, and
the conversion to the full multifiltration encoding.

Derived scalars follow the usual conventions: c_rho = b_rho - a_rho,
a = sum a_rho, b = sum b_rho, c = sum c_rho, and s_k is the k-th
elementary symmetric polynomial of the c_rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence

from .fan import Fan
from .linalg import Subspace, line2
from .multifilt import Multifiltration, eval_jumps, reflexive_hull
from .ring import TruncPoly, product


class Stability(str, Enum):
    STABLE = "stable"
    STRICTLY_SEMISTABLE = "strictly_semistable"
    UNSTABLE = "unstable"


class NoSplit:
    """Sentinel: the target Chern polynomial admits no nonnegative
    integer root multiset (prescribe_reflexive failure value)."""

    _instance: "NoSplit | None" = None

    def __new__(cls) -> "NoSplit":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NoSplit"


NO_SPLIT = NoSplit()


@dataclass(frozen=True, slots=True)
class RayDatum:
    """Filtration of one ray: (a, b, line), with line the subspace on
    [a, b); the line is meaningless and stored as None when a = b."""

    a: int
    b: int
    line: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.a > self.b:
            raise ValueError(f"need a <= b, got ({self.a}, {self.b})")
        if self.a == self.b:
            object.__setattr__(self, "line", None)
        else:
            if self.line is None:
                raise ValueError("a < b requires a line")
            object.__setattr__(self, "line", line2(*self.line))

    @property
    def c(self) -> int:
        return self.b - self.a

    def value_at(self, i: int) -> Subspace:
        """The filtration subspace E^rho(i)."""
        if i < self.a:
            return Subspace.zero(2)
        if i < self.b:
            return Subspace.line(*self.line)  # type: ignore[misc]
        return Subspace.full(2)


class R2Filtration:
    """One RayDatum per ray of the fan of P^n; immutable."""

    __slots__ = ("fan", "rays")

    def __init__(self, fan: Fan, rays: Sequence[RayDatum]) -> None:
        rays = tuple(rays)
        if len(rays) != fan.n + 1:
            raise ValueError(
                f"P^{fan.n} has {fan.n + 1} rays, got {len(rays)} data"
            )
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "rays", rays)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("R2Filtration is immutable")

    @classmethod
    def b_zero_data(
        cls,
        fan: Fan,
        c: Sequence[int],
        lines: Sequence[tuple[int, int] | None] | None = None,
    ) -> "R2Filtration":
        """The b_zero filtration with the given c_rho; default lines
        are the pairwise distinct L_i = span(1, i) on active rays."""
        if lines is None:
            lines = [(1, i) for i in range(len(c))]
        data = [
            RayDatum(-ci, 0, li if ci > 0 else None)
            for ci, li in zip(c, lines, strict=True)
        ]
        return cls(fan, data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, R2Filtration):
            return NotImplemented
        return self.fan == other.fan and self.rays == other.rays

    def __hash__(self) -> int:
        return hash((self.fan, self.rays))

    def __repr__(self) -> str:
        return f"<R2Filtration on P^{self.fan.n}: {list(self.rays)!r}>"

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

    def active_rays(self) -> list[int]:
        """Rays with c_rho > 0 (the ones whose line matters)."""
        return [i for i, r in enumerate(self.rays) if r.c > 0]

    def distinct_active_lines(self) -> list[tuple[int, int]]:
        """Distinct lines among active rays, in first-occurrence order."""
        seen: list[tuple[int, int]] = []
        for i in self.active_rays():
            ln = self.rays[i].line
            if ln is None:
                raise ValueError(f"active ray {i} carries no line")
            if ln not in seen:
                seen.append(ln)
        return seen

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


def is_locally_free(f: R2Filtration) -> bool:
    """Locally free iff at most two distinct lines occur on active rays
    (the filtration then splits as a sum of two line bundles)."""
    return len(f.distinct_active_lines()) <= 2


def _split_degrees(f: R2Filtration) -> tuple[int, int]:
    """Summand degrees of a locally free (splittable) filtration.

    Summand j is the invariant line bundle of the distinct line L_j:
    on each ray it enters at a_rho when that ray's active line is L_j,
    at b_rho otherwise; its degree is minus the sum of entry levels.
    """
    distinct = f.distinct_active_lines()
    if len(distinct) > 2:
        raise ValueError("filtration does not split: >2 distinct active lines")
    while len(distinct) < 2:
        distinct.append((0, 0))  # placeholder matching no stored line
    degs = []
    for target in distinct:
        entry = 0
        for r in f.rays:
            entry += r.a if (r.c > 0 and r.line == target) else r.b
        degs.append(-entry)
    return degs[0], degs[1]


def chern_total(f: R2Filtration) -> TruncPoly:
    """Total Chern class in Z[H]/<H^{n+1}>.

    Locally free data: the split-bundle product (1+d1*H)(1+d2*H).
    Otherwise: the resolution quotient
        prod_rho (1-(b-c_rho)H) * (1-bH)^-(n-1),   b = sum b_rho,
    which assumes the active lines are in general position (pairwise
    distinct); the two pipelines agree on their common boundary.
    """
    n = f.n
    if is_locally_free(f):
        d1, d2 = _split_degrees(f)
        out = TruncPoly(n, (1, d1)) * TruncPoly(n, (1, d2))
    else:
        b = f.b_sum
        factors = [TruncPoly(n, (1, -(b - r.c))) for r in f.rays]
        out = product(factors, n) * TruncPoly(n, (1, -b)).int_pow(-(n - 1))
    if out[0] != 1 or not out.is_integral:
        raise ArithmeticError(
            f"total Chern class {out.render()} is not integral with constant 1"
        )
    return out


def chern_k_general(f: R2Filtration, k: int) -> int:
    """c_k = sum_{i=0}^{k-3} C(k-3,i) s_{i+3} b^{k-3-i}  (3 <= k <= n).

    Under b_zero this collapses to c_k = s_k.  Always equals the H^k
    coefficient of chern_total on general-position data.
    """
    if not 3 <= k <= f.n:
        raise ValueError(f"k must be in [3, {f.n}], got {k}")
    b = f.b_sum
    e = _esym(f.c_vec)
    return sum(comb(k - 3, i) * e[i + 3] * b ** (k - 3 - i) for i in range(k - 2))


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
    for target in f.distinct_active_lines():
        s_l = sum(r.c for r in f.rays if r.c > 0 and r.line == target)
        if 2 * s_l > c:
            return Stability.UNSTABLE
        if 2 * s_l == c:
            tie = True
    return Stability.STRICTLY_SEMISTABLE if tie else Stability.STABLE


def discriminant(f: R2Filtration) -> int:
    """Delta = 4c_2 - c_1^2; invariant under both normalizations."""
    if f.n < 2:
        raise ValueError("discriminant needs n >= 2")
    c = chern_total(f)
    return 4 * c[2] - c[1] ** 2


def bogomolov_ok(f: R2Filtration) -> bool | None:
    """Delta >= 0 when (semi)stable; None when unstable (no claim)."""
    if stability(f) is Stability.UNSTABLE:
        return None
    return discriminant(f) >= 0


# ---------------------------------------------------------------------------
# positivity and prescription


def chern_vector_positivity(coeffs: Sequence[int]) -> bool:
    """The inequalities sum_i C(k-3,i) c_{i+3} c_1^{k-3-i} >= 0, all k.

    coeffs = (1, c_1, ..., c_n).  These sums are the s_k of a_zero
    data, hence nonnegative for genuine filtrations; exposed to vet
    externally supplied Chern vectors.
    """
    n = len(coeffs) - 1
    c1 = coeffs[1]
    for k in range(3, n + 1):
        total = sum(
            comb(k - 3, i) * coeffs[i + 3] * c1 ** (k - 3 - i)
            for i in range(k - 2)
        )
        if total < 0:
            return False
    return True


def normalized_positivity(f: R2Filtration) -> bool:
    """chern_vector_positivity of a_zero-normalized data (precondition)."""
    if not f.is_a_zero():
        raise ValueError("normalized_positivity requires a_zero data")
    c = chern_total(f)
    return chern_vector_positivity([c[k] for k in range(f.n + 1)])


def prescribe_reflexive(target: TruncPoly) -> R2Filtration | NoSplit:
    """Find b_zero reflexive data with the prescribed total Chern class.

    Searches nonnegative integers (r_0, ..., r_n) whose elementary
    symmetric polynomials match the target coefficients for k = 1..n
    (the degree-(n+1) coefficient of the lift is free).  On success the
    returned filtration has c_rho = r_rho (positives first, ascending)
    and pairwise distinct lines; NO_SPLIT when no multiset exists.
    """
    n = target.n
    if target[0] != 1 or not target.is_integral:
        raise ValueError("target must be an integral polynomial with constant 1")
    goal = [target[k] for k in range(n + 1)]
    if any(goal[k] < 0 for k in range(1, n + 1)):
        return NO_SPLIT
    e1 = goal[1]

    found: list[int] | None = None

    def search(prefix: list[int], remaining: int, bound: int) -> bool:
        if len(prefix) == n + 1:
            if remaining != 0:
                return False
            e = _esym(prefix)
            return all(e[k] == goal[k] for k in range(1, n + 1))
        slots = n + 1 - len(prefix)
        for r in range(min(bound, remaining), -1, -1):
            if r * slots < remaining:
                break
            prefix.append(r)
            if search(prefix, remaining - r, r):
                return True
            prefix.pop()
        return False

    roots: list[int] = []
    if search(roots, e1, e1 if e1 > 0 else 0):
        found = roots
    if found is None:
        return NO_SPLIT
    ordered = sorted((r for r in found if r > 0)) + [0] * found.count(0)
    fan = Fan(n)
    return R2Filtration.b_zero_data(fan, ordered)


# ---------------------------------------------------------------------------
# conversion to/from multifiltrations


def to_multifiltration(f: R2Filtration) -> Multifiltration:
    """The full family E^sigma_m = meet of E^rho(m_rho) over the cone's
    rays, in jump-list encoding: the reflexive hull of the ray
    filtrations."""
    rays = {
        (i,): [((x,), r.value_at(x)) for x in sorted({r.a, r.b})]
        for i, r in enumerate(f.rays)
    }
    mf = reflexive_hull(Multifiltration(f.fan, 2, rays, validate=False))
    mf.validate()
    return mf


def from_multifiltration(mf: Multifiltration) -> R2Filtration:
    """Recover the rank-2 ray data (a, b, L) from a reflexive family's
    ray filtrations.  Raises if some ray filtration is not of the
    three-step shape 0 -> line -> C^2 (rank must be 2)."""
    if mf.rank != 2:
        raise ValueError("rank-2 data required")
    data: list[RayDatum] = []
    for ray in mf.fan.rays:
        jumps = mf.jumps[(ray,)]
        coords = sorted({c[0] for c, _ in jumps})
        a = coords[0]
        first = eval_jumps(2, jumps, (a,))
        full_at = [x for x in coords if eval_jumps(2, jumps, (x,)).dim == 2]
        if not full_at:
            raise ValueError(f"ray {ray} never reaches C^2")
        b = min(full_at)
        if first.dim == 2:
            datum = RayDatum(a, a, None)
        elif first.dim == 1 and b > a:
            datum = RayDatum(a, b, first.line_pair())
        else:
            raise ValueError(f"ray {ray} filtration is not reflexive rank-2 data")
        for x in coords:
            if eval_jumps(2, jumps, (x,)) != datum.value_at(x):
                raise ValueError(f"ray {ray} filtration is not reflexive rank-2 data")
        data.append(datum)
    return R2Filtration(mf.fan, data)
