"""Reference computations for the tests, kept out of the library.

tsk's ring is Z[H]/<H^(n+1)>, and its log and exp run through Newton's
identities on integer log coefficients (`ring.log_coeffs`,
`ring.exp_coeffs`).  The series below are the textbook ones instead, on
plain lists of Fractions (entry k multiplies H^k, truncated at the
list's length), and share no code with the ring.

The rest are the paper's checked statements that no tsk command
computes: the telescoping product and the signed cone sum behind the
saturated ratio, the ratio as a product over the cofaces of sigma0,
the leading-log coefficient behind the Q4 obstruction, and the delta
invariant of an injection E c F.  `random_b_zero` samples b_zero data
for the sweeps.  `validate_all_edges` checks a family on every facet
edge, the differential oracle of the constructor's top-down walk.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import index
from random import Random
from typing import Iterable, Mapping, Sequence

from tsk.chern import chern_general
from tsk.fan import Cone, Fan
from tsk.linalg import FULL, Subspace, join_all
from tsk.multifilt import (
    ElementaryInjection,
    InvalidFamily,
    Jump,
    JumpList,
    Multifiltration,
    _canonical_jumps,
    _checked_cells,
)
from tsk.obstruct import _hull_and_profile
from tsk.reflexive import R2Filtration
from tsk.ring import TruncPoly, linear_product, log_coeffs


def series_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """The product of two series of the same length, truncated."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return out


def series_log(c: Sequence[int | Fraction]) -> list[Fraction]:
    """log c = sum_{i>=1} (-1)^(i+1) R^i / i for c = 1 + R."""
    if c[0] != 1:
        raise ValueError("log requires constant term exactly 1")
    r = [Fraction(0)] + [Fraction(x) for x in c[1:]]
    out, power = [Fraction(0)] * len(c), [Fraction(1)] + [Fraction(0)] * (len(c) - 1)
    for i in range(1, len(c)):
        power = series_mul(power, r)
        out = [o + p * Fraction((-1) ** (i + 1), i) for o, p in zip(out, power)]
    return out


def series_exp(a: Sequence[int | Fraction]) -> list[Fraction]:
    """exp a = sum_{i>=0} a^i / i! for a with constant term 0."""
    if a[0] != 0:
        raise ValueError("exp requires constant term exactly 0")
    a = [Fraction(x) for x in a]
    out = power = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for i in range(1, len(a)):
        power = [x / i for x in series_mul(power, a)]
        out = [o + p for o, p in zip(out, power)]
    return out


# ---------------------------------------------------------------------------
# the saturated ratio: its identities and its conewise form


def identity_product(a: int, m: int, d: int, n: int) -> bool:
    """The telescoping identity behind the saturated ratio formula:

        prod_{m' >= a} prod_{i=0}^{d} (1-(m+m'+i)H)^{(-1)^{n-d+i} C(d,i)}
          = prod_{i=0}^{d-1} (1-(m+a+i)H)^{(-1)^{n-d+i} C(d-1,i)}

    in Z[H]/<H^{n+1}>.  The infinite left side is evaluated by grouping
    equal linear factors 1-(m+a+j)H: factor j accumulates the exponent
    alpha_j = sum_{i=0}^{min(j,d)} (-1)^{n-d+i} C(d,i), which is checked
    to vanish for j >= d (stabilization) -- a truncated product of whole
    m'-terms would NOT converge.  Window j in [0, n+2].
    """
    if not 2 <= d <= n:
        raise ValueError(f"need 2 <= d <= n, got d={d}, n={n}")
    sign = (-1) ** (n - d)
    window = n + 2
    alpha = [
        sign * sum((-1) ** i * comb(d, i) for i in range(min(j, d) + 1))
        for j in range(window + 1)
    ]
    bad = [j for j in range(d, window + 1) if alpha[j] != 0]
    if bad:
        raise ArithmeticError(
            f"exponent stabilization failed at offsets {bad} (d={d}, n={n})"
        )
    lhs = linear_product(n, [(-(m + a + j), alpha[j]) for j in range(d)])
    rhs = linear_product(
        n, [(-(m + a + i), (-1) ** (n - d + i) * comb(d - 1, i)) for i in range(d)]
    )
    return lhs == rhs


def identity_cone_sum(fan: Fan, sigma0: Cone, m_rho: Sequence[int], p: int) -> bool:
    """The signed cone sum identity: with m_sigma = sum_{rho in sigma} m_rho
    and m_Sigma = sum over all rays,

        sum_{sigma0 <= sigma} (-1)^{codim sigma} m_sigma^p = m_Sigma^p

    for 0 <= p <= codim(sigma0).  Brute-force check over the cofaces.
    """
    sigma0 = tuple(sigma0)
    if len(m_rho) != fan.n + 1:
        raise ValueError("need one integer per ray")
    if not 0 <= p <= fan.codim(sigma0):
        raise ValueError(
            f"need 0 <= p <= codim(sigma0) = {fan.codim(sigma0)}, got {p}"
        )
    total = 0
    for sigma in fan.cofaces(sigma0):
        m_s = sum(m_rho[r] for r in sigma)
        term = m_s**p
        total += term if fan.codim(sigma) % 2 == 0 else -term
    return total == sum(m_rho) ** p


def ratio_saturated_conewise(inj: ElementaryInjection) -> TruncPoly:
    """c(F)/c(E) as the product over cofaces of sigma0:

        prod_{sigma0 <= sigma} prod_{i=0}^{k0}
            (1 - (m_sigma + i)H)^{(-1)^{codim sigma + i} C(k0,i)}

    with m_sigma = <u_sigma, m_sigma>.  Requires saturation; must equal
    ratio_saturated(k0, m_Sigma, n).
    """
    if not inj.saturated:
        raise ValueError("conewise ratio formula requires a saturated injection")
    fan = inj.f.fan
    k0 = inj.k0
    return linear_product(
        fan.n,
        [
            (-(sum(inj.m_sigma[sigma]) + i), (-1) ** (fan.codim(sigma) + i) * comb(k0, i))
            for sigma in fan.cofaces(inj.sigma0)
            for i in range(k0 + 1)
        ],
    )


# ---------------------------------------------------------------------------
# the leading-log coefficient


def leading_log_check(E: Multifiltration) -> bool:
    """Verify the leading term of the log-ratio:

        [H^q] log( c(F) / c(E) )  ==  (-1)^(q-1) (q-1)! p_q,

    compared in integers, times q: s_q(c(F) / c(E)) == (-1)^(q-1) q! p_q
    with s_q = q [H^q] log of `log_coeffs`.  s_q is additive over
    products, so the ratio's is s_q(c(F)) - s_q(c(E)), with no division.

    Every k-elementary step contributes 1 + O(H^k) to the ratio, so
    only the q-elementary steps reach H^q, each with the universal
    leading coefficient (-1)^(q-1) (q-1)! independent of its weight.
    """
    hull, prof, _ = _hull_and_profile(E)
    q = prof.q
    s_ratio = log_coeffs(chern_general(hull).coeffs)[q] - log_coeffs(chern_general(E).coeffs)[q]
    return s_ratio == (-1) ** (q - 1) * factorial(q) * prof.count(q)


# ---------------------------------------------------------------------------
# the delta invariant


class Infinity:
    """Sentinel: delta_k when Sigma*(k) is empty (the invariant is
    infinite there); exact, unlike the float math.inf."""

    _instance: "Infinity | None" = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = Infinity()


def delta(e: Multifiltration, f: Multifiltration) -> tuple[int | Infinity, ...]:
    """The invariant (delta_1, ..., delta_n) of an injection E c F.

    delta_1 sums dim F - dim E over all ray classes; for k >= 2 the sum
    runs over Sigma*(k), the k-cones all of whose facets carry a
    defined and vanishing facet-level delta; when Sigma*(k) is empty,
    delta_k = INFINITY (and stays INFINITY above).  Each cone comes
    from `multifilt._checked_cells`, which checks E c F on all its cells
    before it sums; a cone left out of the sum may have an unbounded
    difference, so its InvalidFamily is ignored there.  So a pair with
    E not in F raises ValueError.
    """
    if e.fan != f.fan:
        raise ValueError("families live on different fans")
    fan = e.fan
    per_cone: dict[Cone, int | None] = {}
    out: list[int | Infinity] = []
    for k in range(1, fan.n + 1):
        level_total = 0
        level_defined = False
        for cone in fan.cones(k):
            if k == 1:
                ok = True
            else:
                ok = all(per_cone.get(cone[:i] + cone[i + 1 :]) == 0 for i in range(k))
            if not ok:
                per_cone[cone] = None
                try:
                    _checked_cells(e, f, cone)
                except InvalidFamily:
                    pass
                continue
            value = _checked_cells(e, f, cone)[1]
            per_cone[cone] = value
            level_defined = True
            level_total += value
        out.append(level_total if level_defined else INFINITY)
    return tuple(out)



# ---------------------------------------------------------------------------
# a sampler


def random_b_zero(rng: Random, n: int, max_c: int = 6) -> R2Filtration:
    """Random b_zero reflexive data with the default pairwise-distinct
    lines and at least one active ray."""
    while True:
        c = tuple(rng.randint(0, max_c) for _ in range(n + 1))
        if any(c):
            return R2Filtration.b_zero_data(Fan(n), c)


def validate_all_edges(fan: Fan, jumps: Mapping[Cone, Iterable[Jump]]) -> dict[Cone, JumpList]:
    """The canonical lists of the family of `jumps`, checked as the
    constructor did before its top-down walk: every given list
    canonicalized, the deep value of every cone, and every facet edge,
    (n + 1)(2^n - 2) projections.  The same checks raise the same
    InvalidFamily messages, though on an invalid family the two may
    name different failing edges.  No cache is read or filled.
    """
    canonical: dict[Cone, JumpList] = {}
    for cone in fan.all_cones(min_dim=1):
        raw = [(tuple(map(index, c)), w) for c, w in jumps.get(cone, ())]
        for coords, w in raw:
            if len(coords) != len(cone):
                raise InvalidFamily(f"jump {coords!r} has wrong arity for cone {cone!r}")
            if not isinstance(w, Subspace):
                raise InvalidFamily(f"jump value {w!r} is not a subspace of C^2")
        canonical[cone] = _canonical_jumps.__wrapped__(raw)
    unknown = set(jumps) - set(canonical)
    if unknown:
        raise InvalidFamily(f"jump lists for non-cones: {sorted(unknown)!r}")
    for cone, lst in canonical.items():
        deep = join_all(w for _, w in lst)
        if deep is not FULL:
            raise InvalidFamily(f"deep value at cone {cone!r} is {deep!r}, not C^2")
    for cone in fan.all_cones(min_dim=2):
        for pos in range(len(cone)):
            facet = cone[:pos] + cone[pos + 1 :]
            stabilized = _canonical_jumps.__wrapped__(
                [(c[:pos] + c[pos + 1 :], w) for c, w in canonical[cone]]
            )
            if stabilized != canonical[facet]:
                raise InvalidFamily(
                    f"facet compatibility fails: cone {cone!r} stabilized along ray"
                    f" {cone[pos]} has jumps {stabilized!r}, but its facet {facet!r}"
                    f" stores {canonical[facet]!r}"
                )
    return canonical


def walk_and_all_edges(fan: Fan, jumps: Mapping[Cone, Iterable[Jump]]) -> tuple[object, object]:
    """The verdicts of the constructor and of `validate_all_edges` on
    `jumps`: each one's canonical lists, or the class of what it raised."""
    verdicts = []
    for check in (Multifiltration, validate_all_edges):
        try:
            family = check(fan, jumps)
            verdicts.append(family.jumps if check is Multifiltration else family)
        except ValueError as err:
            verdicts.append(type(err))
    return verdicts[0], verdicts[1]
