"""Chern engine: the general Klyachko product formula for
multifiltrations, closed-form Chern ratios of elementary injections,
rank-2 twists, and the combinatorial identities (Stirling-type
coefficients, telescoping products, signed cone sums) that the closed
forms rest on.

The product formulas are products of linear factors (1 - wH)^e; each
collects its (-w, e) pairs and multiplies them in one
`ring.linear_product` call, which is integral with constant term 1 by
construction.  All arithmetic is exact (big integers / Fractions).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from math import comb, factorial
from typing import Sequence

from .fan import Cone, Fan
from .multifilt import ElementaryInjection, Multifiltration, _axes, _grid_flat
from .ring import TruncPoly, linear_product

# ---------------------------------------------------------------------------
# combinatorial tables


@lru_cache(maxsize=None)
def stirling_A(p: int, k: int) -> int:
    """A_{p,k} = sum_{i=0}^k (-1)^i C(k,i) i^p  (with 0^0 = 1).

    Computed by the recurrence A_{p,k} = k (A_{p-1,k} - A_{p-1,k-1});
    equivalently A_{p,k} = (-1)^k k! S(p,k) with S the Stirling number
    of the second kind.  A_{p,k} = 0 for p < k; A_{p,p} = (-1)^p p!.
    """
    if p < 0 or k < 0:
        raise ValueError("stirling_A needs p, k >= 0")
    if p == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * (stirling_A(p - 1, k) - stirling_A(p - 1, k - 1))


@lru_cache(maxsize=None)
def stirling2(p: int, k: int) -> int:
    """Stirling number of the second kind S(p,k) (partition count)."""
    if p < 0 or k < 0:
        raise ValueError("stirling2 needs p, k >= 0")
    if p == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(p - 1, k) + stirling2(p - 1, k - 1)


def binom_poly(x: int, j: int) -> int:
    """C(x, j) as the integer-valued polynomial x(x-1)...(x-j+1)/j!,
    defined for every integer x (negative included)."""
    if j < 0:
        raise ValueError("binom_poly needs j >= 0")
    num = 1
    for t in range(j):
        num *= x - t
    q, r = divmod(num, factorial(j))
    if r:
        raise ArithmeticError(f"C({x}, {j}) is not an integer")
    return q


def power_sum_range(l: int, lo: int, hi: int) -> int:
    """sum_{k=lo}^{hi} k^l exactly, in O(l^2) arithmetic operations.

    Uses the Faulhaber form Q(N) = sum_j S(l,j) j! C(N+1, j+1) with the
    binomial read as an integer polynomial, so Q(x) - Q(x-1) = x^l holds
    for every integer x and the range sum telescopes to Q(hi) - Q(lo-1)
    regardless of signs.  Empty ranges sum to 0.
    """
    if l < 0:
        raise ValueError("power_sum_range needs l >= 0")
    if lo > hi:
        return 0

    def q(upper: int) -> int:
        return sum(
            stirling2(l, j) * factorial(j) * binom_poly(upper + 1, j + 1)
            for j in range(l + 1)
        )

    return q(hi) - q(lo - 1)


# ---------------------------------------------------------------------------
# the general Chern formula


def chern_general(mf: Multifiltration) -> TruncPoly:
    """Total Chern class of a multifiltration by the general formula:

        prod over cones sigma, classes m:
            (1 - <u_sigma, m> H)^{(-1)^{codim sigma} dim[E^sigma](m)}

    where dim[E](m) is the mixed difference
    sum_{mu in {0,1}^d} (-1)^{|mu|} dim E(m - mu).  The mixed difference
    vanishes off the jump grid, and on the grid the integer-step
    predecessor value equals the grid-step predecessor value (the
    family is constant between consecutive jump coordinates), so the
    product is evaluated on the finite grid only.

    The mixed difference is the composition of the first differences
    along the d axes, so it is d passes over the flat grid of
    `_grid_flat`, each subtracting the predecessor k - strides[i] (ZERO,
    so nothing, off the grid).  Exponents are summed per weight
    <u_sigma, m> first, so each distinct weight is one linear factor.
    """
    n = mf.fan.n
    exps: dict[int, int] = {}
    for cone, jumps in sorted(mf.jumps.items()):
        sign = -1 if (n - len(cone)) % 2 else 1
        axes = _axes(jumps, len(cone))
        flat, strides = _grid_flat(jumps, axes)
        box = [v.dim for v in flat]
        for s, axis in zip(strides, axes):
            block = s * len(axis)
            # descending, so box[k - s] still holds its value before this pass
            for k in range(len(box) - 1, -1, -1):
                if k % block >= s:
                    box[k] -= box[k - s]
        for coords, x in zip(iproduct(*axes), box):
            if x:
                w = sum(coords)
                exps[w] = exps.get(w, 0) + sign * x
    return linear_product(n, [(-w, x) for w, x in exps.items()])


def twist_chern(c: TruncPoly, m: int) -> TruncPoly:
    """Total Chern class of E(m) = E tensor O(m) from c(E), E of rank 2.

    Every Chern root shifts by m, which for a class of rank 2 gives

        c(E(m)) = sum_k c_k H^k (1 + mH)^(2-k),

    one `linear_product` per k.  Exact; integral c gives integral c(E(m)).
    """
    n = c.n
    out = [0] * (n + 1)
    for k, ck in enumerate(c.coeffs):
        if ck:
            for j, t in enumerate(linear_product(n - k, [(m, 2 - k)]).coeffs):
                out[k + j] += ck * t
    return TruncPoly(n, out)


# ---------------------------------------------------------------------------
# closed-form ratios for elementary injections


def ratio_saturated(k0: int, m_sigma: int, n: int) -> TruncPoly:
    """c(F)/c(E) of a saturated elementary injection with invariants
    (k0, m_Sigma):  prod_{i=0}^{k0} (1-(m_Sigma+i)H)^{(-1)^i C(k0,i)}."""
    if not 1 <= k0 <= n:
        raise ValueError(f"need 1 <= k0 <= n, got k0={k0}, n={n}")
    return linear_product(
        n, [(-(m_sigma + i), (-1) ** i * comb(k0, i)) for i in range(k0 + 1)]
    )


def run_factors(k0: int, start: int, count: int) -> list[tuple[int, int]]:
    """The linear factors (a, e), (1 + aH)^e, of
    prod_{j=0}^{count-1} ratio_saturated(k0, start+j, n), telescoped.

    Each ratio factors as edge(m)/edge(m+1) with
    edge(x) = prod_{i=0}^{k0-1} (1-(x+i)H)^{(-1)^i C(k0-1,i)}
    (Pascal: C(k0-1,i) + C(k0-1,i-1) = C(k0,i)), so the run collapses
    to edge(start)/edge(start+count) -- O(1) in count, which is what
    makes astronomically long drop schedules tractable.  The factors
    are both edges, the second with negated exponents (dividing by an
    edge); `linear_product` multiplies them.
    """
    return [
        (-(x + i), sign * (-1) ** i * comb(k0 - 1, i))
        for x, sign in ((start, 1), (start + count, -1))
        for i in range(k0)
    ]


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
            (-(inj.weight_sum(sigma) + i), (-1) ** (fan.codim(sigma) + i) * comb(k0, i))
            for sigma in fan.cofaces(inj.sigma0)
            for i in range(k0 + 1)
        ],
    )


# ---------------------------------------------------------------------------
# combinatorial identities (verification helpers)


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
