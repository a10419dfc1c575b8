"""Chern engine: the general Klyachko product formula for
multifiltrations, closed-form Chern ratios of elementary injections,
their log expansions, Chern-character twists, and the combinatorial
identities (Stirling-type coefficients, telescoping products, signed
cone sums) that the closed forms rest on.

All arithmetic is exact (big integers / Fractions).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import comb, factorial
from typing import Sequence

from .fan import Cone, Fan
from .multifilt import ElementaryInjection, Multifiltration
from .ring import TruncPoly

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


def _integral(out: TruncPoly, what: str) -> TruncPoly:
    """`out`, after checking that its coefficients are integers."""
    if not out.is_integral:
        raise ArithmeticError(f"{what} {out.render()} is not integral")
    return out


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
    """
    n = mf.fan.n
    out = TruncPoly.one(n)
    for cone in sorted(mf.jumps):
        d = len(cone)
        sign = -1 if (n - d) % 2 else 1
        axes, values = mf.grid(cone)
        index_of = [{x: j for j, x in enumerate(a)} for a in axes]
        for coords, _ in values.items():
            m_box = 0
            for mu in iproduct((0, 1), repeat=d):
                pt = []
                for i, (x, step) in enumerate(zip(coords, mu)):
                    if step == 0:
                        pt.append(x)
                        continue
                    j = index_of[i][x]
                    if j == 0:
                        pt = None  # off-grid: value is Zero
                        break
                    pt.append(axes[i][j - 1])
                dim = 0 if pt is None else values[tuple(pt)].dim
                m_box += dim if sum(mu) % 2 == 0 else -dim
            if m_box:
                out = out * TruncPoly(n, (1, -sum(coords))).int_pow(sign * m_box)
    if out[0] != 1:
        raise ArithmeticError(f"total Chern class {out.render()} has constant term != 1")
    return _integral(out, "total Chern class")


def twist_chern(c: TruncPoly, rank: int, m: int) -> TruncPoly:
    """Total Chern class of E(m) = E tensor O(m) from c(E) and rank(E).

    Chern roots shift by m: recover the root power sums from log c,
    shift them binomially (p'_k = sum_i C(k,i) m^{k-i} p_i, p_0 = rank),
    and exponentiate back.  Exact; the result is integral.
    """
    n = c.n
    lg = c.log()
    p = [Fraction(rank)] + [
        (-1) ** (k - 1) * k * Fraction(lg[k]) for k in range(1, n + 1)
    ]
    shifted = [
        sum(comb(k, i) * m ** (k - i) * p[i] for i in range(k + 1))
        for k in range(n + 1)
    ]
    new_log = TruncPoly(
        n,
        tuple(
            Fraction(0) if k == 0 else (-1) ** (k - 1) * shifted[k] / k
            for k in range(n + 1)
        ),
    )
    return new_log.exp().to_integral()


# ---------------------------------------------------------------------------
# closed-form ratios for elementary injections


def ratio_saturated(k0: int, m_sigma: int, n: int) -> TruncPoly:
    """c(F)/c(E) of a saturated elementary injection with invariants
    (k0, m_Sigma):  prod_{i=0}^{k0} (1-(m_Sigma+i)H)^{(-1)^i C(k0,i)}."""
    if not 1 <= k0 <= n:
        raise ValueError(f"need 1 <= k0 <= n, got k0={k0}, n={n}")
    out = TruncPoly.one(n)
    for i in range(k0 + 1):
        e = comb(k0, i) if i % 2 == 0 else -comb(k0, i)
        out = out * TruncPoly(n, (1, -(m_sigma + i))).int_pow(e)
    return _integral(out, "ratio")


def ratio_run(k0: int, start: int, count: int, n: int) -> TruncPoly:
    """prod_{j=0}^{count-1} ratio_saturated(k0, start+j, n), telescoped.

    Each ratio factors as edge(m)/edge(m+1) with
    edge(x) = prod_{i=0}^{k0-1} (1-(x+i)H)^{(-1)^i C(k0-1,i)}
    (Pascal: C(k0-1,i) + C(k0-1,i-1) = C(k0,i)), so the run collapses
    to edge(start)/edge(start+count) -- O(1) in count, which is what
    makes astronomically long drop schedules tractable.
    """
    if not 1 <= k0 <= n:
        raise ValueError(f"need 1 <= k0 <= n, got k0={k0}, n={n}")
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return TruncPoly.one(n)

    def edge(x: int) -> TruncPoly:
        out = TruncPoly.one(n)
        for i in range(k0):
            e = comb(k0 - 1, i) if i % 2 == 0 else -comb(k0 - 1, i)
            out = out * TruncPoly(n, (1, -(x + i))).int_pow(e)
        return out

    return _integral(edge(start) * edge(start + count).inverse(), "ratio run")


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
    n = fan.n
    k0 = inj.k0
    out = TruncPoly.one(n)
    for sigma in fan.cofaces(inj.sigma0):
        m_s = inj.weight_sum(sigma)
        codim = fan.codim(sigma)
        for i in range(k0 + 1):
            e = comb(k0, i) if (codim + i) % 2 == 0 else -comb(k0, i)
            out = out * TruncPoly(n, (1, -(m_s + i))).int_pow(e)
    return _integral(out, "conewise ratio")


def log_ratio_saturated(k0: int, m_sigma: int, n: int) -> TruncPoly:
    """log of ratio_saturated:

        - sum_{k=k0}^n ( sum_{l=k0}^k C(k,l) A_{l,k0} m_Sigma^{k-l} ) H^k / k

    Rational coefficients; exp of it equals ratio_saturated.  Empty sum
    (k0 > n) gives 0.
    """
    if k0 < 1:
        raise ValueError("need k0 >= 1")
    coeffs: list[Fraction] = [Fraction(0)] * (n + 1)
    for k in range(k0, n + 1):
        inner = sum(
            comb(k, l) * stirling_A(l, k0) * m_sigma ** (k - l)
            for l in range(k0, k + 1)
        )
        coeffs[k] = Fraction(-inner, k)
    return TruncPoly(n, tuple(coeffs))


def log_ratio_leading(inj: ElementaryInjection) -> tuple[Fraction, Fraction]:
    """The two leading coefficients of log(c(F)/c(E)) for an elementary
    injection (saturation not required):

        [H^k0]     = (-1)^{k0-1} (k0-1)!
        [H^{k0+1}] = -(A_{k0,k0} m_Sigma + A_{k0+1,k0}/(k0+1)).
    """
    k0 = inj.k0
    if k0 < 1:
        raise ValueError("need k0 >= 1")
    lead = Fraction((-1) ** (k0 - 1) * factorial(k0 - 1))
    after = -(
        Fraction(stirling_A(k0, k0) * inj.m_Sigma)
        + Fraction(stirling_A(k0 + 1, k0), k0 + 1)
    )
    return (lead, after)


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
    lhs = TruncPoly.one(n)
    for j in range(d):
        lhs = lhs * TruncPoly(n, (1, -(m + a + j))).int_pow(alpha[j])
    rhs = TruncPoly.one(n)
    for i in range(d):
        e = comb(d - 1, i) if (n - d + i) % 2 == 0 else -comb(d - 1, i)
        rhs = rhs * TruncPoly(n, (1, -(m + a + i))).int_pow(e)
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
