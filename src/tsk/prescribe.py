"""Chern prescription: build torsion-free rank-2 sheaves whose total
Chern class is exactly 1 + c1 H + c2 H^2.

Pipeline: start from b_zero reflexive data (c_rho) with designated
first ray (c_0 >= 1) and pairwise distinct lines; expand the defect
log(c_start) - log(target) into the integers tilde_c_q; solve the
triangular system for the drop counts p_3..p_n; realize the drops as
saturated elementary injections on the schedule

    sigma_k = (0, ..., k-1),
    m_{k,j} = (-c_0, 0, p_3, ..., p_{k-1}, j-1),   j = 1..p_k,

whose weights m_Sigma^{k,j} = -c_0 + p_3 + ... + p_{k-1} + (j-1) form
consecutive runs, so the Chern bookkeeping of astronomically long
schedules telescopes through ratio_run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Iterator, Sequence

from .chern import power_sum_range, ratio_run, stirling_A
from .fan import Cone, Fan, Weight
from .linalg import Subspace
from .multifilt import (
    ElementaryInjection,
    Multifiltration,
    apply_elementary,
    elementary_check,
    reflexive_hull,
)
from .reflexive import (
    R2Filtration,
    Stability,
    chern_total,
    stability,
    to_multifiltration,
)
from .ring import TruncPoly


@dataclass(frozen=True)
class PrescriptionProblem:
    """Start data for the prescription: (c_rho) on P^n, ray 0 designated
    (c_0 >= 1), lines pairwise distinct (line(1, i) on ray i)."""

    n: int
    c: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", tuple(self.c))
        if self.n < 3:
            raise ValueError("prescription needs n >= 3")
        if len(self.c) != self.n + 1:
            raise ValueError(f"need {self.n + 1} values c_rho, got {len(self.c)}")
        if any(x < 0 for x in self.c):
            raise ValueError("c_rho must be nonnegative")
        if self.c[0] < 1:
            raise ValueError("the designated ray needs c_0 >= 1")

    @property
    def c_rho0(self) -> int:
        return self.c[0]

    def start_filtration(self) -> R2Filtration:
        return R2Filtration.b_zero_data(Fan(self.n), self.c)

    def start_chern(self) -> TruncPoly:
        return chern_total(self.start_filtration())

    def target_chern(self) -> TruncPoly:
        """1 + c1 H + c2 H^2 with c1, c2 of the start data."""
        s = self.start_chern()
        coeffs = [0] * (self.n + 1)
        coeffs[0], coeffs[1], coeffs[2] = 1, s[1], s[2]
        return TruncPoly(self.n, tuple(coeffs))


@dataclass(frozen=True)
class Infeasible:
    """Failure value of solve_p: the exact stage and offending value."""

    reason: str  # "NonInteger" | "Negative"
    q: int
    value: Fraction

    def __str__(self) -> str:
        return f"infeasible at q={self.q}: p_{self.q} = {self.value} ({self.reason})"


@dataclass(frozen=True)
class PrescriptionSolution:
    """Solved drop counts p = (p_3, ..., p_n) plus the certificate data."""

    problem: PrescriptionProblem
    p: tuple[int, ...]
    chern: TruncPoly          # target = verified final Chern polynomial
    delta: int
    stability: Stability      # verdict of the start sheaf (reflexive hull)
    schwarzenberger: int | None  # first violated m, or None when all pass

    def p_k(self, k: int) -> int:
        if not 3 <= k <= self.problem.n:
            raise ValueError(f"k must be in [3, {self.problem.n}]")
        return self.p[k - 3]

    @property
    def injection_count(self) -> int:
        return sum(self.p)

    def injection_params(self) -> Iterator[tuple[int, int, Cone, Weight]]:
        """The drop schedule (k, j, sigma_k, m_{k,j}), stage by stage.

        Lazy: the count can be astronomically large.
        """
        c0 = self.problem.c_rho0
        for k in range(3, self.problem.n + 1):
            sigma = tuple(range(k))
            head = (-c0, 0) + tuple(self.p[i - 3] for i in range(3, k))
            for j in range(1, self.p_k(k) + 1):
                yield k, j, sigma, head + (j - 1,)

    def certificate(self) -> dict:
        """JSON-able summary; the smoothability flag is a pure function
        of (verdict, delta): a small semistable deformation of a sheaf
        with Delta > 0 cannot split, since split sheaves have Delta <= 0."""
        return {
            "n": self.problem.n,
            "start_c": list(self.problem.c),
            "p": list(self.p),
            "chern": self.chern.render(),
            "delta": self.delta,
            "stability": self.stability.value,
            "schwarzenberger": (
                "ok"
                if self.schwarzenberger is None
                else f"violated at m={self.schwarzenberger}"
            ),
            "indecomposable_if_smoothable": (
                self.stability is Stability.STABLE and self.delta > 0
            ),
        }


# ---------------------------------------------------------------------------
# the triangular system


def tilde_c(c: TruncPoly) -> tuple[int, ...]:
    """(tilde_c_3, ..., tilde_c_n):
    tilde_c_q = -q [H^q](log c - log(1 + c1 H + c2 H^2)).

    Integral for integral Chern data (checked).
    """
    n = c.n
    if c[0] != 1:
        raise ValueError("Chern polynomial must have constant term 1")
    low = TruncPoly(n, (1, c[1], c[2]) if n >= 2 else (1, c[1]))
    defect = c.log() - low.log()
    out = []
    for q in range(3, n + 1):
        v = -q * Fraction(defect[q])
        if v.denominator != 1:
            raise ArithmeticError(f"tilde_c_{q} = {v} is not an integer")
        out.append(int(v))
    return tuple(out)


def weight_schedule(c_rho0: int, p: Sequence[int], k: int, j: int) -> int:
    """m_Sigma^{k,j} = -c_rho0 + sum_{3 <= i < k} p_i + (j - 1)."""
    n = len(p) + 2
    if not 3 <= k <= n:
        raise ValueError(f"k must be in [3, {n}], got {k}")
    if not 1 <= j <= p[k - 3]:
        raise ValueError(f"j must be in [1, p_{k}] = [1, {p[k - 3]}], got {j}")
    return -c_rho0 + sum(p[i - 3] for i in range(3, k)) + (j - 1)


def _schedule_power_sum(c_rho0: int, p: Sequence[int], k: int, l: int) -> int:
    """sum_{j=1}^{p_k} (m_Sigma^{k,j})^l; the schedule is a consecutive
    integer run, so this is a Faulhaber range sum."""
    pk = p[k - 3]
    if pk == 0:
        return 0
    first = -c_rho0 + sum(p[i - 3] for i in range(3, k))
    return power_sum_range(l, first, first + pk - 1)


def S_kl(c_rho0: int, p: Sequence[int], k: int, l: int) -> int:
    """The schedule power sum S_k^l = sum_j (m_Sigma^{k,j})^l, l <= n-k."""
    n = len(p) + 2
    if not 3 <= k <= n:
        raise ValueError(f"k must be in [3, {n}], got {k}")
    if not 0 <= l <= n - k:
        raise ValueError(f"l must be in [0, n-k] = [0, {n - k}], got {l}")
    return _schedule_power_sum(c_rho0, p, k, l)


def solve_p(problem: PrescriptionProblem) -> PrescriptionSolution | Infeasible:
    """Triangular solve of tilde_c_q = sum_{k=3}^q sum_{l=k}^q
    C(q,l) A_{l,k} S_k^{q-l} for q = 3..n.

    At stage q the only new unknown is p_q, entering through
    S_q^0 = p_q with coefficient A_{q,q} = (-1)^q q!; everything else
    is determined by p_3..p_{q-1}.  Exact rational solve, then
    integrality and nonnegativity checks with exact reasons.
    """
    n = problem.n
    c0 = problem.c_rho0
    tc = tilde_c(problem.start_chern())
    p: list[int] = []
    for q in range(3, n + 1):
        known = 0
        for k in range(3, q):
            for l in range(k, q + 1):
                known += (
                    comb(q, l)
                    * stirling_A(l, k)
                    * _schedule_power_sum(c0, p, k, q - l)
                )
        value = Fraction(tc[q - 3] - known, stirling_A(q, q))
        if value.denominator != 1:
            return Infeasible("NonInteger", q, value)
        pq = int(value)
        if pq < 0:
            return Infeasible("Negative", q, value)
        p.append(pq)
        # Stage-q consistency: substituting back reproduces tilde_c_q.
        back = sum(
            comb(q, l) * stirling_A(l, k) * _schedule_power_sum(c0, p, k, q - l)
            for k in range(3, q + 1)
            for l in range(k, q + 1)
        )
        if back != tc[q - 3]:
            raise ArithmeticError(f"stage {q} consistency: {back} != {tc[q - 3]}")

    target = problem.target_chern()
    delta = 4 * target[2] - target[1] ** 2
    return PrescriptionSolution(
        problem=problem,
        p=tuple(p),
        chern=target,
        delta=delta,
        stability=stability(problem.start_filtration()),
        schwarzenberger=schwarzenberger(target[1], target[2], n),
    )


def solve_p_closed_p4(c: Sequence[int], c_rho0: int) -> tuple[Fraction, Fraction]:
    """The n=4 closed forms: p3 = c3/2 and
    p4 = (c1 c3 - c4)/6 + c3 - (c_rho0+1) c3/2 + c3^2/8.

    c = (1, c1, ..., c4) are the Chern classes of the START sheaf
    (e.g. problem.start_chern(), where c3, c4 are generally nonzero).
    Rational output; integrality is the caller's feasibility question.
    """
    if len(c) != 5:
        raise ValueError("need the five coefficients (1, c1..c4) of P^4 data")
    _, c1, _, c3, c4 = (Fraction(x) for x in c)
    p3 = c3 / 2
    p4 = (c1 * c3 - c4) / 6 + c3 - (c_rho0 + 1) * c3 / 2 + c3**2 / 8
    return (p3, p4)


def solve_p_closed_p5(c: Sequence[int]) -> tuple[Fraction, Fraction, Fraction]:
    """The n=5 closed forms at c_rho0 = 1:

        p3 = c3/2,
        p4 = (c1 c3 - c4)/6 + p3^2/2,
        p5 = (c5 - c1 c4 - c3 c2 + c3 c1^2)/24
             - (S_3^2 + 3 S_3^1)/2 - 5 p3/4 + S_4^1 + 2 p4,

    with S_3^1 = p3^2/2 - 3 p3/2, S_3^2 = p3^3/3 - 3 p3^2/2 + 13 p3/6,
    S_4^1 = p4(p4+1)/2 + p4(p3-2).

    c = (1, c1, ..., c5) are the Chern classes of the START sheaf.
    """
    if len(c) != 6:
        raise ValueError("need the six coefficients (1, c1..c5) of P^5 data")
    _, c1, c2, c3, c4, c5 = (Fraction(x) for x in c)
    p3 = c3 / 2
    p4 = (c1 * c3 - c4) / 6 + p3**2 / 2
    s31 = p3**2 / 2 - 3 * p3 / 2
    s32 = p3**3 / 3 - 3 * p3**2 / 2 + 13 * p3 / 6
    s41 = p4 * (p4 + 1) / 2 + p4 * (p3 - 2)
    p5 = (
        (c5 - c1 * c4 - c3 * c2 + c3 * c1**2) / 24
        - (s32 + 3 * s31) / 2
        - 5 * p3 / 4
        + s41
        + 2 * p4
    )
    return (p3, p4, p5)


def positivity_check_p4(c: Sequence[int] | TruncPoly, c_rho0: int) -> bool:
    """The n=4 positivity constraint (equivalent to p4 >= 0):

        (c1 c3 - c4)/3 + c3 + c3^2/4  >=  c_rho0 c3.

    c is the Chern vector (1, c1, c2, c3, c4) or the polynomial.
    """
    coeffs = [c[k] for k in range(5)] if isinstance(c, TruncPoly) else list(c)
    if len(coeffs) != 5:
        raise ValueError("need the five coefficients (1, c1..c4) of P^4 data")
    _, c1, _, c3, c4 = (Fraction(x) for x in coeffs)
    return (c1 * c3 - c4) / 3 + c3 + c3**2 / 4 >= c_rho0 * c3


def schwarzenberger(c1: int, c2: int, n: int) -> int | None:
    """Schwarzenberger congruences for (c1, c2) on P^n: for 2 <= m <= n,

        sum_{j=2}^m sum_{i=1}^{floor(j/2)} (-1)^i e_{m,j}
            (C(j-i,i) + C(j-i-1,i-1)) c1^{j-2i} c2^i  ==  0  mod m!,

    with sum_j e_{m,j} t^j = t(t+1)...(t+m-1) the rising factorial.
    Returns the first violated m, or None when every congruence holds
    (necessary conditions for (c1, c2) to come from a rank-2 bundle).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    # e[m][j] by expanding the rising factorial incrementally.
    rising = [0, 1]  # coefficients of t, degree 1
    for m in range(2, n + 1):
        # multiply by (t + m - 1)
        nxt = [0] * (len(rising) + 1)
        for j, a in enumerate(rising):
            nxt[j] += a * (m - 1)
            nxt[j + 1] += a
        rising = nxt
        total = 0
        for j in range(2, m + 1):
            for i in range(1, j // 2 + 1):
                total += (
                    (-1) ** i
                    * rising[j]
                    * (comb(j - i, i) + comb(j - i - 1, i - 1))
                    * c1 ** (j - 2 * i)
                    * c2**i
                )
        if total % factorial(m) != 0:
            return m
    return None


# ---------------------------------------------------------------------------
# building the injection sequence


@dataclass(frozen=True)
class BuildResult:
    """Outcome of build_sequence.

    `injections` holds the steps actually built and verified
    (everything when `full`); `chern_final` is exact in both modes —
    for a partial build the unbuilt tail is closed with the telescoped
    ratio product, which the built prefix is checked against.
    """

    start: Multifiltration
    final: Multifiltration
    injections: tuple[ElementaryInjection, ...]
    chern_final: TruncPoly
    built: int
    total: int

    @property
    def full(self) -> bool:
        return self.built == self.total


def build_sequence(
    problem: PrescriptionProblem,
    solution: PrescriptionSolution,
    limit: int | None = None,
) -> BuildResult:
    """Apply the drop schedule to the start sheaf.

    Every built step is independently re-verified with elementary_check
    and must come back saturated with the scheduled (k0, m_Sigma); a
    mismatch is an internal consistency error (impossible for valid
    solutions).  With limit=None the whole schedule is built and the
    final sheaf's reflexive hull is checked to be the start; otherwise
    at most `limit` steps are materialized and the remaining Chern
    ratios are closed in telescoped form.
    """
    if isinstance(solution, Infeasible):
        raise ValueError(f"cannot build an infeasible solution: {solution}")
    start_f = problem.start_filtration()
    start = to_multifiltration(start_f)
    total = solution.injection_count
    cap = total if limit is None else max(0, min(limit, total))
    c0 = problem.c_rho0
    p = solution.p

    current = start
    injections: list[ElementaryInjection] = []
    for k, j, sigma, m0 in solution.injection_params():
        if len(injections) == cap:
            break
        smaller = apply_elementary(current, sigma, m0, Subspace.zero(2))
        inj = elementary_check(smaller, current)
        scheduled = weight_schedule(c0, p, k, j)
        if not (
            inj.saturated
            and inj.k0 == k
            and inj.sigma0 == sigma
            and inj.m0 == m0
            and inj.m_Sigma == scheduled
        ):
            raise RuntimeError(
                f"internal consistency error at drop (k={k}, j={j}):"
                f" got k0={inj.k0}, m_Sigma={inj.m_Sigma},"
                f" saturated={inj.saturated}; scheduled m_Sigma={scheduled}"
            )
        injections.append(inj)
        current = smaller

    # Exact Chern of the full schedule: telescoped stage products.
    chern = problem.start_chern()
    n = problem.n
    for k in range(3, n + 1):
        pk = p[k - 3]
        if pk == 0:
            continue
        first = weight_schedule(c0, p, k, 1)
        chern = chern * ratio_run(k, first, pk, n).inverse()
    if chern != solution.chern:
        raise ArithmeticError(
            f"schedule closure produced {chern.render()},"
            f" target {solution.chern.render()}"
        )

    if cap == total:
        hull = reflexive_hull(current)
        if hull != start:
            raise RuntimeError(
                "internal consistency error: reflexive hull of the final"
                " sheaf differs from the start"
            )
    return BuildResult(
        start=start,
        final=current,
        injections=tuple(injections),
        chern_final=chern,
        built=len(injections),
        total=total,
    )


# ---------------------------------------------------------------------------
# the named families


def _solved(problem: PrescriptionProblem, label: str) -> PrescriptionSolution:
    sol = solve_p(problem)
    if isinstance(sol, Infeasible):
        raise RuntimeError(f"{label}: expected feasible, got {sol}")
    if sol.stability is not Stability.STABLE:
        raise RuntimeError(f"{label}: expected a stable start sheaf")
    return sol


def family_p4_odd(t: int) -> PrescriptionSolution:
    """(c_rho) = (1, 6t, 6t, 0, 0) on P^4: Chern 1+(12t+1)H+12t(3t+1)H^2,
    p3 = 18t^2, Delta = 24t-1, stable."""
    if t < 1:
        raise ValueError("t >= 1")
    return _solved(
        PrescriptionProblem(4, (1, 6 * t, 6 * t, 0, 0)), f"family_p4_odd({t})"
    )


def family_p4_even(t: int) -> PrescriptionSolution:
    """(c_rho) = (1, T, T, T, 0), T = 4t+3: even first Chern class
    1+(12t+10)H+12(t+1)(4t+3)H^2, stable."""
    if t < 1:
        raise ValueError("t >= 1")
    big_t = 4 * t + 3
    return _solved(
        PrescriptionProblem(4, (1, big_t, big_t, big_t, 0)),
        f"family_p4_even({t})",
    )


def family_p5_candidates(t: int) -> dict[str, PrescriptionSolution | Infeasible]:
    """Both P^5 start-data candidates, solved and reported side by side:
    the printed recipe (1, 120t, 120t, 0, 0, 0) and the summary triple's
    (1, 12t, 12t, 0, 0, 0) (they disagree in the source; the solver is
    the arbiter and both outcomes are surfaced)."""
    if t < 1:
        raise ValueError("t >= 1")
    out: dict[str, PrescriptionSolution | Infeasible] = {}
    for label, c in (
        ("c=120t", (1, 120 * t, 120 * t, 0, 0, 0)),
        ("c=12t", (1, 12 * t, 12 * t, 0, 0, 0)),
    ):
        out[label] = solve_p(PrescriptionProblem(5, c))
    return out


def family_p5(t: int) -> PrescriptionSolution:
    """The P^5 family with (c_rho) = (1, 120t, 120t, 0, 0, 0)."""
    sol = family_p5_candidates(t)["c=120t"]
    if isinstance(sol, Infeasible):
        raise RuntimeError(f"family_p5({t}): expected feasible, got {sol}")
    if sol.stability is not Stability.STABLE:
        raise RuntimeError(f"family_p5({t}): expected a stable start sheaf")
    return sol


def family_pn(n: int) -> PrescriptionSolution:
    """Minimal multiplier m such that (1, m, m, 0, ..., 0) on P^n is
    feasible with all Schwarzenberger congruences satisfied.

    Search space m in 1..lcm(1..n)*n!; existence is guaranteed for
    sufficiently divisible m, the search returns the smallest.
    """
    if n < 3:
        raise ValueError("n >= 3")
    bound = lcm(*range(1, n + 1)) * factorial(n)
    for m in range(1, bound + 1):
        c = (1, m, m) + (0,) * (n - 2)
        sol = solve_p(PrescriptionProblem(n, c))
        if isinstance(sol, Infeasible):
            continue
        if sol.schwarzenberger is not None:
            continue
        if sol.stability is not Stability.STABLE:
            continue
        return sol
    raise RuntimeError(
        f"family_pn({n}): no feasible multiplier up to {bound};"
        " the search bound is exhausted"
    )
