"""Chern prescription: build torsion-free rank-2 sheaves whose total
Chern class is exactly 1 + c1 H + c2 H^2.

Pipeline: start from b_zero reflexive data (c_rho) with designated
first ray (c_0 >= 1) and pairwise distinct lines; read the defect
log(c_start) - log(target) off the integer log coefficients of both
(Newton's identities, `ring.log_coeffs`) as the integers tilde_c_q;
solve for the drop counts p_3..p_n; realize the drops as saturated
elementary injections on the schedule

    sigma_k = (0, ..., k-1),
    m_{k,j} = (-c_0, 0, p_3, ..., p_{k-1}, j-1),   j = 1..p_k,

whose weights m_Sigma^{k,j} = first_k + (j-1), with
first_k = -c_0 + p_3 + ... + p_{k-1}, form consecutive runs.  So stage
k is one run of k-elementary drops, for the sheaf and for its Chern
class, and the run's ratio c(F)/c(E) telescopes to the edge form

    edge_k(first_k) / edge_k(first_k + p_k),
    edge_k(x) = prod_{i=0}^{k-1} (1-(x+i)H)^{(-1)^i C(k-1,i)}

(`chern.run_factors`).  That one form serves both directions:
`build_sequence` takes each stage with one `apply_run`, however long,
and closes the Chern class with the edge's linear factors; `solve_p`
reads the edge's integer log coefficients (`chern.run_log`), since the
target is the start divided by every stage's ratio:
tilde_c_q = -sum_{k<=q} s_q(stage k), where stage q enters as
-A_{q,q} p_q, so the system is triangular.  The tests hold the runs
to the drop-by-drop chain of the schedule, one `drop` per step.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from operator import index
from typing import Iterator, NamedTuple, Sequence

from .chern import chern_general, run_factors, run_log
from .fan import Cone, Fan, Weight
from .multifilt import Multifiltration, apply_run, drop_profile
from .record import Frozen
from .reflexive import (
    R2Filtration,
    Stability,
    chern_total,
    stability,
    to_multifiltration,
)
from .ring import TruncPoly, linear_product, log_coeffs


class PrescriptionProblem(Frozen):
    """Start data for the prescription: (c_rho) on P^n, ray 0 designated
    (c_0 >= 1), lines pairwise distinct (line(1, i) on ray i).  n and
    each c_rho go through `operator.index`, so a float raises TypeError."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, c: Sequence[int]) -> None:
        n, c = index(n), tuple(map(index, c))
        if n < 3:
            raise ValueError("prescription needs n >= 3")
        if len(c) != n + 1:
            raise ValueError(f"need {n + 1} values c_rho, got {len(c)}")
        if any(x < 0 for x in c):
            raise ValueError("c_rho must be nonnegative")
        if c[0] < 1:
            raise ValueError("the designated ray needs c_0 >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)

    @property
    def c_rho0(self) -> int:
        return self.c[0]

    def start_filtration(self) -> R2Filtration:
        return R2Filtration.b_zero_data(Fan(self.n), self.c)

    def start_chern(self) -> TruncPoly:
        return chern_total(self.start_filtration())


class Infeasible(NamedTuple):
    """Failure value of solve_p: the exact stage and offending value."""

    reason: str  # "NonInteger" | "Negative"
    q: int
    value: Fraction

    def __str__(self) -> str:
        return f"infeasible at q={self.q}: p_{self.q} = {self.value} ({self.reason})"

    def as_json(self) -> dict:
        return {
            "infeasible": {"reason": self.reason, "q": self.q, "value": str(self.value)}
        }


class PrescriptionSolution(NamedTuple):
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

    def stages(self) -> Iterator[tuple[int, Cone, Weight, int]]:
        """The schedule by stage, (k, sigma_k, head, p_k) for k = 3..n:
        stage k drops the classes m_{k,j} = head + (j - 1,), j = 1..p_k."""
        head = (-self.problem.c_rho0, 0)
        for k in range(3, self.problem.n + 1):
            yield k, tuple(range(k)), head, self.p_k(k)
            head += (self.p_k(k),)

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


def _low(c: TruncPoly) -> TruncPoly:
    """The truncation 1 + c1 H + c2 H^2 of a Chern polynomial."""
    return TruncPoly(c.n, (1, *c.coeffs[1:3]))


def tilde_c(c: TruncPoly) -> tuple[int, ...]:
    """(tilde_c_3, ..., tilde_c_n):
    tilde_c_q = -q [H^q](log c - log(1 + c1 H + c2 H^2)) = s_q(low) - s_q(c),

    with s_q = q [H^q] log the integer log coefficients of `log_coeffs`.
    """
    s, s_low = log_coeffs(c.coeffs), log_coeffs(_low(c).coeffs)
    return tuple(s_low[q] - s[q] for q in range(3, c.n + 1))


def solve_p(problem: PrescriptionProblem) -> PrescriptionSolution | Infeasible:
    """Triangular solve of tilde_c_q = -sum_{k=3}^q s_q(stage k) for
    q = 3..n, with s_q(stage k) = run_log(q, k, first_k, p_k) the log
    coefficient of stage k's telescoped edge form
    edge_k(first_k)/edge_k(first_k + p_k).

    At stage q the only new unknown is p_q: for k0 = q `run_log`'s D is
    linear, so s_q(stage q) = -A_{q,q} p_q with A_{q,q} = (-1)^q q!,
    and stages k > q do not reach H^q.  So

        p_q = (tilde_c_q + sum_{k<q} run_log(q, k, first_k, p_k)) / A_{q,q},

    an exact rational solve, then integrality and nonnegativity checks
    with exact reasons.
    """
    n = problem.n
    f0 = problem.start_filtration()
    start = chern_total(f0)
    tc = tilde_c(start)
    # The solved stages as (k, first weight, p_k), `run_log`'s arguments.
    runs: list[tuple[int, int, int]] = []
    first = -problem.c_rho0
    for q in range(3, n + 1):
        known = sum(run_log(q, *run) for run in runs)
        value = Fraction(tc[q - 3] + known, (-1) ** q * factorial(q))
        if value.denominator != 1:
            return Infeasible("NonInteger", q, value)
        pq = int(value)
        if pq < 0:
            return Infeasible("Negative", q, value)
        runs.append((q, first, pq))
        first += pq
        # Stage-q consistency: substituting back reproduces tilde_c_q.
        back = -known - run_log(q, *runs[-1])
        if back != tc[q - 3]:
            raise ArithmeticError(f"stage {q} consistency: {back} != {tc[q - 3]}")

    target = _low(start)
    delta = 4 * target[2] - target[1] ** 2
    return PrescriptionSolution(
        problem=problem,
        p=tuple(pk for _, _, pk in runs),
        chern=target,
        delta=delta,
        stability=stability(f0),
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


class BuildResult(NamedTuple):
    """Outcome of build_sequence: the first `built` of the schedule's
    `total` drops applied to `start`, one run per stage, giving `final`.

    `chern_final` is the Chern class of the whole schedule whether or
    not the build is `full`: the start closed with every stage's
    telescoped ratio and checked against the solution's Chern class.
    For a full build it is also the general Chern class of `final`.
    """

    start: Multifiltration
    final: Multifiltration
    chern_final: TruncPoly
    built: int
    total: int

    @property
    def full(self) -> bool:
        return self.built == self.total


def _closed_chern(c: TruncPoly, runs: Sequence[tuple[int, int, int]]) -> TruncPoly:
    """c divided by the telescoped ratio of each run (k, first weight,
    count): one product with negated exponents."""
    return c * linear_product(
        c.n, [(a, -e) for k, first, count in runs for a, e in run_factors(k, first, count)]
    )


def build_sequence(
    problem: PrescriptionProblem,
    solution: PrescriptionSolution,
    limit: int | None = None,
) -> BuildResult:
    """Apply the drop schedule to the start sheaf, one run per stage.

    Stage k is the run of its p_k drops on sigma_k, taken at once with
    `apply_run`; with a `limit`, the first `limit` drops are built and
    the stage where the limit falls becomes a shorter run.  The built
    sheaf E is checked against the schedule on every build:

    - its reflexive hull is the start: the hull is a closed form in the
      ray lists (`hull_of_ends(ray_ends(E))`) and the reflexive start is
      its own, so the check compares E's n + 1 ray lists with the
      start's (the runs touch only cones of dim >= 3, so they stay);
    - `drop_profile(E, start)` is the built count of each stage with
      its first weight, the least m_Sigma of its drops;
    - `chern_general(E)` is the start's Chern class divided by the
      built runs' telescoped ratios (for a full build, the solution's).

    The Chern check reads the n + 1 top cones' grids, which hold every
    cone's values since the built sheaf is a valid family (a top cone
    whose jumps all sit at 0 on an axis above its missing ray adds
    nothing and builds no grid); the hull check reads the rays, and
    `drop_profile` every cone.

    A failed check is an internal consistency error (impossible for
    valid solutions).  The Chern class of the whole schedule is then
    closed from the start with every stage's telescoped ratio, however
    many drops were built, and checked against `solution.chern`.  The
    tests hold the runs to the drop-by-drop chain of
    `solution.stages()`, each step checked for saturation and its
    scheduled (k0, sigma0, m0, m_Sigma).
    """
    if isinstance(solution, Infeasible):
        raise ValueError(f"cannot build an infeasible solution: {solution}")
    f0 = problem.start_filtration()
    start = to_multifiltration(f0)
    total = solution.injection_count
    cap = total if limit is None else max(0, min(limit, total))

    # The built runs and all the stages, as (k, first weight, count).
    runs: list[tuple[int, int, int]] = []
    stages: list[tuple[int, int, int]] = []
    current = start
    left = cap
    for k, sigma, head, pk in solution.stages():
        count = min(pk, left)
        if count:
            current = apply_run(current, sigma, head + (0,), count)
            runs.append((k, sum(head), count))
            left -= count
        if pk:
            stages.append((k, sum(head), pk))

    if any(current.jumps[(ray,)] != start.jumps[(ray,)] for ray in start.fan.rays):
        raise RuntimeError(
            "internal consistency error: reflexive hull of the built"
            " sheaf differs from the start"
        )
    scheduled = {k: (count, first) for k, first, count in runs}
    found = drop_profile(current, start)
    if found != scheduled:
        raise RuntimeError(
            f"internal consistency error: the built sheaf has drop profile"
            f" {found}, scheduled {scheduled}"
        )
    c_start = chern_total(f0)
    c_built, c_runs = chern_general(current), _closed_chern(c_start, runs)
    if c_built != c_runs:
        raise RuntimeError(
            f"internal consistency error: the built sheaf has Chern class"
            f" {c_built.render()}, its runs close to {c_runs.render()}"
        )
    chern = _closed_chern(c_start, stages)
    if chern != solution.chern:
        raise ArithmeticError(
            f"schedule closure produced {chern.render()},"
            f" target {solution.chern.render()}"
        )
    return BuildResult(
        start=start,
        final=current,
        chern_final=chern,
        built=cap,
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
