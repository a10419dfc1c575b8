"""Acceptance gate: eleven end-to-end criteria, one per test, in order.

Every test prints a single machine-readable verdict line

    ACCEPTANCE <k>: PASS — <detail>
    ACCEPTANCE <k>: FAIL — <detail>

directly to the terminal (bypassing pytest capture) and then asserts,
so the verdict survives in ``pytest -v`` output.  All arithmetic is
exact; "agree" always means ``==`` on integer coefficients,
never approximate comparison.  Every line ends with the criterion's
elapsed time; the two stated wall-clock budgets (criterion 1: 60 s,
criterion 2: 120 s) are enforced with asserts.

Criteria 2–4 share their build artifacts with criterion 7 through the
cached builders below.  The builds take one run per stage; criterion 7
audits the injections of the same schedule prefixes replayed drop by
drop (`drop_oracle.replay_drops`), whose final sheaves must be the
builds'.
"""

from __future__ import annotations

import time
from functools import lru_cache
from math import factorial
from random import Random

import pytest

from tsk.chern import (
    chern_general,
    identity_cone_sum,
    identity_product,
    ratio_saturated,
    stirling_A,
)
from tsk.fan import Fan
from tsk.multifilt import Multifiltration, factorize, recompose, reflexive_hull
from tsk.obstruct import (
    Inconclusive,
    NotSmoothable,
    leading_log_check,
    obstruction_verdict,
    torsion_profile,
)
from tsk.prescribe import (
    BuildResult,
    Infeasible,
    PrescriptionSolution,
    build_sequence,
    family_p4_even,
    family_p4_odd,
    family_p5_candidates,
    schwarzenberger,
)
from tsk.reflexive import (
    Stability,
    bogomolov_ok,
    chern_total,
    discriminant,
    elementary_symmetric,
    from_multifiltration,
    normalize,
    stability,
    to_multifiltration,
)
from tsk.ring import TruncPoly, exp_coeffs, log_coeffs
from tsk.sampling import random_drops, random_reflexive, random_semistable

from drop_oracle import replay_drops


def _report(capsys, k: int, ok: bool, detail: str, t0: float | None = None) -> None:
    """Print the verdict line; with t0, the time since t0 ends it."""
    if t0 is not None:
        detail += f" in {time.perf_counter() - t0:.1f}s"
    with capsys.disabled():
        print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# shared pipeline builds (criteria 2-4 produce them, criterion 7 audits them)


@lru_cache(maxsize=None)
def _odd_solution(t: int) -> PrescriptionSolution:
    return family_p4_odd(t)


@lru_cache(maxsize=None)
def _odd_build(t: int) -> BuildResult:
    sol = _odd_solution(t)
    # t=1 is built in full; later family members on a 30-step prefix,
    # which criterion 7 replays drop by drop, plus telescoped closure.
    return build_sequence(sol.problem, sol, limit=None if t == 1 else 30)


@lru_cache(maxsize=None)
def _even_solution(t: int) -> PrescriptionSolution:
    return family_p4_even(t)


@lru_cache(maxsize=None)
def _even_build(t: int) -> BuildResult:
    sol = _even_solution(t)
    return build_sequence(sol.problem, sol, limit=10)


@lru_cache(maxsize=None)
def _p5_solutions() -> dict[str, PrescriptionSolution | Infeasible]:
    return family_p5_candidates(1)


@lru_cache(maxsize=None)
def _p5_builds() -> dict[str, BuildResult]:
    out: dict[str, BuildResult] = {}
    for label, limit in (("c=120t", 12), ("c=12t", 6)):
        sol = _p5_solutions()[label]
        assert isinstance(sol, PrescriptionSolution)
        out[label] = build_sequence(sol.problem, sol, limit=limit)
    return out


def _all_pipeline_builds() -> list[tuple[PrescriptionSolution, BuildResult]]:
    builds = [(_odd_solution(t), _odd_build(t)) for t in range(1, 6)]
    builds += [(_even_solution(t), _even_build(t)) for t in range(1, 4)]
    builds += [(_p5_solutions()[label], res) for label, res in _p5_builds().items()]
    return builds


def _chern_along_chain(injections) -> None:
    """Assert ratio_saturated(k0, m_Sigma) == c(F) * c(E)^-1 for every
    injection of the chain, and that exp(log(ratio)) reproduces the ratio,
    through the integer log coefficients."""
    if not injections:
        return
    n = injections[0].f.fan.n
    cf = chern_general(injections[0].f)
    for inj in injections:
        ce = chern_general(inj.e)
        ratio = ratio_saturated(inj.k0, inj.m_Sigma, n)
        assert ratio == cf * ce.inverse()
        assert exp_coeffs(n, log_coeffs(ratio.coeffs)) == list(ratio.coeffs)
        cf = ce


# ---------------------------------------------------------------------------
# criterion 1 — Chern triple oracle


def test_criterion_01(capsys):
    t0 = time.perf_counter()
    rng = Random(20260819)
    total = 500
    for i in range(total):
        n = (3, 4, 5)[i % 3]
        f = random_reflexive(rng, n, max_c=6)
        c_res = chern_total(f)                          # resolution formula
        c_kly = chern_general(to_multifiltration(f))    # general formula
        assert c_res == c_kly, f"instance {i}: resolution vs general"
        g = normalize(f, "b_zero")
        c_b = chern_total(g)
        assert c_b == chern_general(to_multifiltration(g))
        for k in range(1, n + 1):                       # c_k == s_k (b_zero)
            assert c_b[k] == elementary_symmetric(g, k), f"instance {i}, k={k}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(
        capsys, 1, ok,
        f"3 Chern routes agree on {total}/{total} random reflexive data"
        f" (n in 3..5, c_rho <= 6) in {elapsed:.1f}s [budget 60s]",
    )
    assert ok, f"criterion 1 exceeded budget: {elapsed:.1f}s >= 60s"


# ---------------------------------------------------------------------------
# criterion 2 — odd family on P^4


def test_criterion_02(capsys):
    t0 = time.perf_counter()
    for t in range(1, 6):
        sol = _odd_solution(t)
        target = TruncPoly(4, (1, 12 * t + 1, 12 * t * (3 * t + 1)))
        assert sol.chern == target, f"t={t}: solver target"
        assert sol.p_k(3) == 18 * t * t, f"t={t}: p3"
        assert sol.delta == 24 * t - 1, f"t={t}: delta"
        assert sol.stability is Stability.STABLE, f"t={t}: stability"
        res = _odd_build(t)
        assert res.chern_final == target, f"t={t}: closed build chern"
        # independent recomputation of the built sheaf's Chern polynomial
        ratio_prod = TruncPoly(4, (1,))
        for inj in replay_drops(sol, res.built)[1]:
            ratio_prod = ratio_prod * ratio_saturated(inj.k0, inj.m_Sigma, 4)
        assert (
            chern_general(res.final)
            == sol.problem.start_chern() * ratio_prod.inverse()
        ), f"t={t}: prefix chern"
        if t == 1:
            assert res.full and res.built == 258
            assert chern_general(res.final) == target
            assert reflexive_hull(res.final) == res.start
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _report(
        capsys, 2, ok,
        "t=1..5 all 1+(12t+1)H+12t(3t+1)H^2, p3=18t^2, Delta=24t-1,"
        f" stable; t=1 built in full (258 drops) in {elapsed:.1f}s"
        " [budget 120s]",
    )
    assert ok, f"criterion 2 exceeded budget: {elapsed:.1f}s >= 120s"


# ---------------------------------------------------------------------------
# criterion 3 — even family on P^4


def test_criterion_03(capsys):
    t0 = time.perf_counter()
    for t in range(1, 4):
        big_t = 4 * t + 3
        sol = _even_solution(t)
        target = TruncPoly(4, (1, 12 * t + 10, 12 * (t + 1) * (4 * t + 3)))
        assert sol.chern == target, f"t={t}: solver target"
        assert sol.stability is Stability.STABLE
        res = _even_build(t)
        assert res.chern_final == target, f"t={t}: closed build chern"
        c = sol.problem.start_chern()
        lhs = 4 * (c[1] * c[3] - c[4]) + 3 * c[3] ** 2
        rhs = 3 * (big_t * (big_t + 1) * (big_t + 2)) ** 2
        assert lhs == rhs, f"t={t}: quartic identity {lhs} != {rhs}"
    _report(
        capsys, 3, True,
        "t=1..3 (T=4t+3) all 1+(12t+10)H+12(t+1)(4t+3)H^2 and"
        " 4(c1c3-c4)+3c3^2 == 3(T(T+1)(T+2))^2 exactly",
        t0,
    )


# ---------------------------------------------------------------------------
# criterion 4 — P^5 candidates


def test_criterion_04(capsys):
    t0 = time.perf_counter()
    sols = _p5_solutions()
    assert set(sols) == {"c=120t", "c=12t"}
    reports = []
    for label, sol in sols.items():
        if isinstance(sol, Infeasible):
            reports.append(f"{label}: infeasible ({sol.reason} at q={sol.q})")
            continue
        reports.append(
            f"{label}: chern={sol.chern.render()},"
            f" delta={sol.delta}, {sol.stability.value}"
        )
    # the printed recipe (multiplier 120t) must validate end-to-end
    sol = sols["c=120t"]
    assert isinstance(sol, PrescriptionSolution), "c=120t must be feasible"
    assert sol.stability is Stability.STABLE
    assert sol.schwarzenberger is None
    # oracle-verify the start sheaf's Chern polynomial three ways
    start = sol.problem.start_filtration()
    c_res = chern_total(start)
    assert c_res == chern_general(to_multifiltration(start))
    for k in range(1, 6):
        assert c_res[k] == elementary_symmetric(start, k)
    assert sol.chern == TruncPoly(5, (1, 241, 14640))
    for label, res in _p5_builds().items():
        cand = sols[label]
        assert isinstance(cand, PrescriptionSolution)
        assert res.chern_final == cand.chern, f"{label}: closed build chern"
    _report(capsys, 4, True, "; ".join(sorted(reports)), t0)


# ---------------------------------------------------------------------------
# criterion 5 — Stirling-derivative table


def test_criterion_05(capsys):
    t0 = time.perf_counter()
    table = {
        (1, 1): -1,
        (2, 1): -1, (2, 2): 2,
        (3, 1): -1, (3, 2): 6, (3, 3): -6,
        (4, 1): -1, (4, 2): 14, (4, 3): -36, (4, 4): 24,
        (5, 1): -1, (5, 2): 30, (5, 3): -150, (5, 4): 240, (5, 5): -120,
    }
    for (p, k), want in table.items():
        assert stirling_A(p, k) == want, f"A_{{{p},{k}}}"
    assert stirling_A(5, 3) == -150 and stirling_A(4, 2) == 14
    _report(capsys, 5, True, "A_{p,k} matches the 15-entry reference table"
            " for p,k <= 5 (incl. A_{5,3}=-150, A_{4,2}=14)", t0)


# ---------------------------------------------------------------------------
# criterion 6 — identity suite


def test_criterion_06(capsys):
    t0 = time.perf_counter()
    rng = Random(6)
    product_checks = 0
    for n in range(2, 6):
        for d in range(2, n + 1):
            for a in range(-3, 4):
                for m in range(-3, 4):
                    assert identity_product(a, m, d, n), (a, m, d, n)
                    product_checks += 1
    cone_checks = 0
    for n in (3, 4):
        fan = Fan(n)
        for sigma0 in fan.all_cones(min_dim=1):
            for _ in range(3):
                m_rho = tuple(rng.randint(-4, 4) for _ in range(n + 1))
                for p in range(0, fan.codim(sigma0) + 1):
                    assert identity_cone_sum(fan, sigma0, m_rho, p), (
                        n, sigma0, m_rho, p)
                    cone_checks += 1
    _report(
        capsys, 6, True,
        f"identity_product {product_checks} grid points (2<=d<=n<=5,"
        f" a,m in [-3,3]) and identity_cone_sum {cone_checks} checks"
        " (all cones of P^3/P^4, m_rho in [-4,4], all p <= codim):"
        " zero failures",
        t0,
    )


# ---------------------------------------------------------------------------
# criterion 7 — ratio closure over every built injection


def test_criterion_07(capsys):
    t0 = time.perf_counter()
    builds = _all_pipeline_builds()
    count = 0
    for sol, res in builds:
        final, injections = replay_drops(sol, res.built)
        assert final == res.final, "run build differs from the drops"
        _chern_along_chain(injections)
        count += len(injections)
    assert count == 426
    _report(
        capsys, 7, True,
        f"ratio_saturated(k0, m_Sigma) == c(F)*c(E)^-1 and exp(log())"
        f" roundtrip exact on all {count} injections built by criteria 2-4",
        t0,
    )


# ---------------------------------------------------------------------------
# criterion 8 — factorization recomposition


def test_criterion_08(capsys):
    t0 = time.perf_counter()
    rng = Random(88)
    done = 0
    lengths = 0
    while done < 200:
        n = 3 if done % 2 == 0 else 4
        start = to_multifiltration(random_reflexive(rng, n, max_c=4))
        dims = tuple(range(2, n + 1))
        final, applied = random_drops(rng, start, rng.randint(1, 6), dims)
        if not applied:
            continue
        steps = factorize(final, start)
        assert recompose(start, steps) == final, "recomposition mismatch"
        k0s = [s.k0 for s in steps]
        assert k0s == sorted(k0s), f"k0 sequence not monotone: {k0s}"
        done += 1
        lengths += len(applied)
    _report(
        capsys, 8, True,
        f"200 random drop sequences (n in 3/4, {lengths} drops total,"
        " length <= 6): factorize->recompose exact, k0 monotone",
        t0,
    )


# ---------------------------------------------------------------------------
# criterion 9 — Bogomolov-Gieseker inequality


def test_criterion_09(capsys):
    t0 = time.perf_counter()
    rng = Random(99)
    total = 500
    worst = None
    for i in range(total):
        n = (3, 4, 5)[i % 3]
        f = random_semistable(rng, n, max_c=6)
        assert stability(f) is not Stability.UNSTABLE
        d = discriminant(f)
        assert d >= 0, f"instance {i}: Delta = {d} < 0"
        assert bogomolov_ok(f) is True
        worst = d if worst is None else min(worst, d)
    _report(
        capsys, 9, True,
        f"Delta >= 0 on {total}/{total} random semistable reflexive"
        f" instances (min Delta seen: {worst})",
        t0,
    )


# ---------------------------------------------------------------------------
# criterion 10 — smoothability obstructions


def _verified_not_smoothable(E: Multifiltration) -> NotSmoothable | None:
    """Run the verdict; when hypotheses are met, independently confirm
    the nonzero witness and the leading-log coefficient."""
    verdict = obstruction_verdict(E)
    if isinstance(verdict, Inconclusive):
        return None
    assert isinstance(verdict, NotSmoothable)
    # (a) the asserted witness class is nonzero, recomputed from scratch
    hull = reflexive_hull(E)
    b = from_multifiltration(hull).b_vec
    e_norm = E.twist(b) if any(b) else E
    assert chern_general(e_norm)[verdict.witness] != 0, "witness vanished"
    # (b) [H^q] log(c(F)/c(E)) == (-1)^(q-1) (q-1)! p_q, read off the
    # integer log coefficients s_q = q [H^q] log as (-1)^(q-1) q! p_q
    prof = torsion_profile(E)
    s = log_coeffs((chern_general(hull) * chern_general(E).inverse()).coeffs)
    expect = (-1) ** (prof.q - 1) * factorial(prof.q) * prof.count(prof.q)
    assert s[prof.q] == expect, "leading-log coefficient"
    for k in range(1, prof.q):
        assert s[k] == 0
    assert leading_log_check(E)
    return verdict


def test_criterion_10(capsys):
    t0 = time.perf_counter()
    rng = Random(1010)
    quotas = {"Q4@4": 80, "Q4@5": 15, "Q2@3": 120}
    got = {key: 0 for key in quotas}
    skipped = 0
    budget = 5000
    while any(got[k] < quotas[k] for k in quotas) and budget > 0:
        budget -= 1
        key = next(k for k in quotas if got[k] < quotas[k])
        if key == "Q4@4":
            start = to_multifiltration(random_reflexive(rng, 4, max_c=4))
            E, applied = random_drops(rng, start, rng.randint(1, 3), (4,))
        elif key == "Q4@5":
            start = to_multifiltration(random_reflexive(rng, 5, max_c=3))
            E, applied = random_drops(rng, start, rng.randint(1, 2), (4, 5))
        else:
            start = to_multifiltration(random_semistable(rng, 3, max_c=4))
            E, applied = random_drops(rng, start, rng.randint(1, 3), (2,))
        if not applied:
            continue
        verdict = _verified_not_smoothable(E)
        if verdict is None:
            skipped += 1  # hypotheses not met (weight-bound degenerate hull)
            continue
        assert verdict.case == ("Q2" if key == "Q2@3" else "Q4")
        got[key] += 1
    total = sum(got.values())
    ok = total >= 200 and all(got[k] == quotas[k] for k in quotas)
    _report(
        capsys, 10, ok,
        f"{total} hypothesis-meeting instances (q>=4: {got['Q4@4']}@P^4"
        f" + {got['Q4@5']}@P^5; q=2,p3=0,semistable hull: {got['Q2@3']}@P^3):"
        " witness Chern class nonzero and leading-log =="
        f" (-1)^(q-1)(q-1)!p_q in every instance;"
        f" {skipped} draws excluded (hypotheses unmet)",
        t0,
    )
    assert ok, f"quotas unmet: {got}"


# ---------------------------------------------------------------------------
# criterion 11 — Schwarzenberger sanity


def test_criterion_11(capsys):
    t0 = time.perf_counter()
    rng = Random(1111)
    # split bundles O(a) (+) O(b) satisfy every congruence on every P^n
    for _ in range(200):
        a = rng.randint(-8, 8)
        b = rng.randint(-8, 8)
        for n in range(2, 7):
            first = schwarzenberger(a + b, a * b, n)
            assert first is None, f"split ({a},{b}) violated m={first} on n={n}"
    # the n=4 reduction: c2(c2 + 1 - 3c1 - 2c1^2) == 0 mod 12
    agree = 0
    for _ in range(200):
        c1 = rng.randint(-60, 60)
        c2 = rng.randint(-60, 60)
        general = schwarzenberger(c1, c2, 4) is None
        reduced = (c2 * (c2 + 1 - 3 * c1 - 2 * c1 * c1)) % 12 == 0
        assert general == reduced, f"mod-12 reduction disagrees at ({c1},{c2})"
        agree += 1
    _report(
        capsys, 11, True,
        "200 random split pairs pass all congruences for n <= 6;"
        f" mod-12 reduction c2(c2+1-3c1-2c1^2) == 0 (12) agrees with the"
        f" general formula on {agree}/{agree} random (c1,c2)",
        t0,
    )
