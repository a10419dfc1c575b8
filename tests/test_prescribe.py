"""Chern prescription: the triangular solver, schedules, and families."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tsk.prescribe import (
    Infeasible,
    PrescriptionProblem,
    build_sequence,
    family_p4_even,
    family_p4_odd,
    family_p5,
    family_p5_candidates,
    family_pn,
    schwarzenberger,
    solve_p,
    solve_p_closed_p4,
    solve_p_closed_p5,
    tilde_c,
    weight_schedule,
)
from tsk import prescribe
from tsk.chern import chern_general
from tsk.multifilt import drop_counts, is_reflexive, reflexive_hull
from tsk.reflexive import Stability, chern_total
from tsk.ring import TruncPoly

from drop_oracle import replay_drops
from oracles import series_log


def test_problem_validation():
    prob = PrescriptionProblem(4, (1, 6, 6, 0, 0))
    assert prob.c_rho0 == 1
    assert prob.start_chern().render() == "1 + 13*H + 48*H^2 + 36*H^3"
    assert solve_p(prob).chern.render() == "1 + 13*H + 48*H^2"
    with pytest.raises(ValueError):
        PrescriptionProblem(2, (1, 1, 1))
    with pytest.raises(ValueError):
        PrescriptionProblem(4, (1, 1, 1))  # wrong arity
    with pytest.raises(ValueError):
        PrescriptionProblem(4, (0, 1, 1, 0, 0))  # designated ray inactive
    with pytest.raises(ValueError):
        PrescriptionProblem(4, (1, -1, 1, 0, 0))
    assert prob == PrescriptionProblem(4, [1, 6, 6, 0, 0]) != PrescriptionProblem(4, (1, 6, 6, 1, 0))
    assert hash(prob) == hash(PrescriptionProblem(4, [1, 6, 6, 0, 0]))
    with pytest.raises(AttributeError):
        prob.c = (1, 1, 1, 0, 0)


def test_prescription_problem_refuses_a_float_n():
    # n and each c_rho go through operator.index, as a drop's m0 does.
    with pytest.raises(TypeError):
        PrescriptionProblem(4.0, (1, 6, 6, 0, 0))


def test_prescription_problem_refuses_a_float_c_rho():
    for c in ((1.0, 6, 6, 0, 0), (1, 6, 6, 0, 0.5)):
        with pytest.raises(TypeError):
            PrescriptionProblem(4, c)


def test_tilde_c_oracle():
    prob = PrescriptionProblem(4, (1, 6, 6, 0, 0))
    assert tilde_c(prob.start_chern()) == (-108, 1872)
    # a target with no H^3+ defect has vanishing tilde_c
    assert tilde_c(TruncPoly(4, (1, 13, 48, 0, 0))) == (0, 0)
    with pytest.raises(ValueError):
        tilde_c(TruncPoly(4, (2, 0, 0, 0, 0)))


def _tilde_c_by_series(c: TruncPoly) -> tuple[Fraction, ...]:
    """-q [H^q](log c - log(1 + c1 H + c2 H^2)) with the series log."""
    log_c, log_low = series_log(c.coeffs), series_log(list(c.coeffs[:3]) + [0] * (c.n - 2))
    return tuple(q * (log_low[q] - log_c[q]) for q in range(3, c.n + 1))


# the starts of the paper's builds: p4-odd t=1..5, p4-even t=1..3, p5
BUILD_STARTS = (
    [(1, 6 * t, 6 * t, 0, 0) for t in range(1, 6)]
    + [(1, 4 * t + 3, 4 * t + 3, 4 * t + 3, 0) for t in range(1, 4)]
    + [(1, 120, 120, 0, 0, 0), (1, 12, 12, 0, 0, 0)]
)


def test_tilde_c_matches_the_series_definition():
    rng = random.Random(2610)
    starts = list(BUILD_STARTS)
    for _ in range(60):
        n = rng.randint(3, 8)
        starts.append((rng.randint(1, 15), *(rng.randint(0, 15) for _ in range(n))))
    for c_vec in starts:
        c = PrescriptionProblem(len(c_vec) - 1, c_vec).start_chern()
        assert tilde_c(c) == _tilde_c_by_series(c), c_vec


def test_weight_schedule_consecutive():
    p = (18, 240)
    # stage 3: weights -1..16; stage 4: 17..256 — one consecutive run
    weights = [weight_schedule(1, p, k, j) for k in (3, 4) for j in range(1, p[k - 3] + 1)]
    assert weights == list(range(-1, 257))
    with pytest.raises(ValueError):
        weight_schedule(1, p, 5, 1)
    with pytest.raises(ValueError):
        weight_schedule(1, p, 3, 19)


def test_solve_p_oracles():
    sol = solve_p(PrescriptionProblem(4, (1, 6, 6, 0, 0)))
    assert sol.p == (18, 240)
    assert sol.chern == TruncPoly(4, (1, 13, 48, 0, 0))
    assert sol.delta == 23
    assert sol.stability is Stability.STABLE
    assert sol.schwarzenberger is None
    assert sol.injection_count == 258
    assert sol.p_k(3) == 18 and sol.p_k(4) == 240
    cert = sol.certificate()
    assert cert["indecomposable_if_smoothable"] is True
    assert cert["chern"] == "1 + 13*H + 48*H^2"

    even = solve_p(PrescriptionProblem(4, (1, 7, 7, 7, 0)))
    assert even.p == (245, 31752)
    assert even.delta == 188


def test_solve_p_computes_the_start_class_once(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return chern_total(f)

    monkeypatch.setattr(prescribe, "chern_total", counted)
    sol = solve_p(PrescriptionProblem(4, (1, 6, 6, 0, 0)))
    assert len(calls) == 1
    assert sol.chern == TruncPoly(4, (1, 13, 48))


def test_solve_p_infeasible():
    bad = solve_p(PrescriptionProblem(4, (1, 1, 1, 0, 0)))
    assert isinstance(bad, Infeasible)
    assert bad.reason == "NonInteger"
    assert bad.q == 3
    assert bad.value == Fraction(1, 2)
    assert "q=3" in str(bad)
    assert bad.as_json() == {"infeasible": {"reason": "NonInteger", "q": 3, "value": "1/2"}}
    with pytest.raises(AttributeError):
        bad.q = 4


def test_solutions_close_in_factor_form():
    # solve_p reads each stage's log coefficients off the telescoped edge
    # form; closing the start with the same edges' linear factors, the
    # route build_sequence takes, lands on the solution's Chern class.
    rng = random.Random(2711)
    feasible = 0
    for i in range(240):
        n = rng.randint(3, 8)
        if i % 2:
            c = [rng.randint(1, 4)] + [rng.randint(0, 30) for _ in range(n)]
        else:
            m = rng.randint(1, 199)
            c = [1, m, m] + [0] * (n - 2)
        prob = PrescriptionProblem(n, c)
        sol = solve_p(prob)
        if isinstance(sol, Infeasible):
            continue
        feasible += 1
        stages = [(k, sum(head), pk) for k, _, head, pk in sol.stages()]
        assert prescribe._closed_chern(prob.start_chern(), stages) == sol.chern, c
    assert feasible >= 60


def test_solutions_are_hashable_values():
    # the drop-by-drop oracle keys its replays by solution
    a, b = family_p4_odd(1), family_p4_odd(1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != family_p4_odd(2)
    with pytest.raises(AttributeError):
        a.p = (0,)


def test_injection_params_schedule():
    sol = solve_p(PrescriptionProblem(4, (1, 6, 6, 0, 0)))
    params = list(sol.injection_params())
    assert len(params) == 258
    assert params[0] == (3, 1, (0, 1, 2), (-1, 0, 0))
    assert params[17] == (3, 18, (0, 1, 2), (-1, 0, 17))
    assert params[18] == (4, 1, (0, 1, 2, 3), (-1, 0, 18, 0))
    assert params[-1] == (4, 240, (0, 1, 2, 3), (-1, 0, 18, 239))
    # the stages are the runs of the same schedule
    assert list(sol.stages()) == [
        (3, (0, 1, 2), (-1, 0), 18),
        (4, (0, 1, 2, 3), (-1, 0, 18), 240),
    ]


def positivity_check_p4(c, c_rho0):
    """The n=4 positivity constraint (equivalent to p4 >= 0):

        (c1 c3 - c4)/3 + c3 + c3^2/4  >=  c_rho0 c3.

    c = (1, c1, c2, c3, c4) are the Chern classes of the start sheaf.
    """
    _, c1, _, c3, c4 = (Fraction(x) for x in c)
    return (c1 * c3 - c4) / 3 + c3 + c3**2 / 4 >= c_rho0 * c3


def test_closed_forms_match_solver():
    prob = PrescriptionProblem(4, (1, 6, 6, 0, 0))
    sol = solve_p(prob)
    start = prob.start_chern()
    p3, p4 = solve_p_closed_p4(start.coeffs, prob.c_rho0)
    assert (p3, p4) == sol.p
    assert positivity_check_p4(start.coeffs, prob.c_rho0)
    for c in [(1, 6, 6, 0, 0), (3, 2, 2, 0, 0), (1, 1, 1, 1, 1), (5, 0, 0, 1, 1)]:
        start = PrescriptionProblem(4, c).start_chern()
        _, p4 = solve_p_closed_p4(start.coeffs, c[0])
        assert positivity_check_p4(start.coeffs, c[0]) == (p4 >= 0), c

    for c in [(1, 120, 120, 0, 0, 0), (1, 12, 12, 0, 0, 0)]:
        prob5 = PrescriptionProblem(5, c)
        sol5 = solve_p(prob5)
        closed = solve_p_closed_p5(prob5.start_chern().coeffs)
        assert tuple(closed) == sol5.p


def test_schwarzenberger():
    # split pairs always satisfy every congruence
    for d1, d2 in [(0, 0), (2, 3), (-1, 4)]:
        assert schwarzenberger(d1 + d2, d1 * d2, 6) is None
    # the first violated modulus is reported (m = 2, 3 hold for (0, 1):
    # -2c2 = -2 = 0 mod 2 and -6c2 - 3c1c2 = -6 = 0 mod 6; m = 4 breaks)
    assert schwarzenberger(0, 1, 6) == 4
    # the running example passes through n = 4
    assert schwarzenberger(13, 48, 4) is None


def test_build_sequence_small_full():
    # the minimal P^3 family: two 3-drops, fully built and verified
    sol = family_pn(3)
    prob = sol.problem
    assert prob.c == (1, 2, 2, 0)
    assert sol.p == (2,)
    res = build_sequence(prob, sol)
    assert res.full and res.built == res.total == 2
    assert res.chern_final == sol.chern
    assert not is_reflexive(res.final)
    assert reflexive_hull(res.final) == res.start
    with pytest.raises(AttributeError):
        res.built = 0


def test_build_sequence_prefix():
    prob = PrescriptionProblem(4, (1, 6, 6, 0, 0))
    sol = solve_p(prob)
    res = build_sequence(prob, sol, limit=5)
    assert not res.full
    assert res.built == 5 and res.total == 258
    # the closure is exact even for partial builds
    assert res.chern_final == sol.chern
    # the prefix is the schedule's first five drops, each saturated with
    # its scheduled weight (the oracle checks every step)
    final, injections = replay_drops(sol, 5)
    assert len(injections) == 5 and final == res.final
    assert drop_counts(res.final, res.start) == {3: 5}


@pytest.mark.parametrize("limit", [0, 1, 17, 18, 19, 100, 258, 10**6])
def test_build_prefixes_cut_one_run(limit):
    # A limit inside a stage cuts its run short; 18 = p3 ends stage 3.
    sol = family_p4_odd(1)
    res = build_sequence(sol.problem, sol, limit=limit)
    assert res.built == min(limit, 258) and res.total == 258
    assert res.chern_final == sol.chern
    assert res.final == replay_drops(sol, res.built)[0]


@pytest.mark.parametrize(
    "make, total",
    [(lambda: family_p4_odd(1), 258), (lambda: family_pn(4), 64), (lambda: family_pn(5), 2060)],
    ids=["p4_odd(1)", "pn(4)", "pn(5)"],
)
def test_run_build_equals_the_drops_on_the_full_builds(make, total):
    sol = make()
    res = build_sequence(sol.problem, sol)
    final, injections = replay_drops(sol, res.built)
    assert res.full and res.built == len(injections) == total
    assert res.final == final


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("limit", [None, 5])
def test_off_by_one_run_bound_is_caught(monkeypatch, shift, limit):
    # A run one class short or long (its cell's last upper coordinate off
    # by one) must fail the build's checks.
    run = prescribe.apply_run
    monkeypatch.setattr(
        prescribe, "apply_run", lambda f, sigma, m0, count: run(f, sigma, m0, count + shift)
    )
    for sol in (family_pn(3), family_p4_odd(1)):
        with pytest.raises(RuntimeError, match="internal consistency error"):
            build_sequence(sol.problem, sol, limit=limit)


@pytest.mark.parametrize("limit", [None, 5])
def test_moved_rays_fail_the_hull_check(monkeypatch, limit):
    # The hull check compares the built sheaf's ray lists with the
    # start's; a twisted run moves ray 0's list, so its hull is no longer
    # the start.  (pn(3) is one run; the limit keeps p4_odd(1) to one.)
    run = prescribe.apply_run
    monkeypatch.setattr(
        prescribe,
        "apply_run",
        lambda f, sigma, m0, count: run(f, sigma, m0, count).twist((1,) + (0,) * f.fan.n),
    )
    for sol in (family_pn(3), family_p4_odd(1)) if limit else (family_pn(3),):
        with pytest.raises(
            RuntimeError,
            match="^internal consistency error: reflexive hull of the built sheaf"
            " differs from the start$",
        ):
            build_sequence(sol.problem, sol, limit=limit)


@pytest.mark.parametrize("limit", [None, 5])
def test_a_weight_off_by_one_fails_the_profile_check(monkeypatch, limit):
    # The build holds each stage's least weight, read by the profile walk,
    # to its first scheduled weight: one weight off by one must fail it.
    walk = prescribe.drop_profile

    def shifted(e, f):
        profile = walk(e, f)
        k = max(profile)
        count, least = profile[k]
        return {**profile, k: (count, least + 1)}

    monkeypatch.setattr(prescribe, "drop_profile", shifted)
    for sol in (family_pn(3), family_p4_odd(1)):
        with pytest.raises(
            RuntimeError,
            match="^internal consistency error: the built sheaf has drop profile",
        ):
            build_sequence(sol.problem, sol, limit=limit)


PAPER_FAMILIES = (
    [(f"p4_odd({t})", family_p4_odd, t) for t in range(1, 6)]
    + [(f"p4_even({t})", family_p4_even, t) for t in range(1, 4)]
    + [(f"p5({t})", family_p5, t) for t in range(1, 4)]
    + [(f"pn({n})", family_pn, n) for n in (6, 7, 8)]
)


@pytest.mark.parametrize(
    "family, arg", [f[1:] for f in PAPER_FAMILIES], ids=[f[0] for f in PAPER_FAMILIES]
)
def test_every_paper_family_builds_in_full(family, arg):
    # Up to 1.6e76 drops (pn(8)), one run per stage; each final sheaf is
    # checked here independently of build_sequence's own checks.
    sol = family(arg)
    res = build_sequence(sol.problem, sol)
    assert res.full and res.built == sol.injection_count
    res.final.validate()
    assert reflexive_hull(res.final) == res.start
    assert chern_general(res.final) == sol.chern == res.chern_final
    assert drop_counts(res.final, res.start) == {k: pk for k, pk in enumerate(sol.p, 3) if pk}


def test_build_rejects_infeasible():
    prob = PrescriptionProblem(4, (1, 1, 1, 0, 0))
    bad = solve_p(prob)
    with pytest.raises(ValueError):
        build_sequence(prob, bad)


def test_family_p4_odd():
    for t in (1, 2):
        sol = family_p4_odd(t)
        assert sol.chern == TruncPoly(
            4, (1, 12 * t + 1, 12 * t * (3 * t + 1), 0, 0)
        )
        assert sol.p_k(3) == 18 * t * t
        assert sol.delta == 24 * t - 1
        assert sol.stability is Stability.STABLE
    with pytest.raises(ValueError):
        family_p4_odd(0)


def test_family_p4_even():
    sol = family_p4_even(1)
    t = 1
    assert sol.chern == TruncPoly(
        4, (1, 12 * t + 10, 12 * (t + 1) * (4 * t + 3), 0, 0)
    )
    big_t = 4 * t + 3
    c = sol.problem.start_chern()
    lhs = 4 * (c[1] * c[3] - c[4]) + 3 * c[3] ** 2
    assert lhs == 3 * (big_t * (big_t + 1) * (big_t + 2)) ** 2


def test_family_p5(monkeypatch):
    cands = family_p5_candidates(1)
    assert set(cands) == {"c=120t", "c=12t"}
    # family_p5 solves the printed recipe alone
    solved = []
    monkeypatch.setattr(
        prescribe, "solve_p", lambda problem: solved.append(problem.c) or solve_p(problem)
    )
    sol = family_p5(1)
    assert solved == [(1, 120, 120, 0, 0, 0)]
    assert sol == cands["c=120t"]
    assert sol.chern == TruncPoly(5, (1, 241, 14640, 0, 0, 0))
    assert sol.p == (7200, 26498400, 351211221073200)
    with pytest.raises(ValueError, match="t >= 1"):
        family_p5(0)
    small = cands["c=12t"]
    assert not isinstance(small, Infeasible)
    assert small.chern == TruncPoly(5, (1, 25, 168, 0, 0, 0))
    assert small.p == (72, 3192, 5266380)
    assert small.delta == 47


def test_family_pn_minimal_multipliers():
    assert family_pn(3).problem.c[1] == 2
    assert family_pn(4).problem.c[1] == 4
    assert family_pn(6).p == (162, 15120, 116069220, 6737210947516500)
    with pytest.raises(ValueError):
        family_pn(2)
