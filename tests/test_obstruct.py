"""Smoothability obstructions: torsion profiles and verdicts."""

from __future__ import annotations

import time
from math import factorial
from random import Random

import pytest

from tsk import multifilt, obstruct, reflexive
from tsk.chern import chern_general, twist_chern
from tsk.fan import Fan
from tsk.linalg import ZERO, Subspace
from tsk.multifilt import apply_elementary, apply_run, drop_counts, reflexive_hull
from tsk.obstruct import (
    Inconclusive,
    NotSmoothable,
    TorsionProfile,
    obstruction_verdict,
    s_max,
    torsion_profile,
)
from tsk.prescribe import build_sequence, family_p4_odd, family_pn
from tsk.reflexive import (
    R2Filtration,
    RayDatum,
    Stability,
    chern_class,
    chern_total,
    from_multifiltration,
    stability,
    to_multifiltration,
)
from tsk.ring import TruncPoly
from tsk.sampling import random_drops, random_reflexive

from oracles import leading_log_check


def hull(n, c):
    return to_multifiltration(R2Filtration.b_zero_data(Fan(n), c))


def drop(mf, sigma0, m0, target=None):
    return apply_elementary(
        mf, sigma0, m0, ZERO if target is None else target
    )


def test_torsion_profile_basics():
    prof = TorsionProfile(((2, 1), (4, 3)))
    assert prof.q == 2
    assert prof.count(2) == 1 and prof.count(3) == 0 and prof.count(4) == 3
    assert prof.total == 4
    assert dict(prof.p) == {2: 1, 4: 3}
    with pytest.raises(ValueError):
        TorsionProfile(())
    with pytest.raises(ValueError):
        TorsionProfile(((2, 0),))
    assert prof == TorsionProfile(((2, 1), (4, 3))) != TorsionProfile(((2, 1),))
    assert hash(prof) == hash(TorsionProfile(((2, 1), (4, 3))))
    with pytest.raises(AttributeError):
        prof.p = ((2, 1),)
    for verdict in (NotSmoothable("Q4", 4, prof), Inconclusive(prof)):
        with pytest.raises(AttributeError):
            verdict.profile = prof


def test_torsion_profile_rejects_what_its_docstring_rules_out():
    # The codimensions are ints, strictly increasing and >= 2: unsorted
    # pairs would compare unequal to their sorted twin, a repeated k would
    # make count(k) and total disagree, and k < 2 would give q < 2.
    for p in (((4, 1), (2, 1)), ((2, 1), (2, 3)), ((0, 5),), ((1, 1),), ((2.0, 1),)):
        with pytest.raises(ValueError, match="strictly increasing ints >= 2"):
            TorsionProfile(p)
    # A count is a plain positive int: 1.5 would make `total` 1.5, and
    # True is an int that is no count.
    for p in (((2, 1.5),), ((2, True),), ((2, 1), (4, 2.0)), ((2, 0),), ((2, -1),)):
        with pytest.raises(ValueError, match="counts must be positive ints"):
            TorsionProfile(p)


def test_torsion_profile_of_drops():
    F = hull(4, (1, 6, 6, 0, 0))
    E = drop(F, (0, 1, 2), (-1, 0, 0))
    prof = torsion_profile(E)
    assert prof.q == 3 and dict(prof.p) == {3: 1}
    E2 = drop(E, (0, 1, 2, 3), (-1, 0, 1, 0))
    prof2 = torsion_profile(E2)
    assert prof2.q == 3 and dict(prof2.p) == {3: 1, 4: 1}
    with pytest.raises(ValueError):
        torsion_profile(F)  # reflexive input has no torsion profile


def test_profile_of_the_built_families():
    # The paper's families built in full, one run per stage: 258, 64 and
    # 2060 drops.
    for sol, total in ((family_p4_odd(1), 258), (family_pn(4), 64), (family_pn(5), 2060)):
        res = build_sequence(sol.problem, sol)
        assert res.built == total
        solved = {k: pk for k, pk in enumerate(sol.p, 3) if pk}
        assert drop_counts(res.final, res.start) == solved
        prof = torsion_profile(res.final)
        assert dict(prof.p) == solved and prof.total == total
        assert leading_log_check(res.final)


def test_leading_log():
    F = hull(4, (1, 6, 6, 0, 0))
    for e in [
        drop(F, (0, 1, 2), (-1, 0, 0)),
        drop(drop(F, (0, 1, 2), (-1, 0, 0)), (0, 1, 2), (-1, 0, 1)),
    ]:
        assert leading_log_check(e)


def test_s_max():
    f = R2Filtration.b_zero_data(Fan(3), (1, 1, 1, 1))
    assert s_max(f) == 1
    lines = [(1, 0), (1, 1), (1, 0), None]
    g = R2Filtration(Fan(3), [RayDatum(-c, 0, li) for c, li in zip((2, 3, 1, 0), lines)])
    assert s_max(g) == 3  # line (1,0) carries 2 + 1
    assert s_max(R2Filtration.b_zero_data(Fan(3), (0, 0, 0, 0))) == 0


def test_verdict_q4():
    # a single 4-drop on P^4: codimension-4 torsion, obstructed
    F = hull(4, (1, 1, 1, 1, 0))
    E = drop(F, (0, 1, 2, 3), (-1, 0, 0, 0))
    v = obstruction_verdict(E)
    assert isinstance(v, NotSmoothable)
    assert v.case == "Q4" and v.profile.q == 4
    # the hull has c_3 = s_3 = 4 != 0, so the cheap witness applies
    assert v.witness == 3
    assert chern_general(E)[3] == 4 != 0
    assert v.as_json()["verdict"] == "NotSmoothable"


def test_verdict_q4_deep_witness():
    # hull with c_3 = 0 (two active rays only): witness falls back to c_q
    F = hull(4, (1, 1, 0, 0, 0))
    E = drop(F, (0, 1, 2, 3), (-1, 0, 0, 0))
    v = obstruction_verdict(E)
    assert isinstance(v, NotSmoothable)
    assert v.case == "Q4" and v.witness == v.profile.q == 4
    assert chern_general(E)[3] == 0
    assert chern_general(E)[4] != 0


def test_verdict_q2_stable_hull():
    # stable hull, one 2-drop with weight -1 >= -s_max: obstructed, c_3 != 0
    f = R2Filtration.b_zero_data(Fan(3), (1, 1, 1, 1))
    assert stability(f) is Stability.STABLE and s_max(f) == 1
    E = drop(to_multifiltration(f), (0, 1), (0, -1))
    v = obstruction_verdict(E)
    assert isinstance(v, NotSmoothable)
    assert v.case == "Q2" and v.profile.q == 2 and v.witness == 3
    assert chern_general(E).render() == "1 + 4*H + 7*H^2 + 8*H^3"


def test_verdict_q2_weight_bound_regression():
    """Degenerate semistable hull whose minimal nonzero class on a
    2-cone is C^2-valued: the drop weight falls below -S_max and the
    c_3 != 0 guarantee genuinely fails (c_3 = 0 here), so the verdict
    must be Inconclusive with the bound named — not NotSmoothable."""
    g = R2Filtration.b_zero_data(Fan(3), (0, 1, 1, 0))
    assert stability(g) is Stability.STRICTLY_SEMISTABLE
    E = drop(to_multifiltration(g), (0, 3), (0, 0), Subspace.line(1, 5))
    # the falsifying Chern class: (1+H)^4 / (1+2H) truncated has c_3 = 0
    quotient_ratio = TruncPoly(3, (1, 2)) * TruncPoly(3, (1, 1)).int_pow(-2)
    assert chern_general(E) == chern_general(to_multifiltration(g)) * quotient_ratio.inverse()
    assert chern_general(E).render() == "1 + 2*H + 2*H^2"
    v = obstruction_verdict(E)
    assert isinstance(v, Inconclusive)
    assert v.profile.q == 2
    assert v.reason is not None and "-S_max" in v.reason
    assert "reason" in v.as_json()


def test_verdict_q3_inconclusive():
    F = hull(4, (1, 6, 6, 0, 0))
    E = drop(F, (0, 1, 2), (-1, 0, 0))
    v = obstruction_verdict(E)
    assert isinstance(v, Inconclusive)
    assert v.profile.q == 3 and v.reason is None
    assert "reason" not in v.as_json()


def test_verdict_twist_invariance():
    F = hull(4, (1, 1, 1, 1, 0))
    E = drop(F, (0, 1, 2, 3), (-1, 0, 0, 0))
    base = obstruction_verdict(E).as_json()
    for d in [(1, 0, 0, 0, 0), (-2, 1, 3, 0, -1)]:
        twisted = obstruction_verdict(E.twist(d)).as_json()
        assert twisted == base


def test_verdict_input_errors():
    with pytest.raises(ValueError, match="E is reflexive"):
        obstruction_verdict(hull(3, (1, 1, 1, 0)))


def q4_draws(seed, count, ns=(4, 5, 6)):
    """Seeded drop chains on P^4..P^6 whose drops all have k0 >= 4."""
    rng = Random(seed)
    for i in range(count):
        n = ns[i % len(ns)]
        start = to_multifiltration(random_reflexive(rng, n, max_c=2))
        E, applied = random_drops(rng, start, rng.randint(1, 3), range(4, n + 1))
        if applied:
            yield E


def low_chern(E):
    """c(E) mod H^(q+1) from the hull's class and p_q (obstruct's module
    docstring), as (c_0, ..., c_q)."""
    prof = torsion_profile(E)
    q = prof.q
    c = list(chern_class(from_multifiltration(reflexive_hull(E))).coeffs[: q + 1])
    c[q] -= (-1) ** (q - 1) * factorial(q - 1) * prof.count(q)
    return tuple(c)


def test_q4_class_is_the_hulls_up_to_h_q():
    # c(E) = c(F) (1 - (-1)^(q-1) (q-1)! p_q H^q) mod H^(q+1), held to the
    # Klyachko grid over E; q = n and mixed profiles are among the draws.
    shapes = set()
    for E in q4_draws(32, 90):
        prof = torsion_profile(E)
        assert chern_general(E).coeffs[: prof.q + 1] == low_chern(E)
        shapes.add((E.fan.n, tuple(k for k, _ in prof.p)))
    assert {(4, (4,)), (5, (5,)), (6, (6,))} <= shapes
    assert any(len(ks) > 1 for _, ks in shapes)


def reference_q4_witness(E):
    """The Q4 witness by the general formula over E itself."""
    prof = torsion_profile(E)
    c = chern_general(E)
    if c[3] != 0:
        return 3
    t = from_multifiltration(reflexive_hull(E)).b_sum
    return prof.q if twist_chern(c, t)[prof.q] != 0 else None


def test_q4_verdicts_match_the_general_formula():
    witnesses = set()
    for E in q4_draws(4, 60):
        v = obstruction_verdict(E)
        assert isinstance(v, NotSmoothable) and v.case == "Q4"
        assert v.witness == reference_q4_witness(E)
        witnesses.add(v.witness)
    assert witnesses == {3, 4, 5}  # the c_q witness is exercised


def test_q4_builds_no_grid_over_e(monkeypatch):
    seen = []

    def recording(mf):
        seen.append(mf)
        return chern_general(mf)

    monkeypatch.setattr(obstruct, "chern_general", recording)
    monkeypatch.setattr(reflexive, "chern_general", recording)
    for E in q4_draws(4, 30):
        assert obstruction_verdict(E).case == "Q4"
        assert all(mf != E for mf in seen)


def test_q4_hull_outside_the_closed_route():
    # Rays 0 and 4 share the line (1, 0) among three active lines: the
    # resolution formula does not apply, and the hull's class falls back to
    # the general formula over the hull, not over E.
    lines = [(1, 0), (1, 1), (1, 2), None, (1, 0)]
    f = R2Filtration(Fan(4), [RayDatum(-c, 0, li) for c, li in zip((1, 1, 1, 0, 1), lines)])
    with pytest.raises(ValueError, match="resolution formula"):
        chern_total(f)
    F = to_multifiltration(f)
    E = drop(F, (0, 1, 2, 3), (-1, 0, 0, 0))
    seen = []

    def recording(mf):
        seen.append(mf)
        return chern_general(mf)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(obstruct, "chern_general", recording)
        mp.setattr(reflexive, "chern_general", recording)
        v = obstruction_verdict(E)
    assert seen == [F]
    assert v.case == "Q4" and v.witness == reference_q4_witness(E)
    assert chern_general(E).coeffs[:5] == low_chern(E)


def verdict_taking_no_drop(monkeypatch, E):
    """obstruction_verdict(E), which must make no `multifilt.drop` call."""
    calls = []
    real = multifilt.drop

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(multifilt, "drop", counting)
    v = obstruction_verdict(E)
    assert calls == []
    return v


@pytest.mark.parametrize("N", [400, 10**15])
def test_q2_walks_the_two_cones_only(monkeypatch, N):
    # Profile {2: 1, 4: N}: the least 2-elementary weight is read off the
    # profile walk, so the verdict takes no drop, whatever N is.
    F = hull(4, (1, 1, 1, 1, 0))
    E = multifilt.drop(apply_run(F, (0, 1, 2, 3), (-1, 0, 0, 0), N), (3, 4), (-1, 0), ZERO).e
    assert verdict_taking_no_drop(monkeypatch, E).as_json() == {
        "verdict": "NotSmoothable",
        "case": "Q2",
        "witness": 3,
        "q": 2,
        "profile": {"2": 1, "4": N},
    }


def test_q2_verdict_is_bounded_by_the_cones(monkeypatch):
    # N 2-elementary drops on one 2-cone of a stable P^3 hull: the verdict
    # reads their least weight per cell, so it takes no drop and its time
    # does not grow with N, as a walk drop by drop would.
    f = R2Filtration.b_zero_data(Fan(3), (2, 2, 2, 0))
    assert stability(f) is Stability.STABLE
    F = to_multifiltration(f)
    small = apply_run(F, (0, 1), (-2, 0), 50)
    steps = multifilt.factorize(small, reflexive_hull(small))
    assert multifilt.drop_profile(small, reflexive_hull(small)) == {
        2: (50, min(s.m_Sigma for s in steps))
    }
    E = apply_run(F, (0, 1), (-2, 0), 10**15)
    start = time.perf_counter()
    v = verdict_taking_no_drop(monkeypatch, E)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.05, elapsed
    assert v.as_json() == {
        "verdict": "NotSmoothable",
        "case": "Q2",
        "witness": 3,
        "q": 2,
        "profile": {"2": 10**15},
    }
