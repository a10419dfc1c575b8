"""Smoothability obstructions: torsion profiles and verdicts."""

from __future__ import annotations

import pytest

from tsk.chern import chern_general
from tsk.fan import Fan
from tsk.linalg import ZERO, Subspace
from tsk.multifilt import apply_elementary, drop_counts
from tsk.obstruct import (
    Inconclusive,
    NotSmoothable,
    TorsionProfile,
    leading_log_check,
    obstruction_verdict,
    s_max,
    torsion_profile,
)
from tsk.prescribe import build_sequence, family_p4_odd, family_pn
from tsk.reflexive import R2Filtration, RayDatum, Stability, stability, to_multifiltration
from tsk.ring import TruncPoly


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
