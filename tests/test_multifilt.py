"""Multifiltrations: families, elementary injections, factorization."""

from __future__ import annotations

import random

import pytest

from tsk.fan import Fan
from tsk.linalg import Subspace
from tsk.multifilt import (
    INFINITY,
    InvalidFamily,
    Multifiltration,
    NotElementary,
    apply_elementary,
    delta,
    elementary_check,
    factorize,
    is_contained,
    is_reflexive,
    line_bundle,
    recompose,
    reflexive_hull,
)
from tsk.reflexive import R2Filtration, to_multifiltration
from tsk.sampling import random_b_zero, random_drops


def start_family(n=4, c=(1, 6, 6, 0, 0)):
    return to_multifiltration(R2Filtration.b_zero_data(Fan(n), c))


def test_construction_and_canonical_jumps():
    mf = start_family()
    # all cones of dim >= 1 carry a jump list
    assert set(mf.jumps) == set(mf.fan.all_cones(min_dim=1))
    # equality and hashing are structural
    assert mf == start_family()
    assert hash(mf) == hash(start_family())
    assert mf != start_family(c=(1, 6, 5, 0, 0))
    with pytest.raises(AttributeError):
        mf.rank = 3
    with pytest.raises(InvalidFamily):
        Multifiltration(Fan(2), 2, {(0, 1, 2): ()})  # not a cone
    with pytest.raises(InvalidFamily):
        # wrong arity of a jump class
        Multifiltration(
            Fan(2), 2, {(0,): (((0, 0), Subspace.full(2)),)}
        )


def test_evaluate():
    mf = start_family()
    # the zero cone always evaluates to C^r
    assert mf.evaluate((), ()) == Subspace.full(2)
    # ray 1 has a = -6, b = 0, line (1,1)
    assert mf.evaluate((1,), (-7,)) == Subspace.zero(2)
    assert mf.evaluate((1,), (-6,)) == Subspace.line(1, 1)
    assert mf.evaluate((1,), (-1,)) == Subspace.line(1, 1)
    assert mf.evaluate((1,), (0,)) == Subspace.full(2)
    assert mf.evaluate((1,), (99,)) == Subspace.full(2)
    # a 2-cone: meet of two distinct lines is zero below the joint level
    assert mf.evaluate((1, 2), (-1, -1)) == Subspace.zero(2)
    assert mf.evaluate((1, 2), (0, -1)) == Subspace.line(1, 2)
    assert mf.evaluate((1, 2), (0, 0)) == Subspace.full(2)
    with pytest.raises(ValueError):
        mf.evaluate((0, 1), (0,))
    with pytest.raises(ValueError):
        mf.evaluate((9,), (0,))


def test_validate_catches_broken_families():
    fan = Fan(2)
    full, l1 = Subspace.full(2), Subspace.line(1, 0)
    # deep value never reaches C^2 on ray 0
    with pytest.raises(InvalidFamily):
        Multifiltration(
            fan,
            2,
            {
                (0,): (((0,), l1),),
                (1,): (((0,), full),),
                (2,): (((0,), full),),
                (0, 1): (((0, 0), full),),
                (0, 2): (((0, 0), full),),
                (1, 2): (((0, 0), full),),
            },
        )
    # facet incompatibility: the 2-cone never sees ray 1's line
    with pytest.raises(InvalidFamily):
        Multifiltration(
            fan,
            2,
            {
                (0,): (((0,), full),),
                (1,): (((-1,), l1), ((0,), full)),
                (2,): (((0,), full),),
                (0, 1): (((0, 0), full),),
                (0, 2): (((0, 0), full),),
                (1, 2): (((0, 0), full),),
            },
        )


def test_twist_roundtrip():
    mf = start_family()
    d = (1, -2, 0, 3, 0)
    tw = mf.twist(d)
    assert tw != mf
    assert tw.twist(tuple(-x for x in d)) == mf
    # twisting shifts ray jump coordinates by -d[ray]
    assert tw.evaluate((1,), (-6 + 2,)) == mf.evaluate((1,), (-6,))
    with pytest.raises(ValueError):
        mf.twist((1, 2))


def test_line_bundle():
    lb = line_bundle(Fan(3), (2, 0, -1, 0))
    assert lb.rank == 1
    assert lb.evaluate((0,), (-2,)) == Subspace.full(1)
    assert lb.evaluate((0,), (-3,)) == Subspace.zero(1)
    assert lb.evaluate((2,), (0,)) == Subspace.zero(1)
    assert lb.evaluate((2,), (1,)) == Subspace.full(1)


def test_reflexive_hull_fixes_reflexive_families():
    mf = start_family()
    assert is_reflexive(mf)
    assert reflexive_hull(mf) == mf


def test_apply_elementary_basic():
    mf = start_family()
    dropped = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), Subspace.zero(2))
    assert dropped != mf
    assert not is_reflexive(dropped)
    assert reflexive_hull(dropped) == mf
    assert is_contained(dropped, mf)
    # the drop is local: rays unchanged
    for ray in mf.fan.rays:
        assert dropped.jumps[(ray,)] == mf.jumps[(ray,)]
    # the dropped class now evaluates to the target
    assert dropped.evaluate((0, 1, 2), (-1, 0, 0)) == Subspace.zero(2)
    assert mf.evaluate((0, 1, 2), (-1, 0, 0)).dim == 1


def test_apply_elementary_preconditions():
    mf = start_family()
    # not a hyperplane of the value (codim 2)
    with pytest.raises(ValueError):
        apply_elementary(mf, (0, 1, 2), (0, 0, 0), Subspace.line(1, 0))
    # m0 not minimal: strictly-below values not inside the target
    with pytest.raises(ValueError):
        apply_elementary(mf, (0, 1, 2), (0, 0, 0), Subspace.zero(2).join(Subspace.line(1, 5)))
    with pytest.raises(ValueError):
        apply_elementary(mf, (0, 0), (0, 0), Subspace.zero(2))


def test_elementary_check_invariants():
    mf = start_family()
    sigma0, m0 = (0, 1, 2), (-1, 0, 0)
    e = apply_elementary(mf, sigma0, m0, Subspace.zero(2))
    inj = elementary_check(e, mf)
    assert inj.k0 == 3
    assert inj.sigma0 == sigma0
    assert inj.m0 == m0
    assert inj.dropped == Subspace.zero(2)
    assert inj.saturated
    # ray weights: <m0, u_rho> on sigma0's rays, thresholds elsewhere
    assert inj.m_rho[0] == -1 and inj.m_rho[1] == 0 and inj.m_rho[2] == 0
    assert inj.m_Sigma == sum(inj.m_rho.values())
    assert inj.quotient_dims() == (3, inj.m_Sigma)
    with pytest.raises(NotElementary):
        elementary_check(mf, mf)
    with pytest.raises(NotElementary):
        # two drops are not elementary
        e2 = apply_elementary(e, (0, 1, 3), (-1, 0, 0), Subspace.zero(2))
        elementary_check(e2, mf)


def test_delta_invariant():
    mf = start_family()
    e = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), Subspace.zero(2))
    d = delta(e, mf)
    # the quotient is supported in codimension 3: deltas vanish below
    assert d[0] == 0 and d[1] == 0
    assert d[2] == 1  # a single unit cell of dimension drop
    assert delta(mf, mf) == (0,) * 4


def test_delta_infinite_when_no_cone_qualifies():
    # O(-sum D_rho) c O differs on every ray, so Sigma*(2) is empty.
    fan = Fan(2)
    d = delta(line_bundle(fan, (-1, -1, -1)), line_bundle(fan, (0, 0, 0)))
    assert d == (3, INFINITY)
    assert d[1] is INFINITY and repr(d[1]) == "INFINITY"


def test_factorize_roundtrip_simple():
    mf = start_family()
    e = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), Subspace.zero(2))
    steps = factorize(e, mf)
    assert len(steps) == 1
    assert steps[0].k0 == 3 and steps[0].m0 == (-1, 0, 0)
    assert recompose(mf, steps) == e
    assert factorize(mf, mf) == []


def test_factorize_k0_monotone_random():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.choice((3, 4))
        start = to_multifiltration(random_b_zero(rng, n, max_c=3))
        final, applied = random_drops(rng, start, rng.randint(1, 4), (2, 3))
        steps = factorize(final, start)
        k0s = [s.k0 for s in steps]
        assert k0s == sorted(k0s)
        assert len(steps) >= len(applied) > 0 or final == start
        assert recompose(start, steps) == final


def test_factorize_rejects_non_containment():
    mf = start_family()
    e = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), Subspace.zero(2))
    with pytest.raises(ValueError):
        factorize(mf, e)  # wrong order
    with pytest.raises(ValueError):
        factorize(start_family(c=(2, 6, 6, 0, 0)), mf)
