"""Rank-2 reflexive ray data: Chern classes, stability, normalization."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tsk import chern
from tsk.fan import Fan
from tsk.linalg import ZERO, FULL, Subspace
from tsk.chern import chern_general
from tsk.reflexive import (
    R2Filtration,
    RayDatum,
    Stability,
    bogomolov_ok,
    chern_class,
    chern_routes,
    chern_symmetric,
    chern_total,
    discriminant,
    elementary_symmetric,
    from_multifiltration,
    in_general_position,
    is_locally_free,
    line_sums,
    normalize,
    slope,
    stability,
    to_multifiltration,
)
from tsk.ring import TruncPoly

from drop_oracle import unchecked


def b_zero(n, c, lines=None):
    """The b_zero filtration, with the given lines on the active rays in
    place of b_zero_data's L_i = span(1, i)."""
    if lines is None:
        return R2Filtration.b_zero_data(Fan(n), c)
    data = [RayDatum(-ci, 0, li if ci > 0 else None) for ci, li in zip(c, lines, strict=True)]
    return R2Filtration(Fan(n), data)


def test_ray_datum():
    r = RayDatum(-2, 0, (2, 4))
    assert r.c == 2
    assert r.line == (1, 2)  # canonicalized
    assert r.value_at(-3) == ZERO
    assert r.value_at(-1) == Subspace.line(1, 2)
    assert r.value_at(0) == FULL
    # trivial ray: the line is dropped
    assert RayDatum(1, 1, (1, 0)).line is None
    with pytest.raises(ValueError):
        RayDatum(1, 0, (1, 0))
    with pytest.raises(ValueError):
        RayDatum(-1, 0, None)


def test_ray_data_are_values():
    r = RayDatum(-2, 0, (2, 4))
    assert r == RayDatum(-2, 0, (1, 2)) and hash(r) == hash(RayDatum(-2, 0, (1, 2)))
    assert r != RayDatum(-2, 0, (1, 3)) and r != RayDatum(-1, 0, (1, 2))
    assert r != (-2, 0, (1, 2))
    f = b_zero(3, (1, 2, 0, 1))
    g = R2Filtration(Fan(3), list(f.rays))
    assert f == g and hash(f) == hash(g) and g.rays == f.rays
    assert f != b_zero(3, (1, 2, 1, 1)) and f != b_zero(4, (1, 2, 0, 1, 0))
    assert f != (Fan(3), f.rays)
    with pytest.raises(AttributeError):
        r.a = 0
    with pytest.raises(AttributeError):
        f.rays = ()
    with pytest.raises(ValueError):
        R2Filtration(Fan(3), f.rays[:3])


def test_ray_datum_refuses_a_float_a():
    # With a = -1.0 stability() answered STABLE while slope() failed
    # inside fractions; a goes through operator.index, so the datum is
    # refused when it is built, a Fraction too.
    for a in (-1.0, Fraction(-1)):
        with pytest.raises(TypeError):
            RayDatum(a, 0, (1, 0))


def test_ray_datum_refuses_a_float_b():
    with pytest.raises(TypeError):
        RayDatum(-1, 0.0, (1, 0))


def test_filtration_basics():
    f = b_zero(4, (1, 6, 6, 0, 0))
    assert f.n == 4
    assert f.a_vec == (-1, -6, -6, 0, 0)
    assert f.b_vec == (0, 0, 0, 0, 0)
    assert f.c_vec == (1, 6, 6, 0, 0)
    assert f.c_sum == 13
    assert list(line_sums(f)) == [(1, 0), (1, 1), (1, 2)]
    assert f.is_b_zero() and not f.is_a_zero()
    with pytest.raises(ValueError):
        R2Filtration(Fan(2), (RayDatum(0, 0),))  # wrong ray count


def test_normalize():
    f = R2Filtration(
        Fan(3),
        (
            RayDatum(-1, 2, (1, 0)),
            RayDatum(0, 3, (1, 1)),
            RayDatum(2, 2, None),
            RayDatum(-4, 0, (1, 2)),
        ),
    )
    b0 = normalize(f, "b_zero")
    a0 = normalize(f, "a_zero")
    assert b0.is_b_zero() and a0.is_a_zero()
    # twisting preserves c_rho, lines, and the discriminant
    assert b0.c_vec == f.c_vec == a0.c_vec
    assert [r.line for r in b0.rays] == [r.line for r in f.rays]
    assert discriminant(b0) == discriminant(f) == discriminant(a0)
    assert stability(b0) is stability(f)
    with pytest.raises(ValueError):
        normalize(f, "c_zero")


def test_elementary_symmetric():
    f = b_zero(4, (1, 6, 6, 0, 0))
    assert [elementary_symmetric(f, k) for k in (1, 2, 3, 4)] == [13, 48, 36, 0]
    with pytest.raises(ValueError):
        elementary_symmetric(f, 0)
    with pytest.raises(ValueError):
        elementary_symmetric(f, 5)


def test_chern_total_oracle():
    # the running example: c = (1, 6, 6, 0, 0) on P^4
    f = b_zero(4, (1, 6, 6, 0, 0))
    assert chern_total(f).render() == "1 + 13*H + 48*H^2 + 36*H^3"
    # b_zero: c_k = s_k for k >= 1
    assert chern_total(f) == TruncPoly(4, (1, 13, 48, 36, 0))
    assert elementary_symmetric(f, 3) == 36
    assert elementary_symmetric(f, 4) == 0


def test_chern_symmetric():
    # the third route, c_k = s_k on b_zero data, agrees with the other two
    for n, c in [(4, (1, 6, 6, 0, 0)), (3, (2, 3, 1, 4)), (5, (1, 1, 1, 0, 0, 0))]:
        f = b_zero(n, c)
        assert chern_symmetric(f) == chern_total(f)
        assert chern_symmetric(f) == chern_general(to_multifiltration(f))
    assert chern_symmetric(b_zero(4, (1, 6, 6, 0, 0))).coeffs == (1, 13, 48, 36, 0)
    with pytest.raises(ValueError, match="b_zero"):
        chern_symmetric(normalize(b_zero(4, (1, 6, 6, 0, 0)), "a_zero"))


def test_closed_routes_need_general_position():
    # three distinct active lines, one of them on two rays: not locally
    # free and not in general position, so neither closed formula applies
    rep = b_zero(3, (1, 2, 1, 3), lines=[(1, 0), (1, 0), (1, 1), (1, 2)])
    assert not is_locally_free(rep) and not in_general_position(rep)
    with pytest.raises(ValueError, match="pairwise distinct"):
        chern_total(rep)
    with pytest.raises(ValueError, match="pairwise distinct"):
        chern_symmetric(rep)
    assert chern_general(to_multifiltration(rep)).render() == "1 + 7*H + 15*H^2 + 9*H^3"
    # the discriminant takes c_1 and c_2 from the general formula there
    assert discriminant(rep) == 4 * 15 - 7**2 == 11
    # one line on every ray is O(4) (+) O: the split route applies, c_k = s_k does not
    one = b_zero(3, (1, 1, 1, 1), lines=[(1, 0)] * 4)
    assert is_locally_free(one) and not in_general_position(one)
    assert chern_total(one).render() == "1 + 4*H"
    assert chern_general(to_multifiltration(one)) == chern_total(one)
    with pytest.raises(ValueError, match="pairwise distinct"):
        chern_symmetric(one)
    # inactive rays carry no line and do not count
    assert in_general_position(b_zero(4, (1, 6, 6, 0, 0)))


def test_route_table_matches_the_hypotheses():
    # Lines from a pool of three, so repeated lines occur; every third draw
    # is b_zero.  chern_routes keeps exactly the routes whose hypothesis
    # holds, they agree, and the discriminant reads the general formula.
    rng = random.Random(15)
    pool = [(1, 0), (1, 1), (0, 1)]
    outside = 0
    for i in range(300):
        n = rng.randint(2, 4)
        rays = []
        for _ in range(n + 1):
            b = 0 if i % 3 == 0 else rng.randint(-3, 3)
            c = rng.randint(0, 4)
            rays.append(RayDatum(b - c, b, rng.choice(pool) if c else None))
        f = R2Filtration(Fan(n), rays)
        general, free = in_general_position(f), is_locally_free(f)
        routes = chern_routes(f)
        assert list(routes) == [
            name
            for name, holds in (
                ("resolution", general or free),
                ("klyachko", True),
                ("symmetric", general and f.is_b_zero()),
            )
            if holds
        ]
        assert len(set(routes.values())) == 1
        c = routes["klyachko"]
        assert chern_class(f) == c
        assert discriminant(f) == 4 * c[2] - c[1] ** 2
        outside += not (general or free)
    assert outside >= 40  # 48 of the 300 draws lie outside both closed routes


def test_chern_class_takes_the_closed_route_when_it_holds(monkeypatch):
    # The general formula runs only where the closed one cannot.
    seen = []

    def recording(mf):
        seen.append(mf)
        return chern_general(mf)

    monkeypatch.setattr(chern, "chern_general", recording)
    f = b_zero(4, (1, 6, 6, 0, 0))
    assert chern_class(f) == chern_total(f) and seen == []
    rep = b_zero(3, (1, 2, 1, 3), lines=[(1, 0), (1, 0), (1, 1), (1, 2)])
    assert chern_class(rep).render() == "1 + 7*H + 15*H^2 + 9*H^3"
    assert seen == [to_multifiltration(rep)]


def test_chern_line_bundle_split():
    # O(2) (+) O on P^3: a split, locally free filtration
    f = R2Filtration(
        Fan(3),
        (
            RayDatum(-2, 0, (1, 0)),
            RayDatum(0, 0),
            RayDatum(0, 0),
            RayDatum(0, 0),
        ),
    )
    assert is_locally_free(f)
    assert chern_total(f).render() == "1 + 2*H"


def test_chern_two_lines_split():
    # two distinct lines, each on its own rays: O(d1) (+) O(d2)
    f = b_zero(3, (2, 3, 0, 0), lines=[(1, 0), (1, 0), None, None])
    assert is_locally_free(f)
    assert chern_total(f) == TruncPoly(3, (1, 5)) * TruncPoly(3, (1, 0))
    g = b_zero(3, (2, 3, 0, 0), lines=[(1, 0), (0, 1), None, None])
    assert is_locally_free(g)
    assert chern_total(g) == TruncPoly(3, (1, 2)) * TruncPoly(3, (1, 3))


def test_chern_general_vs_resolution():
    # three distinct active lines: genuinely reflexive, not locally free
    f = b_zero(3, (1, 1, 1, 0))
    assert not is_locally_free(f)
    c = chern_total(f)
    assert c == TruncPoly(3, (1, 3, 3, 1))
    assert c[3] == elementary_symmetric(f, 3)


def test_general_b_chern():
    # non-normalized data: the resolution quotient, with b != 0, agrees
    # with the general formula
    f = R2Filtration(
        Fan(4),
        (
            RayDatum(-1, 1, (1, 0)),
            RayDatum(-2, 0, (1, 1)),
            RayDatum(0, 2, (1, 2)),
            RayDatum(-1, 0, (1, 3)),
            RayDatum(0, 0),
        ),
    )
    assert f.b_sum != 0
    assert chern_total(f) == chern_general(to_multifiltration(f))


def test_slope():
    f = b_zero(4, (1, 1, 1, 0, 0))
    assert slope(f) == Fraction(3, 2)
    shifted = normalize(f, "a_zero")
    assert slope(shifted) == slope(f) - Fraction(2 * 3, 2)


def test_stability_verdicts():
    # distinct lines sharing no majority: stable
    assert stability(b_zero(4, (1, 1, 1, 0, 0))) is Stability.STABLE
    # one line carrying exactly half of c: strictly semistable
    assert stability(b_zero(4, (2, 1, 1, 0, 0))) is Stability.STRICTLY_SEMISTABLE
    # one line carrying more than half: unstable
    assert stability(b_zero(4, (3, 1, 1, 0, 0))) is Stability.UNSTABLE
    # no active ray at all: split sum of equal line bundles
    assert stability(b_zero(3, (0, 0, 0, 0))) is Stability.STRICTLY_SEMISTABLE
    # same line on all active rays: maximally unstable
    same = b_zero(3, (1, 2, 0, 0), lines=[(1, 0), (1, 0), None, None])
    assert stability(same) is Stability.UNSTABLE


def test_line_sums():
    # S_L per distinct active line, in first-occurrence order
    f = b_zero(3, (2, 3, 1, 0), lines=[(1, 0), (1, 1), (2, 0), None])
    assert list(line_sums(f).items()) == [((1, 0), 3), ((1, 1), 3)]
    assert stability(f) is Stability.STRICTLY_SEMISTABLE
    assert line_sums(b_zero(3, (0, 0, 0, 0))) == {}
    assert line_sums(b_zero(4, (1, 6, 6, 0, 0))) == {(1, 0): 1, (1, 1): 6, (1, 2): 6}


def test_discriminant_and_bogomolov():
    f = b_zero(4, (1, 1, 1, 0, 0))
    assert discriminant(f) == 4 * 3 - 9 == 3
    assert bogomolov_ok(f) is True
    g = b_zero(4, (3, 1, 1, 0, 0))
    assert stability(g) is Stability.UNSTABLE
    assert bogomolov_ok(g) is None  # no claim for unstable data
    # semistable split data sits on the boundary Delta = 0 or below
    h = b_zero(3, (2, 2, 0, 0), lines=[(1, 0), (1, 1), None, None])
    assert stability(h) is Stability.STRICTLY_SEMISTABLE
    assert discriminant(h) == 4 * 4 - 16 == 0
    assert bogomolov_ok(h) is True


def test_multifiltration_roundtrip():
    for c in [(1, 6, 6, 0, 0), (0, 0, 0, 0, 0), (2, 1, 1, 0, 0)]:
        f = b_zero(4, c)
        assert from_multifiltration(to_multifiltration(f)) == f
    g = R2Filtration(
        Fan(3),
        (
            RayDatum(-1, 2, (1, 0)),
            RayDatum(0, 3, (1, 1)),
            RayDatum(2, 2, None),
            RayDatum(-4, 0, (1, 2)),
        ),
    )
    assert from_multifiltration(to_multifiltration(g)) == g


@pytest.mark.parametrize("ray_jumps", [(), (((0,), Subspace.line(1, 0)),)])
def test_from_multifiltration_ray_never_reaching_c2(ray_jumps):
    mf = to_multifiltration(b_zero(2, (1, 0, 0)))
    broken = unchecked(mf.fan, {**mf.jumps, (0,): ray_jumps})
    with pytest.raises(ValueError, match=r"^ray 0 never reaches C\^2$"):
        from_multifiltration(broken)
