"""General Chern formula, twist, elementary ratios, identities."""

from __future__ import annotations

import random
from itertools import product
from math import comb, factorial, prod

import pytest

from tsk import chern
from tsk.chern import (
    _grid_flat,
    chern_general,
    ratio_saturated,
    run_factors,
    run_log,
    stirling_A,
    twist_chern,
)
from tsk.fan import Fan
from tsk.linalg import ZERO
from tsk.multifilt import (
    _axes,
    apply_elementary,
    elementary_check,
    eval_jumps,
    factorize,
    reflexive_hull,
)
from tsk.prescribe import (
    build_sequence,
    family_p4_even,
    family_p4_odd,
    family_p5_candidates,
    family_pn,
)
from tsk.reflexive import R2Filtration, RayDatum, Stability, chern_total, to_multifiltration
from tsk.ring import TruncPoly, linear_product, log_coeffs
from tsk.sampling import random_drops, random_reflexive

from oracles import identity_cone_sum, identity_product, ratio_saturated_conewise
from test_multifilt import staircase


def b_zero(n, c):
    return R2Filtration.b_zero_data(Fan(n), c)


def test_stirling_numbers():
    # the alternating table A_{p,k} = (-1)^k k! S(p,k)
    rows = {
        1: (-1,),
        2: (-1, 2),
        3: (-1, 6, -6),
        4: (-1, 14, -36, 24),
        5: (-1, 30, -150, 240, -120),
    }
    for p, row in rows.items():
        assert tuple(stirling_A(p, k) for k in range(1, p + 1)) == row
    # triangularity and the diagonal
    for p in range(1, 6):
        assert stirling_A(p, p) == (-1) ** p * factorial(p)
        for k in range(p + 1, 7):
            assert stirling_A(p, k) == 0
    # S(p,k): the surjections of a p-set onto a k-set, over k!
    for p in range(6):
        for k in range(6):
            onto = sum((-1) ** i * comb(k, i) * (k - i) ** p for i in range(k + 1))
            assert stirling_A(p, k) == (-1) ** k * factorial(k) * (onto // factorial(k))


def test_chern_general_matches_resolution():
    for c in [(1, 6, 6, 0, 0), (1, 1, 1, 0, 0), (2, 1, 1, 1, 0)]:
        f = b_zero(4, c)
        assert chern_general(to_multifiltration(f)) == chern_total(f)


def split_bundle(fan, d1, d2):
    """O(D1) + O(D2), D_i = sum d_i[rho] D_rho, as reflexive data: on
    each ray the summand on the line (1, 0) enters at -d1[rho] and the
    one on (0, 1) at -d2[rho]."""
    rays = []
    for x, y in zip(d1, d2):
        if x == y:
            rays.append(RayDatum(-x, -x))
        else:
            rays.append(RayDatum(-max(x, y), -min(x, y), (1, 0) if x > y else (0, 1)))
    return R2Filtration(fan, rays)


def test_chern_general_line_bundle():
    # c(O(D1) + O(D2)) = (1 + deg D1 H)(1 + deg D2 H), deg D = sum d_rho;
    # on P^5 the 5-cones take all five differencing passes.
    cases = [
        ((2, 0, 0, 0), (0, 0, 0, 0)),
        ((1, -1, 3, 0), (-2, 0, 1, -1)),
        ((-1, -1, 0, 0), (0, 2, -3, 0)),
        ((2, -1, 0, 3, 0, 1), (-1, -1, 0, 0, 2, -3)),
        ((0, -2, 0, -1, 0, 0), (1, 1, 0, 0, 0, 0)),
    ]
    for d1, d2 in cases:
        n = len(d1) - 1
        f = split_bundle(Fan(n), d1, d2)
        expected = TruncPoly(n, (1, sum(d1))) * TruncPoly(n, (1, sum(d2)))
        assert chern_general(to_multifiltration(f)) == expected


def chern_general_per_point(mf):
    """The general formula as written: one factor per grid point, the
    mixed difference taken by pointwise evaluation at integer steps."""
    n = mf.fan.n
    out = TruncPoly(n, (1,))
    for cone in sorted(mf.jumps):
        d = len(cone)
        sign = -1 if (n - d) % 2 else 1
        for coords in product(*_axes(mf.jumps[cone], d)):
            m_box = sum(
                (-1) ** sum(mu)
                * eval_jumps(mf.jumps[cone], tuple(x - s for x, s in zip(coords, mu))).dim
                for mu in product((0, 1), repeat=d)
            )
            if m_box:
                out = out * TruncPoly(n, (1, -sum(coords))).int_pow(sign * m_box)
    return out


def chern_per_cone(mf):
    """The general formula one cone at a time: each cone's own grid, its
    mixed difference by d passes of first differences, the sign
    (-1)^codim on the cone's exponents (2^(n+1) - 2 grids)."""
    n = mf.fan.n
    exps = {}
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
        for coords, x in zip(product(*axes), box):
            if x:
                w = sum(coords)
                exps[w] = exps.get(w, 0) + sign * x
    return linear_product(n, [(-w, x) for w, x in exps.items()])


def test_chern_general_matches_the_per_cone_oracle():
    # Reading every cone off the top cones' grids gives what each
    # cone's own grid gives.
    rng = random.Random(24)
    for n in range(1, 9):
        for _ in range(3 if n > 6 else 6):
            mf = to_multifiltration(random_reflexive(rng, n, max_c=4))
            assert chern_general(mf) == chern_per_cone(mf)
    # Drop chains (torsion-free, not reflexive), their hulls and twists,
    # with coordinates pushed far from the origin.
    dropped = 0
    for i in range(24):
        n = (2, 3, 4, 5)[i % 4]
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        family, applied = random_drops(rng, start, rng.randint(1, 5), range(1, n + 1))
        dropped += len(applied)
        shift = [
            rng.choice((-(10**40), 0, 10**40)) + rng.randint(-3, 3) for _ in range(n + 1)
        ]
        for mf in (family, reflexive_hull(family), family.twist(shift)):
            assert chern_general(mf) == chern_per_cone(mf)
    assert dropped > 24
    for r in (1, 3, 6):
        mf = staircase(r)
        assert chern_general(mf) == chern_per_cone(mf)
    # The paper's families, built one run per stage.
    solutions = [family_pn(n) for n in range(5, 9)]
    p5 = family_p5_candidates(1)["c=120t"]
    assert p5.stability is Stability.STABLE
    solutions += [family_p4_odd(1), family_p4_odd(3), family_p4_even(2), p5]
    for sol in solutions:
        final = build_sequence(sol.problem, sol).final
        assert chern_general(final) == chern_per_cone(final)


def test_chern_general_builds_one_grid_per_top_cone(monkeypatch):
    # n + 1 grids, one per top cone, where one per cone is 2^(n+1) - 2.
    calls = []
    grid_flat = chern._grid_flat
    monkeypatch.setattr(
        chern, "_grid_flat", lambda *args: calls.append(args) or grid_flat(*args)
    )
    rng = random.Random(8)
    for n in range(1, 9):
        mf = to_multifiltration(random_reflexive(rng, n, max_c=3))
        calls.clear()
        chern_general(mf)
        assert len(calls) == n + 1


@pytest.fixture
def grid_calls(monkeypatch):
    """The arguments (jumps, grid) of every `_grid_flat` call in `chern`."""
    calls = []
    grid_flat = chern._grid_flat
    monkeypatch.setattr(
        chern, "_grid_flat", lambda *args: calls.append(args) or grid_flat(*args)
    )
    return calls


def factored_cells(mf, calls):
    """chern_general of mf, the cells of the grids it builds (`calls`
    is the `grid_calls` record, cleared first), and the cells of the
    n + 1 top-cone grids with no axis factored out (each axis above j
    with its infinity)."""
    n = mf.fan.n
    calls.clear()
    c = chern_general(mf)
    unfactored = 0
    for j in range(n + 1):
        axes = _axes(mf.jumps[tuple(ray for ray in range(n + 1) if ray != j)], n)
        unfactored += prod(len(a) + (i >= j) for i, a in enumerate(axes))
    return c, sum(prod(map(len, grid)) for _, grid in calls), unfactored


def test_chern_general_factors_one_coordinate_axes(grid_calls):
    # x != 0: twisted b_zero starts, whose inactive rays sit at their
    # twist, and drop chains on them.  Each start keeps all n + 1 grids,
    # smaller than in full.
    rng = random.Random(31)
    factored_chains = 0
    for i in range(12):
        n = (3, 4, 5)[i % 3]
        c = [rng.randint(1, 3)] + [rng.choice((0, 0, 1, 2)) for _ in range(n)]
        c[rng.randint(1, n)] = 0
        d = [rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(n + 1)]
        start = to_multifiltration(b_zero(n, c)).twist(d)
        family, applied = random_drops(rng, start, rng.randint(1, 4), range(1, n + 1))
        assert applied
        for mf in (start, family):
            chern_c, cells, unfactored = factored_cells(mf, grid_calls)
            assert chern_c == chern_per_cone(mf) == chern_general_per_point(mf)
            factored = len(grid_calls) == n + 1 and cells < unfactored
            if mf is start:
                assert factored
            else:
                factored_chains += factored
    assert factored_chains >= 6
    # x = 0: the built family_pn finals skip the top cones with an
    # inactive ray above j.
    for n in (4, 5, 6):
        sol = family_pn(n)
        final = build_sequence(sol.problem, sol).final
        chern_c, cells, unfactored = factored_cells(final, grid_calls)
        assert chern_c == sol.chern == chern_per_cone(final)
        if n < 6:  # the per-point product takes 0.7 s at n = 6
            assert chern_c == chern_general_per_point(final)
        assert len(grid_calls) < n + 1 and cells < unfactored


def test_chern_general_cell_count_on_the_built_family_pn8(grid_calls):
    # A machine-independent cost: 3888 cells in 1 grid, where the n + 1
    # top-cone grids in full hold 11920 cells in 9 grids.
    sol = family_pn(8)
    final = build_sequence(sol.problem, sol).final
    chern_c, cells, unfactored = factored_cells(final, grid_calls)
    assert chern_c == sol.chern
    assert unfactored == 11920
    assert len(grid_calls) <= 1 and cells <= 3888


def test_chern_general_matches_per_point_product():
    # Non-reflexive families, where chern_general is the only engine.
    rng = random.Random(5)
    dropped = 0
    for i in range(20):
        n = (2, 3, 4)[i % 3]
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        family, applied = random_drops(rng, start, rng.randint(1, 4), range(1, n + 1))
        dropped += len(applied)
        assert chern_general(family) == chern_general_per_point(family)
    assert dropped > 0
    # P^5 drop families with drops on cones of every dimension 1-5.
    rng = random.Random(5)
    drop_dims = set()
    for dims in (range(1, 6), (4, 5), (5,), range(1, 6), (5,), (3, 4, 5)):
        start = to_multifiltration(random_reflexive(rng, 5, max_c=2))
        family, applied = random_drops(rng, start, 3, dims)
        drop_dims.update(len(cone) for cone, _ in applied)
        assert chern_general(family) == chern_general_per_point(family)
    assert drop_dims == {1, 2, 3, 4, 5}
    # The first 20 reflexive instances of acceptance criterion 1.
    rng = random.Random(20260819)
    for i in range(20):
        mf = to_multifiltration(random_reflexive(rng, (3, 4, 5)[i % 3], max_c=6))
        assert chern_general(mf) == chern_general_per_point(mf)
    # P^1, where the top cones are the rays.
    rng = random.Random(1)
    dropped = 0
    for _ in range(6):
        start = to_multifiltration(random_reflexive(rng, 1, max_c=3))
        family, applied = random_drops(rng, start, rng.randint(1, 3), (1,))
        dropped += len(applied)
        for mf in (start, family):
            assert chern_general(mf) == chern_general_per_point(mf)
    assert dropped > 0


def test_twist_chern():
    n = 4
    f = b_zero(n, (1, 6, 6, 0, 0))
    c = chern_total(f)
    # rank-2 twist: c1 += 2m, c2 += m*c1 + m^2, etc.
    cm = twist_chern(c, 3)
    assert cm[1] == c[1] + 6
    assert cm[2] == c[2] + 3 * c[1] + 9
    # twisting back is the identity
    assert twist_chern(cm, -3) == c
    # O(5) (+) O: (1 + 5H) -> (1 + 3H)(1 - 2H)
    assert twist_chern(TruncPoly(3, (1, 5)), -2) == TruncPoly(3, (1, 3)) * TruncPoly(3, (1, -2))


def test_twist_keeps_c3_in_rank_2():
    # The H^3 coefficient of sum_k c_k H^k (1 + tH)^(2-k) is c_3, which
    # is why obstruction_verdict reads c_3 untwisted.
    rng = random.Random(33)
    for n in range(3, 7):
        for _ in range(25):
            c = TruncPoly(n, [1] + [rng.randint(-60, 60) for _ in range(n)])
            t = rng.randint(-30, 30)
            assert twist_chern(c, t)[3] == c[3]


def test_twist_chern_matches_twisted_drop_chains():
    # c(E(d)) from the twisted family equals the rank-2 twist of c(E) by
    # deg O(sum d_rho D_rho) = sum d, on torsion-free (non-reflexive) E.
    rng = random.Random(15)
    dropped = 0
    for i in range(40):
        n = (2, 3, 4)[i % 3]
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        family, applied = random_drops(rng, start, rng.randint(1, 3), range(1, n + 1))
        dropped += len(applied)
        d = [rng.randint(-3, 3) for _ in range(n + 1)]
        assert chern_general(family.twist(d)) == twist_chern(chern_general(family), sum(d))
    assert dropped > 0


def single_drop(n=4, c=(1, 6, 6, 0, 0), sigma0=(0, 1, 2), m0=(-1, 0, 0)):
    """The first scheduled drop of the running example, verified."""
    start = to_multifiltration(b_zero(n, c))
    dropped = apply_elementary(start, sigma0, m0, ZERO)
    return elementary_check(dropped, start)


def test_ratio_saturated_oracle():
    inj = single_drop()
    ratio = chern_general(inj.f) * chern_general(inj.e).inverse()
    assert ratio == ratio_saturated(inj.k0, inj.m_Sigma, 4)
    assert ratio == ratio_saturated_conewise(inj)
    with pytest.raises(ValueError):
        ratio_saturated(0, 0, 4)
    with pytest.raises(ValueError):
        ratio_saturated(5, 0, 4)


def test_ratio_run_telescopes():
    n = 5
    for k0 in (2, 3, 4):
        for start in (-3, 0, 2):
            for count in (0, 1, 4):
                expanded = TruncPoly(n, (1,))
                for j in range(count):
                    expanded = expanded * ratio_saturated(k0, start + j, n)
                assert linear_product(n, run_factors(k0, start, count)) == expanded
    # astronomically long runs stay O(1) and split at any point
    half = 5 * 10**11
    big = linear_product(n, run_factors(3, 0, 2 * half))
    assert big[0] == 1
    assert big == linear_product(n, run_factors(3, 0, half) + run_factors(3, half, half))
    # run_log reads the same edge form's integer log coefficients
    for k0 in range(1, n + 1):
        for start in (-4, 0, 3):
            for count in (0, 1, 5):
                s = log_coeffs(linear_product(n, run_factors(k0, start, count)).coeffs)
                for q in range(1, n + 1):
                    assert run_log(q, k0, start, count) == s[q], (q, k0, start, count)
    for k0, q in product(range(1, n + 1), repeat=2):
        for start in (-half, 0, 7):
            assert run_log(q, k0, start, 2 * half) == (
                run_log(q, k0, start, half) + run_log(q, k0, start + half, half)
            )


def test_chern_is_multiplicative_along_factorized_chains():
    # c(E) times the closed ratio c(F)/c(E) of every saturated step of
    # the factorization is c(start).
    rng = random.Random(11)
    saturated = 0
    for i in range(40):
        n = (3, 4, 5)[i % 3]
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        dims = rng.sample(range(1, n + 1), rng.randint(1, n))
        family, _ = random_drops(rng, start, rng.randint(1, 5), dims)
        steps = factorize(family, start)
        if not steps or not all(s.saturated for s in steps):
            continue
        saturated += 1
        c = chern_general(family)
        for s in steps:
            c = c * ratio_saturated(s.k0, s.m_Sigma, n)
        assert c == chern_general(start)
    assert saturated >= 10


def log_ratio_saturated(k0, m_sigma, n):
    """The integer log coefficients s_k = k [H^k] log of ratio_saturated:

        log = - sum_{k=k0}^n ( sum_{l=k0}^k C(k,l) A_{l,k0} m_Sigma^{k-l} ) H^k / k
    """
    s = [0] * (n + 1)
    for k in range(k0, n + 1):
        s[k] = -sum(
            comb(k, l) * stirling_A(l, k0) * m_sigma ** (k - l)
            for l in range(k0, k + 1)
        )
    return s


def log_ratio_leading(inj):
    """The two leading log coefficients s_k = k [H^k] log(c(F)/c(E)) of an
    elementary injection (saturation not required), from

        [H^k0]     log = (-1)^{k0-1} (k0-1)!
        [H^{k0+1}] log = -(A_{k0,k0} m_Sigma + A_{k0+1,k0}/(k0+1)).
    """
    k0 = inj.k0
    lead = (-1) ** (k0 - 1) * factorial(k0)
    after = -((k0 + 1) * stirling_A(k0, k0) * inj.m_Sigma + stirling_A(k0 + 1, k0))
    return lead, after


def test_log_ratio():
    n = 5
    for k0, m in [(2, -1), (3, 0), (4, 7)]:
        assert log_ratio_saturated(k0, m, n) == log_coeffs(ratio_saturated(k0, m, n).coeffs)
    inj = single_drop()
    lead, after = log_ratio_leading(inj)
    s = log_coeffs((chern_general(inj.f) * chern_general(inj.e).inverse()).coeffs)
    assert s[inj.k0] == lead == (-1) ** (inj.k0 - 1) * factorial(inj.k0)
    assert s[inj.k0 + 1] == after


def test_identity_product():
    for n in range(2, 6):
        for d in range(2, n + 1):
            for a in (-3, 0, 2):
                for m in (-2, 0, 3):
                    assert identity_product(a, m, d, n)
    with pytest.raises(ValueError):
        identity_product(0, 0, 1, 3)


def test_identity_cone_sum():
    rng = random.Random(7)
    for n in (3, 4):
        fan = Fan(n)
        for sigma0 in fan.all_cones(min_dim=1):
            m_rho = [rng.randint(-4, 4) for _ in range(n + 1)]
            for p in range(fan.codim(sigma0) + 1):
                assert identity_cone_sum(fan, sigma0, m_rho, p)
    with pytest.raises(ValueError):
        identity_cone_sum(Fan(3), (0, 1), [1, 1, 1, 1], 3)  # p > codim
