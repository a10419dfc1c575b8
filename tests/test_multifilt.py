"""Multifiltrations: families, elementary injections, factorization."""

from __future__ import annotations

import json
import random
import re
import signal
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from tsk import chern, cli, multifilt
from tsk.chern import _grid_flat, _runs, chern_general
from tsk.documents import SheafDocument, dump_document, load_document
from tsk.fan import Fan
from tsk.linalg import FULL, ZERO, Subspace
from tsk.multifilt import (
    ElementaryInjection,
    InvalidFamily,
    Multifiltration,
    NotElementary,
    _axes,
    _canonical_jumps,
    _cells,
    _checked_cells,
    _checked_drop,
    _coface_plan,
    _meet_box,
    _meet_unit,
    _value_and_below,
    apply_elementary,
    apply_run,
    drop,
    drop_counts,
    drop_profile,
    elementary_check,
    eval_jumps,
    factorize,
    is_contained,
    is_reflexive,
    recompose,
    reflexive_hull,
)
from tsk.obstruct import torsion_profile
from tsk.prescribe import build_sequence, family_p4_odd, family_pn
from tsk.reflexive import R2Filtration, RayDatum, from_multifiltration, to_multifiltration
from tsk.sampling import random_drops, random_reflexive, random_semistable

from drop_oracle import (
    _canonical_flat,
    grid_cells,
    grid_drop,
    grid_hull,
    grid_meet,
    replay_drops,
    rescan_factorize,
    unchecked,
    widened_axes,
)
from oracles import (
    INFINITY,
    delta,
    random_b_zero,
    ratio_saturated_conewise,
    walk_and_all_edges,
)


def start_family(n=4, c=(1, 6, 6, 0, 0)):
    return to_multifiltration(R2Filtration.b_zero_data(Fan(n), c))


def assert_valid_and_canonical(mf):
    """Families tsk builds without checking must pass the check and
    carry canonical lists, so that == stays a list comparison."""
    mf.validate()
    assert set(mf.jumps) == set(mf.fan.all_cones(min_dim=1))
    for jumps in mf.jumps.values():
        assert _canonical_jumps.__wrapped__(jumps) == jumps
    assert Multifiltration(mf.fan, mf.jumps).jumps == mf.jumps


def test_construction_and_canonical_jumps():
    mf = start_family()
    # all cones of dim >= 1 carry a jump list
    assert set(mf.jumps) == set(mf.fan.all_cones(min_dim=1))
    # equality and hashing are structural
    assert mf == start_family()
    assert hash(mf) == hash(start_family())
    assert mf != start_family(c=(1, 6, 5, 0, 0))
    with pytest.raises(AttributeError):
        mf.fan = Fan(3)
    with pytest.raises(InvalidFamily):
        Multifiltration(Fan(2), {(0, 1, 2): ()})  # not a cone
    with pytest.raises(InvalidFamily):
        # wrong arity of a jump class
        Multifiltration(Fan(2), {(0,): (((0, 0), FULL),)})
    with pytest.raises(InvalidFamily, match="not a subspace of C\\^2"):
        Multifiltration(Fan(2), {(0,): (((0,), (1, 0)),)})


def test_evaluate():
    mf = start_family()
    # the zero cone always evaluates to C^2
    assert mf.evaluate((), ()) == FULL
    # ray 1 has a = -6, b = 0, line (1,1)
    assert mf.evaluate((1,), (-7,)) == ZERO
    assert mf.evaluate((1,), (-6,)) == Subspace.line(1, 1)
    assert mf.evaluate((1,), (-1,)) == Subspace.line(1, 1)
    assert mf.evaluate((1,), (0,)) == FULL
    assert mf.evaluate((1,), (99,)) == FULL
    # a 2-cone: meet of two distinct lines is zero below the joint level
    assert mf.evaluate((1, 2), (-1, -1)) == ZERO
    assert mf.evaluate((1, 2), (0, -1)) == Subspace.line(1, 2)
    assert mf.evaluate((1, 2), (0, 0)) == FULL
    with pytest.raises(ValueError):
        mf.evaluate((0, 1), (0,))
    with pytest.raises(ValueError):
        mf.evaluate((9,), (0,))


def test_evaluate_takes_integer_classes_only():
    # Only integer classes have a value: on ray 0 the class (0.5,) must
    # not read as (1,) (FULL), nor (-0.5,) as (0,) (a line).
    mf = start_family()
    for mu in ((0.5,), (-0.5,), (Fraction(1, 2),), (1.0,)):
        with pytest.raises(TypeError):
            mf.evaluate((0,), mu)
    with pytest.raises(TypeError):
        mf.evaluate((0, 1), (0, 0.5))
    with pytest.raises(TypeError):
        mf.evaluate((), (0.5,))


def random_jump_list(rng, d):
    """Up to six jumps on a small box, so coordinates and points repeat."""
    values = [ZERO, FULL] + [Subspace.line(1, k) for k in range(3)]
    return tuple(
        (tuple(rng.randint(-2, 2) for _ in range(d)), rng.choice(values))
        for _ in range(rng.randint(0, 6))
    )


def grid_values(jumps, axes):
    """The values of `_grid_flat`, keyed by grid point in row-major order."""
    return dict(zip(product(*axes), _grid_flat(jumps, axes)[0]))


def test_grid_kernel_matches_pointwise_evaluation():
    rng = random.Random(404)
    seen_empty = False
    for case in range(160):
        d = rng.randint(1, 4)
        jumps = () if case == 0 else random_jump_list(rng, d)
        seen_empty = seen_empty or not jumps
        extra = [
            {rng.randint(-4, 4) for _ in range(rng.randint(0, 2))} for _ in range(d)
        ]
        axes = widened_axes(jumps, d, extra)
        values = grid_values(jumps, axes)
        assert list(values) == list(product(*axes))
        for g, v in values.items():
            assert v is eval_jumps(jumps, g)

        # Canonical jumps by their definition: the points whose value is
        # not inside the join of the values one step below on each axis.
        expected = []
        for g in product(*_axes(jumps, d)):
            v = eval_jumps(jumps, g)
            below = ZERO
            for i in range(d):
                below = below.join(eval_jumps(jumps, g[:i] + (g[i] - 1,) + g[i + 1 :]))
            if v.dim > 0 and not v <= below:
                expected.append((g, v))
        assert _canonical_jumps.__wrapped__(jumps) == tuple(sorted(expected))
        # ... and on the grid widened by the extra coordinates.
        flat, strides = _grid_flat(jumps, axes)
        assert _canonical_flat(axes, flat, strides) == tuple(sorted(expected))
    assert seen_empty
    with pytest.raises(TypeError):
        grid_values((((0,), (1, 0)),), [[0]])


def test_runs_cover_each_block_in_offsets_order():
    # Every b + r exactly once, b a block's start and r in `offsets`, in
    # `offsets`' order within each block: ascending and descending
    # offsets, either loop outside, and the empty grid.
    outer = set()
    for size, block in ((12, 12), (12, 6), (12, 4), (24, 3), (24, 2), (7, 1), (1, 1)):
        for lo in range(block + 1):
            for hi in range(lo, block + 1):
                for offsets in (range(lo, hi), range(hi - 1, lo - 1, -1)):
                    runs = list(_runs(size, block, offsets))
                    assert all(isinstance(run, range) for run in runs)
                    flat = [k for run in runs for k in run]
                    for b in range(0, size, block):
                        assert [k for k in flat if k - k % block == b] == [
                            b + r for r in offsets
                        ]
                    assert len(flat) == len(offsets) * (size // block)
                    outer.add(block * block < size)
    assert outer == {True, False}
    assert list(_runs(0, 0, range(0, 0))) == []
    assert list(_runs(0, 0, range(-1, -1, -1))) == []


def test_canonical_jumps_matches_the_grid_definition():
    # The scan against its definition, the canonical list read off the
    # grid over the list's own coordinates.  Boxes shrink with d so the
    # grid stays small; the lists are unsorted, repeat coordinates and
    # carry ZERO and FULL values.
    rng = random.Random(18)
    values = [ZERO, FULL] + [Subspace.line(1, k) for k in range(3)]
    width = {1: 40, 2: 12, 3: 6, 4: 4, 5: 3}
    kept = 0
    for case in range(400):
        d = case % 5 + 1
        w = rng.randint(1, width[d])
        jumps = tuple(
            (tuple(rng.randint(-w, w) for _ in range(d)), rng.choice(values))
            for _ in range(0 if case < 5 else rng.randint(1, 40))
        )
        axes = _axes(jumps, d)
        expected = _canonical_flat(axes, *_grid_flat(jumps, axes))
        assert _canonical_jumps.__wrapped__(jumps) == expected
        kept += len(expected)
    assert kept > 1000
    # two lines at one class join to FULL there
    lines = (((1, 0), Subspace.line(1, 0)), ((0, 1), FULL), ((1, 0), Subspace.line(1, 1)))
    assert _canonical_jumps.__wrapped__(lines) == (((0, 1), FULL), ((1, 0), FULL))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_run_built_families_are_canonical(n):
    # The paper's run-built P^6..P^8 sheaves, whose coordinates reach
    # 10^76, keep their lists under the scan and read back from their
    # documents.
    sol = family_pn(n)
    final = build_sequence(sol.problem, sol).final
    for jumps in final.jumps.values():
        assert _canonical_jumps.__wrapped__(jumps) == jumps
    text = dump_document(SheafDocument("multifiltration", final))
    assert load_document(text).payload == final


def test_validate_catches_broken_families():
    fan = Fan(2)
    full, l1 = FULL, Subspace.line(1, 0)
    # deep value never reaches C^2 on ray 0
    with pytest.raises(InvalidFamily):
        Multifiltration(
            fan,
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
            {
                (0,): (((0,), full),),
                (1,): (((-1,), l1), ((0,), full)),
                (2,): (((0,), full),),
                (0, 1): (((0, 0), full),),
                (0, 2): (((0, 0), full),),
                (1, 2): (((0, 0), full),),
            },
        )
    # l1 from class 0 on, on every cone: facet compatible, but the deep
    # value is l1 everywhere, which the top cones show
    with pytest.raises(InvalidFamily, match=r"deep value at cone \(0, 1\)"):
        Multifiltration(fan, {c: (((0,) * len(c), l1),) for c in fan.all_cones(min_dim=1)})


def pointwise_axioms_hold(mf):
    """The axioms by their definition: the deep value of every cone is
    C^2, and every facet agrees pointwise with the cone stabilized one
    step past its deepest coordinate on the dropped ray."""
    for cone, jumps in mf.jumps.items():
        beyond = tuple(
            1 + max((c[i] for c, _ in jumps), default=0) for i in range(len(cone))
        )
        if eval_jumps(jumps, beyond) is not FULL:
            return False
        if len(cone) == 1:
            continue  # the facet is the zero cone: the deep value above
        for pos in range(len(cone)):
            facet = cone[:pos] + cone[pos + 1 :]
            jumps_tau = mf.jumps[facet]
            joint = [
                sorted(
                    {c[i] for c, _ in jumps_tau}
                    | {c[i + (i >= pos)] for c, _ in jumps}
                )
                for i in range(len(facet))
            ]
            for mu in product(*joint):
                lifted = mu[:pos] + (beyond[pos],) + mu[pos:]
                if eval_jumps(jumps, lifted) != eval_jumps(jumps_tau, mu):
                    return False
    return True


def perturbed_jumps(rng, mf):
    """mf's lists with one jump of one cone moved by one step or given
    another value."""
    cone = rng.choice([c for c in mf.jumps if mf.jumps[c]])
    jumps = list(mf.jumps[cone])
    i = rng.randrange(len(jumps))
    coords, w = jumps[i]
    if rng.random() < 0.5:
        axis = rng.randrange(len(coords))
        moved = coords[axis] + rng.choice((-1, 1))
        coords = coords[:axis] + (moved,) + coords[axis + 1 :]
    else:
        w = rng.choice([FULL] + [Subspace.line(1, k) for k in range(4)])
    jumps[i] = (coords, w)
    return {**mf.jumps, cone: jumps}


def perturbed(rng, mf):
    """mf with one jump perturbed, canonicalized and not validated."""
    return unchecked(mf.fan, perturbed_jumps(rng, mf))


def test_validate_matches_pointwise_facet_axiom():
    # At n = 5 the walk checks 71 of the 180 facet edges, and most cones
    # under one coface only: perturbing one cone's list must still be
    # refused exactly when the family breaks the axioms.
    rng = random.Random(2024)
    outcomes = {True: 0, False: 0}
    for _ in range(30):
        n = rng.choice((2, 3, 4, 5))
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        dims = tuple(range(1, n + 1))
        family, _ = random_drops(rng, start, rng.randint(0, 3), dims)
        assert pointwise_axioms_hold(family)
        family.validate()
        for _ in range(4):
            candidate = perturbed(rng, family)
            expected = pointwise_axioms_hold(candidate)
            try:
                candidate.validate()
                accepted = True
            except InvalidFamily:
                accepted = False
            assert accepted == expected
            outcomes[accepted] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_constructor_matches_the_all_edges_oracle():
    # The constructor's walk and the check of every facet edge accept the
    # same one-jump perturbations of drop chains on P^2..P^5, with the same
    # canonical lists, and refuse the same ones.
    rng = random.Random(4040)
    outcomes = Counter()
    for n in (2, 3, 4, 5):
        for _ in range(8):
            start = to_multifiltration(random_reflexive(rng, n, max_c=3))
            family, _ = random_drops(rng, start, rng.randint(0, 4), tuple(range(1, n + 1)))
            for _ in range(5):
                walk, all_edges = walk_and_all_edges(family.fan, perturbed_jumps(rng, family))
                assert walk == all_edges
                outcomes[n, walk is not InvalidFamily] += 1
    assert all(outcomes[n, ok] for n in (2, 3, 4, 5) for ok in (True, False)), outcomes


def test_families_and_twists_take_integer_coordinates():
    # A float copy of a family would compare and hash equal to it, and
    # then fail in chern_general: the constructor and twist refuse it.
    f = start_family()
    floats = {
        cone: [(tuple(map(float, coords)), w) for coords, w in jumps]
        for cone, jumps in f.jumps.items()
    }
    with pytest.raises(TypeError):
        Multifiltration(f.fan, floats)
    with pytest.raises(TypeError):
        f.twist((0.5, 0, 0, 0, 0))
    # coordinates given as lists of ints keep working
    as_lists = {cone: [(list(c), w) for c, w in jumps] for cone, jumps in f.jumps.items()}
    assert Multifiltration(f.fan, as_lists) == f
    assert f.twist([0, 0, 0, 0, 0]) == f


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


def line_bundle_pair(fan, d):
    """O(D) + O(D), D = sum d_rho D_rho: C^2 from -d_rho on each ray."""
    return to_multifiltration(R2Filtration(fan, [RayDatum(-x, -x) for x in d]))


def test_line_bundle():
    # O(D) + O(D) is one jump to C^2 per cone, at -d on the cone's rays,
    # and it is the twist of the trivial bundle by D.
    lb = line_bundle_pair(Fan(3), (2, 0, -1, 0))
    assert lb.evaluate((0,), (-2,)) is FULL
    assert lb.evaluate((0,), (-3,)) is ZERO
    assert lb.evaluate((2,), (0,)) is ZERO
    assert lb.evaluate((2,), (1,)) is FULL
    assert lb.evaluate((0, 2), (-2, 1)) is FULL
    assert lb.evaluate((0, 2), (-2, 0)) is ZERO
    rng = random.Random(64)
    for n in (2, 3, 4, 5):
        fan = Fan(n)
        d = tuple(rng.randint(-3, 3) for _ in range(n + 1))
        lb = line_bundle_pair(fan, d)
        assert_valid_and_canonical(lb)
        assert lb == line_bundle_pair(fan, (0,) * (n + 1)).twist(d)
        for cone, jumps in lb.jumps.items():
            assert jumps == ((tuple(-d[ray] for ray in cone), FULL),)


def test_reflexive_hull_fixes_reflexive_families():
    mf = start_family()
    assert is_reflexive(mf)
    assert reflexive_hull(mf) == mf


def product_point_hull(mf):
    """The hull by its definition: the meet of the ray values at every
    point of the product of the ray levels, canonicalized by the
    constructor."""
    hull = {}
    for cone in mf.fan.all_cones(min_dim=1):
        hull[cone] = []
        for point in product(*(mf.jumps[(ray,)] for ray in cone)):
            v = FULL
            for _, w in point:
                v = v.meet(w)
            hull[cone].append((tuple(c[0] for c, _ in point), v))
    return Multifiltration(mf.fan, hull)


def test_reflexive_hull_matches_the_product_points():
    rng = random.Random(67)
    families = [line_bundle_pair(Fan(3), (1, -2, 0, 3))]
    for n in (2, 3, 4, 5):
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        families += [start, random_drops(rng, start, 6, range(1, n + 1))[0]]
    for _, e, _, _ in seeded_drops(random.Random(68)):
        families.append(e)
    for mf in families:
        hull = reflexive_hull(mf)
        assert hull == product_point_hull(mf)
        assert_valid_and_canonical(hull)
    assert sum(reflexive_hull(mf) != mf for mf in families) > len(families) // 2


def ray_data_family(rng, n, lines, inactive=0.0, shift=0):
    """The family of random ray data on P^n: each ray inactive (a = b)
    with probability `inactive`, else a < b on a line drawn from
    `lines`, every coordinate moved by `shift`."""
    data = []
    for _ in range(n + 1):
        a = shift + rng.randint(-4, 4)
        if rng.random() < inactive:
            data.append(RayDatum(a, a))
        else:
            data.append(RayDatum(a, a + rng.randint(1, 4), rng.choice(lines)))
    return to_multifiltration(R2Filtration(Fan(n), tuple(data)))


def test_hull_matches_the_grid_oracle():
    # The list meet against the meet grids, per category of ray data.
    rng = random.Random(23)
    one, three = [(1, 0)], [(1, 0), (0, 1), (1, 1)]

    def start_of(n):
        return to_multifiltration(random_reflexive(rng, n, 3))

    categories = {
        "generic": [
            to_multifiltration(random_reflexive(rng, n, 4))
            for n in range(1, 9)
            for _ in range(3)
        ],
        "one line": [ray_data_family(rng, n, one) for n in range(1, 9)],
        "few lines, inactive rays": [
            ray_data_family(rng, n, three, inactive=0.3) for n in range(2, 9)
        ],
        "coordinates of 10^40": [
            ray_data_family(rng, n, three, inactive=0.2, shift=s * 10**40)
            for n in range(2, 7)
            for s in (1, -1)
        ],
        "drop chains": [
            random_drops(rng, start_of(n), 8, range(1, n + 1))[0]
            for n in (2, 3, 4, 5)
            for _ in range(3)
        ],
        "run-built": [
            build_sequence(sol.problem, sol).final
            for sol in (family_pn(n) for n in (5, 6, 7, 8))
        ],
    }
    for name, families in categories.items():
        for mf in families:
            hull = reflexive_hull(mf)
            assert hull == grid_hull(mf), name
            assert reflexive_hull(hull) == hull, name
    # the torsion-free families are not their own hulls
    assert sum(reflexive_hull(mf) != mf for mf in categories["drop chains"]) > 6
    assert sum(reflexive_hull(mf) != mf for mf in categories["run-built"]) == 4


def closed_form_data(rng):
    """Ray data for the hull's closed form: the three samplers on P^1 to
    P^8, and per n the edge cases: every ray inactive, every active ray
    on one line, and lines in descending pair order (so that their first
    appearance is not their sort order) at coordinates of +-10^40."""
    data = []
    for n in range(1, 9):
        fan = Fan(n)
        data += [
            random_reflexive(rng, n, 4),
            random_b_zero(rng, n, 4),
            random_semistable(rng, n, 4),
            R2Filtration(fan, [RayDatum(x, x) for x in rng.choices(range(-3, 4), k=n + 1)]),
            R2Filtration(
                fan,
                [RayDatum(-c, 0, (2, 3) if c else None) for c in rng.choices(range(3), k=n + 1)],
            ),
        ]
        for s in (10**40, -(10**40)):
            rays = []
            for i in range(n + 1):
                a = s + rng.randint(-3, 3)
                rays.append(RayDatum(a, a + rng.randint(0, 3), (1, n - i % 3)))
            data.append(R2Filtration(fan, rays))
    return data


def test_hull_closed_form_is_the_canonical_family():
    # Each cone's list comes straight from the ray ends, with no sort and
    # no canonicalization: it must already be canonical, pass the
    # constructor's validation unchanged, and be the hull of the ray
    # lists alone.
    for f in closed_form_data(random.Random(71)):
        mf = to_multifiltration(f)
        for jumps in mf.jumps.values():
            assert _canonical_jumps.__wrapped__(jumps) == jumps
        assert Multifiltration(f.fan, mf.jumps) == mf
        rays = {
            (i,): [((x,), r.value_at(x)) for x in sorted({r.a, r.b})]
            for i, r in enumerate(f.rays)
        }
        assert reflexive_hull(unchecked(f.fan, rays)) == mf
        assert from_multifiltration(mf) == f


def test_drop_chains_lie_in_their_hull():
    rng = random.Random(72)
    for n in (1, 2, 3, 4, 5):
        for _ in range(3):
            start = to_multifiltration(random_reflexive(rng, n, max_c=3))
            e, _ = random_drops(rng, start, 6, range(1, n + 1))
            hull = reflexive_hull(e)
            assert is_contained(e, hull)
            assert_valid_and_canonical(hull)


@pytest.mark.parametrize(
    "ray_jumps, message",
    [
        ((((0,), Subspace.line(1, 0)),), "never reaches C\\^2"),
        ((), "never reaches C\\^2"),
        ((((0,), FULL), ((1,), FULL)), "filtration is not reflexive rank-2 data"),
    ],
    ids=["one-line", "empty", "two-full"],
)
def test_hull_rejects_ray_lists_that_are_no_ray_data(ray_jumps, message):
    # Ray lists that are no rank-2 ray data (possible only in lists wrapped
    # unchecked) have no hull: the hull names the ray instead of returning
    # what is no family.
    fan = Fan(2)
    rays = {(0,): ray_jumps, (1,): (((0,), FULL),), (2,): (((0,), FULL),)}
    if len(ray_jumps) < 2:
        broken = unchecked(fan, rays)
    else:  # canonicalizing would take the list away
        broken = Multifiltration._canonical(fan, rays)
    with pytest.raises(InvalidFamily, match=f"^ray 0 {message}$"):
        reflexive_hull(broken)
    with pytest.raises(InvalidFamily, match=f"^ray 0 {message}$"):
        from_multifiltration(broken)


def test_apply_elementary_basic():
    mf = start_family()
    dropped = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), ZERO)
    assert dropped != mf
    assert not is_reflexive(dropped)
    assert reflexive_hull(dropped) == mf
    assert is_contained(dropped, mf)
    # the drop is local: rays unchanged
    for ray in mf.fan.rays:
        assert dropped.jumps[(ray,)] == mf.jumps[(ray,)]
    # the dropped class now evaluates to the target
    assert dropped.evaluate((0, 1, 2), (-1, 0, 0)) == ZERO
    assert mf.evaluate((0, 1, 2), (-1, 0, 0)).dim == 1


def test_apply_elementary_preconditions():
    # drop and apply_elementary share one checked rewrite: each broken
    # precondition raises the same ValueError, word for word.
    cases = [
        # m0 not minimal: the value at (0, 0, 0) is C^2 and the values
        # strictly below it join to C^2, which no line holds
        ((0, 1, 2), (0, 0, 0), Subspace.line(1, 0), "monotonicity violated"),
        ((0, 1, 2), (0, 0, 0), ZERO.join(Subspace.line(1, 5)), "monotonicity violated"),
        ((0, 0), (0, 0), ZERO, "is not a cone of dimension >= 1"),
        # the value at (-1, 0, 0) is a line, which C^2 does not lie in
        ((0, 1, 2), (-1, 0, 0), FULL, "is not a hyperplane of"),
    ]
    mf = start_family()
    for sigma0, m0, target, text in cases:
        messages = []
        for take in (drop, apply_elementary):
            with pytest.raises(ValueError, match=text) as info:
                take(mf, sigma0, m0, target)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def test_apply_elementary_is_the_family_of_drop():
    # apply_elementary derives no invariants, and its family is drop's,
    # along seeded drop chains on P^1..P^5 over every cone dimension.
    rng = random.Random(2929)
    seen = set()
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            f = to_multifiltration(random_reflexive(rng, n, max_c=3))
            for k in [*range(1, n + 1)] * 2:
                e, applied = random_drops(rng, f, 1, (k,))
                for sigma0, m0 in applied:
                    target = e.evaluate(sigma0, m0)
                    assert apply_elementary(f, sigma0, m0, target) == e
                    assert drop(f, sigma0, m0, target).e == e
                    seen.add((n, len(sigma0)))
                f = e
    assert seen == {(n, k) for n in range(1, 6) for k in range(1, n + 1)}


def test_drops_and_runs_take_integer_classes():
    # Arithmetic stays exact: a float coordinate or count is a TypeError,
    # not a float written into the lists or the invariants.
    f = start_family()
    for take in (drop, apply_elementary):
        with pytest.raises(TypeError):
            take(f, (0, 1, 2), (-1.0, 0, 0), ZERO)
    with pytest.raises(TypeError):
        apply_run(f, (0, 1, 2), (-1.0, 0, 0), 1)
    with pytest.raises(TypeError):
        apply_run(f, (0, 1, 2), (-1, 0, 0), 1.5)
    # classes given as lists of ints keep working
    assert drop(f, [0, 1, 2], [-1, 0, 0], ZERO).m0 == (-1, 0, 0)
    assert apply_run(f, (0, 1, 2), [-1, 0, 0], 1) == apply_elementary(
        f, (0, 1, 2), (-1, 0, 0), ZERO
    )


def test_coface_plan_is_the_cofaces_with_sigma0_positions():
    # For every cone of P^1..P^8: the cofaces in (dim, lex) order, where
    # sigma0's rays sit in each, and the other rays with their positions.
    for n in range(1, 9):
        fan = Fan(n)
        for sigma0 in fan.all_cones(min_dim=1):
            plan = _coface_plan(fan, sigma0)
            assert [tau for tau, _, _ in plan] == fan.cofaces(sigma0)
            for tau, pos, new in plan:
                assert tuple(tau[p] for p in pos) == sigma0
                assert new == tuple((p, r) for p, r in enumerate(tau) if r not in sigma0)
            assert _coface_plan(fan, sigma0) is plan


def test_elementary_check_invariants():
    mf = start_family()
    sigma0, m0 = (0, 1, 2), (-1, 0, 0)
    e = apply_elementary(mf, sigma0, m0, ZERO)
    inj = elementary_check(e, mf)
    assert inj.k0 == 3
    assert inj.sigma0 == sigma0
    assert inj.m0 == m0
    assert inj.dropped == ZERO
    assert inj.saturated
    # ray weights: <m0, u_rho> on sigma0's rays, thresholds elsewhere
    assert inj.m_rho[0] == -1 and inj.m_rho[1] == 0 and inj.m_rho[2] == 0
    assert inj.m_Sigma == sum(inj.m_rho.values())
    with pytest.raises(NotElementary):
        elementary_check(mf, mf)
    with pytest.raises(NotElementary):
        # two drops are not elementary
        e2 = apply_elementary(e, (0, 1, 3), (-1, 0, 0), ZERO)
        elementary_check(e2, mf)


def reference_invariants(inj):
    """(m_sigma, m_rho, m_Sigma, saturated) of a drop, read off the joint
    E/F grids of every proper coface straight from their definitions,
    independently of how `drop` derives them."""
    e, f, sigma0, m0 = inj.e, inj.f, inj.sigma0, inj.m0
    a_ray, m_sigma, saturated = {}, {sigma0: m0}, True
    for cone in f.fan.cofaces(sigma0)[1:]:
        pos0 = [cone.index(r) for r in sigma0]
        new = [(p, r) for p, r in enumerate(cone) if r not in sigma0]
        extra = [set() for _ in cone]
        for p, b in zip(pos0, m0):
            extra[p].update((b, b + 1))
        for p, r in new:
            extra[p].update([a_ray[r]] if r in a_ray else [])
        axes = widened_axes(e.jumps[cone] + f.jumps[cone], len(cone), extra)
        ve = grid_values(e.jumps[cone], axes)
        vf = grid_values(f.jumps[cone], axes)
        assert all(ve[g] <= vf[g] and vf[g].dim - ve[g].dim <= 1 for g in ve)
        gaps = {g for g in ve if ve[g] != vf[g]}
        if len(new) == 1:
            # a_j: the first class on the m0 slice where the gap appears
            p, ray = new[0]
            a_ray[ray] = next(x for x in axes[p] if m0[:p] + (x,) + m0[p:] in gaps)
        m_sigma[cone] = tuple(m0[sigma0.index(r)] if r in sigma0 else a_ray[r] for r in cone)
        box = {
            g
            for g in ve
            if all(g[p] == b for p, b in zip(pos0, m0))
            and all(g[p] >= a_ray[r] for p, r in new)
        }
        saturated = saturated and gaps == box
    m_rho = {**dict(zip(sigma0, m0)), **a_ray}
    return m_sigma, m_rho, sum(m_rho.values()), saturated


def assert_drop_is_elementary(inj):
    """`drop` trusts its own bookkeeping; the explicit check and the
    reference must agree with it field by field."""
    checked = elementary_check(inj.e, inj.f)
    for name in ElementaryInjection._fields:
        assert getattr(inj, name) == getattr(checked, name), name
    assert reference_invariants(inj) == (inj.m_sigma, inj.m_rho, inj.m_Sigma, inj.saturated)


def seeded_drops(rng):
    """Single random drops along seeded chains on n = 3-5, forced onto
    every cone dimension 1..n: yields (F, E, sigma0, m0) per drop."""
    for n in (3, 4, 5):
        for _ in range(3):
            family = to_multifiltration(random_reflexive(rng, n, max_c=3))
            for dims in [range(1, n + 1), *((k,) for k in range(1, n + 1))] * 2:
                before = family
                family, applied = random_drops(rng, family, 1, dims)
                for cone, m0 in applied:
                    yield before, family, cone, m0


def test_drop_equals_elementary_check():
    seen = set()
    for f, e, sigma0, m0 in seeded_drops(random.Random(64)):
        inj = drop(f, sigma0, m0, e.evaluate(sigma0, m0))
        assert inj.e == e
        assert_drop_is_elementary(inj)
        seen.add((f.fan.n, inj.k0, inj.dropped.dim, inj.saturated))
    for n in (3, 4, 5):
        assert {k0 for m, k0, _, _ in seen if m == n} == set(range(1, n + 1))
    assert {t for _, _, t, _ in seen} == {0, 1}
    assert {s for _, _, _, s in seen} == {True, False}
    # the pinned non-saturated drop and a k0 == n drop
    pinned = [
        drop(start_family(n=3, c=(2, 2, 2, 0)), (2,), (0,), Subspace.line(1, 2)),
        drop(start_family(n=3, c=(1, 6, 6, 0)), (0, 1, 2), (-1, 0, 0), ZERO),
    ]
    for inj in pinned:
        assert_drop_is_elementary(inj)
    assert [(inj.saturated, inj.k0) for inj in pinned] == [(False, 1), (True, 3)]
    with pytest.raises(AttributeError):
        pinned[0].k0 = 2


def test_elementary_check_is_the_one_step_factorization():
    # A single drop checks as factorize's only step, field by field; a
    # chain of 2-4 drops is refused on its drop_counts total.
    rng = random.Random(64)
    for f, e, _, _ in seeded_drops(rng):
        checked, (step,) = elementary_check(e, f), factorize(e, f)
        for name in ElementaryInjection._fields:
            assert getattr(checked, name) == getattr(step, name), name
    refused = 0
    for _ in range(12):
        n = rng.choice((3, 4))
        f = to_multifiltration(random_reflexive(rng, n, max_c=3))
        e, applied = random_drops(rng, f, rng.randint(2, 4), range(1, n + 1))
        if len(applied) < 2:
            continue
        total = sum(drop_counts(e, f).values())
        with pytest.raises(NotElementary, match=rf"^{total} steps, not 1 \(profile "):
            elementary_check(e, f)
        refused += 1
    assert refused >= 8


def assert_drop_matches_the_grid_oracle(inj):
    """`drop`'s list rewrite is the grid rewrite, field by field."""
    ref = grid_drop(inj.f, inj.sigma0, inj.m0, inj.dropped)
    for name in ElementaryInjection._fields:
        assert getattr(inj, name) == getattr(ref, name), name


def staircase(r):
    """The P^5 staircase: on every cone, the projections of the r
    pairwise incomparable FULL jumps (i, -i, 2i, -2i, 3i, 0)."""
    fan = Fan(5)
    points = [(i, -i, 2 * i, -2 * i, 3 * i, 0) for i in range(1, r + 1)]
    return Multifiltration(
        fan,
        {
            cone: [(tuple(p[ray] for ray in cone), FULL) for p in points]
            for cone in fan.all_cones(min_dim=1)
        },
    )


def test_drop_matches_the_grid_oracle():
    # The steps of factorize inside the start and inside the hull of
    # seeded drop chains on P^2..P^5, which recompose takes again.
    rng = random.Random(2121)
    seen = {"drops": 0, "unsaturated": 0, "ZERO": 0, "line": 0}
    while seen["drops"] < 3000:
        n = rng.choice((2, 3, 4, 5))
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        final, _ = random_drops(rng, start, rng.randint(1, 5), range(1, n + 1))
        for f in (start, reflexive_hull(final)):
            for inj in factorize(final, f):
                assert_drop_matches_the_grid_oracle(inj)
                seen["drops"] += 1
                seen["unsaturated"] += not inj.saturated
                seen["line" if inj.dropped.dim else "ZERO"] += 1
    assert seen["unsaturated"] >= 500 and seen["ZERO"] and seen["line"], seen
    # the staircase pair (E, hull of E), 216 drops on 2-cones of P^5
    e = staircase(4)
    f = reflexive_hull(e)
    steps = factorize(e, f)
    assert len(steps) == 216 and recompose(f, steps) == e
    for inj in steps:
        assert_drop_matches_the_grid_oracle(inj)


def test_drop_raises_where_the_grid_oracle_does():
    # Random cones, classes near the jumps and targets, on seeded chains:
    # both reject the same inputs, and agree where they accept.
    rng = random.Random(2122)
    targets = [ZERO, FULL] + [Subspace.line(1, k) for k in range(3)] + [Subspace.line(0, 1)]
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        n = rng.choice((2, 3, 4, 5))
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        family, _ = random_drops(rng, start, rng.randint(0, 4), range(1, n + 1))
        cones = list(family.fan.all_cones(min_dim=1))
        for _ in range(20):
            cone = rng.choice(cones)
            axes = _axes(family.jumps[cone], len(cone))
            m0 = tuple(rng.choice(axis) + rng.choice((-1, 0, 1)) for axis in axes)
            target = rng.choice(targets)
            results = []
            for take in (drop, grid_drop):
                try:
                    results.append(take(family, cone, m0, target))
                except ValueError:
                    results.append(None)
            inj, ref = results
            assert (inj is None) == (ref is None), (cone, m0, target)
            if inj is not None:
                assert_drop_matches_the_grid_oracle(inj)
            outcomes[inj is not None] += 1
    assert outcomes[True] >= 100 and outcomes[False] >= 1000, outcomes


def meet_box_against_the_grid(jumps, fan, sigma0, lo, hi, w, seen):
    """`_meet_box` on `jumps`, in place, held to `grid_meet` on every
    coface of sigma0; the other cones keep their lists."""
    before = dict(jumps)
    boxes = _meet_box(jumps, fan, sigma0, lo, hi, w)
    assert list(boxes) == list(fan.cofaces(sigma0))
    for tau, jumps_tau in before.items():
        if tau not in boxes:
            assert jumps[tau] is jumps_tau
            continue
        assert jumps[tau] == grid_meet(jumps_tau, tau, sigma0, lo, hi, w), (tau, lo, hi, w)
        pos = [tau.index(r) for r in sigma0]
        assert boxes[tau] == tuple(
            (c, v) for c, v in jumps_tau if all(x <= c[p] < y for p, x, y in zip(pos, lo, hi))
        )
        others = {v for _, v in boxes[tau] if v is not FULL and v is not w}
        seen["pairs"] += w is not ZERO and len(others) >= 2
    seen["wide"] += any(y - x > 1 for x, y in zip(lo, hi))
    seen["line" if w.dim else "ZERO"] += 1


def test_meet_box_matches_the_grid_oracle():
    # The boxes of the three callers on P^2..P^5: the drops of factorize
    # inside the start and inside the hull of seeded drop chains, the
    # runs of the paper's P^4 and P^5 builds, and the drop_counts walk
    # over the cells of the same pairs, which must end at E.
    rng = random.Random(2222)
    seen = {"wide": 0, "line": 0, "ZERO": 0, "pairs": 0}
    while seen["line"] + seen["ZERO"] < 1000:
        n = rng.choice((2, 3, 4, 5))
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        final, _ = random_drops(rng, start, rng.randint(1, 5), range(1, n + 1))
        fan = start.fan
        for f in (start, reflexive_hull(final)):
            for inj in factorize(final, f):
                hi = tuple(x + 1 for x in inj.m0)
                jumps = dict(inj.f.jumps)
                meet_box_against_the_grid(jumps, fan, inj.sigma0, inj.m0, hi, inj.dropped, seen)
                assert jumps == inj.e.jumps
            jumps = dict(f.jumps)
            g = Multifiltration._canonical(fan, jumps)
            for sigma0 in fan.all_cones(min_dim=1):
                if final.jumps[sigma0] != jumps[sigma0]:
                    for lo, hi, u, _ in _checked_cells(final, g, sigma0)[0]:
                        meet_box_against_the_grid(jumps, fan, sigma0, lo, hi, u, seen)
            assert jumps == final.jumps
    for sol in (family_p4_odd(1), family_pn(5)):
        jumps = dict(to_multifiltration(sol.problem.start_filtration()).jumps)
        fan = Fan(sol.problem.n)
        for _, sigma, head, pk in sol.stages():
            lo = head + (0,)
            hi = tuple(x + 1 for x in head) + (pk,)
            meet_box_against_the_grid(jumps, fan, sigma, lo, hi, ZERO, seen)
        assert jumps == build_sequence(sol.problem, sol).final.jumps
    # boxes wider than one class, line and ZERO values, and cofaces with
    # a pair of distinct lines other than a line w over the box
    assert min(seen.values()) >= 30, seen


def test_p4_odd_build_steps_pass_elementary_check():
    # The drop-by-drop oracle of the 258-drop build, whose final sheaf the
    # run build must reach; re-check all 258 steps.
    sol = family_p4_odd(1)
    final, injections = replay_drops(sol, 258)
    assert len(injections) == 258
    assert final == build_sequence(sol.problem, sol).final
    for inj in injections:
        assert_drop_is_elementary(inj)


def test_apply_run_equals_drop_by_drop():
    # A run of count c from m0 is the chain of the c drops to ZERO at m0,
    # m0 + e, ... along sigma0's last axis, on seeded starts: the start's
    # line jumps on cones of dim >= 2, as far as the drops are legal.
    rng = random.Random(16)
    seen = set()
    for _ in range(16):
        f = to_multifiltration(random_reflexive(rng, rng.choice((3, 4))))
        sigma0 = rng.choice(list(f.fan.all_cones(min_dim=2)))
        lines = [coords for coords, w in f.jumps[sigma0] if w.dim == 1]
        if not lines:
            continue
        m0 = rng.choice(lines)
        chain = [f]
        for j in range(6):
            try:
                inj = drop(chain[-1], sigma0, m0[:-1] + (m0[-1] + j,), ZERO)
            except ValueError:
                break
            chain.append(inj.e)
        for count, e in enumerate(chain):
            assert apply_run(f, sigma0, m0, count) == e, (sigma0, m0, count)
            seen.add(count)
        assert_valid_and_canonical(apply_run(f, sigma0, m0, len(chain) - 1))
    assert seen == set(range(7))


def test_apply_run_rejects_malformed_runs():
    f = start_family()
    with pytest.raises(ValueError):
        apply_run(f, (0, 1, 2), (-1, 0), 1)  # m0 of the wrong arity
    with pytest.raises(ValueError):
        apply_run(f, (0, 1, 2), (-1, 0, 0), -1)
    with pytest.raises(ValueError):
        apply_run(f, (0, 0), (0, 0), 1)


def with_jump(family, cone, coords, w):
    """family with one more jump (coords, w) on `cone`, unchecked."""
    jumps = {**family.jumps, cone: family.jumps[cone] + ((coords, w),)}
    return unchecked(family.fan, jumps)


def test_elementary_check_names_the_broken_clause():
    mf = start_family()
    sigma0, m0 = (0, 1, 2), (-1, 0, 0)
    e = drop(mf, sigma0, m0, ZERO).e
    line = Subspace.line(1, 7)
    # An extra line on a proper coface, in the dropped slice or outside
    # it, or on sigma0 at a second class, is no longer inside F: the
    # walk's error names the cone and the class.
    for cone, coords in (
        ((0, 1, 2, 3), (-1, 0, 0, -50)),
        ((0, 1, 2, 3), (0, -50, -50, -50)),
        (sigma0, (-50, -50, -50)),
    ):
        with pytest.raises(
            NotElementary,
            match=re.escape(f"not pointwise contained in F on {cone} at class {coords}"),
        ) as caught:
            elementary_check(with_jump(e, cone, coords, line), mf)
        assert isinstance(caught.value.__cause__, ValueError)
    # two composed drops, the second on a coface, and swapped E and F
    tau = (0, 1, 2, 3)
    m1 = next(
        m
        for m in product(*_axes(e.jumps[tau], len(tau)))
        if [w.dim for w in _value_and_below(e.jumps[tau], m)] == [1, 0]
    )
    e2 = drop(e, tau, m1, ZERO).e
    with pytest.raises(NotElementary, match=re.escape("2 steps, not 1 (profile {3: 1, 4: 1})")):
        elementary_check(e2, mf)
    for bigger, smaller in ((mf, e2), (e2, mf), (e, mf)):
        with pytest.raises(NotElementary):
            elementary_check(smaller, bigger)


def test_elementary_check_not_saturated():
    # Dropping ray 2's value C^2 at 0 to its own line: on the 3-cone
    # (0, 1, 2) the difference misses the class (-2, -2, 0), where the
    # lines of rays 0 and 1 meet in zero, so W is not the full region.
    mf = start_family(n=3, c=(2, 2, 2, 0))
    e = apply_elementary(mf, (2,), (0,), Subspace.line(1, 2))
    inj = elementary_check(e, mf)
    assert inj.saturated is False
    assert inj.k0 == 1
    assert inj.m_rho == {2: 0, 0: -2, 1: -2, 3: 0}
    assert inj.m_Sigma == -4
    assert factorize(e, mf) == [inj]


def test_elementary_check_top_dimensional_cone():
    # k0 == n: sigma0 has no proper cofaces, so the quotient is a point
    # and its line bundle sees only sigma0's rays.
    mf = start_family(n=3, c=(1, 6, 6, 0))
    e = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), ZERO)
    inj = elementary_check(e, mf)
    assert inj.k0 == 3 == mf.fan.n
    assert inj.saturated
    assert inj.m_sigma == {(0, 1, 2): (-1, 0, 0)}
    assert inj.m_rho == {0: -1, 1: 0, 2: 0}
    assert inj.m_Sigma == -1


def test_saturated_steps_match_chern_ratio():
    # The criterion-8 chains: every saturated step's m_sigma must give
    # the conewise ratio that the independent Chern engine computes.
    rng = random.Random(88)
    chains = saturated = 0
    while chains < 20:
        n = 3 if chains % 2 == 0 else 4
        start = to_multifiltration(random_reflexive(rng, n, max_c=4))
        dims = tuple(range(2, n + 1))
        final, applied = random_drops(rng, start, rng.randint(1, 6), dims)
        if not applied:
            continue
        chains += 1
        for inj in factorize(final, start):
            if inj.saturated:
                saturated += 1
                ratio = chern_general(inj.f) * chern_general(inj.e).inverse()
                assert ratio_saturated_conewise(inj) == ratio
    assert saturated > 0


def test_delta_invariant():
    mf = start_family()
    e = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), ZERO)
    d = delta(e, mf)
    # the quotient is supported in codimension 3: deltas vanish below
    assert d[0] == 0 and d[1] == 0
    assert d[2] == 1  # a single unit cell of dimension drop
    assert delta(mf, mf) == (0,) * 4


def test_delta_rejects_a_pair_that_is_not_an_injection():
    # Two lines dropped at one class of a top cone: equal dimensions
    # everywhere, so the dim differences sum to 0, yet neither family
    # contains the other.
    start = start_family(n=2, c=(1, 0, 0))
    one, other = (
        apply_elementary(start, (1, 2), (0, 0), Subspace.line(1, k)) for k in (0, 1)
    )
    assert not is_contained(one, other)
    with pytest.raises(ValueError, match="not pointwise contained"):
        delta(one, other)
    assert delta(one, start) == (0, 1)


def test_delta_checks_containment_off_the_summed_cones():
    # E drops ray (1,) too, so delta_1 > 0 leaves the 2-cone (1, 2) out
    # of Sigma*(2); E still is not inside F there, on the class (0, 0).
    start = start_family(n=2, c=(1, 0, 0))
    f = drop(start, (1, 2), (0, 0), Subspace.line(1, 1)).e
    e = drop(start, (1, 2), (0, 0), Subspace.line(1, 0)).e
    e = drop(e, (1,), (0,), Subspace.line(1, 0)).e
    assert not is_contained(e, f)
    with pytest.raises(ValueError, match=r"not pointwise contained in F on \(1, 2\)"):
        delta(e, f)
    assert delta(e, start) == (1, 0)


def test_delta_infinite_when_no_cone_qualifies():
    # E c E(sum D_rho) differs on every ray, so Sigma*(2) is empty; each
    # ray filtration moves one step, so each ray adds rank 2 to delta_1.
    e = to_multifiltration(R2Filtration.b_zero_data(Fan(2), (1, 2, 0)))
    d = delta(e, e.twist((1, 1, 1)))
    assert d == (6, INFINITY)
    assert d[1] is INFINITY and repr(d[1]) == "INFINITY"


def test_factorize_roundtrip_simple():
    mf = start_family()
    e = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), ZERO)
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
        for step in steps:
            assert_valid_and_canonical(step.e)
        rebuilt = recompose(start, steps)
        assert_valid_and_canonical(rebuilt)
        assert rebuilt == final


def factorize_tally(e, f):
    tally = {}
    for step in factorize(e, f):
        tally[step.k0] = tally.get(step.k0, 0) + 1
    return tally


def contained_pointwise(e, f):
    """E c F by its definition, at every point of each cone's joint grid
    (both families are constant on its cells, and E is Zero below it)."""
    for cone in e.fan.all_cones(min_dim=1):
        je, jf = e.jumps[cone], f.jumps[cone]
        for g in product(*_axes(je + jf, len(cone))):
            if not eval_jumps(je, g) <= eval_jumps(jf, g):
                return False
    return True


def test_is_contained_matches_pointwise_oracle():
    # Drop chains in both orders, two unrelated chains from one start,
    # and a family with itself.
    rng = random.Random(90)
    outcomes = {True: 0, False: 0}
    for _ in range(24):
        n = rng.choice((2, 3, 4))
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        dims = tuple(range(1, n + 1))
        one, _ = random_drops(rng, start, rng.randint(1, 4), dims)
        other, _ = random_drops(rng, start, rng.randint(1, 4), dims)
        for e, f in ((one, start), (start, one), (one, other), (other, one), (one, one)):
            expected = contained_pointwise(e, f)
            assert is_contained(e, f) is expected
            outcomes[expected] += 1
            # drop_counts proves containment as it counts
            if expected:
                assert drop_counts(e, f) == factorize_tally(e, f)
            else:
                with pytest.raises(ValueError):
                    drop_counts(e, f)
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_factorize_rejects_non_containment():
    mf = start_family()
    e = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), ZERO)
    with pytest.raises(ValueError):
        factorize(mf, e)  # wrong order
    with pytest.raises(ValueError):
        factorize(start_family(c=(2, 6, 6, 0, 0)), mf)
    # Two lines in one Full value: equal dimensions everywhere, neither
    # contains the other; on a ray and on a top-dimensional cone.
    top = start_family(n=2, c=(1, 0, 0))
    for f, cone, m0 in ((mf, (3,), (0,)), (top, (1, 2), (0, 0))):
        one, other = (apply_elementary(f, cone, m0, Subspace.line(1, k)) for k in (0, 1))
        with pytest.raises(ValueError, match="not pointwise contained"):
            factorize(one, other)


def test_factorize_runs_the_drop_checks(monkeypatch):
    # Each step of factorize is a checked drop: a hyperplane rule that
    # returns the value itself, no hyperplane of it, is refused at the
    # first step, on a line dropped to ZERO and on FULL dropped twice.
    mf = start_family()
    one = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), ZERO)
    two = apply_elementary(mf, (3,), (0,), Subspace.line(1, 0))
    two = apply_elementary(two, (3,), (0,), ZERO)
    assert [len(factorize(e, mf)) for e in (one, two)] == [1, 2]
    monkeypatch.setattr(multifilt, "echelon_hyperplane", lambda value, inner: value)
    for e in (one, two):
        with pytest.raises(ValueError, match="is not a hyperplane of F"):
            factorize(e, mf)


@contextmanager
def deadline(seconds):
    """Fail, instead of hanging, when the body runs past `seconds`."""

    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_factorize_rejects_invalid_e_at_once():
    # E wrapped unchecked: a drop chain on P^2 with one ray-(0,)
    # jump shifted by +-1, contained in the chain or in its start.  Without
    # the walk's checks on the cells, some such E would send m0 along an
    # axis without end.
    rng = random.Random(7)
    messages = {"not pointwise contained": 0, "divergent": 0}
    t0 = time.perf_counter()
    for _ in range(8):
        start = to_multifiltration(random_reflexive(rng, 2, max_c=3))
        chain, _ = random_drops(rng, start, rng.randint(1, 4), (1, 2))
        ray = chain.jumps[(0,)]
        for i, ((c,), w) in enumerate(ray):
            for shift in (-1, 1):
                jumps = dict(chain.jumps)
                jumps[(0,)] = ray[:i] + (((c + shift,), w),) + ray[i + 1 :]
                e = unchecked(chain.fan, jumps)
                with pytest.raises(InvalidFamily):
                    e.validate()
                for f in (chain, start):
                    if not is_contained(e, f):
                        continue
                    with deadline(2.0), pytest.raises(
                        ValueError, match="|".join(messages)
                    ) as err:
                        factorize(e, f)
                    messages[next(k for k in messages if k in str(err.value))] += 1
    assert time.perf_counter() - t0 < 1.0
    assert all(messages.values()), messages


def assert_factorize_trusts_its_drops(e, f):
    """factorize trusts its drops: each step must contain E and keep
    the previous family's list objects off the cofaces of sigma0, and
    its m0 is the lex-first class of the joint grid of E and the
    previous family G on sigma0 where they differ."""
    steps = factorize(e, f)
    previous = f
    for step in steps:
        assert step.f is previous
        je, jg = e.jumps[step.sigma0], previous.jumps[step.sigma0]
        assert step.m0 == next(
            g
            for g in product(*_axes(je + jg, len(step.sigma0)))
            if eval_jumps(je, g) != eval_jumps(jg, g)
        )
        assert is_contained(e, step.e)
        cofaces = set(f.fan.cofaces(step.sigma0))
        for cone, jumps in step.e.jumps.items():
            if cone not in cofaces:
                assert jumps is previous.jumps[cone]
        previous = step.e
    assert previous == e
    return steps


def test_factorize_steps_contain_e_and_keep_the_other_cones():
    # Whole seeded_drops chains, and obstruct's pairs (E, hull of E).
    chains = []
    for f, e, _, _ in seeded_drops(random.Random(66)):
        if chains and chains[-1][1] is f:
            chains[-1][1] = e
        else:
            chains.append([f, e])
    lengths = []
    for start, final in chains:
        lengths.append(len(assert_factorize_trusts_its_drops(final, start)))
        hull = reflexive_hull(final)
        if hull != final:
            lengths.append(len(assert_factorize_trusts_its_drops(final, hull)))
    assert len(lengths) > len(chains) and max(lengths) >= 10


def test_factorize_matches_the_rescanning_oracle():
    # Seeded drop chains on P^2..P^5, each factorized inside its start,
    # inside its reflexive hull, and with both twisted so that the hull is
    # b_zero data.  The walk must take the oracle's steps.
    rng = random.Random(2020)
    pairs = steps = 0
    while pairs < 400:
        n = rng.choice((2, 3, 4, 5))
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        dims = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        final, applied = random_drops(rng, start, rng.randint(1, 4), dims)
        if not applied:
            continue
        pairs += 1
        hull = reflexive_hull(final)
        b = from_multifiltration(hull).b_vec
        for e, f in ((final, start), (final, hull), (final.twist(b), hull.twist(b))):
            chain = factorize(e, f)
            assert chain == rescan_factorize(e, f)
            steps += len(chain)
    assert steps > 2 * pairs


def test_factorize_is_shift_equivariant():
    # Twisting E c F by O(sum d_rho D_rho) moves every step's class by -d
    # on sigma0's rays and its weight by -d summed over the rays the
    # quotient line bundle sees: all n + 1 when k0 < n, sigma0's when
    # k0 = n.  obstruct reads the normalized sheaf's weights this way.
    rng = random.Random(2030)
    pairs = shifted = 0
    top = set()
    while pairs < 120:
        n = rng.choice((3, 4, 5))
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        dims = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        final, applied = random_drops(rng, start, rng.randint(1, 4), dims)
        if not applied:
            continue
        pairs += 1
        d = tuple(rng.randint(-5, 5) for _ in range(n + 1))
        for e, f in ((final, start), (final, reflexive_hull(final))):
            base, twisted = factorize(e, f), factorize(e.twist(d), f.twist(d))
            assert len(twisted) == len(base)
            for s, t in zip(base, twisted):
                assert (t.k0, t.sigma0, t.dropped, t.saturated) == (
                    s.k0, s.sigma0, s.dropped, s.saturated
                )
                assert t.m0 == tuple(x - d[r] for x, r in zip(s.m0, s.sigma0))
                top.add(s.k0 == n)
                seen = s.sigma0 if s.k0 == n else range(n + 1)
                assert t.m_Sigma == s.m_Sigma - sum(d[r] for r in seen)
                shifted += t.m_Sigma != s.m_Sigma
    assert shifted > pairs and top == {True, False}


def drop_chain_pairs(seed, count):
    """Seeded drop chains on P^2..P^5, each as (chain, start) and (chain,
    hull of the chain)."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < 2 * count:
        n = rng.choice((2, 3, 4, 5))
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        dims = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        final, applied = random_drops(rng, start, rng.randint(1, 4), dims)
        if applied:
            pairs += [(final, start), (final, reflexive_hull(final))]
    return pairs


def test_the_unit_drop_memo_changes_no_result():
    # factorize and recompose with the memo cleared before each call, and
    # again with it warm from a first factorize of the same pair, which
    # the second takes entirely from the memo.
    pairs = drop_chain_pairs(4040, 60)
    cold = []
    for e, f in pairs:
        _meet_unit.cache_clear()
        steps = factorize(e, f)
        _meet_unit.cache_clear()
        cold.append((steps, recompose(f, steps)))
    replayed = 0
    for (e, f), (steps, family) in zip(pairs, cold):
        factorize(e, f)
        before = _meet_unit.cache_info()
        warm = factorize(e, f)
        after = _meet_unit.cache_info()
        assert after.misses == before.misses
        replayed += after.hits - before.hits
        assert warm == steps
        assert recompose(f, warm) == family == e
    assert replayed > 0 and sum(len(steps) for steps, _ in cold) > len(pairs)
    assert {f.fan.n for _, f in pairs} == {2, 3, 4, 5}


def test_recompose_after_factorize_only_hits_the_memo():
    # recompose replays factorize's drops on the same lists: one hit per
    # coface of each step, no miss.  The memo is bounded, and every box
    # the unit-drop path returns is a tuple, so a hit can hand it out.
    info = _meet_unit.cache_info()
    assert isinstance(info.maxsize, int) and 0 < info.maxsize <= 10**5
    for e, f in drop_chain_pairs(4041, 40):
        steps = factorize(e, f)
        rewrites = sum(len(_coface_plan(f.fan, step.sigma0)) for step in steps)
        assert rewrites <= info.maxsize
        before = _meet_unit.cache_info()
        assert recompose(f, steps) == e
        after = _meet_unit.cache_info()
        assert (after.hits - before.hits, after.misses) == (rewrites, before.misses)
        for step in steps:
            _, _, jumps, boxes = _checked_drop(step.f, step.sigma0, step.m0, step.dropped)
            assert len(boxes) == len(_coface_plan(f.fan, step.sigma0))
            assert all(type(at) is tuple for at in boxes)
            assert all(type(jumps[cone]) is tuple for cone in jumps)
            assert jumps == step.e.jumps


def test_profile_walks_and_runs_bypass_the_memo():
    # The boxes of drop_profile and apply_run are not replayed: they go
    # through `_meet_box`, and leave the memo as they found it.
    pairs = drop_chain_pairs(4042, 20)
    factorize(*pairs[0])
    info = _meet_unit.cache_info()
    assert info.currsize > 0
    for e, f in pairs:
        drop_profile(e, f)
    for sol in (family_p4_odd(1), family_pn(5)):
        build_sequence(sol.problem, sol)
    f = start_family()
    apply_run(f, (0, 1, 2), (-1, 0, 0), 3)
    assert _meet_unit.cache_info() == info


# ---------------------------------------------------------------------------
# families built without re-checking: valid and canonical by construction


def test_to_multifiltration_is_valid_and_canonical():
    rng = random.Random(61)
    for n in (2, 3, 4, 5):
        for _ in range(4):
            assert_valid_and_canonical(to_multifiltration(random_reflexive(rng, n)))


def test_each_drop_is_valid_and_canonical():
    drop_dims, targets = set(), {0: 0, 1: 0}
    for f, e, cone, m0 in seeded_drops(random.Random(62)):
        assert e != f
        drop_dims.add((f.fan.n, len(cone)))
        targets[e.evaluate(cone, m0).dim] += 1
        assert_valid_and_canonical(e)
    assert drop_dims == {(n, k) for n in (3, 4, 5) for k in range(1, n + 1)}
    assert targets[0] > 0 and targets[1] > 0


def test_twist_is_valid_canonical_and_shifts():
    rng = random.Random(63)
    for n in (2, 3, 4):
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        family, _ = random_drops(rng, start, 3, range(1, n + 1))
        d = tuple(rng.randint(-3, 3) for _ in range(n + 1))
        tw = family.twist(d)
        assert_valid_and_canonical(tw)
        # E'^sigma_mu = E^sigma_{mu + d}, checked around every jump.
        for cone, jumps in family.jumps.items():
            for coords, _ in jumps:
                for step in product((-1, 0), repeat=len(cone)):
                    mu = tuple(x + s for x, s in zip(coords, step))
                    shifted_mu = tuple(x - d[r] for x, r in zip(mu, cone))
                    assert tw.evaluate(cone, shifted_mu) == family.evaluate(cone, mu)


# ---------------------------------------------------------------------------
# the torsion profile per cone


def assert_profile(e, f):
    """drop_counts is the factorization's tally, and p_q is delta_q."""
    counts = drop_counts(e, f)
    assert counts == factorize_tally(e, f)
    q = min(counts)
    d = delta(e, f)
    assert d[q - 1] == counts[q] and all(x == 0 for x in d[: q - 1])
    return counts


def test_drop_counts_equals_the_factorize_tally():
    # Seeded drop chains on P^3..P^5 over random sets of cone dimensions,
    # counted inside the start and inside E's reflexive hull.
    rng = random.Random(2024)
    seen, cases = set(), 0
    while cases < 200:
        n = rng.choice((3, 4, 5))
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        dims = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        final, applied = random_drops(rng, start, rng.randint(1, 4), dims)
        if not applied:
            continue
        seen |= set(assert_profile(final, start))
        hull = reflexive_hull(final)
        if hull != final:
            seen |= set(assert_profile(final, hull))
        cases += 1
    assert seen == {1, 2, 3, 4, 5}


def test_drop_counts_on_the_criterion_10_draws():
    # The draws of acceptance criterion 10 (its generators and
    # parameters, in turn), counted inside the reflexive hull.
    rng = random.Random(1010)
    for draw in range(90):
        if draw % 3 == 0:
            start = to_multifiltration(random_reflexive(rng, 4, max_c=4))
            final, applied = random_drops(rng, start, rng.randint(1, 3), (4,))
        elif draw % 3 == 1:
            start = to_multifiltration(random_reflexive(rng, 5, max_c=3))
            final, applied = random_drops(rng, start, rng.randint(1, 2), (4, 5))
        else:
            start = to_multifiltration(random_semistable(rng, 3, max_c=4))
            final, applied = random_drops(rng, start, rng.randint(1, 3), (2,))
        if applied:
            assert_profile(final, reflexive_hull(final))


def test_drop_counts_rejects_non_containment():
    mf = start_family()
    e = apply_elementary(mf, (0, 1, 2), (-1, 0, 0), ZERO)
    assert drop_counts(e, mf) == {3: 1} and drop_counts(mf, mf) == {}
    with pytest.raises(ValueError):
        drop_counts(mf, e)  # wrong order: dim E > dim F somewhere
    with pytest.raises(ValueError):
        drop_counts(start_family(c=(2, 6, 6, 0, 0)), mf)
    with pytest.raises(ValueError):
        drop_counts(start_family(n=3, c=(1, 1, 1, 0)), mf)
    # Two lines in one Full value: equal dimensions everywhere, neither
    # contains the other; on a ray and on a top-dimensional cone.
    top = start_family(n=2, c=(1, 0, 0))
    for f, cone, m0 in ((mf, (3,), (0,)), (top, (1, 2), (0, 0))):
        one, other = (apply_elementary(f, cone, m0, Subspace.line(1, k)) for k in (0, 1))
        assert not is_contained(one, other)
        with pytest.raises(ValueError):
            drop_counts(one, other)


def test_drop_counts_rejects_what_factorize_rejects_with_its_error():
    # `tsk factorize` tallies the steps first, so a pair that is no
    # injection must fail the tally with factorize's own error: both raise
    # from the same `_checked_cells` walk.  Pairs in both orders and
    # unrelated pairs.
    rng = random.Random(77)
    rejected = 0
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        dims = tuple(range(1, n + 1))
        one, _ = random_drops(rng, start, rng.randint(1, 5), dims)
        other, _ = random_drops(rng, start, rng.randint(1, 5), dims)
        for e, f in ((one, start), (start, one), (one, other), (other, one)):
            errors = []
            for walk in (drop_counts, factorize):
                try:
                    walk(e, f)
                    errors.append(None)
                except ValueError as err:
                    errors.append((type(err), str(err)))
            assert errors[0] == errors[1]
            rejected += errors[0] is not None
    assert rejected > 50


def test_drop_counts_and_the_torsion_profile_are_twist_invariant():
    # Tensoring both families by one line bundle shifts every coordinate
    # and changes no count: the rewrite runs on shifted cells.
    rng = random.Random(4040)
    seen, cases = set(), 0
    while cases < 80:
        n = rng.choice((3, 4, 5))
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        dims = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        final, applied = random_drops(rng, start, rng.randint(1, 4), dims)
        if not applied:
            continue
        d = tuple(rng.randint(-5, 5) for _ in range(n + 1))
        counts = drop_counts(final, start)
        assert drop_counts(final.twist(d), start.twist(d)) == counts
        if reflexive_hull(final) != final:
            assert torsion_profile(final.twist(d)) == torsion_profile(final)
        seen |= set(counts)
        cases += 1
    assert seen == {1, 2, 3, 4, 5}


def factorize_profile(e, f):
    """{k: (p_k, least m_Sigma)} over the steps of `factorize(e, f)`, and
    the number of classes dropped twice (a cell dropped FULL -> ZERO)."""
    profile, steps = {}, factorize(e, f)
    for step in steps:
        count, least = profile.get(step.k0, (0, step.m_Sigma))
        profile[step.k0] = (count + 1, min(least, step.m_Sigma))
    twice = sum((a.sigma0, a.m0) == (b.sigma0, b.m0) for a, b in zip(steps, steps[1:]))
    return profile, twice


def test_drop_profile_matches_factorize():
    # Seeded drop chains F -> M -> E on P^2..P^5, E read inside the start
    # F, inside the family M halfway (not reflexive) and inside E's
    # reflexive hull: each level's count and least weight.
    rng = random.Random(11)
    seen, twice, pairs = set(), 0, 0
    while pairs < 1500:
        n = rng.choice((2, 3, 4, 5))
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        mid, _ = random_drops(rng, start, rng.randint(0, 3), range(1, n + 1))
        final, _ = random_drops(rng, mid, rng.randint(1, 3), range(1, n + 1))
        for f in {start, mid, reflexive_hull(final)} - {final}:
            expected, cells = factorize_profile(final, f)
            assert drop_profile(final, f) == expected
            seen |= set(expected)
            twice += cells
            pairs += 1
    assert seen == {1, 2, 3, 4, 5} and twice >= 20, (seen, twice)


def test_drop_profile_finds_the_least_weight_off_the_low_corner():
    # On ray 0 of this P^2 pair one cell, classes -2 and -1, drops FULL
    # to Line(1, 0).  On the facet-coface (0, 1) the first jump outside
    # that line lies at new coordinate 3 over class -2 and at 1 over
    # class -1, so the weights are -2 + 3 - 1 = 0 and -1 + 1 - 1 = -1:
    # the least lies at the piece cut at -1, not at the cell's low corner.
    line0, line2 = Subspace.line(1, 0), Subspace.line(1, 2)
    f = Multifiltration(
        Fan(2),
        {
            (0,): [((-2,), FULL)],
            (1,): [((1,), FULL)],
            (2,): [((-1,), line2), ((2,), FULL)],
            (0, 1): [((-2, 2), line0), ((-2, 3), FULL), ((-1, 1), FULL)],
            (0, 2): [((-2, -1), line2), ((-2, 2), FULL)],
            (1, 2): [((1, -1), line2), ((1, 2), FULL)],
        },
    )
    e = drop(drop(f, (0,), (-2,), line0).e, (0,), (-1,), line0).e
    steps = factorize(e, f)
    assert [s.m_Sigma for s in steps] == [0, -1]
    assert drop_profile(e, f) == factorize_profile(e, f)[0] == {1: (2, -1)}


def test_drop_profile_on_the_staircase_and_the_hazard_pair():
    # The P^5 staircase, 216 drops over cells wider than one class, and
    # the P^4 hazard pair, one 2-elementary drop after a run of N
    # 4-elementary ones.
    e = staircase(4)
    assert drop_profile(e, reflexive_hull(e)) == factorize_profile(e, reflexive_hull(e))[0]
    assert drop_profile(e, reflexive_hull(e)) == {2: (216, -6)}
    f = to_multifiltration(R2Filtration.b_zero_data(Fan(4), (1, 1, 1, 1, 0)))
    for n in (3, 40):
        e = drop(apply_run(f, (0, 1, 2, 3), (-1, 0, 0, 0), n), (3, 4), (-1, 0), ZERO).e
        assert drop_profile(e, f) == factorize_profile(e, f)[0] == {2: (1, -1), 4: (n, -1)}


def test_drop_profile_reads_the_stages_of_the_built_families():
    # A stage of a run-built family drops p_k consecutive classes whose
    # weights rise by one from the stage's first, the sum of its head.
    for n in range(3, 10):
        sol = family_pn(n)
        res = build_sequence(sol.problem, sol)
        assert drop_profile(res.final, res.start) == {
            k: (pk, sum(head)) for k, _, head, pk in sol.stages() if pk
        }


def test_value_and_below_match_evaluate_and_the_join_one_step_below():
    # The one scan against its definitions, d + 1 evaluations, on drop
    # chains over P^2..P^5 at classes on, between and past their jumps.
    rng = random.Random(2828)
    checked = lines = 0
    for n in (2, 3, 4, 5):
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        for _ in range(3):
            f, _ = random_drops(rng, start, rng.randint(1, 6), range(1, n + 1))
            for cone in f.fan.all_cones(min_dim=1):
                axes = _axes(f.jumps[cone], len(cone))
                for _ in range(6):
                    m0 = tuple(rng.choice(ax) + rng.choice((-1, 0, 0, 1)) for ax in axes)
                    expected = ZERO
                    for i in range(len(cone)):
                        pred = m0[:i] + (m0[i] - 1,) + m0[i + 1 :]
                        expected = expected.join(f.evaluate(cone, pred))
                    value, below = _value_and_below(f.jumps[cone], m0)
                    assert value is f.evaluate(cone, m0) and below is expected
                    checked += 1
                    lines += expected.dim == 1
    assert checked > 2000 and lines > 100


def test_cells_are_the_differing_cells_of_the_joint_grid():
    # Pairs in both orders and unrelated pairs, so E c F fails on some.
    rng = random.Random(4141)
    cells_seen = unbounded = 0
    for _ in range(12):
        n = rng.choice((2, 3))
        start = to_multifiltration(random_reflexive(rng, n, max_c=3))
        dims = tuple(range(1, n + 1))
        one, _ = random_drops(rng, start, rng.randint(1, 4), dims)
        other, _ = random_drops(rng, start, rng.randint(1, 4), dims)
        for e, f in ((one, start), (start, one), (one, other)):
            for cone in e.fan.all_cones(min_dim=1):
                je, jf = e.jumps[cone], f.jumps[cone]
                axes = _axes(je + jf, len(cone))
                differ = [
                    g
                    for g in product(*axes)
                    if eval_jumps(je, g) is not eval_jumps(jf, g)
                ]
                cells = _cells(e, f, cone)
                assert [lo for lo, _, _, _ in cells] == differ
                for lo, hi, u, v in cells:
                    following = [ax[ax.index(x) + 1 :] for ax, x in zip(axes, lo)]
                    assert (hi is None) == (not all(following))
                    if hi is not None:
                        assert hi == tuple(nxt[0] for nxt in following)
                    # every class of the cell, three steps into an unbounded axis
                    tops = [nxt[0] if nxt else x + 3 for nxt, x in zip(following, lo)]
                    for g in product(*map(range, lo, tops)):
                        assert eval_jumps(je, g) is u
                        assert eval_jumps(jf, g) is v
                    cells_seen += 1
                    unbounded += hi is None
    assert cells_seen > 0 and unbounded > 0


def redundant_lists(rng, mf):
    """`mf`'s lists, each padded with jumps that change no value or
    change the family: a repeated jump, a copy one step up an axis (a
    redundant jump), another value at a jump's coordinate and a ZERO
    jump; wrapped unchecked, with no sort or canonicalization."""
    values = [ZERO, FULL, Subspace.line(1, 0), Subspace.line(1, 1)]
    lists = {}
    for cone, jumps in mf.jumps.items():
        raw = list(jumps)
        for _ in range(rng.randint(0, 3)):
            coords, w = rng.choice(jumps)
            i = rng.randrange(len(coords))
            raw += rng.choice(
                [
                    [(coords, w)],
                    [(coords[:i] + (coords[i] + 1,) + coords[i + 1 :], w)],
                    [(coords, rng.choice(values))],
                    [(tuple(x - 1 for x in coords), ZERO)],
                ]
            )
        rng.shuffle(raw)
        lists[cone] = tuple(raw)
    return Multifiltration._canonical(mf.fan, lists)


def test_cells_match_the_joint_grid_oracle():
    # The walk out from the unshared jumps against the whole joint grid,
    # on every cone: seeded drop chains in both orders (so E c F fails),
    # twisted pairs, pairs with unbounded differing cells, lists wrapped
    # unchecked, the staircase and the built families.
    seen = Counter()

    def check(e, f):
        for cone in e.fan.all_cones(min_dim=1):
            cells = _cells(e, f, cone)
            assert cells == grid_cells(e, f, cone), cone
            seen["cells"] += len(cells)
            seen["unbounded"] += sum(hi is None for _, hi, _, _ in cells)
            seen["not contained"] += any(not u <= v for _, _, u, v in cells)

    rng = random.Random(4343)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            start = to_multifiltration(random_reflexive(rng, n, max_c=3))
            dims = tuple(range(1, n + 1))
            one, _ = random_drops(rng, start, rng.randint(1, 4), dims)
            other, _ = random_drops(rng, start, rng.randint(1, 4), dims)
            d = tuple(rng.randint(-3, 3) for _ in range(n + 1))
            for e, f in ((one, start), (start, one), (one, other)):
                check(e, f)
                check(e.twist(d), f.twist(d))
            padded = redundant_lists(rng, one)
            for e, f in ((padded, one), (one, padded), (padded, start), (start, padded)):
                check(e, f)
            seen["padded"] += padded.jumps != one.jumps
    for r in range(2, 7):
        e = staircase(r)
        check(e, reflexive_hull(e))
        check(reflexive_hull(e), e)
    for n in range(3, 8):
        sol = family_pn(n)
        res = build_sequence(sol.problem, sol)
        check(res.final, res.start)
    assert seen["unbounded"] and seen["not contained"] and seen["padded"], seen
    assert seen["cells"] > 1000, seen


def test_pair_work_is_bounded_by_the_lists(capsys, monkeypatch, tmp_path):
    # The staircase at r = 20 dropped once at one class of its top cone:
    # that cone's joint grid has 20^5 = 3.2e6 points, of which one
    # differs.  Reading the pair builds no grid, and each read costs what
    # the lists hold: filling that grid takes seconds.
    calls = []
    grid_flat = chern._grid_flat
    monkeypatch.setattr(
        chern, "_grid_flat", lambda *args: calls.append(args) or grid_flat(*args)
    )
    f = staircase(20)
    e = drop(f, (0, 1, 2, 3, 4), (1, -1, 2, -2, 3), Subspace.line(1, 0)).e
    paths = []
    for name, mf in (("e", e), ("f", f)):
        path = tmp_path / f"{name}.json"
        path.write_text(dump_document(SheafDocument("multifiltration", mf)))
        paths.append(str(path))
    with deadline(2.0):
        assert drop_counts(e, f) == {5: 1}
        steps = factorize(e, f)
        assert len(steps) == 1 and recompose(f, steps) == e
        code = cli.main(["factorize", *paths])
    out = json.loads(capsys.readouterr().out)
    assert (code, out["count"], out["recomposition"]) == (0, 1, "ok")
    assert calls == []
