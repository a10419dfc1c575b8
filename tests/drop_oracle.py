"""Drop-by-drop references for the constructions that skip steps.

`build_sequence` takes each stage of the schedule as one run.
`replay_drops` takes the same schedule, `drop_schedule`'s expansion of
`PrescriptionSolution.stages()`, one elementary injection at a time
with `drop`, and asserts each step's schedule invariants, the weight
among them against the paper's formula (`weight_schedule`), so the
tests can hold the runs to the chain of drops the paper iterates.

`factorize` reads each cone's differing cells once and drops them class
by class.  `rescan_factorize` finds every step afresh: it re-scans the
current family's list for the first jump where E differs, so the tests
can hold the walk to it step for step.

`drop`, `apply_run` and `drop_counts` rewrite each coface's jump list
over a box of sigma0's classes with `_meet_coface` (`_meet_box` for
runs and cells, its memo `_meet_unit` for drops).  `grid_meet` takes the
same rewrite on a whole grid, and `grid_drop` takes a drop that way: it
meets each coface's grid with the target on the one cell of the drop
and reads the invariants off the gaps, the grid points where the value
fell, so the tests can hold the list rewrite to both.

Both read their canonical lists off the grids with `_canonical_flat`,
as does `grid_hull`, the reflexive hull on meet grids: each cone's grid
is its facet's met with its last ray's values, so the tests can hold
the hull's closed form, read off the ray ends with no grid, to it.

`_cells` reads where two families differ off their jump lists, with
no grid.  `grid_cells` reads the same cells off both families' values
on their whole joint grid, so the tests can hold the walk to it.

`unchecked` builds the broken families the tests feed to the checks:
the constructor's canonical lists, wrapped by `_canonical` with no
validation.
"""

from __future__ import annotations

from itertools import islice, product as iproduct
from operator import itemgetter, mul
from typing import Iterator, Sequence

from tsk.chern import _grid_flat, _strides
from tsk.fan import Cone, Weight
from tsk.linalg import FULL, ZERO, Subspace, echelon_hyperplane, join_all
from tsk.multifilt import (
    Cell,
    ElementaryInjection,
    Jump,
    JumpList,
    Multifiltration,
    _axes,
    _canonical_jumps,
    drop,
    eval_jumps,
)
from tsk.prescribe import PrescriptionSolution
from tsk.reflexive import to_multifiltration


def unchecked(fan, jumps) -> Multifiltration:
    """The family of `jumps` (missing cones empty), each list sorted and
    canonicalized as the constructor does, but not validated."""
    lists = {}
    for cone in fan.all_cones(min_dim=1):
        raw = tuple(sorted(jumps.get(cone, ()), key=itemgetter(0)))
        lists[cone] = _canonical_jumps.__wrapped__(raw)
    return Multifiltration._canonical(fan, lists)


def weight_schedule(c_rho0: int, p: Sequence[int], k: int, j: int) -> int:
    """m_Sigma^{k,j} = -c_rho0 + sum_{3 <= i < k} p_i + (j - 1)."""
    n = len(p) + 2
    if not 3 <= k <= n:
        raise ValueError(f"k must be in [3, {n}], got {k}")
    if not 1 <= j <= p[k - 3]:
        raise ValueError(f"j must be in [1, p_{k}] = [1, {p[k - 3]}], got {j}")
    return -c_rho0 + sum(p[i - 3] for i in range(3, k)) + (j - 1)


def drop_schedule(solution: PrescriptionSolution) -> Iterator[tuple[int, int, Cone, Weight]]:
    """The drop schedule (k, j, sigma_k, m_{k,j}), stage by stage: each
    stage of `solution.stages()` expanded into its p_k classes.

    Lazy: the count can be astronomically large.
    """
    for k, sigma, head, pk in solution.stages():
        for j in range(1, pk + 1):
            yield k, j, sigma, head + (j - 1,)


# Per solution: the start, the steps replayed so far, and the rest of
# the schedule, so every prefix a test asks for comes from one replay.
_REPLAYS: dict[
    PrescriptionSolution,
    tuple[Multifiltration, list[ElementaryInjection], Iterator[tuple[int, int, Cone, Weight]]],
] = {}


def replay_drops(
    solution: PrescriptionSolution, limit: int | None = None
) -> tuple[Multifiltration, tuple[ElementaryInjection, ...]]:
    """Replay the first `limit` steps (all with None) of
    `drop_schedule(solution)` with `drop` from the start sheaf.

    Every step must come back saturated with the scheduled k0, sigma0,
    m0 and m_Sigma.  Returns the final sheaf and the injections, in
    schedule order.
    """
    if solution not in _REPLAYS:
        start = to_multifiltration(solution.problem.start_filtration())
        _REPLAYS[solution] = (start, [], drop_schedule(solution))
    start, injections, schedule = _REPLAYS[solution]
    c0, p = solution.problem.c_rho0, solution.p
    more = None if limit is None else max(0, limit - len(injections))
    for k, j, sigma, m0 in islice(schedule, more):
        inj = drop(injections[-1].e if injections else start, sigma, m0, ZERO)
        assert inj.saturated, (k, j)
        assert (inj.k0, inj.sigma0, inj.m0) == (k, sigma, m0), (k, j)
        assert inj.m_Sigma == weight_schedule(c0, p, k, j), (k, j)
        injections.append(inj)
    chain = tuple(injections[:limit])
    return (chain[-1].e if chain else start), chain


def rescan_factorize(e: Multifiltration, f: Multifiltration) -> list[ElementaryInjection]:
    """The factorization of E c F, found one step at a time.

    Visits the cones in (dim, lex) order and, while the current family G
    differs from E on the cone sigma0, takes the drop of G at m0, the
    first jump (lambda, W) of G's list on sigma0 with E^sigma0_lambda !=
    W, to the echelon hyperplane H >= E^sigma0_m0.  m0 is the lex-first
    class mu where they differ: mu is componentwise minimal, so G and E
    agree one step below it and G^sigma0_mu > E^sigma0_mu >= their join
    there, so mu is a jump of G.

    Each step checks what a valid E c F guarantees, so that no E sends
    m0 along an axis without end: G has a jump where E differs, E <= G
    there, and m0_i < t_i, the largest axis-i coordinate in E's and F's
    lists on sigma0 (from t_i on, both have stabilized to their values
    on the facet without ray i, where they agree).  A failed check is a
    ValueError.
    """
    steps: list[ElementaryInjection] = []
    current = f
    for sigma0 in e.fan.all_cones(min_dim=1):
        while current.jumps[sigma0] != e.jumps[sigma0]:
            for m0, value in current.jumps[sigma0]:
                inner = eval_jumps(e.jumps[sigma0], m0)
                if inner is not value:
                    break
            else:
                raise ValueError(f"no jump of G on {sigma0!r} differs from E")
            top = [ax[-1] for ax in _axes(e.jumps[sigma0] + f.jumps[sigma0], len(sigma0))]
            if not inner <= value or any(x >= t for x, t in zip(m0, top)):
                raise ValueError(f"E cannot differ from G at class {m0!r} on {sigma0!r}")
            step = drop(current, sigma0, m0, echelon_hyperplane(value, inner))
            steps.append(step)
            current = step.e
    return steps


def grid_cells(e: Multifiltration, f: Multifiltration, cone: Cone) -> list[Cell]:
    """The cells of the cone where E and F differ, with both values.

    Both families are constant on the cells lo <= g < hi of their joint
    grid, one per grid point lo, with hi the next grid point along each
    axis.  Returns (lo, hi, E's value, F's value) for each cell where the
    values differ, in row-major order; hi is None for a cell unbounded
    above (lo is the last grid point along some axis).
    """
    je, jf = e.jumps[cone], f.jumps[cone]
    axes = _axes(je + jf, len(cone))
    ve, vf = _grid_flat(je, axes)[0], _grid_flat(jf, axes)[0]
    following = [dict(zip(axis, axis[1:])) for axis in axes]
    cells: list[Cell] = []
    for lo, u, v in zip(iproduct(*axes), ve, vf):
        if u is not v:
            hi = tuple(map(dict.get, following, lo))
            cells.append((lo, None if None in hi else hi, u, v))
    return cells


def widened_axes(jumps: JumpList, d: int, extra) -> list[list[int]]:
    """`_axes(jumps, d)`, each axis i widened by the coordinates extra[i]."""
    return [sorted({*axis, *xs}) for axis, xs in zip(_axes(jumps, d), extra)]


def _box_grid(jumps: JumpList, cone: Cone, sigma0: Cone, lo: Weight, hi: Weight):
    """G's grid on the coface `cone`, widened by the box's corners lo and
    hi on sigma0's axes, so that the box is a block of grid points: the
    axes, the flat values, the strides and the block's index ranges."""
    pos = [cone.index(r) for r in sigma0]
    corners: list[set[int]] = [set() for _ in cone]
    for p, x, y in zip(pos, lo, hi):
        corners[p].update((x, y))
    axes = widened_axes(jumps, len(cone), corners)
    values, strides = _grid_flat(jumps, axes)
    ranges = [range(len(axis)) for axis in axes]
    for p, x, y in zip(pos, lo, hi):
        ranges[p] = range(axes[p].index(x), axes[p].index(y))
    return axes, values, strides, ranges


def _meet(v: Subspace, w: Subspace) -> Subspace:
    """v & w by case analysis (two distinct lines meet in ZERO)."""
    return v if w is v or w is FULL else w if v is FULL else ZERO


def _canonical_flat(
    axes: Sequence[Sequence[int]], flat: Sequence[Subspace], strides: Sequence[int]
) -> JumpList:
    """The canonical jump list of a monotone family given on a flat grid.

    Keeps exactly the grid points whose value strictly exceeds the join
    of the values one grid step below along each axis (ZERO off-grid),
    in row-major order over the sorted axes, which is lexicographic.
    On any grid that holds every jump coordinate of the family this is
    its unique minimal list.  Joins by case analysis, as in
    `_grid_flat`'s passes.
    """
    out: list[Jump] = []
    points = zip(iproduct(*(range(len(a)) for a in axes)), iproduct(*axes), flat)
    for k, (idx, coords, v) in enumerate(points):
        if v.dim == 0:
            continue
        below = ZERO
        for i, j in enumerate(idx):
            if j:
                u = flat[k - strides[i]]
                if u.dim and u is not below:
                    below = u if below.dim == 0 else FULL
                    if below is v or below is FULL:
                        break
        else:
            out.append((coords, v))
    return tuple(out)


def grid_hull(mf: Multifiltration) -> Multifiltration:
    """`reflexive_hull(mf)` on meet grids.

    The hull is constant on the cells of the product of the ray levels
    (each ray's canonical jump coordinates).  A cone's meet grid there
    is its facet cone[:-1]'s, met point by point with its last ray's
    values, and its list is the grid's `_canonical_flat`.
    """
    flats: dict[Cone, list[Subspace]] = {(): [FULL]}
    hull: dict[Cone, JumpList] = {}
    for cone in mf.fan.all_cones(min_dim=1):
        flat = [_meet(v, w) for v in flats[cone[:-1]] for _, w in mf.jumps[(cone[-1],)]]
        flats[cone] = flat
        axes = [[c[0] for c, _ in mf.jumps[(ray,)]] for ray in cone]
        hull[cone] = _canonical_flat(axes, flat, _strides(axes))
    return Multifiltration._canonical(mf.fan, hull)


def grid_meet(
    jumps: JumpList, cone: Cone, sigma0: Cone, lo: Weight, hi: Weight, w: Subspace
) -> JumpList:
    """The canonical list of G^cone_g & w on the classes g whose
    coordinates on sigma0's rays lie in the box lo <= g' < hi, and of
    G^cone_g elsewhere, read off G's grid widened by the box's corners:
    what `_meet_coface` must write on the coface, but with no
    precondition on the jumps below the box."""
    axes, values, strides, ranges = _box_grid(jumps, cone, sigma0, lo, hi)
    for idx in iproduct(*ranges):
        k = sum(map(mul, idx, strides))
        values[k] = _meet(values[k], w)
    return _canonical_flat(axes, values, strides)


def grid_drop(
    f: Multifiltration, sigma0: Cone, m0: Weight, target: Subspace
) -> ElementaryInjection:
    """`drop(f, sigma0, m0, target)` on whole grids.

    The preconditions and their ValueErrors are `drop`'s.  Per coface,
    sigma0 included, in (dim, lex) order, it meets F's grid with the
    target on the cell [m0, m0 + 1) of sigma0, and E's list is the
    `_canonical_flat` of the result.  The gaps are the grid points
    where dim F - dim E = 1.  The threshold a_j is the first gap along
    the new axis of the facet-coface sigma0 + ray_j, and E c F is
    saturated when every coface has as many gaps as the box {sigma0
    coords == m0, new coords >= a_j} has grid points.
    """
    sigma0 = tuple(sigma0)
    m0 = tuple(m0)
    if sigma0 not in f.jumps:
        raise ValueError(f"{sigma0!r} is not a cone of dimension >= 1")
    value = f.evaluate(sigma0, m0)
    if not target <= value or value.dim - target.dim != 1:
        raise ValueError(f"target {target!r} is not a hyperplane of {value!r}")
    below = join_all(
        f.evaluate(sigma0, m0[:i] + (x - 1,) + m0[i + 1 :]) for i, x in enumerate(m0)
    )
    if not below <= target:
        raise ValueError(f"the values strictly below {m0!r} are not inside {target!r}")

    new_jumps: dict[Cone, JumpList] = dict(f.jumps)
    a_ray: dict[int, int] = {}
    m_sigma: dict[Cone, Weight] = {}
    saturated = True
    hi = tuple(x + 1 for x in m0)
    for cone in f.fan.cofaces(sigma0):
        axes, values, strides, ranges = _box_grid(f.jumps[cone], cone, sigma0, m0, hi)
        gaps = []
        for idx in iproduct(*ranges):
            k = sum(map(mul, idx, strides))
            v = values[k]
            u = _meet(v, target)
            if u is not v:
                values[k] = u
                gaps.append(k)
        new_jumps[cone] = _canonical_flat(axes, values, strides)
        new = [(p, r) for p, r in enumerate(cone) if r not in sigma0]
        if len(new) == 1:
            p, ray = new[0]
            a_ray[ray] = axes[p][min(k // strides[p] % len(axes[p]) for k in gaps)]
        m_sigma[cone] = tuple(
            m0[sigma0.index(r)] if r in sigma0 else a_ray[r] for r in cone
        )
        box = 1
        for p, r in new:
            box *= sum(1 for x in axes[p] if x >= a_ray[r])
        saturated = saturated and len(gaps) == box

    m_rho = dict(zip(sigma0, m0))
    m_rho.update(a_ray)
    return ElementaryInjection(
        e=Multifiltration._canonical(f.fan, new_jumps),
        f=f,
        k0=len(sigma0),
        sigma0=sigma0,
        m0=m0,
        dropped=target,
        m_sigma=m_sigma,
        m_rho=m_rho,
        m_Sigma=sum(m_rho.values()),
        saturated=saturated,
    )
