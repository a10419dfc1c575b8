"""Multifiltrations: torsion-free equivariant sheaves as jump data.

A multifiltration of rank 2 on the fan of P^n assigns to every cone
sigma and every class m in M/(sigma^perp & M) a subspace E^sigma_m of
C^2, monotone in m, bounded below, with finitely many jumps, and
compatible along facets:  E^tau_m = union_i E^sigma_{m + i m_tau}.

Encoding: for each cone sigma (dim >= 1) a finite list of jumps
(lambda, W) with

    E^sigma_mu = join { W : lambda <= mu componentwise }.

Monotonicity and boundedness below are then automatic; the validator
checks facet compatibility and that the deep value is all of C^2.
Every such function has a unique minimal ("canonical") jump list: the
classes where the value strictly exceeds the join of the values one
step below in each axis.  Canonical lists make equality of families a
list comparison, and so facet compatibility too: stabilizing E^sigma
along a ray deletes that coordinate from its jumps, and the result
must canonicalize to the facet's list.

Grids are flat lists in row-major order (`_grid_flat`).  The
constructions on grids (`reflexive_hull`, `apply_run`, `drop_counts`)
read their canonical lists off the grids they have already computed
(`_canonical_flat`).  The constructor, the facet check and `drop`
canonicalize raw lists with `_canonical_jumps` (cached for the lists
the constructor keeps), which builds no grid: only jump coordinates can
be canonical jumps, so it scans the list, and parsing a document costs
what its lists hold, not what their grids do.

The elementary-injection machinery (delta invariant, drop,
elementary_check, factorize) follows the equal-rank factorization
theory: an elementary injection E c F drops exactly one jump value by
one dimension at a single class m0 of a single cone sigma0 and
intersects everything above with the dropped hyperplane.  On a coface
of sigma0 that changes only the slice g' = m0, g' the coordinates of g
on sigma0's rays, where G^tau_g meets the hyperplane.  `drop` rewrites
each coface's jump list there and builds no grid: the jumps off the
slice stay, the slice's jumps come again one step up each axis of
sigma0, and, the lattice of subspaces of C^2 being modular, the met
values are generated by the slice's jumps whose value holds the
hyperplane and by the joins of pairs of distinct other lines; the
injection's invariants are read off the slice's jumps outside the
hyperplane.  The per-cone count of the torsion profile is the rewrite
G^tau_g & E^sigma0_g' of sigma0's cofaces on the grid cells of sigma0
where the values differ (`_meet_cells`), and `apply_run` writes a run
of drops to ZERO at consecutive classes along one axis as one such
rewrite, on the union of their cells.  The cells where two families
differ are read off their joint grid by `_cells` alone.  `factorize`,
`drop_counts` and `delta` take each cone's cells from `_checked_cells`,
which checks E c F on the cone and sums the dim differences:
`factorize` walks the cones once and drops each differing class in lex
order, `drop_counts` walks them the same way and takes each cone's
drops as one rewrite, and `delta` sums, checking E c F on the cones it
leaves out too (`_contained_cells`).  `elementary_check` locates or
refutes a single drop on the `_cells`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, product as iproduct
from operator import itemgetter, le, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from .fan import Cone, Fan, Weight
from .linalg import FULL, ZERO, Subspace, echelon_hyperplane, join_all

Jump = tuple[Weight, Subspace]
JumpList = tuple[Jump, ...]


class InvalidFamily(ValueError):
    """The data does not define a multifiltration (axiom violated)."""


class NotElementary(ValueError):
    """The pair of families is not an elementary injection."""


# ---------------------------------------------------------------------------
# jump-list evaluation on grids


def _axes(jumps: JumpList, d: int, extra: Sequence[Iterable[int]] = ()) -> list[list[int]]:
    """Sorted per-axis coordinate sets of a jump list (plus extras)."""
    cols = [set(xs) for xs in zip(*(coords for coords, _ in jumps))] or [
        set() for _ in range(d)
    ]
    for i, xs in enumerate(extra):
        cols[i].update(xs)
    return [sorted(c) for c in cols]


def _strides(axes: Sequence[Sequence[int]]) -> list[int]:
    """Row-major strides of the grid over the axes."""
    strides = [1] * len(axes)
    for i in range(len(axes) - 1, 0, -1):
        strides[i - 1] = strides[i] * len(axes[i])
    return strides


def _grid_flat(
    jumps: JumpList, axes: Sequence[Sequence[int]]
) -> tuple[list[Subspace], list[int]]:
    """Evaluate the family at every point of the axes grid, flattened.

    `flat` holds the values in row-major order over the axes (the order
    of `iproduct(*axes)`), and `strides` are the row-major strides, so
    the predecessor of flat index k one grid step down axis i is
    k - strides[i].  Each jump is seeded at its own grid point with a
    checked `Subspace.join`, so a value that is no Subspace raises.  The
    value at a point is the join of the seeds componentwise below it,
    a prefix join along every axis, so it is d passes, one per axis:
    with stride s, the grid splits into contiguous blocks of s * len(axis)
    points, and in each block every point past the first s joins its
    predecessor k - s, in ascending order so that the join runs along
    the whole axis.  The passes join by case analysis (two
    distinct nonzero values join to FULL), since every operand is an
    already checked value.
    """
    strides = _strides(axes)
    size = strides[0] * len(axes[0]) if axes else 1
    flat = [ZERO] * size
    index_of = [{x: j for j, x in enumerate(a)} for a in axes]
    for coords, w in jumps:
        k = sum([ix[x] * s for ix, x, s in zip(index_of, coords, strides)])
        flat[k] = flat[k].join(w)
    for s, axis in zip(strides, axes):
        block = s * len(axis)
        for start in range(0, size, block or 1):  # block is 0 only on an empty grid
            for k in range(start + s, start + block):
                u = flat[k - s]
                if u.dim:
                    v = flat[k]
                    if u is not v:
                        flat[k] = u if v.dim == 0 else FULL
    return flat, strides


def _canonical_flat(
    axes: Sequence[Sequence[int]], flat: Sequence[Subspace], strides: Sequence[int]
) -> JumpList:
    """The canonical jump list of a monotone family given on a flat grid.

    Keeps exactly the grid points whose value strictly exceeds the join
    of the values one grid step below along each axis (ZERO off-grid),
    in row-major order over the sorted axes, which is lexicographic.
    On any grid that holds every jump coordinate of the family this is
    its unique minimal list.  Joins as in `_grid_flat`'s pass.
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


def eval_jumps(jumps: JumpList, mu: Weight) -> Subspace:
    """E^sigma at the class with coordinates mu (join semantics).

    Any list of jumps, in any order: the join of the values at the jumps
    componentwise <= mu, stopping at FULL.
    """
    out = ZERO
    for coords, w in jumps:
        if all(x <= y for x, y in zip(coords, mu)):
            out = out.join(w)
            if out is FULL:
                break
    return out


@lru_cache(maxsize=65536)
def _canonical_jumps(jumps: JumpList) -> JumpList:
    """The unique minimal jump list generating the same family.

    No grid is built.  A class g that is no jump coordinate has every
    jump lambda <= g strictly below it in some axis, so its value is the
    join of the values one step below it and it is never a canonical
    jump.  So visit the distinct jump coordinates g in lex order.  The
    join of the values one step below g is J(g), the join of the
    canonical jumps found so far that lie componentwise below g: every
    class below g comes earlier in lex order.  The value at g is V(g),
    J(g) joined with the jumps at g, and (g, V(g)) is kept when it is
    not J(g).  With r jumps, K canonical ones and d axes this is
    O(r * K * d), not the grid's prod |axis_i| (r^d when scattered).
    The jumps at g join with a checked `Subspace.join`, so a value that
    is no Subspace raises; J(g) joins by case analysis.
    """
    out: list[Jump] = []
    for g, at_g in groupby(sorted(jumps, key=itemgetter(0)), key=itemgetter(0)):
        below = ZERO
        for coords, w in out:
            if w is not below and all(map(le, coords, g)):
                below = w if below is ZERO else FULL
                if below is FULL:
                    break
        value = below
        for _, w in at_g:
            value = value.join(w)
        if value is not below:
            out.append((g, value))
    return tuple(out)


# ---------------------------------------------------------------------------
# the family container


class Multifiltration:
    """Rank-2 multifiltration on the fan of P^n, canonical jump lists.

    `jumps` maps every cone of dimension >= 1 to its canonical jump
    list; the zero cone is implicit (single class, value C^2).
    Instances are immutable; equality is equality of the families as
    functions (== of canonical lists).
    """

    __slots__ = ("fan", "jumps")

    def __init__(
        self,
        fan: Fan,
        jumps: Mapping[Cone, Iterable[Jump]],
        validate: bool = True,
    ) -> None:
        canonical: dict[Cone, JumpList] = {}
        for cone in fan.all_cones(min_dim=1):
            raw = tuple(sorted(jumps.get(cone, ()), key=lambda jw: jw[0]))
            for coords, w in raw:
                if len(coords) != len(cone):
                    raise InvalidFamily(
                        f"jump {coords!r} has wrong arity for cone {cone!r}"
                    )
                if not isinstance(w, Subspace):
                    raise InvalidFamily(f"jump value {w!r} is not a subspace of C^2")
            canonical[cone] = _canonical_jumps(raw)
        unknown = set(jumps) - set(canonical)
        if unknown:
            raise InvalidFamily(f"jump lists for non-cones: {sorted(unknown)!r}")
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "jumps", canonical)
        if validate:
            self.validate()

    @classmethod
    def _canonical(cls, fan: Fan, jumps: dict[Cone, JumpList]) -> Multifiltration:
        """Wrap jump lists as they are, with no sort, canonicalization or
        validation: callers pass the canonical lists of a valid family."""
        mf = object.__new__(cls)
        object.__setattr__(mf, "fan", fan)
        object.__setattr__(mf, "jumps", jumps)
        return mf

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("Multifiltration is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multifiltration):
            return NotImplemented
        return self.fan == other.fan and self.jumps == other.jumps

    def __hash__(self) -> int:
        return hash((self.fan, tuple(sorted(self.jumps.items()))))

    def __repr__(self) -> str:
        total = sum(len(v) for v in self.jumps.values())
        return f"<Multifiltration on P^{self.fan.n}, {total} jumps>"

    # -- evaluation -----------------------------------------------------

    def evaluate(self, cone: Cone, mu: Weight) -> Subspace:
        """E^cone at the class with ray-ordered coordinates mu."""
        cone = tuple(cone)
        if len(cone) == 0:
            return FULL
        if cone not in self.jumps:
            raise ValueError(f"{cone!r} is not a cone of the fan of P^{self.fan.n}")
        if len(mu) != len(cone):
            raise ValueError(f"class {mu!r} has wrong arity for cone {cone!r}")
        return eval_jumps(self.jumps[cone], tuple(mu))

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Check the multifiltration axioms; raise InvalidFamily if broken.

        Monotonicity and boundedness below hold by construction (join
        encoding); this checks that the deep value of every cone is all
        of C^2 and facet compatibility.  It runs on parsed documents
        (hence `tsk validate`) and in the tests; the families tsk builds
        are valid by construction and are not re-checked.
        """
        fan = self.fan
        for cone, jumps in self.jumps.items():
            deep = join_all(w for _, w in jumps)
            if deep is not FULL:
                raise InvalidFamily(f"deep value at cone {cone!r} is {deep!r}, not C^2")
        # Stabilizing E^cone along the ray at `pos` deletes that coordinate
        # from its jumps; canonical lists are unique, so facet compatibility
        # is one list comparison.  The projected lists are one-off, so they
        # bypass the cache.
        for cone in fan.all_cones(min_dim=2):
            jumps = self.jumps[cone]
            for pos in range(len(cone)):
                facet = cone[:pos] + cone[pos + 1 :]
                projected = tuple((c[:pos] + c[pos + 1 :], w) for c, w in jumps)
                stabilized = _canonical_jumps.__wrapped__(projected)
                if stabilized != self.jumps[facet]:
                    raise InvalidFamily(
                        f"facet compatibility fails: cone {cone!r} stabilized"
                        f" along ray {cone[pos]} has jumps {stabilized!r}, but"
                        f" its facet {facet!r} stores {self.jumps[facet]!r}"
                    )

    # -- derived constructions -------------------------------------------

    def twist(self, d: Sequence[int]) -> "Multifiltration":
        """Tensor by the line bundle O(sum d_rho D_rho).

        Ray filtrations shift to E'^rho(i) = E^rho(i + d_rho): every
        jump coordinate moves by -d_rho on its ray's axis; lists stay canonical.
        """
        if len(d) != self.fan.n + 1:
            raise ValueError("need one twist integer per ray")
        moved = {}
        for cone, jumps in self.jumps.items():
            shift = [d[ray] for ray in cone]
            moved[cone] = tuple((tuple(map(sub, coords, shift)), w) for coords, w in jumps)
        return Multifiltration._canonical(self.fan, moved)

    def restrict_rays(self) -> dict[int, JumpList]:
        """The ray filtrations (jump lists on the 1-cones)."""
        return {ray: self.jumps[(ray,)] for ray in self.fan.rays}


def join_below(f: Multifiltration, cone: Cone, m0: Weight) -> Subspace:
    """The join of the values of F^cone one step below m0 along each axis."""
    below = ZERO
    for i in range(len(cone)):
        pred = m0[:i] + (m0[i] - 1,) + m0[i + 1 :]
        below = below.join(f.evaluate(cone, pred))
    return below


# ---------------------------------------------------------------------------
# reflexive hull


def reflexive_hull(mf: Multifiltration) -> Multifiltration:
    """The hull E^sigma_m = intersection of the ray values E^rho(m_rho).

    Depends only on the ray filtrations; reflexive families are fixed
    points of this operation.  The hull is constant on the cells of the
    product of the ray levels (each ray's canonical jump coordinates), so
    each cone's list is the `_canonical_flat` of its meet grid there.
    A cone's meet grid is that of its facet cone[:-1], which comes
    earlier in (dim, lex) order, met with its last ray's levels.  The
    result is valid by construction: every ray value reaches C^2, and
    stabilizing a meet along a ray drops that ray's term.
    """
    rays = mf.restrict_rays()
    flats: dict[Cone, list[Subspace]] = {(): [FULL]}
    hull: dict[Cone, JumpList] = {}
    for cone in mf.fan.all_cones(min_dim=1):
        # the meets by case analysis (two distinct lines meet in ZERO)
        flat = [
            v if v is w or w is FULL else w if v is FULL else ZERO
            for v in flats[cone[:-1]]
            for _, w in rays[cone[-1]]
        ]
        flats[cone] = flat
        axes = [[c[0] for c, _ in rays[ray]] for ray in cone]
        hull[cone] = _canonical_flat(axes, flat, _strides(axes))
    return Multifiltration._canonical(mf.fan, hull)


def is_reflexive(mf: Multifiltration) -> bool:
    return reflexive_hull(mf) == mf


# ---------------------------------------------------------------------------
# containment and the delta invariant


def _joint_grid(
    e: Multifiltration, f: Multifiltration, cone: Cone
) -> tuple[list[list[int]], list[Subspace], list[Subspace]]:
    """Axes holding the jumps of E and F on the cone and both families'
    flat grids over them (row-major, the order of `iproduct(*axes)`)."""
    je, jf = e.jumps[cone], f.jumps[cone]
    axes = _axes(je + jf, len(cone))
    return axes, _grid_flat(je, axes)[0], _grid_flat(jf, axes)[0]


def is_contained(e: Multifiltration, f: Multifiltration) -> bool:
    """Pointwise containment E^sigma_m <= F^sigma_m for all sigma, m:
    W <= F^sigma_lambda at every jump (lambda, W) of E, as E^sigma_mu is
    the join of the W at its jumps lambda <= mu and F is monotone."""
    if e.fan != f.fan:
        return False
    return all(
        w <= eval_jumps(f.jumps[cone], coords)
        for cone, jumps in e.jumps.items()
        for coords, w in jumps
    )


Cell = tuple[Weight, Weight | None, Subspace, Subspace]


def _cells(e: Multifiltration, f: Multifiltration, cone: Cone) -> list[Cell]:
    """The cells of the cone where E and F differ, with both values.

    Both families are constant on the cells lo <= g < hi of their joint
    grid, one per grid point lo, with hi the next grid point along each
    axis.  Returns (lo, hi, E's value, F's value) for each cell where the
    values differ, in row-major order; hi is None for a cell unbounded
    above (lo is the last grid point along some axis).
    """
    axes, ve, vf = _joint_grid(e, f, cone)
    following = [dict(zip(axis, axis[1:])) for axis in axes]
    cells: list[Cell] = []
    for lo, u, v in zip(iproduct(*axes), ve, vf):
        if u is not v:
            hi = tuple(map(dict.get, following, lo))
            cells.append((lo, None if None in hi else hi, u, v))
    return cells


def _contained_cells(e: Multifiltration, f: Multifiltration, cone: Cone) -> list[Cell]:
    """The `_cells(e, f, cone)`, each holding E's value inside F's:
    ValueError otherwise."""
    cells = _cells(e, f, cone)
    for lo, _, u, v in cells:
        if not u <= v:
            raise ValueError(
                f"E is not pointwise contained in F on {cone!r} at class {lo!r}"
            )
    return cells


def _checked_cells(
    e: Multifiltration, f: Multifiltration, cone: Cone
) -> tuple[list[Cell], int]:
    """The `_contained_cells(e, f, cone)` of a pair with E c F on the
    cone, and the sum over all its classes of dim F - dim E.

    The values differ on every cell, so the dim difference is positive,
    and a cell unbounded above makes the sum diverge: InvalidFamily.  A
    bounded cell adds its dim difference times its (integer) volume.
    """
    cells = _contained_cells(e, f, cone)
    total = 0
    for lo, hi, u, v in cells:
        if hi is None:
            raise InvalidFamily(
                f"divergent difference at cone {cone!r}: families differ"
                f" on the unbounded cell at {lo!r}"
            )
        volume = 1
        for x, y in zip(lo, hi):
            volume *= y - x
        total += (v.dim - u.dim) * volume
    return cells, total


class Infinity:
    """Sentinel: delta_k when Sigma*(k) is empty (the invariant is
    infinite there); exact, unlike the float math.inf."""

    _instance: "Infinity | None" = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = Infinity()


def delta(e: Multifiltration, f: Multifiltration) -> tuple[int | Infinity, ...]:
    """The invariant (delta_1, ..., delta_n) of an injection E c F.

    delta_1 sums dim F - dim E over all ray classes; for k >= 2 the sum
    runs over Sigma*(k), the k-cones all of whose facets carry a
    defined and vanishing facet-level delta; when Sigma*(k) is empty,
    delta_k = INFINITY (and stays INFINITY above).  Each summed cone
    comes from `_checked_cells`, and each cone left out of the sum from
    `_contained_cells`, as its difference may be unbounded; so a pair
    with E not in F raises ValueError.
    """
    if e.fan != f.fan:
        raise ValueError("families live on different fans")
    fan = e.fan
    per_cone: dict[Cone, int | None] = {}
    out: list[int | Infinity] = []
    for k in range(1, fan.n + 1):
        level_total = 0
        level_defined = False
        for cone in fan.cones(k):
            if k == 1:
                ok = True
            else:
                ok = all(per_cone.get(facet) == 0 for facet in fan.facets(cone))
            if not ok:
                per_cone[cone] = None
                _contained_cells(e, f, cone)
                continue
            value = _checked_cells(e, f, cone)[1]
            per_cone[cone] = value
            level_defined = True
            level_total += value
        out.append(level_total if level_defined else INFINITY)
    return tuple(out)


# ---------------------------------------------------------------------------
# elementary injections


class ElementaryInjection(NamedTuple):
    """A verified elementary injection E c F with its derived data.

    k0: dimension of the distinguished cone sigma0 (codim of the
    quotient support); m0: coordinates of the distinguished class;
    dropped: the retained hyperplane E^sigma0_m0; m_sigma: for each
    coface the class where its difference region starts (coordinates in
    the coface's ray order); m_rho: the ray weights of the quotient
    line bundle (all rays when k0 < n, only sigma0's when k0 = n);
    m_Sigma: their total, so Q = iota_*(O_V(-m_Sigma)) when saturated.
    """

    e: Multifiltration
    f: Multifiltration
    k0: int
    sigma0: Cone
    m0: Weight
    dropped: Subspace
    m_sigma: Mapping[Cone, Weight]
    m_rho: Mapping[int, int]
    m_Sigma: int
    saturated: bool

    def weight_sum(self, cone: Cone) -> int:
        """m_sigma as an integer: <u_sigma, m_sigma> = sum of coordinates."""
        return sum(self.m_sigma[cone])


def _meet_cells(
    jumps: JumpList, tau: Cone, sigma0: Cone, cells: Sequence[Cell]
) -> tuple[list[list[int]], list[int], list[Subspace]]:
    """Meet G^tau with the cells' values over the given cells of sigma0.

    `jumps` is G's list on tau, a coface of sigma0, and `cells` are
    disjoint bounded cells (lo, hi, w, ...) of sigma0's classes.  G's
    grid on tau is widened by the cells' corners on sigma0's axes, so
    each grid cell lies over one cell or over none.  Returns its axes and
    strides and the values G^tau_g & w for every class g whose
    coordinates g' on sigma0's rays lie in a cell lo <= g' < hi of value
    w (G^tau_g elsewhere).
    """
    pos = [tau.index(r) for r in sigma0]
    corners: list[set[int]] = [set() for _ in tau]
    for lo, hi, *_ in cells:
        for p, x, y in zip(pos, lo, hi):
            corners[p].update((x, y))
    axes = _axes(jumps, len(tau), corners)
    values, strides = _grid_flat(jumps, axes)
    bounds = [(0, len(axis)) for axis in axes]
    for lo, hi, w, *_ in cells:
        for p, x, y in zip(pos, lo, hi):
            bounds[p] = axes[p].index(x), axes[p].index(y)
        block = [0]
        for (start, stop), s in zip(bounds, strides):
            block = [k + j * s for k in block for j in range(start, stop)]
        for k in block:
            v = values[k]
            # the meet by case analysis (two distinct lines meet in ZERO)
            values[k] = v if w is v or w is FULL else w if v is FULL else ZERO
    return axes, strides, values


def drop(
    f: Multifiltration, sigma0: Cone, m0: Weight, target: Subspace
) -> ElementaryInjection:
    """Drop F^sigma0_m0 to the hyperplane `target`, intersecting above:
    the elementary injection E c F with its invariants.

    E^sigma_m = F^sigma_m & target on the cofaces sigma >= sigma0 for
    classes m <= m0 over sigma0 (on sigma0: target at m0, and F below it
    by the preconditions), and F elsewhere.  Preconditions: target has
    codimension 1 in F^sigma0_m0 and contains every value strictly below
    m0 (otherwise monotonicity would break); violations raise ValueError.

    Every cone that is not a coface keeps F's list object.  On a coface
    tau, with g' the coordinates of a class g on sigma0's rays, only the
    slice g' = m0 changes: for g' <= m0 and g' != m0, F^tau_g <=
    F^sigma0_g' (stabilization) lies in the join below m0, so in the
    target.  Split F^tau's list into the jumps `at` with lambda' = m0
    and the rest.  On the slice, F^tau_g = J_<(g) v J_=(g), the joins of
    the rest and of `at` below g, and J_< lies in the target (its jumps
    have lambda' <= m0, lambda' != m0).  The lattice of subspaces of C^2
    is modular, so E^tau_g = (J_< v J_=) & target = J_< v (J_= & target).
    E's list is the canonicalization of: the rest; each `at` jump again
    one step up each axis of sigma0, so that E = F off the slice; and,
    when the target is a line, (lambda, target) for each `at` jump whose
    value is FULL or the target, and (max(lambda1, lambda2), target) for
    each pair of distinct other lines, which generate J_= & target.  No
    grid is built, and the lists are one-off, so they bypass the cache,
    as in `validate`.

    The invariants are read off `out`, the `at` jumps whose value is not
    inside the target: on the slice, E^tau_g != F^tau_g exactly when some
    `out` jump lies below g.  The threshold a_j is the least new-axis
    coordinate in `out` on the facet-coface sigma0 + ray_j, which
    precedes every coface that needs it.  The difference lies in the box
    {g' = m0, new coords >= a_j} (below a_j, the facet-coface value,
    which bounds the coface's, is inside the target), and it is upward
    closed there, as F is monotone.  So E c F is saturated, the
    difference filling every box, when on every coface some `out` jump
    lies at or below the box's corner (m0, a_j), which is m_sigma.

    E needs no facet check: stabilizing along a ray of sigma0 leaves the
    region m <= m0, so the values are F's; stabilizing along a new ray
    commutes with `& target`, because the union is increasing and
    stabilizes.
    """
    sigma0 = tuple(sigma0)
    m0 = tuple(m0)
    if sigma0 not in f.jumps:
        raise ValueError(f"{sigma0!r} is not a cone of dimension >= 1")
    value = f.evaluate(sigma0, m0)
    if not target <= value or value.dim - target.dim != 1:
        raise ValueError(
            f"target {target!r} is not a hyperplane of F^{sigma0!r}_{m0!r}"
            f" = {value!r}"
        )
    below = join_below(f, sigma0, m0)
    if not below <= target:
        raise ValueError(
            f"monotonicity violated: the join of values strictly below"
            f" {m0!r} is {below!r}, not inside the target {target!r};"
            f" m0 is not minimal for this drop"
        )

    new_jumps: dict[Cone, JumpList] = dict(f.jumps)
    a_ray: dict[int, int] = {}
    m_sigma: dict[Cone, Weight] = {}
    saturated = True
    key = m0 if len(m0) > 1 else m0[0]  # what itemgetter reads off lambda
    for cone in f.fan.cofaces(sigma0):
        pos = [cone.index(r) for r in sigma0]
        on_sigma0 = itemgetter(*pos)
        raw: list[Jump] = []
        at: list[Jump] = []
        for jump in f.jumps[cone]:
            (at if on_sigma0(jump[0]) == key else raw).append(jump)
        lines: list[Jump] = []
        for coords, w in at:
            for p in pos:
                raw.append((coords[:p] + (coords[p] + 1,) + coords[p + 1 :], w))
            if target is not ZERO:
                if w is FULL or w is target:
                    raw.append((coords, target))
                else:
                    lines.append((coords, w))
        for i, (c1, w1) in enumerate(lines):
            for c2, w2 in lines[:i]:
                if w1 is not w2:
                    raw.append((tuple(map(max, c1, c2)), target))
        new_jumps[cone] = _canonical_jumps.__wrapped__(raw)

        out = [coords for coords, w in at if not w <= target]
        new = [(p, r) for p, r in enumerate(cone) if r not in sigma0]
        if len(new) == 1:
            p, ray = new[0]
            a_ray[ray] = min(coords[p] for coords in out)
        corner = tuple(m0[sigma0.index(r)] if r in sigma0 else a_ray[r] for r in cone)
        m_sigma[cone] = corner
        saturated = saturated and any(all(map(le, coords, corner)) for coords in out)

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


def elementary_check(e: Multifiltration, f: Multifiltration) -> ElementaryInjection:
    """Verify that E c F is elementary and derive its invariants.

    Locates sigma0 and m0 from the differences (clause (ii)), redoes the
    drop of F there to E's value with `drop`, which derives the
    invariants, and compares E's lists with the drop's (clause (iii)).
    Raises NotElementary with the violated clause, naming the first
    differing class, otherwise.  This is the explicit check for given
    pairs; the drops tsk takes are elementary by construction.
    """
    if e.fan != f.fan:
        raise NotElementary("families live on different fans")
    fan = e.fan
    differing = [c for c in fan.all_cones(min_dim=1) if e.jumps[c] != f.jumps[c]]
    if not differing:
        raise NotElementary("the families are equal")
    k0 = min(len(c) for c in differing)
    at_k0 = [c for c in differing if len(c) == k0]
    if len(at_k0) != 1:
        raise NotElementary(
            f"clause (ii): {len(at_k0)} cones of minimal dimension {k0} differ"
        )
    sigma0 = at_k0[0]
    for cone in differing:
        if not set(sigma0) <= set(cone):
            raise NotElementary(
                f"clause (iii): families differ at {cone!r},"
                f" not a coface of {sigma0!r}"
            )

    # The distinguished class: exactly one unit cell of difference.
    cells = _cells(e, f, sigma0)
    if len(cells) != 1:
        raise NotElementary(f"clause (ii): {len(cells)} classes of {sigma0!r} differ")
    m0, hi, dropped, value = cells[0]
    if hi is None:
        raise NotElementary(f"clause (ii): difference region of {sigma0!r} is unbounded")
    for x, y in zip(m0, hi):
        if y != x + 1:
            raise NotElementary(
                f"clause (ii): more than one class of {sigma0!r} differs"
                f" (cell of width {y - x} at {m0!r})"
            )
    if not dropped <= value or value.dim - dropped.dim != 1:
        raise NotElementary(
            f"clause (ii): at {sigma0!r}, {m0!r} the dimensions drop by"
            f" {value.dim - dropped.dim}, not 1"
        )

    # E is monotone and equals F on sigma0 off m0, so `dropped` holds
    # every value below m0: the drop's preconditions hold.
    inj = drop(f, sigma0, m0, dropped)
    for cone in fan.cofaces(sigma0)[1:]:
        if e.jumps[cone] == inj.e.jumps[cone]:
            continue
        g, _, found, expected = _cells(e, inj.e, cone)[0]
        if all(g[cone.index(r)] <= x for r, x in zip(sigma0, m0)):
            raise NotElementary(
                f"clause (iii): at {cone!r}, {g!r} expected"
                f" F^sigma & E0 = {expected!r}, found {found!r}"
            )
        raise NotElementary(
            f"clause (iii): families differ at {cone!r}, {g!r}"
            f" outside the region below {m0!r}"
        )
    return inj


def apply_elementary(
    f: Multifiltration, sigma0: Cone, m0: Weight, target: Subspace
) -> Multifiltration:
    """The family E of `drop(f, sigma0, m0, target)`."""
    return drop(f, sigma0, m0, target).e


def apply_run(
    f: Multifiltration, sigma0: Cone, m0: Weight, count: int
) -> Multifiltration:
    """Drop F^sigma0 to ZERO at the `count` consecutive classes m0,
    m0 + e, ..., m0 + (count - 1) e, e the unit step along sigma0's last
    axis: the family E of those `count` drops `drop(..., ZERO)`, taken
    in that order.

    Each of those drops meets the cofaces of sigma0 with ZERO on its own
    unit cell of sigma0 (see `drop`), and the cells are disjoint, so each
    drop sees F's values on its cell and the composite is one meet over
    their union: the cell from m0 to (m0 + 1) + (count - 1) e.  That is
    one `_meet_cells` call per coface, in (dim, lex) order, then
    `_canonical_flat`; with count = 1 the result is
    `drop(f, sigma0, m0, ZERO).e`.  The drops' preconditions and
    invariants are not checked: the caller checks the family it builds
    (`prescribe.build_sequence` does).
    """
    sigma0 = tuple(sigma0)
    m0 = tuple(m0)
    if sigma0 not in f.jumps or len(m0) != len(sigma0):
        raise ValueError(f"{m0!r} is not a class of the cone {sigma0!r}")
    if count < 0:
        raise ValueError(f"a run has a nonnegative count, got {count}")
    hi = tuple(x + 1 for x in m0[:-1]) + (m0[-1] + count,)
    cell = [(m0, hi, ZERO)]
    new_jumps: dict[Cone, JumpList] = dict(f.jumps)
    for cone in f.fan.cofaces(sigma0):
        axes, strides, values = _meet_cells(f.jumps[cone], cone, sigma0, cell)
        new_jumps[cone] = _canonical_flat(axes, values, strides)
    return Multifiltration._canonical(f.fan, new_jumps)


# ---------------------------------------------------------------------------
# factorization


def factorize(
    e: Multifiltration, f: Multifiltration
) -> list[ElementaryInjection]:
    """Factor an equal-rank injection E c F into elementary injections.

    Returns the chain peeled off F outward-in: the first entry is the
    elementary injection into F itself, and the k0 sequence is
    non-decreasing along the list.  Re-applying the drops to F in list
    order reproduces E; `recompose` checks that.

    One walk over the cones in (dim, lex) order, with G = F.  On a cone
    sigma0 where G differs from E, it reads the `_checked_cells(E, G,
    sigma0)` once and, class by class in lex order, takes dim G - dim E
    drops with `drop`, which derives each step's invariants: each lowers
    G^sigma0_m0 to the echelon hyperplane H >= E^sigma0_m0.  A drop at
    sigma0 changes sigma0 only at m0, and otherwise only sigma0's proper
    cofaces, all later in the walk.  So each step is at the (dim,
    lex)-minimal cone and the lex-first class where G and E differ, and
    its preconditions hold: the classes below m0 come earlier, where G
    is E by now, so their join lies in E^sigma0_m0 <= H.

    A drop keeps E c G: on a coface tau, at a class g whose coordinates
    g' on sigma0's rays are <= m0, E^tau_g <= E^sigma0_g' (stabilization)
    <= E^sigma0_m0 <= H, and elsewhere the drop keeps G's values.  G ends
    equal to E, which is then valid and inside F; so a pair that is not
    one (E not in F, or an E built with validate=False that is no family)
    fails a check of `_checked_cells` on some cone: E above G on a cell
    (ValueError) or a divergent unbounded cell (InvalidFamily).
    """
    if e.fan != f.fan:
        raise ValueError("families live on different fans")
    steps: list[ElementaryInjection] = []
    current = f
    for sigma0 in f.fan.all_cones(min_dim=1):
        if current.jumps[sigma0] == e.jumps[sigma0]:
            continue
        cells, _ = _checked_cells(e, current, sigma0)
        classes = [
            (m0, inner, value)
            for lo, hi, inner, value in cells
            for m0 in iproduct(*map(range, lo, hi))
        ]
        for m0, inner, value in sorted(classes, key=itemgetter(0)):
            for _ in range(value.dim - inner.dim):
                value = echelon_hyperplane(value, inner)
                step = drop(current, sigma0, m0, value)
                steps.append(step)
                current = step.e
    return steps


def drop_counts(e: Multifiltration, f: Multifiltration) -> dict[int, int]:
    """The torsion profile of E c F: {k: p_k} for every k with p_k > 0,
    p_k the number of k-elementary injections in `factorize(e, f)`, with
    work bounded by the cones, not by the drops.

    `factorize`'s walk, with its checks, taking each cone's drops as one
    rewrite.  On sigma0 their number is the count of the `_checked_cells
    (E, G, sigma0)`, and they compose to G^tau_g & E^sigma0_g' on every
    coface tau, with g' the coordinates of the class g on sigma0's rays.
    Each drop meets G^tau_g with a hyperplane H >= E^sigma0_m0 >=
    E^sigma0_g' on the region g' <= m0, so G never falls below the
    rewrite; and when G^sigma0 = E^sigma0, stabilization gives G^tau_g <=
    G^sigma0_g' = E^sigma0_g', so G is at most the rewrite.  On sigma0
    itself the rewrite is E^sigma0.  Off the cells, E^sigma0_g' =
    G^sigma0_g' >= G^tau_g and the meet changes nothing, so `_meet_cells`
    rewrites each proper coface on the cells alone, then
    `_canonical_flat`.
    """
    if e.fan != f.fan:
        raise ValueError("families live on different fans")
    fan = f.fan
    jumps = dict(f.jumps)
    g = Multifiltration._canonical(fan, jumps)  # G, rewritten in place
    counts: dict[int, int] = {}
    for sigma0 in fan.all_cones(min_dim=1):
        if e.jumps[sigma0] == jumps[sigma0]:
            continue
        cells, count = _checked_cells(e, g, sigma0)
        k0 = len(sigma0)
        counts[k0] = counts.get(k0, 0) + count
        jumps[sigma0] = e.jumps[sigma0]
        for tau in fan.cofaces(sigma0)[1:]:
            axes, strides, values = _meet_cells(jumps[tau], tau, sigma0, cells)
            jumps[tau] = _canonical_flat(axes, values, strides)
    return counts


def recompose(
    f: Multifiltration, steps: Sequence[ElementaryInjection]
) -> Multifiltration:
    """Re-apply the factorization drops to F in list order."""
    current = f
    for step in steps:
        current = apply_elementary(current, step.sigma0, step.m0, step.dropped)
    return current
