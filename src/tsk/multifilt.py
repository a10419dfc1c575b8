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

The constructor checks a family top-down (`_checked_lists`, which
`validate` runs too): it canonicalizes the n + 1 top cones' lists and
compares each (n-1)-cone's list with the stabilizations of both of its
top cofaces, each lower cone's with that of one coface.  Stabilizing
along two rays commutes, so by induction on codimension every cone is
then the stabilization of every top cone above it: every facet edge
holds, and the deep value, which stabilization keeps, is C^2 on every
cone (the argument is `validate`'s).  A given list equal to its
expected stabilization is canonical, canonical lists being unique, and
is kept as it is.  A canonical document so costs n + 1
canonicalizations and n(n + 1) + sum_{k=1}^{n-2} C(n + 1, k)
projections, about 2^(n+1), where checking every facet edge cost
2^(n+1) - 2 and (n + 1)(2^n - 2).

The walk and the coface rewrite `_meet_coface` canonicalize raw lists
with `_canonical_jumps` (cached for the lists the constructor keeps),
which builds no grid: only jump coordinates can be canonical jumps, so
it scans the list, and parsing a document costs what its lists hold,
not what their grids do.  The reflexive hull needs none:
each cone's list is a closed form in its rays' ends (`hull_of_ends`).
Nothing in this module builds a grid; `chern`'s mixed difference is
the one grid user.

The elementary-injection machinery (drop, elementary_check,
factorize) follows the equal-rank factorization
theory: an elementary injection E c F drops exactly one jump value by
one dimension at a single class m0 of a single cone sigma0 and
intersects everything above with the dropped hyperplane.  On a coface
of sigma0 that changes only the slice g' = m0, g' the coordinates of g
on sigma0's rays, where G^tau_g meets the hyperplane.  One rewrite,
`_meet_coface`, meets a coface with a value w over a box of sigma0's
classes, on its jump list (the lattice of subspaces of C^2 being
modular) and with no grid; `_meet_box` applies it to every coface,
read off the memoized `_coface_plan` of sigma0.

A unit drop is the rewrite on the unit box at m0, through the bounded
memo `_meet_unit`: `_checked_drop` checks the drop, reading the value
at m0 and the join below it off one scan of sigma0's list
(`_value_and_below`), and rewrites each coface there.  `drop` reads the
injection's invariants off the box's jumps outside the hyperplane,
`apply_elementary` is the same checked rewrite with no invariants, and
`factorize`'s steps are calls to `drop`, checks included.  So
`recompose`, replaying the drops that `factorize` has just taken on
the same lists, costs per step one scan of sigma0's list and a lookup
per coface.  `apply_run` writes a run of drops to ZERO at consecutive
classes along one axis as one `_meet_box` on the run's box, and
`drop_profile` takes a cone's drops as one `_meet_box` per differing
cell, reading the least weight of a cell's drops off its boxes with
`drop`'s rule; their boxes are not replayed, so they bypass the memo.
The cells where two families differ are the cells of their joint
grid, but `_cells`, which alone reads them, builds no grid: it walks
out from the jumps that one list has and the other has not, so it
costs the differing region times the list length.  `factorize` and
`drop_profile` take each cone's cells from `_checked_cells`, which
checks E c F on the cone and sums the dim differences: `factorize`
walks the cones once and drops each differing class in lex order, and
`drop_profile` walks them the same way (`drop_counts` is its count
view).  `elementary_check` is the one-step factorization: a
`drop_counts` total of 1, then `factorize`'s single step.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, product as iproduct
from operator import index, itemgetter, le, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from .fan import Cone, Fan, Weight
from .linalg import FULL, ZERO, Subspace, echelon_hyperplane, join_all
from .record import Frozen

Jump = tuple[Weight, Subspace]
JumpList = tuple[Jump, ...]


class InvalidFamily(ValueError):
    """The data does not define a multifiltration (axiom violated)."""


class NotElementary(ValueError):
    """The pair of families is not an elementary injection."""


# ---------------------------------------------------------------------------
# jump lists: evaluation and canonical lists


def _axes(jumps: JumpList, d: int) -> list[list[int]]:
    """Sorted per-axis coordinate sets of a jump list."""
    if not jumps:
        return [[] for _ in range(d)]
    return [sorted(set(xs)) for xs in zip(*(coords for coords, _ in jumps))]


def eval_jumps(jumps: JumpList, mu: Weight) -> Subspace:
    """E^sigma at the class with coordinates mu (join semantics).

    Any list of jumps, in any order: the join of the values at the jumps
    componentwise <= mu, stopping at FULL.
    """
    out = ZERO
    for coords, w in jumps:
        if all(map(le, coords, mu)):
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


def _meet_line(jumps: Iterable[Jump], w: Subspace) -> list[Jump]:
    """Generators of G & w, G the family of `jumps` (no ZERO values) and
    w a line.  G_g & w is w when some jump below g is FULL or w, or two
    below it are distinct other lines (joining to FULL), and ZERO
    otherwise: so (lambda, w) for each jump valued FULL or w, and
    (max(lambda1, lambda2), w) for each pair of distinct other lines."""
    out: list[Jump] = []
    lines: list[Jump] = []
    for coords, v in jumps:
        if v is FULL or v is w:
            out.append((coords, w))
        else:
            lines.append((coords, v))
    for i, (c1, v1) in enumerate(lines):
        for c2, v2 in lines[:i]:
            if v1 is not v2:
                out.append((tuple(map(max, c1, c2)), w))
    return out


# ---------------------------------------------------------------------------
# validation: one top-down walk over the fan

Edge = tuple[Cone, int, Cone]


@lru_cache(maxsize=64)
def _walk_plan(fan: Fan) -> tuple[tuple[Cone, ...], tuple[Edge, ...]]:
    """The top cones, and the facet edges (cone, pos, facet) that
    `_checked_lists` checks, the facet being the cone less its ray at
    `pos`: each (n-1)-cone under both of its top cofaces, then each
    lower cone under the one coface that adds the least ray it misses.
    By descending dimension, so each cone's coface is checked before it.
    Fans are interned: one plan per fan, not per document."""
    edges = []
    for k in range(fan.n - 1, 0, -1):
        for facet in fan.cones(k):
            missing = [r for r in fan.rays if r not in facet]
            for ray in missing[: 2 if k == fan.n - 1 else 1]:
                cone = tuple(sorted(facet + (ray,)))
                edges.append((cone, cone.index(ray), facet))
    return tuple(fan.cones(fan.n)), tuple(edges)


def _checked_lists(fan: Fan, lists: Mapping[Cone, JumpList]) -> dict[Cone, JumpList]:
    """The canonical lists of the family that `lists` (one per cone of
    dimension >= 1, in any order, not necessarily minimal) generate;
    InvalidFamily when it breaks an axiom.

    The walk of `_walk_plan`: canonicalize the top cones' lists (cached)
    and check their deep values; then, edge by edge, stabilize the
    cone's canonical list along the ray at `pos`, which deletes that
    coordinate from its jumps, and canonicalize that one-off projection,
    bypassing the cache.  A facet's list equal to it is kept; any other
    is canonicalized (cached) and compared again.
    """
    tops, edges = _walk_plan(fan)
    canonical: dict[Cone, JumpList] = {}
    for cone in tops:
        jumps = canonical[cone] = _canonical_jumps(lists[cone])
        deep = join_all(w for _, w in jumps)
        if deep is not FULL:
            raise InvalidFamily(f"deep value at cone {cone!r} is {deep!r}, not C^2")
    for cone, pos, facet in edges:
        stabilized = _canonical_jumps.__wrapped__(
            [(c[:pos] + c[pos + 1 :], w) for c, w in canonical[cone]]
        )
        stored = canonical.get(facet, lists[facet])
        if stored != stabilized:
            stored = _canonical_jumps(stored)
            if stored != stabilized:
                raise InvalidFamily(
                    f"facet compatibility fails: cone {cone!r} stabilized"
                    f" along ray {cone[pos]} has jumps {stabilized!r}, but"
                    f" its facet {facet!r} stores {stored!r}"
                )
        canonical[facet] = stored
    return canonical


# ---------------------------------------------------------------------------
# the family container


class Multifiltration(Frozen):
    """Rank-2 multifiltration on the fan of P^n, canonical jump lists.

    `jumps` maps every cone of dimension >= 1 to its canonical jump
    list; the zero cone is implicit (single class, value C^2).
    Equality is equality of the families as functions (== of canonical
    lists); the hash is its own, as the jumps dict is unhashable.  Jump
    coordinates go through `operator.index`, so arithmetic on them stays
    exact: a float raises TypeError.
    """

    __slots__ = ("fan", "jumps")

    def __init__(self, fan: Fan, jumps: Mapping[Cone, Iterable[Jump]]) -> None:
        given: dict[Cone, JumpList] = {}
        for cone in fan.all_cones(min_dim=1):
            raw = tuple([(tuple(map(index, c)), w) for c, w in jumps.get(cone, ())])
            for coords, w in raw:
                if len(coords) != len(cone):
                    raise InvalidFamily(
                        f"jump {coords!r} has wrong arity for cone {cone!r}"
                    )
                if not isinstance(w, Subspace):
                    raise InvalidFamily(f"jump value {w!r} is not a subspace of C^2")
            given[cone] = raw
        unknown = set(jumps) - set(given)
        if unknown:
            raise InvalidFamily(f"jump lists for non-cones: {sorted(unknown)!r}")
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "jumps", _checked_lists(fan, given))

    @classmethod
    def _canonical(cls, fan: Fan, jumps: dict[Cone, JumpList]) -> Multifiltration:
        """Wrap jump lists as they are, with no sort, canonicalization or
        validation: callers pass the canonical lists of a valid family."""
        mf = object.__new__(cls)
        object.__setattr__(mf, "fan", fan)
        object.__setattr__(mf, "jumps", jumps)
        return mf

    def __hash__(self) -> int:
        return hash((self.fan, tuple(sorted(self.jumps.items()))))

    def __repr__(self) -> str:
        total = sum(len(v) for v in self.jumps.values())
        return f"<Multifiltration on P^{self.fan.n}, {total} jumps>"

    # -- evaluation -----------------------------------------------------

    def evaluate(self, cone: Cone, mu: Weight) -> Subspace:
        """E^cone at the class with ray-ordered coordinates mu.  They go
        through `operator.index`, as the coordinates do: a float raises
        TypeError."""
        cone, mu = tuple(cone), tuple(map(index, mu))
        if len(cone) == 0:
            return FULL
        if cone not in self.jumps:
            raise ValueError(f"{cone!r} is not a cone of the fan of P^{self.fan.n}")
        if len(mu) != len(cone):
            raise ValueError(f"class {mu!r} has wrong arity for cone {cone!r}")
        return eval_jumps(self.jumps[cone], mu)

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Check the multifiltration axioms; raise InvalidFamily if broken.

        Monotonicity and boundedness below hold by construction (join
        encoding); this checks that the deep value of every cone is all
        of C^2 and facet compatibility, by the top-down walk of
        `_checked_lists` that the constructor runs, so parsed documents
        (hence `tsk validate`) are checked.  The families tsk builds are
        valid by construction, and `_canonical` wraps them unchecked.

        The walk checks every facet edge without visiting most of them.
        Stabilizing along two rays commutes.  Two top cones A and B meet
        in the (n-1)-cone A & B, which is checked against both, so a cone
        inside A & B gets the same expected list from A and from B.  By
        induction on codimension, each cone checked against one coface
        then equals the stabilization of every top cone above it, so
        every facet edge holds; and stabilization keeps the join of all
        values, the deep value, so it is C^2 on every cone when it is on
        the top cones.
        """
        _checked_lists(self.fan, self.jumps)

    # -- derived constructions -------------------------------------------

    def twist(self, d: Sequence[int]) -> "Multifiltration":
        """Tensor by the line bundle O(sum d_rho D_rho).

        Ray filtrations shift to E'^rho(i) = E^rho(i + d_rho): every
        jump coordinate moves by -d_rho on its ray's axis; lists stay canonical.
        The shifts go through `operator.index`, as the coordinates do.
        """
        if len(d) != self.fan.n + 1:
            raise ValueError("need one twist integer per ray")
        d = tuple(map(index, d))
        moved = {}
        for cone, jumps in self.jumps.items():
            shift = [d[ray] for ray in cone]
            moved[cone] = tuple((tuple(map(sub, coords, shift)), w) for coords, w in jumps)
        return Multifiltration._canonical(self.fan, moved)


def _value_and_below(jumps: JumpList, m0: Weight) -> tuple[Subspace, Subspace]:
    """The value at m0 of the family of a canonical list, and the join of
    its values one step below m0 along each axis, in one scan.  A jump
    lies one step below m0 along some axis exactly when it is <= m0 and
    not m0, and the canonical jump at m0, when there is one, carries the
    value there; otherwise the value is the join below."""
    value: Subspace | None = None
    below = ZERO
    for coords, w in jumps:
        if coords == m0:
            value = w
        elif all(map(le, coords, m0)):
            below = below.join(w)
    return below if value is None else value, below


# ---------------------------------------------------------------------------
# reflexive hull


def ray_ends(mf: Multifiltration) -> list[tuple[int, int, Subspace]]:
    """The ends (a, b, v) of each ray filtration, v its value at a: a
    canonical ray list is [(a, C^2)], so (a, a, FULL), or [(a, v), (b,
    C^2)] with v a line.  Any other list (lists wrapped unchecked by
    `Multifiltration._canonical`) raises InvalidFamily, naming the ray."""
    ends = []
    for ray in mf.fan.rays:
        jumps = mf.jumps[(ray,)]
        if not jumps or jumps[-1][1] is not FULL:
            raise InvalidFamily(f"ray {ray} never reaches C^2")
        (a,), v = jumps[0]
        if len(jumps) > 2 or len(jumps) == 2 and v.dim != 1:
            raise InvalidFamily(f"ray {ray} filtration is not reflexive rank-2 data")
        ends.append((a, jumps[-1][0][0], v))
    return ends


def hull_of_ends(fan: Fan, ends: Sequence[tuple[int, int, Subspace]]) -> Multifiltration:
    """The family E^sigma_m = meet of the ray values E^rho(m_rho), each
    ray given by its ends (a, b, v): ZERO below a, v on [a, b) and C^2
    from b on, v a line, or FULL when the ray is inactive (a = b).

    Each cone's canonical list in closed form.  Take sigma's lines, the
    distinct lines among its rays' v in order of first appearance, p_L
    with a on the rays carrying L and b on the others, and b_sigma, the
    b's.  The list is (p_L, L) per line, then (b_sigma, FULL) when sigma
    has fewer than two lines.  Proof: E^sigma_m contains L exactly on
    the up-set of p_L (off it, some ray is ZERO or another line), and is
    C^2 exactly from b_sigma on, so the list generates the family (two
    lines join to C^2 at b_sigma).  Each (p_L, L) is minimal: one step
    down along a ray of L makes that ray's value ZERO, and one step down
    along any other ray leaves ZERO or another line there, either of
    which meets L to ZERO.  One step below b_sigma along a ray leaves
    its v, or ZERO: with two distinct lines these join to C^2, so
    (b_sigma, FULL) is not a canonical jump, and with fewer they do not,
    so it is.  The list is in lex order: p_L and p_L' first differ on
    the first ray carrying either line, where the earlier one has a <
    b; and b_sigma is above every p_L.  So no sort, no
    `_canonical_jumps` and no grid are needed, and the family is valid
    by construction: stabilizing a meet along a ray drops its term.
    """
    hull: dict[Cone, JumpList] = {}
    for cone in fan.all_cones(min_dim=1):
        top = [ends[ray][1] for ray in cone]
        lines: dict[Subspace, list[int]] = {}  # line -> p_L, by first appearance
        for i, ray in enumerate(cone):
            a, _, v = ends[ray]
            if v is not FULL:
                lines.setdefault(v, top.copy())[i] = a
        jumps = [(tuple(p), line) for line, p in lines.items()]
        if len(lines) < 2:
            jumps.append((tuple(top), FULL))
        hull[cone] = tuple(jumps)
    return Multifiltration._canonical(fan, hull)


def reflexive_hull(mf: Multifiltration) -> Multifiltration:
    """The hull E^sigma_m = meet of the ray values E^rho(m_rho), read
    off the ray lists alone; reflexive families are its fixed points."""
    return hull_of_ends(mf.fan, ray_ends(mf))


def is_reflexive(mf: Multifiltration) -> bool:
    return reflexive_hull(mf) == mf


# ---------------------------------------------------------------------------
# containment and the cells where two families differ


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
    values differ, in row-major (lex) order; hi is None for a cell
    unbounded above (lo is the last grid point along some axis).

    No grid is built: the differing points are read off the two lists.
    Call D the joint grid's points where E and F differ.  At a point g,
    each family's value is the join of its jumps at g with its values at
    g's grid predecessors, one grid step down each axis (ZERO off the
    grid), since a jump below g and not at g lies below one of them.  So
    a point of D where the two lists carry the same jumps has a
    predecessor in D: every point of D is the coordinate of a jump that
    one list has and the other has not, or a grid successor of a point
    of D.  The walk seeds a stack with the coordinates of those unshared
    jumps, evaluates both lists (`eval_jumps`, whose join is checked) at
    each point it pops for the first time, and pushes the grid
    successors of each point of D; the cells are then sorted by lo.
    That reaches all of D and keeps nothing else: with r jumps on each
    side, at most 2r + |D| * d points, each evaluated in O(r * d), not
    the grid's prod |axis_i|.  The argument uses neither canonical lists
    nor E c F, so it holds for any pair of lists, the broken ones
    `_checked_cells` refuses included.
    """
    je, jf = e.jumps[cone], f.jumps[cone]
    axes = _axes(je + jf, len(cone))
    following = [dict(zip(axis, axis[1:])) for axis in axes]
    todo = [coords for coords, _ in set(je).symmetric_difference(jf)]
    seen: set[Weight] = set()
    cells: list[Cell] = []
    while todo:
        lo = todo.pop()
        if lo in seen:
            continue
        seen.add(lo)
        u, v = eval_jumps(je, lo), eval_jumps(jf, lo)
        if u is not v:
            hi = tuple(map(dict.get, following, lo))
            cells.append((lo, None if None in hi else hi, u, v))
            for i, y in enumerate(hi):
                if y is not None:
                    todo.append(lo[:i] + (y,) + lo[i + 1 :])
    cells.sort(key=itemgetter(0))
    return cells


def _checked_cells(
    e: Multifiltration, f: Multifiltration, cone: Cone
) -> tuple[list[Cell], int]:
    """The `_cells(e, f, cone)` of a pair with E c F on the cone, and
    the sum over all its classes of dim F - dim E.

    Any cell where E's value is not inside F's is a ValueError, checked
    on all the cells before the sum starts, so the first such lo in
    row-major order is named.  The values differ on every cell, so the
    dim difference is positive, and a cell unbounded above makes the sum
    diverge: InvalidFamily, at the first such lo.  A bounded cell adds
    its dim difference times its (integer) volume.  The cells are the
    joint grid's, in its row-major order, though `_cells` builds no grid.
    """
    cells = _cells(e, f, cone)
    for lo, _, u, v in cells:
        if not u <= v:
            raise ValueError(
                f"E is not pointwise contained in F on {cone!r} at class {lo!r}"
            )
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


Coface = tuple[Cone, tuple[int, ...], tuple[tuple[int, int], ...]]


@lru_cache(maxsize=1024)
def _coface_plan(fan: Fan, sigma0: Cone) -> tuple[Coface, ...]:
    """For each coface tau of sigma0 (sigma0 included), in (dim, lex)
    order: tau, the positions of sigma0's rays in tau, and (position,
    ray) for tau's other rays.  Fans are interned: one plan per cone,
    not per drop."""
    plan = []
    for cone in fan.cofaces(sigma0):
        pos = tuple(cone.index(r) for r in sigma0)
        new = tuple((p, r) for p, r in enumerate(cone) if r not in sigma0)
        plan.append((cone, pos, new))
    return tuple(plan)


def _meet_coface(
    jumps: JumpList, pos: tuple[int, ...], lo: Weight, hi: Weight, w: Subspace
) -> tuple[JumpList, JumpList]:
    """Meet a coface tau of sigma0 with w over the box lo <= g' < hi of
    sigma0's classes, g' the coordinates of a class g of tau at the
    positions `pos` of sigma0's rays in tau.

    Returns the canonical list of G^tau_g & w on the classes g whose g'
    lies in the box, and G^tau_g elsewhere, G^tau the family of `jumps`
    and w ZERO or a line; and `at`, the jumps (lambda, W) over the box.

    Precondition: every jump below the box and outside it (lambda' < hi
    componentwise, lambda' not >= lo) has W <= w.  Over the box, G^tau_g
    = J_<(g) v J_=(g), the joins of the other jumps and of `at` below g,
    and J_< <= w.  The lattice of subspaces of C^2 is modular, so G^tau_g
    & w = J_< v (J_= & w).  The new list is the canonicalization of: the
    other jumps; each `at` jump again on the box's upper face along each
    axis of sigma0 (coordinate hi_p), so that nothing changes off the
    box; and, when w is a line, the generators `_meet_line(at, w)` of
    J_= & w.  No grid is built, and the raw list is one-off, so it
    bypasses `_canonical_jumps`' cache, as the walk's projections do.  A
    unit box keeps one comparison per jump: lambda' == lo.  Both lists
    are tuples, so that the memo `_meet_unit` can hand them out again.
    """
    raw: list[Jump] = []
    at: list[Jump] = []
    if all(y - x == 1 for x, y in zip(lo, hi)):
        on_sigma0 = itemgetter(*pos)
        key = lo if len(lo) > 1 else lo[0]  # what itemgetter reads off lambda
        for jump in jumps:
            (at if on_sigma0(jump[0]) == key else raw).append(jump)
    else:
        spans = list(zip(pos, lo, hi))
        for jump in jumps:
            coords = jump[0]
            inside = all(x <= coords[p] < y for p, x, y in spans)
            (at if inside else raw).append(jump)
    for coords, v in at:
        for p, y in zip(pos, hi):
            raw.append((coords[:p] + (y,) + coords[p + 1 :], v))
    if w is not ZERO:
        raw += _meet_line(at, w)
    return _canonical_jumps.__wrapped__(raw), tuple(at)


# The unit-drop rewrite, memoized for `_checked_drop`: `recompose` after
# `factorize` replays every drop on the lists the walk has just written,
# so each of its rewrites is a hit.  A key is (coface list, sigma0's
# positions, m0, m0 + 1, target); it hashes in C, subspaces by identity.
# Bounded, since each entry keeps its lists alive.
_meet_unit = lru_cache(maxsize=4096)(_meet_coface)


def _meet_box(
    jumps: dict[Cone, JumpList],
    fan: Fan,
    sigma0: Cone,
    lo: Weight,
    hi: Weight,
    w: Subspace,
) -> dict[Cone, JumpList]:
    """Meet G with w over the box lo <= g' < hi of sigma0's classes:
    `_meet_coface` on each coface tau of sigma0 (sigma0 included), in the
    order of `_coface_plan`, rewriting `jumps[tau]` in place.  Returns
    each coface's `at`, its jumps over the box.

    Its callers, `apply_run` (a run's box) and `drop_profile` (a cell's),
    rewrite boxes that no later call rewrites again on the same lists, so
    they bypass the memo `_meet_unit`, which would only fill with them.
    """
    boxes: dict[Cone, JumpList] = {}
    for cone, pos, _ in _coface_plan(fan, sigma0):
        jumps[cone], boxes[cone] = _meet_coface(jumps[cone], pos, lo, hi, w)
    return boxes


def _checked_drop(
    f: Multifiltration, sigma0: Cone, m0: Weight, target: Subspace
) -> tuple[Cone, Weight, dict[Cone, JumpList], list[JumpList]]:
    """The preconditions and the coface rewrite of `drop(f, sigma0, m0,
    target)`: sigma0, m0 (its coordinates through `operator.index`), E's
    jump lists and each coface's `at`, in the order of `_coface_plan`.
    The preconditions are read off one scan of sigma0's list
    (`_value_and_below`), and each coface is rewritten on the unit box at
    m0 through the memo `_meet_unit`.  Every unit drop runs the checks,
    `factorize`'s steps included, though they never fire there."""
    sigma0 = tuple(sigma0)
    m0 = tuple(map(index, m0))
    if sigma0 not in f.jumps:
        raise ValueError(f"{sigma0!r} is not a cone of dimension >= 1")
    if len(m0) != len(sigma0):
        raise ValueError(f"class {m0!r} has wrong arity for cone {sigma0!r}")
    value, below = _value_and_below(f.jumps[sigma0], m0)
    if not target <= value or value.dim - target.dim != 1:
        raise ValueError(
            f"target {target!r} is not a hyperplane of F^{sigma0!r}_{m0!r}"
            f" = {value!r}"
        )
    if not below <= target:
        raise ValueError(
            f"monotonicity violated: the join of values strictly below"
            f" {m0!r} is {below!r}, not inside the target {target!r};"
            f" m0 is not minimal for this drop"
        )
    jumps = dict(f.jumps)
    hi = tuple([x + 1 for x in m0])
    boxes = []
    for cone, pos, _ in _coface_plan(f.fan, sigma0):
        jumps[cone], at = _meet_unit(jumps[cone], pos, m0, hi, target)
        boxes.append(at)
    return sigma0, m0, jumps, boxes


def drop(
    f: Multifiltration, sigma0: Cone, m0: Weight, target: Subspace
) -> ElementaryInjection:
    """Drop F^sigma0_m0 to the hyperplane `target`, intersecting above:
    the elementary injection E c F with its invariants.

    E^sigma_m = F^sigma_m & target on the cofaces sigma >= sigma0 for
    classes m <= m0 over sigma0 (on sigma0: target at m0, and F below it
    by the preconditions), and F elsewhere.  Preconditions: target has
    codimension 1 in F^sigma0_m0 and contains every value strictly below
    m0 (otherwise monotonicity would break); violations raise ValueError,
    and a class m0 with a coordinate that is no integer raises TypeError.

    Every cone that is not a coface keeps F's list object.  On a coface
    tau, with g' the coordinates of a class g on sigma0's rays, only the
    slice g' = m0 changes, and each coface is rewritten by `_meet_coface`
    on the unit box [m0, m0 + 1) with w = target, through its memo
    (`_checked_drop`, which `apply_elementary` shares).  Its precondition
    is the drop's: a jump of F^tau below m0 and off the slice has
    lambda' <= m0, lambda' != m0, so its value is at most
    F^sigma0_lambda' (stabilization), which lies in the join below m0,
    so in the target.

    The invariants are read off `out`, the jumps over the box (`at`)
    whose value is not inside the target, that is, is not the target,
    as the target is ZERO or a line and no canonical jump is ZERO.  On the
    slice, E^tau_g != F^tau_g exactly when some `out` jump lies below g.
    The threshold a_j is the least new-axis coordinate in `out` on the
    facet-coface sigma0 + ray_j, which precedes every coface that needs
    it in the `_coface_plan`.  The difference lies in the region {g' =
    m0, new coords >= a_j} (below a_j, the facet-coface value, which
    bounds the coface's, is inside the target), and it is upward closed
    there, as F is monotone.  So E c F is saturated, the difference
    filling every such region, when on every coface some `out` jump lies
    at or below its corner (m0, a_j), which is m_sigma: m_rho read at
    the coface's rays.

    E needs no facet check: stabilizing along a ray of sigma0 leaves the
    region m <= m0, so the values are F's; stabilizing along a new ray
    commutes with `& target`, because the union is increasing and
    stabilizes.
    """
    sigma0, m0, jumps, boxes = _checked_drop(f, sigma0, m0, target)
    m_rho = dict(zip(sigma0, m0))
    m_sigma: dict[Cone, Weight] = {}
    saturated = True
    for (cone, _, new), at in zip(_coface_plan(f.fan, sigma0), boxes):
        out = [coords for coords, w in at if w is not target]
        if len(new) == 1:
            ((p, ray),) = new
            m_rho[ray] = min([coords[p] for coords in out])
        corner = tuple([m_rho[r] for r in cone])
        m_sigma[cone] = corner
        saturated = saturated and any(all(map(le, coords, corner)) for coords in out)
    return ElementaryInjection(
        e=Multifiltration._canonical(f.fan, jumps),
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


def apply_elementary(
    f: Multifiltration, sigma0: Cone, m0: Weight, target: Subspace
) -> Multifiltration:
    """The family E of `drop(f, sigma0, m0, target)`: the same checked
    and memoized rewrite (`_checked_drop`, over the `_coface_plan` of
    sigma0), with the same errors, and none of the invariants `drop`
    derives."""
    return Multifiltration._canonical(f.fan, _checked_drop(f, sigma0, m0, target)[2])


def apply_run(
    f: Multifiltration, sigma0: Cone, m0: Weight, count: int
) -> Multifiltration:
    """Drop F^sigma0 to ZERO at the `count` consecutive classes m0,
    m0 + e, ..., m0 + (count - 1) e, e the unit step along sigma0's last
    axis: the family E of those `count` drops `drop(..., ZERO)`, taken
    in that order.

    Each of those drops meets the cofaces of sigma0 with ZERO on its own
    slice (see `drop`), and the slices are disjoint, so the composite is
    one `_meet_box` over the run's box, from m0 to (m0 + 1) + (count - 1)
    e, with w = ZERO; with count = 1 it is `drop(f, sigma0, m0,
    ZERO).e`.  The box's precondition is the schedule's: a jump below the
    box and outside it lies below one of the run's classes m and off the
    slices of the drops before it, so its value lies in the join below m,
    which the drop at m needs to be ZERO.  Neither that nor the drops'
    invariants are checked here: the caller checks the family it builds
    (`prescribe.build_sequence` does, after the fact).  m0's coordinates
    and count go through `operator.index`, so arithmetic stays exact: a
    float raises TypeError.
    """
    sigma0 = tuple(sigma0)
    m0 = tuple(map(index, m0))
    count = index(count)
    if sigma0 not in f.jumps or len(m0) != len(sigma0):
        raise ValueError(f"{m0!r} is not a class of the cone {sigma0!r}")
    if count < 0:
        raise ValueError(f"a run has a nonnegative count, got {count}")
    hi = tuple(x + 1 for x in m0[:-1]) + (m0[-1] + count,)
    new_jumps: dict[Cone, JumpList] = dict(f.jumps)
    _meet_box(new_jumps, f.fan, sigma0, m0, hi, ZERO)
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
    sigma0)` once, sorts the classes of the cells in lex order and, class
    by class, takes dim G - dim E drops, each lowering G^sigma0_m0 to the
    echelon hyperplane H >= E^sigma0_m0.  Each step is `drop(G, sigma0,
    m0, H)`, checks included.  They never fire here, as the preconditions
    hold: H has codimension 1 in G^sigma0_m0 by its choice, and a drop
    at sigma0 changes sigma0 only at m0, and otherwise only sigma0's
    proper cofaces, all later in the walk.  So each step is at the
    (dim, lex)-minimal cone and the lex-first class where G and E
    differ, the classes below m0 come earlier, where G is E by now, and
    their join lies in E^sigma0_m0 <= H.

    A drop keeps E c G: on a coface tau, at a class g whose coordinates
    g' on sigma0's rays are <= m0, E^tau_g <= E^sigma0_g' (stabilization)
    <= E^sigma0_m0 <= H, and elsewhere the drop keeps G's values.  G ends
    equal to E, which is then valid and inside F; so a pair that is not
    one (E not in F, or an E wrapped unchecked that is no family)
    fails a check of `_checked_cells` on some cone: E above G on a cell
    (ValueError) or a divergent unbounded cell (InvalidFamily).  The
    argument above uses only that E's values are monotone and lie in G's
    on the cells, so it holds for such an E up to that cone.
    """
    if e.fan != f.fan:
        raise ValueError("families live on different fans")
    steps: list[ElementaryInjection] = []
    current = f
    for sigma0 in f.fan.all_cones(min_dim=1):
        if current.jumps[sigma0] == e.jumps[sigma0]:
            continue
        cells, _ = _checked_cells(e, current, sigma0)
        classes = sorted(
            [
                (m0, inner, value)
                for lo, hi, inner, value in cells
                for m0 in iproduct(*map(range, lo, hi))
            ],
            key=itemgetter(0),
        )
        for m0, inner, value in classes:
            for _ in range(value.dim - inner.dim):
                value = echelon_hyperplane(value, inner)
                step = drop(current, sigma0, m0, value)
                steps.append(step)
                current = step.e
    return steps


def _least_weight(
    ats: Sequence[tuple[Sequence[Jump], tuple[int, ...], int]],
    target: Subspace,
    lo: Weight,
    hi: Weight,
) -> int:
    """The least m_Sigma of the drops to `target` at the classes lo <= g
    < hi of sigma0: sum(g) + sum_j a_j(g), a_j(g) the least new-axis
    coordinate (position p) of the jumps of facet-coface j in `ats`
    (its jumps over the box, sigma0's positions in it, p) whose value is
    not the target and whose sigma0-coordinates are <= g.

    Each facet list is read once.  a_j is constant on the pieces of the
    box cut at those jumps' sigma0-coordinates, so the least sum lies at
    a piece's low corner: a unit box has one, lo, and so has a top cone
    (k0 = n), which has no facet-coface, and reads sum(lo).
    """
    outs = [([c for c, w in at if w is not target], pos, p) for at, pos, p in ats]
    if all(y - x == 1 for x, y in zip(lo, hi)):
        return sum(lo) + sum([min([c[p] for c in out]) for out, _, p in outs])
    cuts = [{x} for x in lo]
    for out, pos, _ in outs:
        for c in out:
            for cut, q in zip(cuts, pos):
                cut.add(c[q])
    return min(
        sum(g)
        + sum(
            [
                min([c[p] for c in out if all([c[q] <= y for q, y in zip(pos, g)])])
                for out, pos, p in outs
            ]
        )
        for g in iproduct(*map(sorted, cuts))
    )


def drop_profile(
    e: Multifiltration, f: Multifiltration
) -> dict[int, tuple[int, int]]:
    """The torsion profile of E c F with each level's least weight: {k:
    (p_k, w_k)} for every k with p_k > 0, p_k the number of k-elementary
    injections in `factorize(e, f)` and w_k the least m_Sigma among them,
    with work bounded by the cones, not by the drops.

    `factorize`'s walk, with its checks, taking each cell's drops as one
    rewrite.  On sigma0 their number is the count of the `_checked_cells
    (E, G, sigma0)`.  The drops at a class m0 lower G^sigma0_m0 through
    hyperplanes to E^sigma0_m0, each meeting the slice g' = m0 of every
    coface (see `drop`), so they compose to the meet with E^sigma0_m0
    there, and the drops of a cell (lo, hi, u, v) to one `_meet_box` over
    lo <= g' < hi with w = u.  The cells are disjoint, so taking them in
    row-major order (`_cells` sorts them so), one `_meet_box` each,
    leaves the G that `factorize` leaves, E^sigma0 on sigma0 included.
    The cell order gives each box its precondition: a jump of a coface
    below the cell and outside it has lambda' over a componentwise-
    earlier, hence row-major earlier, cell of the joint grid (or below
    the grid, where G^sigma0 is ZERO), where G^sigma0 already equals
    E^sigma0.  So its value is at most G^sigma0_lambda' (stabilization;
    each row-major prefix of the cells is closed downward, so G stays a
    family) = E^sigma0_lambda' <= u, as E is monotone and u on the cell.

    The weights are read off the boxes `at` that each cell's `_meet_box`
    returns, with `drop`'s rule.  Drops at other classes change other
    slices only, so when `factorize` drops at a class m0 of the cell, G
    on the slice g' = m0 is G on the box before the cell's rewrite.  A
    drop to the hyperplane H there has m_Sigma = sum(m0) + sum_j a_j(m0)
    (sum(m0) alone when k0 = n: sigma0 has no facet-coface), a_j(m0)
    the least x with G^(sigma0 + j)_(m0, x) not inside H on the
    facet-coface sigma0 + j.  Each value is the join of the jumps below
    it; those below the box and outside it lie in u (the precondition
    above), so a_j(m0) is the least new-axis coordinate of the `at`
    jumps whose value is not H and whose sigma0-coordinates are <= m0.
    H is u when the cell takes one drop.  A FULL -> ZERO cell takes two:
    to H_1 = `echelon_hyperplane(FULL, ZERO)`, then to ZERO, when G on
    the slice is G & H_1, generated by `_meet_line(at, H_1)` (no jump
    below the box and outside it is nonzero).  `_least_weight` takes the
    least over the cell's classes.
    """
    if e.fan != f.fan:
        raise ValueError("families live on different fans")
    fan = f.fan
    jumps = dict(f.jumps)
    g = Multifiltration._canonical(fan, jumps)  # G, rewritten in place
    h1 = echelon_hyperplane(FULL, ZERO)
    profile: dict[int, tuple[int, int]] = {}
    for sigma0 in fan.all_cones(min_dim=1):
        if e.jumps[sigma0] == jumps[sigma0]:
            continue
        cells, count = _checked_cells(e, g, sigma0)
        facets = [
            (cone, pos, new[0][0])
            for cone, pos, new in _coface_plan(fan, sigma0)
            if len(new) == 1
        ]
        weights = []
        for lo, hi, u, v in cells:
            boxes = _meet_box(jumps, fan, sigma0, lo, hi, u)
            ats = [(boxes[cone], pos, p) for cone, pos, p in facets]
            if v is FULL and u is ZERO:
                meets = [(_meet_line(at, h1), pos, p) for at, pos, p in ats]
                weights.append(_least_weight(ats, h1, lo, hi))
                weights.append(_least_weight(meets, ZERO, lo, hi))
            else:
                weights.append(_least_weight(ats, u, lo, hi))
        k0, least = len(sigma0), min(weights)
        before, low = profile.get(k0, (0, least))
        profile[k0] = (before + count, min(low, least))
    return profile


def drop_counts(e: Multifiltration, f: Multifiltration) -> dict[int, int]:
    """The torsion profile of E c F: {k: p_k} for every k with p_k > 0,
    p_k the number of k-elementary injections in `factorize(e, f)`: the
    counts of `drop_profile`."""
    return {k: count for k, (count, _) in drop_profile(e, f).items()}


def elementary_check(e: Multifiltration, f: Multifiltration) -> ElementaryInjection:
    """Verify that E c F is elementary and derive its invariants: the
    single step of `factorize(e, f)`.

    A pair whose `drop_counts` total is not 1 is refused on that tally,
    at the cost of its cones (equal families count 0); a pair that is no
    injection (E not in F, or a divergent cell) on the walk's error,
    which names the cone and the class.  Every refusal raises
    NotElementary.  This is the explicit check for given pairs; the
    drops tsk takes are elementary by construction.

    A one-step factorization is a drop, as the walk ends at E.
    Conversely, take E = drop(F, sigma0, m0, H).  E and F agree off the
    cofaces of sigma0, and its proper cofaces come later in (dim, lex)
    order, so the walk's first differing cone is sigma0; there the only
    cell is the unit class m0, one dimension lower, where
    `echelon_hyperplane` returns H.  So the step is `drop(F, sigma0, m0,
    H)`, with the same invariants.
    """
    if e.fan != f.fan:
        raise NotElementary("families live on different fans")
    try:
        profile = drop_counts(e, f)
        if sum(profile.values()) == 1:
            return factorize(e, f)[0]
    except ValueError as err:
        raise NotElementary(str(err)) from err
    raise NotElementary(f"{sum(profile.values())} steps, not 1 (profile {profile})")


def recompose(
    f: Multifiltration, steps: Sequence[ElementaryInjection]
) -> Multifiltration:
    """Re-apply the factorization drops to F in list order."""
    current = f
    for step in steps:
        current = apply_elementary(current, step.sigma0, step.m0, step.dropped)
    return current
