"""Multifiltrations: torsion-free equivariant sheaves as jump data.

A multifiltration of rank r on the fan of P^n assigns to every cone
sigma and every class m in M/(sigma^perp & M) a subspace E^sigma_m of
C^r, monotone in m, bounded below, with finitely many jumps, and
compatible along facets:  E^tau_m = union_i E^sigma_{m + i m_tau}.

Encoding: for each cone sigma (dim >= 1) a finite list of jumps
(lambda, W) with

    E^sigma_mu = join { W : lambda <= mu componentwise }.

Monotonicity and boundedness below are then automatic; the validator
checks facet compatibility and that the deep value is all of C^r.
Every such function has a unique minimal ("canonical") jump list: the
classes where the value strictly exceeds the join of the values one
step below in each axis.  Canonical lists make equality of families a
list comparison.

The elementary-injection machinery (delta invariant, elementary_check,
apply_elementary, factorize) follows the equal-rank factorization
theory: an elementary injection E c F drops exactly one jump value by
one dimension at a single class m0 of a single cone sigma0 and
intersects everything above with the dropped hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct
from typing import Callable, Iterable, Mapping, Sequence

from .fan import Cone, Fan, Weight, le_componentwise
from .linalg import RANKS, Subspace, echelon_hyperplane, join_all

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
    cols: list[set[int]] = [set() for _ in range(d)]
    for coords, _ in jumps:
        for i, x in enumerate(coords):
            cols[i].add(x)
    for i, xs in enumerate(extra):
        cols[i].update(xs)
    return [sorted(c) for c in cols]


def _grid_values(
    rank: int, jumps: JumpList, axes: Sequence[Sequence[int]]
) -> dict[tuple[int, ...], Subspace]:
    """Evaluate the family at every point of the axes grid.

    Dynamic programming over grid indices: the value at a grid point is
    the join of the values at its index predecessors and of the jump
    subspaces sitting exactly at that point.  Correct because every
    jump lies on the grid (axes contain all jump coordinates) and any
    jump strictly below a point is below one of its predecessors.
    """
    zero = Subspace.zero(rank)
    at_point: dict[tuple[int, ...], list[Subspace]] = {}
    for coords, w in jumps:
        at_point.setdefault(coords, []).append(w)
    values: dict[tuple[int, ...], Subspace] = {}
    index_ranges = [range(len(a)) for a in axes]
    for idx in iproduct(*index_ranges):
        coords = tuple(axes[i][j] for i, j in enumerate(idx))
        v = zero
        for i, j in enumerate(idx):
            if j > 0:
                pred = idx[:i] + (j - 1,) + idx[i + 1 :]
                v = v.join(values[tuple(axes[t][s] for t, s in enumerate(pred))])
                if v.dim == rank:
                    break
        for w in at_point.get(coords, ()):
            v = v.join(w)
        values[coords] = v
    return values


def eval_jumps(rank: int, jumps: JumpList, mu: Weight) -> Subspace:
    """E^sigma at the class with coordinates mu (join semantics)."""
    return join_all(rank, (w for coords, w in jumps if le_componentwise(coords, mu)))


@lru_cache(maxsize=65536)
def _canonical_jumps(rank: int, jumps: JumpList) -> JumpList:
    """The unique minimal jump list generating the same family.

    Keeps exactly the grid points whose value strictly exceeds the join
    of the values one grid step below along each axis (Zero off-grid).
    """
    if not jumps:
        return ()
    d = len(jumps[0][0])
    axes = _axes(jumps, d)
    values = _grid_values(rank, jumps, axes)
    zero = Subspace.zero(rank)
    index_of = [{x: j for j, x in enumerate(a)} for a in axes]
    out: list[Jump] = []
    for coords, v in values.items():
        if v.dim == 0:
            continue
        below = zero
        for i, x in enumerate(coords):
            j = index_of[i][x]
            if j > 0:
                pred = coords[:i] + (axes[i][j - 1],) + coords[i + 1 :]
                below = below.join(values[pred])
        if not v <= below:
            out.append((coords, v))
    out.sort(key=lambda jw: jw[0])
    return tuple(out)


# ---------------------------------------------------------------------------
# the family container


class Multifiltration:
    """Rank-r multifiltration on the fan of P^n, canonical jump lists.

    `jumps` maps every cone of dimension >= 1 to its canonical jump
    list; the zero cone is implicit (single class, value C^r).
    Instances are immutable; equality is equality of the families as
    functions (== of canonical lists).
    """

    __slots__ = ("fan", "rank", "jumps")

    def __init__(
        self,
        fan: Fan,
        rank: int,
        jumps: Mapping[Cone, Iterable[Jump]],
        validate: bool = True,
    ) -> None:
        if rank not in RANKS:
            raise ValueError(f"rank must be 1 or 2, got {rank!r}")
        canonical: dict[Cone, JumpList] = {}
        for cone in fan.all_cones(min_dim=1):
            raw = tuple(sorted(jumps.get(cone, ()), key=lambda jw: jw[0]))
            for coords, w in raw:
                if len(coords) != len(cone):
                    raise InvalidFamily(
                        f"jump {coords!r} has wrong arity for cone {cone!r}"
                    )
                if not isinstance(w, Subspace) or w.r != rank:
                    raise InvalidFamily(
                        f"jump value {w!r} is not a subspace of C^{rank}"
                    )
            canonical[cone] = _canonical_jumps(rank, raw)
        unknown = set(jumps) - set(canonical)
        if unknown:
            raise InvalidFamily(f"jump lists for non-cones: {sorted(unknown)!r}")
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "jumps", canonical)
        if validate:
            self.validate()

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("Multifiltration is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multifiltration):
            return NotImplemented
        return (
            self.fan == other.fan
            and self.rank == other.rank
            and self.jumps == other.jumps
        )

    def __hash__(self) -> int:
        return hash(
            (self.fan, self.rank, tuple(sorted(self.jumps.items())))
        )

    def __repr__(self) -> str:
        total = sum(len(v) for v in self.jumps.values())
        return (
            f"<Multifiltration rank {self.rank} on P^{self.fan.n},"
            f" {total} jumps>"
        )

    # -- evaluation -----------------------------------------------------

    def evaluate(self, cone: Cone, mu: Weight) -> Subspace:
        """E^cone at the class with ray-ordered coordinates mu."""
        cone = tuple(cone)
        if len(cone) == 0:
            return Subspace.full(self.rank)
        if cone not in self.jumps:
            raise ValueError(f"{cone!r} is not a cone of the fan of P^{self.fan.n}")
        if len(mu) != len(cone):
            raise ValueError(f"class {mu!r} has wrong arity for cone {cone!r}")
        return eval_jumps(self.rank, self.jumps[cone], tuple(mu))

    def grid(
        self, cone: Cone, extra: Sequence[Iterable[int]] = ()
    ) -> tuple[list[list[int]], dict[tuple[int, ...], Subspace]]:
        """Axes and values of this family on its jump grid (plus extras)."""
        jumps = self.jumps[cone]
        axes = _axes(jumps, len(cone), extra)
        return axes, _grid_values(self.rank, jumps, axes)

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Check the multifiltration axioms; raise InvalidFamily if broken.

        Monotonicity and boundedness below hold by construction (join
        encoding); this checks that the deep value of every cone is all
        of C^r and facet compatibility on the joint jump box (values
        are cellwise constant, so grid agreement is agreement
        everywhere; one step beyond the box every axis has stabilized
        by join semantics).
        """
        fan = self.fan
        for cone, jumps in self.jumps.items():
            deep = join_all(self.rank, (w for _, w in jumps))
            if deep.dim != self.rank:
                raise InvalidFamily(
                    f"deep value at cone {cone!r} is {deep!r}, not C^{self.rank}"
                )
        for cone in fan.all_cones(min_dim=2):
            for pos, ray in enumerate(cone):
                facet = cone[:pos] + cone[pos + 1 :]
                self._check_facet(cone, pos, facet)

    def _check_facet(self, cone: Cone, pos: int, facet: Cone) -> None:
        """E^facet must equal E^cone stabilized along the dropped ray."""
        jumps_sigma = self.jumps[cone]
        jumps_tau = self.jumps[facet]
        deep = 1 + max((c[pos] for c, _ in jumps_sigma), default=0)
        # Joint per-axis coordinates on the facet's positions.
        tau_axes = _axes(jumps_tau, len(facet))
        sigma_axes = _axes(jumps_sigma, len(cone))
        joint = [
            sorted(set(a) | set(b))
            for a, b in zip(tau_axes, sigma_axes[:pos] + sigma_axes[pos + 1 :])
        ]
        for mu in iproduct(*joint):
            lifted = mu[:pos] + (deep,) + mu[pos:]
            v_sigma = eval_jumps(self.rank, jumps_sigma, lifted)
            v_tau = eval_jumps(self.rank, jumps_tau, mu)
            if v_sigma != v_tau:
                raise InvalidFamily(
                    f"facet compatibility fails: cone {cone!r} stabilizes to"
                    f" {v_sigma!r} at facet class {mu!r} of {facet!r},"
                    f" but the facet stores {v_tau!r}"
                )

    # -- derived constructions -------------------------------------------

    def twist(self, d: Sequence[int]) -> "Multifiltration":
        """Tensor by the line bundle O(sum d_rho D_rho).

        Ray filtrations shift to E'^rho(i) = E^rho(i + d_rho): every
        jump coordinate moves by -d_rho on its ray's axis.
        """
        if len(d) != self.fan.n + 1:
            raise ValueError("need one twist integer per ray")
        moved = {
            cone: tuple(
                (tuple(x - d[ray] for x, ray in zip(coords, cone)), w)
                for coords, w in jumps
            )
            for cone, jumps in self.jumps.items()
        }
        return Multifiltration(self.fan, self.rank, moved, validate=False)

    def restrict_rays(self) -> dict[int, JumpList]:
        """The ray filtrations (jump lists on the 1-cones)."""
        return {ray: self.jumps[(ray,)] for ray in self.fan.rays}


def join_below(f: Multifiltration, cone: Cone, m0: Weight) -> Subspace:
    """The join of the values of F^cone one step below m0 along each axis."""
    below = Subspace.zero(f.rank)
    for i in range(len(cone)):
        pred = m0[:i] + (m0[i] - 1,) + m0[i + 1 :]
        below = below.join(f.evaluate(cone, pred))
    return below


def line_bundle(fan: Fan, d: Sequence[int]) -> Multifiltration:
    """The rank-1 multifiltration of O(sum d_rho D_rho)."""
    if len(d) != fan.n + 1:
        raise ValueError("need one coefficient per ray")
    full = Subspace.full(1)
    jumps = {
        cone: ((tuple(-d[ray] for ray in cone), full),)
        for cone in fan.all_cones(min_dim=1)
    }
    return Multifiltration(fan, 1, jumps, validate=False)


# ---------------------------------------------------------------------------
# reflexive hull


def reflexive_hull(mf: Multifiltration) -> Multifiltration:
    """The hull E^sigma_m = intersection of the ray values E^rho(m_rho).

    Depends only on the ray filtrations; reflexive families are fixed
    points of this operation.
    """
    full = Subspace.full(mf.rank)
    levels = {
        ray: [
            (x, eval_jumps(mf.rank, jumps, (x,)))
            for x in sorted({c[0] for c, _ in jumps})
        ]
        for ray, jumps in mf.restrict_rays().items()
    }
    hull: dict[Cone, JumpList] = {}
    for cone in mf.fan.all_cones(min_dim=1):
        out: list[Jump] = []
        for point in iproduct(*(levels[ray] for ray in cone)):
            v = full
            for _, w in point:
                v = v.meet(w)
                if v.dim == 0:
                    break
            if v.dim > 0:
                out.append((tuple(x for x, _ in point), v))
        hull[cone] = tuple(out)
    return Multifiltration(mf.fan, mf.rank, hull, validate=False)


def is_reflexive(mf: Multifiltration) -> bool:
    return reflexive_hull(mf) == mf


# ---------------------------------------------------------------------------
# containment and the delta invariant


def _joint_grid(
    e: Multifiltration,
    f: Multifiltration,
    cone: Cone,
    extra: Sequence[Iterable[int]] = (),
) -> tuple[list[list[int]], dict[tuple[int, ...], Subspace], dict[tuple[int, ...], Subspace]]:
    je, jf = e.jumps[cone], f.jumps[cone]
    d = len(cone)
    merged = [
        sorted(set(a) | set(b) | set(c))
        for a, b, c in zip(
            _axes(je, d),
            _axes(jf, d),
            list(extra) + [()] * (d - len(list(extra))) if extra else [()] * d,
        )
    ]
    return merged, _grid_values(e.rank, je, merged), _grid_values(f.rank, jf, merged)


def is_contained(e: Multifiltration, f: Multifiltration) -> bool:
    """Pointwise containment E^sigma_m <= F^sigma_m for all sigma, m."""
    if e.fan != f.fan or e.rank != f.rank:
        return False
    for cone in e.fan.all_cones(min_dim=1):
        axes, ve, vf = _joint_grid(e, f, cone)
        for g in ve:
            if not ve[g] <= vf[g]:
                return False
    return True


def _cone_delta(e: Multifiltration, f: Multifiltration, cone: Cone) -> int:
    """Sum over all classes of the cone of dim F - dim E.

    Classes form cells on the joint grid; a cell's contribution is the
    dim difference times its (integer) volume.  Cells unbounded above
    must have difference 0 or the sum diverges — InvalidFamily then.
    """
    axes, ve, vf = _joint_grid(e, f, cone)
    total = 0
    for g, val_e in ve.items():
        diff = vf[g].dim - val_e.dim
        if diff == 0:
            continue
        if diff < 0:
            raise InvalidFamily(f"E not contained in F at {cone!r}, class {g!r}")
        volume = 1
        for i, x in enumerate(g):
            col = axes[i]
            j = col.index(x)
            if j + 1 == len(col):
                raise InvalidFamily(
                    f"divergent difference at cone {cone!r}: families differ"
                    f" on the unbounded cell at {g!r}"
                )
            volume *= col[j + 1] - x
        total += diff * volume
    return total


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
    delta_k = INFINITY (and stays INFINITY above).
    """
    if e.fan != f.fan or e.rank != f.rank:
        raise ValueError("families live on different fans or ranks")
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
                continue
            value = _cone_delta(e, f, cone)
            per_cone[cone] = value
            level_defined = True
            level_total += value
        out.append(level_total if level_defined else INFINITY)
    return tuple(out)


# ---------------------------------------------------------------------------
# elementary injections


@dataclass(frozen=True, slots=True)
class ElementaryInjection:
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

    def quotient_dims(self) -> tuple[int, int]:
        """(codim of the quotient support, m_Sigma)."""
        return (self.k0, self.m_Sigma)


def _region_cells(
    axes: Sequence[Sequence[int]],
    grid_point: tuple[int, ...],
    positions: Sequence[int],
    bound: Weight,
) -> bool:
    """Is the grid cell at grid_point inside {mu : mu_positions <= bound}?

    Sound only when every axes[pos] contains bound[pos]+1 so no cell
    straddles the boundary.
    """
    for pos, b in zip(positions, bound):
        if grid_point[pos] > b:
            return False
    return True


def elementary_check(e: Multifiltration, f: Multifiltration) -> ElementaryInjection:
    """Verify that E c F is elementary and derive its invariants.

    Raises NotElementary with the violated clause otherwise.
    """
    if e.fan != f.fan or e.rank != f.rank:
        raise NotElementary("families live on different fans or ranks")
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
    axes, ve, vf = _joint_grid(e, f, sigma0)
    diff_points = [g for g in ve if ve[g] != vf[g]]
    if len(diff_points) != 1:
        raise NotElementary(
            f"clause (ii): {len(diff_points)} classes of {sigma0!r} differ"
        )
    m0 = diff_points[0]
    for i, x in enumerate(m0):
        col = axes[i]
        j = col.index(x)
        if j + 1 == len(col):
            raise NotElementary(
                f"clause (ii): difference region of {sigma0!r} is unbounded"
            )
        if col[j + 1] != x + 1:
            raise NotElementary(
                f"clause (ii): more than one class of {sigma0!r} differs"
                f" (cell of width {col[j + 1] - x} at {m0!r})"
            )
    dropped = ve[m0]
    if not dropped <= vf[m0] or vf[m0].dim - dropped.dim != 1:
        raise NotElementary(
            f"clause (ii): at {sigma0!r}, {m0!r} the dimensions drop by"
            f" {vf[m0].dim - dropped.dim}, not 1"
        )

    # Clause (iii) everywhere above sigma0, and W_sigma extraction.
    positions_by_cone: dict[Cone, list[int]] = {}
    w_regions: dict[Cone, list[tuple[int, ...]]] = {}
    for cone in fan.cofaces(sigma0):
        if cone == sigma0:
            continue
        pos0 = [cone.index(r) for r in sigma0]
        positions_by_cone[cone] = pos0
        extra: list[set[int]] = [set() for _ in cone]
        for p, b in zip(pos0, m0):
            extra[p].update((b, b + 1))
        axes_c, ve_c, vf_c = _joint_grid(e, f, cone, extra)
        w_regions[cone] = []
        for g, val_e in ve_c.items():
            val_f = vf_c[g]
            if _region_cells(axes_c, g, pos0, m0):
                expect = val_f.meet(dropped)
                if val_e != expect:
                    raise NotElementary(
                        f"clause (iii): at {cone!r}, {g!r} expected"
                        f" F^sigma & E0 = {expect!r}, found {val_e!r}"
                    )
            elif val_e != val_f:
                raise NotElementary(
                    f"clause (iii): families differ at {cone!r}, {g!r}"
                    f" outside the region below {m0!r}"
                )
            if val_f.dim - val_e.dim == 1:
                w_regions[cone].append(g)

    # Thresholds a_j along the facet-cofaces sigma0 + ray.
    a_ray: dict[int, int] = {}
    for ray in fan.rays:
        if ray in sigma0:
            continue
        tau = tuple(sorted(sigma0 + (ray,)))
        if len(tau) > fan.n:
            continue
        pos_new = tau.index(ray)
        col = sorted(
            {c[pos_new] for c, _ in e.jumps[tau]}
            | {c[pos_new] for c, _ in f.jumps[tau]}
        )
        scan = col + [col[-1] + 1] if col else [0]
        threshold = None
        for x in scan:
            lifted = m0[:pos_new] + (x,) + m0[pos_new:]
            d_e = eval_jumps(e.rank, e.jumps[tau], lifted).dim
            d_f = eval_jumps(f.rank, f.jumps[tau], lifted).dim
            if d_f - d_e == 1:
                threshold = x
                break
            if d_f != d_e:
                raise NotElementary(
                    f"dimension gap {d_f - d_e} along {tau!r} at {lifted!r}"
                )
        if threshold is None:
            raise NotElementary(
                f"no threshold along {tau!r}: the facet difference never appears"
            )
        # The true threshold is the first integer with a difference; it can
        # sit below the first grid coordinate that shows one only if the
        # value is constant in between, which join semantics rules out.
        a_ray[ray] = threshold

    m_sigma: dict[Cone, Weight] = {sigma0: m0}
    for cone in fan.cofaces(sigma0):
        if cone == sigma0:
            continue
        coords = tuple(
            m0[sigma0.index(r)] if r in sigma0 else a_ray[r] for r in cone
        )
        m_sigma[cone] = coords

    # Saturation: W_sigma == {sigma0-coords == m0, new coords >= a_j}.
    saturated = True
    for cone, found in w_regions.items():
        pos0 = positions_by_cone[cone]
        expected_cells = set()
        extra = [set() for _ in cone]
        for p, b in zip(pos0, m0):
            extra[p].update((b, b + 1))
        for p, r in enumerate(cone):
            if r not in sigma0:
                extra[p].add(a_ray[r])
        axes_c, ve_c, vf_c = _joint_grid(e, f, cone, extra)
        for g in ve_c:
            in_w = vf_c[g].dim - ve_c[g].dim == 1
            exact = all(g[p] == b for p, b in zip(pos0, m0))
            above = all(
                g[p] >= a_ray[r]
                for p, r in enumerate(cone)
                if r not in sigma0
            )
            if in_w != (exact and above):
                saturated = False
                break
        if not saturated:
            break
    if len(sigma0) == fan.n:
        # No proper cofaces: W_{sigma0} = {m0} always.
        saturated = True

    m_rho: dict[int, int] = {}
    for pos, r in enumerate(sigma0):
        m_rho[r] = m0[pos]
    for r, a in a_ray.items():
        m_rho[r] = a
    m_Sigma = sum(m_rho.values())

    return ElementaryInjection(
        e=e,
        f=f,
        k0=k0,
        sigma0=sigma0,
        m0=m0,
        dropped=dropped,
        m_sigma=m_sigma,
        m_rho=m_rho,
        m_Sigma=m_Sigma,
        saturated=saturated,
    )


def apply_elementary(
    f: Multifiltration, sigma0: Cone, m0: Weight, target: Subspace
) -> Multifiltration:
    """Drop F^sigma0_m0 to the hyperplane `target`, intersecting above.

    The result E has E^sigma0_m0 = target, E^sigma_m = F^sigma_m & target
    for cofaces sigma > sigma0 on classes m <= m0 over sigma0, and
    agrees with F elsewhere; this is the canonical elementary
    sub-family dropping one dimension at (sigma0, m0).

    Preconditions: target has codimension 1 in F^sigma0_m0 and contains
    every value strictly below m0 (otherwise monotonicity would break);
    violations raise ValueError.
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

    new_jumps: dict[Cone, Iterable[Jump]] = dict(f.jumps)
    for cone in f.fan.cofaces(sigma0):
        pos0 = [cone.index(r) for r in sigma0]
        extra: list[set[int]] = [set() for _ in cone]
        for p, b in zip(pos0, m0):
            extra[p].update((b, b + 1))
        axes_c, values = f.grid(cone, extra)
        out: list[Jump] = []
        if cone == sigma0:
            for g, v in values.items():
                out.append((g, target if g == m0 else v))
        else:
            for g, v in values.items():
                if _region_cells(axes_c, g, pos0, m0):
                    out.append((g, v.meet(target)))
                else:
                    out.append((g, v))
        new_jumps[cone] = tuple(jw for jw in out if jw[1].dim > 0)
    result = Multifiltration(f.fan, f.rank, new_jumps, validate=False)
    # Facet compatibility can only move where we rewrote; check those pairs.
    for cone in f.fan.cofaces(sigma0):
        if len(cone) < 2:
            continue
        for pos, _ray in enumerate(cone):
            facet = cone[:pos] + cone[pos + 1 :]
            result._check_facet(cone, pos, facet)
    return result


# ---------------------------------------------------------------------------
# factorization


def factorize(
    e: Multifiltration, f: Multifiltration
) -> list[ElementaryInjection]:
    """Factor an equal-rank injection E c F into elementary injections.

    Returns the chain peeled off F outward-in: the first entry is the
    elementary injection into F itself, and the k0 sequence is
    non-decreasing along the list (the minimal differing dimension can
    only grow as drops are consumed).  Re-applying the drops to F in
    list order reproduces E; `recompose` checks that.
    """
    if e.fan != f.fan or e.rank != f.rank:
        raise ValueError("families live on different fans or ranks")
    if not is_contained(e, f):
        raise ValueError("E is not pointwise contained in F")
    fan = e.fan
    steps: list[ElementaryInjection] = []
    current = f
    while True:
        differing = [
            c for c in fan.all_cones(min_dim=1) if e.jumps[c] != current.jumps[c]
        ]
        if not differing:
            return steps
        k0 = min(len(c) for c in differing)
        sigma0 = min(c for c in differing if len(c) == k0)
        axes, ve, vf = _joint_grid(e, current, sigma0)
        diff_classes = []
        for g in ve:
            if ve[g] != vf[g]:
                diff_classes.append(g)
        minimal = [
            g
            for g in diff_classes
            if not any(
                h != g and le_componentwise(h, g) for h in diff_classes
            )
        ]
        m0 = min(minimal)
        target_floor = ve[m0]
        hyper = echelon_hyperplane(vf[m0], target_floor)
        smaller = apply_elementary(current, sigma0, m0, hyper)
        steps.append(elementary_check(smaller, current))
        if not is_contained(e, smaller):
            raise AssertionError(
                "internal error: peeled family no longer contains E"
            )
        current = smaller


def recompose(
    f: Multifiltration, steps: Sequence[ElementaryInjection]
) -> Multifiltration:
    """Re-apply the factorization drops to F in list order."""
    current = f
    for step in steps:
        current = apply_elementary(current, step.sigma0, step.m0, step.dropped)
    return current
