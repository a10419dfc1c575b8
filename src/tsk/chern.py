"""Chern engine: the general Klyachko product formula for
multifiltrations, closed-form Chern ratios of elementary injections
and of whole runs of them, and rank-2 twists.

A run's ratio has one form, `run_factors`' telescoped edge: its linear
factors close Chern classes, and `run_log` reads its integer log
coefficients off the same edge, through the table A_{p,k} of
`stirling_A`.

The product formulas are products of linear factors (1 - wH)^e; each
collects its (-w, e) pairs and multiplies them in one
`ring.linear_product` call, which is integral with constant term 1 by
construction.  All arithmetic is in exact Python integers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from math import comb

from .multifilt import Multifiltration, _axes, _grid_flat, _runs
from .ring import TruncPoly, linear_product

# ---------------------------------------------------------------------------
# the alternating table


@lru_cache(maxsize=None)
def stirling_A(p: int, k: int) -> int:
    """A_{p,k} = sum_{i=0}^k (-1)^i C(k,i) i^p  (with 0^0 = 1).

    Computed by the recurrence A_{p,k} = k (A_{p-1,k} - A_{p-1,k-1});
    equivalently A_{p,k} = (-1)^k k! S(p,k) with S the Stirling number
    of the second kind.  A_{p,k} = 0 for p < k; A_{p,p} = (-1)^p p!.
    """
    if p < 0 or k < 0:
        raise ValueError("stirling_A needs p, k >= 0")
    if p == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * (stirling_A(p - 1, k) - stirling_A(p - 1, k - 1))


# ---------------------------------------------------------------------------
# the general Chern formula


def chern_general(mf: Multifiltration) -> TruncPoly:
    """Total Chern class of a multifiltration by the general formula:

        prod over cones sigma, classes m:
            (1 - <u_sigma, m> H)^{(-1)^{codim sigma} dim[E^sigma](m)}

    where dim[E](m) is the mixed difference
    sum_{mu in {0,1}^d} (-1)^{|mu|} dim E(m - mu).  The mixed difference
    vanishes off the jump grid, and on the grid the integer-step
    predecessor value equals the grid-step predecessor value (the
    family is constant between consecutive jump coordinates), so the
    product is evaluated on finite grids only.

    Every cone's mixed difference is read off the grids of the n + 1
    top cones sigma_j (all rays but j): a cone tau is taken in sigma_j
    with j the least ray not in tau, so the rays below j are tau's and
    each ray above j is tau's or not.  Precondition: `mf` is a valid
    family (facet compatible), which `validate` checks on parsed
    documents and every construction guarantees.  Then tau's values
    are sigma_j's with the axes off tau pushed past their last jump
    (stabilization), so each axis of a ray above j gets one more
    coordinate, "infinity", past its last jump, where `_grid_flat`
    fills in the stabilized value.  The mixed difference is the
    composition of the first differences along the axes, one pass per
    axis over the flat grid: a finite index subtracts its predecessor
    k - strides[i] (ZERO, so nothing, off the grid), and the infinity
    index, which stands for the ray's absence from tau, negates, so a
    point carries (-1)^{codim tau}.  On sigma_j's axes, finer than
    tau's, the difference is tau's own, since a first difference
    vanishes where the family does not jump.  Infinity weighs 0, so
    sigma_0's all-infinity point, the zero cone, is the factor 1 of
    weight 0, which `linear_product` skips.  Exponents are summed per
    weight <u_sigma, m> first, so each distinct weight is one linear
    factor.

    An axis above j on which all of sigma_j's jumps share one
    coordinate x factors out.  Along it the family is a step at x times
    the list with that axis dropped, so the mixed difference is the
    dropped list's at x and its negation at infinity: each exponent e
    at weight w of the rest becomes +e at w + x and -e at w.  So such an
    axis keeps its one point x and no infinity (its difference pass is
    empty), and the -e at w joins sigma_j's summed exponents, one step
    per factored axis; x = 0 cancels them all, and sigma_j builds no
    grid.  The axes of the rays below j get no infinity, so a one-point
    one there stays in the grid as it is.
    """
    n = mf.fan.n
    exps: dict[int, int] = {}
    for j in range(n + 1):
        jumps = mf.jumps[tuple(ray for ray in range(n + 1) if ray != j)]
        axes = _axes(jumps, n)
        steps = [a[0] for a in axes[j:] if len(a) == 1]
        if 0 in steps:
            continue
        # the other axes of the rays above j, positions j.. of sigma_j, get infinity
        grid = axes[:j] + [a if len(a) == 1 else [*a, a[-1] + 1] for a in axes[j:]]
        flat, strides = _grid_flat(jumps, grid)
        box = [v.dim for v in flat]
        size = len(box)
        for s, axis, a in zip(strides, grid, axes):
            block = s * len(axis)
            # a block's offsets from `finite` on are its infinity index
            finite = block - s if len(axis) > len(a) else block
            # Descending, so box[k - s] still holds its value before this
            # pass, which reads and writes finite indices only.
            for run in _runs(size, block, range(finite - 1, s - 1, -1)):
                for k in run:
                    box[k] -= box[k - s]
            for run in _runs(size, block, range(finite, block)):
                for k in run:
                    box[k] = -box[k]
        top: dict[int, int] = {}
        weights = axes[:j] + [a if len(a) == 1 else [*a, 0] for a in axes[j:]]
        for coords, x in zip(iproduct(*weights), box):
            if x:
                w = sum(coords)
                top[w] = top.get(w, 0) + x
        for x in steps:
            # weights so far include x; its infinity is -e at w - x
            for w, e in list(top.items()):
                top[w - x] = top.get(w - x, 0) - e
        for w, e in top.items():
            exps[w] = exps.get(w, 0) + e
    return linear_product(n, [(-w, x) for w, x in exps.items()])


def twist_chern(c: TruncPoly, m: int) -> TruncPoly:
    """Total Chern class of E(m) = E tensor O(m) from c(E), E of rank 2.

    Every Chern root shifts by m, which for a class of rank 2 gives

        c(E(m)) = sum_k c_k H^k (1 + mH)^(2-k),

    one `linear_product` per k.  Exact; integral c gives integral c(E(m)).
    """
    n = c.n
    out = [0] * (n + 1)
    for k, ck in enumerate(c.coeffs):
        if ck:
            for j, t in enumerate(linear_product(n - k, [(m, 2 - k)]).coeffs):
                out[k + j] += ck * t
    return TruncPoly(n, out)


# ---------------------------------------------------------------------------
# closed-form ratios for elementary injections


def ratio_saturated(k0: int, m_sigma: int, n: int) -> TruncPoly:
    """c(F)/c(E) of a saturated elementary injection with invariants
    (k0, m_Sigma):  prod_{i=0}^{k0} (1-(m_Sigma+i)H)^{(-1)^i C(k0,i)}."""
    if not 1 <= k0 <= n:
        raise ValueError(f"need 1 <= k0 <= n, got k0={k0}, n={n}")
    return linear_product(
        n, [(-(m_sigma + i), (-1) ** i * comb(k0, i)) for i in range(k0 + 1)]
    )


def run_factors(k0: int, start: int, count: int) -> list[tuple[int, int]]:
    """The linear factors (a, e), (1 + aH)^e, of
    prod_{j=0}^{count-1} ratio_saturated(k0, start+j, n), telescoped.

    Each ratio factors as edge(m)/edge(m+1) with
    edge(x) = prod_{i=0}^{k0-1} (1-(x+i)H)^{(-1)^i C(k0-1,i)}
    (Pascal: C(k0-1,i) + C(k0-1,i-1) = C(k0,i)), so the run collapses
    to edge(start)/edge(start+count) -- O(1) in count, which is what
    makes astronomically long drop schedules tractable.  The factors
    are both edges, the second with negated exponents (dividing by an
    edge); `linear_product` multiplies them.
    """
    return [
        (-(x + i), sign * (-1) ** i * comb(k0 - 1, i))
        for x, sign in ((start, 1), (start + count, -1))
        for i in range(k0)
    ]


def run_log(q: int, k0: int, start: int, count: int) -> int:
    """s_q = q [H^q] log of the run `run_factors(k0, start, count)`, in
    closed form:

        s_q = D(start + count) - D(start),
        D(x) = sum_{l >= k0-1} C(q,l) A_{l,k0-1} x^{q-l}.

    s_q is additive over products, and one factor (1 + aH)^e has
    s_q = -e (-a)^q.  The factors of edge(x) are (-(x+i), (-1)^i C(k0-1,i)),
    so s_q(edge(x)) = -sum_i (-1)^i C(k0-1,i) (x+i)^q.  Expanding
    (x+i)^q = sum_l C(q,l) x^{q-l} i^l turns the sum over i into
    sum_i (-1)^i C(k0-1,i) i^l = A_{l,k0-1}, which vanishes for
    l < k0-1; so s_q(edge(x)) = -D(x), and the run, the quotient
    edge(start)/edge(start+count), has s_q = D(start+count) - D(start).
    D has degree q - k0 + 1 in x: no terms of size x^q arise to cancel,
    and the cost is O(q) whatever the count.
    """

    def d(x: int) -> int:
        return sum(
            comb(q, l) * stirling_A(l, k0 - 1) * x ** (q - l) for l in range(k0 - 1, q + 1)
        )

    return d(start + count) - d(start)
