"""Random instance generation for property sweeps and the CLI selftest.

Everything is driven by an explicit random.Random so sweeps are
reproducible from a seed.  Drop sampling is rejection-based: candidate
(sigma0, m0, target) triples that violate the elementary-injection
preconditions or family compatibility are simply discarded.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from .fan import Cone, Fan, Weight
from .linalg import Subspace, echelon_hyperplane
from .multifilt import InvalidFamily, Multifiltration, apply_elementary, join_below
from .reflexive import R2Filtration, RayDatum, Stability, stability


def random_b_zero(rng: Random, n: int, max_c: int = 6) -> R2Filtration:
    """Random b_zero reflexive data with the default pairwise-distinct
    lines and at least one active ray."""
    while True:
        c = tuple(rng.randint(0, max_c) for _ in range(n + 1))
        if any(c):
            return R2Filtration.b_zero_data(Fan(n), c)


def random_reflexive(rng: Random, n: int, max_c: int = 6, spread: int = 3) -> R2Filtration:
    """Random reflexive data with general b in [-spread, spread],
    c_rho in [0, max_c], pairwise-distinct lines, >= 1 active ray."""
    while True:
        rays = []
        active = False
        for i in range(n + 1):
            b = rng.randint(-spread, spread)
            c = rng.randint(0, max_c)
            active = active or c > 0
            rays.append(
                RayDatum(b - c, b, (1, i) if c > 0 else None)
            )
        if active:
            return R2Filtration(Fan(n), tuple(rays))


def random_semistable(rng: Random, n: int, max_c: int = 6) -> R2Filtration:
    """Rejection-sample random_reflexive until the verdict is
    semistable (stable or strictly semistable)."""
    while True:
        f = random_reflexive(rng, n, max_c)
        if stability(f) is not Stability.UNSTABLE:
            return f


def random_drops(
    rng: Random,
    start: Multifiltration,
    count: int,
    dims: Sequence[int],
    max_tries: int = 400,
) -> tuple[Multifiltration, tuple[tuple[Cone, Weight], ...]]:
    """Apply up to `count` random legal elementary drops whose cones
    have dimension in `dims` and return (result, applied (cone, m0)).

    Fewer than `count` drops are possible when the rejection budget is
    exhausted; callers that need an exact count must check the length.
    """
    fan = start.fan
    pool = {d: [c for c in fan.all_cones(min_dim=1) if len(c) == d] for d in dims}
    cur = start
    applied: list[tuple[Cone, Weight]] = []
    budget = max_tries * count
    while len(applied) < count and budget > 0:
        budget -= 1
        cone = rng.choice(pool[rng.choice(list(dims))])
        axes, _ = cur.grid(cone)
        m0 = tuple(rng.choice(ax) + rng.choice((-1, 0, 0, 1)) for ax in axes)
        value = cur.evaluate(cone, m0)
        if value.dim == 0:
            continue
        below = join_below(cur, cone, m0)
        if not below.dim < value.dim:
            continue
        if value.dim - below.dim == 1 or rng.random() < 0.5:
            target = echelon_hyperplane(value, below)
        else:
            target = Subspace.line(1, rng.randint(0, 3))
            if not (below <= target and target <= value):
                continue
        try:
            cur = apply_elementary(cur, cone, m0, target)
        except (ValueError, InvalidFamily):
            continue
        applied.append((cone, m0))
    return cur, tuple(applied)
