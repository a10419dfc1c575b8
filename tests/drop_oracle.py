"""Drop-by-drop references for the constructions that skip steps.

`build_sequence` takes each stage of the schedule as one run.
`replay_drops` takes the same schedule one elementary injection at a
time with `drop`, and asserts each step's schedule invariants, so the
tests can hold the runs to the chain of drops the paper iterates.

`factorize` reads each cone's differing cells once and drops them class
by class.  `rescan_factorize` finds every step afresh: it re-scans the
current family's list for the first jump where E differs, so the tests
can hold the walk to it step for step.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from tsk.fan import Cone, Weight
from tsk.linalg import ZERO, echelon_hyperplane
from tsk.multifilt import ElementaryInjection, Multifiltration, _axes, drop, eval_jumps
from tsk.prescribe import PrescriptionSolution, weight_schedule
from tsk.reflexive import to_multifiltration

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
    `solution.injection_params()` with `drop` from the start sheaf.

    Every step must come back saturated with the scheduled k0, sigma0,
    m0 and m_Sigma.  Returns the final sheaf and the injections, in
    schedule order.
    """
    if solution not in _REPLAYS:
        start = to_multifiltration(solution.problem.start_filtration())
        _REPLAYS[solution] = (start, [], solution.injection_params())
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
