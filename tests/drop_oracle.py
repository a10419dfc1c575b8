"""The drop-by-drop oracle for the prescription builds.

`build_sequence` takes each stage of the schedule as one run.  This
helper takes the same schedule one elementary injection at a time with
`drop`, and asserts each step's schedule invariants, so the tests can
hold the runs to the chain of drops the paper iterates.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from tsk.fan import Cone, Weight
from tsk.linalg import ZERO
from tsk.multifilt import ElementaryInjection, Multifiltration, drop
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
