"""tsk: equivariant rank-2 sheaves on P^n via filtration data.

Exact-arithmetic models of torus-equivariant rank-2 reflexive and
torsion-free sheaves on complex projective space: Chern classes by
three independent formulas, slope stability, factorization of
equal-rank injections into elementary ones, Chern-class prescription
by scheduled drops, and smoothability obstructions.
"""

from .chern import (
    chern_general,
    ratio_saturated,
    stirling_A,
    twist_chern,
)
from .documents import (
    SheafDocument,
    canonical_dumps,
    dump_document,
    load_document,
    multifilt_from_doc,
    multifilt_to_doc,
    reflexive_from_doc,
    reflexive_to_doc,
)
from .fan import Fan
from .linalg import Subspace
from .multifilt import (
    ElementaryInjection,
    InvalidFamily,
    Multifiltration,
    NotElementary,
    apply_elementary,
    apply_run,
    drop,
    drop_counts,
    drop_profile,
    elementary_check,
    factorize,
    recompose,
    reflexive_hull,
)
from .obstruct import (
    Inconclusive,
    NotSmoothable,
    TorsionProfile,
    obstruction_verdict,
    torsion_profile,
)
from .prescribe import (
    BuildResult,
    Infeasible,
    PrescriptionProblem,
    PrescriptionSolution,
    build_sequence,
    family_p4_even,
    family_p4_odd,
    family_p5_candidates,
    family_pn,
    schwarzenberger,
    solve_p,
)
from .reflexive import (
    R2Filtration,
    RayDatum,
    Stability,
    bogomolov_ok,
    chern_total,
    discriminant,
    from_multifiltration,
    is_locally_free,
    normalize,
    slope,
    stability,
    to_multifiltration,
)
from .ring import TruncPoly

__version__ = "0.1.0"

__all__ = [
    "BuildResult",
    "ElementaryInjection",
    "Fan",
    "Inconclusive",
    "Infeasible",
    "InvalidFamily",
    "Multifiltration",
    "NotElementary",
    "NotSmoothable",
    "PrescriptionProblem",
    "PrescriptionSolution",
    "R2Filtration",
    "RayDatum",
    "SheafDocument",
    "Stability",
    "Subspace",
    "TorsionProfile",
    "TruncPoly",
    "apply_elementary",
    "apply_run",
    "bogomolov_ok",
    "build_sequence",
    "canonical_dumps",
    "chern_general",
    "chern_total",
    "discriminant",
    "drop",
    "drop_counts",
    "drop_profile",
    "dump_document",
    "elementary_check",
    "factorize",
    "family_p4_even",
    "family_p4_odd",
    "family_p5_candidates",
    "family_pn",
    "from_multifiltration",
    "is_locally_free",
    "load_document",
    "multifilt_from_doc",
    "multifilt_to_doc",
    "normalize",
    "obstruction_verdict",
    "ratio_saturated",
    "recompose",
    "reflexive_from_doc",
    "reflexive_hull",
    "reflexive_to_doc",
    "schwarzenberger",
    "slope",
    "stability",
    "stirling_A",
    "to_multifiltration",
    "torsion_profile",
    "twist_chern",
    "__version__",
]
