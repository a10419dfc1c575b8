"""Smoothability obstructions for rank-2 equivariant torsion-free
sheaves, computed from the torsion profile of E inside its reflexive
hull F.

The torsion filtration of Q = F/E is read off the elementary
factorization of E -> F: the codimension-k graded pieces correspond to
the k-elementary injections, so the profile (q, p_k) with
q = min{k : p_k > 0} is intrinsic.  The profile is counted per cone
(`multifilt.drop_profile`), so its cost is bounded by the cones, not by
the number of drops, which reaches 10^76 in the paper's families.  The
same walk reads each level's least weight m_Sigma off the cells it
rewrites, which is all the Q2 regime below needs of the 2-elementary
steps, so no verdict takes a drop.
Two obstruction regimes are machine-checkable:

  Q4: q >= 4 on P^n with n >= 4 forces c_3 or c_q of the normalized
      sheaf to be nonzero, yet a smoothing would have to keep both
      trivial -- not smoothable.
  Q2: q = 2 with p_3 = 0, semistable hull, and all 2-elementary
      weights m_Sigma >= -S_max forces c_3 != 0 -- not smoothable.

Everything else is reported Inconclusive (the q = 3 and mixed regimes
are genuinely open here and no verdict is extrapolated).

Q4 needs c(E) only up to H^q, and there it is the hull's class with one
correction, so no Klyachko grid is built over E.  c(F) = c(E) c(Q) with
Q = F/E, and c(Q) = c(F)/c(E) is the product of the factorization's
step ratios, each 1 + O(H^k) with k >= q, as Q is supported in
codimension q.  So c(Q) = 1 + a H^q mod H^(q+1), and a is the H^q
coefficient of log c(Q), the leading-log coefficient
a = (-1)^(q-1) (q-1)! p_q: only the q-elementary steps reach H^q, each
with that leading coefficient whatever its weight.  Hence

    c(E) = c(F) (1 - a H^q)   mod H^(q+1):

c_k(E) = c_k(F) for k < q and c_q(E) = c_q(F) - a, with c(F) the closed
class of the hull's ray data (`reflexive.chern_class`).  The Q2 guard
below keeps `chern_general(E)`, so its c_3 stays independent of the
weight formula it guards.

The weight bound in Q2 deserves a note.  With c = c(hull) of b_zero
data, the H^2/H^3 layers of log(c(F)/c(E)) give

    c_3(E) = c_3(F) + sum_i (c_1(F) + 2 m_{Sigma,i} + 2)

over the 2-elementary weights.  Semistability gives c_1 >= 2 S_max
(S_max = largest per-line sum of c_rho), so each summand is >= 2 once
m_{Sigma,i} >= -S_max, and c_3(F) >= 0 always, whence c_3(E) > 0.  The
bound m_{Sigma,i} >= -S_max holds whenever drops happen at line-valued
minimal classes, but it can FAIL when a 2-cone has both rays inactive
(c_rho = 0): the minimal nonzero class is then C^2-valued and a drop
there has m_Sigma = -sum of the other rays' c_rho.  Concretely, on P^3
with hull (1+H)^2 (c = (0,1,1,0), strictly semistable, b_zero), one
such drop yields c(E) = 1 + 2H + 2H^2 with c_3(E) = 0 while q = 2 and
p_3 = 0 -- so the bound is a real hypothesis, not a consequence, and
this module verifies it per instance instead of assuming it.  Off
b_zero, all of this is said of E_n = E(t), t the sum of the hull's
b_rho, whose weights are E's m_Sigma - t.
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .chern import chern_general, twist_chern
from .multifilt import Multifiltration, drop_profile, reflexive_hull
from .record import Frozen
from .reflexive import (
    R2Filtration,
    Stability,
    chern_class,
    from_multifiltration,
    line_sums,
    stability,
)
from .ring import TruncPoly


class TorsionProfile(Frozen):
    """Codimension profile of the quotient F/E: p maps k to the number
    of k-elementary injections in the factorization, and
    q = min{k : p_k > 0} >= 2 is the codimension of the quotient.
    `p` holds the sorted (k, count) pairs, counts > 0."""

    __slots__ = ("p",)

    def __init__(self, p: tuple[tuple[int, int], ...]) -> None:
        if not p:
            raise ValueError("empty profile: E is reflexive")
        ks = [k for k, _ in p]
        if not all(isinstance(k, int) for k in ks) or ks[0] < 2 or ks != sorted(set(ks)):
            raise ValueError("profile codimensions must be strictly increasing ints >= 2")
        if not all(type(cnt) is int and cnt > 0 for _, cnt in p):
            raise ValueError("profile counts must be positive ints")
        object.__setattr__(self, "p", p)

    @property
    def q(self) -> int:
        return self.p[0][0]

    def count(self, k: int) -> int:
        return dict(self.p).get(k, 0)

    @property
    def total(self) -> int:
        return sum(cnt for _, cnt in self.p)


class NotSmoothable(NamedTuple):
    """Obstructed verdict.  `witness` is the index i of the Chern class
    verified nonzero on the normalized sheaf (E twisted so its hull is
    b_zero); nonzero-ness of c_i is preserved under flat deformation,
    so the index always refers to the normalized data."""

    case: str  # "Q4" | "Q2"
    witness: int
    profile: TorsionProfile

    def as_json(self) -> dict:
        return {
            "verdict": "NotSmoothable",
            "case": self.case,
            "witness": self.witness,
            "q": self.profile.q,
            "profile": {str(k): c for k, c in self.profile.p},
        }


class Inconclusive(NamedTuple):
    """No obstruction from the implemented theorems (not a smoothability
    certificate).  `reason` distinguishes a hypothesis miss worth
    flagging, e.g. the q=2 weight bound failing on degenerate hulls."""

    profile: TorsionProfile
    reason: str | None = None

    def as_json(self) -> dict:
        out: dict = {
            "verdict": "Inconclusive",
            "q": self.profile.q,
            "profile": {str(k): c for k, c in self.profile.p},
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _hull_and_profile(
    E: Multifiltration,
) -> tuple[Multifiltration, TorsionProfile, dict[int, int]]:
    """The reflexive hull of E, the profile of E inside it and each
    level's least weight m_Sigma.  The profile is empty exactly when E
    is its own hull: the one reflexivity check, so reflexive E errors
    (zero quotient, profile undefined)."""
    hull = reflexive_hull(E)
    levels = sorted(drop_profile(E, hull).items())
    if not levels:
        raise ValueError(
            "degenerate input: E is reflexive, the torsion profile is undefined"
        )
    profile = TorsionProfile(tuple((k, count) for k, (count, _) in levels))
    return hull, profile, {k: least for k, (_, least) in levels}


def torsion_profile(E: Multifiltration) -> TorsionProfile:
    """Count the k-elementary injections of E inside its reflexive hull,
    per cone.

    Errors on reflexive E (zero quotient, profile undefined).
    """
    return _hull_and_profile(E)[1]


def s_max(f: R2Filtration) -> int:
    """max_L S_L with S_L = sum of c_rho over rays carrying line L
    (0 when no ray is active)."""
    return max(line_sums(f).values(), default=0)


def obstruction_verdict(E: Multifiltration) -> NotSmoothable | Inconclusive:
    """Apply the implemented obstruction theorems to E.

    The theorems speak of the normalized sheaf E_n = E(t), t the sum of
    the hull's b_rho, and read it in E's frame: c(E_n) = twist_chern(c(E),
    t), and a 2-elementary weight of E_n is E's minus t, as factorize is
    shift-equivariant and such an m_Sigma sums all n + 1 rays' weights
    (2 < n).  c_3 needs no twist: in rank 2 the H^3 coefficient of
    sum_k c_k H^k (1 + tH)^(2-k) is c_3, so c_3(E_n) = c_3(E), and only
    Q4's c_q with c_3 = 0 is read off the twist, which needs c_0..c_q
    alone: Q4 reads them off the hull's class and p_q (module
    docstring).  Q2 reads the least 2-elementary weight off the profile
    walk (`multifilt.drop_profile`), so it takes no drop.  Stability
    and S_max read the hull's c_rho and lines, which twisting keeps.  A
    hypothesis match whose guaranteed witness vanishes would falsify the
    machine-checked argument and raises RuntimeError.
    """
    hull, prof, least = _hull_and_profile(E)
    q, n = prof.q, E.fan.n
    q4 = n >= 4 and q >= 4
    if not (q4 or (n >= 3 and q == 2 and prof.count(3) == 0)):
        return Inconclusive(prof)
    hull_f = from_multifiltration(hull)
    t = hull_f.b_sum

    if q4:
        # c(E) mod H^(q+1): the hull's class, its c_q less the leading log
        c = list(chern_class(hull_f).coeffs[: q + 1])
        c[q] -= (-1) ** (q - 1) * factorial(q - 1) * prof.count(q)
        if c[3] != 0:
            return NotSmoothable("Q4", 3, prof)
        if twist_chern(TruncPoly(n, c), t)[q] != 0:
            return NotSmoothable("Q4", q, prof)
        raise RuntimeError(
            f"obstruction argument falsified: q={q} >= 4 but c_3 and c_{q}"
            " of the normalized sheaf both vanish"
        )

    if stability(hull_f) is Stability.UNSTABLE:
        return Inconclusive(prof)
    bound, weight = -s_max(hull_f), least[2] - t
    if weight >= bound:
        if chern_general(E)[3] == 0:
            raise RuntimeError(
                "obstruction argument falsified: q=2, p_3=0,"
                " semistable hull, weights within bound, but c_3"
                " of the normalized sheaf vanishes"
            )
        return NotSmoothable("Q2", 3, prof)
    return Inconclusive(
        prof,
        reason=(
            "2-elementary weight below -S_max"
            f" (min {weight} < {bound}); the c_3 != 0"
            " guarantee does not apply to such degenerate hulls"
        ),
    )
