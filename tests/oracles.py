"""Reference algebra for the tests: truncated power series over Q.

tsk's ring is Z[H]/<H^(n+1)>, and its log and exp run through Newton's
identities on integer log coefficients (`ring.log_coeffs`,
`ring.exp_coeffs`).  These are the textbook series instead, on plain
lists of Fractions (entry k multiplies H^k, truncated at the list's
length), and share no code with the ring.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def series_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """The product of two series of the same length, truncated."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return out


def series_log(c: Sequence[int | Fraction]) -> list[Fraction]:
    """log c = sum_{i>=1} (-1)^(i+1) R^i / i for c = 1 + R."""
    if c[0] != 1:
        raise ValueError("log requires constant term exactly 1")
    r = [Fraction(0)] + [Fraction(x) for x in c[1:]]
    out, power = [Fraction(0)] * len(c), [Fraction(1)] + [Fraction(0)] * (len(c) - 1)
    for i in range(1, len(c)):
        power = series_mul(power, r)
        out = [o + p * Fraction((-1) ** (i + 1), i) for o, p in zip(out, power)]
    return out


def series_exp(a: Sequence[int | Fraction]) -> list[Fraction]:
    """exp a = sum_{i>=0} a^i / i! for a with constant term 0."""
    if a[0] != 0:
        raise ValueError("exp requires constant term exactly 0")
    a = [Fraction(x) for x in a]
    out = power = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for i in range(1, len(a)):
        power = [x / i for x in series_mul(power, a)]
        out = [o + p for o, p in zip(out, power)]
    return out
