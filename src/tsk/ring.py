"""Truncated polynomial arithmetic in Z[H]/<H^(n+1)> and Q[H]/<H^(n+1)>.

The Chow ring of P^n is Z[H]/<H^(n+1)>; Chern polynomials live there.
One class covers both coefficient domains: coefficients are Python ints
or fractions.Fraction (always exact, never floats).  Mixed instances
compare equal when the values do, because int and Fraction share
equality and hash in Python.

The formal log and exp of a Chern polynomial run through Newton's
identities on its integer log coefficients s_k = k [H^k] log c:

    k c_k = sum_{i=1..k} s_i c_{k-i}       (c_0 = 1, s_0 = 0).

If c = exp(L), then H c' = (H L') c, and the H^k terms of the two sides
are k c_k and sum_i s_i c_{k-i}, since H L' = sum_k s_k H^k.  Read one
way (`log_coeffs`), the identity gives every s_k with no division, so
integral c has integral s; read the other way (`exp_coeffs`), it gives
c_k from s with one division by k.  Both are O(n^2) and turn products
into sums of s (log(P1 P2) = log P1 + log P2).

Chern classes are products of linear factors (1 + aH)^e with integer a
and e of either sign.  For one factor H L' = e aH / (1 + aH), so its
s_k = -e (-a)^k, O(n) per factor: `linear_product` sums these and
takes one `exp_coeffs`, all in plain ints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .record import Frozen

Scalar = Union[int, Fraction]


def _exact(value: Scalar) -> Scalar:
    """Normalize a coefficient: exact ints stay ints, Fractions reduce."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, got {value!r}")
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


class TruncPoly(Frozen):
    """An element of Z[H]/<H^(n+1)> or Q[H]/<H^(n+1)>.

    `coeffs` has exactly n+1 entries, coeffs[k] multiplying H^k.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Iterable[Scalar] = ()) -> None:
        if n < 0:
            raise ValueError("truncation order n must be >= 0")
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        if len(cs) > n + 1:
            raise ValueError(f"too many coefficients for truncation at H^{n}")
        cs.extend([0] * (n + 1 - len(cs)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls, n: int) -> "TruncPoly":
        return cls(n, (1,))

    @classmethod
    def linear(cls, n: int, a: Scalar, b: Scalar = 1) -> "TruncPoly":
        """The polynomial a + b*H."""
        return cls(n, (a, b) if n >= 1 else (a,))

    # -- basic protocol -------------------------------------------------

    def __repr__(self) -> str:
        return f"TruncPoly({self.n}, {list(self.coeffs)!r})"

    def __str__(self) -> str:
        return self.render()

    def __getitem__(self, k: int) -> Scalar:
        return self.coeffs[k]

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    # -- ring operations -------------------------------------------------

    def _match(self, other: "TruncPoly") -> None:
        if not isinstance(other, TruncPoly):
            raise TypeError(f"expected TruncPoly, got {other!r}")
        if self.n != other.n:
            raise ValueError(
                f"truncation orders differ: H^{self.n} vs H^{other.n}"
            )

    def __add__(self, other: "TruncPoly") -> "TruncPoly":
        self._match(other)
        return TruncPoly(self.n, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncPoly") -> "TruncPoly":
        self._match(other)
        return TruncPoly(self.n, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TruncPoly":
        return TruncPoly(self.n, (-a for a in self.coeffs))

    def __mul__(self, other: "TruncPoly | Scalar") -> "TruncPoly":
        if isinstance(other, (int, Fraction)):
            return TruncPoly(self.n, (a * other for a in self.coeffs))
        self._match(other)
        out: list[Scalar] = [0] * (self.n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(self.n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncPoly(self.n, out)

    __rmul__ = __mul__

    def inverse(self) -> "TruncPoly":
        """Multiplicative inverse; the constant term must be a unit.

        Over Z that means constant +-1 (the inverse then stays integral);
        over Q any nonzero constant works.
        """
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("constant term 0 is not invertible")
        if self.is_integral and c0 not in (1, -1):
            raise ValueError(
                f"constant term {c0} is not a unit of Z[H]/<H^{self.n + 1}>;"
                " convert to rational coefficients first"
            )
        inv0: Scalar = c0 if c0 in (1, -1) else Fraction(1, 1) / c0
        out: list[Scalar] = [inv0] + [0] * self.n
        for k in range(1, self.n + 1):
            acc: Scalar = 0
            for i in range(1, k + 1):
                if self.coeffs[i] != 0:
                    acc += self.coeffs[i] * out[k - i]
            out[k] = -inv0 * acc
        return TruncPoly(self.n, out)

    def int_pow(self, e: int) -> "TruncPoly":
        """Integer power, negative exponents via the inverse."""
        base = self.inverse() if e < 0 else self
        e = abs(e)
        result = TruncPoly.one(self.n)
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- formal log / exp -------------------------------------------------

    def log(self) -> "TruncPoly":
        """Formal log of 1 + R; coefficients come back rational."""
        s = log_coeffs(self.coeffs)
        return TruncPoly(self.n, [0] + [Fraction(x, k) for k, x in enumerate(s[1:], 1)])

    def exp(self) -> "TruncPoly":
        """Formal exp of an element with constant term 0."""
        if self.coeffs[0] != 0:
            raise ValueError("exp requires constant term exactly 0")
        return TruncPoly(
            self.n, exp_coeffs(self.n, [k * a for k, a in enumerate(self.coeffs)])
        )

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Render like "1 + 13*H + 48*H^2", the form the CLI prints.

        Every nonzero coefficient is printed explicitly (including 1),
        rationals as p/q.  The zero polynomial renders as "0".
        """
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = f"{mag}*H"
            else:
                body = f"{mag}*H^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def product(polys: Iterable[TruncPoly], n: int) -> TruncPoly:
    """Product of a (possibly empty) iterable of polynomials."""
    out = TruncPoly.one(n)
    for p in polys:
        out = out * p
    return out


def log_coeffs(c: Sequence[Scalar]) -> list[Scalar]:
    """s_0 = 0 and s_k = k [H^k] log c for the coefficients c_0..c_n of a
    polynomial with c_0 = 1, by Newton's identity

        s_k = k c_k - sum_{i=1..k-1} s_i c_{k-i}.

    No division, so the s_k are ints when the c_k are.
    """
    if c[0] != 1:
        raise ValueError("log requires constant term exactly 1")
    s: list[Scalar] = [0] * len(c)
    for k in range(1, len(c)):
        s[k] = k * c[k] - sum([s[i] * c[k - i] for i in range(1, k)])
    return s


def exp_coeffs(n: int, s: Sequence[Scalar]) -> list[Scalar]:
    """The coefficients c_0..c_n of exp(sum_k s_k H^k / k), the inverse of
    `log_coeffs`: c_0 = 1 and c_k = (sum_{i=1..k} s_i c_{k-i}) / k.

    The division is exact int division when k divides an int sum, and a
    Fraction otherwise.
    """
    c: list[Scalar] = [1] + [0] * n
    for k in range(1, n + 1):
        t = sum([s[i] * c[k - i] for i in range(1, k + 1)])
        c[k] = t // k if type(t) is int and t % k == 0 else Fraction(t, k)
    return c


def linear_product(n: int, factors: Iterable[tuple[int, int]]) -> TruncPoly:
    """prod (1 + a*H)^e over integer pairs (a, e), e of either sign, in
    Z[H]/<H^(n+1)>.

    Each factor adds s_k = -e (-a)^k to the log coefficients, and one
    `exp_coeffs` turns their sum back into the product, which lies in
    Z[H], so every division there is exact (checked).
    """
    s = [0] * (n + 1)
    for a, e in factors:
        if type(a) is not int or type(e) is not int:
            raise TypeError(f"linear factors need int a and e, got {(a, e)!r}")
        if not a or not e:
            continue
        t = -e
        for k in range(1, n + 1):
            t *= -a
            s[k] += t
    c = exp_coeffs(n, s)
    if any(type(x) is not int for x in c):
        raise ArithmeticError(f"product of linear factors is not integral: {c}")
    return TruncPoly(n, c)
