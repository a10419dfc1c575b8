"""Truncated polynomial arithmetic in Z[H]/<H^(n+1)>.

The Chow ring of P^n is Z[H]/<H^(n+1)>; Chern polynomials live there.
Coefficients are Python ints, always exact: a Fraction, float or bool
coefficient is a TypeError.

The formal log and exp of a Chern polynomial run through Newton's
identities on its integer log coefficients s_k = k [H^k] log c:

    k c_k = sum_{i=1..k} s_i c_{k-i}       (c_0 = 1, s_0 = 0).

If c = exp(L), then H c' = (H L') c, and the H^k terms of the two sides
are k c_k and sum_i s_i c_{k-i}, since H L' = sum_k s_k H^k.  Read one
way (`log_coeffs`), the identity gives every s_k with no division, so
integral c has integral s; read the other way (`exp_coeffs`), it gives
c_k from s with one exact division by k.  Both are O(n^2) and turn
products into sums of s (log(P1 P2) = log P1 + log P2).

Chern classes are products of linear factors (1 + aH)^e with integer a
and e of either sign.  For one factor H L' = e aH / (1 + aH), so its
s_k = -e (-a)^k, O(n) per factor: `linear_product` sums these and
takes one `exp_coeffs`, all in plain ints.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .record import Frozen


class TruncPoly(Frozen):
    """An element of Z[H]/<H^(n+1)>.

    `coeffs` has exactly n+1 int entries, coeffs[k] multiplying H^k.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Iterable[int] = ()) -> None:
        if n < 0:
            raise ValueError("truncation order n must be >= 0")
        cs = list(coeffs)
        if len(cs) > n + 1:
            raise ValueError(f"too many coefficients for truncation at H^{n}")
        for c in cs:
            if type(c) is not int:
                raise TypeError(f"coefficients must be int, got {c!r}")
        cs.extend([0] * (n + 1 - len(cs)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __repr__(self) -> str:
        return f"TruncPoly({self.n}, {list(self.coeffs)!r})"

    def __str__(self) -> str:
        return self.render()

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]

    def __mul__(self, other: "TruncPoly") -> "TruncPoly":
        """The product in the same ring; anything else is a TypeError."""
        if type(other) is not TruncPoly or other.n != self.n:
            raise TypeError(f"expected a TruncPoly truncated at H^{self.n}, got {other!r}")
        out = [0] * (self.n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(self.n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncPoly(self.n, out)

    def inverse(self) -> "TruncPoly":
        """Multiplicative inverse; the constant term must be a unit of Z,
        +-1, and the inverse then stays integral."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError(f"constant term {c0} is not a unit of Z[H]/<H^{self.n + 1}>")
        out = [c0] + [0] * self.n
        for k in range(1, self.n + 1):
            out[k] = -c0 * sum([self.coeffs[i] * out[k - i] for i in range(1, k + 1)])
        return TruncPoly(self.n, out)

    def int_pow(self, e: int) -> "TruncPoly":
        """Integer power by square-and-multiply, negative exponents via the
        inverse."""
        base = self.inverse() if e < 0 else self
        e = abs(e)
        result = TruncPoly(self.n, (1,))
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def render(self) -> str:
        """Render like "1 + 13*H + 48*H^2", the form the CLI prints.

        Every nonzero coefficient is printed explicitly (including 1).
        The zero polynomial renders as "0".
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


def log_coeffs(c: Sequence[int]) -> list[int]:
    """s_0 = 0 and s_k = k [H^k] log c for the coefficients c_0..c_n of a
    polynomial with c_0 = 1, by Newton's identity

        s_k = k c_k - sum_{i=1..k-1} s_i c_{k-i}.

    No division, so the s_k are ints when the c_k are.
    """
    if c[0] != 1:
        raise ValueError("log requires constant term exactly 1")
    s = [0] * len(c)
    for k in range(1, len(c)):
        s[k] = k * c[k] - sum([s[i] * c[k - i] for i in range(1, k)])
    return s


def exp_coeffs(n: int, s: Sequence[int]) -> list[int]:
    """The coefficients c_0..c_n of exp(sum_k s_k H^k / k), the inverse of
    `log_coeffs`: c_0 = 1 and c_k = (sum_{i=1..k} s_i c_{k-i}) / k.

    Every division must be exact: a class that is not integral, such as
    exp(H^2 / 2), raises ArithmeticError.
    """
    c = [1] + [0] * n
    for k in range(1, n + 1):
        c[k], r = divmod(sum([s[i] * c[k - i] for i in range(1, k + 1)]), k)
        if r:
            raise ArithmeticError(f"exp coefficient c_{k} is not an integer (s = {list(s)})")
    return c


def linear_product(n: int, factors: Iterable[tuple[int, int]]) -> TruncPoly:
    """prod (1 + a*H)^e over integer pairs (a, e), e of either sign, in
    Z[H]/<H^(n+1)>.

    Each factor adds s_k = -e (-a)^k to the log coefficients, and one
    `exp_coeffs` turns their sum back into the product, which lies in
    Z[H], so every division there is exact.
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
    return TruncPoly(n, exp_coeffs(n, s))
