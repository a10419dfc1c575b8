"""Truncated polynomial ring Z[H]/<H^(n+1)> and Q[H]/<H^(n+1)>."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tsk.ring import TruncPoly, exp_coeffs, linear_product, log_coeffs, product


def test_constructors_and_padding():
    p = TruncPoly(3, (1, 2))
    assert p.coeffs == (1, 2, 0, 0)
    assert TruncPoly.one(2).coeffs == (1, 0, 0)
    assert TruncPoly(2).coeffs == (0, 0, 0)
    assert TruncPoly.linear(4, 5, -2).coeffs == (5, -2, 0, 0, 0)
    with pytest.raises(ValueError):
        TruncPoly(1, (1, 2, 3))
    with pytest.raises(ValueError):
        TruncPoly(-1)


def test_immutability_and_equality():
    p = TruncPoly(2, (1, 1))
    with pytest.raises(AttributeError):
        p.coeffs = (0,)
    assert p == TruncPoly(2, (1, 1))
    assert p != TruncPoly(3, (1, 1))
    assert hash(p) == hash(TruncPoly(2, (1, 1)))


def test_exactness():
    # float contamination is rejected at construction, and so is bool,
    # although it subclasses int
    with pytest.raises(TypeError):
        TruncPoly(2, (1.0, 2))
    with pytest.raises(TypeError):
        TruncPoly(2, (True, 2))
    # Fractions that are integers normalize to int
    p = TruncPoly(2, (Fraction(4, 2), Fraction(1, 3)))
    assert p.coeffs == (2, Fraction(1, 3), 0)
    assert isinstance(p.coeffs[0], int)
    assert not p.is_integral
    assert TruncPoly(2, (1, 2, 3)).is_integral


def test_arithmetic():
    n = 4
    a = TruncPoly(n, (1, 2, 1))       # (1+H)^2
    b = TruncPoly(n, (1, 1))          # 1+H
    assert b * b == a
    assert a + b == TruncPoly(n, (2, 3, 1))
    assert a - b == TruncPoly(n, (0, 1, 1))
    assert -b == TruncPoly(n, (-1, -1))
    assert 3 * b == TruncPoly(n, (3, 3))
    assert b * Fraction(1, 2) == TruncPoly(n, (Fraction(1, 2), Fraction(1, 2)))
    # truncation in products: (1+H)^5 cut at H^4
    assert b.int_pow(5) == TruncPoly(n, (1, 5, 10, 10, 5))
    with pytest.raises(ValueError):
        a + TruncPoly(2, (1,))


def test_inverse():
    n = 5
    b = TruncPoly(n, (1, 1))
    assert b * b.inverse() == TruncPoly.one(n)
    # alternating geometric series
    assert b.inverse().coeffs == (1, -1, 1, -1, 1, -1)
    assert b.int_pow(-2) == b.inverse() * b.inverse()
    with pytest.raises(ZeroDivisionError):
        TruncPoly(n, (0, 1)).inverse()
    # integral non-unit constant is refused...
    with pytest.raises(ValueError):
        TruncPoly(n, (2, 1)).inverse()
    # ...but any nonzero rational constant is a unit over Q
    q = TruncPoly(n, (Fraction(1, 2), 1))
    assert q * q.inverse() == TruncPoly.one(n)


def test_log_exp_roundtrip():
    n = 5
    p = TruncPoly(n, (1, 3, -2, 7, 0, 1))
    assert p.log().exp() == p
    q = TruncPoly(n, (0, 2, -1, 0, 5, -3))
    assert q.exp().log() == q
    # log turns products into sums
    a, b = TruncPoly(n, (1, 1)), TruncPoly(n, (1, 0, 4, 1))
    assert (a * b).log() == a.log() + b.log()
    with pytest.raises(ValueError):
        TruncPoly(n, (2,)).log()
    with pytest.raises(ValueError):
        TruncPoly(n, (1,)).exp()


def series_log(p: TruncPoly) -> TruncPoly:
    """The reference log: sum_{i>=1} (-1)^(i+1) R^i / i for p = 1 + R."""
    r = p - TruncPoly.one(p.n)
    out, power = TruncPoly(p.n), TruncPoly.one(p.n)
    for i in range(1, p.n + 1):
        power = power * r
        out = out + power * Fraction((-1) ** (i + 1), i)
    return out


def series_exp(a: TruncPoly) -> TruncPoly:
    """The reference exp: sum_{i>=0} A^i / i!."""
    out, power = TruncPoly.one(a.n), TruncPoly.one(a.n)
    for i in range(1, a.n + 1):
        power = power * a * Fraction(1, i)
        out = out + power
    return out


def _random_coeff(rng, rational):
    if rational and rng.random() < 0.5:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-20, 20)


def test_log_exp_coeffs_are_inverse():
    rng = random.Random(26)
    for n in range(13):
        for rational in (False, True):
            for _ in range(8):
                c = [1] + [_random_coeff(rng, rational) for _ in range(n)]
                s = log_coeffs(c)
                back = exp_coeffs(n, s)
                assert s[0] == 0 and len(s) == n + 1 and back == c, c
                if not rational:
                    assert all(type(x) is int for x in s + back)
    with pytest.raises(ValueError):
        log_coeffs([2, 1])
    # k does not divide the sum: exp(H^2/2 * 1) has c_2 = 1/2
    assert exp_coeffs(2, [0, 0, 1]) == [1, 0, Fraction(1, 2)]


def test_log_exp_match_the_series():
    rng = random.Random(2026)
    for n in range(9):
        for rational in (False, True):
            for _ in range(6):
                p = TruncPoly(n, [1] + [_random_coeff(rng, rational) for _ in range(n)])
                assert p.log() == series_log(p), p
                a = TruncPoly(n, [0] + [_random_coeff(rng, rational) for _ in range(n)])
                assert a.exp() == series_exp(a), a


def test_log_oracle():
    # log(1+H) = H - H^2/2 + H^3/3 - H^4/4
    p = TruncPoly(4, (1, 1)).log()
    assert p.coeffs == (
        0,
        1,
        Fraction(-1, 2),
        Fraction(1, 3),
        Fraction(-1, 4),
    )


def test_render():
    assert TruncPoly(3, (1, 13, 48)).render() == "1 + 13*H + 48*H^2"
    assert TruncPoly(4, (1, 3, 3, -1, -9)).render() == (
        "1 + 3*H + 3*H^2 - 1*H^3 - 9*H^4"
    )
    assert TruncPoly(2).render() == "0"
    assert TruncPoly(2, (0, -1)).render() == "-1*H"
    assert TruncPoly(2, (0, 0, Fraction(1, 2))).render() == "1/2*H^2"
    assert str(TruncPoly(1, (1, 2))) == "1 + 2*H"


def test_product():
    n = 3
    polys = [TruncPoly(n, (1, c)) for c in (1, 2, 3)]
    assert product(polys, n) == TruncPoly(n, (1, 6, 11, 6))
    assert product([], n) == TruncPoly.one(n)


def int_pow_product(n, factors):
    """The reference: each factor raised with int_pow, then multiplied."""
    return product((TruncPoly.linear(n, 1, a).int_pow(e) for a, e in factors), n)


def test_linear_product_matches_int_pow():
    rng = random.Random(10)
    exponents = list(range(-8, 9)) + [s * 10**k for k in range(1, 7) for s in (1, -1)]
    for _ in range(1500):
        n = rng.randint(0, 8)
        factors = [
            (rng.randint(-12, 12), rng.choice(exponents))
            for _ in range(rng.randint(0, 6))
        ]
        if factors and rng.random() < 0.3:
            factors.append((factors[0][0], rng.choice(exponents)))  # a repeated
        out = linear_product(n, factors)
        assert out == int_pow_product(n, factors), (n, factors)
        assert all(type(c) is int for c in out.coeffs)


def test_linear_product_edge_cases():
    assert linear_product(3, []) == TruncPoly.one(3)
    assert linear_product(0, [(5, -3), (2, 7)]) == TruncPoly.one(0)
    assert linear_product(3, [(0, 5), (4, 0)]) == TruncPoly.one(3)
    # (1 + H)^5 cut at H^4, and (1 - 2H)^-1 = sum (2H)^k
    assert linear_product(4, [(1, 5)]) == TruncPoly(4, (1, 5, 10, 10, 5))
    assert linear_product(3, [(-2, -1)]) == TruncPoly(3, (1, 2, 4, 8))
    # a factor and its inverse cancel, also as repeated a
    assert linear_product(5, [(3, 4), (-1, 2), (3, -4), (-1, -2)]) == TruncPoly.one(5)
    assert linear_product(4, [(3, 2), (3, 3)]) == linear_product(4, [(3, 5)])


def test_linear_product_takes_int_factors_only():
    # (1 + H/2) and (1 + 2H)^(1/2) are not products of integral linear
    # factors; they are refused, not floored.
    for factor in ((Fraction(1, 2), 1), (2, Fraction(1, 2)), (True, 1), (2, True), (2.0, 1)):
        with pytest.raises(TypeError):
            linear_product(2, [factor])
