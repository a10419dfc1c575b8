"""Truncated polynomial ring Z[H]/<H^(n+1)>."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tsk.ring import TruncPoly, exp_coeffs, linear_product, log_coeffs

from oracles import series_exp, series_log


def test_constructors_and_padding():
    p = TruncPoly(3, (1, 2))
    assert p.coeffs == (1, 2, 0, 0)
    assert TruncPoly(2).coeffs == (0, 0, 0)
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
    # Fractions (integral ones too), floats and bools are refused at
    # construction, although bool subclasses int
    for bad in (Fraction(1, 2), Fraction(4, 2), 1.0, True):
        with pytest.raises(TypeError):
            TruncPoly(2, (1, bad))
    assert TruncPoly(2, (1, -2, 3)).coeffs == (1, -2, 3)


def test_arithmetic():
    n = 4
    a = TruncPoly(n, (1, 2, 1))       # (1+H)^2
    b = TruncPoly(n, (1, 1))          # 1+H
    assert b * b == a
    # truncation in products: (1+H)^5 cut at H^4
    assert b.int_pow(5) == TruncPoly(n, (1, 5, 10, 10, 5))
    assert b.int_pow(0) == TruncPoly(n, (1,))
    # a product is of two polys of one ring: no scalars, no other n
    for other in (3, Fraction(1, 2), TruncPoly(2, (1, 1)), (1, 1)):
        with pytest.raises(TypeError):
            b * other
        with pytest.raises(TypeError):
            other * b


def test_inverse():
    n = 5
    b = TruncPoly(n, (1, 1))
    assert b * b.inverse() == TruncPoly(n, (1,))
    # alternating geometric series
    assert b.inverse().coeffs == (1, -1, 1, -1, 1, -1)
    assert b.int_pow(-2) == b.inverse() * b.inverse()
    m = TruncPoly(n, (-1, 3, 0, -2))
    assert m * m.inverse() == TruncPoly(n, (1,))
    # only the units +-1 of Z invert
    for c0 in (0, 2, -3):
        with pytest.raises(ValueError):
            TruncPoly(n, (c0, 1)).inverse()


def test_log_exp_roundtrip():
    n = 5
    p = TruncPoly(n, (1, 3, -2, 7, 0, 1))
    assert exp_coeffs(n, log_coeffs(p.coeffs)) == list(p.coeffs)
    # log turns products into sums
    a, b = TruncPoly(n, (1, 1)), TruncPoly(n, (1, 0, 4, 1))
    s_ab = log_coeffs((a * b).coeffs)
    assert s_ab == [x + y for x, y in zip(log_coeffs(a.coeffs), log_coeffs(b.coeffs))]
    with pytest.raises(ValueError):
        log_coeffs([2, 1])


def _random_chern(rng, n):
    return [1] + [rng.randint(-20, 20) for _ in range(n)]


def test_log_exp_coeffs_are_inverse():
    rng = random.Random(26)
    for n in range(13):
        for _ in range(16):
            c = _random_chern(rng, n)
            s = log_coeffs(c)
            back = exp_coeffs(n, s)
            assert s[0] == 0 and len(s) == n + 1 and back == c, c
            assert all(type(x) is int for x in s + back)
    # k does not divide the sum: exp(H^2/2) has c_2 = 1/2
    with pytest.raises(ArithmeticError):
        exp_coeffs(2, [0, 0, 1])


def _log_series(s):
    """sum_k s_k H^k / k, the log whose integer log coefficients are s."""
    return [Fraction(x, max(k, 1)) for k, x in enumerate(s)]


def test_log_exp_match_the_series():
    # s_k = k [H^k] log c, and exp_coeffs(s) = exp(sum s_k H^k / k), which
    # it returns exactly when the series is integral and refuses otherwise
    rng = random.Random(2026)
    refused = 0
    for n in range(9):
        for _ in range(12):
            c = _random_chern(rng, n)
            s = log_coeffs(c)
            assert s == [k * x for k, x in enumerate(series_log(c))], c
            assert exp_coeffs(n, s) == series_exp(_log_series(s)), c
            t = [0] + [rng.randint(-20, 20) for _ in range(n)]
            ref = series_exp(_log_series(t))
            if all(x.denominator == 1 for x in ref):
                assert exp_coeffs(n, t) == ref, t
            else:
                refused += 1
                with pytest.raises(ArithmeticError):
                    exp_coeffs(n, t)
    assert refused > 0


def test_log_oracle():
    # log(1+H) = H - H^2/2 + H^3/3 - H^4/4, so s_k = (-1)^(k+1)
    assert series_log([1, 1, 0, 0, 0]) == [0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)]
    assert log_coeffs([1, 1, 0, 0, 0]) == [0, 1, -1, 1, -1]


def test_render():
    assert TruncPoly(3, (1, 13, 48)).render() == "1 + 13*H + 48*H^2"
    assert TruncPoly(4, (1, 3, 3, -1, -9)).render() == (
        "1 + 3*H + 3*H^2 - 1*H^3 - 9*H^4"
    )
    assert TruncPoly(2).render() == "0"
    assert TruncPoly(2, (0, -1)).render() == "-1*H"
    assert str(TruncPoly(1, (1, 2))) == "1 + 2*H"


def int_pow_product(n, factors):
    """The reference: each factor raised with int_pow, then multiplied."""
    out = TruncPoly(n, (1,))
    for a, e in factors:
        out = out * TruncPoly(n, (1, a)[: n + 1]).int_pow(e)
    return out


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
    one = TruncPoly(3, (1,))
    assert linear_product(3, []) == one
    assert linear_product(0, [(5, -3), (2, 7)]) == TruncPoly(0, (1,))
    assert linear_product(3, [(0, 5), (4, 0)]) == one
    # (1 + H)^5 cut at H^4, and (1 - 2H)^-1 = sum (2H)^k
    assert linear_product(4, [(1, 5)]) == TruncPoly(4, (1, 5, 10, 10, 5))
    assert linear_product(3, [(-2, -1)]) == TruncPoly(3, (1, 2, 4, 8))
    # a factor and its inverse cancel, also as repeated a
    assert linear_product(5, [(3, 4), (-1, 2), (3, -4), (-1, -2)]) == TruncPoly(5, (1,))
    assert linear_product(4, [(3, 2), (3, 3)]) == linear_product(4, [(3, 5)])


def test_linear_product_takes_int_factors_only():
    # (1 + H/2) and (1 + 2H)^(1/2) are not products of integral linear
    # factors; they are refused, not floored.
    for factor in ((Fraction(1, 2), 1), (2, Fraction(1, 2)), (True, 1), (2, True), (2.0, 1)):
        with pytest.raises(TypeError):
            linear_product(2, [factor])
