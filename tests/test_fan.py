"""Fan combinatorics of P^n."""

from __future__ import annotations

from itertools import combinations
from math import comb

import pytest

from tsk.fan import Fan


def test_rays_and_generators():
    fan = Fan(3)
    assert list(fan.rays) == [0, 1, 2, 3]


def test_fan_is_an_interned_value():
    assert Fan(3) is Fan(3) and hash(Fan(3)) == hash(Fan(3))
    assert Fan(3) != Fan(4)
    assert Fan(3) != (3,)
    with pytest.raises(AttributeError):
        Fan(3).n = 4


def test_bad_parameters():
    with pytest.raises(ValueError):
        Fan(0)
    fan = Fan(2)
    with pytest.raises(ValueError):
        fan.cones(3)
    with pytest.raises(ValueError):
        fan.codim((0, 0))  # repeated ray
    with pytest.raises(ValueError):
        fan.codim((0, 1, 2))  # |I| = n + 1 is not a cone


def test_cone_counts():
    for n in (1, 2, 3, 4):
        fan = Fan(n)
        for k in range(n + 1):
            assert len(fan.cones(k)) == comb(n + 1, k)
        assert sum(1 for _ in fan.all_cones()) == 2 ** (n + 1) - 1
        assert sum(1 for _ in fan.all_cones(min_dim=1)) == 2 ** (n + 1) - 2


def test_all_cones_order():
    fan = Fan(2)
    assert list(fan.all_cones()) == [
        (),
        (0,),
        (1,),
        (2,),
        (0, 1),
        (0, 2),
        (1, 2),
    ]


def test_facets():
    fan = Fan(3)
    assert fan.facets((0, 1, 3)) == [(1, 3), (0, 3), (0, 1)]
    assert fan.facets((2,)) == [()]


def test_cofaces_order_and_membership():
    fan = Fan(3)
    cofs = fan.cofaces((1, 2))
    assert cofs[0] == (1, 2)  # itself first
    assert cofs == [(1, 2), (0, 1, 2), (1, 2, 3)]
    # (dim, lex) order and completeness on a bigger fan
    fan = Fan(4)
    cofs = fan.cofaces((2,))
    dims = [len(c) for c in cofs]
    assert dims == sorted(dims)
    expected = {
        c
        for k in range(1, 5)
        for c in combinations(range(5), k)
        if 2 in c
    }
    assert set(cofs) == expected
