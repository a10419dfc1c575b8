"""The interned rank-<=2 subspace lattice."""

from __future__ import annotations

from itertools import product

import pytest

from tsk.linalg import (
    Subspace,
    echelon_hyperplane,
    join_all,
    line2,
    meet_all,
)

LINES = [Subspace.line(p, q) for p, q in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 3)]]
RANK2 = [Subspace.zero(2), Subspace.full(2), *LINES]
RANK1 = [Subspace.zero(1), Subspace.full(1)]


def test_line2_canonicalization():
    assert line2(2, 4) == (1, 2)
    assert line2(-2, -4) == (1, 2)
    assert line2(-3, 6) == (1, -2)
    assert line2(0, -5) == (0, 1)
    assert line2(7, 0) == (1, 0)
    with pytest.raises(ValueError):
        line2(0, 0)


def test_constructors():
    assert Subspace.zero(1).dim == 0
    assert Subspace.full(1).dim == 1
    assert Subspace.full(2).dim == 2
    w = Subspace.line(2, 4)
    assert w.r == 2 and w.dim == 1
    assert w.line_pair() == (1, 2)
    # only C^1 and C^2 exist
    for r in (0, 3):
        with pytest.raises(ValueError):
            Subspace.zero(r)
        with pytest.raises(ValueError):
            Subspace.full(r)


def test_canonical_equality():
    a = Subspace.line(2, 6)
    b = Subspace.line(-1, -3)
    assert a is b and a == b
    assert hash(a) == hash(b)
    assert a != Subspace.line(1, 2)
    assert Subspace.zero(1) != Subspace.zero(2)
    assert repr(a) == "Subspace.line(1, 3)"
    assert repr(Subspace.zero(2)) == "Subspace.zero(2)"
    assert repr(Subspace.full(1)) == "Subspace.full(1)"


def test_line_pair():
    assert Subspace.line(-2, -3).line_pair() == (2, 3)
    with pytest.raises(ValueError):
        Subspace.full(2).line_pair()
    with pytest.raises(ValueError):
        Subspace.zero(2).line_pair()
    with pytest.raises(ValueError):
        Subspace.full(1).line_pair()


def test_containment():
    zero, full = Subspace.zero(2), Subspace.full(2)
    l1, l2 = Subspace.line(1, 0), Subspace.line(0, 1)
    assert zero <= l1 <= full
    assert not l1 <= l2
    assert not full <= l1
    with pytest.raises(ValueError):
        l1 <= Subspace.zero(1)
    with pytest.raises(TypeError):
        l1 <= (1, 0)


def test_join_meet_rank2():
    l1, l2 = Subspace.line(1, 1), Subspace.line(1, -1)
    assert l1.join(l2) == Subspace.full(2)
    assert l1.meet(l2) == Subspace.zero(2)
    assert l1.join(l1) == l1
    assert l1.meet(l1) == l1
    assert l1.join(Subspace.zero(2)) == l1
    assert l1.meet(Subspace.full(2)) == l1


def test_lattice_laws():
    for elements in (RANK2, RANK1):
        for a, b in product(elements, repeat=2):
            assert a.join(b) is b.join(a)
            assert a.meet(b) is b.meet(a)
            assert a.join(a.meet(b)) is a
            assert a.meet(a.join(b)) is a
            assert (a <= b) == (a.join(b) is b) == (a.meet(b) is a)
            assert a.join(b).dim + a.meet(b).dim == a.dim + b.dim
        for a, b, c in product(elements, repeat=3):
            assert a.join(b).join(c) is a.join(b.join(c))
            assert a.meet(b).meet(c) is a.meet(b.meet(c))
    # distinct lines span C^2 and meet in zero
    for a, b in product(LINES, repeat=2):
        if a is not b:
            assert a.join(b) is Subspace.full(2)
            assert a.meet(b) is Subspace.zero(2)
    # values are interned
    assert Subspace.line(2, 4) is Subspace.line(1, 2)
    assert Subspace.zero(2) is Subspace.zero(2)
    assert Subspace.full(1) is Subspace.full(1)
    # mixed ambient spaces do not combine
    with pytest.raises(ValueError):
        Subspace.full(1).join(Subspace.zero(2))
    with pytest.raises(ValueError):
        Subspace.full(2).meet(Subspace.full(1))


def test_join_all_meet_all():
    lines = [Subspace.line(1, i) for i in range(3)]
    assert join_all(2, lines) == Subspace.full(2)
    assert meet_all(2, lines) == Subspace.zero(2)
    assert join_all(2, []) == Subspace.zero(2)
    assert meet_all(2, []) == Subspace.full(2)


def test_codim_in():
    l1 = Subspace.line(1, 1)
    assert l1.codim_in(Subspace.full(2)) == 1
    assert Subspace.zero(2).codim_in(l1) == 1
    assert Subspace.zero(2).codim_in(Subspace.full(2)) == 2
    with pytest.raises(ValueError):
        Subspace.full(2).codim_in(l1)


def test_echelon_hyperplane():
    # below a line sits zero; below the plane the echelon-first line
    l1 = Subspace.line(1, 5)
    assert echelon_hyperplane(l1, Subspace.zero(2)) is Subspace.zero(2)
    assert echelon_hyperplane(Subspace.full(2), Subspace.zero(2)) is Subspace.line(1, 0)
    # the hyperplane contains `small`
    for line in LINES:
        assert echelon_hyperplane(Subspace.full(2), line) is line
    assert echelon_hyperplane(Subspace.full(1), Subspace.zero(1)) is Subspace.zero(1)
    with pytest.raises(ValueError):
        echelon_hyperplane(l1, Subspace.line(0, 1))
    with pytest.raises(ValueError):
        echelon_hyperplane(l1, l1)


def test_immutability():
    w = Subspace.line(1, 2)
    with pytest.raises(AttributeError):
        w.r = 3
