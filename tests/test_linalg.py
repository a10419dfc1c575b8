"""The interned subspace lattice of C^2."""

from __future__ import annotations

from itertools import product

import pytest

from tsk.linalg import (
    FULL,
    ZERO,
    Subspace,
    echelon_hyperplane,
    join_all,
    line2,
)

LINES = [Subspace.line(p, q) for p, q in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 3)]]
ELEMENTS = [ZERO, FULL, *LINES]


def test_line2_canonicalization():
    assert line2(2, 4) == (1, 2)
    assert line2(-2, -4) == (1, 2)
    assert line2(-3, 6) == (1, -2)
    assert line2(0, -5) == (0, 1)
    assert line2(7, 0) == (1, 0)
    with pytest.raises(ValueError):
        line2(0, 0)


def test_constructors():
    assert ZERO.dim == 0 and ZERO.pair is None
    assert FULL.dim == 2 and FULL.pair is None
    w = Subspace.line(2, 4)
    assert w.dim == 1
    assert w.line_pair() == (1, 2)
    # the lattice is that of C^2 alone: no rank-indexed constructors
    assert not hasattr(Subspace, "zero") and not hasattr(Subspace, "full")
    assert not hasattr(w, "r")


def test_canonical_equality():
    a = Subspace.line(2, 6)
    b = Subspace.line(-1, -3)
    assert a is b and a == b
    assert hash(a) == hash(b)
    assert a != Subspace.line(1, 2)
    assert ZERO != FULL and hash(ZERO) != hash(FULL)
    # interned, so the identity hash agrees with equality
    assert hash(Subspace.line(2, 4)) == hash(Subspace.line(1, 2))
    assert hash(a) == object.__hash__(a)
    assert repr(a) == "Subspace.line(1, 3)"
    assert repr(ZERO) == "ZERO"
    assert repr(FULL) == "FULL"


def test_line_pair():
    assert Subspace.line(-2, -3).line_pair() == (2, 3)
    with pytest.raises(ValueError):
        FULL.line_pair()
    with pytest.raises(ValueError):
        ZERO.line_pair()


def test_containment():
    l1, l2 = Subspace.line(1, 0), Subspace.line(0, 1)
    assert ZERO <= l1 <= FULL
    assert not l1 <= l2
    assert not FULL <= l1
    assert not l1 <= ZERO
    with pytest.raises(TypeError):
        l1 <= (1, 0)


def test_join_meet_rank2():
    l1, l2 = Subspace.line(1, 1), Subspace.line(1, -1)
    assert l1.join(l2) == FULL
    assert l1.meet(l2) == ZERO
    assert l1.join(l1) == l1
    assert l1.meet(l1) == l1
    assert l1.join(ZERO) == l1
    assert l1.meet(FULL) == l1


def test_lattice_laws():
    for a, b in product(ELEMENTS, repeat=2):
        assert a.join(b) is b.join(a)
        assert a.meet(b) is b.meet(a)
        assert a.join(a.meet(b)) is a
        assert a.meet(a.join(b)) is a
        assert (a <= b) == (a.join(b) is b) == (a.meet(b) is a)
        assert a.join(b).dim + a.meet(b).dim == a.dim + b.dim
    for a, b, c in product(ELEMENTS, repeat=3):
        assert a.join(b).join(c) is a.join(b.join(c))
        assert a.meet(b).meet(c) is a.meet(b.meet(c))
    # distinct lines span C^2 and meet in zero
    for a, b in product(LINES, repeat=2):
        if a is not b:
            assert a.join(b) is FULL
            assert a.meet(b) is ZERO
    # values are interned
    assert Subspace.line(2, 4) is Subspace.line(1, 2)
    # an element combined with itself is returned as is
    for x in ELEMENTS:
        assert x.join(x) is x
        assert x.meet(x) is x
        assert x <= x
    # nothing but subspaces combines
    with pytest.raises(TypeError):
        FULL.join((1, 0))
    with pytest.raises(TypeError):
        Subspace.line(1, 0).meet(None)


def test_join_all():
    lines = [Subspace.line(1, i) for i in range(3)]
    assert join_all(lines) is FULL
    assert join_all(lines[:1]) is lines[0]
    assert join_all([]) is ZERO


def test_echelon_hyperplane():
    # below a line sits zero; below the plane the echelon-first line
    l1 = Subspace.line(1, 5)
    assert echelon_hyperplane(l1, ZERO) is ZERO
    assert echelon_hyperplane(FULL, ZERO) is Subspace.line(1, 0)
    # the hyperplane contains `small`
    for line in LINES:
        assert echelon_hyperplane(FULL, line) is line
    with pytest.raises(ValueError):
        echelon_hyperplane(l1, Subspace.line(0, 1))
    with pytest.raises(ValueError):
        echelon_hyperplane(l1, l1)


def test_immutability():
    w = Subspace.line(1, 2)
    with pytest.raises(AttributeError):
        w.dim = 2
