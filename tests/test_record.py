"""The value records share one frozen base: immutability, equality and
hashing by their fields."""

from __future__ import annotations

import pytest

from tsk.fan import Fan
from tsk.obstruct import TorsionProfile
from tsk.prescribe import PrescriptionProblem
from tsk.record import Frozen
from tsk.reflexive import R2Filtration, RayDatum, to_multifiltration
from tsk.ring import TruncPoly

# Each record built twice from the same data, by a fresh constructor call.
RECORDS = {
    "RayDatum": lambda: RayDatum(-2, 0, (2, 4)),
    "R2Filtration": lambda: R2Filtration.b_zero_data(Fan(3), (1, 2, 0, 1)),
    "TorsionProfile": lambda: TorsionProfile(((2, 1), (4, 3))),
    "PrescriptionProblem": lambda: PrescriptionProblem(4, [1, 6, 6, 0, 0]),
    "TruncPoly": lambda: TruncPoly(3, (1, 2, 3)),
    "Multifiltration": lambda: to_multifiltration(
        R2Filtration.b_zero_data(Fan(3), (1, 2, 0, 1))
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_frozen_values(name):
    record, again = RECORDS[name](), RECORDS[name]()
    cls = type(record)
    assert cls.__name__ == name and isinstance(record, Frozen)
    assert record is not again
    assert record == again and not record != again and hash(record) == hash(again)
    # a different record type with the same fields is not equal
    twin = object.__new__(type("Twin", (Frozen,), {"__slots__": cls.__slots__}))
    for field in cls.__slots__:
        object.__setattr__(twin, field, getattr(record, field))
    assert record != twin and twin != record
    assert record != tuple(getattr(record, field) for field in cls.__slots__)
    # assignment, to a field or not, raises naming the class
    for field in (cls.__slots__[0], "other"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(record, field, None)
    assert record == again
