"""The one base of tsk's value records.

A record declares its fields as `__slots__` and sets each once, when
it is built, with `object.__setattr__`.  `Frozen` makes the rest
uniform: assignment raises AttributeError, two records are equal when
they have the same type and equal fields, and equal records hash
equal.  The interned `Fan` and `Subspace` are not records: each value
exists once, so their equality is identity and their hash object's.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable


class Frozen:
    """Immutable, compared and hashed by the subclass's slot values."""

    __slots__ = ()
    _fields: Callable[[Any], Any]  # set per subclass: its slot values

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))
