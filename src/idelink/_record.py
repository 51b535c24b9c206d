"""The base of the package's immutable value records.

Every record class gets its own unchecked builder, ``_trusted``, when
it is defined: the straight-line function below for its number of
slots, bound to a tuple of the class and each slot's setter.  Building
a record runs no per-slot loop, and defining a class compiles nothing.
"""

from __future__ import annotations

import operator
from types import MethodType

_new = object.__new__


# One builder per slot count the package uses.  ``parts`` is the class
# and its slot setters in ``__slots__`` order; one value per slot
# follows, so a wrong number of values is a TypeError.
def _build2(parts, v0, v1, /):
    cls, s0, s1 = parts
    record = _new(cls)
    s0(record, v0)
    s1(record, v1)
    return record


def _build3(parts, v0, v1, v2, /):
    cls, s0, s1, s2 = parts
    record = _new(cls)
    s0(record, v0)
    s1(record, v1)
    s2(record, v2)
    return record


def _build4(parts, v0, v1, v2, v3, /):
    cls, s0, s1, s2, s3 = parts
    record = _new(cls)
    s0(record, v0)
    s1(record, v1)
    s2(record, v2)
    s3(record, v3)
    return record


def _build5(parts, v0, v1, v2, v3, v4, /):
    cls, s0, s1, s2, s3, s4 = parts
    record = _new(cls)
    s0(record, v0)
    s1(record, v1)
    s2(record, v2)
    s3(record, v3)
    s4(record, v4)
    return record


def _build6(parts, v0, v1, v2, v3, v4, v5, /):
    cls, s0, s1, s2, s3, s4, s5 = parts
    record = _new(cls)
    s0(record, v0)
    s1(record, v1)
    s2(record, v2)
    s3(record, v3)
    s4(record, v4)
    s5(record, v5)
    return record


def _build8(parts, v0, v1, v2, v3, v4, v5, v6, v7, /):
    cls, s0, s1, s2, s3, s4, s5, s6, s7 = parts
    record = _new(cls)
    s0(record, v0)
    s1(record, v1)
    s2(record, v2)
    s3(record, v3)
    s4(record, v4)
    s5(record, v5)
    s6(record, v6)
    s7(record, v7)
    return record


_BUILDERS = {2: _build2, 3: _build3, 4: _build4, 5: _build5, 6: _build6, 8: _build8}


class Record:
    """An immutable, slotted record compared, hashed and printed by its fields.

    A subclass lists its attributes in ``__slots__`` and the ones that
    make up its value, in the order they print, in ``_fields``; a slot
    left out of ``_fields`` holds data derived from them.  One rule
    builds every record: its ``__init__`` checks its arguments and
    stores them with ``object.__setattr__``, and package code that
    already holds valid values builds through the class's ``_trusted``,
    which checks nothing.  ``Cls._trusted(*values)`` takes exactly one
    value per ``__slots__`` entry, derived slots included, in order, and
    raises TypeError for any other count; a class whose slot count has
    no builder above is refused when it is defined.  Records of one
    class are equal when their fields are; a record never equals an
    object of another class, a tuple of its fields included.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A plain callable, not a method: ``self._values(self)`` is the
        # field tuple (every record has two or more fields).
        cls._values = operator.attrgetter(*cls._fields)
        slots = cls.__slots__
        if len(slots) not in _BUILDERS:
            raise TypeError(f"{cls.__qualname__}: no record builder for {len(slots)} slots")
        # Bound to a tuple, so the class carries two objects for it (the
        # tuple and the bound method) and nothing is compiled.  Each slot's
        # own setter stores past ``__setattr__``.
        parts = (cls, *[getattr(cls, name).__set__ for name in slots])
        cls._trusted = MethodType(_BUILDERS[len(slots)], parts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setstate__(self, state):
        # copy and pickle restore a slotted object's state through setattr.
        attrs, slots = state
        for name, value in {**(attrs or {}), **slots}.items():
            object.__setattr__(self, name, value)
