"""The base of the package's immutable value records."""

from __future__ import annotations

import operator


class Record:
    """An immutable, slotted record compared, hashed and printed by its fields.

    A subclass lists its attributes in ``__slots__`` and the ones that
    make up its value, in the order they print, in ``_fields``; a slot
    left out of ``_fields`` holds data derived from them.  One rule
    builds every record: its ``__init__`` checks its arguments and
    stores them with ``object.__setattr__``, and package code that
    already holds valid values builds through ``_trusted``, which checks
    nothing.  Records of one class are equal when their fields are; a
    record never equals an object of another class, a tuple of its
    fields included.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A plain callable, not a method: ``self._values(self)`` is the
        # field tuple (every record has two or more fields).
        cls._values = operator.attrgetter(*cls._fields)
        # Each slot's own setter, which stores past ``__setattr__``.
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls.__slots__])

    @classmethod
    def _trusted(cls, *values):
        """An unchecked record of ``values``, one per ``__slots__`` entry, derived slots included."""
        record = object.__new__(cls)
        for set_slot, value in zip(cls._setters, values):
            set_slot(record, value)
        return record

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
