"""Immutable records, the base of the engine's value and result types.

A record names its fields in ``__slots__`` and takes them by position or
keyword; a field cannot be assigned or deleted afterwards.  Two records
are equal when they are of one type with equal fields, and hash as the
tuple of their fields.  A type that validates or normalises its fields
writes its own ``__init__`` and ends it with ``super().__init__``; the
one built on a hot path, ``Form``, sets each field with
``object.__setattr__``, and ``Form`` operations skip ``Form.__init__``.
``DerivationContext`` compares by identity, so it is no record, but it
takes the record's ``__setattr__`` and ``__delattr__``: it is immutable too.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def __init__(self, *values, **named):
        fields = dict(zip(self.__slots__, values), **named)
        if len(fields) != len(values) + len(named) or fields.keys() != set(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self.__slots__)}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"
