"""The base of the package's immutable value classes.

A subclass names its fields in ``__slots__`` and sets them once, in order,
with ``_init`` from its own ``__init__``.  The base gives what a frozen
dataclass gives, without importing ``dataclasses``: the repr
``Name(field=value, ...)``, equality and a hash over the field values within
one class, assignment that raises ``AttributeError``, and pickling and
copying through the constructor.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
