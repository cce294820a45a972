"""Bases for the package's value classes, in place of ``dataclasses``.

Every CLI run compiles the package from source, and a ``@dataclass``
decoration ``exec``-compiles the methods it generates each time its
module is imported; ``dataclasses`` itself also loads ``inspect``. These
bases give the same behaviour from methods compiled once, with the
module. A subclass lists its fields in ``_fields``, in the order in which
its own ``__init__`` takes them.

``Record`` is ``@dataclass``: shown as ``Name(field=value, ...)``, equal
to an instance of the same class whose fields, compared as one tuple,
are equal, and unhashable. ``Frozen`` is ``@dataclass(frozen=True)``:
assigning or deleting an attribute raises AttributeError, so its
``__init__`` sets the fields with ``set_field``, and it hashes as the
tuple of its fields. A class that is compared or hashed on a hot path
defines its own ``__eq__`` and ``__hash__`` with the same results.
"""

from __future__ import annotations

# Sets a field of a Frozen instance, past the __setattr__ that refuses.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    __hash__ = None


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Copying and pickling rebuild through __init__, not __setattr__.
        return self.__class__, self._astuple()
