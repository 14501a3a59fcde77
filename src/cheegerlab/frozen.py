"""Immutable base classes for the types that validate, cache or compare by
identity.

Such a type lists its fields in ``_fields`` and sets them once, in its own
``__init__``, by writing the instance ``__dict__``; after that every
assignment and deletion raises ``AttributeError``.  ``functools.cached_property``
still works, since it writes the ``__dict__`` the same way.
"""


class Frozen:
    """Immutable, compared and hashed by identity."""

    __slots__ = ()
    #: the fields, in constructor order; ``repr`` shows them
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


class FrozenValue(Frozen):
    """Immutable, compared and hashed field by field; instances of different
    classes are never equal."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
