"""The base of the package's immutable ``__slots__`` value types.

Rings, providers and cached denominators are shared by the whole process,
so no field of a value can be set or deleted after construction.  A
subclass fills its slots with ``object.__setattr__`` in its constructors and
lists them in ``_fields`` in the order of its public constructor's
arguments; from that tuple the base rebuilds a value through the public
constructor for ``copy`` and ``pickle``, and prints ``Name(field=value, ...)``.
"""


class Frozen:
    __slots__ = ()

    #: Slot names, in the order of the public constructor's arguments.
    _fields: tuple[str, ...]

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
