"""A plain base class for the package's result records.

A record declares its fields as class annotations, in constructor
order, and the defaults of trailing fields as class values, the way a
dataclass does; nothing is generated with exec, so importing the
package does not pay for dataclasses and inspect. Records of one class
compare equal field by field. A subclass declared with frozen=True is
also hashable on its fields and refuses assignment once built; the
others are mutable and unhashable. Defaults are shared between
instances, so they must be immutable.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if frozen:
            cls.__hash__ = Record._hash
            cls.__setattr__ = cls.__delattr__ = Record._refuse

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments, got {len(args)}")
        for i, name in enumerate(cls._fields):
            if i < len(args):
                value = args[i]
            elif name in kwargs:
                value = kwargs.pop(name)
            elif name in cls.__dict__:
                value = cls.__dict__[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _hash(self) -> int:
        return hash(self._values())

    def _refuse(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete {name!r}: the record is frozen")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
