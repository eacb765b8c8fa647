"""``record``, the one decorator behind the package's frozen records.

A record's fields are the names annotated in its class body, in order; a class
attribute of the same name is a field's default, and attributes without an
annotation stay plain class attributes. A record takes its fields by position
or keyword and then runs ``__post_init__``; it equals and hashes by its field
tuple, for the same class only, prints as ``Name(field=value, ...)`` unless the
class writes its own ``__repr__``, and refuses assignment and deletion. No
code is generated, and unlike ``dataclasses`` (which imports ``inspect``) this
costs start-up next to nothing. Instances keep their ``__dict__``, where
``functools.cached_property`` stores values that are no field.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """A field of a frozen record was assigned or deleted."""


def _refuse_set(self, name: str, value: object) -> None:
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name: str) -> None:
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls: type) -> type:
    """Make ``cls`` a frozen record of its annotated fields (see the module doc)."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args: object, **kwargs: object) -> None:
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        rest = names[len(args):]
        for name in kwargs:
            if name not in rest:
                problem = "got multiple values for" if name in names else "got an unexpected keyword"
                raise TypeError(f"{cls.__name__}() {problem} argument {name!r}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in rest:
            if name in kwargs:
                object.__setattr__(self, name, kwargs[name])
            elif name in defaults:
                object.__setattr__(self, name, defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        if post_init is not None:
            post_init(self)

    get = attrgetter(*names)
    fields_of = get if len(names) > 1 else lambda self: (get(self),)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields_of(self) == fields_of(other)

    def __hash__(self) -> int:
        return hash(fields_of(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields_of(self)))
        return f"{self.__class__.__qualname__}({shown})"

    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_delete
    return cls
