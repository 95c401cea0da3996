"""Shared exception types, and the type check every constructor runs on its fields."""

import dataclasses
import math
import numbers
import operator


class DomainError(ValueError):
    """An argument is outside the operation's domain."""


class ResourceLimitError(RuntimeError):
    """A configured enumeration or size limit would be exceeded."""


class TruncationError(RuntimeError):
    """A truncated series is too short for the requested computation."""


class InfeasibleRegionError(ValueError):
    """A geometric region has no area."""


def as_int(value, name: str) -> int:
    """``value`` as an int by ``operator.index``; a bool is refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


def as_real(value, name: str) -> float:
    """``value`` as a finite float; a bool is refused."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(real := float(value)):
                return real
        except OverflowError:
            pass
    raise DomainError(f"{name} must be a finite real, got {value!r}")


def _each(check):
    """The check that a value is a sequence, each item passing ``check``."""

    def check_all(values, name: str) -> tuple:
        try:
            items = None if isinstance(values, str) else tuple(values)
        except TypeError:
            items = None
        if items is None:
            raise DomainError(f"{name} must be a sequence of numbers, got {values!r}")
        return tuple(check(x, name) for x in items)

    return check_all


def _ints(values, name: str):
    """Integers as a tuple; a range, which holds ints alone, as it is, never built."""
    return values if isinstance(values, range) else _each(as_int)(values, name)


def of_type(kind: type):
    """The check that a value is a ``kind``."""

    def check(value, name: str):
        if not isinstance(value, kind):
            raise DomainError(f"{name} must be a {kind.__name__}, got {value!r}")
        return value

    return check


# a field's check by its annotation
_CHECKS = {
    "int": as_int,
    "float": as_real,
    "bool": of_type(bool),
    "str": of_type(str),
    "tuple[int, ...]": _ints,
    "tuple[float, ...]": _each(as_real),
}


def check_fields(obj) -> None:
    """Type-check the fields of a frozen dataclass by their annotations, in place.

    ``int`` goes through :func:`as_int`, ``float`` through :func:`as_real`,
    a tuple element by element (a range of ints as it is), ``bool`` and
    ``str`` by type; ``X | None`` also takes None.  Each field is set to its checked value, so an int in a
    float field becomes a float.  A field of any other annotation is the
    class's own to check.
    """
    for field in dataclasses.fields(obj):
        kind = field.type.removesuffix(" | None")
        value = getattr(obj, field.name)
        optional = kind != field.type
        if kind in _CHECKS and not (optional and value is None):
            object.__setattr__(obj, field.name, _CHECKS[kind](value, field.name))
