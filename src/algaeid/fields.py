"""Type checks for numeric fields, shared by the config and model dataclasses."""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers

import numpy as np


def as_number(name, value, kind=float):
    """`value` as `kind` (float or int). A bool, a string or another
    non-number raises ValueError naming `name`, as do NaN, an infinity, a
    number too large for a float and, where `kind` is int, a fractional
    value."""
    try:
        if type(value) is int or (type(value) is float and math.isfinite(value)
                                  and (kind is float or value.is_integer())):
            return kind(value)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not isinstance(value, numbers.Integral) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if kind is int and not (isinstance(value, numbers.Integral)
                                or float(value).is_integer()):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return kind(value)
    except OverflowError:  # its digits could run to thousands: none are printed
        raise ValueError(f"{name} is too large for a float") from None


def as_numbers(name, value):
    """`value`, a list or tuple of numbers, as a tuple of `as_number` floats;
    anything else raises ValueError naming `name`."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return tuple([as_number(name, v) for v in value])


def as_array(name, value, kind=float):
    """`value`, an array or nested lists, as a numpy array of `kind`, float
    or bool. Each entry must be a number (an int or a float, not a bool)
    for float and a bool for bool; any other entry, such as a string, None
    or a list that does not nest evenly, raises ValueError naming `name`, as
    does a number too large for a float."""
    items = np.asarray(value, dtype=object)
    for v in items.flat:
        if isinstance(v, bool) != (kind is bool) or not isinstance(v, numbers.Real):
            raise ValueError(f"{name} must hold only "
                             f"{'booleans' if kind is bool else 'numbers'}, got {v!r}")
    try:
        return items.astype(kind)
    except OverflowError:
        raise ValueError(f"{name} holds a number too large for a float") from None


def non_negative(obj, name):
    """Raise ValueError naming the field `name` of `obj` if it is negative."""
    value = getattr(obj, name)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


@functools.cache
def _numeric_fields(cls):
    """(name, int or float) of each field of the dataclass `cls` annotated so."""
    kinds = {"int": int, "float": float}
    return tuple((f.name, kinds[f.type]) for f in dataclasses.fields(cls) if f.type in kinds)


def coerce(obj):
    """Set each field of the (frozen) dataclass `obj` annotated `int` or `float`
    to `as_number` of its value; `obj`'s module must postpone annotations."""
    for name, kind in _numeric_fields(type(obj)):
        object.__setattr__(obj, name, as_number(name, getattr(obj, name), kind))
