"""Value checking for every config class, record and argument block.

A checked name's range is the metadata of its hint,
``Annotated[T, _Range(test, text)]``; each range is written once here.
``_check_types`` checks values against a class's or function's hints, and
``_check_args`` also checks a block's keys against its parameters.  This
module imports nothing from the package, and every name in it is private.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import typing

__all__ = []

_Range = typing.NamedTuple("_Range", [("test", typing.Callable), ("text", str)])
_FINITE = _Range(math.isfinite, "finite")  # the range of every float value, whatever its hint
_UP_TO_HALF = _Range(lambda x: 0.0 < x <= 0.5, "in (0, 1/2]")
_OPEN_UNIT = _Range(lambda x: 0.0 < x < 1.0, "in (0, 1)")
_UP_TO_ONE = _Range(lambda x: 0.0 < x <= 1.0, "in (0, 1]")
_ZERO_TO_ONE = _Range(lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
_POSITIVE = _Range(lambda x: x > 0, "> 0")
_NONNEGATIVE = _Range(lambda x: x >= 0, ">= 0")
_AT_LEAST_ONE = _Range(lambda x: x >= 1, ">= 1")
_INT64 = _Range(lambda x: x < 2**63, "< 2**63")  # a count that numpy takes must fit its int64
_NONEMPTY_INTS = _Range(lambda xs: len(xs) > 0 and all(_fits(x, (int,)) for x in xs), "a non-empty list of integers")


def _one_of(choices) -> _Range:
    """The range of a value that must be one of ``choices``, a collection read at each check."""
    return _Range(lambda x: x in choices, f"one of {tuple(choices)}")


@functools.cache
def _schema(target) -> dict:
    """Each of ``target``'s annotated names, evaluated once: the types its value may take, and its ranges."""
    schema = {}
    for key, hint in typing.get_type_hints(target, include_extras=True).items():
        hint, *ranges = typing.get_args(hint) if typing.get_origin(hint) is typing.Annotated else (hint,)
        schema[key] = typing.get_args(hint) or (hint,), ranges
    return schema


def _check_types(target, values: dict, what: str) -> None:
    """Raise unless each value fits its key's hint on ``target``: its type, then, unless it is None, a
    finite float and the hint's ranges; errors name the block ``what`` and the key."""
    for key, value in values.items():
        kinds, ranges = _schema(target)[key]
        if not _fits(value, kinds):
            names = " or ".join("null" if kind is type(None) else kind.__name__ for kind in kinds)
            raise ValueError(f"{what} {key!r} must be {names}, got {value!r}")
        if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):  # an int beyond the floats is finite
            ranges = (_FINITE, *ranges)
        for test, text in ranges:
            if value is not None and not test(value):
                raise ValueError(f"{what} {key!r} must be {text}, got {value!r}")


def _fits(value, kinds: tuple) -> bool:
    """Whether ``value`` suits a field typed as the union of ``kinds``; bools are not numbers here."""
    if isinstance(value, bool):
        return bool in kinds
    if float in kinds and isinstance(value, numbers.Real):
        return True
    if int in kinds and isinstance(value, numbers.Integral):
        return True
    return isinstance(value, kinds)


def _check_args(target, values, what: str) -> None:
    """Raise unless ``values`` is a dict of ``target``'s parameters, the required ones included,
    each of its annotated type; errors name the key and the block ``what``."""
    if not isinstance(values, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(values).__name__}")
    params = inspect.signature(target).parameters
    unknown = values.keys() - params.keys()
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for name, param in params.items():
        if param.default is param.empty and name not in values:
            raise ValueError(f"{what} is missing the required key {name!r}")
    _check_types(target, values, what)


def _checked(target, values, what: str):
    _check_args(target, values, what)
    return target(**values)
