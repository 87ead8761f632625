"""Exact-number policy.

Every worth, gauge entry and share in this package is an exact rational:
a Python ``int`` or ``fractions.Fraction``.  Floats are refused at every
boundary so rounding error can never leak into a computation; decimal
renderings for display are derived at the very end and never read back.
Inside, a vector of rationals is integer numerators over one common
denominator; the CLI renders those, and a library call builds the Fractions.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Sequence
from fractions import Fraction

Exact = int | Fraction


def as_exact(value: object) -> int | Fraction:
    """Coerce ``value`` to an exact rational, rejecting floats.

    Accepts ints, Fractions, other ``numbers.Rational`` instances and
    strings such as ``"3/4"`` or ``"-2"``.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass an int, Fraction or 'p/q' string")
    if isinstance(value, numbers.Rational):
        return Fraction(value.numerator, value.denominator)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def _common_denominator(values: Sequence[Exact]) -> tuple[list[int], int]:
    """``(numerators, unit)``: each value times ``unit``, the lcm of their
    denominators, so that ``values[i] == numerators[i] / unit`` exactly."""
    if all(map(isinstance, values, itertools.repeat(int))):
        return list(values), 1
    unit = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (unit // v.denominator) for v in values], unit
