"""Exact rational scalars.

All quantities in this package are :class:`fractions.Fraction` values.  The
helpers here parse external representations ("5/2", "0.125", integers) and
format rationals back to canonical strings.  Floats are rejected everywhere:
the edge-deletion rule and every duality tightness test are exact equality
tests, and a binary float that "looks like" 0.1 would silently corrupt them.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInput

ZERO = Fraction(0)
ONE = Fraction(1)


def to_fraction(value) -> Fraction:
    """Convert an int, Fraction, or string literal to an exact Fraction.

    Strings may be integers ("7"), ratios ("5/2", "-3/4"), or decimal
    literals ("0.125"), all converted exactly.  Floats and booleans (JSON
    true/false, which Python counts as ints) raise InvalidInput.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        if isinstance(value, bool):
            raise InvalidInput(f"boolean {value!r} rejected: pass a number")
        return Fraction(value)
    if isinstance(value, float):
        raise InvalidInput(
            f"float {value!r} rejected: pass an exact string or Fraction")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"cannot parse rational literal {value!r}") from exc
    raise InvalidInput(f"cannot convert {type(value).__name__} to a rational")


def frac_str(value: Fraction) -> str:
    """Canonical string form: "p/q" with positive q, or "p" for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
