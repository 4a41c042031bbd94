"""Exact rational scalars.

All quantities in this package are :class:`fractions.Fraction` values.  The
helpers here parse external representations ("5/2", "0.125", integers) and
format rationals back to canonical strings.  Floats are rejected everywhere:
the edge-deletion rule and every duality tightness test are exact equality
tests, and a binary float that "looks like" 0.1 would silently corrupt them.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidInput, OversizedResult

ZERO = Fraction(0)
ONE = Fraction(1)

# Python's default int/str digit limit (sys.int_info.default_max_str_digits),
# also the largest decimal exponent a literal may have: "1e10000000" would
# make Fraction build a number of ten million digits before anything could
# reject it.
MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def to_fraction(value) -> Fraction:
    """Convert an int, Fraction, or string literal to an exact Fraction.

    Strings may be integers ("7"), ratios ("5/2", "-3/4"), or decimal
    literals ("0.125", "12.5e-3"), all converted exactly.  Floats, booleans
    (JSON true/false, which Python counts as ints) and decimal exponents
    beyond 4300 in magnitude (checked before any number is built) raise
    InvalidInput.
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
        exponent = _EXPONENT.search(value)
        digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > 4 or int(digits or 0) > MAX_DIGITS:
            raise InvalidInput(f"exponent of {value[:40]!r} exceeds {MAX_DIGITS} in magnitude")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"cannot parse rational literal {value!r}") from exc
    raise InvalidInput(f"cannot convert {type(value).__name__} to a rational")


def frac_str(value: Fraction) -> str:
    """Canonical string form: "p/q" with positive q, or "p" for integers.

    Raises OversizedResult when a part has more digits than Python converts
    to a string (sys.int_info.default_max_str_digits)."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise OversizedResult(f"result too large to print: {exc}") from exc
