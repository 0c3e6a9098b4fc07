"""Exact rational scalars and Pochhammer symbols.

Every scalar in the engine is exact: parameters, weights and the
coefficients a series hands out are ``fractions.Fraction``s (arbitrary
precision, always in lowest terms with positive denominator), and a series
stores its coefficients as integer numerators over one reduced common
denominator (``series.MultiSeries``), so equality checks downstream are
exact.  Gamma functions are never evaluated: they only
ever occur in ratios of parameter-shifted instances, which collapse to
Pochhammer products.
"""

from __future__ import annotations

import re
from fractions import Fraction

Q = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class DegenerateParameter(ValueError):
    """A parameter sits at (or a shift lands on) a non-positive integer pole."""


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into a Fraction.

    Decimal notation is rejected: a string like ``"0.5"`` would silently pass
    through ``Fraction`` and hide the fact that the caller started from a
    float.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational literal: {text!r}")
    return Fraction(s)


def as_rational(value) -> Fraction:
    """Coerce int/Fraction/str to Fraction, refusing floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def is_nonpositive_integer(q: Fraction) -> bool:
    return q.denominator == 1 and q.numerator <= 0


def pochhammer(a, s: int) -> Fraction:
    """Rising factorial a(a+1)...(a+s-1); empty product 1 for s = 0."""
    if s < 0:
        raise ValueError("pochhammer order must be nonnegative")
    a = as_rational(a)
    out = Fraction(1)
    for k in range(s):
        out *= a + k
    return out


def factorial(s: int) -> int:
    if s < 0:
        raise ValueError("factorial of negative integer")
    out = 1
    for k in range(2, s + 1):
        out *= k
    return out

