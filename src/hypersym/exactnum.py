"""Exact rational scalars and Pochhammer symbols.

Every scalar in the engine is exact: parameters, weights and the
coefficients a series hands out are ``fractions.Fraction``s (arbitrary
precision, always in lowest terms with positive denominator), and a series
stores its coefficients as integer numerators over one reduced common
denominator (``series.MultiSeries``), so equality checks downstream are
exact.  Gamma functions are never evaluated: they only
ever occur in ratios of parameter-shifted instances, which collapse to
Pochhammer products; factorials are ``math.factorial``.

Text goes both ways here: ``parse_rational`` reads an exact scalar, and
``signed_text`` writes a signed sum of scalars times factor texts
(``power_factors`` writes ``v^e``), the one writer behind
``MultiSeries.render`` and ``DiffOperator.pretty``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

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


def power_factors(powers: Iterable[tuple[str, int]]) -> list[str]:
    """The factor text ``v`` or ``v^e`` of each nonzero exponent, in order."""
    return [v if e == 1 else f"{v}^{e}" for v, e in powers if e]


def signed_text(terms: Iterable[tuple[Fraction, list[str]]]) -> str:
    """A sum as text, the inverse of ``parse_rational`` on its scalars.

    Each term is a nonzero coefficient with its factor texts, written as
    ``|c|*f1*f2``, the magnitude left out at 1 when there is a factor.  The
    first term carries a bare ``-`` when negative; later ones are joined
    with ``+ `` or ``- ``.  No terms read ``0``.
    """
    chunks: list[str] = []
    for c, factors in terms:
        mag = abs(c)
        body = "*".join(factors if mag == 1 and factors else [str(mag), *factors])
        if chunks:
            chunks.append(("- " if c < 0 else "+ ") + body)
        else:
            chunks.append("-" + body if c < 0 else body)
    return " ".join(chunks) if chunks else "0"

