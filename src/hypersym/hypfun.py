"""Kummer and Humbert series: exact/floating evaluators and the
differential recursion checks.

The one-argument series sums (a)_s x^s / (s! (b)_s); the two-argument
Humbert series sums (a)_{m+n} x^m y^n / (m! n! (b)_m (c)_n), and its
three-argument extension couples a third index into the same rising
factorial, (a)_{l+m+n} x^m y^n z^l / (l! m! n! (b)_m (c)_n).

All three are Horn series: the ratio of neighbouring coefficients is a
rational function of the indices.  Stepping one index k -> k+1 multiplies a
coefficient by (a + total) / ((k+1) * prod(lower + k)), where total is the
sum of all indices before the step and lower lists that index's bottom
parameters ([b] for x, [c] for y, none for the third index).  The exact
series builders, the compositions and the truncated float sum all take
their coefficients from running products of these ratios; ``f11_coeff`` and
``psi2_coeff`` keep the closed Pochhammer form for single coefficients.

Everything here is stateless; exact paths stay in Fractions, floating paths
use a tail-domination stopping rule (terms can grow before they decay, so a
single small term is not evidence of convergence).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Mapping, Sequence

from .exactnum import (
    DegenerateParameter,
    as_rational,
    factorial,
    is_nonpositive_integer,
    pochhammer,
)
from .series import MultiSeries, linear_combination

DEFAULT_TERM_CAP = 10000


class NoConvergence(ArithmeticError):
    """Floating summation failed to meet tolerance within the term cap."""


def _check_denominator_param(name: str, value: Fraction) -> None:
    if is_nonpositive_integer(value):
        raise DegenerateParameter(
            f"parameter {name} = {value} is zero or a negative integer"
        )


@dataclass(frozen=True)
class Params1F1:
    """Parameters (a; b); b must avoid zero and negative integers."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))
        _check_denominator_param("b", self.b)

    def shifted(self, da: int = 0, db: int = 0) -> "Params1F1":
        return Params1F1(self.a + da, self.b + db)


@dataclass(frozen=True)
class ParamsPsi2:
    """Parameters (a; b, c); b and c avoid zero and negative integers."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))
        object.__setattr__(self, "c", as_rational(self.c))
        _check_denominator_param("b", self.b)
        _check_denominator_param("c", self.c)

    def shifted(self, da: int = 0, db: int = 0, dc: int = 0) -> "ParamsPsi2":
        return ParamsPsi2(self.a + da, self.b + db, self.c + dc)


def param_strs(params: Params1F1 | ParamsPsi2) -> dict[str, str]:
    """Parameters by name as exact rational strings, for reports."""
    return {f.name: str(getattr(params, f.name)) for f in fields(params)}


# -- Horn term-ratio kernel --------------------------------------------------

def _horn_coefficients(
    a: Fraction, axes: Sequence[tuple[int, tuple[Fraction, ...]]]
) -> dict[tuple[int, ...], Fraction]:
    """Nonzero coefficients (a)_{|k|} / prod_i (k_i! prod (lower_i)_{k_i}).

    ``axes`` gives each index's cap and bottom parameters, in the order the
    index tuples are keyed.  The grid is walked in lexicographic order; each
    coefficient is its predecessor times one term ratio, so no Pochhammer
    product is ever rebuilt.  Once a coefficient vanishes (a is a
    non-positive integer) every later one along that index and below it
    vanishes too, so the walk stops there.
    """
    # ratios[i][o][k]: step k -> k+1 on index i while the indices before it
    # sum to o (the indices after it are 0 at every step taken).
    ratios = []
    before = 0
    for cap, lower in axes:
        bottoms = []
        for k in range(cap):
            d = Fraction(k + 1)
            for low in lower:
                d *= low + k
            bottoms.append(d)
        ratios.append(
            [[(a + o + k) / bottoms[k] for k in range(cap)] for o in range(before + 1)]
        )
        before += cap
    out: dict[tuple[int, ...], Fraction] = {}
    _horn_walk(ratios, [cap for cap, _ in axes], 0, Fraction(1), 0, (), out)
    return out


def _horn_walk(
    ratios: list[list[list[Fraction]]],
    caps: list[int],
    i: int,
    coeff: Fraction,
    total: int,
    prefix: tuple[int, ...],
    out: dict[tuple[int, ...], Fraction],
) -> None:
    """Fill ``out`` below ``prefix``; ``coeff`` sits at (prefix, 0, ..., 0)."""
    row = ratios[i][total]
    for k in range(caps[i] + 1):
        if i == len(caps) - 1:
            out[prefix + (k,)] = coeff
        else:
            _horn_walk(ratios, caps, i + 1, coeff, total + k, prefix + (k,), out)
        if k == caps[i]:
            break
        coeff = coeff * row[k]
        if not coeff:
            break


def _horn_series(
    a: Fraction, axes: Mapping[str, tuple[int, tuple[Fraction, ...]]]
) -> MultiSeries:
    """Horn series with named indices; exponent tuples follow sorted names."""
    names = tuple(sorted(axes))
    caps = tuple(axes[v][0] for v in names)
    if any(cap < 0 for cap in caps):
        raise ValueError("negative series order")
    return MultiSeries._trusted(names, caps, _horn_coefficients(a, [axes[v] for v in names]))


# -- one-argument series -----------------------------------------------------

def f11_coeff(p: Params1F1, s: int) -> Fraction:
    """Series coefficient (a)_s / (s! (b)_s)."""
    return pochhammer(p.a, s) / (factorial(s) * pochhammer(p.b, s))


def f11_series(p: Params1F1, order: int, var: str = "x") -> MultiSeries:
    return _horn_series(p.a, {var: (order, (p.b,))})


def f11_eval_exact(p: Params1F1, x, order: int) -> Fraction:
    return f11_series(p, order).evaluate({"x": as_rational(x)})


def f11_eval_float(
    p: Params1F1, x: float, rel_tol: float = 1e-12, term_cap: int = DEFAULT_TERM_CAP
) -> tuple[float, int]:
    """Converging floating sum; returns (value, terms_used).

    Stops once two consecutive terms are below rel_tol * |partial sum| and
    the index has cleared |x| + |a|, past which the term ratio stays below 1.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    a = float(p.a)
    b = float(p.b)
    total = 0.0
    term = 1.0
    small_streak = 0
    threshold_s = abs(x) + abs(a)
    for s in range(term_cap):
        total += term
        nxt = term * (a + s) * x / ((s + 1) * (b + s))
        if abs(nxt) <= rel_tol * max(abs(total), 1e-300):
            small_streak += 1
        else:
            small_streak = 0
        if small_streak >= 2 and s + 1 > threshold_s:
            return total, s + 1
        term = nxt
    raise NoConvergence(f"no convergence in {term_cap} terms at x={x}")


# -- two- and three-argument series -------------------------------------------

def psi2_coeff(p: ParamsPsi2, m: int, n: int) -> Fraction:
    return pochhammer(p.a, m + n) / (
        factorial(m) * factorial(n) * pochhammer(p.b, m) * pochhammer(p.c, n)
    )


def psi2_series(
    p: ParamsPsi2, order_x: int, order_y: int, var_x: str = "x", var_y: str = "y"
) -> MultiSeries:
    return _horn_series(p.a, {var_x: (order_x, (p.b,)), var_y: (order_y, (p.c,))})


def psi2_3var_series(
    p: ParamsPsi2,
    order_x: int,
    order_y: int,
    order_z: int,
    var_z: str = "z",
) -> MultiSeries:
    """Triple series with the third index folded into the rising factorial."""
    return _horn_series(
        p.a, {"x": (order_x, (p.b,)), "y": (order_y, (p.c,)), var_z: (order_z, ())}
    )


def psi2_eval_exact(p: ParamsPsi2, x, y, order_x: int, order_y: int) -> Fraction:
    x = as_rational(x)
    y = as_rational(y)
    return psi2_series(p, order_x, order_y).evaluate({"x": x, "y": y})


def psi2_eval_float(
    p: ParamsPsi2,
    x: float,
    y: float,
    rel_tol: float = 1e-12,
    orders: tuple[int, int] | None = None,
    term_cap: int = DEFAULT_TERM_CAP,
) -> float:
    """Floating Humbert sum.

    With ``orders`` given, sums exactly the terms below those caps in
    floating point (the float image of the exact truncated sum).  Without
    it, iterates the outer index until the stopping rule fires, evaluating
    the inner one-argument sums to tolerance.
    """
    a, c = float(p.a), float(p.c)
    if orders is not None:
        coeffs = _horn_coefficients(p.a, [(orders[0], (p.b,)), (orders[1], (p.c,))])
        total = 0.0
        for (m, n), coeff in coeffs.items():
            total += float(coeff) * x**m * y**n
        return total
    total = 0.0
    outer = 1.0  # (a)_n y^n / (n! (c)_n)
    small_streak = 0
    threshold_n = abs(y) + abs(a)
    for n in range(term_cap):
        inner, _ = f11_eval_float(Params1F1(p.a + n, p.b), x, rel_tol, term_cap)
        contrib = outer * inner
        total += contrib
        if abs(contrib) <= rel_tol * max(abs(total), 1e-300):
            small_streak += 1
        else:
            small_streak = 0
        if small_streak >= 2 and n + 1 > threshold_n:
            return total
        outer *= (a + n) * y / ((n + 1) * (c + n))
    raise NoConvergence(f"no convergence in {term_cap} outer terms at y={y}")


def psi2_3var_eval_float(
    p: ParamsPsi2,
    x: float,
    y: float,
    z: float,
    rel_tol: float = 1e-12,
    term_cap: int = DEFAULT_TERM_CAP,
) -> float:
    """Floating triple sum, outer index on the third argument."""
    a = float(p.a)
    total = 0.0
    outer = 1.0  # (a)_l z^l / l!
    small_streak = 0
    threshold = abs(z) + abs(a)
    for l in range(term_cap):
        inner = psi2_eval_float(ParamsPsi2(p.a + l, p.b, p.c), x, y, rel_tol, term_cap=term_cap)
        contrib = outer * inner
        total += contrib
        if abs(contrib) <= rel_tol * max(abs(total), 1e-300):
            small_streak += 1
        else:
            small_streak = 0
        if small_streak >= 2 and l + 1 > threshold:
            return total
        outer *= (a + l) * z / (l + 1)
    raise NoConvergence(f"no convergence in {term_cap} outer terms at z={z}")


# -- series composition helpers ----------------------------------------------

def f11_compose(p: Params1F1, argument: MultiSeries, max_power: int | None = None) -> MultiSeries:
    """Sum of f11 coefficients against powers of a series argument.

    The argument must have zero constant term so powers gain total degree
    and the sum terminates at the caps.
    """
    if argument.constant_term() != 0:
        raise ValueError("composition argument needs zero constant term")
    caps = argument.cap_map()
    if max_power is None:
        max_power = sum(caps.values())
    coeffs = _horn_coefficients(p.a, [(max_power, (p.b,))])

    def terms():
        power = MultiSeries.constant(1, caps)
        yield 1, power
        for s in range(1, max_power + 1):
            if (s,) not in coeffs:
                return  # a is a non-positive integer: every later coefficient is 0
            power = power * argument
            if power.is_zero():
                return
            yield coeffs[(s,)], power

    return linear_combination(caps, terms())


def psi2_compose(
    p: ParamsPsi2, arg_x: MultiSeries, arg_y: MultiSeries
) -> MultiSeries:
    """Humbert double sum with series arguments in both slots.

    Both arguments need zero constant term and identical caps.
    """
    if arg_x.constant_term() != 0 or arg_y.constant_term() != 0:
        raise ValueError("composition arguments need zero constant term")
    caps = arg_x.cap_map()
    if caps != arg_y.cap_map():
        raise ValueError("composition arguments need identical caps")
    bound = sum(caps.values())
    x_powers = [MultiSeries.constant(1, caps)]
    while len(x_powers) <= bound:
        nxt = x_powers[-1] * arg_x
        if nxt.is_zero():
            break
        x_powers.append(nxt)
    y_powers = [MultiSeries.constant(1, caps)]
    while len(y_powers) <= bound:
        nxt = y_powers[-1] * arg_y
        if nxt.is_zero():
            break
        y_powers.append(nxt)
    coeffs = _horn_coefficients(
        p.a, [(len(x_powers) - 1, (p.b,)), (len(y_powers) - 1, (p.c,))]
    )
    return linear_combination(
        caps, ((coeff, x_powers[m] * y_powers[n]) for (m, n), coeff in coeffs.items())
    )


# -- differential recursion relations -----------------------------------------

RECURSION_IDS = (
    "D-raise",
    "Dminus1-raise-b",
    "Theta-raise-a",
    "Theta-lower-b",
    "lower-a",
)


def verify_recursion(rel_id: str, p: Params1F1, order: int) -> MultiSeries:
    """Residual series (lhs - rhs) of one differential recursion relation.

    The derivative loses the top coefficient, so the residual carries the
    trusted cap order-1; the contract is that it is identically zero there.
    """
    f = f11_series(p, order)
    d = f.derivative("x")
    low = d.cap_map()

    def trim(s: MultiSeries) -> MultiSeries:
        return s.truncate(low)

    theta = d.shift("x", 1)
    if rel_id == "D-raise":
        rhs = trim(f11_series(p.shifted(1, 1), order)).scale(p.a / p.b)
        return d - rhs
    if rel_id == "Dminus1-raise-b":
        lhs = d - trim(f)
        rhs = trim(f11_series(p.shifted(0, 1), order)).scale((p.a - p.b) / p.b)
        return lhs - rhs
    if rel_id == "Theta-raise-a":
        lhs = theta + trim(f).scale(p.a)
        rhs = trim(f11_series(p.shifted(1, 0), order)).scale(p.a)
        return lhs - rhs
    if rel_id == "Theta-lower-b":
        lhs = theta + trim(f).scale(p.b - 1)
        rhs = trim(f11_series(p.shifted(0, -1), order)).scale(p.b - 1)
        return lhs - rhs
    if rel_id == "lower-a":
        lhs = theta + trim(f).scale(p.b - p.a) - trim(f.shift("x", 1))
        rhs = trim(f11_series(p.shifted(-1, 0), order)).scale(p.b - p.a)
        return lhs - rhs
    raise ValueError(f"unknown recursion id {rel_id!r}")


def recursion_suite(points: list[Params1F1], order: int) -> list[dict]:
    """Run all recursion relations at every parameter point."""
    rows = []
    for p in points:
        for rel_id in RECURSION_IDS:
            residual = verify_recursion(rel_id, p, order)
            rows.append(
                {
                    "relation": rel_id,
                    "a": str(p.a),
                    "b": str(p.b),
                    "order": order,
                    "status": "PASS" if residual.is_zero() else "FAIL",
                    "residual": residual.render(),
                }
            )
    return rows
