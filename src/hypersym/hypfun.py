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
parameters ([b] for x, [c] for y, none for the third index).  ``FAMILIES``
states each family once, keyed ``"f11"``, ``"psi2"`` and ``"psi2x3"``: its
parameter class, its coordinates and their bottom parameters, its exact
series at one order, its composition and its float value.  The exact
series are ``series.horn_series`` calls, which walk the grid on integers
over one common denominator; the compositions are ``series.horn_compose``
calls; both read the bottom parameters from the table.  ``f11_coeff`` and ``psi2_coeff`` keep the
closed Pochhammer form.  The float sums of ``psi2`` and ``psi2x3`` are one
nested sum around ``f11_eval_float``, with one outer level per coordinate
after x, which sums each inner 1F1(a + k; b; x) once per offset k.

``ACTION_RULES`` states each catalogued operator's action on the family,
E F(p) = c(p) F(p + shift); the recursion right sides are taken from it.

Exact paths stay exact, floating paths use a tail-domination stopping
rule (terms can grow before they decay, so a single small term is not
evidence of convergence).

Everything here is stateless except one memo of float sums, which is on
only inside ``_shared_float_sums()`` (``identities.run_suite`` opens it for
one suite and it is dropped on exit, also when the suite raises).  Inside
it, ``f11_eval_float`` keeps each converged (value, terms) under the values
its loop reads, (float(a), float(b), x, rel_tol), and ``_nested_float``
keeps each converged value under (family, params, point, rel_tol,
term_cap); a failed sum is never kept.  A kept sum is what the loop would
return, so every float is the same with or without the memo.  Outside it,
``eval`` calls among them, nothing is looked up or kept.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .exactnum import (
    DegenerateParameter,
    as_rational,
    factorial,
    is_nonpositive_integer,
    pochhammer,
)
from .series import MultiSeries, horn_compose, horn_series

DEFAULT_TERM_CAP = 10000


class NoConvergence(ArithmeticError):
    """Floating summation failed to meet tolerance within the term cap."""


# The float sums of the open suite, or None outside ``_shared_float_sums``.
_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("hypfun_memo", default=None)


@contextlib.contextmanager
def _shared_float_sums() -> Iterator[None]:
    """Keep converged float sums for the duration of the block.

    Each block starts an empty memo and restores the previous state on exit,
    whether the block returns or raises.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


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


# -- Horn families -------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One Horn family: top parameter ``p.a`` and, per coordinate, the bottom
    parameters ``bottoms(p)`` of that coordinate's index.

    ``series(p, order)`` cuts every index at ``order``; ``compose(p, *args)``
    takes series arguments (None where nothing composes the family);
    ``evaluate(p, *point, rel_tol, term_cap)`` is the converging float sum as
    (value, terms), terms None for a nested sum.  The three call the module's
    functions by name, so they reach whatever those names are bound to.
    """

    params: type
    coords: tuple[str, ...]
    bottoms: Callable[[object], tuple[tuple[Fraction, ...], ...]]
    series: Callable[..., MultiSeries]
    compose: Callable[..., MultiSeries] | None
    evaluate: Callable[..., tuple[float, int | None]]

    def narrow(self, params):
        """``params`` as this family's parameter class; a point of a wider
        class drops the bottom parameters this family lacks."""
        if isinstance(params, self.params):
            return params
        try:
            return self.params(*(getattr(params, f.name) for f in fields(self.params)))
        except AttributeError:
            raise TypeError(f"family needs {self.params.__name__}") from None


FAMILIES: dict[str, Family] = {
    "f11": Family(
        Params1F1, ("x",), lambda p: ((p.b,),),
        lambda p, order: f11_series(p, order),
        lambda p, u: f11_compose(p, u),
        lambda p, x, tol, cap: f11_eval_float(p, x, tol, cap),
    ),
    "psi2": Family(
        ParamsPsi2, ("x", "y"), lambda p: ((p.b,), (p.c,)),
        lambda p, order: psi2_series(p, order, order),
        lambda p, u, v: psi2_compose(p, u, v),
        lambda p, x, y, tol, cap: (psi2_eval_float(p, x, y, tol, cap), None),
    ),
    "psi2x3": Family(
        ParamsPsi2, ("x", "y", "z"), lambda p: ((p.b,), (p.c,), ()),
        lambda p, order: psi2_3var_series(p, order, order, order),
        None,
        lambda p, x, y, z, tol, cap: (psi2_3var_eval_float(p, x, y, z, tol, cap), None),
    ),
}


def _horn_series(
    family: str, p, names: tuple[str, ...], caps: tuple[int, ...]
) -> MultiSeries:
    """The family's series, indices named and cut at ``caps``; exponent
    tuples follow sorted names."""
    if any(cap < 0 for cap in caps):
        raise ValueError("negative series order")
    axes = dict(zip(names, zip(caps, FAMILIES[family].bottoms(p))))
    names = tuple(sorted(axes))
    return horn_series(names, tuple(axes[v][0] for v in names),
                       [(p.a, [axes[v][1] for v in names], Fraction(1), ())])


def _nested_float(
    family: str, p, point: tuple[float, ...], rel_tol: float, term_cap: int
) -> float:
    """The family's converging float sum at ``point``.

    ``f11_eval_float`` sums the x index innermost; each further coordinate
    is one outer level, the last outermost.  A level at top-parameter offset
    k (the sum of the indices outside it) sums, for n < term_cap + k,
    (a+k)_n arg^n / (n! prod (lower)_n) times the level inside at offset
    k + n: the stopping rule needs more than |a + k| terms, so each sum may
    take k more terms than ``term_cap`` and a slowly converging outer sum
    runs out before the sums inside it.  The inner 1F1(a + k; b; x) depends
    on k alone and is summed once per k.  Offsets are integers, so the loops
    make no ``Fraction``; the stopping rule is ``f11_eval_float``'s, and
    ``NoConvergence`` names the level's coordinate.  Inside
    ``_shared_float_sums`` a converged value is kept under (family, p,
    point, rel_tol, term_cap) and read back from there.
    """
    memo = _MEMO.get()
    if memo is None:
        return _nested_sum(family, p, point, rel_tol, term_cap)
    key = (family, p, point, rel_tol, term_cap)
    value = memo.get(key)
    if value is None:
        value = memo[key] = _nested_sum(family, p, point, rel_tol, term_cap)
    return value


def _nested_sum(
    family: str, p, point: tuple[float, ...], rel_tol: float, term_cap: int
) -> float:
    """``_nested_float`` without the memo."""
    fam = FAMILIES[family]
    bottoms = fam.bottoms(p)
    x = point[0]
    levels = [
        (point[i], fam.coords[i], tuple(float(low) for low in bottoms[i]))
        for i in range(len(point) - 1, 0, -1)
    ]
    inner: dict[int, float] = {}

    def level(depth: int, k: int) -> float:
        cap = term_cap + k
        if depth == len(levels):
            if k not in inner:
                inner[k] = f11_eval_float(Params1F1(p.a + k, *bottoms[0]), x, rel_tol, cap)[0]
            return inner[k]
        arg, name, lowers = levels[depth]
        af = float(p.a + k)
        total = 0.0
        outer = 1.0  # (a+k)_n arg^n / (n! prod (lower)_n)
        small_streak = 0
        threshold = abs(arg) + abs(af)
        for n in range(cap):
            contrib = outer * level(depth + 1, k + n)
            total += contrib
            if abs(contrib) <= rel_tol * max(abs(total), 1e-300):
                small_streak += 1
            else:
                small_streak = 0
            if small_streak >= 2 and n + 1 > threshold:
                return total
            d = n + 1
            for low in lowers:
                d *= low + n
            outer *= (af + n) * arg / d
        raise NoConvergence(f"no convergence in {cap} outer terms at {name}={arg}")

    return level(0, 0)


# -- one-argument series -----------------------------------------------------

def f11_coeff(p: Params1F1, s: int) -> Fraction:
    """Series coefficient (a)_s / (s! (b)_s)."""
    return pochhammer(p.a, s) / (factorial(s) * pochhammer(p.b, s))


def f11_series(p: Params1F1, order: int, var: str = "x") -> MultiSeries:
    return _horn_series("f11", p, (var,), (order,))


def f11_eval_float(
    p: Params1F1, x: float, rel_tol: float = 1e-12, term_cap: int = DEFAULT_TERM_CAP
) -> tuple[float, int]:
    """Converging floating sum; returns (value, terms_used).

    Stops once two consecutive terms are below rel_tol * |partial sum| and
    the index has cleared |x| + |a|, past which the term ratio stays below 1.
    Inside ``_shared_float_sums`` a converged sum is kept under (float(a),
    float(b), x, rel_tol); a kept sum that took more terms than
    ``term_cap`` raises as the loop would.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol!r}")
    a = float(p.a)
    b = float(p.b)
    memo = _MEMO.get()
    if memo is None:
        return _f11_sum(a, b, x, rel_tol, term_cap)
    key = (a, b, x, rel_tol)
    found = memo.get(key)
    if found is None:
        found = memo[key] = _f11_sum(a, b, x, rel_tol, term_cap)
    elif found[1] > operator.index(term_cap):
        raise NoConvergence(f"no convergence in {term_cap} terms at x={x}")
    return found


def _f11_sum(a: float, b: float, x: float, rel_tol: float, term_cap: int) -> tuple[float, int]:
    """``f11_eval_float``'s loop on float parameters."""
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
    return _horn_series("psi2", p, (var_x, var_y), (order_x, order_y))


def psi2_3var_series(
    p: ParamsPsi2, order_x: int, order_y: int, order_z: int, var_z: str = "z"
) -> MultiSeries:
    """Triple series with the third index folded into the rising factorial."""
    return _horn_series("psi2x3", p, ("x", "y", var_z), (order_x, order_y, order_z))


def psi2_eval_float(
    p: ParamsPsi2, x: float, y: float, rel_tol: float = 1e-12, term_cap: int = DEFAULT_TERM_CAP
) -> float:
    """Floating Humbert sum: the index on y outside, 1F1(a + n; b; x) inside."""
    return _nested_float("psi2", p, (x, y), rel_tol, term_cap)


def psi2_3var_eval_float(
    p: ParamsPsi2, x: float, y: float, z: float, rel_tol: float = 1e-12,
    term_cap: int = DEFAULT_TERM_CAP,
) -> float:
    """Floating triple sum, outer index l on z, middle index n on y.

    The term at (l, n) is (a)_l z^l / l! * (a+l)_n y^n / (n! (c)_n) times
    1F1(a + l + n; b; x), summed once per k = l + n.
    """
    return _nested_float("psi2x3", p, (x, y, z), rel_tol, term_cap)


# -- series composition helpers ----------------------------------------------

def f11_compose(p: Params1F1, argument: MultiSeries) -> MultiSeries:
    """1F1(a; b; u) for a series u with zero constant term."""
    return horn_compose(p.a, list(zip((argument,), FAMILIES["f11"].bottoms(p))))


def psi2_compose(
    p: ParamsPsi2, arg_x: MultiSeries, arg_y: MultiSeries
) -> MultiSeries:
    """Psi2(a; b, c; u, v) for series u, v with zero constant term and the same caps."""
    return horn_compose(p.a, list(zip((arg_x, arg_y), FAMILIES["psi2"].bottoms(p))))


# -- operator actions ---------------------------------------------------------

@dataclass(frozen=True)
class ActionRule:
    """E F(p) = coefficient(p) F(p + shift) for one catalogued operator E."""

    shift: tuple[int, ...]            # (da, db) or (da, db, dc)
    coefficient: Callable[[object], Fraction]

    def shifted(self, p, times: int = 1):
        return p.shifted(*(times * s for s in self.shift))


# Keyed like the operator catalogue of ``liealg``; identity and recursion
# right sides are derived from it.
ACTION_RULES: dict[str, ActionRule] = {
    "f11.E_a": ActionRule((1, 0), lambda p: p.a),
    "f11.E_a'": ActionRule((-1, 0), lambda p: p.b - p.a),
    "f11.E_b": ActionRule((0, 1), lambda p: (p.a - p.b) / p.b),
    "f11.E_b'": ActionRule((0, -1), lambda p: p.b - 1),
    "f11.E_ab": ActionRule((1, 1), lambda p: p.a / p.b),
    "f11.I_a": ActionRule((0, 0), lambda p: p.a),
    "f11.I_b": ActionRule((0, 0), lambda p: p.b),
    "f11.I": ActionRule((0, 0), lambda p: Fraction(1)),
    "psi2.E_a": ActionRule((1, 0, 0), lambda p: p.a),
    "psi2.E_b": ActionRule((0, -1, 0), lambda p: p.b - 1),
    "psi2.E_c": ActionRule((0, 0, -1), lambda p: p.c - 1),
    "psi2.E_ab": ActionRule((1, 1, 0), lambda p: p.a / p.b),
    "psi2.E_ac": ActionRule((1, 0, 1), lambda p: p.a / p.c),
    "psi2.I_a": ActionRule((0, 0, 0), lambda p: p.a),
    "psi2.I_b": ActionRule((0, 0, 0), lambda p: p.b),
    "psi2.I_c": ActionRule((0, 0, 0), lambda p: p.c),
    "psi2.I": ActionRule((0, 0, 0), lambda p: Fraction(1)),
}


# -- differential recursion relations -----------------------------------------

# relation id -> (operator whose action is the right side, left side).  The
# left side is a function of (F, F', parameters), with F cut to the caps of F'.
RECURSIONS: dict[str, tuple[str, Callable]] = {
    "D-raise": ("f11.E_ab", lambda f, d, p: d),
    "Dminus1-raise-b": ("f11.E_b", lambda f, d, p: d - f),
    "Theta-raise-a": ("f11.E_a", lambda f, d, p: d.shift("x") + f.scale(p.a)),
    "Theta-lower-b": ("f11.E_b'", lambda f, d, p: d.shift("x") + f.scale(p.b - 1)),
    "lower-a": ("f11.E_a'", lambda f, d, p: d.shift("x") + f.scale(p.b - p.a) - f.shift("x")),
}

RECURSION_IDS = tuple(RECURSIONS)


def verify_recursion(rel_id: str, p: Params1F1, order: int) -> MultiSeries:
    """Residual series (lhs - rhs) of one differential recursion relation.

    The right side is c(p) F(p + shift) for the action rule of the
    relation's operator.  The derivative loses the top coefficient, so the
    residual carries the trusted cap order-1; the contract is that it is
    identically zero there.
    """
    try:
        op_id, lhs = RECURSIONS[rel_id]
    except KeyError:
        raise ValueError(f"unknown recursion id {rel_id!r}") from None
    rule = ACTION_RULES[op_id]
    f = f11_series(p, order)
    d = f.derivative("x")
    low = d.cap_map()
    rhs = f11_series(rule.shifted(p), order).truncate(low).scale(rule.coefficient(p))
    return lhs(f.truncate(low), d, p) - rhs


def recursion_suite(points: Sequence, order: int) -> list[dict]:
    """Run all recursion relations at every parameter point, each narrowed
    to ``Params1F1`` (TypeError when it cannot be)."""
    rows = []
    for p in map(FAMILIES["f11"].narrow, points):
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
