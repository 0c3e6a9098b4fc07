"""Kummer and Humbert series: exact/floating evaluators and the
differential recursion checks.

The one-argument series sums (a)_s x^s / (s! (b)_s); the two-argument
Humbert series sums (a)_{m+n} x^m y^n / (m! n! (b)_m (c)_n), and its
three-argument extension couples a third index into the same rising
factorial, (a)_{l+m+n} x^m y^n z^l / (l! m! n! (b)_m (c)_n).

``Params1F1`` (a; b) and ``ParamsPsi2`` (a; b, c) share one body, and every
reader of a point walks its fields in order, ``__match_args__``.

All three are Horn series: the ratio of neighbouring coefficients is a
rational function of the indices.  Stepping one index k -> k+1 multiplies a
coefficient by (a + total) / ((k+1) * prod(lower + k)), where total is the
sum of all indices before the step and lower lists that index's bottom
parameters ([b] for x, [c] for y, none for the third index).  ``FAMILIES``
states each family once, keyed ``"f11"``, ``"psi2"`` and ``"psi2x3"``: its
parameter class, its coordinates and their bottom parameters, its exact
series at one order, its exact value, its composition and its float value.
The exact series are ``series.horn_series`` calls in the family's own
coordinates (x; x, y; x, y, z), which walk the grid on integers over one
common denominator; the exact values are
``series.horn_value`` calls, which sum each index once per offset; the
compositions are ``series.horn_compose`` calls; all read the bottom
parameters from the table.  ``f11_coeff`` and ``psi2_coeff`` keep the
closed Pochhammer form.  Every float sum has one entry, ``_float_sum``:
the 1F1 loop sums the x index, and ``psi2`` and ``psi2x3`` nest it in one
outer level per coordinate after x, which sums each inner 1F1(a + k; b; x)
once per offset k.

A recursion relation is one f11 operator's action, stated in the operator
table of ``liealg``, read at y = z = 1; ``RECURSIONS`` names the operator.

Exact paths stay exact, floating paths use a tail-domination stopping
rule (terms can grow before they decay, so a single small term is not
evidence of convergence).  The rule stops a sum once two consecutive terms
are small, at most rel_tol * max(|partial sum|, 1e-300), and it has taken
more than |arg| + |a + k| terms.  The 1F1 loop tests each next term
against the partial sum before it and returns that sum without the tested
term; an outer level tests each contribution against the partial sum that
includes it and returns the sum with it.  A sum's first
floor(|arg| + |a + k|) - 1 terms, its run-up, are taken in a loop that
tests nothing; the tested loop starts after them and stops where a loop
tested from the first term would.  A step n -> n+1 divides by
(n + 1) * prod(lower + n).  One nested sum keeps these step denominators in
one list per level (``_extend_dens``), read by all its inner 1F1s or at
every offset of its outer level, and its inner 1F1 values in one list
indexed by offset.  Every float is made by the same operations in the
same order as in a loop that tests every term and makes each denominator
afresh.  The entry checks the arguments once, before the first term, and
its docstring lists the checks; one rejects a bottom parameter whose float
is zero or a negative integer, which the parameter classes accept when the
exact value is off the pole.  A nested sum raises ``NoConvergence`` soon
after an outer partial sum stops being finite, since no later term can
bring it back: the run-up tests the partial sum once per block of
``_RUN_UP_BLOCK`` terms, and the tested loop only where the smallness test
passes for the second time or fails after passing (an infinite partial sum
passes it, and the NaN that follows one fails it), so a converging sum pays
one test.

Everything here is stateless except the memo of ``series._shared_work()``,
which is on only while a suite runs (``identities.run_suite`` and
``recursion_suite`` each open it for one call, and it is dropped on exit,
also when the suite raises).  Inside it, each converged 1F1 sum, of
``f11_eval_float`` or inside a nested sum, is kept as (value, terms) under
the tag ``"f11 sum"`` and the values its loop reads, (float(a), float(b),
x, rel_tol), and a failed sum is never kept.  A nested sum keeps no state
of its own; the identity suite keeps each family member's value whole
(``identities._member_value``, tag ``"member sum"``), since a chi-sum
member recurs at every chi and in every record whose operator reaches it,
and its outer levels are as much of its work as its inner 1F1s.  A kept
sum is what the loop would return, so every float is the same with or
without the memo.  The recursion suite's realized members are kept there
too (``liealg.realize``).
Outside it, ``eval`` calls among them, nothing is looked up or kept.

``verify``'s default points and orders and ``SingularFlow`` live here, not
in ``identities`` and ``liealg``, which import them, so that the command
front end can state its settings and errors without importing those two.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

from .exactnum import (
    DegenerateParameter,
    as_rational,
    factorial,
    is_nonpositive_integer,
    pochhammer,
)
from .series import MultiSeries, _kept, _shared_work, horn_compose, horn_series, horn_value

DEFAULT_TERM_CAP = 10000

# ``verify``'s default parameter points and identity orders, read by
# ``identities`` and by the settings table of ``cli``.
DEFAULT_F11_ORDERS = (6, 12)   # (chi order N, inner order M)
DEFAULT_PSI2_ORDERS = (4, 6)

DEFAULT_PARAM_POINTS = (
    ("1/2", "4/3", "5/7"),
    ("3/2", "7/3", "11/6"),
    ("2/5", "9/4", "5/7"),
)


class NoConvergence(ArithmeticError):
    """Floating summation failed to meet tolerance within the term cap."""


class SingularFlow(ArithmeticError):
    """A closed-form flow denominator came within the safety margin of 0, or
    (from ``liealg.flow_suite``) a flow's run divided by zero or overflowed."""


class _ParamPoint:
    """The body of both parameter classes: immutable points whose fields,
    ``__match_args__``, are Fractions.  Each class's ``__init__`` makes every
    argument a Fraction, in order, then checks each bottom parameter (every
    field after ``a``), calling ``_check`` only when one is on a pole.
    ``_fields(point)`` is the tuple of the fields in order; equality, hash,
    ``repr`` and ``shifted`` read it.  A point equals only a point of its
    own class, never a tuple, since points key the work a suite shares."""

    __match_args__: tuple[str, ...]
    _fields: Callable[[object], tuple[Fraction, ...]]

    def _check(self) -> None:
        """DegenerateParameter naming the first bottom parameter that is zero
        or a negative integer."""
        values = vars(self)
        for name in self.__match_args__[1:]:
            if is_nonpositive_integer(values[name]):
                raise DegenerateParameter(f"parameter {name} = {values[name]} is zero or a "
                                          "negative integer")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        """The hash of the tuple of the fields, made on the first call and
        kept: points key the work a suite shares, and a ``Fraction``'s hash
        is made afresh on each call."""
        values = vars(self)
        found = values.get("_hash")
        if found is None:
            found = values["_hash"] = hash(self._fields(self))
        return found

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__match_args__, self._fields(self)))
        return f"{type(self).__name__}({fields})"

    def shifted(self, *steps: int):
        """The point moved by one integer step per field, in order; missing
        steps are 0, and a field whose step is 0 is kept as it is."""
        names = self.__match_args__
        if len(steps) > len(names):
            raise TypeError(f"{type(self).__name__}.shifted() takes from 1 to {len(names) + 1} "
                            f"positional arguments but {len(steps) + 1} were given")
        return type(self)(*[value + step if step else value
                            for value, step in zip(self._fields(self), steps + (0,) * len(names))])


class Params1F1(_ParamPoint):
    """Parameters (a; b); b must avoid zero and negative integers."""

    __match_args__ = ("a", "b")
    _fields = operator.attrgetter(*__match_args__)

    def __init__(self, a, b):
        values = vars(self)
        values["a"] = a if type(a) is Fraction else as_rational(a)
        values["b"] = b = b if type(b) is Fraction else as_rational(b)
        if is_nonpositive_integer(b):
            self._check()


class ParamsPsi2(_ParamPoint):
    """Parameters (a; b, c); b and c avoid zero and negative integers."""

    __match_args__ = ("a", "b", "c")
    _fields = operator.attrgetter(*__match_args__)

    def __init__(self, a, b, c):
        values = vars(self)
        values["a"] = a if type(a) is Fraction else as_rational(a)
        values["b"] = b = b if type(b) is Fraction else as_rational(b)
        values["c"] = c = c if type(c) is Fraction else as_rational(c)
        if is_nonpositive_integer(b) or is_nonpositive_integer(c):
            self._check()


def param_strs(params: Params1F1 | ParamsPsi2) -> dict[str, str]:
    """Parameters by name as exact rational strings, for reports."""
    return {name: str(getattr(params, name)) for name in params.__match_args__}


def float_params(params: Params1F1 | ParamsPsi2) -> SimpleNamespace:
    """Parameters as floats ``.a``, ``.b`` and, for Psi2, ``.c``, made in that
    order; ValueError names the first one too large for a float."""
    floats = SimpleNamespace()
    try:
        for name in params.__match_args__:
            setattr(floats, name, float(getattr(params, name)))
    except OverflowError:
        raise ValueError(f"parameter {name} is too large for a float") from None
    return floats


# -- Horn families -------------------------------------------------------------

class Family(NamedTuple):
    """One Horn family: top parameter ``p.a`` and, per coordinate, the bottom
    parameters ``bottoms(p)`` of that coordinate's index.

    ``series(p, order)`` cuts every index at ``order``; ``compose(p, *args)``
    takes series arguments (None where nothing composes the family);
    ``evaluate(p, *point, rel_tol, term_cap)`` is the converging float sum as
    (value, terms), terms None for a nested sum; ``value(p, point, order)``
    is the exact value of the series cut at ``order``, summed by
    ``series.horn_value`` without building it.  All four call the module's
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
            return self.params(*(getattr(params, name) for name in self.params.__match_args__))
        except AttributeError:
            raise TypeError(f"family needs {self.params.__name__}") from None

    def value(self, p, point: Sequence[Fraction], order: int) -> Fraction:
        """The series cut at ``order`` at ``point``, one rational per coordinate."""
        if order < 0:
            raise ValueError("negative series order")
        return horn_value(p.a, [(order, lower) for lower in self.bottoms(p)], point)


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


def _horn_series(family: str, p, caps: tuple[int, ...]) -> MultiSeries:
    """The family's series in its coordinates, which are sorted, each index
    cut at its entry of ``caps``."""
    if any(cap < 0 for cap in caps):
        raise ValueError("negative series order")
    fam = FAMILIES[family]
    return horn_series(fam.coords, caps, [(p.a, fam.bottoms(p), Fraction(1), ())])


def _check_sum_args(
    coords: Sequence[str], point: Sequence[float], rel_tol: float, term_cap: int
) -> int:
    """Reject a float sum's arguments before any term; returns ``term_cap``
    as an int.  A tolerance that is not finite and positive, a term cap
    below 1 and a coordinate that is not finite are ``ValueError``s."""
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol!r}")
    term_cap = operator.index(term_cap)
    if term_cap < 1:
        raise ValueError(f"term_cap must be at least 1, got {term_cap}")
    for name, value in zip(coords, point):
        if not math.isfinite(value):
            raise ValueError(f"coordinate {name} must be finite, got {value!r}")
    return term_cap


def _float_bottom(
    coord: str, lows: tuple[Fraction, ...], values: tuple[float, ...]
) -> tuple[float, ...]:
    """``values``, the floats of the bottom parameters ``lows`` of
    ``coord``'s index, as its loop reads them.  The parameter classes reject
    only exact poles, and a float that is zero or a negative integer would
    make a step denominator zero: ``DegenerateParameter``."""
    for low, value in zip(lows, values):
        if value <= 0 and value.is_integer():
            raise DegenerateParameter(
                f"bottom parameter {low} of {coord} is {value!r} as a float, zero or a negative integer"
            )
    return values


def _run_up(threshold: float, cap: int) -> int:
    """Terms a sum takes before its stopping rule is first tested.

    The rule stops after term s only when s + 1 > ``threshold`` and the
    terms tested at s - 1 and s were both small, so none of the first
    floor(threshold) - 1 tests can matter; a test starting there with no
    small term before it stops exactly where one from s = 0 would, and past
    its first index every s + 1 exceeds the threshold.  A threshold that is
    not finite never lets the rule stop: the whole cap.
    """
    if threshold < math.inf:
        return min(cap, max(0, math.floor(threshold) - 1))
    return cap


# Outer run-up terms summed between two tests of the partial sum.
_RUN_UP_BLOCK = 32
# Step denominators an outer level's tested loop makes at a time: few, since
# short sums, which the numeric identities make by the hundred, end soon.
_STEP_BLOCK = 8


def _float_sum(
    family: str, p, point: tuple[float, ...], rel_tol: float, term_cap: int
) -> tuple[float, int | None]:
    """The family's converging float sum at ``point``: (value, terms) for
    ``"f11"``, (value, None) for a nested sum.

    Every float sum enters here and is checked before its first term, in
    this order: a tolerance that is not finite and positive, a term cap
    below 1 and a coordinate that is not finite (``_check_sum_args``), a
    parameter too large for a float (``float_params``), all ``ValueError``;
    then a bottom parameter whose float is a pole, x's first
    (``_float_bottom``, ``DegenerateParameter``); then a coordinate whose
    index has no bottom parameter (psi2x3's z) with |arg| > 1, outside the
    series' radius, unless a is zero or a negative integer and the sum
    terminates (``NoConvergence``).  |arg| = 1 is not rejected: the sum
    runs and its stopping rule decides.

    ``_f11_sum``'s loop sums the x index innermost; each further coordinate
    is one outer level, the last outermost, and the 1F1 sum is the case with
    none: its sum that stops at a value that is not finite raises
    ``NoConvergence``.  A level at top-parameter offset k (the sum of the
    indices outside it) sums, for n < term_cap + k, (a+k)_n arg^n / (n! prod
    (lower)_n) times the level inside at offset k + n: the stopping rule
    needs more than |a + k| terms, so each sum may take k more terms than
    ``term_cap`` and a slowly converging outer sum runs out before the sums
    inside it.  The inner 1F1(a + k; b; x) depends on k alone: it is summed
    once per k into a list indexed by k, which the innermost level reads,
    and only a level with another level inside it calls the next.  Each level
    keeps one list of step denominators for all its offsets, as the inner
    1F1s do.  Offsets are integers, so the loops make no ``Fraction``.  A
    level stops as ``_f11_sum`` does, after two consecutive small terms past
    its run-up, but it tests each contribution against the partial sum that
    already includes it and returns that sum, where ``_f11_sum`` tests each
    next term against the partial sum before it and returns the sum without
    the tested term.  ``NoConvergence`` names the level's coordinate; a level
    whose partial sum is no longer finite raises it at once.
    """
    fam = FAMILIES[family]
    term_cap = _check_sum_args(fam.coords, point, rel_tol, term_cap)
    floats = float_params(p)
    bottoms = list(map(_float_bottom, fam.coords, fam.bottoms(p), fam.bottoms(floats)))
    for name, lowers, arg in zip(fam.coords, bottoms, point):
        if not lowers and abs(arg) > 1 and not is_nonpositive_integer(p.a):
            raise NoConvergence(f"{name}={arg} is outside the radius of convergence |{name}| < 1")
    x, (b,) = point[0], bottoms[0]
    if len(point) == 1:
        value, terms = _f11_kept(floats.a, b, x, rel_tol, term_cap, [])
        if not math.isfinite(value):
            raise NoConvergence(f"partial sum not finite after {terms} terms at x={x}")
        return value, terms
    levels = [(point[i], fam.coords[i], bottoms[i], []) for i in range(len(point) - 1, 0, -1)]
    last = len(levels) - 1
    # float(a + k) is (num + k den) / den: a + k is already in lowest terms
    # and integer true division rounds correctly, as Fraction.__float__ does.
    num, den = p.a.numerator, p.a.denominator
    dens: list[float] = []
    # values[k] is the inner 1F1(a + k; b; x).  Each level call reads its own offset
    # first (n = 0), so offsets are first reached in increasing order with no gap.
    values: list[float] = []

    def within(depth: int, k: int) -> float:
        """Level ``depth + 1`` at offset k, or the inner 1F1 for ``values[k]``."""
        if depth < last:
            return level(depth + 1, k)
        values.append(_f11_kept((num + k * den) / den, b, x, rel_tol, term_cap + k, dens)[0])
        return values[k]

    def level(depth: int, k: int) -> float:
        cap = term_cap + k
        arg, name, lowers, steps = levels[depth]
        known = values if depth == last else ()  # () makes every term call ``within``
        af = (num + k * den) / den
        quiet = _run_up(abs(arg) + abs(af), cap)
        if len(steps) < quiet:
            _extend_dens(steps, lowers, quiet)
        total = 0.0
        outer = 1.0  # (a+k)_n arg^n / (n! prod (lower)_n)
        for start in range(0, quiet, _RUN_UP_BLOCK):
            for n in range(start, min(quiet, start + _RUN_UP_BLOCK)):
                j = k + n
                total += outer * (known[j] if j < len(known) else within(depth, j))
                outer *= (af + n) * arg / steps[n]
            if total - total:
                raise _not_finite(n, name, arg)
        small = False
        for n in range(quiet, cap):
            j = k + n
            contrib = outer * (known[j] if j < len(known) else within(depth, j))
            total += contrib
            # the smallness test of ``_f11_sum``, on this term
            bound = total if total >= 0.0 else -total
            if bound < 1e-300:
                bound = 1e-300
            bound *= rel_tol
            if -bound <= contrib <= bound:
                if small:
                    if total - total:
                        raise _not_finite(n, name, arg)
                    return total
                small = True
            elif small:
                # an infinite partial sum passes the smallness test, and
                # inf - inf is a NaN that fails it
                if total - total:
                    raise _not_finite(n, name, arg)
                small = False
            if n == len(steps):
                _extend_dens(steps, lowers, n + _STEP_BLOCK)
            outer *= (af + n) * arg / steps[n]
        raise NoConvergence(f"no convergence in {cap} outer terms at {name}={arg}")

    return level(0, 0), None


def _not_finite(n: int, name: str, arg: float) -> NoConvergence:
    """The error of an outer level whose partial sum over n + 1 terms is
    not finite."""
    return NoConvergence(f"partial sum not finite after {n + 1} outer terms at {name}={arg}")


# -- one-argument series -----------------------------------------------------

def f11_coeff(p: Params1F1, s: int) -> Fraction:
    """Series coefficient (a)_s / (s! (b)_s)."""
    return pochhammer(p.a, s) / (factorial(s) * pochhammer(p.b, s))


def f11_series(p: Params1F1, order: int) -> MultiSeries:
    return _horn_series("f11", p, (order,))


def f11_eval_float(
    p: Params1F1, x: float, rel_tol: float = 1e-12, term_cap: int = DEFAULT_TERM_CAP
) -> tuple[float, int]:
    """Converging floating sum; returns (value, terms_used).

    Stops once two consecutive terms are below rel_tol * |partial sum| and
    the index has cleared |x| + |a|, past which the term ratio stays below 1.
    The arguments are checked before any term, as ``_float_sum`` states.
    An overflowed partial sum passes every smallness test, so a sum that
    stops at a value that is not finite raises ``NoConvergence``.
    Inside ``series._shared_work`` a converged sum is kept under (float(a),
    float(b), x, rel_tol); a kept sum that took more terms than
    ``term_cap`` raises as the loop would.
    """
    return _float_sum("f11", p, (x,), rel_tol, term_cap)


def _f11_kept(
    a: float, b: float, x: float, rel_tol: float, term_cap: int, dens: list[float]
) -> tuple[float, int]:
    """``_f11_sum``, kept by the open ``series._shared_work`` under the values
    its loop reads; a kept sum that took more terms than ``term_cap`` raises
    as the loop would."""
    found = _kept(("f11 sum", a, b, x, rel_tol), _f11_sum, a, b, x, rel_tol, term_cap, dens)
    if found[1] > term_cap:
        raise NoConvergence(f"no convergence in {term_cap} terms at x={x}")
    return found


# Step denominators ``_f11_sum``'s tested loop makes at a time.
_DENS_BLOCK = 32


def _extend_dens(dens: list[float], lowers: tuple[float, ...], stop: int) -> None:
    """Extend ``dens`` to ``stop`` entries, entry n the step denominator
    (n + 1) * prod(lower + n) of an index with bottom parameters ``lowers``."""
    start = len(dens)
    new = range(start + 1, stop + 1)
    for low in lowers:
        new = [d * (low + n) for n, d in enumerate(new, start)]
    dens.extend(new)


def _f11_sum(
    a: float, b: float, x: float, rel_tol: float, term_cap: int, dens: list[float]
) -> tuple[float, int]:
    """``f11_eval_float``'s loop on float parameters.

    ``dens`` holds the step denominators (s + 1) * (b + s) for the first
    len(dens) indices; it is extended in place, so sums that share b can
    share it.  The run-up takes its terms without testing them (``_run_up``);
    the rest are tested in blocks that end at multiples of ``_DENS_BLOCK``,
    each extending ``dens`` first, so the inner sums of a nested sum, whose
    run-ups grow a term per offset, extend it once per block, not per sum.
    """
    quiet = _run_up(abs(x) + abs(a), term_cap)
    if len(dens) < quiet:
        _extend_dens(dens, (b,), quiet)
    total = 0.0
    term = 1.0
    for s in range(quiet):
        total += term
        term = term * (a + s) * x / dens[s]
    small = False
    start = quiet
    while start < term_cap:
        stop = min(term_cap, start - start % _DENS_BLOCK + _DENS_BLOCK)
        if len(dens) < stop:
            _extend_dens(dens, (b,), stop)
        for s in range(start, stop):
            total += term
            term = term * (a + s) * x / dens[s]
            # abs(term) <= rel_tol * max(abs(total), 1e-300), false for a NaN
            bound = total if total >= 0.0 else -total
            if bound < 1e-300:
                bound = 1e-300
            bound *= rel_tol
            if -bound <= term <= bound:
                if small:
                    return total, s + 1
                small = True
            else:
                small = False
        start = stop
    raise NoConvergence(f"no convergence in {term_cap} terms at x={x}")


# -- two- and three-argument series -------------------------------------------

def psi2_coeff(p: ParamsPsi2, m: int, n: int) -> Fraction:
    return pochhammer(p.a, m + n) / (
        factorial(m) * factorial(n) * pochhammer(p.b, m) * pochhammer(p.c, n)
    )


def psi2_series(p: ParamsPsi2, order_x: int, order_y: int) -> MultiSeries:
    return _horn_series("psi2", p, (order_x, order_y))


def psi2_3var_series(p: ParamsPsi2, order_x: int, order_y: int, order_z: int) -> MultiSeries:
    """Triple series with the third index folded into the rising factorial."""
    return _horn_series("psi2x3", p, (order_x, order_y, order_z))


def psi2_eval_float(
    p: ParamsPsi2, x: float, y: float, rel_tol: float = 1e-12, term_cap: int = DEFAULT_TERM_CAP
) -> float:
    """Floating Humbert sum: the index on y outside, 1F1(a + n; b; x) inside."""
    return _float_sum("psi2", p, (x, y), rel_tol, term_cap)[0]


def psi2_3var_eval_float(
    p: ParamsPsi2, x: float, y: float, z: float, rel_tol: float = 1e-12,
    term_cap: int = DEFAULT_TERM_CAP,
) -> float:
    """Floating triple sum, outer index l on z, middle index n on y.

    The term at (l, n) is (a)_l z^l / l! * (a+l)_n y^n / (n! (c)_n) times
    1F1(a + l + n; b; x), summed once per k = l + n.
    """
    return _float_sum("psi2x3", p, (x, y, z), rel_tol, term_cap)[0]


# -- series composition helpers ----------------------------------------------

def f11_compose(p: Params1F1, argument: MultiSeries) -> MultiSeries:
    """1F1(a; b; u) for a series u with zero constant term."""
    return horn_compose(p.a, list(zip((argument,), FAMILIES["f11"].bottoms(p))))


def psi2_compose(
    p: ParamsPsi2, arg_x: MultiSeries, arg_y: MultiSeries
) -> MultiSeries:
    """Psi2(a; b, c; u, v) for series u, v with zero constant term and the same caps."""
    return horn_compose(p.a, list(zip((arg_x, arg_y), FAMILIES["psi2"].bottoms(p))))


# -- differential recursion relations -----------------------------------------

# relation id -> the operator whose action on y^a z^b F(a; b; x), read at
# y = z = 1, is the relation.
RECURSIONS: dict[str, str] = {
    "D-raise": "f11.E_ab",
    "Dminus1-raise-b": "f11.E_b",
    "Theta-raise-a": "f11.E_a",
    "Theta-lower-b": "f11.E_b'",
    "lower-a": "f11.E_a'",
}

RECURSION_IDS = tuple(RECURSIONS)


def verify_recursion(rel_id: str, p: Params1F1, order: int) -> MultiSeries:
    """Residual series (lhs - rhs) of one differential recursion relation.

    The two sides are the bodies of ``liealg.action_sides`` for the
    relation's operator.  Its derivative loses the top coefficient, so the
    residual carries the trusted cap order-1; the contract is that it is
    identically zero there.
    """
    from .liealg import action_sides  # liealg imports this module

    try:
        op_id = RECURSIONS[rel_id]
    except KeyError:
        raise ValueError(f"unknown recursion id {rel_id!r}") from None
    _, _, lhs, rhs = action_sides(op_id, p, order)
    return lhs.body - rhs.body


def recursion_suite(points: Sequence, order: int) -> list[dict]:
    """Run all recursion relations at every parameter point, each narrowed
    to ``Params1F1`` (TypeError when it cannot be).

    The relations at one point, and the shifted members they meet, share
    their realized family members: the suite opens
    ``series._shared_work`` once, so each member is built once per call
    and dropped when the call returns or raises.  The rows are those of
    separate ``verify_recursion`` calls.
    """
    rows = []
    with _shared_work():
        for p in map(FAMILIES["f11"].narrow, points):
            for rel_id in RECURSION_IDS:
                residual = verify_recursion(rel_id, p, order)
                rows.append(
                    {
                        "relation": rel_id,
                        **param_strs(p),
                        "order": order,
                        "status": "PASS" if residual.is_zero() else "FAIL",
                        "residual": residual.render(),
                    }
                )
    return rows
