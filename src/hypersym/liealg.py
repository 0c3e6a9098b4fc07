"""First-order differential operators with Laurent-monomial coefficients.

Covers the raising/lowering/maintenance operators of the two function
families, their exact action on realized basis elements, commutators (the
first-order vector-field bracket), exact span membership (a basis is
eliminated once into a ``SpanBasis``, against which each solve reduces its
target; both run the one row reduction ``_reduce_rows``), and Runge-Kutta
checks of the one-parameter flows against their closed forms.  Operators
are printed by ``exactnum.signed_text``.  A realized element
(``Realized``) is a body series times a monomial prefactor with rational
exponents; ``DiffOperator.apply`` holds the whole prefactor rule.
One table, built once per process, holds each catalogued operator with its
action rule E F(p) = c(p) F(p + shift) and its flow; ``build_catalogue``,
``ACTION_RULES`` and ``_flow_specs`` are its views.  ``action_sides`` builds
an operator's action and its rule's right side for the actions and the
recursions, and seven flow fields are the operators.

Family keys are those of ``hypfun.FAMILIES``: ``"f11"`` (realized as its
series in x times y^a z^b) and ``"psi2"`` (series in x, y times z^a u^b t^c).
Catalogue entries are keyed ``"<family>.<name>"``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .exactnum import as_rational, power_factors, signed_text
from .hypfun import FAMILIES, SingularFlow, param_strs
from .series import MultiSeries, _kept, _shared_work, first_mismatch, operator_image

Monomial = tuple[tuple[str, int], ...]
Pattern = tuple[Monomial, str | None]


class PrefactorMismatch(ValueError):
    """Prefactor exponents differ where they must agree."""


class Realized(NamedTuple):
    """``body`` times prod v^e over ``prefactor``, whose variables are not
    body variables and whose exponents are rational (e.g. y^a z^b)."""

    body: MultiSeries
    prefactor: dict[str, Fraction]


def _mono(exponents: Mapping[str, int]) -> Monomial:
    """The nonzero exponents as a sorted monomial; an exponent that is not
    an integer raises TypeError."""
    exps = {v: operator.index(e) for v, e in exponents.items()}
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    out = dict(m1)
    for v, e in m2:
        out[v] = out.get(v, 0) + e
        if out[v] == 0:
            del out[v]
    return tuple(sorted(out.items()))


def _mono_deriv(m: Monomial, v: str) -> tuple[int, Monomial]:
    """d/dv of a Laurent monomial: (integer factor, reduced monomial)."""
    d = dict(m)
    e = d.get(v, 0)
    if e == 0:
        return 0, ()
    if e == 1:
        del d[v]
    else:
        d[v] = e - 1
    return e, tuple(sorted(d.items()))


class OpTerm(NamedTuple):
    coefficient: Fraction
    monomial: Monomial
    derivative: str | None


class DiffOperator:
    """Finite sum of terms coeff * monomial * (at most one) partial."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Pattern, Fraction] | None = None):
        cleaned: dict[Pattern, Fraction] = {}
        if terms:
            for (mono, deriv), coeff in terms.items():
                coeff = as_rational(coeff)
                if coeff != 0:
                    cleaned[(tuple(mono), deriv)] = coeff
        self._terms = cleaned

    # -- constructors --------------------------------------------------

    @classmethod
    def scalar(cls, value) -> "DiffOperator":
        return cls({((), None): as_rational(value)})

    @classmethod
    def term(cls, coeff, exponents: Mapping[str, int], derivative: str | None) -> "DiffOperator":
        return cls({(_mono(exponents), derivative): as_rational(coeff)})

    # -- views -----------------------------------------------------------

    @property
    def terms(self) -> list[OpTerm]:
        return [OpTerm(self._terms[p], *p) for p in sorted(self._terms, key=_pattern_order)]

    def is_zero(self) -> bool:
        return not self._terms

    def pattern_vector(self) -> dict[Pattern, Fraction]:
        return dict(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __repr__(self) -> str:
        return f"DiffOperator({self.pretty()})"

    def pretty(self) -> str:
        """Canonical rendering: scalar terms first, then derivatives by name."""
        return signed_text((t.coefficient, power_factors(t.monomial)
                            + ([f"d/d{t.derivative}"] if t.derivative else []))
                           for t in self.terms)

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        out = dict(self._terms)
        for key, c in other._terms.items():
            _bump(out, key, c)
        return DiffOperator(out)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + (-other)

    def scale(self, k) -> "DiffOperator":
        k = as_rational(k)
        return DiffOperator({key: c * k for key, c in self._terms.items()})

    # -- application to realized basis elements ----------------------------

    def apply(self, f: Realized) -> Realized:
        """Linear extension over terms, by the product rule on body * prod v^alpha_v.

        A term c*m*d_w with w a prefactor variable multiplies c by alpha_w
        and lowers alpha_w by one (d/dw w^alpha = alpha w^(alpha-1), which
        loses no order); with w a body variable it differentiates the body.
        Each factor v^e of m then adds e to alpha_v, or multiplies the body
        by v^e.  The prefactor and body variables must be disjoint.

        This method keeps the prefactor rule; the body of every term is one
        ``series.operator_image`` call, one pass per term over the body's
        packed numerators, summed at the least caps of all terms, vanishing
        ones included (a lower cap leaves the coefficients above it
        unknown).  Every term whose image at its own caps is nonzero must
        carry the prefactor of the first such term (PrefactorMismatch
        otherwise, whatever the term order); all start from the input's
        keys, so a 0 exponent is kept.  With no such term the result is
        zero at those caps with prefactor ``{}``.
        """
        shared = f.prefactor.keys() & set(f.body.variables)
        if shared:
            raise ValueError(f"variables in both the body and the prefactor: {sorted(shared)}")
        terms, prefactors = [], []
        for (mono, deriv), coeff in self._terms.items():
            pf = dict(f.prefactor)
            if deriv in pf:
                coeff = coeff * pf[deriv]
                pf[deriv] -= 1
                deriv = None
            shifts = []
            for v, e in mono:
                if v in pf:
                    pf[v] += e
                else:
                    shifts.append((v, e))
            terms.append((coeff, deriv, shifts))
            prefactors.append(pf)
        body, live = operator_image(f.body, terms)
        carried = [pf for pf, on in zip(prefactors, live) if on]
        for pf in carried[1:]:
            if pf != carried[0]:
                raise PrefactorMismatch(f"{carried[0]} vs {pf}")
        return Realized(body, carried[0] if carried else {})


def _bump(store: dict, key, value: Fraction) -> None:
    """store[key] += value, dropping the key when the sum is zero."""
    total = store.get(key, Fraction(0)) + value
    if total == 0:
        store.pop(key, None)
    else:
        store[key] = total


def commutator(op1: DiffOperator, op2: DiffOperator) -> DiffOperator:
    """op1 op2 - op2 op1 as the vector-field bracket, computed in one pass.

    Of the products of two terms c1*m1*d1 and c2*m2*d2 only d1 acting on m2
    (and, mirrored, d2 on m1) survives the difference; the second-order
    parts cancel identically.
    """
    out: dict[Pattern, Fraction] = {}
    for (m1, d1), c1 in op1._terms.items():
        for (m2, d2), c2 in op2._terms.items():
            if d1 is not None:
                e, dm2 = _mono_deriv(m2, d1)
                if e:
                    _bump(out, (_mono_mul(m1, dm2), d2), c1 * c2 * e)
            if d2 is not None:
                e, dm1 = _mono_deriv(m1, d2)
                if e:
                    _bump(out, (_mono_mul(m2, dm1), d1), -c1 * c2 * e)
    return DiffOperator(out)


# -- span membership ----------------------------------------------------------

class SpanResult(NamedTuple):
    in_span: bool
    coefficients: dict[str, Fraction] | None
    residual: DiffOperator | None


def _pattern_order(p: Pattern):
    """Scalar patterns first, then by derivative name, then by monomial."""
    return (p[1] is not None, p[1] or "", p[0])


class SpanBasis:
    """A named basis of operators eliminated once to row echelon form.

    Each basis element is a sparse vector over the patterns its terms use,
    with its combination over the basis names.  In basis order, each one is
    reduced by the pivot rows before it (``_reduce_rows``), and a row left
    nonzero becomes a pivot row at its least pattern in ``_pattern_order``,
    scaled to 1 there; a dependent element leaves no row.  Each
    ``express_in_span`` only reduces its target against the pivot rows, so
    a basis that several solves share is eliminated once.
    """

    __slots__ = ("names", "pivots")

    def __init__(self, basis: Mapping[str, DiffOperator]):
        self.names = list(basis)
        # (pivot pattern, pattern -> entry, basis name -> combination), the
        # entry at the pivot pattern 1
        pivots: list[tuple[Pattern, dict[Pattern, Fraction], dict[str, Fraction]]] = []
        for name in self.names:
            vec = dict(basis[name]._terms)
            taken = _reduce_rows(pivots, vec)
            if vec:
                col = min(vec, key=_pattern_order)
                lead = vec[col]
                cmb = {name: 1 / lead, **{n: -c / lead for n, c in taken.items()}}
                pivots.append((col, {p: c / lead for p, c in vec.items()}, cmb))
        self.pivots = pivots


def _reduce_rows(pivots: Sequence, vec: dict[Pattern, Fraction]) -> dict[str, Fraction]:
    """Subtract from ``vec``, in place and in order, each pivot row times
    ``vec``'s entry at that row's pivot pattern, dropping the entries that
    vanish; return those multiples summed over the rows' combinations.

    So ``vec`` on entry equals ``vec`` on return plus the sum of the
    returned coefficients times their basis elements: for a target in the
    span these are its coefficients, and for a basis element that leaves
    nothing, ``{name: 1}`` minus them is a null vector of the basis.
    """
    taken: dict[str, Fraction] = {}
    for col, row, cmb in pivots:
        factor = vec.get(col)
        if factor:
            for p, c in row.items():
                _bump(vec, p, -factor * c)
            for n, c in cmb.items():
                _bump(taken, n, factor * c)
    return taken


def express_in_span(op: DiffOperator, basis: SpanBasis) -> SpanResult:
    """Exact rational solve of op = sum(c_i * basis_i) by pattern matching.

    ``basis`` is eliminated once, when it is built, so every solve against
    it only reduces ``op``.  Returns every basis name's coefficient with
    zero residual, or a result with ``in_span`` false carrying the canonical
    remainder after eliminating the span.
    """
    target = dict(op._terms)
    coeffs = _reduce_rows(basis.pivots, target)
    if target:
        return SpanResult(False, None,
                          DiffOperator({p: target[p] for p in sorted(target, key=_pattern_order)}))
    return SpanResult(True, {name: coeffs.get(name, Fraction(0)) for name in basis.names}, None)


# -- realizations and actions ---------------------------------------------------

# The prefactor variable of each parameter, in the parameter class's order;
# ``realize`` and the table's maintenance operators read it.
_PREFACTOR_VARIABLES = {"f11": ("y", "z"), "psi2": ("z", "u", "t")}


def realize(kind: str, params, order: int) -> Realized:
    """Series realization of a basis element at the given truncation order.

    The family's series, every index cut at ``order``, times one prefactor
    variable per parameter raised to it (without any constant normalisation):
    series(x) * y^a z^b, or series(x, y) * z^a u^b t^c.  ``params`` is
    narrowed to the family's parameter class.  Inside
    ``series._shared_work`` the body is kept under (family, p, order) and
    handed to every later call with those; the prefactor is built afresh.
    """
    p = FAMILIES[kind].narrow(params)
    prefactor = {v: getattr(p, n) for v, n in zip(_PREFACTOR_VARIABLES[kind], p.__match_args__)}
    return Realized(_kept(("realized", kind, p, order), FAMILIES[kind].series, p, order), prefactor)


def action_sides(op_id: str, params, order: int) -> tuple[object, Fraction, Realized, Realized]:
    """(p, c(p), E realize(p), c(p) realize(p + shift)) for the action rule
    E F(p) = c(p) F(p + shift) of ``op_id``, the right body cut to the left
    one's caps, which ``apply`` never raises: their common trusted caps.
    The family is the op id's prefix, and ``params`` is narrowed to it as p
    (TypeError when it cannot be); an unknown op raises KeyError, and a
    degenerate coefficient or shift DegenerateParameter before any series
    is built.
    """
    if op_id not in ACTION_RULES:
        raise KeyError(f"no action rule for {op_id}")
    rule = ACTION_RULES[op_id]
    kind = op_id.partition(".")[0]
    p = FAMILIES[kind].narrow(params)
    coefficient = rule.coefficient(p)
    shifted = rule.shifted(p)
    lhs = catalogue()[op_id].apply(realize(kind, p, order))
    target = realize(kind, shifted, order)
    rhs = target.body.truncate(lhs.body.cap_map(), coefficient)
    return p, coefficient, lhs, Realized(rhs, target.prefactor)


def verify_action(op_id: str, params, order: int) -> dict:
    """Exact check of the two sides of ``action_sides``, which raises as it
    says.  Prefactors compare by their nonzero exponents (zero sides match
    whatever they carry), bodies at the common trusted caps.  Returns a
    report row with status PASS or the first offending monomial.
    """
    p, coefficient, lhs, rhs = action_sides(op_id, params, order)
    row = {
        "op": op_id,
        "family": op_id.partition(".")[0],
        "params": param_strs(p),
        "order": order,
        "coefficient": str(coefficient),
        "shift": list(ACTION_RULES[op_id].shift),
    }
    same = ({v: e for v, e in lhs.prefactor.items() if e}
            == {v: e for v, e in rhs.prefactor.items() if e})
    if not same and not (lhs.body.is_zero() and rhs.body.is_zero()):
        row["status"] = "FAIL"
        row["witness"] = {
            "reason": "prefactor mismatch",
            "lhs": str(dict(lhs.prefactor)),
            "rhs": str(dict(rhs.prefactor)),
        }
        return row
    found = first_mismatch(lhs.body, rhs.body)
    if found is None:
        row["status"] = "PASS"
        row["witness"] = None
    else:
        row["status"] = "FAIL"
        row["witness"] = {"monomial": found.monomial, "difference": str(found.lhs - found.rhs)}
    return row


def action_suite(points: Sequence, order: int) -> list[dict]:
    """One ``verify_action`` row per action rule and parameter point, in
    rule order; each point is narrowed to the rule's family.

    The rows share their realized family members: a member met again
    (another operator at the same point, or a shifted member that is
    another row's point) is built once per call, inside one
    ``series._shared_work`` that is dropped when the call returns or
    raises.  The rows are those of separate ``verify_action`` calls.
    """
    with _shared_work():
        return [verify_action(op_id, p, order) for op_id in ACTION_RULES for p in points]


# -- one-parameter flows --------------------------------------------------------

class FlowSpec:
    """Characteristic ODE system and its closed-form flow for one operator.

    The derivative terms of ``field`` are the vector field d(var)/dalpha;
    its scalar terms sum to the multiplier's rate, dmu/dalpha = rate * mu,
    whose closed form is ``multiplier_closed``.  Seven fields are catalogued
    operators; three keep the paper's stated system, which is not their
    operator's flow.  ``closed`` (a callable of start point and alpha per
    flowing variable) and ``denominators`` (the singularity guards) are the
    independent claim checked.  ``notes`` records any reconstruction.
    ``coords`` and ``rk4_run``, the whole integration ``flow_check`` runs,
    are built from the spec on first use and cached on it.
    """

    def __init__(
        self,
        op_id: str,
        field: DiffOperator,
        closed: dict[str, Callable[[dict, float], float]],
        denominators: tuple[Callable[[dict, float], float], ...] = (),
        multiplier_closed: Callable[[dict, float], float] = lambda s0, a: 1.0,
        multiplier_text: str = "1",
        notes: str = "",
    ):
        self.op_id = op_id
        self.field = field
        self.closed = closed
        self.denominators = denominators
        self.multiplier_closed = multiplier_closed
        self.multiplier_text = multiplier_text
        self.notes = notes

    @functools.cached_property
    def coords(self) -> tuple[str, ...]:
        """The coordinates the field reads or moves, sorted: the RK4 state is
        these, then mu."""
        terms = self.field.terms
        return tuple(sorted({v for t in terms for v, _ in t.monomial}
                            | {t.derivative for t in terms} - {None}))

    @functools.cached_property
    def rk4_run(self) -> Callable[[Mapping[str, float], int, float, float], float]:
        """``run(s0, steps, dt, margin)``: ``steps`` classical RK4 steps of
        size ``dt`` from the float start point ``s0``, with the grid check at
        alpha = 0 and after every step; returns the maximum deviation, or
        ``inf`` when a state slot is not finite at the end (an overflowed
        run, whose deviations are NaN, which the fold drops).  The whole run
        is compiled once into one loop over local variables.

        Each step is straight-line code from the field's terms.  Each rate
        is ``0.0`` plus its terms left to right, each term its coefficient
        times the numerator factors divided by the denominator factors
        (``** e`` unless the exponent is 1); mu's rate is multiplied by mu.
        A coefficient of 1 is left out unless the term has no numerator
        factor, and a negative term is subtracted; the leading ``0.0 +``
        stays, as it turns a -0.0 sum into 0.0.  A slot without terms has
        rate 0.0 and keeps its value: adding a zero step changes only -0.0,
        and a start value read from a rational is never -0.0.

        A rate that reads no moving slot and has no ``/`` or ``**`` (a
        constant rate, or ``y z d/dx`` with y and z fixed) cannot raise; it
        is computed once before the loop, with its half and full stage
        steps and its whole step ``sixth * (r + 2r + 2r + r)``, and its
        stage value is shared by stages 2 and 3.  A stage value no rate
        reads is not computed.

        The grid check is read from the closed forms themselves: each of
        ``denominators``, ``multiplier_closed`` and ``closed`` is called once
        on a traced start point and alpha, which record each ``+ - * /`` and
        unary ``-`` (``s0["v"]`` a start value, int and float constants by
        ``repr``, an int that is a float exactly as that float); any other
        operand or operation raises TypeError naming the flow.  At each grid
        point every denominator is checked in order, raising SingularFlow
        within ``margin`` of 0; then the multiplier's deviation and each
        closed form's, in ``closed``'s order, are folded into the point's
        deviation as ``max`` would.  Each subexpression, interned by its
        text, is one local, assigned on its own line where the check first
        reaches it, after its operands: Python's own evaluation order, so
        the exception a pole raises stays.  The check at alpha = 0 reaches
        every subexpression, so one free of alpha keeps that value in the
        loop; a denominator free of alpha is checked only at alpha = 0, and
        the deviation of a slot that never moves (mu without terms) from a
        closed form free of alpha is the one found there.

        Each float operation that runs is one of a term-by-term RK4 and of
        calling the closed forms at each grid point, on the same operands
        and in their order, and only operations that cannot raise are left
        out or moved, so every deviation and every exception is identical
        to theirs; the tests keep such an interpreter as the oracle.
        """
        return _compile_rk4_run(self)


def _constant_text(value: int | float) -> str:
    """The source text of a constant operand of a float.  An int of at most
    53 bits is written as the float it equals, which the operation converts
    it to anyway, so the compiled operation is float by float."""
    return repr(float(value) if type(value) is int and abs(value) <= 2**53 else value)


class _Traced:
    """A float of a closed form, standing for the text that reads it.  Start
    values, ``alpha`` and int or float constants are leaves; every other
    value is interned by its operation's text in its ``_TracedStart`` and
    read as a local, so a subexpression that a closed form writes again,
    or that several closed forms share, is one node.  ``alpha`` says whether the value reads alpha; ``symbol`` and
    ``args`` are its operator and operands (none for a leaf)."""

    __slots__ = ("start", "text", "alpha", "symbol", "args")

    def __init__(self, start: "_TracedStart", text: str, alpha: bool = False,
                 symbol: str = "", args: tuple["_Traced", ...] = ()):
        self.start = start
        self.text = text
        self.alpha = alpha
        self.symbol = symbol
        self.args = args

    def _binary(self, other: object, symbol: str, reflected: bool = False):
        if type(other) in (int, float):
            other = _Traced(self.start, _constant_text(other))
        elif not isinstance(other, _Traced):
            return NotImplemented
        left, right = (other, self) if reflected else (self, other)
        return self.start.node(symbol, left, right)

    def __add__(self, other): return self._binary(other, "+")
    def __radd__(self, other): return self._binary(other, "+", True)
    def __sub__(self, other): return self._binary(other, "-")
    def __rsub__(self, other): return self._binary(other, "-", True)
    def __mul__(self, other): return self._binary(other, "*")
    def __rmul__(self, other): return self._binary(other, "*", True)
    def __truediv__(self, other): return self._binary(other, "/")
    def __rtruediv__(self, other): return self._binary(other, "/", True)

    def __neg__(self):
        return self.start.node("-", self)

    def __bool__(self):
        raise TypeError("a traced value has no truth value")

    def __eq__(self, other):
        raise TypeError("a traced value cannot be compared")


class _TracedStart:
    """The start point of a traced closed form: ``s0["v"]`` is the local
    ``p<j>``, read once from the run's start point.  ``nodes`` holds every
    interned subexpression by its operation's text; the n-th is ``t<n>``."""

    def __init__(self):
        self.reads: dict[str, str] = {}
        self.nodes: dict[str, _Traced] = {}
        self.alpha = _Traced(self, "alpha", True)

    def __getitem__(self, key: str) -> _Traced:
        return _Traced(self, self.reads.setdefault(key, f"p{len(self.reads)}"))

    def node(self, symbol: str, *args: _Traced) -> _Traced:
        text = _op_text(symbol, [a.text for a in args])
        node = self.nodes.get(text)
        if node is None:
            alpha = any(a.alpha for a in args)
            node = self.nodes[text] = _Traced(self, f"t{len(self.nodes)}", alpha, symbol, args)
        return node


def _op_text(symbol: str, operands: list[str]) -> str:
    """``a symbol b``, or ``-a`` of one operand."""
    return f"{operands[0]} {symbol} {operands[1]}" if len(operands) == 2 else f"-{operands[0]}"


def _compile_rk4_run(spec: FlowSpec):
    """``FlowSpec.rk4_run``: ``_rk4_source`` compiled."""
    # ``inf`` and ``nan`` are the repr of a non-finite constant; ``inf`` is
    # also the result of a run whose final state is not finite
    namespace = {"SingularFlow": SingularFlow, "op_id": spec.op_id, "inf": math.inf, "nan": math.nan}
    exec(compile(_rk4_source(spec), f"<rk4 run of {spec.op_id}>", "exec"), namespace)
    return namespace["run"]


def _rk4_source(spec: FlowSpec) -> str:
    """Source text of ``FlowSpec.rk4_run``.  State slot i is ``s<i>``; slot
    ``len(coords)`` is mu.  A moving slot whose rate is computed at each
    stage has rates ``k1_<i>`` to ``k4_<i>``; one whose rate reads no moving
    slot and cannot raise has rate ``r<i>``, its half and full stage steps
    ``hr<i>`` and ``dr<i>`` and its whole step ``g<i>``, all computed once.
    A moving slot that a stage's rate reads has stage value ``w<i>``.  A
    traced subexpression is the local ``t<n>``; a deviation fixed at
    alpha = 0 is ``dev<i>``.  Coefficients are written with ``repr``, which
    round-trips a float exactly."""
    coords = spec.coords
    mu = len(coords)
    index = {v: i for i, v in enumerate(coords)}
    slots: list[list[OpTerm]] = [[] for _ in range(mu + 1)]
    for t in spec.field.terms:
        slots[index.get(t.derivative, mu)].append(t)
    moving = {i for i, slot in enumerate(slots) if slot}
    reads = [{index[v] for t in slot for v, _ in t.monomial} for slot in slots]
    reads[mu].add(mu)
    # a rate that reads no moving slot and has no / or ** (so cannot raise)
    fixed = {i for i in moving if not reads[i] & moving
             and all(e == 1 for t in slots[i] for _, e in t.monomial)}
    stepped = sorted(moving - fixed)
    staged = moving & set().union(*(reads[i] for i in stepped))

    def rate(i: int, names: list[str]) -> str:
        def power(v: str, e: int) -> str:
            return names[index[v]] if e == 1 else f"{names[index[v]]} ** {e}"

        expr = "0.0"
        for t in slots[i]:
            c = float(t.coefficient)
            sign, c = (" - ", -c) if c < 0 else (" + ", c)
            num = [power(v, e) for v, e in t.monomial if e > 0]
            den = "".join(f" / {power(v, -e)}" for v, e in t.monomial if e < 0)
            expr += sign + " * ".join(num if c == 1.0 and num else [repr(c), *num]) + den
        return f"({expr}) * {names[mu]}" if i == mu else expr

    start = _TracedStart()

    def trace(form: Callable[[dict, float], float]) -> _Traced:
        try:
            value = form(start, start.alpha)
        except (TypeError, AttributeError) as exc:
            raise TypeError(f"{spec.op_id}: a closed form may use only + - * / of start "
                            f"values, alpha and int or float constants ({exc})") from exc
        if type(value) in (int, float):
            return _Traced(start, _constant_text(value))
        if not isinstance(value, _Traced):
            raise TypeError(f"{spec.op_id}: a closed form returned {type(value).__name__}")
        return value

    dens = [trace(den) for den in spec.denominators]
    devs = [(mu, trace(spec.multiplier_closed))]
    devs += [(index[v], trace(form)) for v, form in spec.closed.items()]
    # the deviation of a slot that never moves from a closed form free of alpha
    constant = {i for i, form in devs if i not in moving and not form.alpha}

    def grid_check(loop: bool) -> list[str]:
        lines: list[str] = []
        assigned: set[str] = set()

        def emit(node: _Traced) -> str:
            if node.args and node.text not in assigned and (node.alpha or not loop):
                operands = [emit(arg) for arg in node.args]
                assigned.add(node.text)
                lines.append(f"{node.text} = {_op_text(node.symbol, operands)}")
            return node.text

        for den in dens:
            if den.alpha or not loop:
                lines += [f"if abs({emit(den)}) < margin:",
                          '    raise SingularFlow(f"{op_id}: denominator within margin at alpha={alpha}")']
        for n, (i, form) in enumerate(devs):
            if i not in constant:
                value = f"abs(s{i} - {emit(form)})"
            else:
                value = f"dev{i}" if loop else f"(dev{i} := abs(s{i} - {emit(form)}))"
            lines += [f"dev = {value}"] if n == 0 else [f"e = {value}", "if e > dev:", "    dev = e"]
        return lines

    state = [f"s{i}" for i in range(mu + 1)]
    stage = [f"w{i}" if i in staged else f"s{i}" for i in range(mu + 1)]
    once = []
    for i in sorted(fixed):
        once.append(f"r{i} = {rate(i, state)}")
        if i in staged:
            once += [f"hr{i} = half * r{i}", f"dr{i} = dt * r{i}"]
        once.append(f"g{i} = sixth * (r{i} + 2.0 * r{i} + 2.0 * r{i} + r{i})")
    step = [f"k1_{i} = {rate(i, state)}" for i in stepped]
    for k, weight in ((2, "half"), (3, "half"), (4, "dt")):
        for i in sorted(staged):
            if i not in fixed:
                step.append(f"w{i} = s{i} + {weight} * k{k - 1}_{i}")
            elif k != 3:  # stages 2 and 3 share a fixed rate's stage value
                step.append(f"w{i} = s{i} + {'hr' if k == 2 else 'dr'}{i}")
        step += [f"k{k}_{i} = {rate(i, stage)}" for i in stepped]
    step += [f"s{i} = s{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})" for i in stepped]
    step += [f"s{i} = s{i} + g{i}" for i in sorted(fixed)]

    lines = ["def run(start, steps, dt, margin):",
             "    half = 0.5 * dt",
             "    sixth = dt / 6.0",
             *(f"    s{i} = start[{v!r}]" for i, v in enumerate(coords)),
             f"    s{mu} = 1.0",
             *(f"    {name} = start[{v!r}]" for v, name in start.reads.items()),
             "    alpha = 0.0",
             *(f"    {line}" for line in grid_check(False)),
             "    max_dev = dev",
             *(f"    {line}" for line in once),
             "    for _ in range(steps):",
             *(f"        {line}" for line in step),
             "        alpha += dt",
             *(f"        {line}" for line in grid_check(True)),
             "        if dev > max_dev:",
             "            max_dev = dev",
             # abs(s) < inf is False for an infinite or NaN slot
             f"    return max_dev if {' and '.join(f'abs({s}) < inf' for s in state)} else inf"]
    return "\n".join(lines)


# -- the operator table ----------------------------------------------------------

class ActionRule(NamedTuple):
    """E F(p) = coefficient(p) F(p + shift) for one catalogued operator E."""

    shift: tuple[int, ...]            # (da, db) or (da, db, dc)
    coefficient: Callable[[object], Fraction]

    def shifted(self, p, times: int = 1):
        return p.shifted(*(times * s for s in self.shift))


class _Entry(NamedTuple):
    """A catalogued operator, its action rule and its flow (None for I_p, I)."""

    operator: DiffOperator
    rule: ActionRule
    flow: FlowSpec | None


@functools.cache
def _operator_table() -> dict[str, _Entry]:
    """Every catalogued operator by id, in catalogue order, built once per
    process.  An entry states its operator twice, as a differential operator
    and as an action rule, hand-written but for the maintenance operators,
    which the actions scope checks against each other.  Each shape builder
    makes an operator and its flow, whose field is the operator unless one
    is given:

    - ``pole(op_id, rule, v, *others)``: v (w d/dw + ... + v d/dv), every
      coordinate over 1 - alpha v, with that one denominator;
    - ``shift(op_id, rule, v, w, op, field, notes)``: w/v d/dw + d/dv - 1/v
      unless ``op`` is given, v + alpha and w (v + alpha) / v, denominators
      (v + alpha, v), and the multiplier v / (v + alpha) exactly when the
      field has the scalar -1/v;
    - ``translation(op_id, rule, w, u, v)``: u v d/dw, w + alpha u v;
    - ``maintenance(family)``: I_p = v d/dv with eigenvalue p, for each
      parameter p and its prefactor variable v, then I = 1, without flows.

    The operators ``f11.E_a'`` and ``f11.E_b`` are written out, and so are
    the flows the paper states that are not their operators' flows.
    """

    def pole(op_id: str, rule: ActionRule, v: str, *others: str) -> tuple[str, _Entry]:
        op = sum((DiffOperator.term(1, Counter((v, w)), w) for w in (*others, v)), DiffOperator())
        closed = {w: lambda s0, a, w=w: s0[w] / (1 - a * s0[v]) for w in (v, *others)}
        return op_id, _Entry(op, rule, FlowSpec(op_id, op, closed, (lambda s0, a: 1 - a * s0[v],)))

    def shift(op_id: str, rule: ActionRule, v: str, w: str, op: DiffOperator | None = None,
              field: DiffOperator | None = None, notes: str = "") -> tuple[str, _Entry]:
        shape = (DiffOperator.term(1, {v: -1, w: 1}, w) + DiffOperator.term(1, {}, v)
                 + DiffOperator.term(-1, {v: -1}, None))
        op = shape if op is None else op
        field = shape if field is None else field
        closed = {v: lambda s0, a: s0[v] + a, w: lambda s0, a: s0[w] * (s0[v] + a) / s0[v]}
        dens = (lambda s0, a: s0[v] + a, lambda s0, a: s0[v])
        if field.pattern_vector().get((((v, -1),), None)) != -1:
            return op_id, _Entry(op, rule, FlowSpec(op_id, field, closed, dens, notes=notes))
        return op_id, _Entry(op, rule, FlowSpec(op_id, field, closed, dens,
                                                lambda s0, a: s0[v] / (s0[v] + a),
                                                f"{v}/({v}+alpha)", notes))

    def translation(op_id: str, rule: ActionRule, w: str, u: str, v: str) -> tuple[str, _Entry]:
        op = DiffOperator.term(1, {u: 1, v: 1}, w)
        closed = {w: lambda s0, a: s0[w] + a * s0[u] * s0[v]}
        return op_id, _Entry(op, rule, FlowSpec(op_id, op, closed))

    def maintenance(family: str) -> list[tuple[str, _Entry]]:
        names = FAMILIES[family].params.__match_args__
        zero = (0,) * len(names)
        entries = [(f"{family}.I_{p}", _Entry(DiffOperator.term(1, {v: 1}, v),
                                              ActionRule(zero, operator.attrgetter(p)), None))
                   for v, p in zip(_PREFACTOR_VARIABLES[family], names)]
        identity = _Entry(DiffOperator.scalar(1), ActionRule(zero, lambda p: Fraction(1)), None)
        return entries + [(f"{family}.I", identity)]

    return dict([
        pole("f11.E_a", ActionRule((1, 0), lambda p: p.a), "y", "x"),
        ("f11.E_a'", _Entry(
            DiffOperator.term(1, {"y": -1, "x": 1}, "x")
            + DiffOperator.term(-1, {}, "y")
            + DiffOperator.term(1, {"y": -1, "z": 1}, "z")
            + DiffOperator.term(-1, {"y": -1, "x": 1}, None),
            ActionRule((-1, 0), lambda p: p.b - p.a),
            FlowSpec(
                "f11.E_a'",
                DiffOperator.term(-1, {}, "y")
                + DiffOperator.term(1, {"x": 1, "y": -1}, "x")
                + DiffOperator.term(-1, {"x": 2, "y": -1}, "x")
                + DiffOperator.term(-1, {"x": 1, "y": -1, "z": 1}, "z"),
                closed={
                    "y": lambda s0, a: s0["y"] - a,
                    "x": lambda s0, a: s0["x"] * s0["y"] / (s0["y"] - a * (1 - s0["x"])),
                    "z": lambda s0, a: s0["z"] * (s0["y"] - a) / (s0["y"] - a * (1 - s0["x"])),
                },
                denominators=(lambda s0, a: s0["y"] - a,
                              lambda s0, a: s0["y"] - a * (1 - s0["x"])),
            ),
        )),
        shift("f11.E_b", ActionRule((0, 1), lambda p: (p.a - p.b) / p.b), "z", "x",
              op=DiffOperator.term(1, {"z": 1}, "x") + DiffOperator.term(-1, {"z": 1}, None),
              notes="multiplier rate reconstructed as -mu/z (the printed equation is "
                    "typographically broken); the printed closed form z/(z+alpha) "
                    "solves the reconstruction"),
        # the flow without the operator's -1/z
        shift("f11.E_b'", ActionRule((0, -1), lambda p: p.b - 1), "z", "x",
              field=DiffOperator.term(1, {"z": -1, "x": 1}, "x") + DiffOperator.term(1, {}, "z")),
        translation("f11.E_ab", ActionRule((1, 1), lambda p: p.a / p.b), "x", "y", "z"),
        *maintenance("f11"),
        pole("psi2.E_a", ActionRule((1, 0, 0), lambda p: p.a), "z", "x", "y"),
        shift("psi2.E_b", ActionRule((0, -1, 0), lambda p: p.b - 1), "u", "x"),
        shift("psi2.E_c", ActionRule((0, 0, -1), lambda p: p.c - 1), "t", "y"),
        translation("psi2.E_ab", ActionRule((1, 1, 0), lambda p: p.a / p.b), "x", "z", "u"),
        translation("psi2.E_ac", ActionRule((1, 0, 1), lambda p: p.a / p.c), "y", "z", "t"),
        *maintenance("psi2"),
    ])


def build_catalogue() -> dict[str, DiffOperator]:
    """The table's operators, keyed '<family>.<name>': eleven distinct names
    across the two families, f11.E_a in its operative form (OPERATOR_NOTES)."""
    return {k: e.operator for k, e in _operator_table().items()}


@functools.cache
def catalogue() -> Mapping[str, DiffOperator]:
    """The operator catalogue of ``build_catalogue``, made once per process."""
    return MappingProxyType(build_catalogue())


# The table's action rules, from which identity and recursion right sides
# are derived.
ACTION_RULES: dict[str, ActionRule] = {k: e.rule for k, e in _operator_table().items()}

OPERATOR_NOTES = {
    "f11.E_a": (
        "installed in the operative form y*(x d/dx + y d/dy); the displayed "
        "variant y*(d/dx + y d/dy) does not reproduce the raising action and "
        "is rejected by the exact series check"
    ),
}


def family_operator_ids(family: str) -> list[str]:
    return [k for k in catalogue() if k.startswith(family + ".")]


def _flow_specs() -> dict[str, FlowSpec]:
    """The ten flows of the table by op id, in catalogue order but for
    ``f11.E_b``, whose row comes before that of ``f11.E_a'``."""
    specs = {k: e.flow for k, e in _operator_table().items() if e.flow is not None}
    return {"f11.E_a": specs.pop("f11.E_a"), "f11.E_b": specs.pop("f11.E_b"), **specs}


_FLOW_SPECS = _flow_specs()
FLOW_IDS = tuple(_FLOW_SPECS)

# The coordinates the flows read from their start point, in first-read order.
FLOW_COORDINATES = tuple(dict.fromkeys(v for spec in _FLOW_SPECS.values() for v in spec.coords))

# The most RK4 steps one flow check may take: 1000 times the 10**4 steps of
# alpha 0.1 at step 1e-5, 1.2 s (flows whose rates are all computed once) to
# 11 s per flow on a 2-vCPU VM (Python 3.11).
MAX_FLOW_STEPS = 10**7


def flow_spec(op_id: str) -> FlowSpec:
    try:
        return _FLOW_SPECS[op_id]
    except KeyError:
        raise KeyError(f"no flow catalogued for {op_id!r}") from None


def check_flow_start(start: Mapping[str, object]) -> None:
    """ValueError naming the ``FLOW_COORDINATES`` that ``start`` lacks, in order."""
    missing = [v for v in FLOW_COORDINATES if v not in start]
    if missing:
        raise ValueError(f"flow start point lacks coordinates {', '.join(missing)}")


def flow_check(
    spec: FlowSpec,
    start: Mapping[str, object],
    alpha_max: float,
    h: float = 1e-3,
    margin: float = 1e-6,
) -> float:
    """Classical fixed-step RK4 against the closed-form flow.

    Integrates the field's coordinates and the multiplier from the start
    point and returns the maximum absolute deviation from the closed forms
    over all grid points: alpha = 0 and the end of each of the
    ``round(|alpha_max| / h)`` (at least one) equal steps.  Raises
    SingularFlow when any catalogued denominator comes within ``margin`` of
    zero on the grid.  A run whose final state is not finite (it overflowed)
    returns ``inf``.  Raises ValueError unless ``alpha_max`` is finite, ``h``
    finite and positive, ``margin`` finite and non-negative, the step count
    at most ``MAX_FLOW_STEPS`` (``flow_steps``) and no start value too large
    for a float, naming it.  The run is the spec's ``rk4_run``, compiled once.
    """
    if not math.isfinite(alpha_max):
        raise ValueError(f"flow alpha must be finite, got {alpha_max!r}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"flow step must be finite and positive, got {h!r}")
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"flow margin must be finite and non-negative, got {margin!r}")
    s0 = {}
    for v, val in start.items():
        try:
            s0[v] = float(as_rational(val))
        except OverflowError:
            raise ValueError(f"flow start coordinate {v} is too large for a float") from None
    steps = flow_steps(alpha_max, h)
    return spec.rk4_run(s0, steps, alpha_max / steps, margin)


def flow_steps(alpha_max: float, h: float) -> int:
    """The step count ``round(|alpha_max| / h)``, at least one, of a finite
    alpha and a finite positive step; ValueError past ``MAX_FLOW_STEPS``."""
    ratio = abs(alpha_max) / h
    if not ratio < MAX_FLOW_STEPS + 0.5:
        raise ValueError(
            f"flow alpha {alpha_max!r} at step {h!r} needs {ratio:.3g} RK4 steps; "
            f"at most {MAX_FLOW_STEPS} are allowed"
        )
    return max(1, round(ratio))


def flow_suite(
    start: Mapping[str, object],
    alpha_max: float = 0.1,
    h: float = 1e-3,
    tol: float = 1e-8,
) -> list[dict]:
    """One row per catalogued flow; PASS needs a finite deviation <= tol.

    Raises ValueError when ``start`` lacks a flow coordinate or holds one
    too large for a float, and SingularFlow, naming the flow, when a flow
    meets a vanishing denominator or its run divides by zero or overflows.
    """
    check_flow_start(start)
    rows = []
    for op_id in FLOW_IDS:
        spec = flow_spec(op_id)
        try:
            dev = flow_check(spec, start, alpha_max, h)
        except (ZeroDivisionError, OverflowError) as exc:
            raise SingularFlow(f"{op_id}: the RK4 run raised {type(exc).__name__}: {exc}") from exc
        rows.append(
            {
                "flow": op_id,
                "alpha": alpha_max,
                "step": h,
                "max_deviation": dev,
                "multiplier": spec.multiplier_text,
                "notes": spec.notes,
                "status": "PASS" if math.isfinite(dev) and dev <= tol else "FAIL",
            }
        )
    return rows


def commutator_suite(seed: int = 42) -> dict:
    """Pairwise commutators per family, span membership, and algebra laws.

    The span finding is reported, never asserted: whether each commutator
    lands back in the catalogued span is part of the output.

    Each bracket is computed once.  The pair loop keeps both [A, B] and
    [B, A] in one table and checks antisymmetry on them; the Jacobi sums
    read their inner brackets from the table, in the order they are
    written, so antisymmetry is not assumed.  Each family's basis is
    eliminated once (``SpanBasis``), and each pair's ``express_in_span``
    reduces only its bracket against it.
    """
    import random

    cat = catalogue()
    rng = random.Random(seed)
    report = {"families": {}, "antisymmetry_ok": True, "jacobi_ok": True, "bilinearity_ok": True}
    for fam in dict.fromkeys(op_id.partition(".")[0] for op_id in cat):
        ids = family_operator_ids(fam)
        basis = {i: cat[i] for i in ids}
        span = SpanBasis(basis)
        bracket: dict[tuple[str, str], DiffOperator] = {}
        pair_rows = []
        for id1, id2 in itertools.combinations(ids, 2):
            c = bracket[id1, id2] = commutator(basis[id1], basis[id2])
            bracket[id2, id1] = commutator(basis[id2], basis[id1])
            if bracket[id2, id1] != -c:
                report["antisymmetry_ok"] = False
            row = {"pair": f"[{id1}, {id2}]", "result": c.pretty()}
            found = express_in_span(c, span)
            row["in_span"] = found.in_span
            if found.in_span:
                row["coefficients"] = {
                    k: str(v) for k, v in found.coefficients.items() if v != 0
                }
            else:
                row["residual"] = found.residual.pretty()
            pair_rows.append(row)
        for a, b, c3 in itertools.combinations(ids, 3):
            jac = (
                commutator(basis[a], bracket[b, c3])
                + commutator(basis[b], bracket[c3, a])
                + commutator(basis[c3], bracket[a, b])
            )
            if not jac.is_zero():
                report["jacobi_ok"] = False
        ops = list(basis.values())
        for _ in range(10):
            a, b, c3 = (rng.choice(ops) for _ in range(3))
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            lhs = commutator(a + b.scale(lam), c3)
            rhs = commutator(a, c3) + commutator(b, c3).scale(lam)
            if lhs != rhs:
                report["bilinearity_ok"] = False
        report["families"][fam] = pair_rows
    return report
