"""First-order differential operators with Laurent-monomial coefficients.

Covers the raising/lowering/maintenance operators of the two function
families, their exact action on realized basis elements, commutators
(simplified back to first order, with a hard failure if the second-order
parts do not cancel), exact span membership, and Runge-Kutta checks of the
one-parameter flows against their closed forms.  ``build_catalogue`` is the
hand-written statement of each operator; its action is checked against the
rule of ``hypfun.ACTION_RULES``, and seven flow fields are the operators.

Family keys are those of ``hypfun.FAMILIES``: ``"f11"`` (realized as its
series in x times y^a z^b) and ``"psi2"`` (series in x, y times z^a u^b t^c).
Catalogue entries are keyed ``"<family>.<name>"``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping

from .exactnum import Q, as_rational
from .hypfun import (
    ACTION_RULES,
    FAMILIES,
    ActionRule,
    Params1F1,
    ParamsPsi2,
    param_strs,
)
from .series import MultiSeries, PrefactorSeries, UnknownVariable

Monomial = tuple[tuple[str, int], ...]
Pattern = tuple[Monomial, str | None]


class InternalSimplificationFailure(RuntimeError):
    """Second-order terms of a commutator failed to cancel exactly."""


class SingularFlow(ArithmeticError):
    """A closed-form flow denominator came within the safety margin of 0."""


def _mono(exponents: Mapping[str, int]) -> Monomial:
    return tuple(sorted((v, int(e)) for v, e in exponents.items() if int(e) != 0))


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


@dataclass(frozen=True)
class OpTerm:
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
    def zero(cls) -> "DiffOperator":
        return cls()

    @classmethod
    def scalar(cls, value) -> "DiffOperator":
        return cls({((), None): as_rational(value)})

    @classmethod
    def term(cls, coeff, exponents: Mapping[str, int], derivative: str | None) -> "DiffOperator":
        return cls({(_mono(exponents), derivative): as_rational(coeff)})

    # -- views -----------------------------------------------------------

    @property
    def terms(self) -> list[OpTerm]:
        return [
            OpTerm(c, mono, deriv)
            for (mono, deriv), c in sorted(
                self._terms.items(),
                key=lambda kv: (kv[0][1] is not None, kv[0][1] or "", kv[0][0]),
            )
        ]

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
        if not self._terms:
            return "0"
        chunks = []
        for t in self.terms:
            mono = "*".join(
                v if e == 1 else f"{v}^{e}" for v, e in t.monomial
            )
            parts = []
            mag = abs(t.coefficient)
            if mag != 1 or not (mono or t.derivative):
                parts.append(str(mag))
            if mono:
                parts.append(mono)
            if t.derivative:
                parts.append(f"d/d{t.derivative}")
            body = "*".join(parts)
            if not chunks:
                chunks.append(body if t.coefficient > 0 else f"-{body}")
            else:
                chunks.append(("+ " if t.coefficient > 0 else "- ") + body)
        return " ".join(chunks)

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

    def apply(self, f: PrefactorSeries) -> PrefactorSeries:
        """Linear extension over terms; derivative first, then the monomial."""
        results: list[PrefactorSeries] = []
        for (mono, deriv), coeff in self._terms.items():
            g = f
            if deriv is not None:
                if deriv not in g.body.variables and deriv not in g.prefactor:
                    raise UnknownVariable(deriv)
                g = g.derivative(deriv)
            for v, e in mono:
                if v not in g.body.variables and v not in g.prefactor:
                    raise UnknownVariable(v)
                g = g.multiply_monomial(v, e)
            g = g.scale(coeff)
            if not g.is_zero():
                results.append(g)
        if not results:
            return PrefactorSeries(MultiSeries.zero(f.body.cap_map()), {})
        caps = {
            v: min(r.body.cap(v) for r in results)
            for v in results[0].body.variables
        }
        total = results[0].truncate(caps)
        for r in results[1:]:
            total = total + r.truncate(caps)
        return total


def _bump(store: dict, key, value: Fraction) -> None:
    """store[key] += value, dropping the key when the sum is zero."""
    total = store.get(key, Q(0)) + value
    if total == 0:
        store.pop(key, None)
    else:
        store[key] = total


def commutator(op1: DiffOperator, op2: DiffOperator) -> DiffOperator:
    """op1 op2 - op2 op1, with the second-order parts required to cancel."""

    def compose(a: DiffOperator, b: DiffOperator):
        first: dict[Pattern, Fraction] = {}
        second: dict[tuple[tuple[str, str], Monomial], Fraction] = {}
        for (m1, d1), c1 in a._terms.items():
            for (m2, d2), c2 in b._terms.items():
                c = c1 * c2
                if d1 is None:
                    _bump(first, (_mono_mul(m1, m2), d2), c)
                    continue
                e, dm2 = _mono_deriv(m2, d1)
                if e:
                    _bump(first, (_mono_mul(m1, dm2), d2), c * e)
                if d2 is None:
                    _bump(first, (_mono_mul(m1, m2), d1), c)
                else:
                    pair = tuple(sorted((d1, d2)))
                    _bump(second, (pair, _mono_mul(m1, m2)), c)
        return first, second

    f12, s12 = compose(op1, op2)
    f21, s21 = compose(op2, op1)
    for key, c in s21.items():
        _bump(s12, key, -c)
    if s12:
        raise InternalSimplificationFailure(
            f"surviving second-order terms: {s12}"
        )
    for key, c in f21.items():
        _bump(f12, key, -c)
    return DiffOperator(f12)


# -- span membership ----------------------------------------------------------

@dataclass(frozen=True)
class SpanResult:
    in_span: bool
    coefficients: dict[str, Fraction] | None
    residual: DiffOperator | None


def express_in_span(op: DiffOperator, basis: Mapping[str, DiffOperator]) -> SpanResult:
    """Exact rational solve of op = sum(c_i * basis_i) by pattern matching.

    Returns coefficients with zero residual, or a result with ``in_span``
    false carrying the canonical remainder after eliminating the span.
    """
    names = list(basis)
    patterns = sorted(
        {p for b in basis.values() for p in b.pattern_vector()}
        | set(op.pattern_vector()),
        key=lambda p: (p[1] is not None, p[1] or "", p[0]),
    )
    pindex = {p: i for i, p in enumerate(patterns)}
    ncols = len(patterns)

    # rows[i] = (vector over patterns, combination over original basis)
    rows: list[tuple[list[Fraction], list[Fraction]]] = []
    for j, name in enumerate(names):
        vec = [Q(0)] * ncols
        for p, c in basis[name].pattern_vector().items():
            vec[pindex[p]] = c
        comb = [Q(0)] * len(names)
        comb[j] = Q(1)
        rows.append((vec, comb))

    # forward elimination to row echelon form with full pivoting bookkeeping
    pivots: list[tuple[int, tuple[list[Fraction], list[Fraction]]]] = []
    for vec, comb in rows:
        v = list(vec)
        cmb = list(comb)
        for col, (pv, pc) in pivots:
            if v[col] != 0:
                factor = v[col] / pv[col]
                v = [a - factor * b for a, b in zip(v, pv)]
                cmb = [a - factor * b for a, b in zip(cmb, pc)]
        lead = next((i for i, a in enumerate(v) if a != 0), None)
        if lead is not None:
            pivots.append((lead, (v, cmb)))

    target = [Q(0)] * ncols
    for p, c in op.pattern_vector().items():
        target[pindex[p]] = c
    coeffs = [Q(0)] * len(names)
    for col, (pv, pc) in pivots:
        if target[col] != 0:
            factor = target[col] / pv[col]
            target = [a - factor * b for a, b in zip(target, pv)]
            coeffs = [a + factor * b for a, b in zip(coeffs, pc)]
    if any(a != 0 for a in target):
        residual = DiffOperator(
            {patterns[i]: a for i, a in enumerate(target) if a != 0}
        )
        return SpanResult(False, None, residual)
    return SpanResult(True, dict(zip(names, coeffs)), None)


# -- operator catalogue --------------------------------------------------------

def build_catalogue() -> dict[str, DiffOperator]:
    """All catalogued operators, keyed '<family>.<name>'.

    Eleven distinct operator names across the two families.  For the
    one-argument family, E_a is installed in its operative form
    y*(x d/dx + y d/dy); the displayed variant without the x factor does not
    reproduce the raising action (see OPERATOR_NOTES).
    """
    cat: dict[str, DiffOperator] = {}

    cat["f11.E_a"] = (
        DiffOperator.term(1, {"y": 1, "x": 1}, "x")
        + DiffOperator.term(1, {"y": 2}, "y")
    )
    cat["f11.E_a'"] = (
        DiffOperator.term(1, {"y": -1, "x": 1}, "x")
        + DiffOperator.term(-1, {}, "y")
        + DiffOperator.term(1, {"y": -1, "z": 1}, "z")
        + DiffOperator.term(-1, {"y": -1, "x": 1}, None)
    )
    cat["f11.E_b"] = (
        DiffOperator.term(1, {"z": 1}, "x") + DiffOperator.term(-1, {"z": 1}, None)
    )
    cat["f11.E_b'"] = (
        DiffOperator.term(1, {"z": -1, "x": 1}, "x")
        + DiffOperator.term(1, {}, "z")
        + DiffOperator.term(-1, {"z": -1}, None)
    )
    cat["f11.E_ab"] = DiffOperator.term(1, {"y": 1, "z": 1}, "x")
    cat["f11.I_a"] = DiffOperator.term(1, {"y": 1}, "y")
    cat["f11.I_b"] = DiffOperator.term(1, {"z": 1}, "z")
    cat["f11.I"] = DiffOperator.scalar(1)

    cat["psi2.E_a"] = (
        DiffOperator.term(1, {"z": 1, "x": 1}, "x")
        + DiffOperator.term(1, {"z": 1, "y": 1}, "y")
        + DiffOperator.term(1, {"z": 2}, "z")
    )
    cat["psi2.E_b"] = (
        DiffOperator.term(1, {"u": -1, "x": 1}, "x")
        + DiffOperator.term(1, {}, "u")
        + DiffOperator.term(-1, {"u": -1}, None)
    )
    cat["psi2.E_c"] = (
        DiffOperator.term(1, {"t": -1, "y": 1}, "y")
        + DiffOperator.term(1, {}, "t")
        + DiffOperator.term(-1, {"t": -1}, None)
    )
    cat["psi2.E_ab"] = DiffOperator.term(1, {"u": 1, "z": 1}, "x")
    cat["psi2.E_ac"] = DiffOperator.term(1, {"z": 1, "t": 1}, "y")
    cat["psi2.I_a"] = DiffOperator.term(1, {"z": 1}, "z")
    cat["psi2.I_b"] = DiffOperator.term(1, {"u": 1}, "u")
    cat["psi2.I_c"] = DiffOperator.term(1, {"t": 1}, "t")
    cat["psi2.I"] = DiffOperator.scalar(1)

    return cat


@functools.cache
def catalogue() -> Mapping[str, DiffOperator]:
    """The operator catalogue of ``build_catalogue``, built once per process."""
    return MappingProxyType(build_catalogue())


OPERATOR_NOTES = {
    "f11.E_a": (
        "installed in the operative form y*(x d/dx + y d/dy); the displayed "
        "variant y*(d/dx + y d/dy) does not reproduce the raising action and "
        "is rejected by the exact series check"
    ),
}


def family_operator_ids(family: str) -> list[str]:
    return [k for k in catalogue() if k.startswith(family + ".")]


# -- basis families and realizations -------------------------------------------

# The prefactor variable of each parameter, in the parameter class's order.
_PREFACTOR_VARIABLES = {"f11": ("y", "z"), "psi2": ("z", "u", "t")}


@dataclass(frozen=True)
class BasisFamily:
    kind: str  # "f11" | "psi2"
    params: Params1F1 | ParamsPsi2

    def __post_init__(self):
        if self.kind not in _PREFACTOR_VARIABLES:
            raise ValueError(f"unknown family kind {self.kind!r}")
        want = FAMILIES[self.kind].params
        if not isinstance(self.params, want):
            raise TypeError(f"{self.kind} family needs {want.__name__}")


def realize(family: BasisFamily, order: int) -> PrefactorSeries:
    """Series realization of a basis element at the given truncation order.

    The family's series, every index cut at ``order``, times one prefactor
    variable per parameter raised to it (without any constant normalisation):
    series(x) * y^a z^b, or series(x, y) * z^a u^b t^c.
    """
    p = family.params
    names = zip(_PREFACTOR_VARIABLES[family.kind], fields(p))
    prefactor = {v: getattr(p, f.name) for v, f in names}
    return PrefactorSeries(FAMILIES[family.kind].series(p, order), prefactor)


def expected_action(op_id: str, family: BasisFamily) -> ActionRule:
    """Parameter shift and exact coefficient of a catalogued operator action."""
    if op_id.partition(".")[0] != family.kind:
        raise ValueError(f"operator {op_id!r} does not act on family {family.kind!r}")
    if op_id not in ACTION_RULES:
        raise KeyError(f"no action rule for {op_id}")
    rule = ACTION_RULES[op_id]
    rule.coefficient(family.params)           # force DegenerateParameter early
    rule.shifted(family.params)
    return rule


def verify_action(op_id: str, family: BasisFamily, order: int) -> dict:
    """Exact check: apply(op, realize) == coefficient * realize(shifted).

    Comparison happens at the common trusted caps.  Returns a report row
    with status PASS or the first offending monomial.
    """
    rule = expected_action(op_id, family)
    lhs = catalogue()[op_id].apply(realize(family, order))
    shifted = BasisFamily(family.kind, rule.shifted(family.params))
    rhs = realize(shifted, order).scale(rule.coefficient(family.params))
    caps = {
        v: min(lhs.body.cap(v), rhs.body.cap(v)) for v in lhs.body.variables
    }
    row = {
        "op": op_id,
        "family": family.kind,
        "params": param_strs(family.params),
        "order": order,
        "coefficient": str(rule.coefficient(family.params)),
        "shift": list(rule.shift),
    }
    if lhs.prefactor != rhs.prefactor and not (lhs.is_zero() and rhs.is_zero()):
        row["status"] = "FAIL"
        row["witness"] = {
            "reason": "prefactor mismatch",
            "lhs": str(dict(lhs.prefactor)),
            "rhs": str(dict(rhs.prefactor)),
        }
        return row
    diff = lhs.truncate(caps).body - rhs.truncate(caps).body
    if diff.is_zero():
        row["status"] = "PASS"
        row["witness"] = None
    else:
        exps, coeff = diff.sorted_terms()[0]
        mono = "*".join(
            f"{v}^{e}" for v, e in zip(diff.variables, exps)
        )
        row["status"] = "FAIL"
        row["witness"] = {"monomial": mono, "difference": str(coeff)}
    return row


def action_suite(
    f11_points: list[Params1F1],
    psi2_points: list[ParamsPsi2],
    order: int,
) -> list[dict]:
    points = {"f11": f11_points, "psi2": psi2_points}
    rows = []
    for op_id in ACTION_RULES:
        kind = op_id.partition(".")[0]
        for p in points[kind]:
            rows.append(verify_action(op_id, BasisFamily(kind, p), order))
    return rows


# -- one-parameter flows --------------------------------------------------------

@dataclass(frozen=True)
class FlowSpec:
    """Characteristic ODE system and its closed-form flow for one operator.

    The derivative terms of ``field`` are the vector field d(var)/dalpha;
    its scalar terms sum to the multiplier's rate, dmu/dalpha = rate * mu,
    whose closed form is ``multiplier_closed``.  Seven fields are catalogued
    operators; three keep the paper's stated system, which is not their
    operator's flow.  ``closed`` (a callable of start point and alpha per
    flowing variable) and ``denominators`` (the singularity guards) are the
    independent claim checked.  ``notes`` records any reconstruction.
    """

    op_id: str
    field: DiffOperator
    closed: dict[str, Callable[[dict, float], float]]
    denominators: tuple[Callable[[dict, float], float], ...] = ()
    multiplier_closed: Callable[[dict, float], float] = lambda s0, a: 1.0
    multiplier_text: str = "1"
    notes: str = ""

    @functools.cached_property
    def program(self) -> tuple[list[str], list[list[tuple]]]:
        """The coordinates the field reads and, per state slot (those
        coordinates, then mu), its terms as (coefficient, numerator factors,
        denominator factors), each factor an (index, exponent) pair."""
        terms = self.field.terms
        coords = sorted({v for t in terms for v, _ in t.monomial} | {t.derivative for t in terms} - {None})
        index = {v: i for i, v in enumerate(coords)}
        slots: list[list[tuple]] = [[] for _ in range(len(coords) + 1)]
        for t in terms:
            factors = [(index[v], e) for v, e in t.monomial]
            slots[index.get(t.derivative, len(coords))].append((
                float(t.coefficient),
                [(i, e) for i, e in factors if e > 0],
                [(i, -e) for i, e in factors if e < 0],
            ))
        return coords, slots


def _flow_specs() -> dict[str, FlowSpec]:
    cat = catalogue()
    specs = (
        FlowSpec(
            "f11.E_a", cat["f11.E_a"],
            closed={
                "y": lambda s0, a: s0["y"] / (1 - a * s0["y"]),
                "x": lambda s0, a: s0["x"] / (1 - a * s0["y"]),
            },
            denominators=(lambda s0, a: 1 - a * s0["y"],),
        ),
        FlowSpec(
            "f11.E_b", cat["f11.E_b'"],
            closed={
                "z": lambda s0, a: s0["z"] + a,
                "x": lambda s0, a: s0["x"] * (s0["z"] + a) / s0["z"],
            },
            multiplier_closed=lambda s0, a: s0["z"] / (s0["z"] + a),
            multiplier_text="z/(z+alpha)",
            denominators=(lambda s0, a: s0["z"] + a, lambda s0, a: s0["z"]),
            notes=(
                "multiplier rate reconstructed as -mu/z (the printed equation is "
                "typographically broken); the printed closed form z/(z+alpha) "
                "solves the reconstruction"
            ),
        ),
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
            denominators=(
                lambda s0, a: s0["y"] - a,
                lambda s0, a: s0["y"] - a * (1 - s0["x"]),
            ),
        ),
        FlowSpec(
            "f11.E_b'",
            cat["f11.E_b'"] + DiffOperator.term(1, {"z": -1}, None),  # without its -1/z
            closed={
                "z": lambda s0, a: s0["z"] + a,
                "x": lambda s0, a: s0["x"] * (s0["z"] + a) / s0["z"],
            },
            denominators=(lambda s0, a: s0["z"] + a, lambda s0, a: s0["z"]),
        ),
        FlowSpec(
            "f11.E_ab", cat["f11.E_ab"],
            closed={"x": lambda s0, a: s0["x"] + a * s0["y"] * s0["z"]},
        ),
        FlowSpec(
            "psi2.E_a", cat["psi2.E_a"],
            closed={
                "z": lambda s0, a: s0["z"] / (1 - a * s0["z"]),
                "x": lambda s0, a: s0["x"] / (1 - a * s0["z"]),
                "y": lambda s0, a: s0["y"] / (1 - a * s0["z"]),
            },
            denominators=(lambda s0, a: 1 - a * s0["z"],),
        ),
        FlowSpec(
            "psi2.E_b", cat["psi2.E_b"],
            closed={
                "u": lambda s0, a: s0["u"] + a,
                "x": lambda s0, a: s0["x"] * (s0["u"] + a) / s0["u"],
            },
            multiplier_closed=lambda s0, a: s0["u"] / (s0["u"] + a),
            multiplier_text="u/(u+alpha)",
            denominators=(lambda s0, a: s0["u"] + a, lambda s0, a: s0["u"]),
        ),
        FlowSpec(
            "psi2.E_c", cat["psi2.E_c"],
            closed={
                "t": lambda s0, a: s0["t"] + a,
                "y": lambda s0, a: s0["y"] * (s0["t"] + a) / s0["t"],
            },
            multiplier_closed=lambda s0, a: s0["t"] / (s0["t"] + a),
            multiplier_text="t/(t+alpha)",
            denominators=(lambda s0, a: s0["t"] + a, lambda s0, a: s0["t"]),
        ),
        FlowSpec(
            "psi2.E_ab", cat["psi2.E_ab"],
            closed={"x": lambda s0, a: s0["x"] + a * s0["z"] * s0["u"]},
        ),
        FlowSpec(
            "psi2.E_ac", cat["psi2.E_ac"],
            closed={"y": lambda s0, a: s0["y"] + a * s0["z"] * s0["t"]},
        ),
    )
    return {spec.op_id: spec for spec in specs}


_FLOW_SPECS = _flow_specs()
FLOW_IDS = tuple(_FLOW_SPECS)

# The coordinates the catalogued flows read from their start point.
FLOW_COORDINATES = ("x", "y", "z", "u", "t")


def flow_spec(op_id: str) -> FlowSpec:
    try:
        return _FLOW_SPECS[op_id]
    except KeyError:
        raise KeyError(f"no flow catalogued for {op_id!r}") from None


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
    over all grid points.  Raises SingularFlow when any catalogued
    denominator comes within ``margin`` of zero on the grid.  Each rate is
    its terms summed left to right, each term its coefficient times the
    numerator factors divided by the denominator factors.
    """
    s0 = {v: float(as_rational(val)) for v, val in start.items()}
    steps = max(1, int(round(abs(alpha_max) / h)))
    dt = alpha_max / steps
    half = 0.5 * dt
    sixth = dt / 6.0

    coords, slots = spec.program
    mu = len(coords)
    state = [s0[v] for v in coords] + [1.0]
    closed = [(coords.index(v), form) for v, form in spec.closed.items()]

    def rates(st: list[float]) -> list[float]:
        out = []
        for terms in slots:
            total = 0.0
            for c, num, den in terms:
                for i, e in num:
                    c *= st[i] if e == 1 else st[i] ** e
                for i, e in den:
                    c /= st[i] if e == 1 else st[i] ** e
                total += c
            out.append(total)
        out[mu] *= st[mu]
        return out

    def check_grid_point(alpha: float) -> float:
        for den in spec.denominators:
            if abs(den(s0, alpha)) < margin:
                raise SingularFlow(
                    f"{spec.op_id}: denominator within margin at alpha={alpha}"
                )
        dev = abs(state[mu] - spec.multiplier_closed(s0, alpha))
        for i, form in closed:
            dev = max(dev, abs(state[i] - form(s0, alpha)))
        return dev

    max_dev = check_grid_point(0.0)
    alpha = 0.0
    for _ in range(steps):
        k1 = rates(state)
        k2 = rates([s + half * k for s, k in zip(state, k1)])
        k3 = rates([s + half * k for s, k in zip(state, k2)])
        k4 = rates([s + dt * k for s, k in zip(state, k3)])
        state = [
            s + sixth * (a + 2 * b + 2 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        ]
        alpha += dt
        max_dev = max(max_dev, check_grid_point(alpha))
    return max_dev


def flow_suite(
    start: Mapping[str, object],
    alpha_max: float = 0.1,
    h: float = 1e-3,
    tol: float = 1e-8,
) -> list[dict]:
    """One row per catalogued flow; PASS needs a finite deviation <= tol.

    Raises ValueError when ``start`` lacks a flow coordinate, and
    SingularFlow when a flow meets a vanishing denominator.
    """
    missing = [v for v in FLOW_COORDINATES if v not in start]
    if missing:
        raise ValueError(f"flow start point lacks coordinates {', '.join(missing)}")
    rows = []
    for op_id in FLOW_IDS:
        spec = flow_spec(op_id)
        dev = flow_check(spec, start, alpha_max, h)
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


def commutator_suite(span_check: bool = True, seed: int = 42) -> dict:
    """Pairwise commutators per family, span membership, and algebra laws.

    The span finding is reported, never asserted: whether each commutator
    lands back in the catalogued span is part of the output.
    """
    import random

    cat = catalogue()
    rng = random.Random(seed)
    report = {"families": {}, "antisymmetry_ok": True, "jacobi_ok": True, "bilinearity_ok": True}
    for fam in ("f11", "psi2"):
        ids = family_operator_ids(fam)
        basis = {i: cat[i] for i in ids}
        pair_rows = []
        for i, id1 in enumerate(ids):
            for id2 in ids[i + 1:]:
                c = commutator(basis[id1], basis[id2])
                if commutator(basis[id2], basis[id1]) != -c:
                    report["antisymmetry_ok"] = False
                row = {"pair": f"[{id1}, {id2}]", "result": c.pretty()}
                if span_check:
                    span = express_in_span(c, basis)
                    if span.in_span:
                        row["in_span"] = True
                        row["coefficients"] = {
                            k: str(v) for k, v in span.coefficients.items() if v != 0
                        }
                    else:
                        row["in_span"] = False
                        row["residual"] = span.residual.pretty()
                pair_rows.append(row)
        ops = list(basis.values())
        for ia in range(len(ops)):
            for ib in range(ia + 1, len(ops)):
                for ic in range(ib + 1, len(ops)):
                    a, b, c3 = ops[ia], ops[ib], ops[ic]
                    jac = (
                        commutator(a, commutator(b, c3))
                        + commutator(b, commutator(c3, a))
                        + commutator(c3, commutator(a, b))
                    )
                    if not jac.is_zero():
                        report["jacobi_ok"] = False
        for _ in range(10):
            a, b, c3 = (rng.choice(ops) for _ in range(3))
            lam = Q(rng.randint(-9, 9), rng.randint(1, 9))
            lhs = commutator(a + b.scale(lam), c3)
            rhs = commutator(a, c3) + commutator(b, c3).scale(lam)
            if lhs != rhs:
                report["bilinearity_ok"] = False
        report["families"][fam] = pair_rows
    return report
