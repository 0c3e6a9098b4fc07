import ast
import builtins
import inspect
import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from hypersym.exactnum import DegenerateParameter
from hypersym.hypfun import Params1F1, ParamsPsi2
from hypersym import cli, hypfun, liealg, series
from hypersym.liealg import (
    ACTION_RULES,
    ActionRule,
    DiffOperator,
    FLOW_IDS,
    MAX_FLOW_STEPS,
    PrefactorMismatch,
    Realized,
    SingularFlow,
    SpanBasis,
    action_suite,
    build_catalogue,
    catalogue,
    commutator,
    express_in_span,
    family_operator_ids,
    flow_check,
    flow_spec,
    flow_steps,
    flow_suite,
    realize,
    verify_action,
)
from hypersym.series import MultiSeries, UnknownVariable

P_F11 = [
    Params1F1(Q(1, 2), Q(4, 3)),
    Params1F1(Q(3, 2), Q(7, 3)),
    Params1F1(Q(2, 5), Q(9, 4)),
]
P_PSI2 = [
    ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7)),
    ParamsPsi2(Q(3, 2), Q(7, 3), Q(11, 6)),
    ParamsPsi2(Q(2, 5), Q(9, 4), Q(5, 7)),
]
START = {"x": 1, "y": 2, "z": 3, "u": Q(1, 2), "t": Q(1, 3)}


def interpreted_flow_check(spec, start, alpha_max, h, margin=1e-6):
    """Term-by-term RK4 with the closed forms called at each grid point, the
    oracle of the compiled ``FlowSpec.rk4_run``.

    Each rate is its terms summed left to right from 0.0, each term its
    coefficient times the numerator factors divided by the denominator
    factors.  Each grid point calls the denominators, the multiplier and
    the closed forms themselves, and folds the deviations with ``max``.  A
    run whose final state is not finite gives ``inf``.
    """
    s0 = {v: float(liealg.as_rational(val)) for v, val in start.items()}
    steps = max(1, int(round(abs(alpha_max) / h)))
    dt = alpha_max / steps
    half = 0.5 * dt
    sixth = dt / 6.0

    terms = spec.field.terms
    coords = sorted({v for t in terms for v, _ in t.monomial} | {t.derivative for t in terms} - {None})
    index = {v: i for i, v in enumerate(coords)}
    slots = [[] for _ in range(len(coords) + 1)]
    for t in terms:
        factors = [(index[v], e) for v, e in t.monomial]
        slots[index.get(t.derivative, len(coords))].append((
            float(t.coefficient),
            [(i, e) for i, e in factors if e > 0],
            [(i, -e) for i, e in factors if e < 0],
        ))
    mu = len(coords)
    state = [s0[v] for v in coords] + [1.0]
    closed = [(coords.index(v), form) for v, form in spec.closed.items()]

    def rates(st):
        out = []
        for slot in slots:
            total = 0.0
            for c, num, den in slot:
                for i, e in num:
                    c *= st[i] if e == 1 else st[i] ** e
                for i, e in den:
                    c /= st[i] if e == 1 else st[i] ** e
                total += c
            out.append(total)
        out[mu] *= st[mu]
        return out

    def check_grid_point(alpha):
        for den in spec.denominators:
            if abs(den(s0, alpha)) < margin:
                raise SingularFlow(f"{spec.op_id}: denominator within margin at alpha={alpha}")
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
    # an overflowed run's deviations are NaN, which max drops
    return max_dev if all(map(math.isfinite, state)) else math.inf


def outcome(check, *args):
    """The repr of ``check``'s deviation, or its exception type and text
    (SingularFlow, or ZeroDivisionError from an RK4 stage on a pole)."""
    try:
        return float, repr(check(*args))
    except (ArithmeticError, KeyError) as exc:
        return type(exc), str(exc)


def random_flow_cases(seed, count):
    """Seeded ``(start, alpha, h, margin)`` cases for every flow: exact start
    coordinates, some 0 and some near 1e160, alpha of either sign and often
    on a pole of one of the flows, 1 to 30 steps and a margin of 0 or 1e-6."""
    rng = random.Random(seed)

    def coord():
        k = rng.random()
        if k < 0.15:
            return 0
        if k < 0.25:
            return rng.choice([-1, 1]) * rng.randint(1, 9) * 10**159
        return Q(rng.randint(-30, 30), rng.randint(1, 6))

    for _ in range(count):
        start = {v: coord() for v in "xyzut"}
        poles = [float(-start[v]) for v in "zut"] + [float(start["y"])]
        poles += [1 / float(start[v]) for v in "yz" if start[v]]
        alpha = rng.choice([0.1, -0.1, 0.5, -2.0, rng.choice(poles), rng.choice(poles)])
        steps = rng.randint(1, 30)
        h = abs(alpha) / steps if alpha else 1e-3
        yield start, alpha, h, rng.choice([0.0, 1e-6])



def ref_catalogue():
    """The operators as written out one by one before the operator table:
    the oracle of its builders, term by term."""
    cat = {}

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


# The action rules as written out one by one before the operator table.
REF_ACTION_RULES = {
    "f11.E_a": ActionRule((1, 0), lambda p: p.a),
    "f11.E_a'": ActionRule((-1, 0), lambda p: p.b - p.a),
    "f11.E_b": ActionRule((0, 1), lambda p: (p.a - p.b) / p.b),
    "f11.E_b'": ActionRule((0, -1), lambda p: p.b - 1),
    "f11.E_ab": ActionRule((1, 1), lambda p: p.a / p.b),
    "f11.I_a": ActionRule((0, 0), lambda p: p.a),
    "f11.I_b": ActionRule((0, 0), lambda p: p.b),
    "f11.I": ActionRule((0, 0), lambda p: Q(1)),
    "psi2.E_a": ActionRule((1, 0, 0), lambda p: p.a),
    "psi2.E_b": ActionRule((0, -1, 0), lambda p: p.b - 1),
    "psi2.E_c": ActionRule((0, 0, -1), lambda p: p.c - 1),
    "psi2.E_ab": ActionRule((1, 1, 0), lambda p: p.a / p.b),
    "psi2.E_ac": ActionRule((1, 0, 1), lambda p: p.a / p.c),
    "psi2.I_a": ActionRule((0, 0, 0), lambda p: p.a),
    "psi2.I_b": ActionRule((0, 0, 0), lambda p: p.b),
    "psi2.I_c": ActionRule((0, 0, 0), lambda p: p.c),
    "psi2.I": ActionRule((0, 0, 0), lambda p: Q(1)),
}


def ref_flow_specs():
    """The ten flows as written out one by one before the shape builders of
    the operator table: the oracle those builders must reproduce, closed
    form by closed form."""
    cat = ref_catalogue()
    specs = (
        liealg.FlowSpec(
            "f11.E_a", cat["f11.E_a"],
            closed={
                "y": lambda s0, a: s0["y"] / (1 - a * s0["y"]),
                "x": lambda s0, a: s0["x"] / (1 - a * s0["y"]),
            },
            denominators=(lambda s0, a: 1 - a * s0["y"],),
        ),
        liealg.FlowSpec(
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
        liealg.FlowSpec(
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
        liealg.FlowSpec(
            "f11.E_b'",
            cat["f11.E_b'"] + DiffOperator.term(1, {"z": -1}, None),  # without its -1/z
            closed={
                "z": lambda s0, a: s0["z"] + a,
                "x": lambda s0, a: s0["x"] * (s0["z"] + a) / s0["z"],
            },
            denominators=(lambda s0, a: s0["z"] + a, lambda s0, a: s0["z"]),
        ),
        liealg.FlowSpec(
            "f11.E_ab", cat["f11.E_ab"],
            closed={"x": lambda s0, a: s0["x"] + a * s0["y"] * s0["z"]},
        ),
        liealg.FlowSpec(
            "psi2.E_a", cat["psi2.E_a"],
            closed={
                "z": lambda s0, a: s0["z"] / (1 - a * s0["z"]),
                "x": lambda s0, a: s0["x"] / (1 - a * s0["z"]),
                "y": lambda s0, a: s0["y"] / (1 - a * s0["z"]),
            },
            denominators=(lambda s0, a: 1 - a * s0["z"],),
        ),
        liealg.FlowSpec(
            "psi2.E_b", cat["psi2.E_b"],
            closed={
                "u": lambda s0, a: s0["u"] + a,
                "x": lambda s0, a: s0["x"] * (s0["u"] + a) / s0["u"],
            },
            multiplier_closed=lambda s0, a: s0["u"] / (s0["u"] + a),
            multiplier_text="u/(u+alpha)",
            denominators=(lambda s0, a: s0["u"] + a, lambda s0, a: s0["u"]),
        ),
        liealg.FlowSpec(
            "psi2.E_c", cat["psi2.E_c"],
            closed={
                "t": lambda s0, a: s0["t"] + a,
                "y": lambda s0, a: s0["y"] * (s0["t"] + a) / s0["t"],
            },
            multiplier_closed=lambda s0, a: s0["t"] / (s0["t"] + a),
            multiplier_text="t/(t+alpha)",
            denominators=(lambda s0, a: s0["t"] + a, lambda s0, a: s0["t"]),
        ),
        liealg.FlowSpec(
            "psi2.E_ab", cat["psi2.E_ab"],
            closed={"x": lambda s0, a: s0["x"] + a * s0["z"] * s0["u"]},
        ),
        liealg.FlowSpec(
            "psi2.E_ac", cat["psi2.E_ac"],
            closed={"y": lambda s0, a: s0["y"] + a * s0["z"] * s0["t"]},
        ),
    )
    return {spec.op_id: spec for spec in specs}


CAT = build_catalogue()


class TestCatalogue:
    def test_eleven_distinct_operator_names(self):
        names = {key.split(".", 1)[1] for key in CAT}
        assert len(names) == 11

    def test_family_split(self):
        assert len(family_operator_ids("f11")) == 8
        assert len(family_operator_ids("psi2")) == 9

    def test_shift_operator_is_single_term(self):
        terms = CAT["f11.E_ab"].terms
        assert len(terms) == 1
        assert terms[0].coefficient == 1
        assert dict(terms[0].monomial) == {"y": 1, "z": 1}
        assert terms[0].derivative == "x"

    def test_identity_operator(self):
        terms = CAT["psi2.I"].terms
        assert len(terms) == 1
        assert terms[0].monomial == ()
        assert terms[0].derivative is None
        assert terms[0].coefficient == 1

    def test_built_once(self, monkeypatch):
        cat = catalogue()
        assert catalogue() is cat
        assert dict(cat) == build_catalogue()
        with pytest.raises(TypeError):
            cat["f11.I"] = DiffOperator()

        def rebuild():
            raise AssertionError("catalogue rebuilt")

        monkeypatch.setattr(liealg, "build_catalogue", rebuild)
        monkeypatch.setattr(liealg, "_flow_specs", rebuild)
        rows = action_suite(P_PSI2[:1], 4)
        assert rows and all(row["status"] == "PASS" for row in rows)
        assert family_operator_ids("psi2")
        assert flow_spec(FLOW_IDS[0]) is flow_spec(FLOW_IDS[0])

    def test_lower_b_distributed_form(self):
        # 1/z distributed over (x d/dx + z d/dz - 1)
        terms = {(t.monomial, t.derivative): t.coefficient for t in CAT["f11.E_b'"].terms}
        assert terms == {
            ((("x", 1), ("z", -1)), "x"): 1,
            ((), "z"): 1,
            ((("z", -1),), None): -1,
        }

    def test_pretty_is_deterministic(self):
        assert CAT["f11.E_b'"].pretty() == "-z^-1 + x*z^-1*d/dx + d/dz"


class TestOperatorExponents:
    """Monomial exponents of an operator term are integers, taken through
    ``operator.index`` as series caps and exponents are."""

    @pytest.mark.parametrize("bad", [1.5, 0.5, 2.0, Q(1, 2)])
    def test_non_integral_exponent_raises(self, bad):
        # int() truncated these: {"y": 1.5} printed as DiffOperator(y)
        with pytest.raises(TypeError):
            DiffOperator.term(1, {"y": bad}, None)

    def test_integral_exponents_are_kept_and_zero_dropped(self):
        class Two:
            def __index__(self):
                return 2

        op = DiffOperator.term(1, {"y": Two(), "x": 0, "z": -1}, "x")
        assert op.terms[0].monomial == (("y", 2), ("z", -1))
        assert repr(DiffOperator.term(1, {"y": 1, "x": 0}, None)) == "DiffOperator(y)"


class TestApply:
    def test_maintenance_eigenvalue(self):
        p = P_PSI2[0]
        g = realize("psi2", p, 4)
        assert CAT["psi2.I_a"].apply(g) == Realized(g.body.scale(p.a), g.prefactor)
        assert CAT["psi2.I_b"].apply(g) == Realized(g.body.scale(p.b), g.prefactor)
        assert CAT["psi2.I_c"].apply(g) == Realized(g.body.scale(p.c), g.prefactor)

    def test_shift_action_at_reduced_cap(self):
        # raising both parameters: result trusted one order below the input
        p = P_F11[0]
        g = realize("f11", p, 6)
        out = CAT["f11.E_ab"].apply(g)
        assert out.body.cap_map() == {"x": 5}
        shifted = realize("f11", p.shifted(1, 1), 6)
        expected = shifted.body.scale(p.a / p.b).truncate({"x": 5})
        assert out == Realized(expected, shifted.prefactor)

    def test_zero_operator(self):
        g = realize("f11", P_F11[0], 4)
        assert DiffOperator().apply(g) == Realized(MultiSeries({"x": 4}), {})

    def test_linearity(self):
        p = P_F11[0]
        op = CAT["f11.E_a"]
        f = realize("f11", p, 6)
        g = Realized(f.body.scale(Q(3, 7)), f.prefactor)
        lhs = op.apply(Realized(f.body + g.body, f.prefactor))
        op_f, op_g = op.apply(f), op.apply(g)
        assert lhs.prefactor == op_f.prefactor == op_g.prefactor
        assert lhs.body == op_f.body + op_g.body

    def test_unknown_variable_rejected(self):
        body = MultiSeries.constant(1, {"x": 3})
        f = Realized(body, {"y": Q(1, 2)})  # no u anywhere
        with pytest.raises(UnknownVariable):
            CAT["psi2.E_b"].apply(f)


class TestPrefactor:
    """The prefactor rule of ``DiffOperator.apply`` on a body in x times a
    prefactor in y or z."""

    def body(self, terms=None):
        return MultiSeries({"x": 3}, terms or {(0,): 1})

    def test_multiply_exponent_bookkeeping(self):
        p = Realized(self.body(), {"y": Q(1, 2)})
        q = DiffOperator.term(1, {"y": -1}, None).apply(p)
        assert q.prefactor == {"y": Q(-1, 2)}
        assert q.body == p.body

    def test_multiply_inverse_pair(self):
        p = Realized(self.body(), {"z": Q(4, 3)})
        up, down = (DiffOperator.term(1, {"z": k}, None) for k in (1, -1))
        assert down.apply(up.apply(p)) == p

    def test_derivative_pure_monomial(self):
        a = Q(1, 2)
        p = Realized(self.body(), {"y": a})
        d = DiffOperator.term(1, {}, "y").apply(p)
        assert d.prefactor == {"y": a - 1}
        assert d.body == self.body().scale(a)

    def test_derivative_body_only(self):
        p = Realized(self.body({(2,): 1}), {"y": Q(1, 2)})
        d = DiffOperator.term(1, {}, "x").apply(p)
        assert d.prefactor == {"y": Q(1, 2)}
        assert d.body == MultiSeries({"x": 2}, {(1,): 2})

    def test_body_monomial_shifts_the_body(self):
        # x d/dx x^2 = 2 x^2, at the cap the derivative leaves
        p = Realized(self.body({(2,): 1, (3,): 1}), {"y": Q(1, 2)})
        d = DiffOperator.term(1, {"x": 1}, "x").apply(p)
        assert d.prefactor == {"y": Q(1, 2)}
        assert d.body == MultiSeries({"x": 2}, {(2,): 2})

    def test_zero_exponent_is_kept(self):
        p = Realized(self.body(), {"y": Q(1)})
        d_y = DiffOperator.term(1, {}, "y")
        d = d_y.apply(p)
        assert d.prefactor == {"y": 0}
        assert d.body == self.body()
        assert DiffOperator.term(1, {"y": -1}, None).apply(d).prefactor == {"y": -1}
        # y^0 is kept for the sum of two terms that both leave it
        both = (d_y + DiffOperator.term(1, {"y": -1}, None)).apply(p)
        assert both == Realized(self.body().scale(2), {"y": 0})

    def test_vanishing_action_is_zero_at_the_input_caps(self):
        # d/dy of y^0 vanishes, so no term is left to carry a prefactor
        p = Realized(self.body(), {"y": Q(0), "z": Q(4, 3)})
        assert DiffOperator.term(1, {}, "y").apply(p) == Realized(MultiSeries({"x": 3}), {})

    def test_vanishing_term_takes_no_part_in_the_check(self):
        # d/dx of a constant body vanishes under any prefactor, but its cap
        # still bounds the result: x^3 of d/dx is unknown
        p = Realized(self.body(), {"y": Q(1, 2)})
        out = (DiffOperator.term(1, {}, "x") + DiffOperator.term(1, {"y": -1}, None)).apply(p)
        assert out == Realized(self.body().truncate({"x": 2}), {"y": Q(-1, 2)})

    def test_vanishing_terms_alone_give_zero_at_their_caps(self):
        # x d/dx on a body cut at x <= 1: d/dx leaves the constant at x <= 0,
        # and x times it overflows; the x coefficient is unknown, not zero
        p = Realized(MultiSeries({"x": 1}, {(0,): 1, (1,): 1}), {"y": Q(1, 2)})
        out = DiffOperator.term(1, {"x": 1}, "x").apply(p)
        assert out == Realized(MultiSeries({"x": 0}), {})

    def test_mismatched_terms_raise_in_either_order(self):
        # d/dy - (1/2) y^-1 cancels on y^(1/2), yet each of its terms
        # carries y^(-1/2) while d/dx carries y^(1/2)
        p = Realized(self.body({(0,): 1, (1,): 1}), {"y": Q(1, 2)})
        patterns = [(((), "y"), Q(1)), (((("y", -1),), None), Q(-1, 2)), (((), "x"), Q(1))]
        for order in itertools.permutations(patterns):
            with pytest.raises(PrefactorMismatch):
                DiffOperator(dict(order)).apply(p)

    def test_errors_keep_their_order(self):
        # a shared variable before an unknown one, that before a mismatch
        mismatched = DiffOperator.term(1, {}, "y") + DiffOperator.term(1, {}, "x")
        unknown = mismatched + DiffOperator.term(1, {"u": 1}, None)
        p = Realized(self.body({(0,): 1, (1,): 1}), {"y": Q(1, 2)})
        with pytest.raises(PrefactorMismatch):
            mismatched.apply(p)
        with pytest.raises(UnknownVariable):
            unknown.apply(p)
        with pytest.raises(ValueError, match="both the body and the prefactor"):
            unknown.apply(Realized(p.body, {"y": Q(1, 2), "x": Q(1)}))

    def test_shared_variable_raises(self):
        # z both in the body and in the prefactor: no term is applied
        p = Realized(MultiSeries({"z": 2}, {(0,): 1, (1,): 1}), {"z": Q(4, 3)})
        for op in (DiffOperator.term(1, {}, "z"), DiffOperator.scalar(1)):
            with pytest.raises(ValueError, match="both the body and the prefactor"):
                op.apply(p)


def term_derivative(s, v):
    """d/dv of a series on its ``terms`` view, the cap of v one lower."""
    if v not in s.variables:
        raise UnknownVariable(v)
    i = s.variables.index(v)
    if not s.caps[i]:
        raise ValueError(f"derivative in {v!r} of a series cut at order 0")
    caps = s.cap_map()
    caps[v] -= 1
    return MultiSeries(caps, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                              for e, c in s.terms.items() if e[i]})


def term_shift(s, v, k):
    """v^k times a series on its ``terms`` view; the constructor drops the
    terms past the caps."""
    if v not in s.variables:
        raise UnknownVariable(v)
    if k < 0:
        raise ValueError("negative monomial shift on a body series")
    i = s.variables.index(v)
    return MultiSeries(s.cap_map(), {e[:i] + (e[i] + k,) + e[i + 1:]: c
                                     for e, c in s.terms.items()})


def five_step_apply(op, f):
    """``DiffOperator.apply`` as five series steps per term (derivative,
    shift, scale, truncation, sum), the oracle of the one-pass apply; the
    derivative and the shift are made on the ``terms`` view, apart from
    the kernel that ``MultiSeries.derivative`` and ``.shift`` call."""
    body_vars = f.body.variables
    shared = f.prefactor.keys() & set(body_vars)
    if shared:
        raise ValueError(f"variables in both the body and the prefactor: {sorted(shared)}")
    low = f.body.caps
    results = []
    for (mono, deriv), coeff in op.pattern_vector().items():
        body, pf = f.body, dict(f.prefactor)
        if deriv in pf:
            coeff = coeff * pf[deriv]
            pf[deriv] -= 1
        elif deriv in body_vars:
            body = term_derivative(body, deriv)
        elif deriv is not None:
            raise UnknownVariable(deriv)
        for v, e in mono:
            if v in pf:
                pf[v] += e
            elif v in body_vars:
                body = term_shift(body, v, e)
            else:
                raise UnknownVariable(v)
        low = tuple(map(min, low, body.caps))
        body = body.scale(coeff)
        if not body.is_zero():
            results.append(Realized(body, pf))
    caps = dict(zip(body_vars, low))
    if not results:
        return Realized(MultiSeries(caps), {})
    prefactor = results[0].prefactor
    total = results[0].body.truncate(caps)
    for r in results[1:]:
        if r.prefactor != prefactor:
            raise PrefactorMismatch(f"{prefactor} vs {r.prefactor}")
        total = total + r.body.truncate(caps)
    return Realized(total, prefactor)


class TestOnePassApply:
    """``DiffOperator.apply``, one ``series.operator_image`` pass per term,
    gives what the five-step body gives: the same stored body, caps and
    prefactor, or the same error."""

    @staticmethod
    def outcome(apply, op, f):
        try:
            r = apply(op, f)
        except (ValueError, KeyError) as exc:
            return type(exc), str(exc)
        return r.body.variables, r.body.caps, r.body.den, r.body.nums, r.prefactor

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 12])
    @pytest.mark.parametrize("kind", ["f11", "psi2"])
    def test_derivative_and_shift_on_members(self, kind, order):
        def outcome(call, *args):
            try:
                s = call(*args)
            except ValueError as exc:
                return type(exc), str(exc)
            return s.variables, s.caps, s.den, s.nums

        for p in P_PSI2:
            body = realize(kind, p, order).body
            for v in body.variables:
                assert outcome(body.derivative, v) == outcome(term_derivative, body, v)
                for k in (0, 1, 2, 5):
                    assert outcome(body.shift, v, k) == outcome(term_shift, body, v, k)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 12])
    @pytest.mark.parametrize("kind", ["f11", "psi2"])
    def test_random_operators_on_members(self, kind, order):
        rng = random.Random(order * 7 + len(kind))
        variables = ("x",) + liealg._PREFACTOR_VARIABLES[kind] + (("y",) if kind == "psi2" else ())
        members = [realize(kind, p, order) for p in P_PSI2]
        for _ in range(150):
            op = random_operator(rng, variables)
            f = rng.choice(members)
            expected = self.outcome(five_step_apply, op, f)
            assert self.outcome(DiffOperator.apply, op, f) == expected

    def test_catalogue_on_members(self):
        outcomes = set()
        for order in (0, 1, 2, 3, 4, 8, 12):
            for op_id, op in CAT.items():
                kind = op_id.partition(".")[0]
                for p in P_PSI2:
                    f = realize(kind, p, order)
                    expected = self.outcome(five_step_apply, op, f)
                    assert self.outcome(DiffOperator.apply, op, f) == expected
                    outcomes.add(expected[0] if isinstance(expected[0], type) else "ok")
        assert outcomes == {ValueError, "ok"}  # order 0 cannot lose an x order

    def test_mismatch_in_either_order_zero_result_and_order_zero(self):
        p = Realized(MultiSeries({"x": 3}, {(0,): 1, (1,): 1}), {"y": Q(1, 2)})
        patterns = [(((), "y"), Q(1)), (((("y", -1),), None), Q(-1, 2)), (((), "x"), Q(1))]
        for order in itertools.permutations(patterns):
            op = DiffOperator(dict(order))
            expected = self.outcome(five_step_apply, op, p)
            assert expected[0] is PrefactorMismatch
            assert self.outcome(DiffOperator.apply, op, p) == expected
        # terms that cancel: a zero body at the least caps, with their prefactor
        op = DiffOperator.term(1, {}, "y") + DiffOperator.term(Q(-1, 2), {"y": -1}, None)
        out = op.apply(p)
        assert out == five_step_apply(op, p) == Realized(MultiSeries({"x": 3}), {"y": Q(-1, 2)})
        # a body without variables: only prefactor terms and scalars apply
        bare = Realized(MultiSeries({}, {(): Q(3, 2)}), {"y": Q(1, 2)})
        for op in (DiffOperator.scalar(2), DiffOperator.term(1, {"y": 1}, "y").scale(Q(1, 3)),
                   DiffOperator.term(1, {}, "x")):
            assert self.outcome(DiffOperator.apply, op, bare) == \
                self.outcome(five_step_apply, op, bare)
        # d/dx on a body cut at x <= 0
        f = realize("f11", P_F11[0], 0)
        with pytest.raises(ValueError, match="cut at order 0"):
            CAT["f11.E_ab"].apply(f)
        assert self.outcome(DiffOperator.apply, CAT["f11.E_ab"], f) == \
            self.outcome(five_step_apply, CAT["f11.E_ab"], f)


class TestActionRows:
    def test_one_rule_per_catalogued_operator(self):
        assert list(ACTION_RULES) == list(CAT)

    def test_psi2_raise_coefficient(self):
        row = verify_action("psi2.E_a", P_PSI2[0], 4)
        assert (row["coefficient"], row["shift"]) == ("1/2", [1, 0, 0])

    def test_f11_lower_b_coefficient(self):
        p = P_F11[0]
        row = verify_action("f11.E_b'", p, 4)
        assert p.b - 1 == Q(1, 3)
        assert (row["coefficient"], row["shift"]) == ("1/3", [0, -1])

    def test_f11_shift_coefficient(self):
        row = verify_action("f11.E_ab", P_F11[0], 4)
        assert (row["coefficient"], row["shift"]) == ("3/8", [1, 1])

    def test_point_narrowed_to_the_op_family(self):
        # an f11 op reads a, b of a three-parameter point
        assert verify_action("f11.E_ab", P_PSI2[0], 4) == verify_action("f11.E_ab", P_F11[0], 4)
        assert realize("f11", P_PSI2[0], 4) == realize("f11", P_F11[0], 4)

    def test_unnarrowable_params_rejected(self):
        with pytest.raises(TypeError):
            verify_action("psi2.E_a", P_F11[0], 4)
        with pytest.raises(TypeError):
            realize("psi2", P_F11[0], 4)

    def test_unknown_op_rejected(self):
        with pytest.raises(KeyError):
            verify_action("psi2.E_z", P_PSI2[0], 4)

    def test_degenerate_shift_rejected(self):
        # lowering b = 1 reaches b = 0
        with pytest.raises(DegenerateParameter):
            verify_action("f11.E_b'", Params1F1(Q(1, 2), 1), 4)


class TestVerifyAction:
    @pytest.mark.parametrize("p", P_F11, ids=lambda p: f"a={p.a}")
    @pytest.mark.parametrize("name", ["E_a", "E_a'", "E_b", "E_b'", "E_ab", "I_a", "I_b", "I"])
    def test_f11_actions(self, name, p):
        row = verify_action(f"f11.{name}", p, 12)
        assert row["status"] == "PASS", row

    @pytest.mark.parametrize("p", P_PSI2, ids=lambda p: f"a={p.a}")
    @pytest.mark.parametrize("name", ["E_a", "E_b", "E_c", "E_ab", "E_ac", "I_a", "I_b", "I_c", "I"])
    def test_psi2_actions(self, name, p):
        row = verify_action(f"psi2.{name}", p, 12)
        assert row["status"] == "PASS", row

    def test_spec_point_e_ac(self):
        row = verify_action("psi2.E_ac", ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7)), 8)
        assert row["status"] == "PASS"

    def test_displayed_e_a_form_fails(self):
        # the variant without the x factor does not reproduce the action;
        # this is why the operative form is installed
        displayed = DiffOperator.term(1, {"y": 1}, "x") + DiffOperator.term(1, {"y": 2}, "y")
        p = P_F11[0]
        g = realize("f11", p, 8)
        out = displayed.apply(g)
        shifted = realize("f11", p.shifted(1, 0), 8)
        caps = {"x": 7}
        assert out.prefactor == shifted.prefactor
        assert out.body.truncate(caps) != shifted.body.scale(p.a).truncate(caps)

    def test_iterated_raising_composes(self):
        p = P_F11[0]
        g = realize("f11", p, 8)
        twice = CAT["f11.E_a"].apply(CAT["f11.E_a"].apply(g))
        target = realize("f11", p.shifted(2, 0), 8)
        caps = twice.body.cap_map()
        assert twice == Realized(target.body.scale(p.a * (p.a + 1)).truncate(caps), target.prefactor)

    def test_action_suite_all_pass(self):
        rows = action_suite(P_PSI2, 8)
        assert len(rows) == (8 + 9) * 3
        assert all(r["status"] == "PASS" for r in rows)

    @pytest.mark.parametrize("p", [Params1F1(Q(0), Q(4, 3)), Params1F1(Q(1), Q(4, 3))],
                             ids=["a=0", "a=1"])
    @pytest.mark.parametrize("name", ["E_a", "E_a'", "E_b", "E_b'", "E_ab", "I_a", "I_b", "I"])
    def test_f11_actions_at_integer_a(self, name, p):
        # y^0 stays in the prefactor, so an operator term in y still finds it
        row = verify_action(f"f11.{name}", p, 6)
        assert row["status"] == "PASS", row

    def test_lowering_a_at_b_one(self):
        # d/dz of z^1 leaves z^0, which the y^-1 z d/dz term then reads
        row = verify_action("f11.E_a'", Params1F1(Q(1, 2), Q(1)), 6)
        assert row["status"] == "PASS", row

    @pytest.mark.parametrize("op_id, p, monomial", [
        ("f11.E_a", P_F11[0], "x^0"),
        ("psi2.E_ab", P_PSI2[0], "x^0*y^0"),
    ])
    def test_wrong_rule_fails_with_the_lowest_difference(self, monkeypatch, op_id, p, monomial):
        # the rule's coefficient plus one: the sides differ by the shifted
        # member itself, first at its constant term 1
        rule = ACTION_RULES[op_id]
        monkeypatch.setitem(ACTION_RULES, op_id,
                            ActionRule(rule.shift, lambda q: rule.coefficient(q) + 1))
        row = verify_action(op_id, p, 6)
        assert row["status"] == "FAIL"
        assert row["witness"] == {"monomial": monomial, "difference": "-1"}

    def test_wrong_shift_fails_with_a_prefactor_mismatch(self, monkeypatch):
        # E_a raises a only; a rule that also raises b names z^(b+1)
        rule = ACTION_RULES["f11.E_a"]
        monkeypatch.setitem(ACTION_RULES, "f11.E_a", ActionRule((1, 1), rule.coefficient))
        row = verify_action("f11.E_a", P_F11[0], 6)
        assert row["status"] == "FAIL"
        assert row["witness"] == {
            "reason": "prefactor mismatch",
            "lhs": "{'y': Fraction(3, 2), 'z': Fraction(4, 3)}",
            "rhs": "{'y': Fraction(3, 2), 'z': Fraction(7, 3)}",
        }


class TestCommutator:
    def test_self_commutator_vanishes(self):
        for op in CAT.values():
            assert commutator(op, op).is_zero()

    def test_scalars_central(self):
        for fam in ("f11", "psi2"):
            identity = CAT[f"{fam}.I"]
            for op_id in family_operator_ids(fam):
                assert commutator(identity, CAT[op_id]).is_zero()

    def test_maintenance_grades_raising(self):
        c = commutator(CAT["psi2.I_a"], CAT["psi2.E_a"])
        assert c == CAT["psi2.E_a"]

    def test_antisymmetry_all_pairs(self):
        for fam in ("f11", "psi2"):
            ids = family_operator_ids(fam)
            for a, b in itertools.combinations(ids, 2):
                assert commutator(CAT[a], CAT[b]) == -commutator(CAT[b], CAT[a])

    def test_bilinearity_randomized(self):
        rng = random.Random(42)
        ops = [CAT[i] for i in family_operator_ids("psi2")]
        for _ in range(25):
            a, b, c = (rng.choice(ops) for _ in range(3))
            lam = Q(rng.randint(-9, 9), rng.randint(1, 9))
            assert commutator(a + b.scale(lam), c) == commutator(a, c) + commutator(b, c).scale(lam)

    def test_jacobi_all_triples(self):
        for fam in ("f11", "psi2"):
            ids = family_operator_ids(fam)
            for a, b, c in itertools.combinations(ids, 3):
                jac = (
                    commutator(CAT[a], commutator(CAT[b], CAT[c]))
                    + commutator(CAT[b], commutator(CAT[c], CAT[a]))
                    + commutator(CAT[c], commutator(CAT[a], CAT[b]))
                )
                assert jac.is_zero(), (a, b, c)

    def test_laurent_coefficient_commutator(self):
        # [d/dz, z^-1] = -z^-2 as multiplication operators
        dz = DiffOperator.term(1, {}, "z")
        inv = DiffOperator.term(1, {"z": -1}, None)
        assert commutator(dz, inv) == DiffOperator.term(-1, {"z": -2}, None)

    @pytest.mark.parametrize("kind, p", [("f11", P_F11[0]), ("psi2", P_PSI2[0])],
                             ids=["f11", "psi2"])
    def test_bracket_is_the_composition_difference(self, kind, p):
        # [A, B] g = A(B g) - B(A g) at the common caps, for every catalogued pair
        g = realize(kind, p, 6)
        pairs = list(itertools.combinations(family_operator_ids(kind), 2))
        assert len(pairs) == {"f11": 28, "psi2": 36}[kind]
        for a, b in pairs:
            bracket = commutator(CAT[a], CAT[b]).apply(g)
            ab, ba = CAT[a].apply(CAT[b].apply(g)), CAT[b].apply(CAT[a].apply(g))
            assert ab.prefactor == ba.prefactor, (a, b)
            composed = ab.body - ba.body
            caps = {v: min(bracket.body.cap_map()[v], composed.cap_map()[v])
                    for v in g.body.variables}
            assert bracket.body.truncate(caps) == composed.truncate(caps), (a, b)
            if not composed.is_zero():
                assert bracket.prefactor == ab.prefactor, (a, b)


class TestSpan:
    def test_basis_member(self):
        basis = {i: CAT[i] for i in family_operator_ids("psi2")}
        res = express_in_span(CAT["psi2.E_a"], SpanBasis(basis))
        assert res.in_span
        assert res.coefficients["psi2.E_a"] == 1
        assert all(v == 0 for k, v in res.coefficients.items() if k != "psi2.E_a")

    def test_zero_operator(self):
        basis = {i: CAT[i] for i in family_operator_ids("f11")}
        res = express_in_span(DiffOperator(), SpanBasis(basis))
        assert res.in_span
        assert all(v == 0 for v in res.coefficients.values())

    def test_graded_commutator_in_span(self):
        basis = {i: CAT[i] for i in family_operator_ids("psi2")}
        c = commutator(CAT["psi2.I_a"], CAT["psi2.E_a"])
        res = express_in_span(c, SpanBasis(basis))
        assert res.in_span
        assert res.coefficients["psi2.E_a"] == 1
        assert sum(1 for v in res.coefficients.values() if v != 0) == 1

    def test_reconstruction_exact(self):
        basis = {i: CAT[i] for i in family_operator_ids("f11")}
        res = express_in_span(commutator(CAT["f11.E_a"], CAT["f11.E_a'"]), SpanBasis(basis))
        assert res.in_span
        total = DiffOperator()
        for name, coeff in res.coefficients.items():
            total = total + basis[name].scale(coeff)
        assert total == commutator(CAT["f11.E_a"], CAT["f11.E_a'"])

    def test_f11_family_does_not_close(self):
        # the lone escaping pair: mixed inverse monomials fall outside the span
        basis = {i: CAT[i] for i in family_operator_ids("f11")}
        res = express_in_span(commutator(CAT["f11.E_a'"], CAT["f11.E_b'"]), SpanBasis(basis))
        assert not res.in_span
        assert res.residual is not None and not res.residual.is_zero()

    def test_psi2_family_closes(self):
        ids = family_operator_ids("psi2")
        basis = SpanBasis({i: CAT[i] for i in ids})
        for a, b in itertools.combinations(ids, 2):
            res = express_in_span(commutator(CAT[a], CAT[b]), basis)
            assert res.in_span, (a, b, res.residual and res.residual.pretty())


def ref_express_in_span(op, basis):
    """``express_in_span`` as it was before ``SpanBasis``: the basis
    eliminated afresh on dense rows over the patterns of the basis and op."""
    names = list(basis)
    patterns = sorted(
        {p for b in basis.values() for p in b.pattern_vector()}
        | set(op.pattern_vector()),
        key=lambda p: (p[1] is not None, p[1] or "", p[0]),
    )
    pindex = {p: i for i, p in enumerate(patterns)}
    ncols = len(patterns)
    pivots = []
    for j, name in enumerate(names):
        v = [Q(0)] * ncols
        for p, c in basis[name].pattern_vector().items():
            v[pindex[p]] = c
        cmb = [Q(0)] * len(names)
        cmb[j] = Q(1)
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
        residual = DiffOperator({patterns[i]: a for i, a in enumerate(target) if a != 0})
        return liealg.SpanResult(False, None, residual)
    return liealg.SpanResult(True, dict(zip(names, coeffs)), None)


def ref_commutator_suite(seed):
    """``commutator_suite`` as it was before the bracket table: every bracket
    of the Jacobi sums computed afresh, and the basis eliminated per pair.
    Brackets go through ``liealg.commutator``, so a patch counts them."""
    bracket = lambda a, b: liealg.commutator(a, b)  # noqa: E731
    rng = random.Random(seed)
    report = {"families": {}, "antisymmetry_ok": True, "jacobi_ok": True, "bilinearity_ok": True}
    for fam in ("f11", "psi2"):
        ids = family_operator_ids(fam)
        basis = {i: CAT[i] for i in ids}
        pair_rows = []
        for id1, id2 in itertools.combinations(ids, 2):
            c = bracket(basis[id1], basis[id2])
            if bracket(basis[id2], basis[id1]) != -c:
                report["antisymmetry_ok"] = False
            row = {"pair": f"[{id1}, {id2}]", "result": c.pretty()}
            span = ref_express_in_span(c, basis)
            row["in_span"] = span.in_span
            if span.in_span:
                row["coefficients"] = {k: str(v) for k, v in span.coefficients.items() if v != 0}
            else:
                row["residual"] = span.residual.pretty()
            pair_rows.append(row)
        ops = list(basis.values())
        for a, b, c3 in itertools.combinations(ops, 3):
            jac = (bracket(a, bracket(b, c3)) + bracket(b, bracket(c3, a))
                   + bracket(c3, bracket(a, b)))
            if not jac.is_zero():
                report["jacobi_ok"] = False
        for _ in range(10):
            a, b, c3 = (rng.choice(ops) for _ in range(3))
            lam = Q(rng.randint(-9, 9), rng.randint(1, 9))
            if bracket(a + b.scale(lam), c3) != bracket(a, c3) + bracket(b, c3).scale(lam):
                report["bilinearity_ok"] = False
        report["families"][fam] = pair_rows
    return report


def random_operator(rng, variables=("x", "y", "z")):
    """A few terms with small Laurent monomials and rational coefficients."""
    op = DiffOperator()
    for _ in range(rng.randint(0, 4)):
        mono = {v: rng.randint(-1, 2) for v in rng.sample(variables, rng.randint(0, 2))}
        deriv = rng.choice((None,) + variables)
        op = op + DiffOperator.term(Q(rng.randint(-5, 5), rng.randint(1, 4)), mono, deriv)
    return op


class TestSpanBasis:
    """One elimination per basis gives every solve the parent's result."""

    @pytest.mark.parametrize("seed", range(10))
    def test_suite_equals_the_parent_suite(self, seed):
        got = liealg.commutator_suite(seed)
        assert got == ref_commutator_suite(seed)
        rows = {r["pair"]: r for r in got["families"]["f11"]}
        escaped = rows["[f11.E_a', f11.E_b']"]
        assert escaped["in_span"] is False and escaped["residual"]

    @pytest.mark.parametrize("fam", ["f11", "psi2"])
    def test_solves_equal_the_parent_solve(self, fam):
        basis = {i: CAT[i] for i in family_operator_ids(fam)}
        prepared = liealg.SpanBasis(basis)
        rng = random.Random(fam)
        ops = list(basis.values())
        for _ in range(60):
            # a combination of the basis, sometimes plus a term outside it
            op = DiffOperator()
            for b in rng.sample(ops, 3):
                op = op + b.scale(Q(rng.randint(-4, 4), rng.randint(1, 3)))
            if rng.random() < 0.5:
                op = op + random_operator(rng)
            expected = ref_express_in_span(op, basis)
            assert express_in_span(op, prepared) == expected

    def test_dependent_and_random_bases_solve_as_before(self):
        # dependent elements leave no pivot row; which coefficients a solve
        # reports then depends on the elimination order, which is kept
        rng = random.Random(7)
        for _ in range(40):
            elements = [random_operator(rng) for _ in range(rng.randint(1, 5))]
            elements.append(elements[0].scale(Q(-2, 3)) + elements[-1])
            basis = {f"b{i}": op for i, op in enumerate(elements)}
            prepared = liealg.SpanBasis(basis)
            for _ in range(5):
                op = random_operator(rng)
                if rng.random() < 0.5:
                    op = op + elements[rng.randrange(len(elements))].scale(3)
                expected = ref_express_in_span(op, basis)
                got = express_in_span(op, prepared)
                assert got == expected
                assert got.in_span or list(got.residual._terms) == list(expected.residual._terms)

    def test_suite_work_counts(self, monkeypatch):
        # 128 brackets in the pair loop, 3 outer ones per Jacobi triple (56 +
        # 84 triples) and 30 for bilinearity; the parent made 6 per triple
        counts = {"commutator": 0, "express_in_span": 0, "elimination": 0}
        for name in ("commutator", "express_in_span"):
            inner = getattr(liealg, name)

            def counting(*args, _inner=inner, _name=name):
                counts[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(liealg, name, counting)
        init = liealg.SpanBasis.__init__

        def eliminating(self, basis):
            counts["elimination"] += 1
            init(self, basis)

        monkeypatch.setattr(liealg.SpanBasis, "__init__", eliminating)
        liealg.commutator_suite()
        assert counts == {"commutator": 608, "express_in_span": 64, "elimination": 2}
        counts["commutator"] = 0
        ref_commutator_suite(42)
        assert counts["commutator"] == 1028


# The three algebra laws the commutator suite checks, by report flag.
LAWS = ("antisymmetry_ok", "jacobi_ok", "bilinearity_ok")


def _bracket_breaking(law):
    """``commutator`` plus the identity operator I, which commutes with every
    operator, on just the calls whose results ``law``'s check reads: the
    first [B, A] of each pair A, B in basis order (antisymmetry), the outer
    bracket [A, [B, C]] of a Jacobi sum, or the bracket of a combination
    A + lam B with a basis element (bilinearity)."""
    position = {}
    for fam in ("f11", "psi2"):
        for k, op_id in enumerate(family_operator_ids(fam)):
            op = catalogue()[op_id]
            assert id(op) not in position  # no operator object in both families
            position[id(op)] = k
    reversed_seen = set()
    identity = DiffOperator.scalar(1)

    def bracket(op1, op2):
        i, j = position.get(id(op1)), position.get(id(op2))
        if law == "antisymmetry_ok":
            pair = (id(op1), id(op2))
            wrong = i is not None and j is not None and i > j and pair not in reversed_seen
            reversed_seen.add(pair)
        elif law == "jacobi_ok":
            wrong = i is not None and j is None
        else:
            wrong = i is None
        result = commutator(op1, op2)
        return result + identity if wrong else result

    return bracket


class TestCommutatorLawsFail:
    """A bracket that breaks one law fails that law's check alone, and the
    commutators scope and ``verify`` report it."""

    @pytest.mark.parametrize("law", LAWS)
    def test_broken_law_fails_alone(self, law, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(liealg, "commutator", _bracket_breaking(law))
        result = liealg.commutator_suite()
        assert {name: result[name] for name in LAWS} == {name: name != law for name in LAWS}

        monkeypatch.setattr(liealg, "commutator", _bracket_breaking(law))
        part, _sections, ok = cli.SCOPE_RUNNERS["commutators"](cli.RunConfig())
        assert ok is False and part["ok"] is False
        assert part["result"][law] is False

        monkeypatch.setattr(liealg, "commutator", _bracket_breaking(law))
        assert cli.main(["verify", "--scope", "commutators", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == ""
        data = json.loads((tmp_path / "verify_commutators.json").read_text())
        assert data["ok"] is False
        assert data["scopes"]["commutators"]["ok"] is False
        assert data["scopes"]["commutators"]["result"][law] is False
        assert '"ok": false' in (tmp_path / "verify_commutators.json").read_text()


class TestSharedRealizations:
    """The action and recursion suites build each realized member once per
    call; their rows are those of separate calls."""

    ORDERS = (1, 2, 6)
    # integer a, then a b = 1 whose lowering raises after earlier rows
    POINTS = P_PSI2 + [ParamsPsi2(0, Q(4, 3), 2), ParamsPsi2(-2, 3, 3)]
    DEGENERATE = ParamsPsi2(Q(1, 2), 1, Q(5, 7))

    @staticmethod
    def outcome(call):
        """The rows, or the error's type and text."""
        try:
            return call()
        except DegenerateParameter as exc:
            return type(exc).__name__, str(exc)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_action_rows_equal_separate_calls(self, order, degenerate):
        points = self.POINTS + [self.DEGENERATE] * degenerate
        expected = self.outcome(lambda: [verify_action(op_id, p, order)
                                         for op_id in ACTION_RULES for p in points])
        assert self.outcome(lambda: action_suite(points, order)) == expected
        assert isinstance(expected, tuple) == degenerate
        assert series._MEMO.get() is None

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_recursion_rows_equal_separate_calls(self, order, degenerate):
        points = self.POINTS + [self.DEGENERATE] * degenerate

        def row(rel_id, p):
            residual = hypfun.verify_recursion(rel_id, p, order)
            return {"relation": rel_id, **hypfun.param_strs(p), "order": order,
                    "status": "PASS" if residual.is_zero() else "FAIL",
                    "residual": residual.render()}

        expected = self.outcome(lambda: [row(rel_id, Params1F1(p.a, p.b))
                                         for p in points for rel_id in hypfun.RECURSION_IDS])
        assert self.outcome(lambda: hypfun.recursion_suite(points, order)) == expected
        assert isinstance(expected, tuple) == degenerate
        assert series._MEMO.get() is None

    def test_kept_bodies_are_unchanged_by_the_rows(self):
        outside = [verify_action(op_id, p, 6) for op_id in ACTION_RULES for p in P_PSI2]
        with series._shared_work():
            inside = [verify_action(op_id, p, 6) for op_id in ACTION_RULES for p in P_PSI2]
            memo = series._MEMO.get()
            kept = {k: (v.den, dict(v.nums)) for k, v in memo.items() if k[0] == "realized"}
            assert kept
            again = [verify_action(op_id, p, 6) for op_id in ACTION_RULES for p in P_PSI2]
            assert {k: (v.den, dict(v.nums))
                    for k, v in memo.items() if k[0] == "realized"} == kept
        assert inside == again == outside
        assert series._MEMO.get() is None

    def test_members_are_kept_per_family_point_and_order(self):
        calls = [(kind, p, order) for order in (4, 6, 4) for p in P_PSI2 + P_F11[:1]
                 for kind in ("f11", "psi2") if kind == "f11" or isinstance(p, ParamsPsi2)]
        outside = [realize(*call) for call in calls]
        with series._shared_work():
            assert [realize(*call) for call in calls] == outside

    def test_action_suite_builds_each_member_once(self, monkeypatch):
        realized, built = [], []
        realize_inner, build_inner = liealg.realize, hypfun._horn_series
        monkeypatch.setattr(liealg, "realize",
                            lambda *args: realized.append(args) or realize_inner(*args))
        monkeypatch.setattr(hypfun, "_horn_series",
                            lambda *args: built.append(args) or build_inner(*args))
        action_suite(P_PSI2, 12)
        assert (len(realized), len(built)) == (102, 33)
        built.clear()
        hypfun.recursion_suite(P_PSI2, 12)
        assert len(built) == 15


def _respec(spec, **changes):
    """A new ``FlowSpec`` with the constructor arguments of ``spec`` but
    ``changes``, so nothing is cached on it yet."""
    names = inspect.signature(liealg.FlowSpec).parameters
    return liealg.FlowSpec(**{name: changes.get(name, getattr(spec, name)) for name in names})


class TestFlows:
    def test_fields_are_the_operators_but_three(self):
        derived = {op_id for op_id in FLOW_IDS if flow_spec(op_id).field == catalogue()[op_id]}
        assert len(derived) == 7
        # the paper's stated systems for these are not their operators' flows
        assert set(FLOW_IDS) - derived == {"f11.E_b", "f11.E_b'", "f11.E_a'"}

    @pytest.mark.parametrize("alpha", [0.1, -0.1])
    def test_all_flows_close_to_closed_forms(self, alpha):
        # A negative alpha takes as many steps of size h as a positive one.
        for op_id in FLOW_IDS:
            dev = flow_check(flow_spec(op_id), START, alpha, 1e-3)
            assert dev <= 1e-8, (op_id, dev)

    def test_quadratic_flow_tight(self):
        dev = flow_check(flow_spec("f11.E_a"), {"x": 1, "y": 1, "z": 3}, 0.1, 1e-3)
        assert dev <= 1e-10

    def test_identity_at_alpha_zero(self):
        dev = flow_check(flow_spec("f11.E_b"), START, 1e-9, 1e-3)
        assert dev <= 1e-12

    def test_constant_rhs_flow(self):
        dev = flow_check(flow_spec("f11.E_ab"), {"x": 1, "y": 2, "z": 3}, 0.1, 1e-3)
        # closed form x + alpha*y*z = 1.6 at alpha = 0.1; RK4 integrates a
        # constant exactly up to roundoff
        assert dev <= 1e-12

    def test_singularity_guard(self):
        with pytest.raises(SingularFlow):
            flow_check(flow_spec("f11.E_a"), {"x": 1, "y": 10, "z": 1}, 0.2, 1e-3)

    def test_multiplier_checked(self):
        spec = flow_spec("psi2.E_b")
        dev = flow_check(spec, START, 0.1, 1e-3)
        assert dev <= 1e-10
        assert spec.multiplier_text == "u/(u+alpha)"

    @pytest.mark.parametrize("alpha", [0.1, -0.1, 0.3, -0.3, 2])
    @pytest.mark.parametrize("h", [1e-3, 0.05, 7e-4, 0.5])
    @pytest.mark.parametrize("start", [START, {**START, "x": Q(-7, 10), "y": Q(5, 2)}],
                             ids=["default-start", "moved-start"])
    def test_compiled_step_is_bit_identical_to_the_interpreter(self, alpha, h, start):
        # alpha = 2 passes poles of some flows: the same deviation or the
        # same SingularFlow text either way
        for op_id in FLOW_IDS:
            spec = flow_spec(op_id)
            assert outcome(flow_check, spec, start, alpha, h) == outcome(
                interpreted_flow_check, spec, start, alpha, h), op_id

    @pytest.mark.parametrize("seed", range(4))
    def test_compiled_step_is_bit_identical_on_random_starts(self, seed):
        # zero coordinates make a rate or a closed form divide by zero,
        # coordinates near 1e160 make a ** overflow, and alpha is often put
        # on a pole; the exception type and text must match too
        seen = set()
        for start, alpha, h, margin in random_flow_cases(seed, 150):
            for op_id in FLOW_IDS:
                spec = flow_spec(op_id)
                compiled = outcome(flow_check, spec, start, alpha, h, margin)
                assert compiled == outcome(interpreted_flow_check, spec, start, alpha, h,
                                           margin), (op_id, start, alpha, h, margin)
                seen.add(compiled[0])
        assert seen == {float, SingularFlow, ZeroDivisionError, OverflowError}

    def test_a_shared_stage_value_on_a_pole_raises_alike(self):
        # z = -h/2 puts the shared stage value of z (rate 1, computed once)
        # on 0 in step one: k2 of x divides by it
        spec = flow_spec("f11.E_b'")
        start = {**START, "z": Q(-1, 2000)}
        compiled = outcome(flow_check, spec, start, 0.1, 1e-3)
        assert compiled == (ZeroDivisionError, "float division by zero")
        assert compiled == outcome(interpreted_flow_check, spec, start, 0.1, 1e-3)

    def test_a_rate_that_can_raise_is_not_computed_ahead(self):
        # z' = 1/y reads no moving slot but divides, so it stays in the step:
        # step one raises x ** 2's OverflowError first, as the interpreter does
        field = DiffOperator.term(1, {"x": 2}, "x") + DiffOperator.term(1, {"y": -1}, "z")
        spec = liealg.FlowSpec("test.raise-order", field, closed={
            "x": lambda s0, a: s0["x"] / (1 - a * s0["x"]),
            "z": lambda s0, a: s0["z"],
        })
        start = {"x": 10**160, "y": 0, "z": 1}
        compiled = outcome(flow_check, spec, start, 0.1, 1e-3, 0.0)
        assert compiled[0] is OverflowError
        assert compiled == outcome(interpreted_flow_check, spec, start, 0.1, 1e-3, 0.0)
        source = liealg._rk4_source(spec)
        assert "k1_2 = 0.0 + 1.0 / s1" in source and "r2" not in source

    def test_an_overflowed_run_reads_inf(self):
        # y z overflows: the state and the closed form x + alpha y z are both
        # inf, so every deviation is NaN, which the fold drops as max does
        spec = flow_spec("f11.E_ab")
        start = {"x": 3, "y": 7 * 10**159, "z": 4 * 10**159, "u": Q(-4, 3), "t": Q(19, 5)}
        assert flow_check(spec, start, 4 / 3, 4 / 33) == math.inf
        assert interpreted_flow_check(spec, start, 4 / 3, 4 / 33) == math.inf

    def test_compiled_step_is_bit_identical_at_a_fine_step(self):
        spec = flow_spec("f11.E_a'")
        assert flow_check(spec, START, 0.1, 1e-5) == interpreted_flow_check(spec, START, 0.1, 1e-5)

    def test_compiled_step_meets_the_same_singularity(self):
        spec = flow_spec("f11.E_a")
        start = {"x": 1, "y": 10, "z": 1}
        with pytest.raises(SingularFlow) as compiled:
            flow_check(spec, start, 0.2, 1e-3)
        with pytest.raises(SingularFlow) as interpreted:
            interpreted_flow_check(spec, start, 0.2, 1e-3)
        assert str(compiled.value) == str(interpreted.value)

    def test_compiled_run_meets_the_same_singularity_at_negative_alpha(self):
        # u + alpha = 0 at alpha = -1/2, reached after 500 steps of -1e-3
        spec = flow_spec("psi2.E_b")
        compiled = outcome(flow_check, spec, START, -1.0, 1e-3)
        assert compiled[0] is SingularFlow and "at alpha=-0.5" in compiled[1]
        assert compiled == outcome(interpreted_flow_check, spec, START, -1.0, 1e-3)

    def test_start_lacking_a_coordinate_fails_alike(self):
        start = {v: val for v, val in START.items() if v != "u"}
        for op_id in ("psi2.E_b", "psi2.E_ab"):
            spec = flow_spec(op_id)
            compiled = outcome(flow_check, spec, start, 0.1, 1e-3)
            assert compiled[0] is KeyError
            assert compiled[0] is outcome(interpreted_flow_check, spec, start, 0.1, 1e-3)[0]

    @pytest.mark.parametrize("form", [
        lambda s0, a: s0["x"] * math.exp(a),
        lambda s0, a: s0["x"] + a ** 2,
        lambda s0, a: s0["x"] if a > 0 else s0["y"],
        lambda s0, a: s0["x"] + Q(1, 2) * a,
        lambda s0, a: s0["x"] if s0["y"] == 0 else a,
        lambda s0, a: s0.get("x"),
        lambda s0, a: Q(1, 2),
    ], ids=["exp", "power", "comparison", "fraction", "equality", "mapping-method",
            "fraction-result"])
    def test_unsupported_closed_form_fails_at_compile_time(self, form):
        spec = _respec(flow_spec("f11.E_ab"), closed={"x": form})
        with pytest.raises(TypeError, match=r"^f11\.E_ab: "):
            spec.rk4_run

    @pytest.mark.parametrize("alpha, h, margin", [
        (0.1, -1e-3, 1e-6),
        (0.1, 0.0, 1e-6),
        (0.1, math.nan, 1e-6),
        (0.1, math.inf, 1e-6),
        (math.inf, 1e-3, 1e-6),
        (math.nan, 1e-3, 1e-6),
        (0.1, 1e-3, math.nan),
        (0.1, 1e-3, -1e-6),
    ], ids=["negative-step", "zero-step", "nan-step", "inf-step", "inf-alpha",
            "nan-alpha", "nan-margin", "negative-margin"])
    def test_bad_arguments_raise_value_error(self, alpha, h, margin):
        with pytest.raises(ValueError, match="^flow "):
            flow_check(flow_spec("f11.E_a"), START, alpha, h, margin)

    @pytest.mark.parametrize("h", [1e-320, 1e-300, 0.1 / (MAX_FLOW_STEPS + 1)])
    def test_too_many_steps_raise_value_error(self, h):
        # 1e-320 makes |alpha| / h overflow to inf
        with pytest.raises(ValueError, match=f"^flow .* at most {MAX_FLOW_STEPS} "):
            flow_check(flow_spec("f11.E_a"), START, 0.1, h)

    def test_step_count_up_to_the_cap(self):
        assert flow_steps(1.0, 1.0 / MAX_FLOW_STEPS) == MAX_FLOW_STEPS
        assert flow_steps(-0.1, 1e-5) == 10**4
        assert flow_steps(0.0, 1e-3) == 1
        with pytest.raises(ValueError):
            flow_steps(1.0, 1.0 / (MAX_FLOW_STEPS + 1))

    def test_suite_rejects_a_negative_step(self):
        with pytest.raises(ValueError, match="flow step must be finite and positive"):
            flow_suite(START, 0.1, -1e-3)

    def test_run_is_compiled_once_per_spec(self, monkeypatch):
        spec = _respec(flow_spec("psi2.E_b"))  # nothing cached yet
        calls = []
        compile_run = liealg._compile_rk4_run
        monkeypatch.setattr(liealg, "_compile_rk4_run",
                            lambda *args: calls.append(args) or compile_run(*args))
        first = flow_check(spec, START, 0.1, 1e-3)
        assert flow_check(spec, START, 0.1, 1e-3) == first
        assert len(calls) == 1
        assert spec.rk4_run is spec.rk4_run
        assert spec.coords == ("u", "x")

    @pytest.mark.parametrize("start, op_id, error", [
        ({**START, "z": Q(-1, 2000)}, "f11.E_b", ZeroDivisionError),
        ({**START, "y": 10**160}, "f11.E_a", OverflowError),
    ], ids=["stage-value-on-pole", "rate-overflows"])
    def test_suite_names_the_flow_whose_run_raises(self, start, op_id, error):
        # flow_check itself raises the arithmetic error, as the interpreter does
        raised = outcome(flow_check, flow_spec(op_id), start, 0.1, 1e-3)
        assert raised[0] is error
        with pytest.raises(SingularFlow) as exc:
            flow_suite(start)
        assert str(exc.value) == f"{op_id}: the RK4 run raised {error.__name__}: {raised[1]}"
        assert type(exc.value.__cause__) is error

    def test_start_too_large_for_a_float_is_a_value_error(self):
        start = {**START, "x": 10**400}
        message = "flow start coordinate x is too large for a float"
        with pytest.raises(ValueError, match=message):
            flow_check(flow_spec("f11.E_a"), start, 0.1, 1e-3)
        with pytest.raises(ValueError, match=message):
            flow_suite(start)

    def test_suite_applies_tolerance(self):
        # a coarse step leaves deviations near 1e-5 on some flows: finite,
        # but above the default tolerance of 1e-8
        rows = flow_suite(START, 0.1, 0.05)
        failed = [r for r in rows if r["status"] == "FAIL"]
        assert failed
        assert all(r["max_deviation"] > 1e-8 for r in failed)
        assert all(r["max_deviation"] <= 1e-8 for r in rows if r["status"] == "PASS")
        loose = flow_suite(START, 0.1, 0.05, tol=1e-3)
        assert all(r["status"] == "PASS" for r in loose)


class TestOperatorTable:
    """The table gives each operator and rule what it had when written out
    in their own tables: the same entries in the same order."""

    # the default points, an integer point, one with a = 0 and b = c = 1,
    # and negative ones
    POINTS = [*P_PSI2, ParamsPsi2(2, 3, 5), ParamsPsi2(0, 1, 1),
              ParamsPsi2(-3, Q(1, 2), Q(7, 3)), ParamsPsi2(Q(-5, 2), Q(-7, 3), Q(-1, 4))]

    def test_each_operator_matches_its_written_out_form(self):
        ref = ref_catalogue()
        assert list(CAT) == list(ref)
        for op_id, op in CAT.items():
            assert list(op.pattern_vector().items()) == list(ref[op_id].pattern_vector().items())

    def test_each_rule_matches_its_written_out_form(self):
        assert list(ACTION_RULES) == list(REF_ACTION_RULES)
        for op_id, rule in ACTION_RULES.items():
            ref = REF_ACTION_RULES[op_id]
            assert rule.shift == ref.shift, op_id
            narrow = hypfun.FAMILIES[op_id.partition(".")[0]].narrow
            for p in map(narrow, self.POINTS):
                assert rule.coefficient(p) == ref.coefficient(p), (op_id, p)

    def test_the_table_is_built_once_per_process(self):
        # what the benchmark's set-up reads (the catalogues, the flows and
        # one more build_catalogue call), with the action rules
        script = "\n".join([
            "import sys",
            "builds = []",
            "sys.setprofile(lambda frame, event, arg: event == 'call'",
            "               and frame.f_code.co_name == '_operator_table' and builds.append(1))",
            "from hypersym import cli, identities, liealg",
            "identities.catalogue(), liealg.catalogue(), liealg.ACTION_RULES, liealg._flow_specs()",
            "liealg.build_catalogue(), liealg.flow_spec(liealg.FLOW_IDS[0])",
            "sys.setprofile(None)",
            "print(len(builds))",
        ])
        r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (r.returncode, r.stdout, r.stderr) == (0, "1\n", "")


class TestFlowShapes:
    """The shape builders give each flow what it had when written out by
    hand: the same generated run, closed forms, guards, field and texts."""

    REF = ref_flow_specs()

    def test_the_same_flows_in_the_same_order(self):
        assert FLOW_IDS == tuple(self.REF)

    @pytest.mark.parametrize("op_id", FLOW_IDS)
    def test_each_flow_matches_its_written_out_form(self, op_id):
        spec, ref = flow_spec(op_id), self.REF[op_id]
        assert liealg._rk4_source(spec) == liealg._rk4_source(ref)
        assert list(spec.closed) == list(ref.closed)
        assert len(spec.denominators) == len(ref.denominators)
        assert (spec.multiplier_text, spec.notes) == (ref.multiplier_text, ref.notes)
        assert spec.field == ref.field


class TestFlowPinned:
    """The ten deviations of ``verify --scope flows`` at the default start
    and alpha 0.1, by repr: at the default step and at the benchmark's 1e-5.
    Recorded from the term-by-term generator the lean one replaced."""

    PINNED = {
        1e-3: {
            "f11.E_a": "6.612488334667432e-13",
            "f11.E_b": "1.1102230246251565e-14",
            "f11.E_a'": "1.1102230246251565e-14",
            "f11.E_b'": "1.1102230246251565e-14",
            "f11.E_ab": "2.220446049250313e-16",
            "psi2.E_a": "1.319300224622566e-11",
            "psi2.E_b": "3.3306690738754696e-16",
            "psi2.E_c": "2.220446049250313e-14",
            "psi2.E_ab": "5.551115123125783e-15",
            "psi2.E_ac": "1.1102230246251565e-14",
        },
        1e-5: {
            "f11.E_a": "6.217248937900877e-14",
            "f11.E_b": "6.612488334667432e-13",
            "f11.E_a'": "1.2287948436551233e-12",
            "f11.E_b'": "6.612488334667432e-13",
            "f11.E_ab": "4.738431869100168e-13",
            "psi2.E_a": "1.509903313490213e-13",
            "psi2.E_b": "8.979483823168266e-13",
            "psi2.E_c": "4.738431869100168e-13",
            "psi2.E_ab": "9.918732502001149e-13",
            "psi2.E_ac": "6.612488334667432e-13",
        },
    }

    @pytest.mark.parametrize("h", [1e-3, 1e-5], ids=["default-step", "fine-step"])
    def test_suite_deviations_are_pinned(self, h):
        rows = flow_suite(START, 0.1, h)
        assert {row["flow"]: repr(row["max_deviation"]) for row in rows} == self.PINNED[h]


# x' = x**2, whose closed form and guards share the product x y, free of
# alpha, and have a guard free of alpha: none of the ten flows has either
ALPHA_FREE = liealg.FlowSpec(
    "test.alpha-free", DiffOperator.term(1, {"x": 2}, "x"),
    closed={"x": lambda s0, a: s0["x"] * s0["y"] / (s0["y"] - a * (s0["x"] * s0["y"]))},
    denominators=(lambda s0, a: s0["x"] * s0["y"], lambda s0, a: 1 - a * s0["x"]))
SOURCES = [*FLOW_IDS, ALPHA_FREE.op_id]


def _spec(op_id):
    return ALPHA_FREE if op_id == ALPHA_FREE.op_id else flow_spec(op_id)


def _flow_source(op_id):
    """The generated run of a flow, parsed: the statements of the alpha = 0
    check, the loop's RK4 step and the loop's grid check."""
    run = ast.parse(liealg._rk4_source(_spec(op_id))).body[0]
    body = [ast.unparse(stmt) for stmt in run.body]
    loop = run.body[-2]
    assert isinstance(loop, ast.For)
    first = body.index("alpha = 0.0") + 1
    at_zero = run.body[first:body.index("max_dev = dev")]
    tick = [ast.unparse(stmt) for stmt in loop.body].index("alpha += dt")
    return run, at_zero, loop.body[:tick], loop.body[tick + 1:-1]


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _stored(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _operations(stmts):
    return [n for stmt in stmts for n in ast.walk(stmt) if isinstance(n, (ast.BinOp, ast.UnaryOp))]


class TestFlowSource:
    """The generated source computes each float of a step and a grid point
    once: read with ``ast``, flow by flow."""

    @pytest.mark.parametrize("op_id", SOURCES)
    def test_no_subexpression_is_evaluated_twice_per_grid_point(self, op_id):
        _, at_zero, _, check = _flow_source(op_id)
        for stmts in (at_zero, check):
            texts = [ast.dump(op) for op in _operations(stmts)]
            assert len(texts) == len(set(texts)), ast.unparse(stmts)

    @pytest.mark.parametrize("op_id", SOURCES)
    def test_the_loop_recomputes_nothing_free_of_alpha(self, op_id):
        # moving values: alpha, the state and the locals assigned from them
        _, _, _, check = _flow_source(op_id)
        moving = {"alpha"} | {f"s{i}" for i in range(len(_spec(op_id).coords) + 1)}
        for stmt in check:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.NamedExpr)) and _names(node.value) & moving:
                    moving |= _stored(node)
        for op in _operations(check):
            assert _names(op) & moving, ast.unparse(op)
        for stmt in check:
            if isinstance(stmt, ast.If) and "margin" in _names(stmt.test):
                assert _names(stmt.test) & moving, ast.unparse(stmt.test)

    def test_subexpressions_are_assigned_where_first_evaluated(self):
        # 1 - alpha * y is a denominator and both closed forms' divisor
        _, at_zero, _, check = _flow_source("f11.E_a")
        for stmts in (at_zero, check):
            source = "\n".join(ast.unparse(stmt) for stmt in stmts)
            assert source.startswith("t0 = alpha * p0\nt1 = 1.0 - t0\nif abs(t1) < margin:")
            assert "t2 = p0 / t1\ne = abs(s1 - t2)" in source
            assert "t3 = p1 / t1\ne = abs(s0 - t3)" in source
        # y is a start value, so the denominator y of f11.E_b is checked at 0 only
        _, at_zero, _, check = _flow_source("f11.E_b")
        checked = [[ast.unparse(s.test) for s in stmts if isinstance(s, ast.If)][:2]
                   for stmts in (at_zero, check)]
        assert checked == [["abs(t0) < margin", "abs(p0) < margin"], ["abs(t0) < margin", "e > dev"]]
        assert [ast.unparse(stmts[0]) for stmts in (at_zero, check)] == ["t0 = p0 + alpha"] * 2

    @pytest.mark.parametrize("op_id", SOURCES)
    def test_the_loop_reads_only_names_bound_before_it_or_earlier_in_the_step(self, op_id):
        # a local read before it is bound would raise UnboundLocalError; the
        # only other names are builtins and those the run is compiled with
        run, _, _, _ = _flow_source(op_id)
        params = {a.arg for a in run.args.args}
        known = set(vars(builtins)) | {"SingularFlow", "op_id", "inf", "nan"}

        def unbound(stmts, bound):
            missing = []
            for stmt in stmts:
                if isinstance(stmt, ast.For):
                    missing += unbound(stmt.body, bound | _stored(stmt.target))
                    continue
                reads = {n.id for n in ast.walk(stmt)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                if isinstance(stmt, ast.AugAssign):
                    reads.add(stmt.target.id)
                missing += sorted(reads - bound - known)
                # only the test of an ``if`` runs every time
                bound = bound | _stored(stmt.test if isinstance(stmt, ast.If) else stmt)
            return missing

        assert unbound(run.body, params) == []

    def test_a_subexpression_free_of_alpha_is_assigned_at_alpha_zero_only(self):
        _, at_zero, _, check = _flow_source(ALPHA_FREE.op_id)
        assert [ast.unparse(at_zero[0]), ast.unparse(at_zero[1].test)] == [
            "t0 = p0 * p1", "abs(t0) < margin"]
        assert "t0" not in set().union(*map(_stored, check))
        assert "e = abs(s0 - t5)" in [ast.unparse(s) for s in check]
        for alpha in (0.1, 2.0):
            assert outcome(flow_check, ALPHA_FREE, START, alpha, 1e-3) == outcome(
                interpreted_flow_check, ALPHA_FREE, START, alpha, 1e-3)

    @pytest.mark.parametrize("op_id", FLOW_IDS)
    def test_no_unit_coefficient_is_multiplied(self, op_id):
        run, _, _, _ = _flow_source(op_id)
        for node in ast.walk(run):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                for side in (node.left, node.right):
                    if isinstance(side, ast.UnaryOp):
                        side = side.operand
                    assert not (isinstance(side, ast.Constant) and side.value == 1), \
                        ast.unparse(node)

    def test_a_slot_with_a_rate_free_of_moving_slots_has_no_k_locals(self):
        with_fixed = set()
        for op_id in FLOW_IDS:
            spec = flow_spec(op_id)
            terms = spec.field.terms
            moving = {t.derivative for t in terms}
            run, _, step, _ = _flow_source(op_id)
            assigned = {n.id for n in ast.walk(run) if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Store)}
            for i, v in enumerate(spec.coords):
                rate = [t for t in terms if t.derivative == v]
                if rate and all(u not in moving and e == 1 for t in rate for u, e in t.monomial):
                    with_fixed.add(op_id)
                    assert not {f"k{k}_{i}" for k in range(1, 5)} & assigned, op_id
                    # one stage value for stages 2 and 3, and one whole step
                    updates = [ast.unparse(s) for s in step if ast.unparse(s).startswith(f"s{i} =")]
                    assert updates == [f"s{i} = s{i} + g{i}"], op_id
        assert with_fixed == {"f11.E_b", "f11.E_a'", "f11.E_b'", "f11.E_ab",
                              "psi2.E_b", "psi2.E_c", "psi2.E_ab", "psi2.E_ac"}

    @pytest.mark.parametrize("op_id", FLOW_IDS)
    def test_the_step_computes_no_value_it_does_not_read(self, op_id):
        # a stage value that no rate reads is not computed
        _, _, step, _ = _flow_source(op_id)
        for n, stmt in enumerate(step):
            target = stmt.targets[0].id
            if not target.startswith("s"):
                assert any(target in _names(later.value) for later in step[n + 1:]), target

    def test_a_fixed_multiplier_deviation_is_found_once(self):
        # mu never moves under f11.E_a: its deviation is the one at alpha = 0
        _, at_zero, _, check = _flow_source("f11.E_a")
        assert ast.unparse(at_zero[3]) == "dev = (dev2 := abs(s2 - 1.0))"
        assert ast.unparse(check[3]) == "dev = dev2"


class TestRarelyRunPaths:
    """Library paths the suites and reports do not reach."""

    def test_unknown_flow_is_a_key_error(self):
        with pytest.raises(KeyError, match="no flow catalogued for 'nope'"):
            flow_spec("nope")

    def test_difference_of_operators(self):
        a = DiffOperator.term(2, {"x": 1}, "x")
        b = DiffOperator.term(1, {"x": 1}, "x") + DiffOperator.scalar(3)
        assert a - b == DiffOperator.term(1, {"x": 1}, "x") + DiffOperator.scalar(-3)
        assert (a - b).pretty() == "-3 + x*d/dx"
        assert (a - a).is_zero()

    def test_an_operator_is_not_equal_to_a_number(self):
        assert (DiffOperator.scalar(3) == 3) is False
        assert (DiffOperator() == 0) is False

    def test_unary_minus_in_a_closed_form_is_traced_and_compiled(self):
        spec = liealg.FlowSpec("test.negated", DiffOperator.term(-1, {}, "x"),
                               closed={"x": lambda s0, a: -(a - s0["x"])})
        source = liealg._rk4_source(spec)
        negations = [node for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)]
        assert negations, source
        start = {"x": Q(3, 2)}
        assert flow_check(spec, start, 0.1, 1e-3) == interpreted_flow_check(spec, start, 0.1, 1e-3)

    def test_a_closed_form_that_branches_names_the_flow(self):
        spec = liealg.FlowSpec("test.branch", DiffOperator.term(-1, {}, "x"),
                               closed={"x": lambda s0, a: s0["x"] - a if a else s0["x"]})
        with pytest.raises(TypeError, match=r"^test\.branch: a closed form may use only .*"
                                            r"no truth value"):
            flow_check(spec, {"x": 1}, 0.1, 1e-3)
