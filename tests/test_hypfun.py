import dataclasses
import math
import random
from fractions import Fraction as Q

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersym import hypfun, identities, series
from hypersym.exactnum import DegenerateParameter, factorial, pochhammer
from hypersym.hypfun import (
    NoConvergence,
    Params1F1,
    ParamsPsi2,
    RECURSION_IDS,
    RECURSIONS,
    f11_coeff,
    f11_compose,
    f11_eval_float,
    f11_series,
    psi2_3var_eval_float,
    psi2_3var_series,
    psi2_compose,
    psi2_eval_float,
    psi2_series,
    recursion_suite,
    verify_recursion,
)
from hypersym.liealg import ACTION_RULES, ActionRule, catalogue
from hypersym.series import CapMismatch, MultiSeries, exp_series, pow_rational

POINTS = [
    Params1F1(Q(1, 2), Q(4, 3)),
    Params1F1(Q(3, 2), Q(7, 3)),
    Params1F1(Q(2, 5), Q(9, 4)),
]

# Top parameters include non-positive integers, where the series terminate;
# bottom parameters avoid them, as the parameter classes require.
TOP = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
    st.integers(min_value=-5, max_value=0).map(Q),
)
BOTTOM = st.fractions(min_value=-6, max_value=6, max_denominator=9).filter(
    lambda q: not (q.denominator == 1 and q <= 0)
)
ORDER = st.integers(min_value=0, max_value=6)
KERNEL = settings(max_examples=40, deadline=None)


def f11_formula(p, s):
    return pochhammer(p.a, s) / (factorial(s) * pochhammer(p.b, s))


def psi2_formula(p, m, n, l=0):
    return pochhammer(p.a, l + m + n) / (
        factorial(l) * factorial(m) * factorial(n)
        * pochhammer(p.b, m) * pochhammer(p.c, n)
    )


class TestTermRatioKernel:
    """Every coefficient the running products build equals the closed
    Pochhammer form at every index of the grid."""

    @KERNEL
    @given(TOP, BOTTOM, st.integers(min_value=0, max_value=12))
    def test_f11_series(self, a, b, order):
        p = Params1F1(a, b)
        s = f11_series(p, order)
        assert s.cap_map() == {"x": order}
        for k in range(order + 1):
            assert s.coefficient({"x": k}) == f11_formula(p, k)

    @KERNEL
    @given(TOP, BOTTOM, BOTTOM, ORDER, ORDER)
    def test_psi2_series(self, a, b, c, mx, my):
        p = ParamsPsi2(a, b, c)
        s = psi2_series(p, mx, my)
        for m in range(mx + 1):
            for n in range(my + 1):
                assert s.coefficient({"x": m, "y": n}) == psi2_formula(p, m, n)

    @KERNEL
    @given(TOP, BOTTOM, BOTTOM, ORDER, ORDER, ORDER)
    def test_psi2_3var_series(self, a, b, c, mx, my, mz):
        p = ParamsPsi2(a, b, c)
        s = psi2_3var_series(p, mx, my, mz)
        for l in range(mz + 1):
            for m in range(mx + 1):
                for n in range(my + 1):
                    got = s.coefficient({"x": m, "y": n, "z": l})
                    assert got == psi2_formula(p, m, n, l)

    def test_terminating_series(self):
        # a = -3: every coefficient past total degree 3 vanishes
        p = ParamsPsi2(-3, Q(4, 3), Q(5, 7))
        s = psi2_3var_series(p, 4, 4, 4)
        assert max(sum(e) for e in s.terms) == 3
        for (m, n, l), coeff in s.terms.items():
            assert coeff == psi2_formula(p, m, n, l)
        assert f11_series(Params1F1(0, Q(1, 2)), 5) == MultiSeries.constant(1, {"x": 5})


class TestParams:
    def test_rejects_bad_b(self):
        with pytest.raises(DegenerateParameter):
            Params1F1(1, 0)
        with pytest.raises(DegenerateParameter):
            Params1F1(1, -3)

    def test_rejects_bad_c(self):
        with pytest.raises(DegenerateParameter):
            ParamsPsi2(1, 2, -1)

    def test_noninteger_negative_ok(self):
        Params1F1(Q(-7, 2), Q(-1, 3))  # denominators guard integers only


# A parameter whose float fits, or one whose float overflows (the last rounds
# up to 2**1024).
FLOAT_PARAM = st.one_of(
    BOTTOM,
    st.sampled_from([Q(10**400), Q(-(10**400), 3), Q(10**309, 7), Q(2**1024 - 2**970)]),
)


def ref_float_params(params):
    """``float_params`` as it read the fields by name."""
    floats = {}
    for f in dataclasses.fields(params):
        try:
            floats[f.name] = float(getattr(params, f.name))
        except OverflowError:
            raise ValueError(f"parameter {f.name} is too large for a float") from None
    return floats


class TestFloatParams:
    @KERNEL
    @given(a=FLOAT_PARAM, b=FLOAT_PARAM, c=FLOAT_PARAM, psi2=st.booleans())
    def test_same_floats_and_first_overflow_as_by_field_names(self, a, b, c, psi2):
        p = ParamsPsi2(a, b, c) if psi2 else Params1F1(a, b)
        try:
            want = ref_float_params(p)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                hypfun.float_params(p)
        else:
            assert vars(hypfun.float_params(p)) == want

    def test_the_first_parameter_too_large_is_named(self):
        big = Q(10**400)
        for params, named in [(ParamsPsi2(big, big, big), "a"), (ParamsPsi2(1, big, big), "b"),
                              (ParamsPsi2(1, 2, big), "c"), (Params1F1(1, big), "b")]:
            with pytest.raises(ValueError, match=f"^parameter {named} is too large for a float$"):
                hypfun.float_params(params)


class TestCoefficients:
    def test_s0_is_one(self):
        assert f11_coeff(Params1F1(Q(9, 7), Q(5, 3)), 0) == 1

    def test_direct_value(self):
        assert f11_coeff(Params1F1(1, 2), 2) == Q(2, 12) == Q(1, 6)

    def test_equal_params_exponential(self):
        p = Params1F1(1, 1)
        for s in range(10):
            assert f11_coeff(p, s) == Q(1, math.factorial(s))


class TestSeries:
    def test_order_zero(self):
        assert f11_series(Params1F1(Q(1, 2), Q(4, 3)), 0) == MultiSeries.constant(1, {"x": 0})

    def test_exponential_truncation(self):
        assert f11_series(Params1F1(1, 1), 3) == MultiSeries(
            {"x": 3}, {(0,): 1, (1,): 1, (2,): Q(1, 2), (3,): Q(1, 6)}
        )

    def test_shifted_factorials(self):
        assert f11_series(Params1F1(1, 2), 3) == MultiSeries(
            {"x": 3}, {(0,): 1, (1,): Q(1, 2), (2,): Q(1, 6), (3,): Q(1, 24)}
        )


# Coordinates of the exact evaluation: zero, negative and non-integer included.
COORD = st.one_of(st.just(Q(0)), st.fractions(min_value=-3, max_value=3, max_denominator=7))


class TestFamilyValue:
    """``Family.value`` sums the series without building it; the value of
    the built series (``_horn_series(...).evaluate``) is the oracle."""

    @staticmethod
    def oracle(family, p, point, order):
        fam = hypfun.FAMILIES[family]
        s = hypfun._horn_series(family, p, (order,) * len(fam.coords))
        return s.evaluate(dict(zip(fam.coords, point)))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(tuple(hypfun.FAMILIES)), TOP, BOTTOM, BOTTOM,
           st.integers(min_value=0, max_value=9), st.lists(COORD, min_size=3, max_size=3))
    def test_matches_the_series_value(self, family, a, b, c, order, coords):
        fam = hypfun.FAMILIES[family]
        p = fam.narrow(ParamsPsi2(a, b, c))
        point = coords[:len(fam.coords)]
        assert fam.value(p, point, order) == self.oracle(family, p, point, order)

    @pytest.mark.parametrize("family", tuple(hypfun.FAMILIES))
    @pytest.mark.parametrize("a, b, c", [
        (Q(0), Q(4, 3), Q(5, 7)),
        (Q(-3), Q(-7, 2), Q(5, 7)),
        (Q(-4), Q(1, 2), Q(-2, 3)),
        (Q(1, 2), Q(-5, 3), Q(-1, 4)),
    ], ids=["a-zero", "a-minus-3", "a-minus-4", "a-half"])
    @pytest.mark.parametrize("order", [0, 1, 2, 9])
    def test_terminating_and_negative_bottoms(self, family, a, b, c, order):
        fam = hypfun.FAMILIES[family]
        p = fam.narrow(ParamsPsi2(a, b, c))
        for point in ([Q(0)] * 3, [Q(-1, 2), Q(3), Q(-2, 5)], [Q(5, 3), Q(0), Q(-1)]):
            point = point[:len(fam.coords)]
            assert fam.value(p, point, order) == self.oracle(family, p, point, order)

    @pytest.mark.parametrize("family", tuple(hypfun.FAMILIES))
    def test_negative_order_raises(self, family):
        fam = hypfun.FAMILIES[family]
        with pytest.raises(ValueError, match="^negative series order$"):
            fam.value(fam.narrow(ParamsPsi2(1, 1, 1)), [Q(1)] * len(fam.coords), -1)


class TestExactEval:
    def test_at_zero(self):
        for p in POINTS:
            assert f11_series(p, 17).evaluate({"x": Q(0)}) == 1

    def test_partial_exponential(self):
        assert f11_series(Params1F1(1, 1), 5).evaluate({"x": Q(1)}) == Q(163, 60)

    def test_cancellation_reduces(self):
        assert f11_series(Params1F1(2, 2), 5).evaluate({"x": Q(1)}) == Q(163, 60)


class TestFloatEval:
    def test_exponential(self):
        value, used = f11_eval_float(Params1F1(1, 1), 1.0, 1e-14)
        assert abs(value - math.e) < 1e-13
        assert used > 5

    def test_at_zero(self):
        value, _ = f11_eval_float(POINTS[0], 0.0, 1e-12)
        assert value == 1.0

    def test_against_exact_oracle(self):
        p = Params1F1(Q(1, 2), Q(4, 3))
        value, _ = f11_eval_float(p, 0.25, 1e-14)
        exact = float(f11_series(p, 30).evaluate({"x": Q(1, 4)}))
        assert abs(value - exact) <= 1e-12 * abs(exact)

    def test_no_convergence_cap(self):
        with pytest.raises(NoConvergence):
            f11_eval_float(Params1F1(1, 1), 4000.0, 1e-12, term_cap=40)

    def test_infinite_partial_sum_raises(self):
        # past x ~ 710 the partial sum overflows, and an infinite bound lets
        # every term pass the smallness test
        text = "partial sum not finite after 721 terms at x=720.0"
        with pytest.raises(NoConvergence, match=f"^{text}$"):
            f11_eval_float(Params1F1(Q(1, 2), Q(4, 3)), 720.0)
        with series._shared_work():
            for _ in range(2):
                with pytest.raises(NoConvergence, match=f"^{text}$"):
                    f11_eval_float(Params1F1(Q(1, 2), Q(4, 3)), 720.0)

    @pytest.mark.parametrize("rel_tol", [math.inf, math.nan, 0.0, -1e-12])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, rel_tol):
        # an infinite tolerance would stop e^1.5 at 3.625 after three terms
        with pytest.raises(ValueError, match="rel_tol must be finite and positive"):
            f11_eval_float(Params1F1(1, 1), 1.5, rel_tol)

    def test_random_agreement(self):
        rng = random.Random(42)
        for _ in range(100):
            p = Params1F1(
                Q(rng.randint(-8, 8), rng.randint(1, 5)),
                Q(rng.randint(1, 12), rng.randint(1, 5)) + Q(1, 7),
            )
            x = Q(rng.randint(-32, 32), 16)
            value, _ = f11_eval_float(p, float(x), 1e-14)
            exact = float(f11_series(p, 40).evaluate({"x": x}))
            assert abs(value - exact) <= 1e-12 * max(abs(exact), 1.0)


class TestPsi2:
    def test_trivial_caps(self):
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        assert psi2_series(p, 0, 0) == MultiSeries.constant(1, {"x": 0, "y": 0})

    def test_y_cap_zero_reduces_to_f11(self):
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        s = psi2_series(p, 6, 0)
        f = f11_series(Params1F1(p.a, p.b), 6).extend({"y": 0})
        assert s == f

    def test_unit_parameters(self):
        s = psi2_series(ParamsPsi2(1, 1, 1), 1, 1)
        assert s == MultiSeries(
            {"x": 1, "y": 1}, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2}
        )

    def test_iterated_sum_consistency(self):
        # double series == sum over n of (a)_n y^n/(n!(c)_n) * series(a+n; b)
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        mx = my = 8
        direct = psi2_series(p, mx, my)
        caps = {"x": mx, "y": my}
        assembled = MultiSeries.zero(caps)
        for n in range(my + 1):
            outer = pochhammer(p.a, n) / (math.factorial(n) * pochhammer(p.c, n))
            inner = f11_series(Params1F1(p.a + n, p.b), mx).extend({"y": my})
            assembled = assembled + inner.shift("y", n).scale(outer)
        assert direct == assembled

    def test_symmetry_swap(self):
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        q = ParamsPsi2(p.a, p.c, p.b)
        s = psi2_series(p, 5, 4)
        # q's first index (bottom q.b = c, cap 4) runs on y, its second (q.c = b, cap 5) on x
        swapped = series.horn_series(("x", "y"), (5, 4), [(q.a, [(q.c,), (q.b,)], Q(1), ())])
        assert s == swapped

    def test_float_partial_sums_match_exact(self):
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        x, y = 0.5, -0.5
        exact = float(psi2_series(p, 12, 12).evaluate({"x": Q(1, 2), "y": Q(-1, 2)}))
        approx = psi2_eval_float(p, x, y, rel_tol=1e-14)
        assert abs(approx - exact) <= 1e-10 * max(abs(exact), 1.0)


class TestPsi2ThreeArg:
    def test_all_caps_zero(self):
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        assert psi2_3var_series(p, 0, 0, 0) == MultiSeries.constant(
            1, {"x": 0, "y": 0, "z": 0}
        )

    def test_z_cap_zero_slice(self):
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        s3 = psi2_3var_series(p, 4, 3, 0)
        s2 = psi2_series(p, 4, 3).extend({"z": 0})
        assert s3 == s2

    def test_unit_parameters(self):
        s = psi2_3var_series(ParamsPsi2(1, 1, 1), 1, 0, 1)
        assert s.coefficient({"x": 0, "y": 0, "z": 0}) == 1
        assert s.coefficient({"x": 1, "y": 0, "z": 0}) == 1
        assert s.coefficient({"x": 0, "y": 0, "z": 1}) == 1
        assert s.coefficient({"x": 1, "y": 0, "z": 1}) == 2

    def test_coupling_coefficient(self):
        # coefficient of x y z is (a)_3 / (b c)
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        s = psi2_3var_series(p, 1, 1, 1)
        assert s.coefficient({"x": 1, "y": 1, "z": 1}) == pochhammer(p.a, 3) / (p.b * p.c)


class TestCompose:
    def test_identity_argument(self):
        p = Params1F1(Q(1, 2), Q(4, 3))
        x = MultiSeries.monomial(1, {"x": 1}, {"x": 8})
        assert f11_compose(p, x) == f11_series(p, 8)

    def test_rejects_constant_term(self):
        p = Params1F1(Q(1, 2), Q(4, 3))
        bad = MultiSeries.constant(1, {"x": 3})
        with pytest.raises(ValueError):
            f11_compose(p, bad)

    @staticmethod
    def _arguments():
        caps = {"chi": 3, "x": 4}
        x = MultiSeries.variable("x", caps)
        chi = MultiSeries.variable("chi", caps)
        return caps, x + chi.scale(Q(2, 3)), (x * chi + chi).scale(Q(-5, 4))

    @pytest.mark.parametrize("a", [Q(1, 2), Q(-7, 3), Q(-2)])
    def test_f11_compose_matches_naive(self, a):
        p = Params1F1(a, Q(4, 3))
        caps, u, _ = self._arguments()
        naive = MultiSeries.zero(caps)
        for s in range(sum(caps.values()) + 1):
            naive = naive + u.pow_int(s).scale(f11_formula(p, s))
        assert f11_compose(p, u) == naive

    @pytest.mark.parametrize("a", [Q(1, 2), Q(-7, 3), Q(-2)])
    def test_psi2_compose_matches_naive(self, a):
        p = ParamsPsi2(a, Q(4, 3), Q(5, 7))
        caps, u, v = self._arguments()
        bound = sum(caps.values())
        naive = MultiSeries.zero(caps)
        for m in range(bound + 1):
            for n in range(bound + 1):
                term = u.pow_int(m) * v.pow_int(n)
                naive = naive + term.scale(psi2_formula(p, m, n))
        assert psi2_compose(p, u, v) == naive

    def test_psi2_compose_rejects_differing_caps(self):
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        caps, u, v = self._arguments()
        with pytest.raises(CapMismatch):
            psi2_compose(p, u, v.truncate({"chi": 2, "x": 4}))
        with pytest.raises(CapMismatch):
            psi2_compose(p, u, MultiSeries.variable("x", {"x": 4}))

    @pytest.mark.parametrize("gamma", [Q(-1, 2), Q(-2), Q(0), Q(3)])
    def test_pow_rational_matches_naive(self, gamma):
        caps, u, v = self._arguments()
        one = MultiSeries.constant(1, caps)
        for w in (u, v):
            naive = MultiSeries.zero(caps)
            binom = Q(1)
            for k in range(sum(caps.values()) + 1):
                naive = naive + w.pow_int(k).scale(binom)
                binom = binom * (gamma - k) / (k + 1)
            assert pow_rational(one + w, gamma) == naive

    def test_exp_series_matches_naive(self):
        caps, u, v = self._arguments()
        for w in (u, v):
            naive = MultiSeries.zero(caps)
            for k in range(sum(caps.values()) + 1):
                naive = naive + w.pow_int(k).scale(Q(1, factorial(k)))
            assert exp_series(w) == naive


# (a, b, c, x, y, z) -> repr of psi2_eval_float(x, y) and of
# psi2_3var_eval_float(x, y, z), as the separate outer loops of the two
# evaluators gave them: the shared outer loop must reproduce every bit.
PINNED_FLOATS = [
    ((Q(1, 2), Q(4, 3), Q(5, 7), 0.3, -0.2, 0.1),
     "0.9479636944990231", "0.9899414601260349"),
    ((Q(-7, 3), Q(4, 3), Q(5, 7), -1.5, 0.75, -0.4),
     "-0.7560179993848964", "0.33777446455669924"),
    ((Q(3, 2), Q(7, 3), Q(1, 3), 1.25, -1.75, 0.35),
     "-0.8361624266377579", "0.7803062789221944"),
    ((Q(-2), Q(9, 4), Q(2, 5), -0.6, -1.1, -0.25),
     "10.709945054945056", "12.780778388278389"),
    ((Q(5, 4), Q(1, 2), Q(11, 6), -2.0, 1.5, 0.45),
     "-0.5512525873928106", "0.42049013216146436"),
    ((Q(-1, 5), Q(3, 2), Q(3, 4), 0.9, 2.0, -0.5),
     "-1.6648647178261229", "0.0706054635684359"),
]


class TestFloatPinned:
    @pytest.mark.parametrize("point, psi2_repr, psi2x3_repr", PINNED_FLOATS)
    def test_bit_identical(self, point, psi2_repr, psi2x3_repr):
        a, b, c, x, y, z = point
        p = ParamsPsi2(a, b, c)
        assert repr(psi2_eval_float(p, x, y)) == psi2_repr
        assert repr(psi2_3var_eval_float(p, x, y, z)) == psi2x3_repr

    def test_no_convergence_names_the_outer_argument(self):
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        with pytest.raises(NoConvergence, match="outer terms at y=300"):
            psi2_eval_float(p, 0.1, 300.0, term_cap=40)

    def test_no_convergence_names_the_third_argument(self):
        # At outer index l the inner sums may take term_cap + l terms, so the
        # slowly converging sum over z runs out first, not an inner one.
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        with pytest.raises(NoConvergence, match=r"outer terms at z=0\.9$"):
            psi2_3var_eval_float(p, 0.1, 0.1, 0.9, term_cap=20)


class TestTripleSumSharesInnerSums:
    """The triple sum sums each inner 1F1(a + k; b; x) once, k = l + n."""

    def test_no_shifted_parameter_summed_twice(self, monkeypatch):
        seen = []

        inner_sum = hypfun._f11_sum

        def counting(a, b, x, rel_tol, term_cap, dens):
            seen.append((a, term_cap))
            return inner_sum(a, b, x, rel_tol, term_cap, dens)

        monkeypatch.setattr(hypfun, "_f11_sum", counting)
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        psi2_3var_eval_float(p, 1.25, -1.75, 0.35, term_cap=500)
        # a = 1/2 + k is exact in binary, so the shifts are the integers k
        shifts = [a - float(p.a) for a, _cap in seen]
        assert len(set(shifts)) == len(shifts) > 10
        # Each inner sum has the cap the middle loop gives it on its diagonal.
        assert all(cap == 500 + k for k, (_a, cap) in zip(shifts, seen))

    def test_inner_failure_names_x(self):
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        with pytest.raises(NoConvergence, match=r"^no convergence in 40 terms at x=300\.0$"):
            psi2_3var_eval_float(p, 300.0, 0.1, 0.1, term_cap=40)


class TestFloatArgumentChecks:
    """A float sum's arguments are checked before any term: a coordinate that
    is not finite and a term cap below 1 are usage errors, not sums that
    fail to converge."""

    P = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
    EVALUATORS = {
        "f11": lambda p, point, **kw: f11_eval_float(Params1F1(p.a, p.b), *point, **kw),
        "psi2": lambda p, point, **kw: psi2_eval_float(p, *point, **kw),
        "psi2x3": lambda p, point, **kw: psi2_3var_eval_float(p, *point, **kw),
    }

    def _no_terms(self, monkeypatch):
        def summed(*args):
            raise AssertionError("a term was summed")

        monkeypatch.setattr(hypfun, "_f11_sum", summed)

    @pytest.mark.parametrize("family, point, named", [
        ("f11", (math.inf,), "x"),
        ("f11", (math.nan,), "x"),
        ("psi2", (0.5, math.inf), "y"),
        ("psi2", (-math.inf, 0.5), "x"),
        ("psi2x3", (0.5, 0.5, math.nan), "z"),
        ("psi2x3", (0.5, math.nan, 0.25), "y"),
    ])
    def test_non_finite_coordinate(self, monkeypatch, family, point, named):
        self._no_terms(monkeypatch)
        bad = next(v for v in point if not math.isfinite(v))
        with pytest.raises(ValueError, match=rf"^coordinate {named} must be finite, got {bad!r}$"):
            self.EVALUATORS[family](self.P, point)

    @pytest.mark.parametrize("family, point", [
        ("f11", (0.5,)), ("psi2", (0.5, 0.5)), ("psi2x3", (0.5, 0.5, 0.25)),
    ])
    def test_term_cap_below_one(self, monkeypatch, family, point):
        self._no_terms(monkeypatch)
        for cap in (0, -3):
            with pytest.raises(ValueError, match=rf"^term_cap must be at least 1, got {cap}$"):
                self.EVALUATORS[family](self.P, point, term_cap=cap)
        for cap in (2.0, Q(5)):
            with pytest.raises(TypeError):
                self.EVALUATORS[family](self.P, point, term_cap=cap)

    @pytest.mark.parametrize("family, point", [("psi2", (0.5, 0.5)), ("psi2x3", (0.5, 0.5, 0.25))])
    def test_nested_sum_checks_its_tolerance_before_any_term(self, monkeypatch, family, point):
        self._no_terms(monkeypatch)
        with pytest.raises(ValueError, match="rel_tol must be finite and positive"):
            self.EVALUATORS[family](self.P, point, rel_tol=math.nan)

    # Each pair breaks two checks; the first in the entry's order raises.
    @pytest.mark.parametrize("params, point, kw, message", [
        (ParamsPsi2(Q(10**400), Q(4, 3), Q(5, 7)), (math.inf, 0.5, 0.25), {},
         "coordinate x must be finite, got inf"),
        (ParamsPsi2(Q(1, 2), Q(-1) + Q(1, 10**400), Q(5, 7)), (0.5, 0.5, 0.25), {"term_cap": 0},
         "term_cap must be at least 1, got 0"),
        (ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7)), (math.nan, 0.5, 0.25), {"rel_tol": math.nan},
         "rel_tol must be finite and positive, got nan"),
    ])
    def test_two_broken_checks_raise_the_same_first_error(self, monkeypatch, params, point, kw, message):
        self._no_terms(monkeypatch)
        for family, evaluate in self.EVALUATORS.items():
            with pytest.raises(ValueError) as exc:
                evaluate(params, point[: len(hypfun.FAMILIES[family].coords)], **kw)
            assert str(exc.value) == message, family

    def test_checks_come_before_the_memo(self):
        with series._shared_work():
            f11_eval_float(Params1F1(Q(1, 2), Q(4, 3)), 0.5)
            psi2_eval_float(self.P, 0.5, 0.5)
            with pytest.raises(ValueError, match="term_cap must be at least 1"):
                f11_eval_float(Params1F1(Q(1, 2), Q(4, 3)), 0.5, term_cap=0)
            with pytest.raises(ValueError, match="term_cap must be at least 1"):
                psi2_eval_float(self.P, 0.5, 0.5, term_cap=0)

    def test_cap_one_stops_after_one_term(self):
        # cap 1 is the smallest cap and always fails: the rule tests two terms
        with pytest.raises(NoConvergence, match=r"^no convergence in 1 terms at x=0\.0$"):
            f11_eval_float(Params1F1(Q(1, 2), Q(4, 3)), 0.0, term_cap=1)


class TestSharedFloatSums:
    """Inside ``series._shared_work`` a converged sum is summed once and read
    back bit for bit; outside it nothing is kept."""

    P = Params1F1(Q(1, 2), Q(4, 3))

    def _count(self, monkeypatch, name):
        calls = []
        inner = getattr(hypfun, name)

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(hypfun, name, counting)
        return calls

    def test_f11_sum_is_summed_once_and_read_back(self, monkeypatch):
        outside = f11_eval_float(self.P, 3.5, 1e-12)
        calls = self._count(monkeypatch, "_f11_sum")
        with series._shared_work():
            first = f11_eval_float(self.P, 3.5, 1e-12)
            # the loop reads float(a) and float(b) only
            again = f11_eval_float(Params1F1(Q(2, 4), Q(8, 6)), 3.5, 1e-12, term_cap=500)
        assert first == again == outside
        assert len(calls) == 1

    def test_sums_are_kept_per_argument_and_tolerance(self):
        calls = [(self.P, 3.5, 1e-12), (self.P, 3.5, 1e-6), (self.P, -3.5, 1e-12),
                 (Params1F1(Q(1, 2), Q(5, 3)), 3.5, 1e-12), (Params1F1(Q(3, 2), Q(4, 3)), 3.5, 1e-12)]
        outside = [f11_eval_float(*c) for c in calls]
        assert len(set(outside)) == len(calls)
        with series._shared_work():
            assert [f11_eval_float(*c) for c in calls + calls] == outside + outside

    def test_cached_sum_under_a_lower_cap_raises_as_the_loop_does(self):
        value, terms = f11_eval_float(self.P, 3.5, 1e-12)
        with pytest.raises(NoConvergence) as loop:
            f11_eval_float(self.P, 3.5, 1e-12, term_cap=terms - 1)
        with series._shared_work():
            assert f11_eval_float(self.P, 3.5, 1e-12) == (value, terms)
            with pytest.raises(NoConvergence) as cached:
                f11_eval_float(self.P, 3.5, 1e-12, term_cap=terms - 1)
            assert f11_eval_float(self.P, 3.5, 1e-12, term_cap=terms) == (value, terms)
        assert str(cached.value) == str(loop.value) == f"no convergence in {terms - 1} terms at x=3.5"

    def test_failed_sum_is_not_kept(self, monkeypatch):
        calls = self._count(monkeypatch, "_f11_sum")
        with series._shared_work():
            with pytest.raises(NoConvergence):
                f11_eval_float(self.P, 3.5, 1e-12, term_cap=5)
            value, terms = f11_eval_float(self.P, 3.5, 1e-12)
        assert len(calls) == 2 and terms > 5

    def test_nothing_is_kept_outside_the_scope(self, monkeypatch):
        calls = self._count(monkeypatch, "_f11_sum")
        f11_eval_float(self.P, 3.5, 1e-12)
        f11_eval_float(self.P, 3.5, 1e-12)
        assert len(calls) == 2
        assert series._MEMO.get() is None

    def test_scope_is_dropped_when_its_block_raises(self):
        with pytest.raises(ZeroDivisionError):
            with series._shared_work():
                f11_eval_float(self.P, 3.5, 1e-12)
                1 / 0
        assert series._MEMO.get() is None

    def test_scopes_nest_and_restore(self):
        with series._shared_work():
            outer = series._MEMO.get()
            f11_eval_float(self.P, 3.5, 1e-12)
            with series._shared_work():
                assert series._MEMO.get() == {}
            assert series._MEMO.get() is outer and len(outer) == 1


def _mp_points(seed, count):
    """Seeded (a, b, c, x, y, z) with |x|, |y| <= 2 and |z| <= 1/2."""
    rng = random.Random(seed)
    for _ in range(count):
        a = Q(rng.randint(-12, 12), rng.randint(1, 4))
        b = Q(rng.randint(1, 16), rng.randint(1, 4)) + Q(1, 7)
        c = Q(rng.randint(1, 16), rng.randint(1, 4)) + Q(1, 11)
        yield a, b, c, rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-0.5, 0.5)


def _close(value, reference, rel=1e-11):
    reference = float(reference)
    return abs(value - reference) <= rel * max(abs(reference), 1.0)


def _mp(q):
    """A rational as an mpf at the working precision (mpf takes no Fraction)."""
    return mpmath.mpf(q.numerator) / q.denominator


def _mp_psi2(a, b, c, x, y):
    with mpmath.workdps(30):
        return mpmath.hyper2d({"m+n": [_mp(a)]}, {"m": [_mp(b)], "n": [_mp(c)]}, x, y)


def _mp_psi2_3var(a, b, c, x, y, z):
    """Sum over l of (a)_l z^l / l! Psi2(a + l) = (1-z)^(-a) Psi2(x/(1-z), y/(1-z))."""
    with mpmath.workdps(30):
        w = 1 - mpmath.mpf(z)
        return w ** (-_mp(a)) * _mp_psi2(a, b, c, x / w, y / w)


class TestFloatAgainstMpmath:
    """The float evaluators against mpmath's independent summation."""

    def test_f11(self):
        for a, b, _c, x, _y, _z in _mp_points(11, 40):
            value, _ = f11_eval_float(Params1F1(a, b), x, 1e-14)
            with mpmath.workdps(30):
                ref = mpmath.hyp1f1(_mp(a), _mp(b), x)
            assert _close(value, ref), (a, b, x, value, ref)

    def test_psi2(self):
        for a, b, c, x, y, _z in _mp_points(12, 25):
            value = psi2_eval_float(ParamsPsi2(a, b, c), x, y, 1e-14)
            assert _close(value, _mp_psi2(a, b, c, x, y)), (a, b, c, x, y)

    def test_psi2_3var(self):
        for a, b, c, x, y, z in _mp_points(13, 12):
            value = psi2_3var_eval_float(ParamsPsi2(a, b, c), x, y, z, 1e-14)
            ref = _mp_psi2_3var(a, b, c, x, y, z)
            assert _close(value, ref, 1e-10), (a, b, c, x, y, z)

    @pytest.mark.parametrize("x, y, z", [(0.1, 0.1, 0.9), (0.5, -0.5, 0.8)])
    def test_psi2_3var_near_the_radius(self, x, y, z):
        # |z| < 1 bounds the triple series; near it the sum over l is long.
        a, b, c = Q(1, 2), Q(4, 3), Q(5, 7)
        value = psi2_3var_eval_float(ParamsPsi2(a, b, c), x, y, z, 1e-14)
        assert _close(value, _mp_psi2_3var(a, b, c, x, y, z), 1e-12), value

    @pytest.mark.xfail(strict=True, reason="cancellation in the triple sum at (2, -2, -0.5)")
    def test_psi2_3var_cancellation(self):
        a, b, c = Q(1, 2), Q(4, 3), Q(5, 7)
        value = psi2_3var_eval_float(ParamsPsi2(a, b, c), 2.0, -2.0, -0.5, 1e-10)
        assert _close(value, _mp_psi2_3var(a, b, c, 2.0, -2.0, -0.5), 1e-10), value

    @pytest.mark.xfail(strict=True, reason="cancellation in the alternating sum at x = -40")
    def test_f11_large_negative_argument(self):
        a, b = Q(1, 2), Q(4, 3)
        value, _ = f11_eval_float(Params1F1(a, b), -40.0, 1e-14)
        with mpmath.workdps(30):
            ref = mpmath.hyp1f1(_mp(a), _mp(b), -40)
        assert _close(value, ref)

    # The two tail defects below stop a sum after two small terms, with no
    # bound on the tail, where the term ratio tends to rho: about
    # term * rho / (1 - rho) is left out.
    @pytest.mark.xfail(strict=True, reason="the triple sum drops its tail at z = 0.9")
    def test_psi2_3var_tail_near_the_radius(self):
        # at x = y = 0 the triple sum is (1 - z)^(-a); rho = z
        value = psi2_3var_eval_float(ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7)), 0.0, 0.0, 0.9, 1e-10)
        assert _close(value, 0.1 ** -0.5, 1e-10), value

    @pytest.mark.xfail(strict=True, reason="the chi-sum drops its tail at chi = 0.5")
    def test_chi_sum_tail(self):
        # the left side is within 4e-11 of mpmath's 1.9298888333590252; rho = chi
        row = identities.verify_numeric(identities.get_record("I-F11-LOWER-A"),
                                        identities.CORRECTED,
                                        ParamsPsi2(Q(3, 2), Q(7, 3), Q(11, 6)), 0.5, 1e-8)
        assert row["status"] == "verified", row


class TestRecursions:
    @pytest.mark.parametrize("rel_id", RECURSION_IDS)
    @pytest.mark.parametrize("p", POINTS, ids=lambda p: f"a={p.a},b={p.b}")
    def test_residual_vanishes(self, rel_id, p):
        residual = verify_recursion(rel_id, p, 12)
        assert residual.is_zero(), residual.render()

    def test_exponential_case(self):
        assert verify_recursion("D-raise", Params1F1(1, 1), 8).is_zero()

    def test_lower_a_spec_point(self):
        assert verify_recursion("lower-a", Params1F1(Q(3, 2), Q(4, 3)), 10).is_zero()

    def test_random_parameter_sweep(self):
        rng = random.Random(42)
        checked = 0
        while checked < 20:
            a = Q(rng.randint(-10, 10), rng.randint(1, 6))
            b = Q(rng.randint(1, 15), rng.randint(1, 6)) + Q(1, 11)
            p = Params1F1(a, b)
            for rel_id in RECURSION_IDS:
                try:
                    residual = verify_recursion(rel_id, p, 12)
                except DegenerateParameter:
                    continue  # shifted b hit a pole; case aborted by design
                assert residual.is_zero(), (rel_id, a, b)
            checked += 1

    def test_degenerate_shift_aborts(self):
        # b = 1 makes the b-1 shift invalid: whole case aborts
        with pytest.raises(DegenerateParameter):
            verify_recursion("Theta-lower-b", Params1F1(Q(1, 2), 1), 8)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            verify_recursion("unknown", POINTS[0], 8)

    def test_suite_narrows_three_parameter_points(self):
        points = [ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7)), ParamsPsi2(Q(3, 2), Q(7, 3), Q(11, 6))]
        rows = recursion_suite(points, 6)
        assert rows == recursion_suite([Params1F1(p.a, p.b) for p in points], 6)
        assert len(rows) == 2 * len(RECURSION_IDS)
        assert all(row["status"] == "PASS" for row in rows)

    def test_suite_rejects_a_point_it_cannot_narrow(self):
        with pytest.raises(TypeError):
            recursion_suite([(Q(1, 2), Q(4, 3))], 6)

    def test_relations_name_a_catalogued_f11_operator(self):
        operators = catalogue()
        for op_id in RECURSIONS.values():
            assert op_id in operators and op_id.startswith("f11."), op_id
            assert op_id in ACTION_RULES, op_id


# The recursion relations as they were stated before they were derived from
# the operator actions: each left side written out in F and F' = dF/dx, with
# F cut to the caps of F'.  Kept as an independent oracle for the derived
# residuals.
REFERENCE_LHS = {
    "D-raise": lambda f, d, p: d,
    "Dminus1-raise-b": lambda f, d, p: d - f,
    "Theta-raise-a": lambda f, d, p: d.shift("x") + f.scale(p.a),
    "Theta-lower-b": lambda f, d, p: d.shift("x") + f.scale(p.b - 1),
    "lower-a": lambda f, d, p: d.shift("x") + f.scale(p.b - p.a) - f.shift("x"),
}


def reference_recursion(rel_id, p, order):
    """The residual lhs - c(p) F(p + shift) from the written-out left side."""
    rule = ACTION_RULES[RECURSIONS[rel_id]]
    f = f11_series(p, order)
    d = f.derivative("x")
    low = d.cap_map()
    rhs = f11_series(rule.shifted(p), order).truncate(low).scale(rule.coefficient(p))
    return REFERENCE_LHS[rel_id](f.truncate(low), d, p) - rhs


def _outcome(compute, *args):
    """(render, caps) of a residual, or the type and text of its error."""
    try:
        residual = compute(*args)
    except (DegenerateParameter, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return residual.render(), residual.cap_map()


class TestRecursionsAgainstWrittenLeftSides:
    """A relation's residual, derived from its operator's action, matches the
    one built from its written-out left side: render, caps and error text."""

    ORDERS = (1, 2, 3, 6, 12)

    @staticmethod
    def grid():
        rng = random.Random(2024)
        points = [Params1F1(0, 1), Params1F1(-3, 1), Params1F1(-2, Q(5, 2)),
                  Params1F1(Q(1, 2), 1), Params1F1(Q(1, 2), 2), Params1F1(Q(3, 2), Q(4, 3))]
        while len(points) < 24:
            a = Q(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 5)))
            b = Q(rng.randint(1, 15), rng.choice((1, 1, 2, 3, 4)))
            points.append(Params1F1(a, b))
        return points

    def test_residuals_match(self):
        errors = 0
        for p in self.grid():
            for rel_id in RECURSION_IDS:
                for order in self.ORDERS:
                    derived = _outcome(verify_recursion, rel_id, p, order)
                    assert derived == _outcome(reference_recursion, rel_id, p, order), (rel_id, p, order)
                    errors += derived[0] == "DegenerateParameter"
        assert errors > 0  # the grid reaches the poles of the shifted b

    @pytest.mark.parametrize("rel_id", RECURSION_IDS)
    def test_nonzero_residuals_match(self, monkeypatch, rel_id):
        op_id = RECURSIONS[rel_id]
        rule = ACTION_RULES[op_id]
        monkeypatch.setitem(ACTION_RULES, op_id,
                            ActionRule(rule.shift, lambda p: rule.coefficient(p) + 1))
        p = Params1F1(Q(1, 2), Q(4, 3))
        for order in self.ORDERS:
            derived = _outcome(verify_recursion, rel_id, p, order)
            assert derived == _outcome(reference_recursion, rel_id, p, order)
            assert derived[0] != "0", (rel_id, order)
