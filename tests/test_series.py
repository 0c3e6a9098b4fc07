import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypersym.exactnum import factorial, pochhammer
from hypersym.hypfun import Params1F1, ParamsPsi2, f11_series, psi2_3var_series, psi2_series
from hypersym import series
from hypersym.liealg import DiffOperator, Realized
from hypersym.series import (
    CapMismatch,
    MultiSeries,
    NonUnitConstantTerm,
    UnknownVariable,
    exp_series,
    _layout,
    horn_compose,
    horn_series,
    horn_value,
    pow_rational,
)


def ms(caps, terms):
    return MultiSeries(caps, {k: Q(v) for k, v in terms.items()})


def random_series(rng, caps, density=0.6):
    names = tuple(sorted(caps))
    terms = {}
    for exps in itertools.product(*(range(caps[v] + 1) for v in names)):
        if rng.random() < density:
            terms[exps] = Q(rng.randint(-9, 9), rng.randint(1, 5))
    return MultiSeries(caps, terms)


class TestAddMul:
    def test_add_cancels(self):
        a = ms({"x": 2}, {(0,): 1, (1,): 1})
        b = ms({"x": 2}, {(0,): 1, (1,): -1})
        assert (a + b) == ms({"x": 2}, {(0,): 2})

    def test_add_identity(self):
        caps = {"x": 3, "chi": 2}
        s = ms(caps, {(0, 1): 1, (1, 0): 1})  # vars sorted: chi, x
        assert s + MultiSeries(caps) == s

    def test_add_rationals(self):
        a = ms({"x": 1}, {(0,): 1, (1,): Q(1, 2)})
        b = ms({"x": 1}, {(0,): Q(1, 2), (1,): Q(1, 3)})
        assert a + b == ms({"x": 1}, {(0,): Q(3, 2), (1,): Q(5, 6)})

    def test_mul_truncates(self):
        a = ms({"x": 2}, {(0,): 1, (1,): 1})
        b = ms({"x": 2}, {(0,): 1, (1,): -1})
        assert a * b == ms({"x": 2}, {(0,): 1, (2,): -1})

    def test_mul_identity(self):
        s = ms({"x": 3}, {(1,): 2, (3,): Q(-1, 4)})
        assert s * MultiSeries.constant(1, {"x": 3}) == s

    def test_mul_hand_cauchy(self):
        a = ms({"x": 2}, {(0,): 1, (1,): 1, (2,): 1})
        b = ms({"x": 2}, {(0,): 1, (1,): 1})
        assert a * b == ms({"x": 2}, {(0,): 1, (1,): 2, (2,): 2})

    def test_cap_mismatch(self):
        with pytest.raises(CapMismatch):
            ms({"x": 2}, {}) + ms({"x": 3}, {})
        with pytest.raises(CapMismatch):
            ms({"x": 2}, {}) * ms({"y": 2}, {})

    def test_mul_commutative_associative(self):
        rng = random.Random(5)
        caps = {"x": 3, "y": 2}
        for _ in range(15):
            a = random_series(rng, caps)
            b = random_series(rng, caps)
            c = random_series(rng, caps)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestDerivative:
    def test_monomial(self):
        s = ms({"x": 3}, {(3,): 1})
        assert s.derivative("x") == ms({"x": 2}, {(2,): 3})

    def test_constant(self):
        assert MultiSeries.constant(5, {"x": 2}).derivative("x").is_zero()

    def test_termwise(self):
        s = ms({"x": 3}, {(0,): 1, (1,): 1, (2,): Q(1, 2), (3,): Q(1, 6)})
        assert s.derivative("x") == ms(
            {"x": 2}, {(0,): 1, (1,): 1, (2,): Q(1, 2)}
        )

    def test_cap_reduction(self):
        s = ms({"x": 4, "y": 2}, {})
        assert s.derivative("x").cap_map() == {"x": 3, "y": 2}

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            ms({"x": 2}, {}).derivative("q")

    def test_leibniz(self):
        rng = random.Random(9)
        caps = {"x": 4, "y": 2}
        for _ in range(15):
            f = random_series(rng, caps)
            g = random_series(rng, caps)
            lhs = (f * g).derivative("x")
            low = lhs.cap_map()
            rhs = f.derivative("x") * g.truncate(low) + f.truncate(low) * g.derivative("x")
            assert lhs == rhs


class TestPowRational:
    def test_geometric(self):
        base = ms({"chi": 3}, {(0,): 1, (1,): -1})
        assert pow_rational(base, -1) == ms(
            {"chi": 3}, {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
        )

    def test_integer_square(self):
        base = ms({"chi": 3}, {(0,): 1, (1,): 1})
        assert pow_rational(base, 2) == ms(
            {"chi": 3}, {(0,): 1, (1,): 2, (2,): 1}
        )

    def test_half_negative(self):
        base = ms({"chi": 2}, {(0,): 1, (1,): -1})
        assert pow_rational(base, Q(-1, 2)) == ms(
            {"chi": 2}, {(0,): 1, (1,): Q(1, 2), (2,): Q(3, 8)}
        )

    def test_requires_unit_constant(self):
        with pytest.raises(NonUnitConstantTerm):
            pow_rational(ms({"chi": 2}, {(1,): 1}), 2)

    def test_exponent_additivity(self):
        rng = random.Random(21)
        caps = {"x": 3, "chi": 3}
        for _ in range(10):
            u = random_series(rng, caps, density=0.4)
            base = MultiSeries.constant(1, caps) + (
                u - MultiSeries.constant(u.coefficient({}), caps)
            )
            g1 = Q(rng.randint(-5, 5), rng.randint(1, 4))
            g2 = Q(rng.randint(-5, 5), rng.randint(1, 4))
            assert pow_rational(base, g1 + g2) == pow_rational(base, g1) * pow_rational(base, g2)

    def test_integer_power_matches_repeated_mul(self):
        base = ms({"x": 4}, {(0,): 1, (1,): Q(2, 3), (2,): -1})
        acc = MultiSeries.constant(1, {"x": 4})
        for n in range(5):
            assert pow_rational(base, n) == acc
            acc = acc * base

    # x / factor: the reciprocal of a two-variable factor, shifted by x.

    def test_simple_geometric(self):
        factor = ms({"x": 1, "chi": 2}, {(0, 0): 1, (1, 0): -1})
        out = pow_rational(factor, -1).shift("x", 1)
        assert out == ms({"x": 1, "chi": 2}, {(0, 1): 1, (1, 1): 1, (2, 1): 1})

    def test_unit_factor(self):
        factor = MultiSeries.constant(1, {"x": 2, "chi": 2})
        assert pow_rational(factor, -1).shift("x", 1) == ms(
            {"x": 2, "chi": 2}, {(0, 1): 1}
        )

    def test_coupled_factor(self):
        # 1 - chi*(1-x) at caps x<=2, chi<=2; vars sorted (chi, x)
        factor = ms({"x": 2, "chi": 2}, {(0, 0): 1, (1, 0): -1, (1, 1): 1})
        out = pow_rational(factor, -1).shift("x", 1)
        expected = ms(
            {"x": 2, "chi": 2},
            {(0, 1): 1, (1, 1): 1, (1, 2): -1, (2, 1): 1, (2, 2): -2},
        )
        assert out == expected

    def test_round_trip(self):
        factor = ms({"x": 2, "chi": 3}, {(0, 0): 1, (1, 0): -1, (1, 1): 1})
        out = pow_rational(factor, -1).shift("x", 1) * factor
        assert out == ms({"x": 2, "chi": 3}, {(0, 1): 1})


class TestExpSeries:
    def test_exponential_of_variable(self):
        s = ms({"chi": 4}, {(1,): 1})
        assert exp_series(s) == ms(
            {"chi": 4},
            {(0,): 1, (1,): 1, (2,): Q(1, 2), (3,): Q(1, 6), (4,): Q(1, 24)},
        )

    def test_homomorphism(self):
        caps = {"x": 3, "chi": 3}
        u = ms(caps, {(1, 0): 1})
        v = ms(caps, {(1, 1): -2})
        assert exp_series(u + v) == exp_series(u) * exp_series(v)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(Exception):
            exp_series(ms({"chi": 2}, {(0,): 1}))


class TestRendering:
    def test_golden_strings(self):
        s = ms({"x": 2, "chi": 2}, {(0, 0): Q(3, 2), (0, 1): Q(5, 6), (1, 2): 1, (2, 0): -1})
        assert s.render() == "3/2 + 5/6*x - chi^2 + chi*x^2"
        assert MultiSeries({"x": 1}).render() == "0"
        assert ms({"x": 1}, {(1,): -1}).render() == "-x"

    def test_render_roundtrip_determinism(self):
        rng = random.Random(2)
        caps = {"x": 2, "y": 2, "chi": 1}
        for _ in range(5):
            s = random_series(rng, caps)
            assert s.render() == s.render()


class TestShapeOps:
    def test_extend_and_coefficient(self):
        s = ms({"x": 2}, {(1,): Q(1, 2)})
        e = s.extend({"chi": 3})
        assert e.cap_map() == {"x": 2, "chi": 3}
        assert e.coefficient({"x": 1, "chi": 0}) == Q(1, 2)

    def test_truncate(self):
        s = ms({"x": 3}, {(0,): 1, (3,): 5})
        t = s.truncate({"x": 2})
        assert t == ms({"x": 2}, {(0,): 1})

    def test_evaluate(self):
        # vars sorted (x, y): x + 2y + (1/3) x^2 y
        s = ms({"x": 2, "y": 1}, {(1, 0): 1, (0, 1): 2, (2, 1): Q(1, 3)})
        assert s.evaluate({"x": Q(1, 2), "y": Q(3)}) == Q(1, 2) + 6 + Q(1, 4)


def naive_evaluate(s, point):
    total = Q(0)
    for exps, c in s.terms.items():
        term = c
        for v, e in zip(s.variables, exps):
            term *= Q(point[v]) ** e
        total += term
    return total


COORD = st.one_of(
    st.just(Q(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)


class TestEvaluate:
    """The common-denominator integer sum equals a plain Fraction sum."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
        st.lists(COORD, min_size=3, max_size=3),
        st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_matches_naive_sum(self, seed, cap_list, coords, density):
        names = ("chi", "x", "y")[: len(cap_list)]
        caps = dict(zip(names, cap_list))
        s = random_series(random.Random(seed), caps, density)
        point = dict(zip(names, coords))
        value = s.evaluate(point)
        assert isinstance(value, Q)
        assert value == naive_evaluate(s, point)

    def test_empty_series(self):
        assert MultiSeries({"x": 3, "y": 0}).evaluate({"x": Q(-2, 3), "y": 5}) == 0

    def test_caps_zero(self):
        s = ms({"x": 0, "y": 0}, {(0, 0): Q(-7, 4)})
        assert s.evaluate({"x": Q(9, 2), "y": Q(-1, 3)}) == Q(-7, 4)

    def test_zero_and_negative_coordinates(self):
        s = ms({"x": 3, "y": 2}, {(0, 0): 1, (3, 0): Q(1, 6), (1, 2): Q(-5, 9)})
        assert s.evaluate({"x": Q(0), "y": Q(-2, 3)}) == 1
        point = {"x": Q(-3, 2), "y": Q(-2, 3)}
        assert s.evaluate(point) == 1 + Q(1, 6) * Q(-27, 8) + Q(-5, 9) * Q(-3, 2) * Q(4, 9)
        assert s.evaluate(point) == naive_evaluate(s, point)

    def test_integer_and_string_coordinates(self):
        s = ms({"x": 2}, {(1,): Q(1, 2), (2,): 3})
        assert s.evaluate({"x": 2}) == 13
        assert s.evaluate({"x": "1/3"}) == Q(1, 6) + Q(1, 3)


class TestIntegerPower:
    def test_pow_int_matches_repeated_mul(self):
        base = ms({"x": 3}, {(0,): 1, (1,): Q(1, 2), (2,): -1})
        acc = MultiSeries.constant(1, {"x": 3})
        for n in range(6):
            assert base.pow_int(n) == acc
            acc = acc * base


# -- the trusted construction and the integer-numerator product ----------------

NAMES = ("chi", "x", "y")
SMALL_COEFF = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def caps_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    return {v: draw(st.integers(min_value=0, max_value=4)) for v in NAMES[:n]}


def series_at(draw, caps, max_size=12):
    keys = st.tuples(*(st.integers(min_value=0, max_value=caps[v]) for v in sorted(caps)))
    # zero coefficients are drawn too; the public constructor drops them
    return MultiSeries(caps, draw(st.dictionaries(keys, SMALL_COEFF, max_size=max_size)))


@st.composite
def series_pair(draw):
    caps = draw(caps_strategy())
    return series_at(draw, caps), series_at(draw, caps)


def naive_product(a, b):
    """Truncated Cauchy product summed in Fractions, term pair by term pair."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exps = tuple(i + j for i, j in zip(e1, e2))
            if all(e <= c for e, c in zip(exps, a.caps)):
                out[exps] = out.get(exps, Q(0)) + c1 * c2
    return MultiSeries(a.cap_map(), out)


def assert_stored_form(s):
    """A positive denominator coprime to the nonzero int numerators, each
    keyed by a packed exponent tuple inside the caps."""
    assert type(s.den) is int and s.den > 0
    assert math.gcd(s.den, *s.nums.values()) == 1
    layout = _layout(s.caps)
    for key, v in s.nums.items():
        assert type(v) is int and v != 0
        exps = layout[key]
        assert layout.key(exps) == key
        assert all(e <= cap for e, cap in zip(exps, s.caps))


def assert_clean(s):
    """The trusted-cap invariant: the public constructor would change nothing,
    and the stored form is reduced."""
    assert MultiSeries(s.cap_map(), s.terms) == s
    for exps, c in s.terms.items():
        assert type(c) is Q and c != 0
        assert len(exps) == len(s.variables)
        assert all(type(e) is int and 0 <= e <= cap for e, cap in zip(exps, s.caps))
    assert_stored_form(s)


class TestMulKernel:
    @settings(max_examples=150, deadline=None)
    @given(series_pair())
    def test_matches_naive_cauchy_product(self, pair):
        a, b = pair
        product = a * b
        assert product == naive_product(a, b)
        assert product == b * a
        assert_clean(product)

    def test_cancellation_drops_terms(self):
        # (1 + x/2)(1 - x/2) = 1 - x^2/4: the x terms cancel to zero
        a = ms({"x": 3}, {(0,): 1, (1,): Q(1, 2)})
        b = ms({"x": 3}, {(0,): 1, (1,): Q(-1, 2)})
        product = a * b
        assert product.terms == {(0,): Q(1), (2,): Q(-1, 4)}
        assert_clean(product)

    def test_empty_operand(self):
        caps = {"x": 2, "y": 3}
        a = ms(caps, {(1, 2): Q(7, 3), (0, 0): -1})
        zero = MultiSeries(caps)
        assert (a * zero).terms == {} and (zero * a).terms == {}
        assert (zero * zero).cap_map() == caps


# caps at which the packed field width (2*cap).bit_length() + 1 changes
BOUNDARY_CAPS = (0, 1, 2, 3, 4, 7, 8, 15, 16)
# signed coefficients wider than 64 bits
WIDE_COEFF = st.builds(Q, st.integers(-2**90, 2**90), st.integers(1, 2**70))


@st.composite
def boundary_pair(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    caps = {v: draw(st.sampled_from(BOUNDARY_CAPS)) for v in NAMES[:n]}
    # exponents at the cap are drawn often, so pair sums cross every guard bit
    keys = st.tuples(*(st.integers(0, caps[v]) | st.just(caps[v]) for v in sorted(caps)))
    terms = st.dictionaries(keys, WIDE_COEFF, max_size=16)
    return MultiSeries(caps, draw(terms)), MultiSeries(caps, draw(terms))


def corner_series(caps, rng):
    """Signed wide coefficients at exponents 0, 1, cap // 2, cap - 1 and cap."""
    names = sorted(caps)
    axes = [sorted({e for e in (0, 1, cap // 2, cap - 1, cap) if 0 <= e <= cap})
            for cap in (caps[v] for v in names)]
    return MultiSeries(caps, {
        exps: Q(rng.randint(-2**80, 2**80), rng.randint(1, 2**70))
        for exps in itertools.product(*axes)
    })


class TestPackedKernel:
    @settings(max_examples=200, deadline=None)
    @given(boundary_pair())
    def test_matches_naive_product_at_boundary_caps(self, pair):
        a, b = pair
        product = a * b
        assert product == naive_product(a, b)
        assert product == b * a
        assert_clean(product)

    @pytest.mark.parametrize("cap", BOUNDARY_CAPS)
    @pytest.mark.parametrize("names", [("x",), ("chi", "x"), ("chi", "x", "y")])
    def test_corner_exponents_with_a_cap_zero_variable(self, cap, names):
        # chi has cap 0, so only its constant column exists
        caps = {v: 0 if v == "chi" else cap for v in names}
        rng = random.Random(cap)
        a, b = corner_series(caps, rng), corner_series(caps, rng)
        product = a * b
        assert product == naive_product(a, b)
        assert_clean(product)


def horn_formula(a, lowers, k):
    """(a)_{|k|} / prod_i (k_i! prod (lower)_{k_i}), from Pochhammer products."""
    out = pochhammer(a, sum(k))
    for k_i, lower in zip(k, lowers):
        out /= factorial(k_i)
        for low in lower:
            out /= pochhammer(low, k_i)
    return out


def horn_terms(a, axes, start=Q(1), lead=()):
    """One Horn grid's coefficients keyed lead + k: the ``terms`` of its
    ``horn_series``, each leading variable cut at its lead exponent."""
    caps = lead + tuple(cap for cap, _ in axes)
    variables = tuple(f"v{i}" for i in range(len(caps)))
    return horn_series(variables, caps, [(a, [lower for _, lower in axes], start, lead)]).terms


class TestHornKernel:
    AXES = [(3, (Q(4, 3),)), (2, (Q(-5, 7), Q(1, 2))), (2, ())]

    @pytest.mark.parametrize("a", [Q(1, 2), Q(-7, 3), Q(-2), Q(0), Q(5)])
    def test_matches_pochhammer_formula(self, a):
        lowers = [lower for _, lower in self.AXES]
        expected = {}
        for k in itertools.product(*(range(cap + 1) for cap, _ in self.AXES)):
            c = horn_formula(a, lowers, k)
            if c:
                expected[k] = c
        assert horn_terms(a, self.AXES) == expected

    def test_start_and_prefix_give_a_scaled_plane(self):
        a, w = Q(3, 5), Q(-7, 4)
        plain = horn_terms(a, self.AXES)
        out = horn_terms(a, self.AXES, start=w, lead=(2,))
        assert out == {(2,) + k: w * c for k, c in plain.items()}
        assert all(type(c) is Q for c in out.values())

    def test_zero_start_gives_nothing(self):
        assert horn_terms(Q(1, 2), self.AXES, start=Q(0), lead=(1,)) == {}


class TestHornWalk:
    """The integer walk over the far-corner denominator: its stored form is
    reduced and its ``Fraction`` view is the Pochhammer formula."""

    LOWERS = ((Q(4, 3),), (Q(-5, 7), Q(1, 2)), ())

    @pytest.mark.parametrize("a", [Q(-2), Q(1, 2), Q(-7, 3), Q(0)])
    @pytest.mark.parametrize("start", [Q(1), Q(-7, 4), Q(0)])
    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("caps", [(3, 2, 2), (0, 2, 3), (2, 0, 0)])
    def test_stored_form_is_the_scaled_formula(self, a, start, lead, caps):
        variables = ("chi", "x", "y", "z")[len(lead) == 0:]
        all_caps = (3,) * len(lead) + caps
        s = horn_series(variables, all_caps, [(a, self.LOWERS, start, lead)])
        assert_clean(s)
        expected = {}
        for k in itertools.product(*(range(cap + 1) for cap in caps)):
            c = start * horn_formula(a, self.LOWERS, k)
            if c:
                expected[lead + k] = c
        assert s.terms == expected

    def test_grids_sum_on_the_lcm_of_their_denominators(self):
        grids = [(Q(1, 2), [(Q(4, 3),)], Q(1), (0,)),
                 (Q(3, 2), [(Q(7, 3),)], Q(-1, 6), (1,)),
                 (Q(5, 2), [(Q(10, 3),)], Q(0), (2,)),
                 (Q(7, 2), [(Q(13, 3),)], Q(5, 9), (3,))]
        s = horn_series(("chi", "x"), (3, 4), grids)
        assert_clean(s)
        expected = {}
        for a, lowers, start, lead in grids:
            for k, c in horn_terms(a, [(4, lowers[0])], start=start, lead=lead).items():
                expected[k] = c
        assert s.terms == expected

    def test_zero_bottom_factor_raises(self):
        # b = -1: the step from x^1 to x^2 divides by b + 1 = 0
        with pytest.raises(ZeroDivisionError):
            horn_series(("x",), (3,), [(Q(1, 2), [(Q(-1),)], Q(1), ())])
        with pytest.raises(ZeroDivisionError):
            horn_series(("x", "y"), (2, 3), [(Q(1, 2), [(), (Q(-1),)], Q(1), ())])

    def test_horn_value_is_the_series_value(self):
        # two bottoms on one index, a bottom-free index, every sign of
        # coordinate, terminating and non-terminating tops
        axes = [(3, (Q(4, 3),)), (2, (Q(-5, 7), Q(1, 2))), (4, ())]
        for a in (Q(1, 2), Q(-7, 3), Q(-2), Q(0), Q(5)):
            for point in ((Q(0), Q(0), Q(0)), (Q(-2, 3), Q(5), Q(1, 7)), (Q(1), Q(0), Q(-3, 2))):
                s = horn_series(("u", "v", "w"), (3, 2, 4), [(a, [low for _, low in axes], Q(1), ())])
                assert horn_value(a, axes, point) == s.evaluate(dict(zip("uvw", point)))

    def test_horn_value_at_a_zero_bottom_factor(self):
        with pytest.raises(ZeroDivisionError):
            horn_value(Q(1, 2), [(2, ()), (3, (Q(-1),))], (Q(1), Q(1)))
        # a = -1 ends every coefficient before the zero factor b + 2 = 0
        assert horn_value(Q(-1), [(4, (Q(-2),))], (Q(3),)) == 1 + Q(3, 2)
        assert horn_value(Q(-1), [(2, ()), (4, (Q(-2),))], (Q(5), Q(3))) == 1 + Q(3, 2) - 5
        # a = -2 ends them at the zero factor itself: x^2 is the last term
        assert horn_value(Q(-2), [(4, (Q(-2),))], (Q(3),)) == 1 + 3 + Q(9, 2)
        s = horn_series(("x",), (4,), [(Q(-2), [(Q(-2),)], Q(1), ())])
        assert s.terms == {(0,): 1, (1,): 1, (2,): Q(1, 2)}

    def test_zero_bottom_factor_past_a_terminating_top(self):
        # a = -1 ends the walk at x^1, before the zero factor b + 2 = 0 of
        # the step from x^2 to x^3, so nothing is divided by zero
        s = horn_series(("x",), (4,), [(Q(-1), [(Q(-2),)], Q(1), ())])
        assert s.terms == {(0,): Q(1), (1,): Q(1, 2)}
        assert_clean(s)
        assert horn_terms(Q(-1), [(4, (Q(-2),))]) == s.terms


@st.composite
def composition_arguments(draw):
    caps = {"x": draw(st.integers(0, 3)), "y": draw(st.integers(0, 2))}
    count = draw(st.integers(min_value=1, max_value=3))
    args = []
    for _ in range(count):
        u = series_at(draw, caps, max_size=6)
        args.append(u - MultiSeries.constant(u.coefficient({}), caps))
    return caps, args


class TestHornCompose:
    @settings(max_examples=60, deadline=None)
    @given(composition_arguments(),
           st.sampled_from([Q(1, 2), Q(-2), Q(-7, 3), Q(3)]))
    def test_matches_naive_power_sum(self, caps_args, a):
        caps, args = caps_args
        lowers = [(Q(4, 3),), (), (Q(5, 7), Q(-1, 2))][:len(args)]
        bound = sum(caps.values())
        naive = MultiSeries(caps)
        for k in itertools.product(range(bound + 1), repeat=len(args)):
            term = MultiSeries.constant(horn_formula(a, lowers, k), caps)
            for u, k_i in zip(args, k):
                term = term * u.pow_int(k_i)
            naive = naive + term
        out = horn_compose(a, list(zip(args, lowers)))
        assert out == naive
        assert_clean(out)


# caps whose bit fields have the same width: one packed key names the same
# exponents under each cap of a class
WIDTH_CLASSES = [(0,), (1,), (2, 3), (4, 5, 6, 7)]


@st.composite
def shared_numerator_arguments(draw):
    """Composition arguments that share their integer numerators: the same
    packed numerators under two caps tuples of equal field widths, each over
    several denominators, and the negated numerators on the same keys."""
    names = ("x", "y")
    classes = [draw(st.sampled_from(WIDTH_CLASSES)) for _ in names]
    assume(any(c != (0,) for c in classes))
    caps_a, caps_b = (tuple(draw(st.sampled_from(c)) for c in classes) for _ in range(2))
    keys = st.tuples(*(st.integers(0, min(a, b)) for a, b in zip(caps_a, caps_b))).filter(any)
    terms = draw(st.dictionaries(keys, st.integers(-6, 6).filter(bool), min_size=1, max_size=4))
    nums = {_layout(caps_a).key(e): v for e, v in terms.items()}
    dens = [1] + [d for d in draw(st.lists(st.sampled_from([2, 3, 5, 9]), max_size=2))
                  if math.gcd(d, *nums.values()) == 1]
    negated = {k: -v for k, v in nums.items()}
    return [[MultiSeries._trusted(names, caps, d, dict(nums)) for d in dens]
            + [MultiSeries._trusted(names, caps, 1, dict(negated))]
            for caps in (caps_a, caps_b)]


def kept_copies(memo):
    """Copies of the kept power ladders and Horn weights, selected by the
    kind tag that leads each memo key."""
    copies = {}
    for key, value in memo.items():
        if key[0] == "ladder":
            copies[key] = [dict(power) for power in value]
        elif key[0] == "horn weights":
            copies[key] = (value[0], dict(value[1]))
    return copies


class TestSharedPowerLadders:
    """Inside ``_shared_work`` an argument's power ladder is built once and
    handed to later calls; every result equals the one built afresh."""

    # a non-positive integer top parameter cuts the ladder short; the short
    # ones are built first, so a key without the bound would hand a later
    # call one of them
    TOPS = (Q(-1), Q(-2), Q(1, 2), Q(-7, 3), Q(3))

    @settings(max_examples=60, deadline=None)
    @given(shared_numerator_arguments())
    def test_compose_inside_the_scope_equals_outside(self, groups):
        calls = []
        for a in self.TOPS:
            for group in groups:
                for u in group:
                    calls.append((a, [(u, (Q(4, 3),))]))
                # two arguments of one caps tuple, numerators shared across them
                calls.append((a, [(group[0], (Q(4, 3),)), (group[-1], (Q(5, 7),))]))
        outside = [horn_compose(*call) for call in calls]
        with series._shared_work():
            inside = [horn_compose(*call) for call in calls]
            memo = series._MEMO.get()
            kept = kept_copies(memo)
            assert any(k[0] == "ladder" for k in kept) and any(k[0] == "horn weights" for k in kept)
            # the same calls again read the kept ladders and weights and
            # change none of them
            again = [horn_compose(*call) for call in calls]
            assert kept_copies(memo) == kept
        assert inside == again == outside
        assert series._MEMO.get() is None

    def test_ladder_is_built_once_per_scope(self, monkeypatch):
        caps = {"chi": 3, "x": 4}
        u = MultiSeries.variable("x", caps) / (1 - MultiSeries.variable("chi", caps))
        products = []
        inner = series._cauchy
        monkeypatch.setattr(series, "_cauchy", lambda *args: products.append(1) or inner(*args))
        with series._shared_work():
            first = horn_compose(Q(1, 2), [(u, (Q(4, 3),))])
            built = len(products)
            # another top parameter and other bottoms read the same ladder
            horn_compose(Q(3, 2), [(u, (Q(5, 7),))])
            assert len(products) == built
            assert horn_compose(Q(1, 2), [(u, (Q(4, 3),))]) == first
        horn_compose(Q(3, 2), [(u, (Q(5, 7),))])
        assert len(products) == 2 * built


COMPOSE_CAPS = [{"x": c} for c in BOUNDARY_CAPS] + [
    {"x": 16, "y": 0}, {"x": 1, "y": 15}, {"x": 3, "y": 4}, {"chi": 0, "x": 2, "y": 7},
]


def naive_powers(u, top):
    """u^0 .. u^top by repeated naive products."""
    powers = [MultiSeries.constant(1, u.cap_map())]
    for _ in range(top):
        powers.append(naive_product(powers[-1], u))
    return powers


class TestHornComposeAtBoundaryCaps:
    @pytest.mark.parametrize("caps", COMPOSE_CAPS,
                             ids=lambda c: ",".join(f"{v}{n}" for v, n in c.items()))
    @pytest.mark.parametrize("a", [Q(-7, 3), Q(-3), Q(0)])
    @pytest.mark.parametrize("count", [1, 2])
    def test_matches_naive_sum_of_kernel_coefficients(self, caps, a, count):
        rng = random.Random(sum(caps.values()) * 10 + count)
        lowers = [(Q(4, 3),), (Q(5, 7), Q(-1, 2))][:count]
        args = []
        for _ in range(count):
            u = random_series(rng, caps, density=0.5)
            args.append(u - MultiSeries.constant(u.coefficient({}), caps))
        bound = sum(caps.values())
        powers = [naive_powers(u, bound) for u in args]
        coeffs = horn_terms(a, [(bound, lower) for lower in lowers])
        naive = {}
        for k, c in coeffs.items():
            term = MultiSeries.constant(c, caps)
            for row, k_i in zip(powers, k):
                term = naive_product(term, row[k_i])
            for e, v in term.terms.items():
                naive[e] = naive.get(e, Q(0)) + v
        out = horn_compose(a, list(zip(args, lowers)))
        assert out == MultiSeries(caps, naive)
        assert_clean(out)


def ring_and_reshape_results(a, b):
    """Every ring and reshape operation but the derivative applied to a pair
    of series; the invariant test takes the derivative in each variable."""
    caps = a.cap_map()
    v = a.variables[0]
    unit = MultiSeries.constant(1, caps) + (a - MultiSeries.constant(a.coefficient({}), caps))
    yield a + b
    yield a - b
    yield -a
    yield a.scale(Q(-2, 3))
    yield a.scale(0)
    yield a * b
    yield a.pow_int(2)
    yield a.shift(v, 1)
    yield a.truncate({name: max(c - 1, 0) for name, c in caps.items()})
    yield a.extend({"w": 2})
    a0 = a - MultiSeries.constant(a.coefficient({}), caps)
    b0 = b - MultiSeries.constant(b.coefficient({}), caps)
    yield horn_compose(Q(-1, 2), [(a0, (Q(4, 3),)), (b0, ())])
    yield pow_rational(unit, Q(-1, 2))
    yield exp_series(unit - MultiSeries.constant(1, caps))
    yield 1 - a
    yield a / unit
    yield unit ** Q(-1, 2)
    d_w = DiffOperator.term(Q(3, 2), {"w": 1}, "w")
    yield d_w.apply(Realized(a, {"w": Q(1, 3)})).body
    yield d_w.apply(Realized(a, {"w": Q(-1)})).body


def _width(cap):
    return _layout((cap,)).fields[0][1]


def reference_truncate(s, caps):
    """The ``terms`` view cut at ``caps`` by the public constructor."""
    return MultiSeries(caps, s.terms)


@st.composite
def truncation_case(draw, same_width):
    """A series and lower caps that keep every field width (``same_width``)
    or change the width of one field, the last one included."""
    n = draw(st.integers(min_value=1, max_value=3))
    caps = {v: draw(st.integers(min_value=1, max_value=20)) for v in NAMES[:n]}
    if same_width:
        caps = {v: max(c, 3) for v, c in caps.items()}
    keys = st.tuples(*(st.integers(0, caps[v]) | st.just(caps[v]) for v in sorted(caps)))
    s = MultiSeries(caps, draw(st.dictionaries(keys, WIDE_COEFF | SMALL_COEFF, max_size=16)))
    lower = {}
    for v, c in caps.items():
        same = [d for d in range(c + 1) if _width(d) == _width(c)]
        lower[v] = draw(st.sampled_from(same if same_width else range(c + 1)))
    if same_width:
        assume(lower != caps)
    else:
        v = draw(st.sampled_from(sorted(caps)))
        lower[v] = draw(st.sampled_from([d for d in range(caps[v]) if _width(d) != _width(caps[v])]))
    return s, lower


class TestTruncateOnPackedKeys:
    """``truncate`` keeps the packed keys where every field keeps its width;
    either way the result must be the ``terms`` view cut at the caps."""

    def check(self, s, lower):
        assert all(c <= s.cap_map()[v] for v, c in lower.items())
        cut = s.truncate(lower)
        assert cut == reference_truncate(s, lower)
        assert_clean(cut)

    @settings(max_examples=150, deadline=None)
    @given(truncation_case(same_width=True))
    def test_caps_keeping_every_width(self, case):
        s, lower = case
        assert _layout(s.caps).fields == _layout(tuple(lower[v] for v in s.variables)).fields
        self.check(s, lower)

    @settings(max_examples=150, deadline=None)
    @given(truncation_case(same_width=False))
    def test_caps_changing_a_width(self, case):
        s, lower = case
        assert _layout(s.caps).fields != _layout(tuple(lower[v] for v in s.variables)).fields
        self.check(s, lower)

    @settings(max_examples=150, deadline=None)
    @given(truncation_case(same_width=True) | truncation_case(same_width=False),
           st.sampled_from([0, 1, -1, 3, Q(1, 2)]) | st.fractions(max_denominator=30))
    def test_cut_and_scaled_in_one_pass(self, case, k):
        s, lower = case
        cut = s.truncate(lower, k)
        assert cut == reference_truncate(s, lower).scale(k) == s.truncate(lower).scale(k)
        assert cut.caps == tuple(lower[v] for v in s.variables)
        assert_clean(cut)
        own = s.truncate(s.cap_map(), k)
        assert own == s.scale(k)
        assert_clean(own)

    def test_last_field_narrowed_far(self):
        # one variable: every layout has field shift 0, so only the widths
        # tell the layouts apart; 96 + the offset of cap 3 sets no guard bit
        s = ms({"x": 100}, {(96,): 1, (3,): 2, (2,): Q(1, 3)})
        assert s.truncate({"x": 3}) == ms({"x": 3}, {(3,): 2, (2,): Q(1, 3)})

    def test_a_raised_cap_raises(self):
        # x^3..x^5 of the series below are unknown, not zero
        s = ms({"x": 2}, {(0,): 1, (1,): 1, (2,): Q(1, 2)})
        with pytest.raises(CapMismatch, match=r"^truncate cannot raise the cap of 'x' from 2 to 5$"):
            s.truncate({"x": 5})
        assert issubclass(CapMismatch, ValueError)
        # one cap lowered does not excuse another raised
        t = ms({"x": 3, "y": 1}, {(1, 1): 2, (3, 0): Q(1, 3)})
        with pytest.raises(CapMismatch, match="of 'y' from 1 to 2"):
            t.truncate({"x": 2, "y": 2})
        assert t.truncate({"x": 2, "y": 1}) == ms({"x": 2, "y": 1}, {(1, 1): 2})

    def test_dropped_terms_reduce_the_content(self):
        s = ms({"x": 7}, {(1,): Q(1, 2), (6,): Q(1, 3)})
        cut = s.truncate({"x": 5})
        assert (cut.den, cut.terms) == (2, {(1,): Q(1, 2)})
        assert_clean(cut)

    @settings(max_examples=60, deadline=None)
    @given(series_pair())
    def test_own_caps(self, pair):
        s, t = pair
        before = s.terms
        same = s.truncate(s.cap_map())
        assert same == s == reference_truncate(s, s.cap_map())
        # series are values: later operations on either leave both as they were
        list(ring_and_reshape_results(same, t))
        list(ring_and_reshape_results(s, same))
        assert s.terms == same.terms == before


def reference_scale(s, k):
    """k times the ``terms`` view, by the public constructor."""
    return MultiSeries(s.cap_map(), {exps: k * c for exps, c in s.terms.items()})


def reference_extend(s, extra_caps):
    """The sum of the ``terms`` view's monomials over the joined caps, each
    built by ``MultiSeries.monomial``."""
    caps = {**extra_caps, **s.cap_map()}
    out = MultiSeries(caps)
    for exps, c in s.terms.items():
        out = out + MultiSeries.monomial(c, dict(zip(s.variables, exps)), caps)
    return out


class TestLinearMapsOnPackedKeys:
    """Negation, ``scale`` and ``extend`` against references built from the
    ``terms`` view by the public constructor; negation and ``scale`` are
    ``operator_image`` terms, and ``extend`` reads the ``terms`` view."""

    @settings(max_examples=150, deadline=None)
    @given(truncation_case(same_width=True) | truncation_case(same_width=False),
           st.sampled_from([0, 1, -1]) | st.fractions(max_denominator=30))
    def test_scale_and_negation(self, case, k):
        s, _lower = case
        for got, want in ((s.scale(k), reference_scale(s, Q(k))), (-s, reference_scale(s, -1))):
            assert got == want
            assert got.caps == s.caps
            assert_clean(got)
        assert s.scale(1) is s
        assert -(-s) == s

    @settings(max_examples=150, deadline=None)
    @given(truncation_case(same_width=True) | truncation_case(same_width=False), st.data())
    def test_extend(self, case, data):
        s, _lower = case
        # "a" sorts before every variable of s, "w" among them, "zeta" after
        extra = data.draw(st.dictionaries(st.sampled_from(["a", "w", "zeta"]),
                                          st.integers(min_value=0, max_value=20), max_size=3))
        for v in data.draw(st.sets(st.sampled_from(s.variables))):
            extra[v] = s.cap_map()[v]
        got = s.extend(extra)
        assert got == reference_extend(s, extra)
        assert got.cap_map() == {**extra, **s.cap_map()}
        assert_clean(got)

    def test_extend_keeps_a_shared_cap_and_rejects_another(self):
        s = ms({"x": 3}, {(1,): Q(1, 2), (3,): 2})
        assert s.extend({"x": 3}) == s
        with pytest.raises(CapMismatch, match=r"^conflicting cap for 'x'$"):
            s.extend({"w": 1, "x": 2})


class TestClosedFormOperators:
    """A number on either side of + - * /, division and powers, as the
    closed forms of the identity left sides use them."""

    @settings(max_examples=60, deadline=None)
    @given(series_pair(), SMALL_COEFF, SMALL_COEFF)
    def test_match_the_named_operations(self, pair, k, g):
        s, t = pair
        caps = s.cap_map()
        unit = 1 + (t - MultiSeries.constant(t.coefficient({}), caps))
        assert k + s == MultiSeries.constant(k, caps) + s
        assert k - s == MultiSeries.constant(k, caps) - s
        assert 2 - s == MultiSeries.constant(2, caps) - s
        assert s / unit == s * pow_rational(unit, -1)
        assert unit ** g == pow_rational(unit, g)

    def test_divisor_needs_unit_constant_term(self):
        caps = {"x": 2}
        s = ms(caps, {(0,): 1, (1,): 1})
        for bad in (s.scale(2), s - MultiSeries.constant(1, caps)):
            with pytest.raises(NonUnitConstantTerm):
                s / bad
            with pytest.raises(NonUnitConstantTerm):
                bad ** Q(1, 2)

    def test_geometric_closed_form(self):
        chi = MultiSeries.variable("chi", {"chi": 3})
        assert 1 - chi == ms({"chi": 3}, {(0,): 1, (1,): -1})
        assert (1 - chi) ** -1 == ms({"chi": 3}, {(0,): 1, (1,): 1, (2,): 1, (3,): 1})

    def test_a_number_on_either_side(self):
        caps = {"chi": 3}
        chi = MultiSeries.variable("chi", caps)
        assert chi * 2 == 2 * chi == chi + chi == chi.scale(2)
        assert chi + 2 == 2 + chi == MultiSeries.constant(2, caps) + chi
        assert chi - 2 == -(2 - chi)
        assert chi / 2 == chi * Q(1, 2) == Q(1, 2) * chi
        assert 2 / (1 - chi) == (1 - chi) ** -1 * 2
        assert chi ** 2 == chi * chi == chi.pow_int(2)
        assert chi ** 0 == MultiSeries.constant(1, caps)
        with pytest.raises(ZeroDivisionError):
            chi / 0

    @pytest.mark.parametrize("form", [
        lambda s: s * 2.0, lambda s: 2.0 * s, lambda s: s + 0.5, lambda s: 0.5 - s,
        lambda s: s / 2.0, lambda s: 2.0 / (1 - s), lambda s: (1 - s) ** 2.0,
    ], ids=["mul", "rmul", "add", "rsub", "div", "rdiv", "pow"])
    def test_a_float_operand_is_a_type_error(self, form):
        with pytest.raises(TypeError, match="exact rational expected, got float"):
            form(MultiSeries.variable("chi", {"chi": 3}))


class TestTrustedCaps:
    @settings(max_examples=60, deadline=None)
    @given(series_pair())
    def test_every_operation_keeps_the_invariant(self, pair):
        a, b = pair
        for result in ring_and_reshape_results(a, b):
            assert_clean(result)
        for v in a.variables:
            if a.cap_map()[v] == 0:
                # no coefficient of the derivative is known below a cap of 0
                with pytest.raises(ValueError, match="order 0"):
                    a.derivative(v)
            else:
                assert_clean(a.derivative(v))

    @settings(max_examples=60, deadline=None)
    @given(series_pair(), series_pair())
    def test_equality_is_equality_of_terms(self, pair, other):
        a, b = pair
        results = list(ring_and_reshape_results(a, b))
        results += [r for r in ring_and_reshape_results(*other) if r.caps == a.caps]
        for r, s in itertools.product(results, repeat=2):
            same_shape = r.variables == s.variables and r.caps == s.caps
            assert (r == s) == (same_shape and r.terms == s.terms)

    @pytest.mark.parametrize("a", [Q(1, 2), Q(-3), Q(0), Q(7, 3)])
    def test_horn_series(self, a):
        p = ParamsPsi2(a, Q(4, 3), Q(5, 7))
        assert_clean(f11_series(Params1F1(a, Q(4, 3)), 6))
        assert_clean(psi2_series(p, 4, 3))
        assert_clean(psi2_3var_series(p, 3, 2, 2))

    def test_horn_series_rejects_negative_order(self):
        with pytest.raises(ValueError):
            psi2_series(ParamsPsi2(1, 1, 1), -1, 2)


class TestPublicConstructor:
    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            MultiSeries({"x": 2}, {(-1,): 1})

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            MultiSeries({"x": 2, "y": 1}, {(1,): 1})
        with pytest.raises(ValueError):
            MultiSeries({"x": 2}, {(1, 0): 1})

    def test_rejects_negative_cap_and_floats(self):
        with pytest.raises(ValueError):
            MultiSeries({"x": -1})
        with pytest.raises(TypeError):
            MultiSeries({"x": 2}, {(1,): 0.5})

    def test_rejects_non_integral_caps(self):
        # a float cap is not cut to an integer
        for caps in ({"x": 2.7}, {"x": 2.0}, {"x": Q(2)}):
            with pytest.raises(TypeError):
                MultiSeries(caps)
        s = ms({"x": 3}, {(1,): 1})
        with pytest.raises(TypeError):
            s.truncate({"x": 1.5})
        with pytest.raises(TypeError):
            s.extend({"y": 0.5})
        with pytest.raises(ValueError, match="negative cap"):
            s.truncate({"x": -1})
        assert MultiSeries({"x": True}).caps == (1,)

    def test_rejects_non_integral_exponents(self):
        with pytest.raises(TypeError):
            MultiSeries({"x": 3}, {(1.5,): 1})
        with pytest.raises(TypeError):
            MultiSeries.monomial(1, {"x": 1.5}, {"x": 3})

    def test_monomial_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="negative exponent"):
            MultiSeries.monomial(1, {"x": -1}, {"x": 3})

    def test_integral_exponent_types_are_accepted(self):
        # anything with __index__ is an integer exponent
        s = MultiSeries({"x": 3}, {(True,): 2})
        assert s == MultiSeries.monomial(2, {"x": True}, {"x": 3}) == ms({"x": 3}, {(1,): 2})

    def test_cleans_its_input(self):
        s = MultiSeries({"x": 2}, {(0,): 0, (1,): "3/4", (3,): 5, (2,): 2})
        assert s.terms == {(1,): Q(3, 4), (2,): Q(2)}
        assert_clean(s)
