"""The float Horn sums against verbatim copies of their earlier loops.

Every float sum enters through ``hypfun._float_sum``.  Its 1F1 loop,
``hypfun._f11_sum``, runs its first terms without testing them and reads its
step denominators from a list that the inner sums of one nested sum share;
its outer levels make their top parameters from integers instead of
``Fraction``s, each level reads its step denominators from its own list,
shared by all its offsets, and the inner sums sit in one list indexed by
offset.  None of that may change a float: every value, term count and
exception text must be the one the loops below give.  They are the loops as
they stood before those changes, kept here as reference oracles.  Five
later checks part from them on purpose, each with its own test: a parameter
too large for a float, a bottom parameter whose float is a pole and, unless
the sum terminates, a z past the triple series' radius |z| < 1 are
rejected before any term, a nested sum
whose outer partial sum is not finite raises at once, and
``f11_eval_float`` raises where the sum it would return is not finite
(``tests/test_hypfun.py``).
"""

import math
import random
from fractions import Fraction as Q

import pytest

from hypersym import hypfun, series
from hypersym.exactnum import DegenerateParameter
from hypersym.hypfun import (
    FAMILIES,
    NoConvergence,
    Params1F1,
    ParamsPsi2,
    f11_eval_float,
    psi2_3var_eval_float,
    psi2_eval_float,
)

DEFAULT_TERM_CAP = hypfun.DEFAULT_TERM_CAP


# -- reference oracles: the earlier loops, verbatim ------------------------------

def ref_f11_eval_float(
    p: Params1F1, x: float, rel_tol: float = 1e-12, term_cap: int = DEFAULT_TERM_CAP
) -> tuple[float, int]:
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol!r}")
    a = float(p.a)
    b = float(p.b)
    return ref_f11_sum(a, b, x, rel_tol, term_cap)


def ref_f11_sum(a: float, b: float, x: float, rel_tol: float, term_cap: int) -> tuple[float, int]:
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


def ref_nested_sum(
    family: str, p, point: tuple[float, ...], rel_tol: float, term_cap: int
) -> float:
    """``_nested_sum``'s loop as it stood before."""
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
                inner[k] = ref_f11_eval_float(Params1F1(p.a + k, *bottoms[0]), x, rel_tol, cap)[0]
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


# -- the seeded grid ---------------------------------------------------------------

TOLS = (1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16, 1e-18)
# 1 to 10 lie below the run-up of most points with |x| + |a| > 12
CAPS = (1, 2, 3, 5, 10, 25, 60, DEFAULT_TERM_CAP)


def _top(rng):
    return Q(rng.randint(-12, 12), rng.randint(1, 4))


def _bottom(rng):
    # never an integer: n/d + 1/7 with d <= 4; negative ones included
    return Q(rng.randint(-16, 16), rng.randint(1, 4)) + Q(1, 7)


def _positive(rng):
    return Q(rng.randint(0, 16), 4) + Q(1, 7)


def _tol_cap(rng):
    return rng.choice(TOLS), rng.choice(CAPS) if rng.random() < 0.5 else DEFAULT_TERM_CAP


def grid(seed):
    """(arguments, thunk of the library call, thunk of the reference) triples."""
    rng = random.Random(seed)
    cases = []
    for _ in range(300):
        p = Params1F1(_top(rng), _bottom(rng))
        x = rng.choice((rng.uniform(-2, 2), rng.uniform(-45, 45)))
        tol, cap = _tol_cap(rng)
        cases.append(((p, x, tol, cap), lambda a=(p, x, tol, cap): f11_eval_float(*a),
                      lambda a=(p, x, tol, cap): ref_f11_eval_float(*a)))
    for _ in range(100):
        p = ParamsPsi2(_top(rng), _bottom(rng), _bottom(rng))
        point = (rng.uniform(-8, 8), rng.uniform(-8, 8))
        tol, cap = _tol_cap(rng)
        cases.append(((p, point, tol, cap), lambda a=(p, *point, tol, cap): psi2_eval_float(*a),
                      lambda a=(p, point, tol, cap): ref_nested_sum("psi2", *a)))
    for _ in range(30):
        p = ParamsPsi2(_top(rng), _bottom(rng), _bottom(rng))
        point = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-0.9, 0.9))
        tol, cap = _tol_cap(rng)
        cases.append(((p, point, tol, cap),
                      lambda a=(p, *point, tol, cap): psi2_3var_eval_float(*a),
                      lambda a=(p, point, tol, cap): ref_nested_sum("psi2x3", *a)))
    # z near the radius, where the z level takes a hundred terms or more; then
    # caps of 1 to 10, which end inside the y level's run-up wherever
    # |y| + |a + k| exceeds the cap at offset k by more than 1
    for _ in range(3):
        p = ParamsPsi2(Q(rng.randint(1, 4), 4), _positive(rng), _positive(rng))
        point = (rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25),
                 rng.choice((-1, 1)) * rng.uniform(0.9, 0.95))
        tol, cap = rng.choice(TOLS[:3]), DEFAULT_TERM_CAP
        cases.append(((p, point, tol, cap),
                      lambda a=(p, *point, tol, cap): psi2_3var_eval_float(*a),
                      lambda a=(p, point, tol, cap): ref_nested_sum("psi2x3", *a)))
    for _ in range(30):
        p = ParamsPsi2(Q(rng.randint(-8, 8), 4), 1 + _positive(rng), _bottom(rng))
        point = (rng.uniform(-0.05, 0.05), rng.uniform(-14, 14), rng.uniform(-0.95, 0.95))
        tol, cap = rng.choice(TOLS[:3]), rng.randint(1, 10)
        cases.append(((p, point, tol, cap),
                      lambda a=(p, *point, tol, cap): psi2_3var_eval_float(*a),
                      lambda a=(p, point, tol, cap): ref_nested_sum("psi2x3", *a)))
    return cases


def outcome(thunk):
    """A float result by repr (so -0.0 and NaN compare), or the exception's
    type and text."""
    try:
        result = thunk()
    except (NoConvergence, ZeroDivisionError, DegenerateParameter) as exc:
        return type(exc).__name__, str(exc)
    return repr(result)


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_grid_matches_the_reference_loops(self, seed):
        cases = grid(seed)
        expected = [outcome(ref) for _args, _lib, ref in cases]
        failed = sum(isinstance(e, tuple) for e in expected)
        # both outcomes are well represented
        assert 0.1 * len(cases) < failed < 0.6 * len(cases)
        for (args, lib, _ref), want in zip(cases, expected):
            assert outcome(lib) == want, args
        # one memo over the whole grid: inner sums recur under other caps
        with series._shared_work():
            for (args, lib, _ref), want in zip(cases, expected):
                assert outcome(lib) == want, args

    def test_caps_inside_the_run_up(self):
        # |x| + |a| = 40.5: the stopping rule cannot fire before 40 terms
        p = Params1F1(Q(1, 2), Q(4, 3))
        for cap in (1, 2, 38, 39, 40, 41, 42, 60):
            for x in (40.0, -40.0):
                assert outcome(lambda: f11_eval_float(p, x, 1e-10, cap)) == \
                    outcome(lambda: ref_f11_eval_float(p, x, 1e-10, cap)), (cap, x)

    def test_terms_used_just_past_the_run_up(self):
        # x = 0 stops as soon as the rule may: two zero terms, index past |a|
        for a in (Q(0), Q(1, 2), Q(5, 2), Q(-7, 2), Q(11)):
            p = Params1F1(a, Q(4, 3))
            assert f11_eval_float(p, 0.0, 1e-12) == ref_f11_eval_float(p, 0.0, 1e-12)

    @pytest.mark.parametrize("family, named", [("f11", "a"), ("psi2", "c"), ("psi2x3", "b")])
    def test_parameter_too_large_for_a_float_is_rejected_before_any_term(self, family, named):
        # the loops raise OverflowError where they first make its float
        values = {"a": Q(1, 2), "b": Q(4, 3), "c": Q(5, 7), named: Q(10**400)}
        fam = FAMILIES[family]
        p = fam.narrow(ParamsPsi2(values["a"], values["b"], values["c"]))
        with pytest.raises(ValueError, match=f"^parameter {named} is too large for a float$"):
            fam.evaluate(p, *(0.5, 0.25, 0.125)[:len(fam.coords)], 1e-12, DEFAULT_TERM_CAP)

    def test_zero_step_denominator_is_rejected_before_any_term(self):
        # b rounds to the float -3.0, so (s + 1) * (b + s) is 0.0 at s = 3,
        # where the loop divides by zero; the sum rejects that float before any term
        p = Params1F1(Q(1, 2), Q(-3) + Q(1, 10**30))
        assert outcome(lambda: ref_f11_eval_float(p, 1.0)) == ("ZeroDivisionError", "float division by zero")
        assert outcome(lambda: f11_eval_float(p, 1.0)) == (
            "DegenerateParameter",
            f"bottom parameter {p.b} of x is -3.0 as a float, zero or a negative integer",
        )

    @pytest.mark.parametrize("family, point, cap, name, terms", [
        # every term is in the run-up, which tests the partial sum once per
        # block of 32 terms: the loop tested nothing before its cap
        ("psi2", (0.5, 1e300), 60, "y", 32),
        ("psi2", (0.5, -1e300), 60, "y", 32),
        ("psi2x3", (0.5, 0.5, 1e300), 40, "z", 32),
        # the partial sum overflows at term 419 of a run-up of 799 terms
        ("psi2", (0.5, 800.0), DEFAULT_TERM_CAP, "y", 448),
        # an inner 1F1 overflows after the run-up: an infinite partial sum
        # passes the smallness test, and a NaN one fails it
        ("psi2", (700.0, 0.5), DEFAULT_TERM_CAP, "y", 3),
        ("psi2x3", (700.0, 0.5, 0.5), DEFAULT_TERM_CAP, "y", 3),
    ])
    def test_outer_partial_sum_that_is_not_finite_raises_at_once(self, family, point, cap, name, terms):
        # a z past the radius is summed only where the sum terminates
        p = ParamsPsi2(Q(-2) if name == "z" else Q(1, 2), Q(4, 3), Q(5, 7))
        arg = point[FAMILIES[family].coords.index(name)]
        # the reference returns a value that is not finite, or runs to its cap
        ref = outcome(lambda: ref_nested_sum(family, p, point, 1e-12, cap))
        assert ref in ("inf", "nan") or ref == (
            "NoConvergence", f"no convergence in {cap} outer terms at {name}={arg}")
        with pytest.raises(NoConvergence) as exc:
            hypfun._float_sum(family, p, point, 1e-12, cap)
        assert str(exc.value) == f"partial sum not finite after {terms} outer terms at {name}={arg}"

    @pytest.mark.parametrize("z", [1.2, -1.05, 1 + 2**-52, 1e300])
    def test_z_past_the_radius_raises_before_any_term(self, z, monkeypatch):
        # z's index has no bottom parameter, so past |z| = 1 its terms grow
        # without bound: the sum ran until its partial sum overflowed, some
        # seconds at z = 1.2 and half a minute at z = 1.05
        calls = []
        inner = hypfun._f11_sum
        monkeypatch.setattr(hypfun, "_f11_sum", lambda *args: calls.append(args) or inner(*args))
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        with pytest.raises(NoConvergence) as exc:
            psi2_3var_eval_float(p, 0.3, 0.2, z)
        assert str(exc.value) == f"z={z} is outside the radius of convergence |z| < 1"
        assert calls == []

    def test_z_past_the_radius_is_summed_where_the_sum_terminates_and_at_one(self, monkeypatch):
        point = (0.3, 0.2, 1.2)
        for a in (Q(-2), Q(0), Q(-50)):
            p = ParamsPsi2(a, Q(4, 3), Q(5, 7))
            assert outcome(lambda: psi2_3var_eval_float(p, *point)) == \
                outcome(lambda: ref_nested_sum("psi2x3", p, point, 1e-12, DEFAULT_TERM_CAP))
        # |z| = 1 is not rejected: its terms are summed until a cap stops them
        calls = []
        inner = hypfun._f11_sum
        monkeypatch.setattr(hypfun, "_f11_sum", lambda *args: calls.append(args) or inner(*args))
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        for z in (1.0, -1.0):
            calls.clear()
            with pytest.raises(NoConvergence, match=r"^no convergence in 5 terms at x=0\.3$"):
                hypfun._float_sum("psi2x3", p, (0.3, 0.2, z), 1e-12, 5)
            assert calls

    def test_outer_partial_sum_that_is_nan_raises_at_once(self):
        # inf - inf: the NaN partial sum fails the smallness test, and the
        # reference loop went on to its cap, summing an inner 1F1 per term
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        with pytest.raises(NoConvergence, match=r"^partial sum not finite after 3 outer terms at y=-0\.5$"):
            psi2_eval_float(p, 700.0, -0.5)

    @pytest.mark.parametrize("a, x", [
        (0.5, math.inf), (0.5, -math.inf), (0.5, math.nan), (1.5e308, 1.5e308), (-2.5, 1e300),
    ])
    def test_threshold_that_is_not_finite_or_huge(self, a, x):
        # the public evaluators reject such an x; the loop itself still
        # takes the whole cap and fails as before
        for cap in (1, 7, 50):
            assert outcome(lambda: hypfun._f11_sum(a, 4 / 3, x, 1e-12, cap, [])) == \
                outcome(lambda: ref_f11_sum(a, 4 / 3, x, 1e-12, cap))

    def test_shared_denominators_are_the_step_expression(self):
        dens = []
        b = float(Q(5, 7))
        value, terms = hypfun._f11_sum(0.5, b, 3.0, 1e-14, 500, dens)
        assert len(dens) >= terms
        assert dens == [(s + 1) * (b + s) for s in range(len(dens))]
        # a second sum on the same list reads it and gives the loop's value
        assert hypfun._f11_sum(1.5, b, 3.0, 1e-14, 500, dens) == ref_f11_sum(1.5, b, 3.0, 1e-14, 500)

    def test_triple_sum_sums_each_inner_1f1_once_in_offset_order(self, monkeypatch):
        # the inner sums sit in a list indexed by offset, which holds only
        # because offsets are first reached in increasing order with no gap
        tops = []
        inner = hypfun._f11_sum

        def counting(a, *args):
            tops.append(a)
            return inner(a, *args)

        monkeypatch.setattr(hypfun, "_f11_sum", counting)
        for a in (Q(1, 2), Q(-7, 2)):
            p = ParamsPsi2(a, Q(4, 3), Q(5, 7))
            tops.clear()
            value = psi2_3var_eval_float(p, 1.5, -2.0, 0.6, 1e-12)
            assert repr(value) == repr(ref_nested_sum("psi2x3", p, (1.5, -2.0, 0.6), 1e-12,
                                                      DEFAULT_TERM_CAP))
            assert len(tops) > 40
            assert tops == [float(a + k) for k in range(len(tops))]

    def test_each_level_keeps_its_steps_in_one_list(self, monkeypatch):
        lists = {}
        extend = hypfun._extend_dens

        def recording(dens, lowers, stop):
            lists[id(dens)] = dens, lowers
            extend(dens, lowers, stop)

        monkeypatch.setattr(hypfun, "_extend_dens", recording)
        p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
        psi2_3var_eval_float(p, 1.5, -2.0, 0.6, 1e-12)
        # one list for the inner sums (b) and one per outer level (c for y, none for z)
        b, c = float(p.b), float(p.c)
        assert sorted(lowers for _dens, lowers in lists.values()) == sorted([(b,), (c,), ()])
        for dens, lowers in lists.values():
            assert len(dens) > 30
            steps = []
            for n in range(len(dens)):
                d = n + 1
                for low in lowers:
                    d *= low + n
                steps.append(d)
            assert list(map(repr, dens)) == list(map(repr, steps)), lowers


class TestSmallnessFloor:
    """A partial sum of exactly zero tests its terms against the 1e-300
    floor, not against zero: a terminating sum whose value cancels to 0.0
    still stops."""

    def test_f11_sum_stops_at_a_zero_total(self):
        # 1 - x/2 = 0 at x = 2, then zero terms
        p = Params1F1(-1, 2)
        assert f11_eval_float(p, 2.0) == (0.0, 4) == ref_f11_eval_float(p, 2.0)

    def test_outer_level_stops_at_a_zero_total(self):
        # 1 - x/2 - y/3 = 0 at x = 1, y = 1.5, then zero terms
        p = ParamsPsi2(-1, 2, 3)
        assert psi2_eval_float(p, 1.0, 1.5) == 0.0
        assert repr(psi2_eval_float(p, 1.0, 1.5)) == repr(
            ref_nested_sum("psi2", p, (1.0, 1.5), 1e-12, DEFAULT_TERM_CAP))
