import dataclasses
import itertools
import json
import math
from fractions import Fraction as Q

import pytest

from hypersym.exactnum import (
    DegenerateParameter,
    factorial,
    pochhammer,
)
from hypersym import hypfun, identities, liealg, series
from hypersym.hypfun import (
    NoConvergence,
    Params1F1,
    ParamsPsi2,
    f11_coeff,
    f11_eval_float,
    f11_series,
    psi2_coeff,
    psi2_3var_eval_float,
    psi2_series,
)
from hypersym.identities import (
    AS_STATED,
    CORRECTED,
    DEFAULT_EVAL_X,
    DEFAULT_EVAL_Y,
    DEFAULT_PSI2_ORDERS,
    CapUnderflow,
    DomainViolation,
    IdentityRecord,
    _caps_for,
    _first_mismatch,
    _sum_float,
    _sum_series,
    _weights,
    catalogue,
    default_param_points,
    get_record,
    invariant_ok,
    lhs_series,
    lhs_value,
    report_to_json,
    report_to_markdown,
    run_suite,
    strip_timing,
    verify_formal,
    verify_numeric,
)
from hypersym.liealg import ACTION_RULES, ActionRule, catalogue as operator_catalogue
from hypersym.series import CapMismatch, MultiSeries

P = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
P_ALL = default_param_points()

EXPECT_AS_STATED_VERIFIED = (
    "I-F11-RAISE-A",
    "I-F11-SHIFT",
    "I-PSI2-REDUCTION",
    "I-PSI2-LOWER-B",
    "I-PSI2-LOWER-C",
    "I-PSI2-SHIFT-X",
    "I-PSI2-SHIFT-Y",
)
EXPECT_AS_STATED_MISMATCH = ("I-F11-RAISE-B", "I-F11-LOWER-A", "I-F11-LOWER-B")


def _variants(rec):
    return (AS_STATED, CORRECTED) if rec.corrected else (AS_STATED,)


class TestCatalogue:
    def test_ten_records(self):
        cat = catalogue()
        assert len(cat) == 10
        assert [r.rec_id for r in cat] == [
            "I-F11-RAISE-A", "I-F11-RAISE-B", "I-F11-LOWER-A", "I-F11-LOWER-B",
            "I-F11-SHIFT", "I-PSI2-REDUCTION", "I-PSI2-LOWER-B",
            "I-PSI2-LOWER-C", "I-PSI2-SHIFT-X", "I-PSI2-SHIFT-Y",
        ]

    def test_corrected_candidates_present_where_needed(self):
        with_corr = {r.rec_id for r in catalogue() if r.corrected}
        assert with_corr == set(EXPECT_AS_STATED_MISMATCH)

    def test_unknown_record(self):
        with pytest.raises(KeyError):
            get_record("I-NOPE")

    def test_missing_corrected_candidate(self):
        rec = get_record("I-F11-SHIFT")
        assert rec.corrected is None
        with pytest.raises(KeyError, match="I-F11-SHIFT has no variant 'corrected_candidate'"):
            verify_formal(rec, CORRECTED, P, 2, 4)
        with pytest.raises(KeyError):
            verify_numeric(rec, CORRECTED, P, 0.1, 1e-8)

    def test_built_once(self):
        cat = catalogue()
        assert isinstance(cat, tuple)
        assert catalogue() is cat
        assert all(get_record(r.rec_id) is r for r in cat)

    def test_chi0_consistency_every_record_and_variant(self):
        # at deformation order zero both sides are the undeformed function
        for rec in catalogue():
            for variant in _variants(rec):
                row = verify_formal(rec, variant, P, 0, 6)
                assert row["status"] == "verified", (rec.rec_id, variant, row)

    def test_shift_record_at_x_cap_zero_is_base_series(self):
        # the x-degree-0 column of the shifted family member is the series
        # in chi itself
        rec = get_record("I-F11-SHIFT")
        p1 = Params1F1(P.a, P.b)
        lhs = lhs_series(rec, AS_STATED, p1, {"x": 0, "chi": 6})
        base = series.horn_series(("chi",), (6,), [(p1.a, [(p1.b,)], Q(1), ())]).extend({"x": 0})
        assert lhs == base


class TestVerifyFormal:
    @pytest.mark.parametrize("rec_id", EXPECT_AS_STATED_VERIFIED)
    @pytest.mark.parametrize("point", P_ALL, ids=lambda p: f"a={p.a}")
    def test_as_stated_verified(self, rec_id, point):
        fam = get_record(rec_id).family
        n, m = (4, 8) if fam == "f11" else (3, 4)
        row = verify_formal(get_record(rec_id), AS_STATED, point, n, m)
        assert row["status"] == "verified", row

    @pytest.mark.parametrize("rec_id", EXPECT_AS_STATED_MISMATCH)
    @pytest.mark.parametrize("point", P_ALL, ids=lambda p: f"a={p.a}")
    def test_as_stated_mismatch_with_verified_correction(self, rec_id, point):
        row = verify_formal(get_record(rec_id), AS_STATED, point, 2, 6)
        assert row["status"] == "mismatch"
        assert row["witness"] is not None
        fixed = verify_formal(get_record(rec_id), CORRECTED, point, 4, 8)
        assert fixed["status"] == "verified", fixed

    def test_raise_a_spec_orders(self):
        row = verify_formal(get_record("I-F11-RAISE-A"), AS_STATED, P, 6, 12)
        assert row["status"] == "verified"

    def test_psi2_shift_x_spec_orders(self):
        row = verify_formal(get_record("I-PSI2-SHIFT-X"), AS_STATED, P, 4, 6)
        assert row["status"] == "verified"

    def test_lower_b_witness_structure(self):
        # first failure at the chi^1 constant column: the stated exponent
        # overshoots by one, so lhs - rhs at chi^1 equals the base series
        row = verify_formal(get_record("I-F11-LOWER-B"), AS_STATED, P, 2, 8)
        assert row["status"] == "mismatch"
        assert row["witness"]["monomial"] == "chi^1*x^0"
        assert Q(row["witness"]["lhs"]) == P.b
        assert Q(row["witness"]["rhs"]) == P.b - 1

    def test_lower_b_residual_slice_is_base_series(self):
        rec = get_record("I-F11-LOWER-B")
        p1 = Params1F1(P.a, P.b)
        caps = {"x": 8, "chi": 2}
        diff = lhs_series(rec, AS_STATED, p1, caps) - _sum_series(rec, _weights(rec, p1), caps)
        for k in range(8):
            assert diff.coefficient({"chi": 1, "x": k}) == f11_coeff(p1, k)

    def test_witness_reproducible(self):
        r1 = verify_formal(get_record("I-F11-RAISE-B"), AS_STATED, P, 3, 6)
        r2 = verify_formal(get_record("I-F11-RAISE-B"), AS_STATED, P, 3, 6)
        assert r1["witness"] == r2["witness"]

    def test_order_monotonicity(self):
        for n in range(0, 5):
            for m in (2, 5, 8):
                row = verify_formal(get_record("I-F11-RAISE-A"), AS_STATED, P, n, m)
                assert row["status"] == "verified"

    def test_degenerate_shift_rejected(self):
        # b = 2 hits b - l = 0 at l = 2 on the lowering side
        bad = ParamsPsi2(Q(1, 2), 2, Q(5, 7))
        with pytest.raises(DegenerateParameter):
            verify_formal(get_record("I-F11-LOWER-B"), AS_STATED, bad, 4, 6)
        with pytest.raises(DegenerateParameter):
            verify_numeric(get_record("I-F11-LOWER-B"), AS_STATED, bad, 0.1, 1e-8)

    def test_negative_orders_rejected(self):
        with pytest.raises(CapUnderflow):
            verify_formal(get_record("I-F11-RAISE-A"), AS_STATED, P, -1, 6)


def ref_verify_formal(record, variant, params, n_order, m_order):
    """``verify_formal`` as it was before the probe: both sides at the full caps."""
    p = hypfun.FAMILIES[record.family].narrow(params)
    caps = _caps_for(record, n_order, m_order)
    lhs = lhs_series(record, variant, p, caps)
    rhs = _sum_series(record, _weights(record, p), caps)
    witness = _first_mismatch(lhs, rhs)
    return {
        "id": record.rec_id,
        "variant": variant,
        "params": hypfun.param_strs(params),
        "orders": {"N": n_order, "M": m_order},
        "status": "verified" if witness is None else "mismatch",
        "witness": witness,
    }


def formal_outcome(verify, record, variant, point, n, m):
    """The row, or the exception's type and text."""
    try:
        return verify(record, variant, point, n, m)
    except DegenerateParameter as exc:
        return type(exc).__name__, str(exc)


# (f11 orders, psi2 orders): probe equal to the full box, a cap of 0, and
# boxes past the probe; b = c = 2 puts the lowering shifts on a pole at l = 2
PROBE_ORDERS = [((0, 0), (0, 0)), ((0, 3), (0, 3)), ((1, 1), (1, 1)), ((2, 5), (2, 5)),
                ((6, 12), (4, 6)), ((8, 16), (5, 8))]
DEGENERATE = ParamsPsi2(Q(1, 2), 2, 2)


class TestWitnessProbe:
    """``verify_formal`` compares the sides in the probe box first; its rows
    and errors are those of building both sides at the full caps."""

    @pytest.mark.parametrize("orders", PROBE_ORDERS, ids=str)
    def test_rows_equal_the_full_box(self, orders):
        for rec in catalogue():
            n, m = orders[rec.family == "psi2"]
            for variant in _variants(rec):
                for point in P_ALL + [DEGENERATE]:
                    assert formal_outcome(verify_formal, rec, variant, point, n, m) == \
                        formal_outcome(ref_verify_formal, rec, variant, point, n, m)

    @pytest.mark.parametrize("orders", PROBE_ORDERS, ids=str)
    def test_suite_rows_equal_the_full_box(self, orders):
        # one suite: the rows share power ladders
        report = run_suite(mode="formal", orders={"f11": orders[0], "psi2": orders[1]})
        expected = [
            ref_verify_formal(rec, variant, point, *orders[rec.family == "psi2"])
            for rec in catalogue() for variant in _variants(rec) for point in P_ALL
        ]
        drop = ("elapsed_ms", "mode")
        assert [{k: v for k, v in r.items() if k not in drop} for r in report["rows"]] == expected

    def test_degenerate_shift_raises_although_the_probe_finds_the_witness(self):
        rec = get_record("I-F11-LOWER-B")
        row = verify_formal(rec, AS_STATED, P, 6, 12)
        assert row["witness"]["monomial"] == "chi^1*x^0"
        # at b = 2 the probe's shifts b and b - 1 are fine, and b - 2 = 0 is not
        bad = ParamsPsi2(Q(1, 2), 2, Q(5, 7))
        with pytest.raises(DegenerateParameter):
            ref_verify_formal(rec, AS_STATED, bad, 6, 12)
        with pytest.raises(DegenerateParameter):
            verify_formal(rec, AS_STATED, bad, 6, 12)

    @pytest.mark.parametrize("rec_id", ["I-F11-RAISE-A", "I-F11-LOWER-B", "I-PSI2-LOWER-B"])
    def test_each_shifted_point_is_built_once_per_row(self, rec_id, monkeypatch):
        # the probe and the full box read one walk of the weights
        calls = []
        shifted = ActionRule.shifted
        monkeypatch.setattr(ActionRule, "shifted",
                            lambda self, p, times=1: calls.append(times) or shifted(self, p, times))
        verify_formal(get_record(rec_id), AS_STATED, P, 6, 4)
        assert calls == list(range(7))

    def _built_caps(self, monkeypatch):
        built = []
        inner = identities.lhs_series

        def counting(record, variant, p, caps):
            built.append(dict(caps))
            return inner(record, variant, p, caps)

        monkeypatch.setattr(identities, "lhs_series", counting)
        return built

    @pytest.mark.parametrize("rec_id", EXPECT_AS_STATED_MISMATCH)
    def test_probe_decides_the_as_stated_mismatches(self, rec_id, monkeypatch):
        built = self._built_caps(monkeypatch)
        row = verify_formal(get_record(rec_id), AS_STATED, P, 6, 12)
        assert row["status"] == "mismatch" and row["witness"]["monomial"] == "chi^1*x^0"
        assert built == [{"chi": 1, "x": 1}]

    @pytest.mark.parametrize("rec_id, variant, caps", [
        ("I-PSI2-SHIFT-X", AS_STATED, {"chi": 4, "x": 6, "y": 6}),
        ("I-F11-RAISE-A", AS_STATED, {"chi": 4, "x": 6}),
        ("I-F11-LOWER-A", CORRECTED, {"chi": 4, "x": 6}),
    ])
    def test_rows_the_invariant_cannot_excuse_build_one_full_box(self, rec_id, variant, caps,
                                                                  monkeypatch):
        built = self._built_caps(monkeypatch)
        row = verify_formal(get_record(rec_id), variant, P, 4, 6)
        assert row["status"] == "verified"
        assert built == [caps]

    @pytest.mark.parametrize("orders", [(1, 1), (0, 1), (0, 0)])
    def test_probe_that_is_the_full_box_is_built_once(self, orders, monkeypatch):
        built = self._built_caps(monkeypatch)
        verify_formal(get_record("I-F11-LOWER-B"), AS_STATED, P, *orders)
        assert len(built) == 1

    def test_mismatch_without_a_corrected_candidate_comes_from_the_full_box(self, monkeypatch):
        # no corrected candidate can excuse the row, so it builds no probe
        stripped = dataclasses.replace(get_record("I-F11-LOWER-B"), corrected=None)
        built = self._built_caps(monkeypatch)
        row = verify_formal(stripped, AS_STATED, P, 6, 12)
        assert built == [{"chi": 6, "x": 12}]
        assert row == ref_verify_formal(stripped, AS_STATED, P, 6, 12)
        assert row["witness"]["monomial"] == "chi^1*x^0"

    def test_witness_past_the_probe_comes_from_the_full_box(self, monkeypatch):
        # a cap of 0 leaves the probe only degree 0 to decide; the chi^1
        # witness lies outside it
        built = self._built_caps(monkeypatch)
        row = verify_formal(get_record("I-F11-LOWER-B"), AS_STATED, P, 2, 0)
        assert row["witness"]["monomial"] == "chi^1*x^0"
        assert built == [{"chi": 1, "x": 0}, {"chi": 2, "x": 0}]


def subtraction_witness(lhs, rhs):
    """The witness as the difference series gives it: its graded-lex least term."""
    diff = lhs - rhs
    if diff.is_zero():
        return None
    exps, _ = diff.sorted_terms()[0]
    key = dict(zip(diff.variables, exps))
    return {
        "monomial": "*".join(f"{v}^{e}" for v, e in key.items()) or "1",
        "lhs": str(lhs.coefficient(key)),
        "rhs": str(rhs.coefficient(key)),
    }


class TestFirstMismatch:
    CAPS = {"chi": 2, "x": 3}
    BASE = {(0, 0): Q(1), (0, 2): Q(-2, 3), (1, 1): Q(5, 7), (2, 3): Q(9)}

    def series(self, changes=()):
        return MultiSeries(self.CAPS, {**self.BASE, **dict(changes)})

    @pytest.mark.parametrize("lhs_changes, rhs_changes", [
        ({(0, 3): Q(4)}, {}),  # a key only on the left
        ({}, {(1, 0): Q(-1, 2)}),  # a key only on the right
        ({(1, 1): Q(5, 6)}, {}),  # a shared key with different values
        ({(1, 0): Q(1)}, {(0, 2): Q(0)}),  # the right side lacks a key of the left
        ({(2, 3): Q(1)}, {(0, 3): Q(-1)}),  # the lower total degree comes first
    ])
    def test_matches_the_subtraction_witness(self, lhs_changes, rhs_changes):
        lhs, rhs = self.series(lhs_changes), self.series(rhs_changes)
        witness = _first_mismatch(lhs, rhs)
        assert witness is not None
        assert witness == subtraction_witness(lhs, rhs)
        assert _first_mismatch(rhs, lhs) == subtraction_witness(rhs, lhs)

    def test_equal_sides_give_none(self):
        assert _first_mismatch(self.series(), self.series()) is None
        zero = MultiSeries.zero(self.CAPS)
        assert _first_mismatch(zero, zero) is None

    def test_differing_caps_raise(self):
        with pytest.raises(CapMismatch):
            _first_mismatch(self.series(), MultiSeries(self.CAPS | {"x": 4}, self.BASE))
        with pytest.raises(CapMismatch):
            _first_mismatch(self.series(), MultiSeries({"chi": 2, "y": 3}, self.BASE))

    def test_constant_monomial_reads_one(self):
        lhs, rhs = MultiSeries({}, {(): Q(2)}), MultiSeries({}, {(): Q(3)})
        assert _first_mismatch(lhs, rhs) == {"monomial": "1", "lhs": "2", "rhs": "3"}


class TestTaylorOracle:
    """Shift identities re-derived through iterated series derivatives."""

    def test_f11_shift_coefficients(self):
        p1 = Params1F1(P.a, P.b)
        order = 12
        base = f11_series(p1, order)
        deriv = base
        for l in range(5):
            # chi^l coefficient of the right side at inner order (order - l)
            rhs = f11_series(p1.shifted(l, l), order).scale(
                pochhammer(p1.a, l) / (factorial(l) * pochhammer(p1.b, l))
            )
            assert deriv.scale(Q(1, factorial(l))) == rhs.truncate(deriv.cap_map())
            deriv = deriv.derivative("x")

    def test_psi2_shift_x_coefficients(self):
        order = 6
        base = psi2_series(P, order, order)
        deriv = base
        for l in range(4):
            rhs = psi2_series(P.shifted(l, l, 0), order, order).scale(
                pochhammer(P.a, l) / (factorial(l) * pochhammer(P.b, l))
            )
            assert deriv.scale(Q(1, factorial(l))) == rhs.truncate(deriv.cap_map())
            deriv = deriv.derivative("x")

    def test_psi2_shift_y_coefficients(self):
        order = 6
        base = psi2_series(P, order, order)
        deriv = base
        for l in range(4):
            rhs = psi2_series(P.shifted(l, 0, l), order, order).scale(
                pochhammer(P.a, l) / (factorial(l) * pochhammer(P.c, l))
            )
            assert deriv.scale(Q(1, factorial(l))) == rhs.truncate(deriv.cap_map())
            deriv = deriv.derivative("y")


class TestOneLeftSide:
    """Each left side is one formula; its exact series, summed at a point
    well inside every domain, agrees with its float value there."""

    @pytest.mark.parametrize("point", P_ALL, ids=lambda p: f"a={p.a}")
    def test_exact_series_matches_float_value(self, point):
        t = Q(1, 16)
        for rec in catalogue():
            p = _family_params(rec, point)
            orders = (10, 8) if rec.family == "f11" else (10, 6)
            caps = _caps_for(rec, *orders)
            for name in _variants(rec):
                series = lhs_series(rec, name, p, caps)
                exact = float(series.evaluate(dict.fromkeys(caps, t)))
                value = lhs_value(rec, name, p, float(t), float(t), float(t), 1e-14)
                assert value == pytest.approx(exact, rel=1e-10), (rec.rec_id, name)


def flow_left_side(record, p, caps):
    """mu(chi) prod_v v(chi)^(p_v) F(flowed coordinates): the closed forms of
    the record's operator flow (``liealg.flow_spec``) on exact series, from
    the prefactor coordinates at 1 and the family coordinates at themselves,
    with alpha the chi series; the multiplier's float default 1.0 is the
    series 1."""
    fam = hypfun.FAMILIES[record.family]
    spec = liealg.flow_spec(record.op)
    chi = MultiSeries.variable("chi", caps)
    one = MultiSeries.constant(1, caps)
    prefactor = liealg._PREFACTOR_VARIABLES[record.family]
    s0 = {**dict.fromkeys(prefactor, one),
          **{v: MultiSeries.variable(v, caps) for v in fam.coords}}
    flowed = {v: spec.closed[v](s0, chi) if v in spec.closed else s0[v] for v in s0}
    mu = spec.multiplier_closed(s0, chi)
    if isinstance(mu, float):
        assert mu == 1.0
        mu = one
    for v, name in zip(prefactor, p.__match_args__):
        mu = mu * flowed[v] ** getattr(p, name)
    return mu * fam.compose(p, *(flowed[v] for v in fam.coords))


class TestLeftSidesAreStatedFlows:
    """Each as-stated left side is its operator's catalogued flow applied to
    y^a z^b F(x) (z^a u^b t^c F(x, y)) from the prefactor coordinates at 1,
    an independent link between ``liealg``'s flow table and the records;
    the corrected candidates are not."""

    @pytest.mark.parametrize("point", [*P_ALL, ParamsPsi2(Q(-7, 3), Q(9, 4), Q(5, 7))],
                             ids=lambda p: f"a={p.a}")
    @pytest.mark.parametrize("rec_id", [rec.rec_id for rec in catalogue()])
    def test_as_stated_left_side_is_the_flow(self, rec_id, point):
        rec = get_record(rec_id)
        p = _family_params(rec, point)
        caps = _caps_for(rec, 5, 6)
        flow = flow_left_side(rec, p, caps)
        assert lhs_series(rec, AS_STATED, p, caps) == flow
        if rec.corrected:
            assert lhs_series(rec, CORRECTED, p, caps) != flow


class TestVerifyNumeric:
    def test_raise_a_spec_point(self):
        row = verify_numeric(get_record("I-F11-RAISE-A"), AS_STATED, P, 0.3, 1e-10, x=0.25)
        assert row["status"] == "verified"

    def test_chi_zero_trivial(self):
        row = verify_numeric(get_record("I-PSI2-SHIFT-X"), AS_STATED, P, 0.0, 1e-12)
        assert row["status"] == "verified"

    def test_domain_gate(self):
        with pytest.raises(DomainViolation):
            verify_numeric(get_record("I-F11-RAISE-A"), AS_STATED, P, 1.5, 1e-8)

    def test_a_side_that_overflows_is_no_convergence(self):
        # (1 - chi)^-a overflows at a = 10^200
        p = ParamsPsi2(Q(10**200), P.b, P.c)
        with pytest.raises(NoConvergence, match=r"^I-F11-RAISE-A: a side overflows at chi=0\.1: "):
            verify_numeric(get_record("I-F11-RAISE-A"), AS_STATED, p, 0.1, 1e-8)

    @pytest.mark.parametrize("rec_id", ["I-F11-SHIFT", "I-PSI2-SHIFT-X"])
    def test_a_parameter_too_large_for_a_float_is_named(self, rec_id):
        p = ParamsPsi2(Q(10**400), P.b, P.c)
        with pytest.raises(ValueError, match="^parameter a is too large for a float$"):
            verify_numeric(get_record(rec_id), AS_STATED, p, 0.1, 1e-8)

    @pytest.mark.parametrize("chi", [0.1, 0.25])
    @pytest.mark.parametrize("rec_id", EXPECT_AS_STATED_VERIFIED)
    def test_formal_implies_numeric(self, rec_id, chi):
        row = verify_numeric(get_record(rec_id), AS_STATED, P, chi, 1e-8)
        assert row["status"] == "verified", row

    @pytest.mark.parametrize("rec_id", EXPECT_AS_STATED_MISMATCH)
    def test_mismatches_fail_numerically_too(self, rec_id):
        row = verify_numeric(get_record(rec_id), AS_STATED, P, 0.25, 1e-8)
        assert row["status"] == "mismatch"
        fixed = verify_numeric(get_record(rec_id), CORRECTED, P, 0.25, 1e-8)
        assert fixed["status"] == "verified"

    def test_chi_sum_converges(self):
        # w_l = 1 / l! and F(a;b;0) = 1, so the sum is exp(chi)
        value = _sum_float(EXPONENTIAL, Params1F1(P.a, P.b), 0.0, 0.0, 0.5, 1e-12)
        assert abs(value - math.exp(0.5)) <= 1e-11

    def test_chi_sum_raises_at_the_term_cap(self, monkeypatch):
        # the terms 30^l / l! still grow at l = 20
        monkeypatch.setattr(identities, "_CHI_SUM_TERM_CAP", 20)
        with pytest.raises(NoConvergence, match="in 20 terms"):
            _sum_float(EXPONENTIAL, Params1F1(P.a, P.b), 0.0, 0.0, 30.0, 1e-12)


# exp(chi I) F = exp(chi) F: weight 1/l! at every l and an unshifted member
EXPONENTIAL = IdentityRecord(
    rec_id="T-EXPONENTIAL",
    statement="exp(chi) F(a;b;x) = sum_l chi^l/l! F(a;b;x)",
    validity="entire in chi",
    op="f11.I",
    lhs=lambda F, exp, p, x, y, chi: exp(chi) * F(x),
)

# Each record's weight as written in its statement.
WEIGHT_REFERENCE = {
    "I-F11-RAISE-A": lambda p, l: pochhammer(p.a, l) / factorial(l),
    "I-F11-RAISE-B": lambda p, l: pochhammer(p.b - p.a, l)
    / (factorial(l) * pochhammer(p.b, l)) * (-1) ** l,
    "I-F11-LOWER-A": lambda p, l: pochhammer(p.b - p.a, l) / factorial(l),
    "I-F11-LOWER-B": lambda p, l: pochhammer(p.b - l, l) / factorial(l),
    "I-F11-SHIFT": lambda p, l: pochhammer(p.a, l) / (factorial(l) * pochhammer(p.b, l)),
    "I-PSI2-REDUCTION": lambda p, l: pochhammer(p.a, l) / factorial(l),
    "I-PSI2-LOWER-B": lambda p, l: pochhammer(p.b - l, l) / factorial(l),
    "I-PSI2-LOWER-C": lambda p, l: pochhammer(p.c - l, l) / factorial(l),
    "I-PSI2-SHIFT-X": lambda p, l: pochhammer(p.a, l) / (factorial(l) * pochhammer(p.b, l)),
    "I-PSI2-SHIFT-Y": lambda p, l: pochhammer(p.a, l) / (factorial(l) * pochhammer(p.c, l)),
}

# Every record's top parameter is a non-positive integer at one of these:
# a = -2 for the (a)_l weights, 1-b = 1-c = -2, and b-a = -2.
TERMINATING_POINTS = [ParamsPsi2(-2, 3, 3), ParamsPsi2(Q(10, 3), Q(4, 3), Q(5, 7))]


def _family_params(rec, point):
    return Params1F1(point.a, point.b) if rec.family == "f11" else point


def _walk(rec, p, n):
    """The first n weights of the record's chi-sum, checking each yielded
    point, and the index where the walk stopped: n, or the first l whose
    shifted point is degenerate, where the walk must raise."""
    rule = ACTION_RULES[rec.op]
    walk = _weights(rec, p)
    weights = []
    for l in range(n):
        try:
            q = rule.shifted(p, l)
        except DegenerateParameter:
            with pytest.raises(DegenerateParameter):
                next(walk)
            return weights, l
        w, point = next(walk)
        assert point == q
        weights.append(w)
    return weights, n


def _reference_sum(rec, p, n, m):
    """Terms of sum_l w_l F(p + l*shift) chi^l, one coefficient at a time."""
    terms = {}
    for l in range(n + 1):
        q = p.shifted(*(l * s for s in ACTION_RULES[rec.op].shift))
        w = WEIGHT_REFERENCE[rec.rec_id](p, l)
        if rec.family == "f11":
            for s in range(m + 1):
                terms[(l, s)] = w * f11_coeff(q, s)
        else:
            for i, j in itertools.product(range(m + 1), repeat=2):
                terms[(l, i, j)] = w * psi2_coeff(q, i, j)
    return terms


class TestRecordData:
    """A record states its family and its domain once: the family is its
    operator's prefix and the domain is looked up by its validity text."""

    def test_every_validity_text_has_a_domain(self):
        assert {rec.validity for rec in catalogue()} == set(identities._DOMAINS)

    def test_family_is_the_operator_prefix(self):
        assert {rec.rec_id: rec.family for rec in catalogue()} == {
            rec.rec_id: "psi2" if rec.rec_id.startswith("I-PSI2-") else "f11"
            for rec in catalogue()}
        assert EXPONENTIAL.family == "f11"

    def test_unknown_validity_text_raises_at_construction(self):
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(EXPONENTIAL, validity="|chi| < 2")
        assert str(exc.value) == "T-EXPONENTIAL: no domain for validity '|chi| < 2'"

    @pytest.mark.parametrize("chi, x", [(0.5, -1.5), (1.5, DEFAULT_EVAL_X), (-0.75, 2.5)])
    def test_domain_violation_text_is_unchanged(self, chi, x):
        # both halves of |chi| < 1 and |chi(1-x)| < 1 are checked
        with pytest.raises(DomainViolation) as exc:
            verify_numeric(get_record("I-F11-LOWER-A"), AS_STATED, P, chi, 1e-8, x)
        assert str(exc.value) == (f"I-F11-LOWER-A: chi={chi} outside validity domain "
                                  "(|chi| < 1 and |chi(1-x)| < 1)")


class TestSumSide:
    def test_records_name_an_operator_of_their_family(self):
        operators = operator_catalogue()
        for rec in catalogue():
            assert rec.op in operators and rec.op.startswith(rec.family + "."), rec.rec_id

    def test_reference_covers_the_catalogue(self):
        assert set(WEIGHT_REFERENCE) == {rec.rec_id for rec in catalogue()}

    @pytest.mark.parametrize("point", P_ALL + TERMINATING_POINTS,
                             ids=lambda p: f"a={p.a},b={p.b},c={p.c}")
    @pytest.mark.parametrize("rec_id", sorted(WEIGHT_REFERENCE))
    def test_weights_match_pochhammer_reference(self, rec_id, point):
        rec = get_record(rec_id)
        p = _family_params(rec, point)
        reference = [WEIGHT_REFERENCE[rec_id](p, l) for l in range(30)]
        weights, stop = _walk(rec, p, 30)
        assert weights == reference[:stop]
        # a lowering walk meets a degenerate member only where its weight vanishes
        assert stop == 30 or reference[stop] == 0

    @pytest.mark.parametrize("rec_id", sorted(WEIGHT_REFERENCE))
    def test_terminating_points_end_every_weight(self, rec_id):
        # the weights reach 0 and stay there, or, for a lowering walk, the
        # member at the first zero weight is degenerate and its point raises
        rec = get_record(rec_id)
        ended = False
        for q in TERMINATING_POINTS:
            p = _family_params(rec, q)
            weights, stop = _walk(rec, p, 10)
            if 0 in weights:
                first = weights.index(0)
                assert 0 < first < 10 and not any(weights[first:])
                ended = True
            elif stop < 10:
                assert 0 < stop and WEIGHT_REFERENCE[rec_id](p, stop) == 0
                ended = True
        assert ended

    @pytest.mark.parametrize("rec_id", ["I-F11-RAISE-A", "I-PSI2-LOWER-B"])
    def test_sum_series_builds_each_shifted_point_once(self, rec_id, monkeypatch):
        rec = get_record(rec_id)
        calls = []
        shifted = ActionRule.shifted
        monkeypatch.setattr(ActionRule, "shifted",
                            lambda self, p, times=1: calls.append(times) or shifted(self, p, times))
        n = 6
        p = P if rec.family == "psi2" else Params1F1(P.a, P.b)
        _sum_series(rec, _weights(rec, p), _caps_for(rec, n, 3))
        assert calls == list(range(n + 1))

    @pytest.mark.parametrize("point", P_ALL + TERMINATING_POINTS,
                             ids=lambda p: f"a={p.a},b={p.b},c={p.c}")
    @pytest.mark.parametrize("rec_id", sorted(WEIGHT_REFERENCE))
    def test_sum_side_matches_closed_form(self, rec_id, point):
        # N = 4 reaches w_l = 0 at the terminating points, and at (-2, 3, 3)
        # the lowering shifts reach b - 3 = 0 (c - 3 = 0) beyond it: the sum
        # side must still build every member and raise there.
        n, m = 4, 3
        rec = get_record(rec_id)
        p = _family_params(rec, point)
        family_vars = ("x",) if rec.family == "f11" else ("x", "y")
        caps = {"chi": n, **{v: m for v in family_vars}}
        try:
            expected = MultiSeries(caps, _reference_sum(rec, p, n, m))
        except DegenerateParameter:
            with pytest.raises(DegenerateParameter):
                _sum_series(rec, _weights(rec, p), caps)
            return
        assert _sum_series(rec, _weights(rec, p), caps) == expected

    @pytest.mark.parametrize("point", P_ALL, ids=lambda p: f"a={p.a}")
    def test_reduction_sum_side_is_the_triple_series(self, point):
        n, m = DEFAULT_PSI2_ORDERS
        rec = get_record("I-PSI2-REDUCTION")
        # the third index, bottomless, runs on chi, which sorts before x and y
        triple = series.horn_series(("chi", "x", "y"), (n, m, m),
                                    [(point.a, [(), (point.b,), (point.c,)], Q(1), ())])
        assert _sum_series(rec, _weights(rec, point), {"x": m, "y": m, "chi": n}) == triple

    @pytest.mark.parametrize("chi", [0.1, 0.25])
    @pytest.mark.parametrize("point", P_ALL, ids=lambda p: f"a={p.a}")
    def test_reduction_float_sum_side_is_the_triple_sum(self, point, chi):
        rec = get_record("I-PSI2-REDUCTION")
        x, y = DEFAULT_EVAL_X, DEFAULT_EVAL_Y
        value = _sum_float(rec, point, x, y, chi, 1e-12)
        triple = psi2_3var_eval_float(point, x, y, chi, 1e-12)
        assert abs(value - triple) <= 1e-11 * abs(triple)


class TestRunSuite:
    def test_default_formal_suite(self):
        report = run_suite(mode="formal")
        assert report["summary"]["records"] == 10
        assert report["summary"]["rows"] == 39  # 30 as-stated + 9 corrected
        assert report["summary"]["as_stated_verified"] == 21
        assert report["summary"]["as_stated_mismatched"] == 9
        assert report["summary"]["unresolved_failures"] == 0
        assert invariant_ok(report)

    def test_numeric_rows_per_record_and_chi(self):
        report = run_suite(mode="numeric", chi_grid=(0.1, 0.25, 0.5),
                           param_points=[P])
        # 13 record-variants x 1 point x 3 chi values
        assert report["summary"]["rows"] == 13 * 3
        assert invariant_ok(report)

    def test_empty_catalogue_hook(self):
        report = run_suite(records=[])
        assert report["rows"] == []
        assert report["summary"]["rows"] == 0
        assert report["summary"]["unresolved_failures"] == 0

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            run_suite(param_points=[])

    def test_unpaired_mismatch_fails_suite(self):
        broken = get_record("I-F11-LOWER-B")
        stripped = dataclasses.replace(broken, corrected=None)
        report = run_suite(records=[stripped], param_points=[P])
        assert not invariant_ok(report)
        assert report["summary"]["unresolved_failures"] == 1

    def test_mismatched_corrected_candidate_fails_suite(self):
        # the as-stated form verifies; a wrong candidate is still a failure
        rec = dataclasses.replace(get_record("I-F11-SHIFT"),
                                  corrected=lambda F, exp, p, x, y, chi: F(x + chi + chi))
        report = run_suite(records=[rec], param_points=[P])
        assert [(r["variant"], r["status"]) for r in report["rows"]] == \
            [(AS_STATED, "verified"), (CORRECTED, "mismatch")]
        assert report["summary"]["unresolved_failures"] == 1
        assert not invariant_ok(report)

    def test_given_records_are_the_ones_verified(self):
        # a record handed to run_suite is checked as given, not looked up by id
        rec = get_record("I-F11-SHIFT")
        doubled = dataclasses.replace(
            rec, lhs=lambda F, exp, p, x, y, chi: F(x + chi) + F(x + chi))
        report = run_suite(records=[doubled], param_points=[P], mode="both")
        assert [r["status"] for r in report["rows"]] == ["mismatch"] * 3
        renamed = dataclasses.replace(rec, rec_id="I-NEW")
        report = run_suite(records=[renamed], param_points=[P], mode="both")
        assert [(r["id"], r["status"]) for r in report["rows"]] == [("I-NEW", "verified")] * 3

    def test_deterministic_rows(self):
        r1 = run_suite(mode="formal", param_points=[P])
        r2 = run_suite(mode="formal", param_points=[P])
        strip = lambda rows: [
            {k: v for k, v in row.items() if k != "elapsed_ms"} for row in rows
        ]
        assert strip(r1["rows"]) == strip(r2["rows"])


def _count_f11_sums(monkeypatch) -> list:
    """The arguments of every 1F1 loop run from here on."""
    summed = []
    inner = hypfun._f11_sum

    def counting(*args):
        summed.append(args)
        return inner(*args)

    monkeypatch.setattr(hypfun, "_f11_sum", counting)
    return summed


class TestSuiteSharesFloatSums:
    """``run_suite`` sums each float member once per call, and its rows are
    those of separate ``verify_numeric`` calls made outside any suite."""

    CHI = (0.1, 0.25, -0.5)

    @pytest.mark.parametrize("tol", [1e-8, 1e-18])
    def test_rows_equal_separate_calls(self, tol):
        # at tol 1e-18 most rows are mismatches whose witness holds the repr
        # of both sides, so those floats are compared bit for bit
        report = run_suite(mode="numeric", chi_grid=self.CHI, tol=tol)
        expected = [
            verify_numeric(rec, variant, point, chi, tol)
            for rec in catalogue()
            for variant in _variants(rec)
            for point in P_ALL
            for chi in self.CHI
        ]
        drop = ("elapsed_ms", "mode", "orders")
        assert [{k: v for k, v in r.items() if k not in drop} for r in report["rows"]] == expected
        if tol < 1e-16:
            assert sum(r["witness"] is not None for r in expected) > len(expected) // 2

    def test_each_member_is_summed_once(self, monkeypatch):
        summed = _count_f11_sums(monkeypatch)
        run_suite(mode="numeric", chi_grid=self.CHI)
        keys = [args[:4] for args in summed]  # (a, b, x, rel_tol) without the cap
        assert len(keys) == len(set(keys))

    def test_ladders_are_shared_and_the_scope_ends_with_the_suite(self, monkeypatch):
        handed = {}
        calls = []
        inner = series._power_ladder

        def recording(u, caps, bound):
            ladder = inner(u, caps, bound)
            calls.append(ladder)
            handed.setdefault((caps, bound, frozenset(u.items())), set()).add(id(ladder))
            return ladder

        monkeypatch.setattr(series, "_power_ladder", recording)
        run_suite(mode="formal")
        assert series._MEMO.get() is None
        # arguments recur, and each one met again is handed the ladder built
        # the first time
        assert len(calls) > 2 * len(handed)
        assert all(len(ids) == 1 for ids in handed.values())

    def test_ladder_scope_ends_when_the_formal_suite_raises(self):
        # b = 2 puts I-F11-LOWER-B on a pole after the records before it
        # have composed their left sides
        with pytest.raises(DegenerateParameter):
            run_suite(mode="formal", param_points=[ParamsPsi2(Q(1, 2), 2, Q(5, 7))])
        assert series._MEMO.get() is None

    def test_scope_ends_when_the_suite_raises(self, monkeypatch):
        # chi = 1.5 is outside the first record's domain |chi| < 1; the rows
        # at chi = 0.1 before it have summed members
        with pytest.raises(DomainViolation):
            run_suite(mode="numeric", chi_grid=(0.1, 1.5))
        assert series._MEMO.get() is None
        summed = _count_f11_sums(monkeypatch)
        p = Params1F1(Q(1, 2), Q(4, 3))
        assert f11_eval_float(p, 0.25, 1e-8) == f11_eval_float(p, 0.25, 1e-8)
        assert len(summed) == 2


class TestSuiteKeepsWalks:
    """Inside one suite a chi-sum's weights are walked once per operator and
    point, and a composition's Horn weights once per top parameter and
    axes; every row is the one made outside the suite."""

    LOWER_B = get_record("I-F11-LOWER-B")
    # b = 2 puts the lowering shift b - 2 on a pole at l = 2
    BAD = ParamsPsi2(Q(1, 2), 2, Q(5, 7))

    @staticmethod
    def walk(rec, p):
        return series._MEMO.get()[("chi weights", rec.op, p)]

    def test_numeric_row_leaves_the_walk_for_a_formal_row_to_extend(self):
        rec = get_record("I-F11-RAISE-A")
        p = Params1F1(P.a, P.b)
        outside = (verify_numeric(rec, AS_STATED, P, 0.1, 1e-8),
                   verify_formal(rec, AS_STATED, P, 16, 4),
                   verify_numeric(rec, AS_STATED, P, 0.25, 1e-8))
        with series._shared_work():
            numeric = verify_numeric(rec, AS_STATED, P, 0.1, 1e-8)
            walk = self.walk(rec, p)
            stopped = len(walk)
            assert 7 <= stopped < 17
            formal = verify_formal(rec, AS_STATED, P, 16, 4)
            assert self.walk(rec, p) is walk and len(walk) == 17
            kept = list(walk)
            # a numeric row that stops inside the walk reads the kept pairs
            assert verify_numeric(rec, AS_STATED, P, 0.25, 1e-8) == outside[2]
            assert walk == kept
        assert (numeric, formal) == outside[:2]

    def test_formal_row_leaves_the_walk_for_a_numeric_row_to_extend(self):
        rec = get_record("I-PSI2-SHIFT-Y")
        outside = (verify_formal(rec, AS_STATED, P, 2, 3),
                   verify_numeric(rec, AS_STATED, P, 0.25, 1e-8))
        with series._shared_work():
            formal = verify_formal(rec, AS_STATED, P, 2, 3)
            assert len(self.walk(rec, P)) == 3
            numeric = verify_numeric(rec, AS_STATED, P, 0.25, 1e-8)
            assert len(self.walk(rec, P)) > 3
        assert (formal, numeric) == outside

    def test_degenerate_shift_raises_for_every_row_that_reaches_it(self):
        with pytest.raises(DegenerateParameter) as alone:
            verify_formal(self.LOWER_B, AS_STATED, self.BAD, 6, 12)
        with series._shared_work():
            for row in (lambda: verify_numeric(self.LOWER_B, AS_STATED, self.BAD, 0.1, 1e-8),
                        lambda: verify_formal(self.LOWER_B, AS_STATED, self.BAD, 6, 12),
                        lambda: verify_formal(self.LOWER_B, CORRECTED, self.BAD, 6, 12),
                        lambda: verify_formal(self.LOWER_B, AS_STATED, self.BAD, 6, 12)):
                with pytest.raises(DegenerateParameter) as shared:
                    row()
                assert str(shared.value) == str(alone.value)
                # the pairs before the pole stay as they were
                assert len(self.walk(self.LOWER_B, Params1F1(self.BAD.a, self.BAD.b))) == 2
        with pytest.raises(DegenerateParameter, match=str(alone.value)):
            run_suite(records=[self.LOWER_B], param_points=[self.BAD], mode="both")

    def test_one_weight_walk_per_operator_and_point(self, monkeypatch):
        walks = []
        kept = series._kept

        def building(key, build, *args):
            if key[0] == "chi weights":
                return kept(key, lambda: walks.append(key[1:]) or build(*args))
            return kept(key, build, *args)

        monkeypatch.setattr(identities, "_kept", building)
        run_suite(mode="both")
        assert len(walks) == len(set(walks)) == len(catalogue()) * len(P_ALL)

    def test_horn_weights_are_walked_once_per_top_and_axes(self, monkeypatch):
        asked, walked = [], []
        kept, numerators = series._kept, series._horn_numerators

        def asking(key, build, *args):
            if key[0] == "horn weights":
                asked.append(key)
            return kept(key, build, *args)

        def walking(*args):
            # horn_compose walks from start 1 without a lead; horn_series
            # passes a lead
            if len(args) == 4:
                walked.append(args)
            return numerators(*args)

        monkeypatch.setattr(series, "_kept", asking)
        monkeypatch.setattr(series, "_horn_numerators", walking)
        run_suite(mode="formal", orders={"f11": (8, 16), "psi2": (5, 8)})
        assert (len(asked), len(set(asked)), len(walked)) == (96, 46, 46)


class TestReportSerialization:
    def test_json_schema_fields(self):
        report = run_suite(mode="formal", param_points=[P])
        payload = json.loads(report_to_json(report))
        assert payload["scope"] == "identities"
        assert payload["engine_version"]
        row = payload["rows"][0]
        for key in ("id", "variant", "params", "orders", "status", "witness", "elapsed_ms"):
            assert key in row

    def test_json_dumps_the_payload(self):
        report = run_suite(mode="formal", param_points=[P])
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert report_to_json(report) == text

    def test_strip_timing_makes_bytes_stable(self):
        r1 = run_suite(mode="formal", param_points=[P])
        r2 = run_suite(mode="formal", param_points=[P])
        assert strip_timing(report_to_json(r1)) == strip_timing(report_to_json(r2))

    def test_markdown_contains_rows(self):
        report = run_suite(mode="formal", param_points=[P])
        md = report_to_markdown(report)
        assert "I-F11-RAISE-A" in md
        assert "| verified |" in md or "verified" in md
        assert "unresolved_failures=0" in md
