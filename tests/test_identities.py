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
from hypersym.hypfun import (
    ACTION_RULES,
    NoConvergence,
    Params1F1,
    ParamsPsi2,
    f11_coeff,
    f11_series,
    psi2_coeff,
    psi2_3var_eval_float,
    psi2_3var_series,
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
    SuiteFailure,
    _caps_for,
    _sum_float,
    _sum_series,
    _weights,
    catalogue,
    default_param_points,
    get_record,
    lhs_series,
    lhs_value,
    report_payload,
    report_to_json,
    report_to_markdown,
    run_suite,
    strip_timing,
    verify_formal,
    verify_numeric,
)
from hypersym.liealg import catalogue as operator_catalogue
from hypersym.series import MultiSeries

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
        with_corr = {r.rec_id for r in catalogue() if r.has_correction()}
        assert with_corr == set(EXPECT_AS_STATED_MISMATCH)

    def test_unknown_record(self):
        with pytest.raises(KeyError):
            get_record("I-NOPE")

    def test_built_once(self):
        cat = catalogue()
        assert isinstance(cat, tuple)
        assert catalogue() is cat
        assert all(get_record(r.rec_id) is r for r in cat)

    def test_chi0_consistency_every_record_and_variant(self):
        # at deformation order zero both sides are the undeformed function
        for rec in catalogue():
            for variant in rec.variants:
                row = verify_formal(rec.rec_id, variant, P, 0, 6)
                assert row["status"] == "verified", (rec.rec_id, variant, row)

    def test_shift_record_at_x_cap_zero_is_base_series(self):
        # the x-degree-0 column of the shifted family member is the series
        # in chi itself
        rec = get_record("I-F11-SHIFT")
        p1 = Params1F1(P.a, P.b)
        lhs = lhs_series(rec, rec.variant(AS_STATED), p1, {"x": 0, "chi": 6})
        base = f11_series(p1, 6, var="chi").extend({"x": 0})
        assert lhs == base


class TestVerifyFormal:
    @pytest.mark.parametrize("rec_id", EXPECT_AS_STATED_VERIFIED)
    @pytest.mark.parametrize("point", P_ALL, ids=lambda p: f"a={p.a}")
    def test_as_stated_verified(self, rec_id, point):
        fam = get_record(rec_id).family
        n, m = (4, 8) if fam == "f11" else (3, 4)
        row = verify_formal(rec_id, AS_STATED, point, n, m)
        assert row["status"] == "verified", row

    @pytest.mark.parametrize("rec_id", EXPECT_AS_STATED_MISMATCH)
    @pytest.mark.parametrize("point", P_ALL, ids=lambda p: f"a={p.a}")
    def test_as_stated_mismatch_with_verified_correction(self, rec_id, point):
        row = verify_formal(rec_id, AS_STATED, point, 2, 6)
        assert row["status"] == "mismatch"
        assert row["witness"] is not None
        fixed = verify_formal(rec_id, CORRECTED, point, 4, 8)
        assert fixed["status"] == "verified", fixed

    def test_raise_a_spec_orders(self):
        row = verify_formal("I-F11-RAISE-A", AS_STATED, P, 6, 12)
        assert row["status"] == "verified"

    def test_psi2_shift_x_spec_orders(self):
        row = verify_formal("I-PSI2-SHIFT-X", AS_STATED, P, 4, 6)
        assert row["status"] == "verified"

    def test_lower_b_witness_structure(self):
        # first failure at the chi^1 constant column: the stated exponent
        # overshoots by one, so lhs - rhs at chi^1 equals the base series
        row = verify_formal("I-F11-LOWER-B", AS_STATED, P, 2, 8)
        assert row["status"] == "mismatch"
        assert row["witness"]["monomial"] == "chi^1*x^0"
        assert Q(row["witness"]["lhs"]) == P.b
        assert Q(row["witness"]["rhs"]) == P.b - 1

    def test_lower_b_residual_slice_is_base_series(self):
        rec = get_record("I-F11-LOWER-B")
        p1 = Params1F1(P.a, P.b)
        caps = {"x": 8, "chi": 2}
        diff = lhs_series(rec, rec.variant(AS_STATED), p1, caps) - _sum_series(rec, p1, caps)
        for k in range(8):
            assert diff.coefficient({"chi": 1, "x": k}) == f11_coeff(p1, k)

    def test_witness_reproducible(self):
        r1 = verify_formal("I-F11-RAISE-B", AS_STATED, P, 3, 6)
        r2 = verify_formal("I-F11-RAISE-B", AS_STATED, P, 3, 6)
        assert r1["witness"] == r2["witness"]

    def test_order_monotonicity(self):
        for n in range(0, 5):
            for m in (2, 5, 8):
                row = verify_formal("I-F11-RAISE-A", AS_STATED, P, n, m)
                assert row["status"] == "verified"

    def test_degenerate_shift_rejected(self):
        # b = 2 hits b - l = 0 at l = 2 on the lowering side
        bad = ParamsPsi2(Q(1, 2), 2, Q(5, 7))
        with pytest.raises(DegenerateParameter):
            verify_formal("I-F11-LOWER-B", AS_STATED, bad, 4, 6)
        with pytest.raises(DegenerateParameter):
            verify_numeric("I-F11-LOWER-B", AS_STATED, bad, 0.1, 1e-8)

    def test_negative_orders_rejected(self):
        with pytest.raises(CapUnderflow):
            verify_formal("I-F11-RAISE-A", AS_STATED, P, -1, 6)


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
            for name, var in rec.variants.items():
                series = lhs_series(rec, var, p, caps)
                exact = float(series.evaluate(dict.fromkeys(caps, t)))
                value = lhs_value(rec, var, p, float(t), float(t), float(t), 1e-14)
                assert value == pytest.approx(exact, rel=1e-10), (rec.rec_id, name)


class TestVerifyNumeric:
    def test_raise_a_spec_point(self):
        row = verify_numeric("I-F11-RAISE-A", AS_STATED, P, 0.3, 1e-10, x=0.25)
        assert row["status"] == "verified"

    def test_chi_zero_trivial(self):
        row = verify_numeric("I-PSI2-SHIFT-X", AS_STATED, P, 0.0, 1e-12)
        assert row["status"] == "verified"

    def test_domain_gate(self):
        with pytest.raises(DomainViolation):
            verify_numeric("I-F11-RAISE-A", AS_STATED, P, 1.5, 1e-8)

    @pytest.mark.parametrize("chi", [0.1, 0.25])
    @pytest.mark.parametrize("rec_id", EXPECT_AS_STATED_VERIFIED)
    def test_formal_implies_numeric(self, rec_id, chi):
        row = verify_numeric(rec_id, AS_STATED, P, chi, 1e-8)
        assert row["status"] == "verified", row

    @pytest.mark.parametrize("rec_id", EXPECT_AS_STATED_MISMATCH)
    def test_mismatches_fail_numerically_too(self, rec_id):
        row = verify_numeric(rec_id, AS_STATED, P, 0.25, 1e-8)
        assert row["status"] == "mismatch"
        fixed = verify_numeric(rec_id, CORRECTED, P, 0.25, 1e-8)
        assert fixed["status"] == "verified"

    def test_chi_sum_converges(self):
        # w_l = 1 / l! and F(a;b;0) = 1, so the sum is exp(chi)
        value = _sum_float(EXPONENTIAL, Params1F1(P.a, P.b), 0.0, 0.0, 0.5, 1e-12)
        assert abs(value - math.exp(0.5)) <= 1e-11

    def test_chi_sum_raises_at_the_term_cap(self):
        # the terms 30^l / l! still grow at l = 20
        with pytest.raises(NoConvergence):
            _sum_float(EXPONENTIAL, Params1F1(P.a, P.b), 0.0, 0.0, 30.0, 1e-12, max_terms=20)


# exp(chi I) F = exp(chi) F: weight 1/l! at every l and an unshifted member
EXPONENTIAL = IdentityRecord(
    rec_id="T-EXPONENTIAL",
    family="f11",
    statement="exp(chi) F(a;b;x) = sum_l chi^l/l! F(a;b;x)",
    validity="entire in chi",
    domain_ok=lambda x, y, chi: True,
    op="f11.I",
    variants={},
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
        assert list(itertools.islice(_weights(rec, p), 30)) == reference

    @pytest.mark.parametrize("rec_id", sorted(WEIGHT_REFERENCE))
    def test_terminating_points_end_every_weight(self, rec_id):
        rec = get_record(rec_id)
        ended = False
        for q in TERMINATING_POINTS:
            weights = list(itertools.islice(_weights(rec, _family_params(rec, q)), 10))
            if 0 in weights:
                first = weights.index(0)
                assert 0 < first < 10 and not any(weights[first:])
                ended = True
        assert ended

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
                _sum_series(rec, p, caps)
            return
        assert _sum_series(rec, p, caps) == expected

    @pytest.mark.parametrize("point", P_ALL, ids=lambda p: f"a={p.a}")
    def test_reduction_sum_side_is_the_triple_series(self, point):
        n, m = DEFAULT_PSI2_ORDERS
        rec = get_record("I-PSI2-REDUCTION")
        triple = psi2_3var_series(point, m, m, n, var_z="chi")
        assert _sum_series(rec, point, {"x": m, "y": m, "chi": n}) == triple

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
        assert report.summary["records"] == 10
        assert report.summary["rows"] == 39  # 30 as-stated + 9 corrected
        assert report.summary["as_stated_verified"] == 21
        assert report.summary["as_stated_mismatched"] == 9
        assert report.summary["unresolved_failures"] == 0
        assert report.invariant_ok()

    def test_numeric_rows_per_record_and_chi(self):
        report = run_suite(mode="numeric", chi_grid=(0.1, 0.25, 0.5),
                           param_points=[P])
        # 13 record-variants x 1 point x 3 chi values
        assert report.summary["rows"] == 13 * 3
        assert report.invariant_ok()

    def test_empty_catalogue_hook(self):
        report = run_suite(records=[])
        assert report.rows == []
        assert report.summary["rows"] == 0
        assert report.summary["unresolved_failures"] == 0

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            run_suite(param_points=[])

    def test_unpaired_mismatch_fails_suite(self):
        broken = get_record("I-F11-LOWER-B")
        stripped = dataclasses.replace(broken, variants={AS_STATED: broken.variant(AS_STATED)})
        with pytest.raises(SuiteFailure) as exc:
            run_suite(records=[stripped], param_points=[P])
        assert exc.value.report.summary["unresolved_failures"] == 1

    def test_deterministic_rows(self):
        r1 = run_suite(mode="formal", param_points=[P])
        r2 = run_suite(mode="formal", param_points=[P])
        strip = lambda rows: [
            {k: v for k, v in row.items() if k != "elapsed_ms"} for row in rows
        ]
        assert strip(r1.rows) == strip(r2.rows)


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
        text = json.dumps(report_payload(report), indent=2, sort_keys=True) + "\n"
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
