import itertools
import random
from fractions import Fraction as Q

import pytest

from hypersym.hypfun import ACTION_RULES, Params1F1, ParamsPsi2
from hypersym import liealg
from hypersym.liealg import (
    BasisFamily,
    DiffOperator,
    FLOW_IDS,
    SingularFlow,
    action_suite,
    build_catalogue,
    catalogue,
    commutator,
    expected_action,
    express_in_span,
    family_operator_ids,
    flow_check,
    flow_spec,
    flow_suite,
    realize,
    verify_action,
)
from hypersym.series import MultiSeries, PrefactorSeries, UnknownVariable

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
            cat["f11.I"] = DiffOperator.zero()

        def rebuild():
            raise AssertionError("catalogue rebuilt")

        monkeypatch.setattr(liealg, "build_catalogue", rebuild)
        monkeypatch.setattr(liealg, "_flow_specs", rebuild)
        rows = action_suite(P_F11[:1], P_PSI2[:1], 4)
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


class TestApply:
    def test_maintenance_eigenvalue(self):
        p = P_PSI2[0]
        g = realize(BasisFamily("psi2", p), 4)
        assert CAT["psi2.I_a"].apply(g) == g.scale(p.a)
        assert CAT["psi2.I_b"].apply(g) == g.scale(p.b)
        assert CAT["psi2.I_c"].apply(g) == g.scale(p.c)

    def test_shift_action_at_reduced_cap(self):
        # raising both parameters: result trusted one order below the input
        p = P_F11[0]
        g = realize(BasisFamily("f11", p), 6)
        out = CAT["f11.E_ab"].apply(g)
        assert out.body.cap_map() == {"x": 5}
        shifted = realize(BasisFamily("f11", p.shifted(1, 1)), 6)
        expected = shifted.scale(p.a / p.b).truncate({"x": 5})
        assert out == expected

    def test_zero_operator(self):
        g = realize(BasisFamily("f11", P_F11[0]), 4)
        assert DiffOperator.zero().apply(g).is_zero()

    def test_linearity(self):
        p = P_F11[0]
        op = CAT["f11.E_a"]
        f = realize(BasisFamily("f11", p), 6)
        g = f.scale(Q(3, 7))
        lhs = op.apply(f + g)
        rhs = op.apply(f) + op.apply(g)
        assert lhs == rhs

    def test_unknown_variable_rejected(self):
        body = MultiSeries.constant(1, {"x": 3})
        f = PrefactorSeries(body, {"y": Q(1, 2)})  # no u anywhere
        with pytest.raises(UnknownVariable):
            CAT["psi2.E_b"].apply(f)


class TestExpectedAction:
    def test_one_rule_per_catalogued_operator(self):
        assert list(ACTION_RULES) == list(CAT)

    def test_psi2_raise_coefficient(self):
        rule = expected_action("psi2.E_a", BasisFamily("psi2", P_PSI2[0]))
        assert rule.coefficient(P_PSI2[0]) == Q(1, 2)
        assert rule.shift == (1, 0, 0)

    def test_f11_lower_b_coefficient(self):
        p = P_F11[0]
        rule = expected_action("f11.E_b'", BasisFamily("f11", p))
        assert rule.coefficient(p) == p.b - 1 == Q(1, 3)
        assert rule.shift == (0, -1)

    def test_f11_shift_coefficient(self):
        p = P_F11[0]
        rule = expected_action("f11.E_ab", BasisFamily("f11", p))
        assert rule.coefficient(p) == Q(3, 8)
        assert rule.shift == (1, 1)

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expected_action("psi2.E_a", BasisFamily("f11", P_F11[0]))


class TestVerifyAction:
    @pytest.mark.parametrize("p", P_F11, ids=lambda p: f"a={p.a}")
    @pytest.mark.parametrize("name", ["E_a", "E_a'", "E_b", "E_b'", "E_ab", "I_a", "I_b", "I"])
    def test_f11_actions(self, name, p):
        row = verify_action(f"f11.{name}", BasisFamily("f11", p), 12)
        assert row["status"] == "PASS", row

    @pytest.mark.parametrize("p", P_PSI2, ids=lambda p: f"a={p.a}")
    @pytest.mark.parametrize("name", ["E_a", "E_b", "E_c", "E_ab", "E_ac", "I_a", "I_b", "I_c", "I"])
    def test_psi2_actions(self, name, p):
        row = verify_action(f"psi2.{name}", BasisFamily("psi2", p), 12)
        assert row["status"] == "PASS", row

    def test_spec_point_e_ac(self):
        row = verify_action(
            "psi2.E_ac", BasisFamily("psi2", ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))), 8
        )
        assert row["status"] == "PASS"

    def test_displayed_e_a_form_fails(self):
        # the variant without the x factor does not reproduce the action;
        # this is why the operative form is installed
        displayed = DiffOperator.term(1, {"y": 1}, "x") + DiffOperator.term(1, {"y": 2}, "y")
        p = P_F11[0]
        g = realize(BasisFamily("f11", p), 8)
        out = displayed.apply(g)
        shifted = realize(BasisFamily("f11", p.shifted(1, 0)), 8)
        caps = {"x": 7}
        assert out.truncate(caps) != shifted.scale(p.a).truncate(caps)

    def test_iterated_raising_composes(self):
        p = P_F11[0]
        g = realize(BasisFamily("f11", p), 8)
        twice = CAT["f11.E_a"].apply(CAT["f11.E_a"].apply(g))
        target = realize(BasisFamily("f11", p.shifted(2, 0)), 8).scale(
            p.a * (p.a + 1)
        )
        caps = twice.body.cap_map()
        assert twice == target.truncate(caps)

    def test_action_suite_all_pass(self):
        rows = action_suite(P_F11, P_PSI2, 8)
        assert len(rows) == (8 + 9) * 3
        assert all(r["status"] == "PASS" for r in rows)


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

    def test_second_order_always_cancels(self):
        # first-order operators close under commutation to first order; the
        # internal guard never fires on catalogued input
        for fam in ("f11", "psi2"):
            ids = family_operator_ids(fam)
            for a, b in itertools.combinations(ids, 2):
                commutator(CAT[a], CAT[b])  # would raise on a survivor


class TestSpan:
    def test_basis_member(self):
        basis = {i: CAT[i] for i in family_operator_ids("psi2")}
        res = express_in_span(CAT["psi2.E_a"], basis)
        assert res.in_span
        assert res.coefficients["psi2.E_a"] == 1
        assert all(v == 0 for k, v in res.coefficients.items() if k != "psi2.E_a")

    def test_zero_operator(self):
        basis = {i: CAT[i] for i in family_operator_ids("f11")}
        res = express_in_span(DiffOperator.zero(), basis)
        assert res.in_span
        assert all(v == 0 for v in res.coefficients.values())

    def test_graded_commutator_in_span(self):
        basis = {i: CAT[i] for i in family_operator_ids("psi2")}
        c = commutator(CAT["psi2.I_a"], CAT["psi2.E_a"])
        res = express_in_span(c, basis)
        assert res.in_span
        assert res.coefficients["psi2.E_a"] == 1
        assert sum(1 for v in res.coefficients.values() if v != 0) == 1

    def test_reconstruction_exact(self):
        basis = {i: CAT[i] for i in family_operator_ids("f11")}
        res = express_in_span(commutator(CAT["f11.E_a"], CAT["f11.E_a'"]), basis)
        assert res.in_span
        total = DiffOperator.zero()
        for name, coeff in res.coefficients.items():
            total = total + basis[name].scale(coeff)
        assert total == commutator(CAT["f11.E_a"], CAT["f11.E_a'"])

    def test_f11_family_does_not_close(self):
        # the lone escaping pair: mixed inverse monomials fall outside the span
        basis = {i: CAT[i] for i in family_operator_ids("f11")}
        res = express_in_span(commutator(CAT["f11.E_a'"], CAT["f11.E_b'"]), basis)
        assert not res.in_span
        assert res.residual is not None and not res.residual.is_zero()

    def test_psi2_family_closes(self):
        basis = {i: CAT[i] for i in family_operator_ids("psi2")}
        ids = family_operator_ids("psi2")
        for a, b in itertools.combinations(ids, 2):
            res = express_in_span(commutator(CAT[a], CAT[b]), basis)
            assert res.in_span, (a, b, res.residual and res.residual.pretty())


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
