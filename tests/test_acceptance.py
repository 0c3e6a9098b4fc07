"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines with their runtimes.
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction as Q

import pytest

from hypersym.exactnum import DegenerateParameter
from hypersym.hypfun import (
    Params1F1,
    ParamsPsi2,
    RECURSION_IDS,
    f11_eval_float,
    f11_series,
    psi2_eval_float,
    psi2_series,
    verify_recursion,
)
from hypersym.identities import (
    AS_STATED,
    get_record,
    invariant_ok,
    run_suite,
    strip_timing,
    verify_formal,
    verify_numeric,
)
from hypersym.liealg import (
    FLOW_IDS,
    SpanBasis,
    action_suite,
    build_catalogue,
    commutator,
    express_in_span,
    family_operator_ids,
    flow_check,
    flow_spec,
)

F11_POINTS = [
    Params1F1(Q(1, 2), Q(4, 3)),
    Params1F1(Q(3, 2), Q(7, 3)),
    Params1F1(Q(2, 5), Q(9, 4)),
]
PSI2_POINTS = [
    ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7)),
    ParamsPsi2(Q(3, 2), Q(7, 3), Q(11, 6)),
    ParamsPsi2(Q(2, 5), Q(9, 4), Q(5, 7)),
]
FLOW_START = {"x": 1, "y": 2, "z": 3, "u": Q(1, 2), "t": Q(1, 3)}

FORMAL_MUST_VERIFY = (
    "I-F11-RAISE-A",
    "I-F11-SHIFT",
    "I-PSI2-REDUCTION",
    "I-PSI2-LOWER-B",
    "I-PSI2-LOWER-C",
    "I-PSI2-SHIFT-X",
    "I-PSI2-SHIFT-Y",
)


def report(number: int, name: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}. {name}: {status} ({elapsed:.2f} s)")


def test_criterion_1_recursion_suite():
    t0 = time.perf_counter()
    ok = True
    for p in F11_POINTS:
        for rel_id in RECURSION_IDS:
            if not verify_recursion(rel_id, p, 12).is_zero():
                ok = False
    elapsed = time.perf_counter() - t0
    report(1, "recursion residuals vanish at order 12", ok, elapsed)
    assert ok
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s budget"


def test_criterion_2_action_suite():
    t0 = time.perf_counter()
    rows = action_suite(PSI2_POINTS, 12)
    ok = all(r["status"] == "PASS" for r in rows)
    elapsed = time.perf_counter() - t0
    # 5+5 shift operators plus every maintenance/identity operator, exact
    assert len(rows) == (8 + 9) * 3
    report(2, "operator actions exact at order 12", ok, elapsed)
    assert ok
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s budget"


def test_criterion_3_identity_formal_suite():
    t0 = time.perf_counter()
    ok = True
    for rec_id in FORMAL_MUST_VERIFY:
        f11 = rec_id.startswith("I-F11")
        n, m = (6, 12) if f11 else (4, 6)
        for point in PSI2_POINTS:
            row = verify_formal(get_record(rec_id), AS_STATED, point, n, m)
            if row["status"] != "verified":
                ok = False
    elapsed = time.perf_counter() - t0
    report(3, "formal identity suite at default orders", ok, elapsed)
    assert ok
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s budget"


def test_criterion_4_discrepancy_handling():
    t0 = time.perf_counter()
    try:
        rep = run_suite(mode="formal")
        invariant = invariant_ok(rep)
    except Exception:
        invariant = False
        rep = None
    mismatched = {
        r["id"] for r in (rep["rows"] if rep else [])
        if r["variant"] == AS_STATED and r["status"] == "mismatch"
    }
    # the order-1 derivation predicts at least the lowering-exponent slip
    ok = invariant and rep is not None and "I-F11-LOWER-B" in mismatched
    ok = ok and rep["summary"]["unresolved_failures"] == 0
    elapsed = time.perf_counter() - t0
    report(4, "as-stated mismatches paired with verified corrections", ok, elapsed)
    assert ok, (mismatched, rep["summary"] if rep else None)


def test_criterion_5_commutator_algebra():
    t0 = time.perf_counter()
    cat = build_catalogue()
    ok = True
    rng = random.Random(42)
    for fam in ("f11", "psi2"):
        ids = family_operator_ids(fam)
        ops = {i: cat[i] for i in ids}
        for a, b in itertools.combinations(ids, 2):
            if commutator(ops[a], ops[b]) != -commutator(ops[b], ops[a]):
                ok = False
        for a, b, c in itertools.combinations(ids, 3):
            jac = (
                commutator(ops[a], commutator(ops[b], ops[c]))
                + commutator(ops[b], commutator(ops[c], ops[a]))
                + commutator(ops[c], commutator(ops[a], ops[b]))
            )
            if not jac.is_zero():
                ok = False
        values = list(ops.values())
        for _ in range(10):
            x, y, z = (rng.choice(values) for _ in range(3))
            lam = Q(rng.randint(-9, 9), rng.randint(1, 9))
            if commutator(x + y.scale(lam), z) != commutator(x, z) + commutator(y, z).scale(lam):
                ok = False
    grading = commutator(cat["psi2.I_a"], cat["psi2.E_a"])
    span = express_in_span(
        grading, SpanBasis({i: cat[i] for i in family_operator_ids("psi2")})
    )
    ok = ok and span.in_span and span.coefficients["psi2.E_a"] == 1
    ok = ok and all(
        v == 0 for k, v in span.coefficients.items() if k != "psi2.E_a"
    )
    elapsed = time.perf_counter() - t0
    report(5, "commutator algebra laws exact", ok, elapsed)
    assert ok


def test_criterion_6_flow_checks():
    t0 = time.perf_counter()
    worst = 0.0
    for op_id in FLOW_IDS:
        dev = flow_check(flow_spec(op_id), FLOW_START, 0.1, 1e-3)
        worst = max(worst, dev)
    ok = worst <= 1e-8
    elapsed = time.perf_counter() - t0
    report(6, f"flow deviations (worst {worst:.2e}) within 1e-8", ok, elapsed)
    assert ok
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s budget"


def test_criterion_7_exact_float_consistency():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(42)
    produced = 0
    while produced < 100:
        a = Q(rng.randint(-8, 8), rng.randint(1, 5))
        b = Q(rng.randint(1, 12), rng.randint(1, 5)) + Q(1, 7)
        x = Q(rng.randint(-32, 32), 16)
        try:
            p = Params1F1(a, b)
        except DegenerateParameter:
            continue
        produced += 1
        value, _ = f11_eval_float(p, float(x), 1e-14)
        exact = float(f11_series(p, 40).evaluate({"x": x}))
        if abs(value - exact) > 1e-12 * max(abs(exact), 1.0):
            ok = False
    for p in PSI2_POINTS:
        for x, y in ((Q(1, 2), Q(1, 2)), (Q(-1, 2), Q(1, 4)), (Q(1, 3), Q(-1, 2))):
            exact = float(psi2_series(p, 12, 12).evaluate({"x": x, "y": y}))
            approx = psi2_eval_float(p, float(x), float(y), rel_tol=1e-14)
            if abs(approx - exact) > 1e-10 * max(abs(exact), 1.0):
                ok = False
    elapsed = time.perf_counter() - t0
    report(7, "floating sums track exact sums", ok, elapsed)
    assert ok


def test_criterion_8_numeric_spot_checks():
    t0 = time.perf_counter()
    rep = run_suite(mode="formal")
    ok = True
    for row in rep["rows"]:
        if row["status"] != "verified":
            continue
        params = row["params"]
        point = ParamsPsi2(Q(params["a"]), Q(params["b"]), Q(params.get("c", "5/7")))
        for chi in (0.1, 0.25):
            nrow = verify_numeric(get_record(row["id"]), row["variant"], point, chi, 1e-8)
            if nrow["status"] != "verified":
                ok = False
    elapsed = time.perf_counter() - t0
    report(8, "formally verified identities pass numerically", ok, elapsed)
    assert ok


def test_criterion_9_deterministic_reports(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for run in ("runA", "runB"):
        r = subprocess.run(
            [sys.executable, "-m", "hypersym.cli", "verify", "--scope", "all",
             "--mode", "both", "--out", str(tmp_path / run)],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        outs.append(strip_timing((tmp_path / run / "verify_all.json").read_text()))
    ok = outs[0] == outs[1]
    elapsed = time.perf_counter() - t0
    report(9, "reports byte-identical modulo timing", ok, elapsed)
    assert ok
