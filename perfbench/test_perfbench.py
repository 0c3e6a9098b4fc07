"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest -q perfbench``
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Check, EvalCall, compare_verdicts, load_ref, verdicts  # noqa: E402


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (1, 5.0, 9.0, 0)]
    calls, selfs = tracer.self_times(spans, 3)
    assert calls == [1, 2, 1]
    assert selfs == pytest.approx([10 - 3 - 4, (3 - 1) + 4, 1])
    assert sum(selfs) == pytest.approx(10.0)


def test_wrapped_nested_calls_account_for_the_outer_span():
    t = tracer.Tracer()
    inner = t.wrap(1, lambda: time.sleep(0.01), None)

    def body():
        inner()
        inner()
        time.sleep(0.01)

    outer = t.wrap(0, body, None)
    start = time.perf_counter()
    outer()
    elapsed = time.perf_counter() - start
    calls, selfs = tracer.self_times(t.spans, 2)
    assert calls == [1, 2]
    assert selfs[1] >= 0.02 and selfs[0] >= 0.01
    assert sum(selfs) <= elapsed
    assert sum(selfs) == pytest.approx(t.spans[0][2] - t.spans[0][1])


@pytest.mark.parametrize("n, p", [(1, None), (19, None), (20, 50), (100, 90),
                                  (189, 94), (1000, 99), (5000, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p
    if p is not None:
        assert n - math.ceil(p * n / 100) >= 10
        if p < 99:
            assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_falls_back_to_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max")
    values = [float(v) for v in range(1, 101)]
    assert run.tail(values) == (90.0, "p90")


def test_each_gap_is_scaled_by_the_samples_beside_it():
    ref = speed.PROBE_REF_S
    # Window [0, 1] on the wall clock: samples start at 0.3 (twice the
    # reference time) and 0.6 (four times); the one at 1.0 is after it.
    # On the CPU clock the same samples take 2, 3 and 2 reference times.
    samples = [(0.3, 2 * ref, 0.25, 2 * ref), (0.6, 4 * ref, 0.5, 3 * ref),
               (1.0, 2 * ref, 0.8, 2 * ref)]
    gaps = [0.3 - 0.1, 0.6 - (0.3 + 2 * ref), 1.0 - (0.6 + 4 * ref)]
    expect = gaps[0] / 2 + gaps[1] / 3 + gaps[2] / 3
    assert speed.work_time(0.0, 1.0, samples, idle=0.1) == pytest.approx(expect)
    assert speed.probe_time(0.0, 1.0, samples) == pytest.approx(6 * ref)
    assert speed.probe_time(0.0, 0.7, samples, clock=speed.CPU) == pytest.approx(5 * ref)
    cpu_gaps = [0.25, 0.5 - (0.25 + 2 * ref), 0.7 - (0.5 + 3 * ref)]
    assert speed.work_time(0.0, 0.7, samples, clock=speed.CPU) == pytest.approx(
        cpu_gaps[0] / 2 + cpu_gaps[1] / 2.5 + cpu_gaps[2] / 2.5)
    # A window with no sample inside is scaled by the samples on either side.
    assert speed.work_time(0.4, 0.5, samples) == pytest.approx(0.1 / 3)
    assert speed.slowdown(samples) == pytest.approx(8 / 3)


def test_corrected_pass_keeps_its_wall_time_and_scales_each_call():
    ref = speed.PROBE_REF_S
    samples = [(0.5, 3 * ref, 0.45, 2 * ref), (2.0, ref, 1.0, ref)]
    res = {"pass_s": 1.0, "cpu_s": 0.9, "probe": samples, "window": [0.0, 1.0],
           "cpu_window": [0.0, 0.9],
           "calls": [{"ms": 200.0, "window": [0.1, 0.3]},
                     {"ms": 600.0, "window": [0.4, 1.0]}]}
    run.correct_pass(res)
    assert res["slowdown"] == pytest.approx(2.0)
    assert res["wall_pass_s"] == pytest.approx(1.0 - 3 * ref)
    assert res["pass_s"] == pytest.approx(0.5 / 3 + (1.0 - 0.5 - 3 * ref) / 2)
    assert res["cpu_s"] == pytest.approx(0.45 / 2 + (0.9 - 0.45 - 2 * ref) / 1.5)
    assert [c["ms"] for c in res["calls"]] == pytest.approx(
        [200.0 / 3, 100.0 / 3 + 1000 * (0.5 - 3 * ref) / 2])


def test_probe_samples_through_a_busy_window():
    t0 = time.monotonic()
    probe = speed.SpeedProbe(0.005).start()
    assert len(probe.samples) == speed.WARM_UP_SAMPLES and probe.warm[0] > 0
    while time.monotonic() < t0 + 0.1:
        sum(range(1000))
    t1 = time.monotonic()
    inside = len(probe.samples)
    samples = probe.stop()
    assert inside >= 5 and len(samples) == inside + 1
    assert all(t0 <= s[0] < t1 for s in samples[:inside])
    assert all(s[1] > 0 and s[3] > 0 for s in samples)
    assert 0 < speed.probe_time(t0, t1, samples) < 0.1
    assert 0 < speed.work_time(t0, t1, samples, probe.warm[0])


def _recursions_report(tmp_path) -> dict:
    from hypersym import cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--scope", "recursions", "--out", str(tmp_path)]) == 0
    return json.loads((tmp_path / "verify_recursions.json").read_text())


def test_recorded_rows_match_and_one_altered_row_is_one_failure(tmp_path):
    report = _recursions_report(tmp_path)
    reference = {k: v for k, v in load_ref("verify_default")["rows"].items()
                 if k.startswith("recursions|")}
    assert len(reference) == 15

    clean = Check()
    compare_verdicts(reference, report, clean, "ref")
    assert (clean.attempted, clean.failures) == (15, [])

    altered = json.loads(json.dumps(reference))
    key = sorted(altered)[3]
    altered[key]["residual"] = "x"
    check = Check()
    compare_verdicts(altered, report, check, "ref")
    assert check.attempted == 15
    assert [f.op for f in check.failures] == [f"ref:{key}"]


def test_added_report_fields_do_not_count(tmp_path):
    report = _recursions_report(tmp_path)
    reference = verdicts(report)
    for row in report["scopes"]["recursions"]["rows"]:
        row["elapsed_ms"] = 1.0
    check = Check()
    compare_verdicts(reference, report, check, "ref")
    assert check.failures == []


def _eval_result(text: str) -> dict:
    return {"rc": 0, "error": None, "stdout": text + "\n", "stderr": ""}


def test_float_misses_are_counted_and_misses_beyond_cancellation_fail():
    w = workloads.Workload(0, "unused")
    check = Check()
    ref = 2.0
    # magnitude == ref: no cancellation, so GROSS_FACTOR * tol = 1e-6 is
    # allowed.  magnitude 2e8: terms up to 1e8 times the value cancel, so
    # CANCEL_FACTOR * tol * 1e8 = 0.1 is allowed.
    w._check_eval(EvalCall(["ok"], ref, 2.0), _eval_result("2.0 terms=9"), check)
    w._check_eval(EvalCall(["near"], ref, 2.0), _eval_result("2.0000000003"), check)
    w._check_eval(EvalCall(["bad"], ref, 2.0), _eval_result("2.5"), check)
    w._check_eval(EvalCall(["cancelled"], ref, 2e8), _eval_result("2.15 terms=9"), check)
    w._check_eval(EvalCall(["garbage"], ref, 2e8), _eval_result("-2.0 terms=9"), check)
    w._check_eval(EvalCall(["off"], ref, 2e8), _eval_result("2e3 terms=9"), check)
    assert check.attempted == 6
    assert check.tol_misses == ["near", "bad", "cancelled", "garbage", "off"]
    assert [f.op for f in check.failures] == ["bad", "garbage", "off"]


def test_garbage_at_a_negative_grid_point_fails():
    w = workloads.FloatNumeric(0, "unused")
    call = next(c for c in w.calls if isinstance(c, EvalCall) and "--fn" in c.argv
                and c.argv[c.argv.index("--fn") + 1] == "psi2" and "--x=-" in " ".join(c.argv))
    check = Check()
    w._check_eval(call, _eval_result(repr(call.expect)), check)
    w._check_eval(call, _eval_result(repr(-call.expect)), check)
    w._check_eval(call, _eval_result(repr(100 * call.expect)), check)
    assert check.attempted == 3
    assert len(check.failures) == 2


def test_grid_is_seeded_and_covers_every_cell():
    import random

    n = workloads.GRID_PSI2X3
    ranges = [(-2, 2), (-2, 2), (-0.5, 0.5)]
    a = workloads._grid(random.Random(5), n, ranges)
    assert a == workloads._grid(random.Random(5), n, ranges)
    for k, (lo, hi) in enumerate(ranges):
        cells = sorted(int((float(p[k]) - lo) / (hi - lo) * n) for _i, p in a)
        assert cells == list(range(n))


def test_independent_psi2x3_sum_matches_the_library():
    from hypersym.hypfun import ParamsPsi2, psi2_3var_series

    a, b, c = Fraction(1, 2), Fraction(4, 3), Fraction(5, 7)
    x, y, z = Fraction(-2, 3), Fraction(3, 5), Fraction(1, 4)
    series = psi2_3var_series(ParamsPsi2(a, b, c), 5, 5, 5)
    expect = series.evaluate({"x": x, "y": y, "z": z})
    assert workloads.psi2x3_exact(a, b, c, x, y, z, 5) == expect


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.layer_metric_names()
