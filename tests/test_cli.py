import json
import math
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersym import cli, hypfun, identities, liealg, series
from hypersym.identities import get_record, strip_timing


def run_cli(*argv, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "hypersym.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


class TestEval:
    def test_exact_partial_sum(self):
        r = run_cli("eval", "--fn", "f11", "--a", "1", "--b", "1",
                    "--x", "1", "--exact", "--terms", "5")
        assert r.returncode == 0
        assert r.stdout.strip() == "163/60"

    def test_psi2_origin_defaults_to_exact(self):
        r = run_cli("eval", "--fn", "psi2", "--a", "1/2", "--b", "4/3",
                    "--c", "5/7", "--x", "0", "--y", "0")
        assert r.returncode == 0
        assert r.stdout.strip() == "1"

    def test_float_exponential(self):
        r = run_cli("eval", "--fn", "f11", "--a", "1", "--b", "1",
                    "--x", "1.0", "--tol", "1e-14")
        assert r.returncode == 0
        value = float(r.stdout.split()[0])
        assert abs(value - 2.718281828459045) < 1e-13
        assert "terms=" in r.stdout

    def test_psi2x3_exact(self):
        r = run_cli("eval", "--fn", "psi2x3", "--a", "1", "--b", "1",
                    "--c", "1", "--x", "0", "--y", "0", "--z", "0")
        assert r.returncode == 0
        assert r.stdout.strip() == "1"
        # a nonzero point at the default 30 terms, against the nested sum
        # sum_{l,m,n <= 30} (a)_{l+m+n} x^m y^n z^l / (l! m! n! (b)_m (c)_n)
        a, b, c, x, y, z = Q(1, 2), Q(4, 3), Q(-5, 7), Q(1, 2), Q(-1, 3), Q(1, 5)
        r = run_cli("eval", "--fn", "psi2x3", "--a", "1/2", "--b", "4/3", "--c", "-5/7",
                    "--x", "1/2", "--y", "-1/3", "--z", "1/5")
        assert r.returncode == 0
        expected, outer = Q(0), Q(1)
        for l in range(31):
            middle = outer
            for m in range(31):
                inner = middle
                for n in range(31):
                    expected += inner
                    inner = inner * (a + l + m + n) * y / ((n + 1) * (c + n))
                middle = middle * (a + l + m) * x / ((m + 1) * (b + m))
            outer = outer * (a + l) * z / (l + 1)
        assert r.stdout == f"{expected}\n"

    def test_parse_error_exits_2(self):
        r = run_cli("eval", "--fn", "f11", "--a", "1", "--b", "oops", "--x", "1")
        assert r.returncode == 2

    def test_degenerate_parameter_exits_2(self):
        r = run_cli("eval", "--fn", "f11", "--a", "1", "--b", "-2", "--x", "1")
        assert r.returncode == 2

    def test_usage_error_exits_2(self):
        r = run_cli("eval", "--fn", "f11")
        assert r.returncode == 2

    def test_negative_terms_exit_2(self):
        r = run_cli("eval", "--fn", "f11", "--a", "1", "--b", "1",
                    "--x", "1", "--exact", "--terms", "-3")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.strip() == "error: negative series order"

    def test_exact_eval_builds_no_series(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(series.MultiSeries, "__init__", lambda *args: built.append(args))
        monkeypatch.setattr(series.MultiSeries, "_trusted",
                            classmethod(lambda *args: built.append(args)))
        values = {"a": "-1/2", "b": "4/3", "c": "5/7", "x": "-1/2", "y": "2/3", "z": "1/4"}
        point = {v: Q(values[v]) for v in "xyz"}
        shown = {}
        for fn, fam in hypfun.FAMILIES.items():
            names = ("a", "b", "c")[:2 if fn == "f11" else 3] + fam.coords
            argv = [f"--{n}={values[n]}" for n in names]
            assert cli.main(["eval", "--fn", fn, *argv, "--exact", "--terms", "7"]) == 0
            shown[fn] = capsys.readouterr()
        assert built == []
        monkeypatch.undo()
        p = hypfun.ParamsPsi2(Q(-1, 2), Q(4, 3), Q(5, 7))
        for fn, fam in hypfun.FAMILIES.items():
            value = fam.series(fam.narrow(p), 7).evaluate(point)
            assert shown[fn] == (f"{value}\n", "")

    def test_exact_and_float_together_exit_2(self):
        r = run_cli("eval", "--fn", "f11", "--a", "1", "--b", "1", "--x", "1",
                    "--exact", "--float")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: --exact and --float exclude each other\n"

    def test_missing_parameter_exits_2(self, capsys):
        argv = ["eval", "--fn", "psi2", "--a", "1/2", "--b", "4/3", "--x", "1/2", "--y", "1/3"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: --c is required for psi2\n")

    @pytest.mark.parametrize("fn, rational, decimal", [
        ("f11", ["--x", "1/2"], ["--x", "0.5"]),
        ("psi2", ["--x", "0.5", "--y", "1/3"], ["--x", "0.5", "--y", repr(1 / 3)]),
        ("psi2x3", ["--x", "-2/7", "--y", "0.25", "--z", "-1/9"],
         ["--x", repr(-2 / 7), "--y", "0.25", "--z", repr(-1 / 9)]),
    ], ids=["f11", "psi2", "psi2x3"])
    def test_rational_float_coordinate_is_its_float(self, fn, rational, decimal, capsys):
        params = ["--a", "1/2", "--b", "4/3"] + (["--c", "5/7"] if fn != "f11" else [])
        assert cli.main(["eval", "--fn", fn, *params, *decimal, "--float"]) == 0
        expected = capsys.readouterr()
        # psi2 is float mode without --float: one of its coordinates is a decimal
        flag = ["--float"] if fn == "f11" else []
        assert cli.main(["eval", "--fn", fn, *params, *rational, *flag]) == 0
        assert capsys.readouterr() == expected
        assert expected.err == "" and expected.out

    @pytest.mark.parametrize("fn, coords, named", [
        ("f11", ("--x", f"{10**400}/3"), "x"),
        ("psi2", ("--x", "0.5", "--y", f"-{10**400}/7"), "y"),
    ], ids=["f11-x", "psi2-y"])
    def test_rational_coordinate_too_large_for_a_float_exits_2(self, fn, coords, named, capsys):
        params = ("--a", "1/2", "--b", "4/3") + (("--c", "5/7") if fn != "f11" else ())
        assert cli.main(["eval", "--fn", fn, *params, *coords, "--float"]) == 2
        assert capsys.readouterr() == ("", f"error: coordinate {named} is too large for a float\n")

    def test_float_coordinate_neither_float_nor_rational_exits_2(self, capsys):
        argv = ["eval", "--fn", "f11", "--a", "1/2", "--b", "4/3", "--x", "1/2/3", "--float"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: could not convert string to float: '1/2/3'\n")

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_float_tolerance_exits_2(self, tol):
        r = run_cli("eval", "--fn", "f11", "--a", "1", "--b", "1",
                    "--x", "1.5", "--float", "--tol", tol)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: rel_tol must be finite and positive, got {tol}\n"

    @pytest.mark.parametrize("fn, coords, named, value", [
        ("f11", ("--x", "nan"), "x", "nan"),
        ("f11", ("--x=-inf",), "x", "-inf"),
        ("psi2", ("--x", "0.5", "--y", "inf"), "y", "inf"),
        ("psi2", ("--x", "nan", "--y", "0.5"), "x", "nan"),
        ("psi2x3", ("--x", "0.5", "--y", "0.5", "--z", "inf"), "z", "inf"),
    ], ids=["f11-nan", "f11-minus-inf", "psi2-y-inf", "psi2-x-nan", "psi2x3-z-inf"])
    def test_non_finite_coordinate_exits_2(self, fn, coords, named, value):
        params = ("--a", "1/2", "--b", "4/3") + (("--c", "5/7") if fn != "f11" else ())
        r = run_cli("eval", "--fn", fn, *params, *coords, "--float", timeout=60)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: coordinate {named} must be finite, got {value}\n"

    @pytest.mark.parametrize("fn", ["f11", "psi2", "psi2x3"])
    def test_bottom_parameter_that_rounds_to_a_pole_exits_2(self, fn):
        # b is not an integer, but its float is -3.0, where a step divides by zero
        b = "-2999999999999999999999999999999/1000000000000000000000000000000"
        params = ("--a", "1/2", "--b", b) + (("--c", "5/7", "--y", "0.5") if fn != "f11" else ())
        coords = ("--z", "0.25") if fn == "psi2x3" else ()
        r = run_cli("eval", "--fn", fn, *params, "--x", "1", *coords, "--float", timeout=60)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == (
            f"error: bottom parameter {b} of x is -3.0 as a float, zero or a negative integer\n"
        )

    @pytest.mark.parametrize("fn, named", [("f11", "a"), ("psi2", "c"), ("psi2x3", "b")])
    def test_parameter_too_large_for_a_float_exits_2(self, fn, named, capsys):
        values = {"a": "1/2", "b": "4/3", "c": "5/7", named: str(10**400)}
        names = "ab" if fn == "f11" else "abc"
        argv = ["eval", "--fn", fn, *(f"--{n}={values[n]}" for n in names), "--x", "0.5", "--float"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: parameter {named} is too large for a float\n")

    def test_non_finite_outer_partial_sum_fails_at_once(self):
        # the outer term is infinite from the third on, and the run-up tests
        # the partial sum after 32 terms; summing to the cap of 10,000 outer
        # terms took seconds
        r = run_cli("eval", "--fn", "psi2", "--a", "1/2", "--b", "4/3", "--c", "5/7",
                    "--x", "0.5", "--y", "1e300", "--float", timeout=20)
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == "no convergence: partial sum not finite after 32 outer terms at y=1e+300\n"

    def test_infinite_f11_sum_exits_1(self):
        # the partial sum overflows after 721 terms; before, inf was printed
        # as a converged value
        r = run_cli("eval", "--fn", "f11", "--a", "1/2", "--b", "4/3",
                    "--x", "720", "--float")
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == "no convergence: partial sum not finite after 721 terms at x=720.0\n"

    @pytest.mark.parametrize("fn", ["f11", "psi2"])
    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_term_cap_below_one_exits_2(self, fn, cap):
        params = ("--a", "1/2", "--b", "4/3") + (("--c", "5/7", "--y", "0.5") if fn == "psi2" else ())
        r = run_cli("eval", "--fn", fn, *params, "--x", "0.5", "--float", "--term-cap", cap)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: term_cap must be at least 1, got {cap}\n"

    @pytest.mark.parametrize("fn, extra, named", [
        ("f11", ("--c", "3"), "--c"),
        ("f11", ("--y", "5"), "--y"),
        ("f11", ("--z", "2"), "--z"),
        ("psi2", ("--c", "5/7", "--y", "0", "--z", "2"), "--z"),
    ], ids=["f11-c", "f11-y", "f11-z", "psi2-z"])
    def test_option_the_family_does_not_take_exits_2(self, fn, extra, named):
        r = run_cli("eval", "--fn", fn, "--a", "1", "--b", "1", "--x", "1",
                    *extra, "--exact", "--terms", "5")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: {named} is not an option of {fn}\n"

    def test_successive_main_calls_print_their_own_results(self, capsys):
        # Each call parses its own command line and prints its own value.
        base = ["eval", "--fn", "f11", "--a", "1", "--b", "1", "--exact", "--terms", "5"]
        assert cli.main([*base, "--x", "1"]) == 0
        assert capsys.readouterr().out == "163/60\n"
        assert cli.main([*base, "--x", "2"]) == 0
        assert capsys.readouterr().out == "109/15\n"
        assert cli.main(["eval", "--fn", "psi2", "--a", "1/2", "--b", "4/3", "--c", "5/7",
                         "--x", "0", "--y", "0"]) == 0
        assert capsys.readouterr().out == "1\n"


# A value that starts with a minus sign follows its flag as a separate token.
NEGATIVE_VALUES = [
    ("verify", "--scope", "recursions", "--points", "-2,3,3"),
    ("eval", "--fn", "f11", "--a", "-1/2", "--b", "4/3", "--x", "1/3", "--terms", "6"),
    ("eval", "--fn", "f11", "--a", "1/2", "--b", "4/3", "--x", "-1/3", "--terms", "6"),
    ("verify", "--scope", "identities", "--mode", "numeric", "--chi", "-0.1,0.1"),
]


@pytest.mark.parametrize("argv", NEGATIVE_VALUES, ids=["points", "a", "x", "chi"])
def test_negative_value_after_its_flag(argv, tmp_path, capsys):
    """``--flag -v`` parses as ``--flag=-v`` does and gives the same result."""
    outputs = []
    for form, args in (("spaced", list(argv)),
                       ("joined", [*argv[:-2], f"{argv[-2]}={argv[-1]}"])):
        out_dir = tmp_path / form
        if args[0] == "verify":
            args += ["--out", str(out_dir)]
        assert cli.main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if args[0] == "verify":
            report = out_dir / f"verify_{args[2]}.json"
            outputs.append(strip_timing(report.read_text()))
        else:
            outputs.append(captured.out)
    assert outputs[0] == outputs[1]


class TestVerify:
    def test_identities_scope(self, tmp_path):
        r = run_cli("verify", "--scope", "identities", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        data = json.loads((tmp_path / "verify_identities.json").read_text())
        assert data["ok"] is True
        rows = data["scopes"]["identities"]["rows"]
        assert len(rows) == 39
        assert (tmp_path / "verify_identities.md").exists()

    def test_every_scope_is_timed(self, tmp_path, capsys):
        assert cli.main(["verify", "--scope", "all", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "verify_all.json").read_text())
        assert sorted(data["scopes"]) == sorted(cli.SCOPE_RUNNERS)
        for name, part in data["scopes"].items():
            elapsed = part["elapsed_ms"]
            assert type(elapsed) is float and math.isfinite(elapsed) and elapsed >= 0, name

    def test_commutators_scope_with_span(self, tmp_path):
        r = run_cli("verify", "--scope", "commutators", "--out", str(tmp_path))
        assert r.returncode == 0
        data = json.loads((tmp_path / "verify_commutators.json").read_text())
        result = data["scopes"]["commutators"]["result"]
        assert result["antisymmetry_ok"] and result["jacobi_ok"]
        f11_rows = result["families"]["f11"]
        # span findings are reported, not asserted: one pair escapes
        escaped = [row["pair"] for row in f11_rows if not row["in_span"]]
        assert escaped == ["[f11.E_a', f11.E_b']"]
        assert all(row["in_span"] for row in result["families"]["psi2"])

    def test_flows_scope(self, tmp_path):
        r = run_cli("verify", "--scope", "flows", "--alpha", "0.1",
                    "--step", "1e-3", "--out", str(tmp_path))
        assert r.returncode == 0
        data = json.loads((tmp_path / "verify_flows.json").read_text())
        rows = data["scopes"]["flows"]["rows"]
        assert len(rows) == 10
        assert all(row["max_deviation"] <= 1e-8 for row in rows)

    def test_recursions_scope(self, tmp_path):
        r = run_cli("verify", "--scope", "recursions", "--out", str(tmp_path))
        assert r.returncode == 0
        data = json.loads((tmp_path / "verify_recursions.json").read_text())
        rows = data["scopes"]["recursions"]["rows"]
        assert len(rows) == 15  # 5 relations x 3 points
        assert all(row["status"] == "PASS" for row in rows)

    @pytest.mark.parametrize("scope, flag, count", [
        ("actions", "--action-order", 51), ("recursions", "--recursion-order", 15),
    ])
    def test_order_one_passes(self, tmp_path, scope, flag, count):
        # at order 1 a term whose body vanishes still lowers the trusted cap
        r = run_cli("verify", "--scope", scope, flag, "1", "--out", str(tmp_path))
        assert r.returncode == 0, r.stdout
        rows = json.loads((tmp_path / f"verify_{scope}.json").read_text())["scopes"][scope]["rows"]
        assert len(rows) == count
        assert all(row["status"] == "PASS" for row in rows)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"recursion_order": 6, "out": str(tmp_path / "cfgout")}))
        r = run_cli("verify", "--scope", "recursions", "--config", str(cfg),
                    "--out", str(tmp_path / "flagout"))
        assert r.returncode == 0
        assert (tmp_path / "flagout" / "verify_recursions.json").exists()
        data = json.loads((tmp_path / "flagout" / "verify_recursions.json").read_text())
        assert data["scopes"]["recursions"]["rows"][0]["order"] == 6

    @pytest.mark.parametrize("config", [
        {"nonsense_key": 1},
        [1, 2],
        {"tol": "tiny"},
        {"points": [1, 2, 3]},
    ], ids=["unknown-key", "not-an-object", "string-for-float", "list-for-string"])
    def test_bad_config_exits_2(self, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        r = run_cli("verify", "--scope", "recursions", "--config", str(cfg))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1

    @pytest.mark.parametrize("scope, arg, named", [
        ("recursions", "--points=0.5,4/3,5/7", "'0.5'"),
        ("recursions", "--chi=abc", "--chi"),
        ("all", "--chi=", "--chi"),
        ("recursions", "--orders-f11=1,2,3", "--orders-f11"),
        ("recursions", "--orders-psi2=4", "--orders-psi2"),
    ], ids=["points", "chi-word", "chi-empty", "orders-three", "orders-one"])
    def test_bad_points_exit_2(self, tmp_path, scope, arg, named):
        # A malformed setting is a configuration error before any scope runs.
        out = tmp_path / "out"
        r = run_cli("verify", "--scope", scope, arg, "--out", str(out))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert named in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("points", ["1/2,4/3", "1/2,4/3,5/7,1", "1/2,4/3,5/7;2,3"],
                             ids=["two", "four", "second-point"])
    def test_points_need_three_values(self, tmp_path, points):
        # each point is named as given, not Python's unpacking error
        out = tmp_path / "out"
        r = run_cli("verify", "--points", points, "--out", str(out))
        bad = points.split(";")[-1]
        assert r.returncode == 2
        assert r.stderr == f"error: --points needs three values a,b,c per point, got '{bad}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("start, error", [
        ("x=1,y=2,z=3,u=1/2,t=1/3,w=99",
         "--start item 'w=99' names no flow coordinate (x, y, z, u, t)"),
        ("x=1,y=2,z=3,u=1/2,t=1/3,=4",
         "--start item '=4' names no flow coordinate (x, y, z, u, t)"),
        ("x=1,y=2,z=3,u=1/2,t=1/3,x=5", "--start item 'x=5' repeats coordinate x"),
        ("x", "--start item 'x' is not name=value"),
        ("", "--start item '' is not name=value"),
        ("x=1,y=2,z=3,u=0.5,t=1/3",
         "--start item 'u=0.5': not an exact rational literal: '0.5'"),
    ], ids=["unknown-name", "empty-name", "repeated-name", "no-value", "empty", "decimal"])
    @pytest.mark.parametrize("scope", ["flows", "recursions"])
    def test_bad_start_item_is_named(self, tmp_path, scope, start, error):
        # every item is checked before any scope runs, not only by the flows
        out = tmp_path / "out"
        r = run_cli("verify", "--scope", scope, f"--start={start}", "--out", str(out))
        assert r.returncode == 2
        assert r.stderr == f"error: {error}\n"
        assert not out.exists()

    def test_start_items_in_any_order_and_spacing(self, tmp_path):
        r = run_cli("verify", "--scope", "flows", "--start= t = 1/3,u=1/2, z=3,y=2,x=1",
                    "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        rows = json.loads((tmp_path / "verify_flows.json").read_text())["scopes"]["flows"]["rows"]
        assert all(row["status"] == "PASS" for row in rows)

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "inf"),
        ("--alpha", "nan"),
        ("--flow-tol", "inf"),
        ("--step", "inf"),
        ("--step", "nan"),
        ("--tol", "nan"),
        ("--chi", "nan"),
        ("--chi", "inf"),
    ])
    def test_non_finite_setting_exits_2_before_any_scope(self, tmp_path, flag, value):
        out = tmp_path / "out"
        r = run_cli("verify", "--scope", "flows", flag, value, "--out", str(out))
        assert r.returncode == 2
        name = flag[2:].replace("-", "_")
        assert r.stderr == f"error: {name} must be finite, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("step", ["1e-320", "1e-300"])
    def test_step_past_the_step_cap_exits_2_before_any_scope(self, tmp_path, step):
        # 1e-320 overflows the step count to inf; 1e-300 would never finish
        out = tmp_path / "out"
        r = run_cli("verify", "--scope", "flows", "--step", step, "--out", str(out),
                    timeout=60)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: flow alpha 0.1 at step ")
        assert r.stderr.count("\n") == 1 and "at most 10000000" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"alpha": NaN}', '{"flow_tol": Infinity}',
                                      '{"step": -Infinity}'])
    def test_non_finite_config_value_exits_2(self, tmp_path, text):
        # json.loads reads NaN and Infinity as floats
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        r = run_cli("verify", "--scope", "flows", "--config", str(cfg), "--out", str(out))
        assert r.returncode == 2
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert "must be finite" in r.stderr
        assert not out.exists()

    def test_config_integer_for_a_float_key_reports_as_the_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"step": 1, "flow_tol": 1}))
        from_config = run_cli("verify", "--scope", "flows", "--config", str(cfg),
                              "--out", str(tmp_path / "config"))
        from_flags = run_cli("verify", "--scope", "flows", "--step", "1", "--flow-tol", "1",
                             "--out", str(tmp_path / "flags"))
        assert from_config.returncode == from_flags.returncode == 0
        config, flags = ((tmp_path / d / "verify_flows.json").read_text()
                         for d in ("config", "flags"))
        assert strip_timing(config) == strip_timing(flags)
        rows = json.loads(config)["scopes"]["flows"]["rows"]
        assert all(type(row["step"]) is float for row in rows)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_config_integer_too_large_for_a_float_exits_2(self, tmp_path, sign):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": sign * 10 ** 400}))
        out = tmp_path / "out"
        r = run_cli("verify", "--scope", "flows", "--config", str(cfg), "--out", str(out))
        assert r.returncode == 2
        assert r.stderr == "error: config key 'alpha' is too large for a float\n"
        assert not out.exists()

    @pytest.mark.parametrize("config", [{"__dict__": {"tol": "x"}}, {"__dict__": {}},
                                        {"validate": 1}, {"__class__": 1}])
    def test_config_key_that_is_no_setting_exits_2(self, tmp_path, config, monkeypatch, capsys):
        # only RunConfig's fields are config keys, not its other attributes
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.main(["verify", "--scope", "flows", "--config", str(cfg),
                         "--out", str(out)]) == 2
        key = next(iter(config))
        assert capsys.readouterr() == ("", f"error: unknown config key {key!r}\n")
        assert not out.exists() and not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("flag", ["--config=", "--conf="], ids=["direct", "argparse"])
    def test_empty_config_path_exits_2(self, tmp_path, flag, monkeypatch, capsys):
        # an empty path is read like any other, and fails as a directory does
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "--scope", "flows", flag]) == 2
        assert capsys.readouterr() == ("", "error: [Errno 21] Is a directory: '.'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["mode", "format"])
    def test_config_value_outside_the_option_choices_exits_2(self, tmp_path, key, capsys):
        # a config file's value is checked against the choices its flag takes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "x"}))
        out = tmp_path / "out"
        assert cli.main(["verify", "--scope", "flows", "--config", str(cfg),
                         "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: unknown {key} 'x'\n")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("--alpha", "1"),
        ("--start", "x=1,y=0,z=3,u=1/2,t=1/3"),
    ], ids=["alpha-reaches-pole", "start-on-pole"])
    def test_singular_flow_exits_2(self, tmp_path, args):
        r = run_cli("verify", "--scope", "flows", *args, "--out", str(tmp_path))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ") and "denominator within margin" in r.stderr

    @pytest.mark.parametrize("start, error", [
        # a stage value of z lands on 0 at the default step
        ("x=1,y=2,z=-1/2000,u=1/2,t=1/3",
         "f11.E_b: the RK4 run raised ZeroDivisionError: float division by zero"),
        # y ** 2 overflows in a rate of f11.E_a
        (f"x=1,y={10**160},z=3,u=1/2,t=1/3", "f11.E_a: the RK4 run raised OverflowError: "),
    ], ids=["stage-value-on-pole", "rate-overflows"])
    @pytest.mark.parametrize("scope", ["flows", "all"])
    def test_flow_run_error_writes_a_partial_report(self, tmp_path, scope, start, error):
        r = run_cli("verify", "--scope", scope, f"--start={start}", "--out", str(tmp_path))
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: {error}") and r.stderr.count("\n") == 1
        data = json.loads((tmp_path / f"verify_{scope}.json").read_text())
        assert data["ok"] is False
        assert data["error"] == r.stderr.strip()[len("error: "):]
        before = ["actions", "identities", "recursions"] if scope == "all" else []
        assert sorted(data["scopes"]) == before

    @pytest.mark.parametrize("scope", ["flows", "all"])
    def test_start_value_too_large_for_a_float_exits_2_before_any_scope(self, tmp_path, scope):
        item = f"x={10**400}"
        out = tmp_path / "out"
        r = run_cli("verify", "--scope", scope, f"--start={item},y=2,z=3,u=1/2,t=1/3",
                    "--out", str(out))
        assert r.returncode == 2
        assert r.stderr == f"error: --start item {item!r} is too large for a float\n"
        assert not out.exists()

    def test_failing_scope_keeps_the_finished_ones(self, tmp_path):
        r = run_cli("verify", "--scope", "all", "--alpha", "1", "--out", str(tmp_path))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        error = r.stderr.strip()
        assert error.startswith("error: ") and "denominator within margin" in error
        data = json.loads((tmp_path / "verify_all.json").read_text())
        assert data["ok"] is False
        assert data["error"] == error[len("error: "):]
        assert sorted(data["scopes"]) == ["actions", "identities", "recursions"]
        assert data["scopes"]["identities"]["summary"]["unresolved_failures"] == 0
        assert all(row["status"] == "PASS" for row in data["scopes"]["actions"]["rows"])
        md = (tmp_path / "verify_all.md").read_text()
        assert "## Differential recursions" in md and md.endswith(error + "\n")

    def test_degenerate_identity_point_writes_a_partial_report(self, tmp_path):
        # b = 2 lowers to b - l = 0 inside I-F11-LOWER-B.
        r = run_cli("verify", "--scope", "identities", "--points", "1/2,2,5/7",
                    "--out", str(tmp_path))
        assert r.returncode == 2
        assert r.stderr.strip() == "error: parameter b = 0 is zero or a negative integer"
        data = json.loads((tmp_path / "verify_identities.json").read_text())
        assert data["ok"] is False
        assert data["error"] == "parameter b = 0 is zero or a negative integer"
        md = (tmp_path / "verify_identities.md").read_text()
        assert md.endswith(r.stderr.strip() + "\n")

    @pytest.mark.parametrize("a, code, error", [
        (10**400, 2, "error: parameter a is too large for a float"),
        (10**200, 1, "no convergence: I-F11-RAISE-A: a side overflows at chi=0.1: "),
    ], ids=["parameter-float-overflows", "numeric-side-overflows"])
    def test_overflowing_numeric_row_writes_a_partial_report(self, tmp_path, capsys, a, code, error):
        argv = ["verify", "--scope", "identities", "--mode", "numeric",
                "--points", f"{a},4/3,5/7", "--out", str(tmp_path)]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(error) and err.count("\n") == 1
        data = json.loads((tmp_path / "verify_identities.json").read_text())
        assert (data["ok"], data["scopes"]) == (False, {})
        assert err.endswith(f": {data['error']}\n")
        md = (tmp_path / "verify_identities.md").read_text()
        assert md.endswith(f"error: {data['error']}\n")

    def test_formal_rows_at_a_parameter_too_large_for_a_float_pass(self, tmp_path, capsys):
        # the formal rows are exact
        argv = ["verify", "--scope", "identities", "--points", f"{10**400},4/3,5/7",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_commutator_error_writes_a_partial_report(self, tmp_path, monkeypatch, capsys):
        # the commutators scope runs last, so the four before it are written
        message = "commutator failed"

        def fail(op1, op2):
            raise ValueError(message)

        monkeypatch.setattr(liealg, "commutator", fail)
        assert cli.main(["verify", "--scope", "all", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        data = json.loads((tmp_path / "verify_all.json").read_text())
        assert data["ok"] is False
        assert data["error"] == message
        assert sorted(data["scopes"]) == ["actions", "flows", "identities", "recursions"]
        md = (tmp_path / "verify_all.md").read_text()
        assert md.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("points", ["1,4/3,5/7", "0,4/3,5/7"], ids=["a=1", "a=0"])
    def test_actions_at_integer_a_pass(self, tmp_path, points, capsys):
        assert cli.main(["verify", "--scope", "actions", "--points", points,
                         "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        rows = json.loads((tmp_path / "verify_actions.json").read_text())["scopes"]["actions"]["rows"]
        assert len(rows) == 8 + 9
        assert all(row["status"] == "PASS" for row in rows)

    @pytest.mark.parametrize("flag, value", [
        ("--action-order", "0"),
        ("--recursion-order", "0"),
        ("--action-order", "-1"),
    ])
    def test_order_below_one_exits_2_before_any_scope(self, tmp_path, flag, value):
        # an order-0 cut leaves no trusted coefficient of a derivative
        out = tmp_path / "out"
        r = run_cli("verify", "--scope", "all", flag, value, "--out", str(out))
        assert r.returncode == 2
        name = flag[2:].replace("-", "_")
        assert r.stderr == f"error: {name} must be >= 1, got {value}\n"
        assert not out.exists()

    def test_unpaired_mismatch_exits_1_with_its_report(self, tmp_path, monkeypatch, capsys):
        record = get_record("I-F11-LOWER-B")
        stripped = identities.IdentityRecord(**{**vars(record), "corrected": None})
        monkeypatch.setattr(identities, "catalogue", lambda: (stripped,))
        argv = ["verify", "--scope", "identities", "--points", "1/2,4/3,5/7",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == ""
        data = json.loads((tmp_path / "verify_identities.json").read_text())
        assert data["ok"] is False
        assert "error" not in data
        summary = data["scopes"]["identities"]["summary"]
        assert summary["rows"] == summary["as_stated_mismatched"] == 1
        assert summary["unresolved_failures"] == 1
        assert "unresolved_failures=1" in (tmp_path / "verify_identities.md").read_text()

    def test_partial_start_names_missing_coordinates(self, tmp_path):
        r = run_cli("verify", "--scope", "flows", "--start", "x=1,y=0", "--out", str(tmp_path))
        assert r.returncode == 2
        assert r.stderr.strip() == "error: flow start point lacks coordinates z, u, t"

    @pytest.fixture
    def no_scope_may_run(self, monkeypatch):
        def refuse(cfg):
            raise AssertionError("a scope ran")

        for name in cli.SCOPE_RUNNERS:
            monkeypatch.setitem(cli.SCOPE_RUNNERS, name, refuse)

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_partial_start_exits_2_before_any_scope(self, tmp_path, capsys, no_scope_may_run, via):
        out = tmp_path / "out"
        if via == "flag":
            given = ["--start", "x=1"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"start": "x=1"}))
            given = ["--config", str(config)]
        assert cli.main(["verify", "--scope", "all", *given, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: flow start point lacks coordinates y, z, u, t\n"
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("mode, chi, error", [
        ("both", "1", "I-F11-RAISE-A: chi=1.0 outside validity domain (|chi| < 1)"),
        ("numeric", "0.1,-1.5", "I-F11-RAISE-A: chi=-1.5 outside validity domain (|chi| < 1)"),
        ("numeric", "0.1,inf", "chi must be finite, got inf"),
        ("formal", "nan", "chi must be finite, got nan"),
    ], ids=["outside", "negative", "inf", "nan-formal"])
    def test_bad_chi_grid_exits_2_before_any_scope(self, tmp_path, capsys, no_scope_may_run,
                                                    via, mode, chi, error):
        # the domain is checked in catalogue order, then grid order, where
        # numeric identity rows run
        out = tmp_path / "out"
        if via == "flag":
            given = ["--mode", mode, f"--chi={chi}"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"chi": chi, "mode": mode}))
            given = ["--config", str(config)]
        assert cli.main(["verify", "--scope", "all", *given, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("scope, mode", [("identities", "formal"), ("actions", "both")])
    def test_chi_outside_a_domain_is_no_error_without_numeric_identity_rows(self, tmp_path,
                                                                           scope, mode):
        argv = ["verify", "--scope", scope, "--mode", mode, "--chi", "1",
                "--points", "1/2,4/3,5/7", "--out", str(tmp_path)]
        assert cli.main(argv) == 0

    def test_out_path_that_is_a_file_exits_2_before_any_scope(self, tmp_path, capsys,
                                                               no_scope_may_run):
        out = tmp_path / "taken"
        out.write_text("")
        argv = ["verify", "--scope", "all", "--mode", "both", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: {str(out)!r}\n"
        assert out.read_text() == ""


GOLDEN = Path(__file__).resolve().parent / "golden"


def assert_reports_match_golden(tmp_path, name, stem, *args):
    """Two runs agree with each other and with the stripped reports in golden/."""
    runs = []
    for run in ("runA", "runB"):
        r = run_cli("verify", *args, "--out", str(tmp_path / run))
        assert r.returncode == 0, r.stderr
        runs.append((
            strip_timing((tmp_path / run / f"{stem}.json").read_text()),
            (tmp_path / run / f"{stem}.md").read_text(),
        ))
    assert runs[0] == runs[1]
    assert runs[0][0] == (GOLDEN / f"{name}.json").read_text()
    assert runs[0][1] == (GOLDEN / f"{name}.md").read_text()


class TestDeterminism:
    def test_scope_all_byte_identical_modulo_timing(self, tmp_path):
        assert_reports_match_golden(
            tmp_path, "all_both", "verify_all", "--scope", "all", "--mode", "both"
        )

    def test_identities_deep_byte_identical_modulo_timing(self, tmp_path):
        assert_reports_match_golden(
            tmp_path, "identities_deep", "verify_identities",
            "--scope", "identities", "--mode", "formal",
            "--orders-f11", "8,16", "--orders-psi2", "5,8",
        )


# ``catalogue``'s output, byte for byte.
CATALOGUE_OUTPUT = "\n".join([
    'hypersym 0.1.0',
    '',
    'identity records:',
    '  I-F11-RAISE-A      [f11] ',
    '      (1-chi)^(-a) F(a;b;x/(1-chi)) = sum_l (a)_l/l! F(a+l;b;x) chi^l',
    '      validity: |chi| < 1',
    '  I-F11-RAISE-B      [f11] +corrected',
    '      note: left side replaced by exp(-chi) F(a;b;x+chi): the right side is the '
        'expansion of exp(chi (d/dx - 1)) applied to F, whose closed form shifts x and '
        'multiplies by exp(-chi); the stated left side mixes two different deformation '
        'variables',
    '      F(a;b;x(1+chi)) (1+chi)^(b-1) = sum_l (b-a)_l/(l!(b)_l) F(a;b+l;x) '
        '(-chi)^l',
    '      validity: |chi| < 1',
    '  I-F11-LOWER-A      [f11] +corrected',
    "      note: left side rebuilt from the lowering operator's actual "
        'characteristic system: argument x/(1-chi), prefactor (1-chi)^(a-b), and '
        "multiplier exp(-x chi/(1-chi)); the stated flow does not solve the operator's "
        'vector field',
    '      F(a;b;x/(1-chi(1-x))) ((1-chi)/(1-chi(1-x)))^b (1-chi)^a = sum_l '
        '(b-a)_l/l! F(a-l;b;x) chi^l',
    '      validity: |chi| < 1 and |chi(1-x)| < 1',
    '  I-F11-LOWER-B      [f11] +corrected',
    '      note: left-side exponent b-1 instead of b: the lowering flow carries the '
        'multiplier 1/(1+chi), which the stated form drops',
    '      F(a;b;x(1+chi)) (1+chi)^b = sum_l (b-l)_l/l! F(a;b-l;x) chi^l',
    '      validity: |chi| < 1',
    '  I-F11-SHIFT        [f11] ',
    '      F(a;b;x+chi) = sum_l (a)_l/(l!(b)_l) F(a+l;b+l;x) chi^l',
    '      validity: entire in chi',
    '  I-PSI2-REDUCTION   [psi2] ',
    '      Psi(a;b,c;x,y,chi) [triple series] = (1-chi)^(-a) '
        'Psi(a;b,c;x/(1-chi),y/(1-chi))',
    '      validity: |chi| < 1',
    '  I-PSI2-LOWER-B     [psi2] ',
    '      Psi(a;b,c;x(1+chi),y) (1+chi)^(b-1) = sum_l (b-l)_l/l! Psi(a;b-l,c;x,y) '
        'chi^l',
    '      validity: |chi| < 1',
    '  I-PSI2-LOWER-C     [psi2] ',
    '      Psi(a;b,c;x,y(1+chi)) (1+chi)^(c-1) = sum_l (c-l)_l/l! Psi(a;b,c-l;x,y) '
        'chi^l',
    '      validity: |chi| < 1',
    '  I-PSI2-SHIFT-X     [psi2] ',
    '      Psi(a;b,c;x+chi,y) = sum_l (a)_l/(l!(b)_l) Psi(a+l;b+l,c;x,y) chi^l',
    '      validity: entire in chi',
    '  I-PSI2-SHIFT-Y     [psi2] ',
    '      Psi(a;b,c;x,y+chi) = sum_l (a)_l/(l!(c)_l) Psi(a+l;b,c+l;x,y) chi^l',
    '      validity: entire in chi',
    '',
    'operators:',
    '  f11.E_a      x*y*d/dx + y^2*d/dy (see notes)',
    "  f11.E_a'     -x*y^-1 + x*y^-1*d/dx - d/dy + y^-1*z*d/dz",
    '  f11.E_b      -z + z*d/dx',
    "  f11.E_b'     -z^-1 + x*z^-1*d/dx + d/dz",
    '  f11.E_ab     y*z*d/dx',
    '  f11.I_a      y*d/dy',
    '  f11.I_b      z*d/dz',
    '  f11.I        1',
    '  psi2.E_a     x*z*d/dx + y*z*d/dy + z^2*d/dz',
    '  psi2.E_b     -u^-1 + d/du + u^-1*x*d/dx',
    '  psi2.E_c     -t^-1 + d/dt + t^-1*y*d/dy',
    '  psi2.E_ab    u*z*d/dx',
    '  psi2.E_ac    t*z*d/dy',
    '  psi2.I_a     z*d/dz',
    '  psi2.I_b     u*d/du',
    '  psi2.I_c     t*d/dt',
    '  psi2.I       1',
    '',
    "flows: f11.E_a, f11.E_b, f11.E_a', f11.E_b', f11.E_ab, psi2.E_a, psi2.E_b, "
        'psi2.E_c, psi2.E_ab, psi2.E_ac',
    'note [f11.E_a]: installed in the operative form y*(x d/dx + y d/dy); the '
        'displayed variant y*(d/dx + y d/dy) does not reproduce the raising action and '
        'is rejected by the exact series check',
    "",
])


class TestCatalogueCommand:
    def test_output_is_pinned(self):
        r = run_cli("catalogue")
        assert (r.returncode, r.stdout, r.stderr) == (0, CATALOGUE_OUTPUT, "")

    def test_listings(self):
        r = run_cli("catalogue")
        assert r.returncode == 0
        out = r.stdout
        for rec_id in ("I-F11-RAISE-A", "I-PSI2-SHIFT-Y"):
            assert rec_id in out
        assert "f11.E_a" in out and "psi2.E_ac" in out
        assert "+corrected" in out

    def test_correction_note_under_its_record(self):
        lines = run_cli("catalogue").stdout.splitlines()
        i = next(k for k, line in enumerate(lines) if "I-F11-LOWER-B" in line)
        assert lines[i].endswith("+corrected")
        assert lines[i + 1] == f"      note: {get_record('I-F11-LOWER-B').note}"
        assert "exponent b-1 instead of b" in lines[i + 1]
        assert sum(line.startswith("      note: ") for line in lines) == 3


# -- the two readers of the option table ---------------------------------------

# The usage outputs of argparse, recorded from the front end that always
# parsed with it; the width argparse wraps at is pinned by COLUMNS.
EVAL_USAGE = """\
usage: hypersym eval [-h] --fn {f11,psi2,psi2x3} --a A --b B [--c C] --x X
                     [--y Y] [--z Z] [--exact] [--float] [--terms TERMS]
                     [--tol TOL] [--term-cap TERM_CAP]
"""
EVAL_F11 = ("eval", "--fn", "f11", "--a", "1", "--b", "1", "--x", "1")
ARGPARSE_PATH = {
    "help": (("--help",), 0, """\
usage: hypersym [-h] [--version] {eval,verify,catalogue} ...

exact verification engine for hypergeometric shift identities

positional arguments:
  {eval,verify,catalogue}
    eval                evaluate a function at a point
    verify              run a verification scope, write reports
    catalogue           print identity and operator listings

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""", ""),
    "eval-help": (("eval", "--help"), 0, EVAL_USAGE + """
options:
  -h, --help            show this help message and exit
  --fn {f11,psi2,psi2x3}
  --a A
  --b B
  --c C
  --x X
  --y Y
  --z Z
  --exact               force exact mode
  --float               force floating mode
  --terms TERMS         truncation order for exact mode
  --tol TOL             relative tolerance for floating mode
  --term-cap TERM_CAP
""", ""),
    "verify-help": (("verify", "--help"), 0, """\
usage: hypersym verify [-h]
                       [--scope {identities,actions,recursions,flows,commutators,all}]
                       [--config CONFIG] [--points POINTS]
                       [--orders-f11 ORDERS_F11] [--orders-psi2 ORDERS_PSI2]
                       [--action-order ACTION_ORDER]
                       [--recursion-order RECURSION_ORDER]
                       [--mode {formal,numeric,both}] [--chi CHI] [--tol TOL]
                       [--flow-tol FLOW_TOL] [--alpha ALPHA] [--step STEP]
                       [--start START] [--seed SEED] [--out OUT]
                       [--format {json,md,both}]

options:
  -h, --help            show this help message and exit
  --scope {identities,actions,recursions,flows,commutators,all}
  --config CONFIG       flat JSON config file; flags override
  --points POINTS       semicolon-separated a,b,c rational triples
  --orders-f11 ORDERS_F11
                        N,M orders for one-argument records
  --orders-psi2 ORDERS_PSI2
                        N,M orders for two-argument records
  --action-order ACTION_ORDER
  --recursion-order RECURSION_ORDER
  --mode {formal,numeric,both}
  --chi CHI             comma-separated chi grid
  --tol TOL
  --flow-tol FLOW_TOL
  --alpha ALPHA
  --step STEP
  --start START         flow start point, e.g. x=1,y=2,z=3,u=1/2,t=1/3
  --seed SEED
  --out OUT             report output directory
  --format {json,md,both}
""", ""),
    "version": (("--version",), 0, "0.1.0\n", ""),
    "abbreviation": ((*EVAL_F11, "--exa", "--terms", "5"), 0, "163/60\n", ""),
    "ambiguous": ((*EVAL_F11, "--term", "5"), 2, "", EVAL_USAGE
                  + "hypersym eval: error: ambiguous option: --term could match --terms, "
                    "--term-cap\n"),
    "missing": (EVAL_F11[:-2], 2, "", EVAL_USAGE
                + "hypersym eval: error: the following arguments are required: --x\n"),
    "choice": (("eval", "--fn", "bogus", *EVAL_F11[3:]), 2, "", EVAL_USAGE
               + "hypersym eval: error: argument --fn: invalid choice: 'bogus' "
                 "(choose from 'f11', 'psi2', 'psi2x3')\n"),
    "int": ((*EVAL_F11, "--terms", "1.5"), 2, "", EVAL_USAGE
            + "hypersym eval: error: argument --terms: invalid int value: '1.5'\n"),
    "unknown": ((*EVAL_F11, "--w", "1"), 2, "",
                "usage: hypersym [-h] [--version] {eval,verify,catalogue} ...\n"
                "hypersym: error: unrecognized arguments: --w 1\n"),
    "flag-value": ((*EVAL_F11, "--exact=1"), 2, "", EVAL_USAGE
                   + "hypersym eval: error: argument --exact: ignored explicit argument '1'\n"),
    "dash-value": (("verify", "--scope", "flows", "--out", "-"), 0,
                   "scope=flows ok=True reports written to -/\n", ""),
}


@pytest.mark.parametrize("case", ARGPARSE_PATH)
def test_argparse_path_output_is_unchanged(case, tmp_path):
    """Command lines the direct parse declines print what argparse printed
    when it parsed every command line, and exit with its codes."""
    argv, code, out, err = ARGPARSE_PATH[case]
    assert cli._parse_direct(cli._glue_negative_values(list(argv))) is None
    r = subprocess.run([sys.executable, "-m", "hypersym.cli", *argv], capture_output=True,
                       text=True, cwd=tmp_path, env={**os.environ, "COLUMNS": "80"})
    assert (r.returncode, r.stdout, r.stderr) == (code, out, err)
    if case == "dash-value":
        assert sorted(p.name for p in (tmp_path / "-").iterdir()) == [
            "verify_flows.json", "verify_flows.md"]


def _dash_value_cases():
    """(argv, option named) for each value option of every command written
    ``--flag=--`` after the command's required options, and the abbreviated
    ``verify --ou=--``."""
    for command, (_run, _help, options) in cli.COMMANDS.items():
        required = {flag: "f11" if flag == "--fn" else "1"
                    for flag, keywords in options.items() if keywords.get("required")}
        for flag, keywords in options.items():
            if keywords.get("action") != "store_true":
                given = [token for other, value in required.items() if other != flag
                         for token in (other, value)]
                yield [command, *given, f"{flag}=--"], flag
    yield ["verify", "--ou=--"], "--out"


DASH_VALUE_CASES = list(_dash_value_cases())


@pytest.mark.parametrize("argv, flag", DASH_VALUE_CASES,
                         ids=[f"{argv[0]} {argv[-1]}" for argv, _flag in DASH_VALUE_CASES])
def test_dash_value_is_a_usage_error(argv, flag, tmp_path, monkeypatch, capsys):
    """argparse 3.11 reads ``--flag=--`` as an option given no value; the
    command stops there, before it writes any report."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: argument {flag}: expected one argument\n")
    assert list(tmp_path.iterdir()) == []


def test_dash_value_cases_cover_every_value_option():
    flags = {argv[0] + " " + flag for argv, flag in DASH_VALUE_CASES}
    assert len(DASH_VALUE_CASES) == len(flags) + 1
    assert {"eval --fn", "eval --b", "eval --x", "eval --terms", "verify --scope",
            "verify --tol", "verify --out", "verify --points", "verify --mode",
            "verify --config"} <= flags


def test_dash_value_of_a_flag_keeps_the_argparse_error(capsys):
    assert cli.main([*EVAL_F11, "--exact=--"]) == 2
    assert capsys.readouterr().err.endswith(
        "hypersym eval: error: argument --exact: ignored explicit argument '--'\n")


def test_valid_command_lines_neither_build_the_parser_nor_import_argparse(tmp_path):
    code = f"""
import sys
from hypersym import cli
for argv in ({list(EVAL_F11)!r}, ["verify", "--scope", "flows", "--out", {str(tmp_path)!r}],
             ["catalogue"]):
    assert cli.main(argv) == 0, argv
assert cli._build_parser.cache_info().misses == 0
assert "argparse" not in sys.modules
"""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "")


def _argparse_vars(argv):
    try:
        return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        pytest.fail(f"argparse rejects {argv}, which the direct parse accepts")


def _same_vars(direct, parsed):
    """``vars`` equal, with a NaN value equal to a NaN and every value of the
    same type."""
    def key(names):
        return {name: (type(value), repr(value)) for name, value in names.items()}
    assert key(vars(direct)) == key(parsed)


# Values of every kind the options take or refuse: numbers, rationals and
# point lists, bad ints and floats, empty text, text that is a command or an
# option string, and values that start with a minus sign (glued or not).
VALUES = st.one_of(
    st.sampled_from([
        "1", "0", "+5", " 7 ", "1_000", "٣", "1.5", "1e-3", "inf", "nan", "1/2", "oops",
        "0x10", "", "f11", "psi2", "psi2x3", "bogus", "all", "flows", "numeric", "json", "eval",
        "verify", "x=1,y=2,z=3,u=1/2,t=1/3", "1/2,2,5/7;1,1,1", "8,16", "a b", "a=b",
        "-", "--", "-1/2", "-3", "-0.5", "-1e-3", "-2,3,3", "-x", "--a", "--exact", "-h",
        "--version",
    ]),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False).map(repr),
    st.text(alphabet="-=,./0123456789abexyz", max_size=6),
)


def _flags(command):
    """Option strings for ``command``: its own, abbreviated, another
    command's, and strings no command takes."""
    own = list(cli.COMMANDS[command][2])
    others = [flag for _run, _help, options in cli.COMMANDS.values() for flag in options]
    return st.one_of(
        st.sampled_from(own or ["--help"]),
        st.sampled_from(own or ["--help"]).flatmap(
            lambda flag: st.integers(3, max(3, len(flag) - 1)).map(lambda k: flag[:k])),
        st.sampled_from(others + ["--w", "-h", "--help", "--version", "--", "-", "x", "eval"]),
    )


def _good_value(keywords):
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if keywords.get("type") is int:
        return st.integers(-10**30, 10**30).map(str) | st.sampled_from(["+5", " 7 ", "1_000"])
    if keywords.get("type") is float:
        return st.floats().map(repr) | st.sampled_from(["1e-3", "-inf", ".5", "1_0.5"])
    return VALUES.filter(lambda value: value != "--")  # argparse drops a "--" value


@st.composite
def well_formed_command_line(draw):
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    options = cli.COMMANDS[command][2]
    required = [flag for flag, keywords in options.items() if keywords.get("required")]
    chosen = draw(st.lists(st.sampled_from(list(options)), max_size=8)) if options else []
    argv = [command]
    for flag in draw(st.permutations(required + chosen)):
        keywords = options[flag]
        if keywords.get("action") == "store_true":
            argv.append(flag)
            continue
        value = draw(_good_value(keywords))
        if value.startswith("-") or draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


@st.composite
def any_command_line(draw):
    """A well-formed command line with one to three edits: each inserts, or
    puts in place of one token, nothing, a value, or an option string alone,
    with a value after it or joined to one by ``=``."""
    argv = draw(well_formed_command_line())
    for _ in range(draw(st.integers(1, 3))):
        flag = draw(_flags(argv[0] if argv and argv[0] in cli.COMMANDS else "eval"))
        value = draw(VALUES)
        piece = draw(st.sampled_from([[], [value], [flag], [flag, value], [f"{flag}={value}"]]))
        i = draw(st.integers(0, len(argv)))
        argv = argv[:i] + piece + argv[i + draw(st.integers(0, i < len(argv))):]
    return argv


class TestDirectParse:
    """The direct parse gives argparse's namespace wherever it answers, and
    answers for every well-formed command line."""

    @settings(max_examples=400, deadline=None)
    @given(argv=any_command_line())
    def test_an_accepted_command_line_parses_as_argparse_parses_it(self, argv):
        argv = cli._glue_negative_values(argv)
        direct = cli._parse_direct(argv)
        if direct is not None:
            _same_vars(direct, _argparse_vars(argv))

    @settings(max_examples=300, deadline=None)
    @given(argv=well_formed_command_line())
    def test_a_well_formed_command_line_is_accepted(self, argv):
        argv = cli._glue_negative_values(argv)
        direct = cli._parse_direct(argv)
        assert direct is not None, argv
        _same_vars(direct, _argparse_vars(argv))

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["--version"], ["bogus"], ["eval", "-h"],
        [*EVAL_F11, "--exa"], [*EVAL_F11, "--term", "5"], [*EVAL_F11, "--w", "1"],
        [*EVAL_F11, "--terms", "1.5"], [*EVAL_F11, "--tol", "oops"], [*EVAL_F11, "stray"],
        ["eval", "--fn", "bogus", *EVAL_F11[3:]], list(EVAL_F11[:-2]), [*EVAL_F11, "--exact=1"],
        [*EVAL_F11, "--c"], [*EVAL_F11, "--c", "-"], [*EVAL_F11, "--c", "-x"],
        [*EVAL_F11, "--c=--"],
        ["verify", "--out", "-"], ["verify", "--", "--out", "x"], ["catalogue", "x"],
    ], ids=repr)
    def test_declines_what_argparse_must_answer(self, argv):
        assert cli._parse_direct(cli._glue_negative_values(argv)) is None

    def test_last_of_a_repeated_option_wins(self):
        argv = [*EVAL_F11, "--terms", "5", "--terms=7", "--exact", "--exact"]
        args = cli._parse_direct(argv)
        assert (args.terms, args.exact, args.float) == (7, True, False)
        _same_vars(args, _argparse_vars(argv))
