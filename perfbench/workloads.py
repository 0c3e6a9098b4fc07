"""Workload inputs, references and output checks.

Each workload turns a seed into the CLI argument lists of one pass and into
the references its outputs are checked against.  The verify workloads
compare verdict fields row by row with references recorded from the seed
commit (``refs/``); ``eval_psi2x3`` compares the printed rational with an
independent exact sum; ``float_numeric`` compares each ``eval --float``
value with mpmath.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

DEFAULT_POINTS = (("1/2", "4/3", "5/7"), ("3/2", "7/3", "11/6"), ("2/5", "9/4", "5/7"))
FLOAT_TOL = 1e-10
GROSS_FACTOR = 1e4
CANCEL_FACTOR = 10
NUMERIC_TOL = 1e-8  # the suite's default tolerance, for float witness values
GRID_F11 = 90
GRID_PSI2 = 90
GRID_PSI2X3 = 36
PSI2X3_MAGNITUDE_TERMS = 80  # |x|, |y| <= 2 and |z| <= 1/2 converge well before this


@dataclass
class Failure:
    op: str
    reason: str


@dataclass
class Check:
    """Outcome of checking one pass."""

    attempted: int = 0
    failures: list[Failure] = field(default_factory=list)
    tol_misses: list[str] = field(default_factory=list)

    def fail(self, op: str, reason: str) -> None:
        self.failures.append(Failure(op, reason))


# -- verdict extraction -----------------------------------------------------------

def _params_key(params: dict) -> str:
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


def verdicts(payload: dict) -> dict[str, dict]:
    """Verdict fields of every row of a ``verify`` JSON report, keyed by row.

    Only verdict fields are kept, so fields a later report adds (timings,
    config echoes) do not count as differences.  Float witness values of
    numeric identity rows are kept as floats and compared within the suite's
    tolerance; everything else compares exactly.
    """
    out: dict[str, dict] = {}
    scopes = payload["scopes"]
    for r in scopes.get("identities", {}).get("rows", []):
        key = f"identities|{r['id']}|{r['variant']}|{r['mode']}|{_params_key(r['params'])}"
        if r["mode"] == "numeric":
            key += f"|chi={r['chi']}"
            w = r["witness"]
            out[key] = {"status": r["status"],
                        "lhs": None if w is None else float(w["lhs"]),
                        "rhs": None if w is None else float(w["rhs"])}
        else:
            out[key] = {"status": r["status"], "witness": r["witness"]}
    for r in scopes.get("actions", {}).get("rows", []):
        key = f"actions|{r['op']}|{r['family']}|{_params_key(r['params'])}"
        out[key] = {k: r.get(k) for k in ("status", "witness", "coefficient", "shift")}
    for r in scopes.get("recursions", {}).get("rows", []):
        key = f"recursions|{r['relation']}|a={r['a']},b={r['b']}"
        out[key] = {k: r.get(k) for k in ("status", "residual")}
    for r in scopes.get("flows", {}).get("rows", []):
        out[f"flows|{r['flow']}"] = {"status": r["status"]}
    commutators = scopes.get("commutators", {}).get("result", {})
    for fam, rows in commutators.get("families", {}).items():
        for r in rows:
            out[f"commutators|{fam}|{r['pair']}"] = {
                k: r.get(k) for k in ("result", "in_span", "coefficients", "residual")}
    return out


def _fields_equal(ref: dict, got: dict) -> bool:
    for name, want in ref.items():
        have = got.get(name)
        if isinstance(want, float) and isinstance(have, float):
            if abs(want - have) > NUMERIC_TOL * max(1.0, abs(want)):
                return False
        elif want != have:
            return False
    return True


def compare_verdicts(reference: dict[str, dict], report: dict | None, check: Check,
                     label: str) -> None:
    """Count one operation per reference row; a missing or differing row fails."""
    got = verdicts(report) if report is not None else {}
    for key, ref_fields in reference.items():
        check.attempted += 1
        if key not in got:
            check.fail(f"{label}:{key}", "row missing from report")
        elif not _fields_equal(ref_fields, got[key]):
            check.fail(f"{label}:{key}", f"expected {ref_fields}, got {got[key]}")


def load_ref(name: str) -> dict:
    return json.loads((REFS / f"{name}.json").read_text())


# -- workloads ----------------------------------------------------------------------

def _points_arg(rng: random.Random) -> str:
    points = list(DEFAULT_POINTS)
    rng.shuffle(points)
    return ";".join(",".join(p) for p in points)


@dataclass
class VerifyCall:
    """A ``verify`` call whose report rows are checked against a reference."""

    ref: str
    argv: list[str]


@dataclass
class EvalCall:
    """An ``eval`` call whose printed value is checked."""

    argv: list[str]
    expect: Fraction | float       # exact: the rational; float: the mpmath value
    magnitude: float = 0.0         # float: the sum at |x|, |y|, |z|, where no term is negative


def _verify_argv(ref: dict, points: str, out: str, extra: list[str] = ()) -> list[str]:
    return list(ref["argv"]) + ["--points", points, *extra, "--out", out]


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, out_dir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.calls: list[VerifyCall | EvalCall] = []

    def argvs(self) -> list[list[str]]:
        return [c.argv for c in self.calls]

    def timed_call(self, argv: list[str]) -> bool:
        """Whether a call's latency is an ``eval_ms`` sample."""
        return True

    def ops_per_pass(self) -> int:
        n = 0
        for c in self.calls:
            n += len(load_ref(c.ref)["rows"]) if isinstance(c, VerifyCall) else 1
        return n

    def check(self, results: list[dict], check: Check) -> None:
        for call, res in zip(self.calls, results):
            if isinstance(call, VerifyCall):
                self._check_verify(call, res, check)
            else:
                self._check_eval(call, res, check)

    def _check_verify(self, call: VerifyCall, res: dict, check: Check) -> None:
        ref = load_ref(call.ref)
        report = None
        if res["error"] is None and res["rc"] == ref["exit_code"]:
            scope = call.argv[call.argv.index("--scope") + 1]
            path = Path(call.argv[call.argv.index("--out") + 1]) / f"verify_{scope}.json"
            if path.exists():
                report = json.loads(path.read_text())
                path.unlink()
        if report is None:
            reason = res["error"] or f"exit code {res['rc']}, expected {ref['exit_code']}"
            for key in ref["rows"]:
                check.attempted += 1
                check.fail(f"{call.ref}:{key}", reason)
            return
        compare_verdicts(ref["rows"], report, check, call.ref)

    def _check_eval(self, call: EvalCall, res: dict, check: Check) -> None:
        check.attempted += 1
        op = " ".join(call.argv)
        if res["error"] is not None or res["rc"] != 0:
            check.fail(op, res["error"] or f"exit code {res['rc']}: {res['stderr'].strip()}")
            return
        text = res["stdout"].strip()
        if isinstance(call.expect, Fraction):
            if text != str(call.expect):
                check.fail(op, "exact value differs from the independent sum")
            return
        try:
            value = float(text.split()[0])
        except (ValueError, IndexError):
            check.fail(op, f"unparseable output {text!r}")
            return
        ref = call.expect
        if not math.isfinite(value):
            check.fail(op, f"non-finite value {value}")
            return
        error = abs(value - ref) / abs(ref)
        if error > FLOAT_TOL:
            # The float evaluators do not yet meet their tolerance: the
            # alternating sums cancel at negative arguments, and the stopping
            # rule can end a positive sum just short of it.  Such misses are
            # counted, not failed.  Each term of a sum carries the error of
            # the inner sums it holds, which stop at the tolerance (rounding
            # is far below it), so a sum whose terms reach the magnitude M of
            # the all-positive sum may be off by about FLOAT_TOL * M: a
            # relative error of FLOAT_TOL * M / |F|, large where terms
            # cancel.  A miss beyond CANCEL_FACTOR times that, and beyond
            # GROSS_FACTOR times the tolerance, is a wrong value.
            check.tol_misses.append(op)
            amplification = call.magnitude / abs(ref)
            limit = max(GROSS_FACTOR * FLOAT_TOL, CANCEL_FACTOR * FLOAT_TOL * amplification)
            if error > limit:
                check.fail(op, f"value {value!r} misses mpmath {ref!r} by {error:.3g}, "
                               f"beyond the cancellation bound {limit:.3g}")


class VerifyDefault(Workload):
    name = "verify_default"
    why = ("the headline verify --scope all --mode both at default orders: many "
           "small and medium series, Pochhammer coefficients and ring operations")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        ref = load_ref("verify_default")
        extra = ["--seed", str(self.rng.randrange(10**6))]
        self.calls = [VerifyCall("verify_default",
                                 _verify_argv(ref, _points_arg(self.rng), out_dir, extra))]


class IdentitiesDeep(Workload):
    name = "identities_deep"
    why = ("formal identities above the default orders: few large dense series with "
           "big rationals, so ring products and composition dominate")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        ref = load_ref("identities_deep")
        self.calls = [VerifyCall("identities_deep",
                                 _verify_argv(ref, _points_arg(self.rng), out_dir))]


def _point_coordinate(rng: random.Random, q: int) -> Fraction:
    """A non-zero rational +-p/q in lowest terms with 0 < p < q.

    The denominator is fixed per coordinate so that the bit size of the
    point, which sets the cost of evaluating at it, is the same for every
    seed.
    """
    while True:
        value = Fraction(rng.randint(1, q - 1), q)
        if value.denominator == q:
            return value if rng.random() < 0.5 else -value


def psi2x3_exact(a, b, c, x, y, z, terms: int):
    """Triple sum truncated at ``terms`` in each index, by term ratios.

    (a)_{l+m+n} = (a)_l (a+l)_m (a+l+m)_n, so the sum nests into
    sum_l (a)_l z^l/l! sum_m (a+l)_m x^m/(m!(b)_m) G(l+m) with
    G(k) = sum_n (a+k)_n y^n/(n!(c)_n).  Independent of the library code.
    Exact on Fractions; on non-negative floats every term is positive, so
    the float sum is accurate to rounding.
    """
    def inner(k: int) -> Fraction:
        total, term = Fraction(0), Fraction(1)
        for n in range(terms + 1):
            total += term
            term = term * (a + k + n) * y / ((n + 1) * (c + n))
        return total

    g = [inner(k) for k in range(2 * terms + 1)]
    total, outer = Fraction(0), Fraction(1)
    for l in range(terms + 1):
        middle, term = Fraction(0), Fraction(1)
        for m in range(terms + 1):
            middle += term * g[l + m]
            term = term * (a + l + m) * x / ((m + 1) * (b + m))
        total += outer * middle
        outer = outer * (a + l) * z / (l + 1)
    return total


class EvalPsi2x3(Workload):
    name = "eval_psi2x3"
    why = ("exact triple-series evaluation at 20 terms: Pochhammer-bound "
           "coefficient generation with no series products")
    # 20 rather than the CLI default of 30 terms: a 30-term pass takes 8-11 s,
    # too few passes per run for a steady figure on a shared machine.
    TERMS = 20

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        a, b, c = (Fraction(v) for v in DEFAULT_POINTS[0])
        x, y, z = (_point_coordinate(self.rng, q) for q in (7, 8, 9))
        argv = ["eval", "--fn", "psi2x3", "--a", str(a), "--b", str(b), "--c", str(c),
                f"--x={x}", f"--y={y}", f"--z={z}", "--exact", "--terms", str(self.TERMS)]
        expect = psi2x3_exact(a, b, c, x, y, z, self.TERMS)
        self.calls = [EvalCall(argv, expect)]


MULTIPLIERS = (1, 7, 11)  # coprime to the grid sizes, so each is a permutation


def _grid(rng: random.Random, n: int, ranges: list[tuple[float, float]]):
    """n points ``(i, coordinates)`` on a Latin grid over the given ranges.

    Each range is cut into n equal cells and point i takes cell
    (i * MULTIPLIERS[k]) % n of coordinate k, so every seed pairs the same
    cells and covers each range evenly, negative half included.  The seed
    only moves each coordinate within its cell and shuffles the points, so
    the cost of a grid varies little from seed to seed.  The index i picks
    the parameter point, so that pairing is fixed too.
    """
    points = []
    for i in range(n):
        point = []
        for k, (lo, hi) in enumerate(ranges):
            cell = (i * MULTIPLIERS[k]) % n
            point.append(f"{lo + (hi - lo) * (cell + rng.random()) / n:.4f}")
        points.append((i, point))
    rng.shuffle(points)
    return points


class FloatNumeric(Workload):
    name = "float_numeric"
    why = ("the float paths: seeded eval --float grids on f11, psi2 and psi2x3 "
           "(negative arguments included), RK4 flows and numeric identities")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        import mpmath

        mpmath.mp.dps = 30
        rng = self.rng
        params = [tuple(Fraction(v) for v in p) for p in DEFAULT_POINTS]
        mp = [tuple(mpmath.mpf(q.numerator) / q.denominator for q in p) for p in params]
        tol = ["--float", "--tol", repr(FLOAT_TOL)]

        for i, (x,) in _grid(rng, GRID_F11, [(-40, 40)]):
            (a, b, _c), (fa, fb, _fc) = params[i % 3], mp[i % 3]
            argv = ["eval", "--fn", "f11", "--a", str(a), "--b", str(b), f"--x={x}", *tol]
            ref = float(mpmath.hyp1f1(fa, fb, float(x)))
            magnitude = float(mpmath.hyp1f1(fa, fb, abs(float(x))))
            self.calls.append(EvalCall(argv, ref, magnitude))

        for i, (x, y) in _grid(rng, GRID_PSI2, [(-8, 8), (-8, 8)]):
            (a, b, c), (fa, fb, fc) = params[i % 3], mp[i % 3]
            argv = ["eval", "--fn", "psi2", "--a", str(a), "--b", str(b), "--c", str(c),
                    f"--x={x}", f"--y={y}", *tol]
            ref, magnitude = (
                float(mpmath.hyper2d({"m+n": [fa]}, {"m": [fb], "n": [fc]}, u, v))
                for u, v in ((float(x), float(y)), (abs(float(x)), abs(float(y)))))
            self.calls.append(EvalCall(argv, ref, magnitude))

        # |z| <= 1/2 keeps the triple series inside its radius |z| < 1.
        for i, (x, y, z) in _grid(rng, GRID_PSI2X3, [(-2, 2), (-2, 2), (-0.5, 0.5)]):
            (a, b, c), (fa, fb, fc) = params[i % 3], mp[i % 3]
            argv = ["eval", "--fn", "psi2x3", "--a", str(a), "--b", str(b), "--c", str(c),
                    f"--x={x}", f"--y={y}", f"--z={z}", *tol]
            ref = float(psi2x3_mpmath(fa, fb, fc, float(x), float(y), float(z)))
            # The float nesting of the exact sum: mpmath takes seconds here.
            magnitude = psi2x3_exact(float(a), float(b), float(c), abs(float(x)),
                                     abs(float(y)), abs(float(z)), PSI2X3_MAGNITUDE_TERMS)
            self.calls.append(EvalCall(argv, ref, magnitude))

        flows = load_ref("flows_fine")
        self.calls.append(VerifyCall("flows_fine", list(flows["argv"]) + ["--out", out_dir]))
        numeric = load_ref("identities_numeric")
        self.calls.append(VerifyCall("identities_numeric",
                                     _verify_argv(numeric, _points_arg(rng), out_dir)))

    def timed_call(self, argv):
        return argv[0] == "eval"


def psi2x3_mpmath(a, b, c, x: float, y: float, z: float):
    """sum_l (a)_l z^l / l! * Psi2(a+l; b, c; x, y) at mpmath precision."""
    import mpmath

    total = mpmath.mpf(0)
    weight = mpmath.mpf(1)
    small = 0
    for l in range(10000):
        term = weight * mpmath.hyper2d({"m+n": [a + l]}, {"m": [b], "n": [c]}, x, y)
        total += term
        small = small + 1 if abs(term) < mpmath.mpf(10) ** -17 * abs(total) else 0
        if small >= 3 and l > 10:
            return total
        weight *= (a + l) * z / (l + 1)
    raise ArithmeticError("psi2x3 reference did not converge")


WORKLOADS = {w.name: w for w in (VerifyDefault, IdentitiesDeep, EvalPsi2x3, FloatNumeric)}
