"""The hypersym benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``BENCHMARK.json``, or ``all`` to run every
workload in turn.  The seed makes the workload's inputs; the program only
sees the generated CLI arguments.  Each pass is one fresh process that
imports hypersym, builds its catalogues and calls ``hypersym.cli.main``, so
a pass costs what a CLI user pays.  Passes run one at a time until S seconds
of passes are spent.  Every verdict and value a pass produces is checked.

Timings are corrected for the speed of the shared host with the probe of
``speed.py``, and each is the median over the run.  With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced, and it holds the
per-layer metrics instead.  A record of the inputs, every pass and the
environment goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import CPU, probe_time, slowdown, work_time  # noqa: E402
from tracer import LAYERS, layer_metric_names  # noqa: E402
from workloads import WORKLOADS, Check  # noqa: E402

SETUP_PROBES = 3          # set-up-only processes after each pass, besides the pass's own
PASS_TIMEOUT_S = 120      # a pass that runs longer counts as failed
RUN_LIMIT_S = 120         # no new pass starts after this much of a run

END_TO_END = (
    ("setup_s", "s"), ("pass_s", "s"), ("cpu_s", "s"), ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("eval_ms.p50", "ms"), ("eval_ms.tail", "ms"),
)


class PassFailed(RuntimeError):
    """A pass process exited without writing its result."""


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile, from 50 up, with at least ten samples beyond it.

    The nearest-rank p-th percentile of n samples is the ceil(p n / 100)-th
    smallest; the samples beyond it are the n - ceil(p n / 100) larger ones.
    None when even the median has fewer than ten samples beyond it.
    """
    best = None
    for p in range(50, 100):
        if n - math.ceil(p * n / 100) >= 10:
            best = p
    return best


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def tail(values: list[float]) -> tuple[float, str]:
    """The tail latency and its label: the tail percentile, or the maximum
    when too few samples leave ten beyond any percentile from the median up."""
    p = tail_percentile(len(values))
    if p is None:
        return max(values), "max"
    return percentile(values, p), f"p{p}"


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git_sha": sha}


def run_pass(tmp: Path, argvs: list[list[str]], trace: bool) -> dict:
    spec = tmp / "spec.json"
    result = tmp / "result.json"
    spec.write_text(json.dumps({"src": str(ROOT / "src"), "calls": argvs, "trace": trace}))
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "pass_proc.py"), str(spec), str(result)],
                              capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass ran longer than {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result.exists():
        raise PassFailed(proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}")
    res = json.loads(result.read_text())
    (start, _cpu), (done, _cpu) = res.pop("setup_window")
    res["setup_wall_s"] = done - start
    res["setup_s"] = work_time(start, done, res.pop("setup_probe"), res["setup_warm_up"][0])
    if res["probe"]:
        correct_pass(res)
    return res


def setup_sample(res: dict) -> dict:
    return {"setup_s": res["setup_s"], "setup_wall_s": res["setup_wall_s"]}


def correct_pass(res: dict) -> None:
    """Replace a probed pass's timings with their values at reference speed.

    The wall time net of the probe stays as ``wall_pass_s``.  ``cpu_s`` is
    scaled gap by gap on the CPU clock, with the probe's CPU times: time the
    host takes the virtual CPU away counts on neither side.
    """
    samples = res.pop("probe")
    t0, t1 = res.pop("window")
    res["slowdown"] = slowdown(samples)
    res["wall_pass_s"] = res["pass_s"] - probe_time(t0, t1, samples)
    res["pass_s"] = work_time(t0, t1, samples)
    res["cpu_s"] = work_time(*res.pop("cpu_window"), samples, clock=CPU)
    for c in res["calls"]:
        c["ms"] = 1000.0 * work_time(*c.pop("window"), samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    run_start = time.monotonic()
    setups: list[dict] = []   # set-up time at reference speed and on the wall clock
    out_dir = tmp / "reports"
    workload = WORKLOADS[name](seed, str(out_dir))
    argvs = workload.argvs()
    ops = workload.ops_per_pass()

    check = Check()
    passes: list[dict] = []
    durations: list[float] = []   # of a pass and the set-up probes after it
    measure_end = time.monotonic() + seconds
    traced_next = False
    while True:
        traced = trace and traced_next
        traced_next = not traced_next
        t0 = time.monotonic()
        try:
            res = run_pass(tmp, argvs, traced)
        except PassFailed as exc:
            check.attempted += ops
            check.fail(f"pass {len(durations)}", str(exc))
            res = None
        if res is not None:
            pass_check = Check()
            workload.check(res["calls"], pass_check)
            check.attempted += pass_check.attempted
            check.failures += pass_check.failures
            check.tol_misses += pass_check.tol_misses
            setups.append(setup_sample(res))
            res["traced"] = traced
            res["tol_misses"] = len(pass_check.tol_misses)
            res["eval_ms"] = [c["ms"] for argv, c in zip(argvs, res["calls"])
                              if workload.timed_call(argv)]
            for c in res["calls"]:
                del c["stdout"], c["stderr"]
            passes.append(res)
        setups += [setup_sample(run_pass(tmp, [], False)) for _ in range(SETUP_PROBES)]
        durations.append(time.monotonic() - t0)
        n_untraced = sum(not p["traced"] for p in passes)
        enough = n_untraced > 0 and (not trace or n_untraced < len(passes))
        now = time.monotonic()
        if now - run_start > RUN_LIMIT_S:
            break
        if enough and now + statistics.median(durations) > measure_end:
            break

    untraced = [p for p in passes if not p["traced"]]
    if not untraced:
        raise PassFailed(f"no pass of {name} completed: {check.failures[-1].reason}")
    traced_passes = [p for p in passes if p["traced"]]
    metrics, notes = end_to_end(setups, untraced, ops)
    if trace:
        if not traced_passes:
            raise PassFailed(f"no traced pass of {name} completed")
        metrics, notes = layer_metrics(traced_passes, untraced)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": workload.why, "inputs": argvs, "ops_per_pass": ops,
        "attempted": check.attempted, "failed": len(check.failures),
        "tol_misses": len(check.tol_misses),
        "failures": [f"{f.op}: {f.reason}" for f in check.failures[:50]],
        "tol_miss_ops": sorted(set(check.tol_misses)),
        "metrics": metrics, "notes": notes,
        "setup_samples": setups, "passes": passes,
    }


def best(passes: list[dict]) -> dict:
    """The pass with the smallest pass_s."""
    return min(passes, key=lambda p: p["pass_s"])


def end_to_end(setups: list[dict], passes: list[dict], ops: int):
    """End-to-end metrics of a run: per process, then the median of the run.

    Timings are at reference host speed (see ``speed.py``).  Set-up samples
    come from every pass and from the set-up-only processes between passes.
    """
    n = len(passes)
    n_evals = len(passes[0]["eval_ms"])
    tail_label = tail(passes[0]["eval_ms"])[1]
    median = statistics.median
    pass_s = median(p["pass_s"] for p in passes)
    metrics = {
        "setup_s": median(s["setup_s"] for s in setups),
        "pass_s": pass_s,
        "cpu_s": median(p["cpu_s"] for p in passes),
        "ops_per_s": ops / pass_s,
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "eval_ms.p50": median(median(p["eval_ms"]) for p in passes),
        "eval_ms.tail": median(tail(p["eval_ms"])[0] for p in passes),
    }
    wall = [p["wall_pass_s"] for p in passes]
    notes = {
        "setup_s": f"median of {len(setups)}; wall "
                   f"{median(s['setup_wall_s'] for s in setups):.4f} s",
        "pass_s": f"median of {n}; wall {median(wall):.4f} s "
                  f"({min(wall):.4f} to {max(wall):.4f}), host slowdown "
                  f"{median(p['slowdown'] for p in passes):.3f}",
        "cpu_s": f"median of {n}",
        "ops_per_s": f"per median pass_s of {n}",
        "peak_rss_mb": f"median of {n}",
        "eval_ms.p50": f"median of {n} passes' medians of {n_evals} calls",
        "eval_ms.tail": f"median of {n} passes' {tail_label} of {n_evals} calls",
    }
    return metrics, notes


def layer_metrics(traced: list[dict], untraced: list[dict]):
    """Layer metrics from the fastest traced pass, which runs without the
    speed probe, so its times are on the wall clock."""
    fastest = best(traced)
    wall = min(p["wall_pass_s"] for p in untraced)
    metrics = dict(fastest["layers"])
    metrics["hypfun.float.tol_misses"] = fastest["tol_misses"]
    metrics["trace.pass_s"] = fastest["pass_s"]
    metrics["trace.overhead_s"] = fastest["pass_s"] - wall
    metrics["host.slowdown"] = statistics.median(p["slowdown"] for p in untraced)
    metrics["trace.glue_s"] = fastest["pass_s"] - sum(
        fastest["layers"][f"{layer}.self_s"] for layer, _t, _e in LAYERS)
    metrics = {name: metrics[name] for name, _unit in layer_metric_names()}
    notes = {name: f"fastest of {len(traced)} traced passes" for name in metrics}
    notes["trace.overhead_s"] += f" minus fastest wall time of {len(untraced)} untraced"
    notes["host.slowdown"] = f"median of {len(untraced)} untraced passes"
    missing = sorted(set(fastest["missing_targets"]))
    if missing:
        notes["trace.pass_s"] += "; not found, so not traced: " + ", ".join(missing)
    return metrics, notes


def print_summary(result: dict, units: dict[str, str]) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {result['workload']} seed={result['seed']} trace={int(result['trace'])}: "
          f"{len(result['passes'])} passes, {result['ops_per_pass']} operations per pass")
    for name, value in result["metrics"].items():
        print(f"  {name:<34} {value:>14.6g} {units[name]:<6} {result['notes'][name]}")
    print(f"  failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"  tol_miss_ratio = {result['tol_misses']}/{attempted} = "
          f"{result['tol_misses'] / attempted:.6g}  (eval --float values that miss mpmath "
          f"by more than --tol: the known float-path defect)")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hypersym" / "cli.py").is_file():
        print(f"error: no hypersym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = dict(END_TO_END) | dict(layer_metric_names())
    env = environment()
    print(f"python {env['python']}, nproc {env['nproc']}, git {env['git_sha']}")

    tmp_root = HERE / ".tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), tmp)
            result["env"] = env
            print_summary(result, units)
            results.append(result)
            record = HERE / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            record.parent.mkdir(exist_ok=True)
            record.write_text(json.dumps(result, indent=1) + "\n")
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    def prefix(r):
        return "" if len(results) == 1 else f"{r['workload']}/"

    metrics = {f"{prefix(r)}{name}": {"value": value, "unit": units[name]}
               for r in results for name, value in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
