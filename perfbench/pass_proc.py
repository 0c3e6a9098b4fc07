"""One benchmark pass in a fresh process.

Usage: ``python3 perfbench/pass_proc.py SPEC.json RESULT.json``

The spec names the source directory, the CLI argument lists to run and
whether to trace.  The process imports hypersym, builds the identity,
operator and flow catalogues once (set-up), then calls ``hypersym.cli.main``
on each argument list in turn with its output captured (the pass).  It
writes timings, the captured output of every call and, when traced, the
per-layer summary to the result file.  With no calls it only sets up, which
is how the benchmark samples set-up time on its own.

The host speed probe of ``speed.py`` runs through set-up and, in untraced
passes, through the pass; its samples go to the result file with the start
and end of each measured window.  A traced pass runs without it, so that the
probe's time does not fall into the layers' spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

# Set-up is timed from here, on both clocks.  The interpreter's own start
# before this line does not depend on hypersym, and the probe cannot follow it.
STARTED = time.monotonic(), time.process_time()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import PASS_INTERVAL_S, SETUP_INTERVAL_S, SpeedProbe  # noqa: E402


def main(spec_path: str, result_path: str) -> int:
    probe = SpeedProbe(SETUP_INTERVAL_S).start()
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from hypersym import cli, identities, liealg

    identities.catalogue()
    liealg.build_catalogue()
    liealg.flow_spec(liealg.FLOW_IDS[0])
    setup_done = time.monotonic(), time.process_time()
    setup_probe = probe.stop()
    setup_warm_up = probe.warm

    tracer = None
    probe = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    elif spec["calls"]:
        probe = SpeedProbe(PASS_INTERVAL_S).start()
    samples = probe.samples if probe is not None else []

    calls = []
    t0, cpu0 = time.monotonic(), time.process_time()
    for argv in spec["calls"]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        rc = None
        c0 = time.monotonic()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # Looked up on each call, so the traced binding is the one used.
                rc = cli.main(argv)
        except Exception:  # an escaping traceback is a failed operation
            error = traceback.format_exc(limit=3)
        c1 = time.monotonic()
        calls.append({"ms": (c1 - c0) * 1000.0, "window": [c0, c1], "rc": rc,
                      "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error})
    t1, cpu1 = time.monotonic(), time.process_time()
    if probe is not None:
        probe.stop()

    result = {
        "setup_window": [STARTED, setup_done],
        "setup_probe": setup_probe,
        "setup_warm_up": setup_warm_up,
        "probe": samples,
        "window": [t0, t1],
        "cpu_window": [cpu0, cpu1],
        "pass_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["missing_targets"] = tracer.missing
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
