"""Record the verdict references the verify workloads are checked against.

Usage, from the repository root at the commit whose verdicts are the
reference: ``python3 perfbench/record_refs.py``

The references in ``perfbench/refs/`` were recorded at the commit that
added the benchmark and must not be re-recorded to make a later commit
pass: a changed verdict is what the check exists to catch.  Each file holds
the CLI arguments (without ``--points`` or ``--out``, which the benchmark
adds), the expected exit code and the verdict fields of every row.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hypersym import cli  # noqa: E402
from workloads import REFS, verdicts  # noqa: E402

REFERENCES = {
    "verify_default": ["verify", "--scope", "all", "--mode", "both"],
    "identities_deep": ["verify", "--scope", "identities", "--mode", "formal",
                        "--orders-f11", "8,16", "--orders-psi2", "5,8"],
    "flows_fine": ["verify", "--scope", "flows", "--step", "1e-5"],
    "identities_numeric": ["verify", "--scope", "identities", "--mode", "numeric"],
}


def main() -> int:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    REFS.mkdir(exist_ok=True)
    out = tempfile.mkdtemp(dir=HERE)
    try:
        for name, argv in REFERENCES.items():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv + ["--out", out])
            scope = argv[argv.index("--scope") + 1]
            report = json.loads((Path(out) / f"verify_{scope}.json").read_text())
            rows = verdicts(report)
            payload = {"recorded_at": sha, "argv": argv, "exit_code": rc, "rows": rows}
            (REFS / f"{name}.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
            print(f"{name}: exit {rc}, {len(rows)} rows")
    finally:
        shutil.rmtree(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
