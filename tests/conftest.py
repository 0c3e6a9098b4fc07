"""Shared test set-up.

The CLI tests run ``python -m hypersym.cli`` in a subprocess.  Its import
path is pointed at the package these tests import, so that a bare ``pytest``
from a fresh checkout (``pythonpath = ["src"]`` in ``pyproject.toml``) runs
the subprocesses against the same code.
"""

import os
from pathlib import Path

import hypersym

_SRC = str(Path(hypersym.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
