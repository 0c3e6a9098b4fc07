"""The benchmark tracer's targets still exist in the package.

``perfbench/tracer.py`` wraps the functions named in its ``LAYERS`` table
and silently lists a missing one instead of failing, so a rename in
``hypersym`` would drop a layer from the traced run.  The table is read from
the file's syntax tree: nothing under ``perfbench/`` is imported or wrapped.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("tracer.py defines no LAYERS table")


def _resolves(target):
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(f"hypersym.{module_name}")
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        return owner is not None and name in vars(owner)
    return callable(getattr(module, name, None))


def test_every_tracer_target_resolves():
    targets = [target for _layer, layer_targets, _extras in _layers() for target in layer_targets]
    assert len(targets) > 20
    assert [t for t in targets if not _resolves(t)] == []
