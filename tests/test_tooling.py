"""The benchmark's uses of the package still exist in it.

``perfbench/tracer.py`` wraps the functions named in its ``LAYERS`` table
and silently lists a missing one instead of failing, so a rename in
``hypersym`` would drop a layer from the traced run.  ``perfbench/pass_proc.py``
builds the catalogues by name before each pass, so a rename there would fail
every pass.  Both files are read from their syntax trees: nothing under
``perfbench/`` is imported or wrapped.
"""

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
PASS_PROC = PERFBENCH / "pass_proc.py"


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


def _package_uses(path):
    """(module, name) for every ``module.name`` the file reads from the
    hypersym modules it imports."""
    tree = ast.parse(path.read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "hypersym"
        for alias in node.names
    }
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def test_every_benchmark_setup_name_resolves():
    uses = _package_uses(PASS_PROC)
    assert {
        ("identities", "catalogue"),
        ("liealg", "build_catalogue"),
        ("liealg", "flow_spec"),
        ("liealg", "FLOW_IDS"),
    } <= uses
    missing = [
        f"{module}.{name}" for module, name in sorted(uses)
        if not hasattr(importlib.import_module(f"hypersym.{module}"), name)
    ]
    assert missing == []


def test_family_calls_reach_rebound_names(monkeypatch):
    """The tracer replaces every module-level binding of a function in the
    package; calls made through ``hypfun.FAMILIES`` must reach the wrapper."""
    from fractions import Fraction as Q

    from hypersym import hypfun
    from hypersym.hypfun import ParamsPsi2
    from hypersym.identities import verify_formal, verify_numeric

    calls = {}
    for name in ("psi2_compose", "psi2_eval_float"):
        orig = getattr(hypfun, name)
        calls[name] = 0

        def counting(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("hypersym"):
                continue
            for binding, value in list(vars(module).items()):
                if value is orig:
                    monkeypatch.setattr(module, binding, counting)

    p = ParamsPsi2(Q(1, 2), Q(4, 3), Q(5, 7))
    assert verify_formal("I-PSI2-SHIFT-X", "as_stated", p, 2, 3)["status"] == "verified"
    assert verify_numeric("I-PSI2-SHIFT-X", "as_stated", p, 0.1, 1e-8)["status"] == "verified"
    assert calls["psi2_compose"] > 0
    assert calls["psi2_eval_float"] > 0
