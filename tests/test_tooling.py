"""The benchmark's uses of the package still exist in it, the ``verify``
command's options, config fields, scope table and flow coordinates agree,
and the command option table is one both of its readers can read.

``perfbench/tracer.py`` wraps the functions named in its ``LAYERS`` table
and silently lists a missing one instead of failing, so a rename in
``hypersym`` would drop a layer from the traced run; its count hooks read
series through ``terms`` alone, so that view must stay.  ``perfbench/pass_proc.py``
builds the catalogues by name before each pass, so a rename there would fail
every pass.  Both files are read from their syntax trees: they are not
imported or wrapped.  The recorded references under ``perfbench/refs/``
are read as JSON, and ``perfbench/workloads.py`` is loaded on its own to
generate the command lines of three seeds; each of these parses directly,
to argparse's namespace, so renaming an option fails here, not only in a
benchmark run, and no benchmark pass builds the argparse parser.
"""

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

from hypersym import cli, hypfun, liealg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
PASS_PROC = PERFBENCH / "pass_proc.py"
WORKLOADS = PERFBENCH / "workloads.py"
REFS = sorted((PERFBENCH / "refs").glob("*.json"))


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


def _tracer_function(name):
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"tracer.py defines no {name}")


def _attributes_off(node, roots):
    """Names of the attributes read directly off the names ``roots``, also
    through subscripts (``args[0].terms``), anywhere inside ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            base = sub.value
            while isinstance(base, ast.Subscript):
                base = base.value
            if isinstance(base, ast.Name) and base.id in roots:
                out.add(sub.attr)
    return out


def test_count_hooks_read_only_the_terms_view():
    """The traced ``series.*`` and ``hypfun.coeff.terms`` counts read a
    series only through ``terms`` and each coefficient only through
    ``numerator`` and ``denominator``."""
    assert _attributes_off(_tracer_function("_count_hook"), {"result", "args"}) == {"terms"}
    coeff_bits = _tracer_function("_coeff_bits")
    (series,) = [a.arg for a in coeff_bits.args.args]
    assert _attributes_off(coeff_bits, {series}) == {"terms"}
    loops = [node for node in ast.walk(coeff_bits) if isinstance(node, ast.For)]
    coefficients = {node.target.id for node in loops}
    assert _attributes_off(coeff_bits, coefficients) == {"numerator", "denominator"}


def test_series_results_expose_reduced_fraction_terms():
    """What the count hooks read off the results of the traced series
    functions is a dict from exponent tuples to reduced ``Fraction``s."""
    from fractions import Fraction as Q
    from math import gcd

    from hypersym.hypfun import Params1F1, ParamsPsi2, f11_series, psi2_3var_series

    f = f11_series(Params1F1(Q(1, 2), Q(4, 3)), 6)
    g = psi2_3var_series(ParamsPsi2(Q(-7, 3), Q(4, 3), Q(5, 7)), 3, 2, 2)
    for s in (f, g, f * f, g * g):
        terms = s.terms
        assert type(terms) is dict and len(terms) > 3
        for exps, c in terms.items():
            assert type(exps) is tuple and len(exps) == len(s.variables)
            assert all(type(e) is int for e in exps)
            assert type(c) is Q and c != 0
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    assert max(c.denominator.bit_length() for c in (f * f).terms.values()) > 1


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


def test_family_calls_reach_rebound_names(monkeypatch, capsys):
    """The tracer replaces every module-level binding of a function in the
    package; calls made through ``hypfun.FAMILIES`` must reach the wrapper,
    also the exact ``eval`` path's ``series.horn_value``."""
    from fractions import Fraction as Q

    from hypersym.hypfun import ParamsPsi2
    from hypersym.identities import get_record, verify_formal, verify_numeric

    calls = {}
    for name in ("psi2_compose", "psi2_eval_float", "horn_value"):
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
    record = get_record("I-PSI2-SHIFT-X")
    assert verify_formal(record, "as_stated", p, 2, 3)["status"] == "verified"
    assert verify_numeric(record, "as_stated", p, 0.1, 1e-8)["status"] == "verified"
    assert calls["psi2_compose"] > 0
    assert calls["psi2_eval_float"] > 0
    assert calls["horn_value"] == 0
    assert cli.main(["eval", "--fn", "psi2x3", "--a", "1/2", "--b", "4/3", "--c", "5/7",
                     "--x", "1/2", "--y", "1/3", "--z", "1/4", "--exact", "--terms", "3"]) == 0
    assert capsys.readouterr().err == ""
    assert calls["horn_value"] == 1


def _callers(name):
    """The top-level functions and methods of the package that call ``name``
    or hand it on (to ``map``, say), as ``module.function``."""
    callers = set()
    for path in sorted(Path(hypfun.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [item for node in tree.body if isinstance(node, ast.ClassDef)
                 for item in node.body if isinstance(item, ast.FunctionDef)]
        for fn in defs:
            for node in ast.walk(fn):
                if name in (getattr(node, "id", None), getattr(node, "attr", None)):
                    callers.add(f"{path.stem}.{fn.name}")
    return callers


def test_float_sums_have_one_checked_entry():
    """Every float sum checks its arguments in one function, so a second
    front door to the loops cannot check them differently."""
    for name in ("_check_sum_args", "_float_bottom"):
        assert len(_callers(name)) == 1, (name, _callers(name))


# Functions and methods that nothing in the package calls, each kept for a
# reason.
UNREFERENCED_ALLOWED = {
    "identities.get_record": "looks one record up by id, for library callers and tests",
    "identities.strip_timing": "drops the timing fields to compare reports byte for byte",
}


def _unreferenced_definitions():
    """``module.name`` of each module-level function, and ``module.Class.name``
    of each method of a module-level class but the dunders, whose name no
    code of the package reads outside the definition itself."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(hypfun.__file__).parent.glob("*.py"))}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((f"{module}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
    reads = sum(map(_names_read, trees.values()), Counter())
    return {name for name, fn in defined if reads[fn.name] == _names_read(fn)[fn.name]}


def _names_read(node):
    """How often each name is read inside ``node``, as a name or as an
    attribute."""
    return Counter(getattr(sub, "id", None) or getattr(sub, "attr", None)
                   for sub in ast.walk(node))


def test_every_helper_is_called_traced_or_kept_for_a_reason():
    """ROADMAP's rule that helpers nothing calls are deleted, as a check: a
    function or method (not a dunder) the package never reads is a tracer
    target or on the list.

    A name counts as read wherever a name or an attribute of that name is
    read, whatever it is read off.  So ``MultiSeries.evaluate`` and
    ``MultiSeries.extend`` pass unflagged, though nothing in the package
    calls them: ``Family.evaluate`` and ``list.extend`` are read under the
    same names."""
    traced = {target.replace(":", ".") for _layer, targets, _extras in _layers()
              for target in targets}
    unreferenced = _unreferenced_definitions()
    assert sorted(unreferenced - traced - set(UNREFERENCED_ALLOWED)) == []
    assert all(_resolves(name.replace(".", ":", 1)) for name in UNREFERENCED_ALLOWED)


def _verify_options():
    return cli.COMMANDS["verify"][2]


def test_every_config_field_is_one_verify_option():
    # --scope picks the runners and --config names the file; every other
    # option sets the RunConfig field of its name, and no two set the same
    dests = [cli._dest(flag, keywords) for flag, keywords in _verify_options().items()]
    dests = [dest for dest in dests if dest not in ("scope", "config")]
    assert len(dests) == len(set(dests))
    assert sorted(dests) == sorted(f.name for f in dataclasses.fields(cli.RunConfig))


def test_scopes_are_the_runner_table_and_all():
    assert cli.SCOPES == (*cli.SCOPE_RUNNERS, "all")
    assert tuple(_verify_options()["--scope"]["choices"]) == cli.SCOPES


def test_built_parser_is_the_option_table():
    """Each command's argparse options are its table entries, in order."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli.COMMANDS)
    for name, (run, _help, options) in cli.COMMANDS.items():
        command = sub.choices[name]
        assert command.get_default("func") is run
        actions = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
        assert [a.option_strings for a in actions] == [[flag] for flag in options]
        for action, (flag, keywords) in zip(actions, options.items()):
            store_true = keywords.get("action") == "store_true"
            assert type(action) is (argparse._StoreTrueAction if store_true
                                    else argparse._StoreAction), flag
            assert (action.dest, action.type, action.default, action.choices,
                    action.required, action.help) == (
                cli._dest(flag, keywords), keywords.get("type"),
                keywords.get("default", False if store_true else None),
                keywords.get("choices"), keywords.get("required", False),
                keywords.get("help")), flag


# The ``add_argument`` keywords and values the direct parse reads; an option
# that needs any other (``nargs``, ``append``, a ``type`` that raises other
# than ValueError) must be taught to it first.
DIRECT_KEYWORDS = {"dest", "type", "default", "choices", "required", "action", "help"}


def test_every_option_is_one_the_direct_parse_reads():
    for _run, _help, options in cli.COMMANDS.values():
        for flag, keywords in options.items():
            assert flag.startswith("--") and "=" not in flag, flag
            assert set(keywords) <= DIRECT_KEYWORDS, flag
            assert keywords.get("action", "store_true") == "store_true", flag
            assert keywords.get("type", int) in (int, float), flag


def test_flow_coordinates_are_those_the_flows_read():
    # the --start check and flow_suite's missing-coordinate check read the
    # tuple, in the order the --start error text lists it; the flows read
    # their fields' coordinates
    read = {v for op_id in liealg.FLOW_IDS for v in liealg.flow_spec(op_id).coords}
    assert set(liealg.FLOW_COORDINATES) == read
    assert len(liealg.FLOW_COORDINATES) == len(read)
    assert liealg.FLOW_COORDINATES == ("x", "y", "z", "u", "t")


def _direct_parse_as_argparse(argv):
    argv = cli._glue_negative_values(argv)
    args = cli._parse_direct(argv)
    assert args is not None, argv
    assert vars(args) == vars(cli._build_parser().parse_args(argv))
    return args


def test_every_reference_command_line_parses():
    assert len(REFS) >= 4
    for ref in REFS:
        argv = json.loads(ref.read_text())["argv"]
        args = _direct_parse_as_argparse(argv)
        assert args.command == argv[0], ref.name
        cli._config_from(args)


def test_every_benchmark_command_line_parses_directly(monkeypatch, tmp_path):
    """The benchmark's passes never build the argparse parser.  Its mpmath
    references are replaced by zeros: they draw nothing from the seed's
    generator, so the command lines are those of a real run."""
    import mpmath

    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for module, name in ((mpmath, "hyp1f1"), (mpmath, "hyper2d"),
                         (workloads, "psi2x3_mpmath"), (workloads, "psi2x3_exact")):
        monkeypatch.setattr(module, name, lambda *args: 0.0)
    count = 0
    for workload in workloads.WORKLOADS.values():
        for seed in range(3):
            for argv in workload(seed, str(tmp_path)).argvs():
                _direct_parse_as_argparse(argv)
                count += 1
    assert count > 600
