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
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from hypersym import cli, hypfun, liealg, series

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


def _series_functions():
    """Each top-level function and method of ``series`` by name, a method as
    ``Class.name``."""
    tree = ast.parse(Path(series.__file__).read_text())
    out = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            out.update((f"{node.name}.{item.name}", item)
                       for item in node.body if isinstance(item, ast.FunctionDef))
    return out


def test_packed_keys_are_cut_in_one_kernel():
    """One kernel drops packed keys under a cut and one multiplies them, so
    a second hand-written pass cannot cut them differently; the reference
    methods the tests check the kernels against read no packed keys."""
    fns = _series_functions()
    guarded = {name for name, fn in fns.items() for node in ast.walk(fn)
               if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
               and "guard" in _names_read(node)}
    assert guarded == {"_cauchy", "_term_part"}
    for name in ("MultiSeries.truncate", "MultiSeries.scale", "MultiSeries.__neg__"):
        read = set(_names_read(fns[name]))
        assert "operator_image" in read, name
        assert not read & {"nums", "_layout", "_trusted", "_reduce"}, name
    for name in ("MultiSeries.evaluate", "MultiSeries.extend"):
        assert not set(_names_read(fns[name])) & {"nums", "_layout", "_Layout"}, name


# Functions and methods that nothing in the package calls, each kept for a
# reason.
UNREFERENCED_ALLOWED = {
    "identities.get_record": "looks one record up by id, for library callers and tests",
    "identities.strip_timing": "drops the timing fields to compare reports byte for byte",
}


def _package_trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(hypfun.__file__).parent.glob("*.py"))}


def _definitions(trees):
    """``(module.name, node, False)`` of each module-level function, and
    ``(module.Class.name, node, True)`` of each method of a module-level
    class but the dunders."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{module}.{node.name}", node, False
            elif isinstance(node, ast.ClassDef):
                yield from ((f"{module}.{node.name}.{item.name}", item, True)
                            for item in node.body if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__")))


def _unreferenced_definitions():
    """``module.name`` of each function and ``module.Class.name`` of each
    method of ``_definitions`` that no code of the package reads outside
    the definition itself: a function where a name or an attribute of its
    name is read, a method only where an attribute of its name is read off
    anything but another package class by name."""
    trees = _package_trees()
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    names = sum(map(_names_read, trees.values()), Counter())
    attributes = sum((_attributes_read(tree, classes) for tree in trees.values()), Counter())
    unreferenced = set()
    for qualified, fn, method in _definitions(trees):
        if method:
            inside = _attributes_read(fn, classes)
            owner = qualified.split(".")[1]
            read = any(attributes[fn.name, base] > inside[fn.name, base] for base in (None, owner))
        else:
            read = names[fn.name] > _names_read(fn)[fn.name]
        if not read:
            unreferenced.add(qualified)
    return unreferenced


def _names_read(node):
    """How often each name is read inside ``node``, as a name or as an
    attribute."""
    return Counter(getattr(sub, "id", None) or getattr(sub, "attr", None)
                   for sub in ast.walk(node))


def _attributes_read(node, classes):
    """How often each attribute is read inside ``node``, keyed by its name
    and the class of ``classes`` it is read off by name, else None."""
    return Counter((sub.attr, sub.value.id if getattr(sub.value, "id", None) in classes else None)
                   for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_helper_is_called_traced_or_kept_for_a_reason():
    """ROADMAP's rule that helpers nothing calls are deleted, as a check: a
    function or method (not a dunder) the package never reads is a tracer
    target or on the list.

    A function counts as read wherever a name or an attribute of its name is
    read.  A method counts as read only where an attribute of its name is
    read, and not off another package class by name: a local ``cap`` does
    not read ``MultiSeries.cap``, nor ``MultiSeries.zero`` ``DiffOperator.zero``.
    An attribute read off anything else counts, whatever it is.  So
    ``MultiSeries.evaluate`` and ``MultiSeries.extend`` pass unflagged,
    though nothing in the package calls them: ``Family.evaluate`` and
    ``list.extend`` are read under the same names.  Both are tracer
    targets."""
    traced = {target.replace(":", ".") for _layer, targets, _extras in _layers()
              for target in targets}
    unreferenced = _unreferenced_definitions()
    assert sorted(unreferenced - traced - set(UNREFERENCED_ALLOWED)) == []
    assert all(_resolves(name.replace(".", ":", 1)) for name in UNREFERENCED_ALLOWED)


def test_series_keeps_its_packed_keys_to_itself():
    """The only private names another module takes from ``series`` are the
    memo accessors; packed keys, layouts and their readers stay inside it."""
    taken = set()
    for module, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("series", "hypersym.series"):
                taken |= {(module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "series":
                taken.add((module, node.attr))
    private = {name for module, name in taken if name.startswith("_") and module != "series"}
    assert private == {"_kept", "_shared_work"}


def _kept_tags():
    """The tag of every ``_kept`` key the package writes as a literal."""
    tags = set()
    for tree in _package_trees().values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_kept"
                    and isinstance(node.args[0], ast.Tuple)):
                tags.add(ast.literal_eval(node.args[0].elts[0]))
    return tags


def test_every_kept_tag_is_documented():
    """Each kind of shared work is named in the ``series`` docstring and is
    a row of README's tag table, which lists no other tag."""
    from hypersym import series

    tags = _kept_tags()
    assert len(tags) >= 6
    assert sorted(t for t in tags if f'``"{t}"``' not in series.__doc__) == []
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = {line.split("`")[1].strip('"') for line in readme.splitlines()
            if line.startswith('| `"')}
    assert rows == tags


# Parameters with a default that no call in the package passes, each kept
# for a reason.
UNPASSED_DEFAULTS_ALLOWED = {
    "cli.main.argv": "the console script calls main(); the benchmark and the tests pass argv",
    "liealg.flow_check.margin": "tests reach the compiled run's division and overflow paths "
                                "at margin 0",
    "identities.run_suite.records": "tests substitute records",
    "identities.verify_numeric.x": "the evaluation point of a numeric row, whose validity "
                                   "domain reads x",
    "identities.verify_numeric.y": "the evaluation point of a numeric row, with x",
}


def _constructors(trees):
    """``(module.Class.__init__, node, True)`` of the ``__init__`` of each
    module-level class that writes one, and the class's name."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                        yield (f"{module}.{node.name}.__init__", item, True), node.name


def _defaulted_parameters(trees):
    """``(callee name, qualified parameter name, positional index)`` of each
    parameter with a default of the functions and methods of
    ``_definitions`` and of the classes' ``__init__``s, which a call of the
    class calls, so their callee name is the class's.  The index counts the
    arguments a call writes, so a method's ``self`` or ``cls`` is not one; it
    is None for a keyword-only parameter."""
    definitions = [(definition, definition[1].name) for definition in _definitions(trees)]
    for (qualified, fn, method), callee in definitions + list(_constructors(trees)):
        implicit = method and not any(getattr(d, "id", None) == "staticmethod"
                                      for d in fn.decorator_list)
        positional = fn.args.posonlyargs + fn.args.args
        for index in range(len(positional) - len(fn.args.defaults), len(positional)):
            yield callee, f"{qualified}.{positional[index].arg}", index - implicit
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield callee, f"{qualified}.{arg.arg}", None


def _passes(call, name, index):
    """Whether ``call`` passes the parameter ``name`` at positional ``index``:
    by position, by keyword, or through ``*`` or ``**``."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(arg, ast.Starred) for arg in call.args))


def _unpassed_defaults():
    """The qualified names of the defaulted parameters no call passes."""
    trees = _package_trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    return {qualified for callee, qualified, index in _defaulted_parameters(trees)
            if not any(_passes(call, qualified.rpartition(".")[2], index)
                       for call in calls.get(callee, ()))}


def test_every_defaulted_parameter_is_passed_or_kept_for_a_reason():
    """A parameter with a default that no call in the package passes is a
    setting only tests set; each such one is on the list.

    A call counts when its callee's name is the function's, whatever it is
    called on, as ``_names_read`` matches names.  So a call of another
    function or method of the same name (``Family.evaluate`` and
    ``MultiSeries.evaluate``, say) that passes as many positional arguments,
    the keyword, ``*`` or ``**`` hides an unpassed parameter."""
    unpassed = _unpassed_defaults()
    assert sorted(unpassed - set(UNPASSED_DEFAULTS_ALLOWED)) == []
    assert set(UNPASSED_DEFAULTS_ALLOWED) <= unpassed


def _verify_options():
    return cli.COMMANDS["verify"][2]


def test_every_config_field_is_one_verify_option():
    # --scope picks the runners and --config names the file; every other
    # option sets the RunConfig field of its name, and no two set the same
    dests = [cli._dest(flag) for flag in _verify_options()]
    dests = [dest for dest in dests if dest not in ("scope", "config")]
    assert len(dests) == len(set(dests))
    assert sorted(dests) == sorted(cli.CONFIG_FIELDS)
    defaults = {name: default for name, (default, _keywords) in cli.CONFIG_FIELDS.items()}
    assert vars(cli.RunConfig()) == defaults


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
                cli._dest(flag), keywords.get("type"),
                keywords.get("default", False if store_true else None),
                keywords.get("choices"), keywords.get("required", False),
                keywords.get("help")), flag


# The ``add_argument`` keywords and values the direct parse reads; an option
# that needs any other (``nargs``, ``append``, a ``type`` that raises other
# than ValueError) must be taught to it first.
DIRECT_KEYWORDS = {"type", "default", "choices", "required", "action", "help"}


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


def _run_fresh(code, *flags):
    """The stdout of ``code`` run in a fresh interpreter, started with the
    interpreter ``flags``, with the package's source directory on the path."""
    src = str(Path(hypfun.__file__).resolve().parent.parent)
    r = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src})
    assert (r.returncode, r.stderr) == (0, "")
    return r.stdout


def test_importing_the_package_leaves_dataclasses_and_inspect_out():
    """Every command pays for its imports: ``dataclasses`` brings in
    ``inspect``, ``ast``, ``dis`` and ``copy``, and compiles each class's
    methods, which no verdict needs."""
    out = _run_fresh("import sys\n"
                     "from hypersym import cli, identities, liealg\n"
                     "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    assert out == "[]\n"


def test_eval_imports_neither_identities_nor_liealg():
    """``eval`` imports only what it runs; ``verify`` and ``catalogue``
    import the identity and operator modules when they run."""
    argvs = [
        ["eval", "--fn", "f11", "--a", "1/2", "--b", "4/3", "--x", "1/3", "--exact"],
        ["eval", "--fn", "psi2", "--a", "1/2", "--b", "4/3", "--c", "5/7", "--x", "0.3",
         "--y", "0.2"],
        ["eval", "--fn", "psi2x3", "--a", "1/2", "--b", "4/3", "--c", "5/7", "--x", "1/3",
         "--y", "1/5", "--z", "1/7", "--terms", "5"],
    ]
    out = _run_fresh("import sys\n"
                     "from hypersym import cli\n"
                     "loaded = lambda: [m for m in ('hypersym.identities', 'hypersym.liealg') "
                     "if m in sys.modules]\n"
                     f"for argv in {argvs!r}:\n"
                     "    assert cli.main(argv) == 0, argv\n"
                     "after_eval = loaded()\n"
                     "assert cli.main(['catalogue']) == 0\n"
                     "print(after_eval, loaded())")
    assert len(out.splitlines()) > 5
    assert out.splitlines()[-1] == "[] ['hypersym.identities', 'hypersym.liealg']"


def test_eval_leaves_pathlib_out():
    """Only ``verify`` reads or writes files, so only it imports ``pathlib``,
    which brings ``urllib.parse``, ``ipaddress`` and ``fnmatch``.  ``-S``
    keeps ``site`` from importing it first, as it may through a ``.pth``
    file."""
    argvs = [
        ["eval", "--fn", "f11", "--a", "1/2", "--b", "4/3", "--x", "1/3", "--exact"],
        ["eval", "--fn", "psi2", "--a", "1/2", "--b", "4/3", "--c", "5/7", "--x", "0.3",
         "--y", "0.2", "--float"],
        ["eval", "--fn", "psi2x3", "--a", "1/2", "--b", "4/3", "--c", "5/7", "--x", "0.3",
         "--y", "0.2", "--z", "0.1", "--float"],
    ]
    out = _run_fresh("import sys\n"
                     "from hypersym import cli\n"
                     f"for argv in {argvs!r}:\n"
                     "    assert cli.main(argv) == 0, argv\n"
                     "print('pathlib' in sys.modules)", "-S")
    assert out.splitlines()[-1] == "False"


def test_names_eval_needs_are_still_read_where_they_were():
    """``SingularFlow`` and ``verify``'s defaults live in ``hypfun``, which
    ``eval`` imports; ``liealg`` and ``identities`` still give them."""
    from hypersym import identities

    assert liealg.SingularFlow is hypfun.SingularFlow
    assert cli.COMMAND_ERRORS.count(hypfun.SingularFlow) == 1
    for name in ("DEFAULT_F11_ORDERS", "DEFAULT_PSI2_ORDERS", "DEFAULT_PARAM_POINTS"):
        assert getattr(identities, name) is getattr(hypfun, name)
