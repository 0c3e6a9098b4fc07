"""Command-line front end.

Three commands: ``eval`` (evaluate a function at a point, exact or
floating), ``verify`` (run a verification scope and write JSON/Markdown
reports), and ``catalogue`` (print the identity and operator listings).
All math lives in the library modules; this file only parses arguments,
dispatches, and formats.  ``eval`` reads its families from
``hypfun.FAMILIES``; ``verify`` checks its whole config and makes its report
directory before any scope runs, then runs its scopes from one table,
``SCOPE_RUNNERS``, each of which hands back plain data, and writes every
JSON report through ``identities.report_to_json``.

Each command's options are in ``COMMANDS``, option strings with their
``add_argument`` keywords; ``verify``'s, but ``--scope`` and ``--config``,
are ``RunConfig``'s fields, typed by their defaults, with the ``help`` and
``choices`` of their metadata, which ``validate`` checks a config file by.
Two readers read that table.  ``_parse_direct`` parses a well-formed
command line (the command, then only its exact long options with values
that pass their ``type`` and ``choices``, every required one given) to the
namespace argparse would give.  Anything else goes to ``_build_parser``'s
argparse parser, built from the same table, so ``--help``, ``--version``,
abbreviations and every usage error keep argparse's output and exit codes;
argparse is imported only then.  ``--flag=--``, which argparse reads as no
value, exits 2.

Exit codes: 0 success, 1 verification failure / no convergence, 2 usage or
configuration error, including a ``--config`` path that cannot be read
(the empty one too), a non-finite tolerance, alpha or step, an action or
recursion order below 1, a ``--chi`` value that is not finite or, when
numeric identity rows run, lies outside a record's validity domain at the
evaluation point, an ``eval`` option the family does not take or
leaves out, ``eval --exact`` with ``--float``, an ``eval --float``
coordinate that is not finite or ``--term-cap`` below 1, a ``--start``
point that lacks a flow coordinate, a ``--start`` value or a float-mode
parameter or coordinate too large for a float, an ``--out`` path where no
directory can be made, and flow settings that meet a singular flow
denominator or whose run divides by zero or overflows.  A numeric identity
row whose sides overflow ends as no convergence.  A ``verify`` run that
stops on such an error still writes the reports of the scopes it finished,
marked ``"ok": false`` with the error text.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from . import __version__
from .exactnum import parse_rational
from .hypfun import DEFAULT_TERM_CAP, FAMILIES, NoConvergence, ParamsPsi2, recursion_suite
from .identities import (
    DEFAULT_F11_ORDERS,
    DEFAULT_PARAM_POINTS,
    DEFAULT_PSI2_ORDERS,
    catalogue as identity_catalogue,
    check_domain,
    invariant_ok,
    report_to_json,
    report_to_markdown,
    run_suite,
)
from .liealg import (
    FLOW_COORDINATES,
    FLOW_IDS,
    OPERATOR_NOTES,
    SingularFlow,
    action_suite,
    catalogue as operator_catalogue,
    check_flow_start,
    commutator_suite,
    flow_steps,
    flow_suite,
)

if TYPE_CHECKING:
    import argparse


# Errors that end a command with one ``error:`` line and exit code 2.
COMMAND_ERRORS = (ValueError, KeyError, SingularFlow, OSError)


@dataclass
class RunConfig:
    points: str = field(default=";".join(",".join(p) for p in DEFAULT_PARAM_POINTS),
                        metadata={"help": "semicolon-separated a,b,c rational triples"})
    orders_f11: str = field(default=",".join(map(str, DEFAULT_F11_ORDERS)),
                            metadata={"help": "N,M orders for one-argument records"})
    orders_psi2: str = field(default=",".join(map(str, DEFAULT_PSI2_ORDERS)),
                             metadata={"help": "N,M orders for two-argument records"})
    action_order: int = 12
    recursion_order: int = 12
    mode: str = field(default="formal", metadata={"choices": ("formal", "numeric", "both")})
    chi: str = field(default="0.1,0.25", metadata={"help": "comma-separated chi grid"})
    tol: float = 1e-8
    flow_tol: float = 1e-8
    alpha: float = 0.1
    step: float = 1e-3
    start: str = field(default="x=1,y=2,z=3,u=1/2,t=1/3",
                       metadata={"help": "flow start point, e.g. x=1,y=2,z=3,u=1/2,t=1/3"})
    seed: int = 42
    out: str = field(default="reports", metadata={"help": "report output directory"})
    format: str = field(default="both", metadata={"choices": ("json", "md", "both")})

    def param_points(self) -> list[ParamsPsi2]:
        pts = []
        for chunk in self.points.split(";"):
            values = chunk.split(",")
            if len(values) != 3:
                raise ValueError(f"--points needs three values a,b,c per point, got {chunk!r}")
            pts.append(ParamsPsi2(*map(parse_rational, values)))
        if not pts:
            raise ValueError("no parameter points")
        return pts

    def orders(self) -> dict[str, tuple[int, int]]:
        out = {}
        for fam, text in (("f11", self.orders_f11), ("psi2", self.orders_psi2)):
            try:
                n, m = (int(v) for v in text.split(","))
            except ValueError:
                raise ValueError(f"--orders-{fam} needs two integers N,M, got {text!r}") from None
            if n < 1 or m < 1:
                raise ValueError(f"orders for {fam} must be >= 1")
            out[fam] = (n, m)
        return out

    def chi_grid(self) -> tuple[float, ...]:
        try:
            grid = tuple(float(v) for v in self.chi.split(","))
        except ValueError:
            raise ValueError(f"--chi needs comma-separated numbers, got {self.chi!r}") from None
        for chi in grid:
            if not math.isfinite(chi):
                raise ValueError(f"chi must be finite, got {chi!r}")
        return grid

    def start_point(self) -> dict[str, Fraction]:
        point = {}
        for item in self.start.split(","):
            name, eq, value = item.partition("=")
            name = name.strip()
            if not eq:
                raise ValueError(f"--start item {item!r} is not name=value")
            if name not in FLOW_COORDINATES:
                raise ValueError(f"--start item {item!r} names no flow coordinate "
                                 f"({', '.join(FLOW_COORDINATES)})")
            if name in point:
                raise ValueError(f"--start item {item!r} repeats coordinate {name}")
            try:
                point[name] = parse_rational(value)
            except ValueError as exc:
                raise ValueError(f"--start item {item!r}: {exc}") from None
            try:
                float(point[name])
            except OverflowError:
                raise ValueError(f"--start item {item!r} is too large for a float") from None
        check_flow_start(point)
        return point

    def validate(self) -> None:
        self.param_points()
        self.orders()
        self.chi_grid()
        self.start_point()
        for name in ("action_order", "recursion_order"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("tol", "flow_tol", "alpha", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.tol <= 0 or self.flow_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.step <= 0:
            raise ValueError("step must be positive")
        flow_steps(self.alpha, self.step)
        for f in fields(self):
            value = getattr(self, f.name)
            if "choices" in f.metadata and value not in f.metadata["choices"]:
                raise ValueError(f"unknown {f.name} {value!r}")


def _config_from(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config is not None:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError("config must be a JSON object")
        for key, value in loaded.items():
            if key not in vars(cfg):
                raise ValueError(f"unknown config key {key!r}")
            want = type(getattr(cfg, key))
            if not (type(value) is want or want is float and type(value) is int):
                raise ValueError(f"config key {key!r} needs a {want.__name__} value")
            if want is float:
                try:
                    value = float(value)
                except OverflowError:
                    raise ValueError(f"config key {key!r} is too large for a float") from None
            setattr(cfg, key, value)
    for key in vars(cfg):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


# -- eval -----------------------------------------------------------------------

def _is_exact_literal(text: str) -> bool:
    try:
        parse_rational(text)
        return True
    except ValueError:
        return False


def _float_coordinate(name: str, text: str) -> float:
    """A float-mode coordinate: what ``float`` reads, else the float of an
    exact rational; ValueError names one too large for a float."""
    try:
        return float(text)
    except ValueError:
        if not _is_exact_literal(text):
            raise
    try:
        return float(parse_rational(text))
    except OverflowError:
        raise ValueError(f"coordinate {name} is too large for a float") from None


def cmd_eval(args: argparse.Namespace) -> int:
    """Evaluate the ``--fn`` family at a point whose omitted coordinates are 0.

    ``--c``, ``--y`` and ``--z`` are usage errors for a family without them,
    and so is ``--exact`` with ``--float``.
    """
    if args.exact and args.float:
        raise ValueError("--exact and --float exclude each other")
    fam = FAMILIES[args.fn]
    names = fam.params.__match_args__
    for name in ("c", "y", "z"):
        if getattr(args, name) is not None and name not in names and name not in fam.coords:
            raise ValueError(f"--{name} is not an option of {args.fn}")
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required for {args.fn}")
    p = fam.params(*(parse_rational(getattr(args, name)) for name in names))
    coords = [getattr(args, v) if getattr(args, v) is not None else "0" for v in fam.coords]
    exact = args.exact or (not args.float and all(_is_exact_literal(c) for c in coords))

    if exact:
        print(fam.value(p, [parse_rational(c) for c in coords], args.terms))
    else:
        point = map(_float_coordinate, fam.coords, coords)
        value, used = fam.evaluate(p, *point, args.tol, args.term_cap)
        print(repr(value) if used is None else f"{value!r} terms={used}")
    return 0


# -- verify ----------------------------------------------------------------------

def _rows_markdown(title: str, rows: list[dict]) -> str:
    if not rows:
        return f"## {title}\n\n(no rows)\n"
    keys = sorted({k for r in rows for k in r})
    lines = [f"## {title}", "", "| " + " | ".join(keys) + " |",
             "|" + "---|" * len(keys)]
    for r in rows:
        lines.append("| " + " | ".join(str(r.get(k, "")) for k in keys) + " |")
    return "\n".join(lines) + "\n"


def _write_reports(cfg: RunConfig, scope: str, payload: dict, markdown: str) -> None:
    out = Path(cfg.out)
    if cfg.format in ("json", "both"):
        (out / f"verify_{scope}.json").write_text(report_to_json(payload))
    if cfg.format in ("md", "both"):
        (out / f"verify_{scope}.md").write_text(markdown)


# A scope's runner gives its payload part, its Markdown sections and its verdict.
ScopeResult = tuple[dict, list[str], bool]


def _rows_scope(title: str, rows: list[dict]) -> ScopeResult:
    ok = all(r["status"] == "PASS" for r in rows)
    return {"rows": rows, "ok": ok}, [_rows_markdown(title, rows)], ok


def _identities(cfg: RunConfig) -> ScopeResult:
    report = run_suite(cfg.param_points(), cfg.orders(), cfg.mode, cfg.chi_grid(), cfg.tol)
    return report, [report_to_markdown(report)], invariant_ok(report)


def _actions(cfg: RunConfig) -> ScopeResult:
    return _rows_scope("Operator actions", action_suite(cfg.param_points(), cfg.action_order))


def _recursions(cfg: RunConfig) -> ScopeResult:
    rows = recursion_suite(cfg.param_points(), cfg.recursion_order)
    return _rows_scope("Differential recursions", rows)


def _flows(cfg: RunConfig) -> ScopeResult:
    rows = flow_suite(cfg.start_point(), cfg.alpha, cfg.step, cfg.flow_tol)
    return _rows_scope("One-parameter flows", rows)


def _commutators(cfg: RunConfig) -> ScopeResult:
    result = commutator_suite(cfg.seed)
    ok = result["antisymmetry_ok"] and result["jacobi_ok"] and result["bilinearity_ok"]
    sections = [_rows_markdown(f"Commutators ({fam})", rows)
                for fam, rows in result["families"].items()]
    return {"result": result, "ok": ok}, sections, ok


# The verify scopes in the order ``--scope all`` runs them.
SCOPE_RUNNERS: dict[str, Callable[[RunConfig], ScopeResult]] = {
    "identities": _identities,
    "actions": _actions,
    "recursions": _recursions,
    "flows": _flows,
    "commutators": _commutators,
}
SCOPES = (*SCOPE_RUNNERS, "all")


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the wanted scopes and write their reports.

    When a scope raises one of the errors ``main`` maps to an exit code, the
    scopes finished before it are still written, with ``"ok": false`` and
    the error text, and the error is raised again.
    """
    cfg = _config_from(args)
    scope = args.scope
    if scope in ("identities", "all") and cfg.mode != "formal":
        grid = cfg.chi_grid()
        for record in identity_catalogue():
            for chi in grid:
                check_domain(record, chi)
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    all_ok = True
    payload: dict = {"engine_version": __version__, "scope": scope, "scopes": {}}
    md_parts = [f"# Verification report: {scope}\n"]

    error = None
    try:
        for name in SCOPE_RUNNERS if scope == "all" else (scope,):
            part, sections, ok = SCOPE_RUNNERS[name](cfg)
            all_ok &= ok
            payload["scopes"][name] = part
            md_parts += sections
    except (*COMMAND_ERRORS, NoConvergence) as exc:
        error = exc
        all_ok = False
        payload["error"] = str(exc)
        md_parts.append(f"error: {exc}\n")

    payload["ok"] = all_ok
    _write_reports(cfg, scope, payload, "\n".join(md_parts))
    print(f"scope={scope} ok={all_ok} reports written to {cfg.out}/")
    if error is not None:
        raise error
    return 0 if all_ok else 1


# -- catalogue ---------------------------------------------------------------------

def cmd_catalogue(_args: argparse.Namespace) -> int:
    print(f"hypersym {__version__}")
    print()
    print("identity records:")
    for rec in identity_catalogue():
        marks = "+corrected" if rec.corrected else ""
        print(f"  {rec.rec_id:<18} [{rec.family}] {marks}")
        if rec.note:
            print(f"      note: {rec.note}")
        print(f"      {rec.statement}")
        print(f"      validity: {rec.validity}")
    print()
    print("operators:")
    for op_id, op in operator_catalogue().items():
        note = " (see notes)" if op_id in OPERATOR_NOTES else ""
        print(f"  {op_id:<12} {op.pretty()}{note}")
    print()
    print("flows:", ", ".join(FLOW_IDS))
    for op_id, note in OPERATOR_NOTES.items():
        print(f"note [{op_id}]: {note}")
    return 0


# -- entry point --------------------------------------------------------------------

# Each command as (its function, its help line, its options); each option is
# an option string and the ``add_argument`` keywords it takes.  Both readers
# of the command line read this one table: ``_build_parser`` and
# ``_parse_direct``.
COMMANDS: dict[str, tuple[Callable[..., int], str, dict[str, dict]]] = {
    "eval": (cmd_eval, "evaluate a function at a point", {
        "--fn": {"required": True, "choices": tuple(FAMILIES)},
        "--a": {"required": True},
        "--b": {"required": True},
        "--c": {},
        "--x": {"required": True},
        "--y": {},
        "--z": {},
        "--exact": {"action": "store_true", "help": "force exact mode"},
        "--float": {"action": "store_true", "help": "force floating mode"},
        "--terms": {"type": int, "default": 30, "help": "truncation order for exact mode"},
        "--tol": {"type": float, "default": 1e-12,
                  "help": "relative tolerance for floating mode"},
        "--term-cap": {"type": int, "default": DEFAULT_TERM_CAP},
    }),
    "verify": (cmd_verify, "run a verification scope, write reports", {
        "--scope": {"default": "all", "choices": SCOPES},
        "--config": {"help": "flat JSON config file; flags override"},
        # one option per RunConfig field; None leaves the file's or the field's value
        **{"--" + f.name.replace("_", "-"): {
            "default": None,
            **({} if isinstance(f.default, str) else {"type": type(f.default)}),
            **f.metadata,
        } for f in fields(RunConfig)},
    }),
    "catalogue": (cmd_catalogue, "print identity and operator listings", {}),
}


def _dest(flag: str) -> str:
    """The attribute an option sets, by argparse's rule for long options."""
    return flag[2:].replace("-", "_")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="hypersym",
        description="exact verification engine for hypergeometric shift identities",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in options.items():
            command.add_argument(flag, **keywords)
        command.set_defaults(func=run)
    return parser


def _parse_direct(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed ``argv``, else None.

    Well-formed: a command, then only exact long options of its table entry,
    each a bare ``store_true`` flag or ``--name value``/``--name=value``
    whose value passes the option's ``type`` and ``choices`` (a separate
    value token may not start with ``-``, and no value is ``--``), with
    every required option given; the last of a repeated option wins.  Any
    other ``argv`` (an abbreviation, ``-h``, ``--version``, an unknown
    option, a bad or missing value) is argparse's to parse, so its messages
    and exit codes stay its own.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    run, _help, options = COMMANDS[argv[0]]
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        keywords = options.get(flag)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None or value.startswith("-"):
                    return None
            elif value == "--":  # argparse drops it and stores an empty list
                return None
            try:
                value = keywords.get("type", str)(value)
            except ValueError:
                return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        values[flag] = value
    args = SimpleNamespace(command=argv[0], func=run)
    for flag, keywords in options.items():
        if flag in values:
            value = values[flag]
        elif keywords.get("required"):
            return None
        else:
            store_true = keywords.get("action") == "store_true"
            value = keywords.get("default", False if store_true else None)
        setattr(args, _dest(flag), value)
    return args


# A value that argparse would read as an option: it takes only -3 and -0.5
# style numbers as values, not -1/2, -1e-3 or -2,3,3.
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -1/2`` into ``--flag=-1/2`` so the value parses."""
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (_NEGATIVE_VALUE.match(token) and prev.startswith("--") and len(prev) > 2
                and "=" not in prev):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _glue_negative_values(sys.argv[1:] if argv is None else argv)
    args = _parse_direct(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors and 0 on --help; keep its codes
            return exc.code if isinstance(exc.code, int) else 2
        for flag in COMMANDS[args.command][2]:
            if getattr(args, _dest(flag)) == []:  # argparse 3.11 stores [] for --flag=--
                print(f"error: argument {flag}: expected one argument", file=sys.stderr)
                return 2
    try:
        return args.func(args)
    except COMMAND_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
