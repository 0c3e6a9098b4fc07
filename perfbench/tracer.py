"""Layer spans and counts for the traced benchmark pass.

The tracer wraps the public functions of each hypersym module from outside
the package: every module-level binding of a wrapped function is replaced
(``identities`` and ``liealg`` import ``f11_series`` and friends by name, so
patching only the defining module would miss most calls), and methods are
replaced on the class itself.  Each call records one span ``(layer, start,
end, parent)`` in memory; a layer's self time is its span's duration minus
the time covered by its child spans.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# (layer, targets, extra counts recorded at that layer).  A target is
# "module:function" or "module:Class.method".  The catalogue layers count
# builds rather than calls: they wrap the functions that build a catalogue.
LAYERS = (
    ("exactnum.pochhammer", ("exactnum:pochhammer",), ()),
    ("hypfun.coeff", ("hypfun:f11_coeff", "hypfun:psi2_coeff", "hypfun:f11_series",
                      "hypfun:psi2_series", "hypfun:psi2_3var_series"), ("terms",)),
    ("series.construct", ("series:MultiSeries.__init__",), ("terms",)),
    ("series.add", ("series:MultiSeries.__add__", "series:MultiSeries.__sub__",
                    "series:MultiSeries.__neg__", "series:MultiSeries.scale"), ()),
    ("series.mul", ("series:MultiSeries.__mul__",), ("term_pairs", "max_bits")),
    ("series.power", ("series:pow_rational", "series:exp_series",
                      "series:MultiSeries.pow_int"), ()),
    ("series.reshape", ("series:MultiSeries.shift", "series:MultiSeries.derivative",
                        "series:MultiSeries.truncate", "series:MultiSeries.extend"), ()),
    ("series.evaluate", ("series:MultiSeries.evaluate",), ()),
    ("hypfun.compose", ("hypfun:f11_compose", "hypfun:psi2_compose"), ()),
    ("hypfun.float", ("hypfun:f11_eval_float", "hypfun:psi2_eval_float",
                      "hypfun:psi2_3var_eval_float"), ("terms",)),
    ("hypfun.recursion", ("hypfun:verify_recursion",), ()),
    ("liealg.realize", ("liealg:realize",), ()),
    ("liealg.apply", ("liealg:DiffOperator.apply",), ()),
    ("liealg.commutator", ("liealg:commutator",), ()),
    ("liealg.span", ("liealg:express_in_span",), ()),
    ("liealg.flow", ("liealg:flow_check",), ("rk4_steps",)),
    ("liealg.catalogue", ("liealg:build_catalogue", "liealg:_flow_specs"), ()),
    ("identities.catalogue", ("identities:_record_catalogue",), ()),
    ("identities.formal", ("identities:verify_formal",), ()),
    ("identities.numeric", ("identities:verify_numeric",), ()),
    ("identities.report", ("identities:report_to_json", "identities:report_to_markdown"), ()),
    ("cli.main", ("cli:main",), ()),
)

CATALOGUE_LAYERS = ("liealg.catalogue", "identities.catalogue")

# Counts the benchmark adds from its own checks and from comparing a traced
# pass with an untraced one, rather than from spans.
CHECK_COUNTS = {"hypfun.float.tol_misses": "count"}
TRACE_TIMES = ("trace.overhead_s", "trace.pass_s", "trace.glue_s")

UNITS = {"calls": "count", "builds": "count", "self_s": "s", "terms": "count",
         "term_pairs": "count", "max_bits": "bits", "rk4_steps": "count"}


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for layer, _targets, extras in LAYERS:
        first = "builds" if layer in CATALOGUE_LAYERS else "calls"
        for kind in (first, "self_s") + extras:
            out.append((f"{layer}.{kind}", UNITS[kind]))
        if layer == "hypfun.float":
            out.extend(CHECK_COUNTS.items())
    out.extend((name, "s") for name in TRACE_TIMES)
    out.append(("host.slowdown", "x"))
    return out


def _coeff_bits(series) -> int:
    bits = 0
    for c in series.terms.values():
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _count_hook(layer: str, target: str, orig):
    """Return ``hook(counts, args, kwargs, result)`` for a layer's extra counts."""
    if layer == "hypfun.coeff" and target.endswith("_series"):
        def hook(counts, args, kwargs, result):
            counts["terms"] += len(result.terms)
        return hook
    if layer == "series.construct":
        def hook(counts, args, kwargs, result):
            counts["terms"] += len(args[0].terms)
        return hook
    if layer == "series.mul":
        def hook(counts, args, kwargs, result):
            counts["term_pairs"] += len(args[0].terms) * len(args[1].terms)
            counts["max_bits"] = max(counts["max_bits"], _coeff_bits(result))
        return hook
    if layer == "hypfun.float" and target.endswith("f11_eval_float"):
        def hook(counts, args, kwargs, result):
            counts["terms"] += result[1]
        return hook
    if layer == "liealg.flow":
        signature = inspect.signature(orig)

        def hook(counts, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counts["rk4_steps"] += max(1, int(round(bound.arguments["alpha_max"]
                                                    / bound.arguments["h"])))
        return hook
    return None


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.layers = [layer for layer, _t, _e in LAYERS]
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts = {layer: defaultdict(int) for layer in self.layers}
        self.missing: list[str] = []

    def wrap(self, layer_index: int, fn, hook):
        spans, stack = self.spans, self.stack
        counts = self.counts[self.layers[layer_index]]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer_index, start, end, parent)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, package: str = "hypersym") -> None:
        """Wrap every target; targets a later version lacks are listed in ``missing``."""
        for layer_index, (layer, targets, _extras) in enumerate(LAYERS):
            for target in targets:
                module_name, _, attr = target.partition(":")
                module = importlib.import_module(f"{package}.{module_name}")
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    orig = owner.__dict__.get(method) if owner is not None else None
                    if orig is None:
                        self.missing.append(target)
                        continue
                    setattr(owner, method,
                            self.wrap(layer_index, orig, _count_hook(layer, target, orig)))
                    continue
                orig = getattr(module, attr, None)
                if orig is None:
                    self.missing.append(target)
                    continue
                traced = self.wrap(layer_index, orig, _count_hook(layer, target, orig))
                for name, mod in list(sys.modules.items()):
                    if mod is None or not (name == package or name.startswith(package + ".")):
                        continue
                    for binding, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, binding, traced)

    def summary(self) -> dict[str, float]:
        """Calls, self time and counts per layer for the spans recorded so far."""
        calls, selfs = self_times(self.spans, len(self.layers))
        out: dict[str, float] = {}
        for i, (layer, _targets, extras) in enumerate(LAYERS):
            first = "builds" if layer in CATALOGUE_LAYERS else "calls"
            out[f"{layer}.{first}"] = calls[i]
            out[f"{layer}.self_s"] = selfs[i]
            for kind in extras:
                out[f"{layer}.{kind}"] = self.counts[layer][kind]
        return out


def self_times(spans, n_layers: int) -> tuple[list[int], list[float]]:
    """Per-layer call counts and self times of ``(layer, start, end, parent)`` spans.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap in a single thread.
    """
    calls = [0] * n_layers
    selfs = [0.0] * n_layers
    child_time = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (layer, start, end, _parent) in enumerate(spans):
        calls[layer] += 1
        selfs[layer] += (end - start) - child_time[i]
    return calls, selfs
