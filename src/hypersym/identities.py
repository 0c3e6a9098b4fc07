"""Catalogue of parameter-shift generating relations and their verification.

Each record states one identity between a closed-form deformation of a
hypergeometric family member (left side) and a power series in the
deformation parameter chi whose coefficients are parameter-shifted members
(right side).  A record is data: it holds its left side once, in the field
``lhs``, as one closed-form formula in the member F, ``exp``, the parameters
and the coordinates, and names one catalogued operator E; the right side,
the expansion sum_l w_l F(params + l*shift) chi^l of exp(chi E) F, is
derived from E's action rule in ``liealg.ACTION_RULES``.  The exact and
the floating right side both come from that rule.  The exact right side is
one dict fill: for each l, the Horn walk of the member at params + l*shift
starts from w_l and writes its plane under the key prefix (l,).  The left
side formula is evaluated on exact series, with F the family's composition
and ``exp_series``, divisions and powers going through ``pow_rational``, so
the two sides of an identity are built independently; the same formula on
floats, with F the family's float value, ``math.exp`` and the parameters of
``hypfun.float_params``, is the numeric left side.  Everything a record
uses of its family (coordinates, bottom parameters, composition, float
value, parameter class) is read from ``hypfun.FAMILIES``.
Records are verified *formally*: both sides are expanded as truncated series
in (x[, y], chi) over exact rationals and compared coefficient-wise, so a
failure pinpoints the exact chi-order and monomial where the stated form
breaks.  The witness is the graded-lex least differing monomial.  Only the
rows whose mismatch the run-level invariant below can excuse, the as-stated
variants of the records with a corrected candidate, first compare the sides
in a probe box, every cap cut to min(1, cap): caps are trusted orders, so a
probe witness of total degree at most the least probe cap is the full box's
witness too.  The rows it leaves undecided, and every row that must verify,
build their two sides once, at the full caps.  ``run_suite``
opens ``series._shared_work`` once, so the rows share the power ladders and
Horn weights of their compositions, their converged float sums and, per
operator and point, the chi-sum's weights and shifted points.

Three catalogued statements are known to be self-inconsistent as stated;
each of those records carries a corrected candidate in its field
``corrected`` (stored as data, never silently substituted), with a ``note``
saying why, that the same machinery verifies.  The run-level invariant is:
every mismatch is an as-stated one paired with a verified corrected
candidate, otherwise the suite fails; ``run_suite`` returns its report
either way, as a plain dict, and ``invariant_ok(report)`` is the verdict.
``report_to_json`` writes the JSON text of every report file ``verify``
writes, and ``report_to_markdown`` the Markdown of this one.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
import time
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

from . import __version__ as ENGINE_VERSION
from .hypfun import (
    DEFAULT_F11_ORDERS,
    DEFAULT_PARAM_POINTS,
    DEFAULT_PSI2_ORDERS,
    DEFAULT_TERM_CAP,
    FAMILIES,
    NoConvergence,
    ParamsPsi2,
    float_params,
    param_strs,
)
from .liealg import ACTION_RULES
from .series import (
    MultiSeries,
    Mismatch,
    _kept,
    _shared_work,
    exp_series,
    first_mismatch,
    horn_series,
)

AS_STATED = "as_stated"
CORRECTED = "corrected_candidate"

DEFAULT_EVAL_X = 0.25
DEFAULT_EVAL_Y = 0.2


class CapUnderflow(ValueError):
    """Requested orders leave no trusted coefficients to compare."""


class DomainViolation(ValueError):
    """Numeric evaluation point lies outside the record's validity domain."""


# -- validity domains ---------------------------------------------------------------

# The domain predicate (x, y, chi) of each record's ``validity`` text.
_DOMAINS: dict[str, Callable[[float, float, float], bool]] = {
    "|chi| < 1": lambda x, y, chi: abs(chi) < 1,
    "|chi| < 1 and |chi(1-x)| < 1": lambda x, y, chi: abs(chi) < 1 and abs(chi * (1 - x)) < 1,
    "entire in chi": lambda x, y, chi: True,
}


def check_domain(
    record: IdentityRecord, chi: float, x: float = DEFAULT_EVAL_X, y: float = DEFAULT_EVAL_Y
) -> None:
    """DomainViolation unless (x, y, chi) lies in the record's validity
    domain: the check of every numeric row, which ``verify`` makes for its
    whole chi grid before any scope runs."""
    if not _DOMAINS[record.validity](x, y, chi):
        raise DomainViolation(
            f"{record.rec_id}: chi={chi} outside validity domain ({record.validity})"
        )


# -- record type -----------------------------------------------------------------

class IdentityRecord:
    """One catalogued relation with its as-stated and optional corrected form.

    Each left side is stated once, as a closed form ``lhs(F, exp, p, x, y,
    chi)`` that uses only ring operations, division, powers and ``exp``, so
    the one formula is evaluated two ways: ``lhs_series`` passes the
    family's composition at the exact parameters (``F(u)`` or ``F(u, v)``),
    ``exp_series``, the ``Fraction`` parameters and the coordinate series
    (y = None for the one-argument family); ``lhs_value`` passes the
    family's float evaluator, ``math.exp``, the parameters as floats and the
    evaluation point.  ``corrected`` is the corrected candidate, or None,
    and ``note`` says why it replaces the stated left side.

    The right side is the chi-sum sum_l w_l F(params + l*shift) chi^l of the
    family member F, the expansion of exp(chi E) F for the operator E named
    by ``op``: its action rule E F(p) = c(p) F(p + shift) gives
    w_{l+1} = w_l c(params + l*shift) / (l + 1).
    """

    def __init__(
        self,
        rec_id: str,
        statement: str,                 # human-readable as-stated formula
        validity: str,                  # a key of ``_DOMAINS``
        op: str,                        # operator id whose action gives the right side
        lhs: Callable[..., object],
        corrected: Callable[..., object] | None = None,
        note: str = "",
    ):
        if validity not in _DOMAINS:
            raise ValueError(f"{rec_id}: no domain for validity {validity!r}")
        self.rec_id = rec_id
        self.statement = statement
        self.validity = validity
        self.op = op
        self.lhs = lhs
        self.corrected = corrected
        self.note = note

    @property
    def family(self) -> str:
        """The family key, the prefix of ``op``: "f11" or "psi2"."""
        return self.op.partition(".")[0]


def _weights(record: IdentityRecord, p) -> Iterator[tuple[Fraction, object]]:
    """(w_l, p + l*shift) for l = 0, 1, ... of the record's chi-sum, the
    weights from its operator's action rule, made as they are first read.

    The pairs depend only on the operator and p, so inside
    ``series._shared_work`` they are one list kept under those, which every
    variant, chi and mode of the record at p reads and extends.  Each
    shifted point is built once, also where w_l vanishes, so a degenerate
    shift raises ``DegenerateParameter``; the pairs made before it stay as
    they were, and every later read that reaches it raises again.  After
    the first zero weight only zeros follow, and the rule's coefficient is
    not evaluated again: it may sit on a pole there.
    """
    pairs = _kept(("chi weights", record.op, p), list)
    rule = ACTION_RULES[record.op]
    for l in itertools.count():
        if l == len(pairs):
            w = Fraction(1)
            if l:
                w, q = pairs[-1]
                if w:
                    w = w * rule.coefficient(q) / l
            pairs.append((w, rule.shifted(p, l)))
        yield pairs[l]


def _sum_series(
    record: IdentityRecord, weights: Iterable[tuple[Fraction, object]], caps: Mapping[str, int]
) -> MultiSeries:
    """The record's chi-sum as an exact series at the caps.

    ``weights`` is ``_weights(record, p)``, or its first N + 1 pairs or
    more, N the chi cap.  One ``horn_series`` call: for each l <= N the
    member's Horn walk at p + l*shift starts from w_l with the leading
    exponent l, since "chi" sorts before "x" and "y".
    """
    fam = FAMILIES[record.family]
    variables = ("chi",) + fam.coords
    grids = [(q.a, fam.bottoms(q), w, (l,))
             for l, (w, q) in zip(range(caps["chi"] + 1), weights)]
    return horn_series(variables, tuple(caps[v] for v in variables), grids)


def _member_value(family: str, q, point: tuple[float, ...], tol: float) -> float:
    """The family member at q summed in floating point at ``point``.

    Inside ``series._shared_work`` the converged sum is kept under
    ("member sum", family, q, point, tol), so a member that another chi,
    variant or record reads again is summed once; a sum that raises keeps
    nothing.
    """
    evaluate = FAMILIES[family].evaluate
    return _kept(("member sum", family, q, point, tol), evaluate, q, *point, tol,
                 DEFAULT_TERM_CAP)[0]


# The most chi-sum terms ``_sum_float`` takes.
_CHI_SUM_TERM_CAP = 400


def _sum_float(record: IdentityRecord, p, x: float, y: float, chi: float, tol: float) -> float:
    """The record's chi-sum in floating point.  It stops after the first term
    l >= 6 that, like the term before it, is at most ``tol`` times the
    partial sum it ends (1e-300 at least), with no run-up of |arg| + |a|
    terms as the series evaluators take; NoConvergence past the term cap."""
    point = (x, y)[: len(FAMILIES[record.family].coords)]
    total = 0.0
    small_streak = 0
    for l, (w, q) in zip(range(_CHI_SUM_TERM_CAP), _weights(record, p)):
        value = _member_value(record.family, q, point, tol)
        term = float(w) * value * chi**l
        total += term
        if abs(term) <= tol * max(abs(total), 1e-300):
            small_streak += 1
        else:
            small_streak = 0
        if small_streak >= 2 and l >= 6:
            return total
    raise NoConvergence(f"chi-sum not converged in {_CHI_SUM_TERM_CAP} terms at chi={chi}")


def _record_catalogue() -> list[IdentityRecord]:
    records: list[IdentityRecord] = []

    # ---- one-argument family ----------------------------------------------

    records.append(IdentityRecord(
        rec_id="I-F11-RAISE-A",
        statement=(
            "(1-chi)^(-a) F(a;b;x/(1-chi)) "
            "= sum_l (a)_l/l! F(a+l;b;x) chi^l"
        ),
        validity="|chi| < 1",
        op="f11.E_a",
        lhs=lambda F, exp, p, x, y, chi: (1 - chi) ** -p.a * F(x / (1 - chi)),
    ))

    records.append(IdentityRecord(
        rec_id="I-F11-RAISE-B",
        statement=(
            "F(a;b;x(1+chi)) (1+chi)^(b-1) "
            "= sum_l (b-a)_l/(l!(b)_l) F(a;b+l;x) (-chi)^l"
        ),
        validity="|chi| < 1",
        op="f11.E_b",
        lhs=lambda F, exp, p, x, y, chi: F(x * (1 + chi)) * (1 + chi) ** (p.b - 1),
        corrected=lambda F, exp, p, x, y, chi: exp(-chi) * F(x + chi),
        note=(
            "left side replaced by exp(-chi) F(a;b;x+chi): the right "
            "side is the expansion of exp(chi (d/dx - 1)) applied to "
            "F, whose closed form shifts x and multiplies by "
            "exp(-chi); the stated left side mixes two different "
            "deformation variables"
        ),
    ))

    records.append(IdentityRecord(
        rec_id="I-F11-LOWER-A",
        statement=(
            "F(a;b;x/(1-chi(1-x))) ((1-chi)/(1-chi(1-x)))^b (1-chi)^a "
            "= sum_l (b-a)_l/l! F(a-l;b;x) chi^l"
        ),
        validity="|chi| < 1 and |chi(1-x)| < 1",
        op="f11.E_a'",
        lhs=lambda F, exp, p, x, y, chi: F(x / (1 - chi * (1 - x)))
            * ((1 - chi) / (1 - chi * (1 - x))) ** p.b
            * (1 - chi) ** p.a,
        corrected=lambda F, exp, p, x, y, chi: (1 - chi) ** (p.a - p.b)
            * exp(-x * chi / (1 - chi))
            * F(x / (1 - chi)),
        note=(
            "left side rebuilt from the lowering operator's actual "
            "characteristic system: argument x/(1-chi), prefactor "
            "(1-chi)^(a-b), and multiplier exp(-x chi/(1-chi)); the "
            "stated flow does not solve the operator's vector field"
        ),
    ))

    # (b-l)_l = (-1)^l (1-b)_l, and likewise for c in the two-argument records
    records.append(IdentityRecord(
        rec_id="I-F11-LOWER-B",
        statement=(
            "F(a;b;x(1+chi)) (1+chi)^b "
            "= sum_l (b-l)_l/l! F(a;b-l;x) chi^l"
        ),
        validity="|chi| < 1",
        op="f11.E_b'",
        lhs=lambda F, exp, p, x, y, chi: F(x * (1 + chi)) * (1 + chi) ** p.b,
        corrected=lambda F, exp, p, x, y, chi: F(x * (1 + chi)) * (1 + chi) ** (p.b - 1),
        note=(
            "left-side exponent b-1 instead of b: the lowering flow "
            "carries the multiplier 1/(1+chi), which the stated form "
            "drops"
        ),
    ))

    records.append(IdentityRecord(
        rec_id="I-F11-SHIFT",
        statement=(
            "F(a;b;x+chi) = sum_l (a)_l/(l!(b)_l) F(a+l;b+l;x) chi^l"
        ),
        validity="entire in chi",
        op="f11.E_ab",
        lhs=lambda F, exp, p, x, y, chi: F(x + chi),
    ))

    # ---- two-argument family ------------------------------------------------

    # The triple series is by definition sum_l (a)_l/l! Psi(a+l;b,c;x,y) chi^l,
    # so it is this record's chi-sum and the closed form is its left side.
    records.append(IdentityRecord(
        rec_id="I-PSI2-REDUCTION",
        statement=(
            "Psi(a;b,c;x,y,chi) [triple series] "
            "= (1-chi)^(-a) Psi(a;b,c;x/(1-chi),y/(1-chi))"
        ),
        validity="|chi| < 1",
        op="psi2.E_a",
        lhs=lambda F, exp, p, x, y, chi: (1 - chi) ** -p.a
            * F(x / (1 - chi), y / (1 - chi)),
    ))

    records.append(IdentityRecord(
        rec_id="I-PSI2-LOWER-B",
        statement=(
            "Psi(a;b,c;x(1+chi),y) (1+chi)^(b-1) "
            "= sum_l (b-l)_l/l! Psi(a;b-l,c;x,y) chi^l"
        ),
        validity="|chi| < 1",
        op="psi2.E_b",
        lhs=lambda F, exp, p, x, y, chi: F(x * (1 + chi), y) * (1 + chi) ** (p.b - 1),
    ))

    records.append(IdentityRecord(
        rec_id="I-PSI2-LOWER-C",
        statement=(
            "Psi(a;b,c;x,y(1+chi)) (1+chi)^(c-1) "
            "= sum_l (c-l)_l/l! Psi(a;b,c-l;x,y) chi^l"
        ),
        validity="|chi| < 1",
        op="psi2.E_c",
        lhs=lambda F, exp, p, x, y, chi: F(x, y * (1 + chi)) * (1 + chi) ** (p.c - 1),
    ))

    records.append(IdentityRecord(
        rec_id="I-PSI2-SHIFT-X",
        statement=(
            "Psi(a;b,c;x+chi,y) "
            "= sum_l (a)_l/(l!(b)_l) Psi(a+l;b+l,c;x,y) chi^l"
        ),
        validity="entire in chi",
        op="psi2.E_ab",
        lhs=lambda F, exp, p, x, y, chi: F(x + chi, y),
    ))

    records.append(IdentityRecord(
        rec_id="I-PSI2-SHIFT-Y",
        statement=(
            "Psi(a;b,c;x,y+chi) "
            "= sum_l (a)_l/(l!(c)_l) Psi(a+l;b,c+l;x,y) chi^l"
        ),
        validity="entire in chi",
        op="psi2.E_ac",
        lhs=lambda F, exp, p, x, y, chi: F(x, y + chi),
    ))

    return records


@functools.cache
def catalogue() -> tuple[IdentityRecord, ...]:
    """The full identity catalogue in fixed order, built on first use."""
    return tuple(_record_catalogue())


def get_record(rec_id: str) -> IdentityRecord:
    for rec in catalogue():
        if rec.rec_id == rec_id:
            return rec
    raise KeyError(f"unknown identity {rec_id!r}")


# -- verification -----------------------------------------------------------------

def _caps_for(record: IdentityRecord, n_order: int, m_order: int) -> dict[str, int]:
    if n_order < 0 or m_order < 0:
        raise CapUnderflow("orders must be nonnegative")
    return {"chi": n_order, **dict.fromkeys(FAMILIES[record.family].coords, m_order)}


def _witness(found: Mismatch | None) -> dict | None:
    """A row's witness of a ``series.first_mismatch`` result, or None."""
    return None if found is None else {"monomial": found.monomial, "lhs": str(found.lhs),
                                       "rhs": str(found.rhs)}


def _lhs(record: IdentityRecord, variant: str) -> Callable[..., object]:
    """The record's left-side formula for ``variant``; KeyError if it has none."""
    lhs = {AS_STATED: record.lhs, CORRECTED: record.corrected}.get(variant)
    if lhs is None:
        raise KeyError(f"{record.rec_id} has no variant {variant!r}")
    return lhs


def lhs_series(
    record: IdentityRecord, variant: str, p, caps: Mapping[str, int]
) -> MultiSeries:
    """The variant's left side as an exact series in chi and the coordinates."""
    lhs = _lhs(record, variant)
    coord = {v: MultiSeries.variable(v, caps) for v in caps}
    compose = functools.partial(FAMILIES[record.family].compose, p)
    return lhs(compose, exp_series, p, coord["x"], coord.get("y"), coord["chi"])


def lhs_value(
    record: IdentityRecord, variant: str, p, x: float, y: float, chi: float, tol: float,
) -> float:
    """The variant's left side in floating point at (x, y, chi); a parameter
    too large for a float raises ``ValueError``.  Each value of F is a
    ``_member_value``, kept like the chi-sum's members."""
    lhs = _lhs(record, variant)
    floats = float_params(p)
    return lhs(lambda *u: _member_value(record.family, p, u, tol), math.exp, floats, x, y, chi)


def verify_formal(
    record: IdentityRecord, variant: str, params, n_order: int, m_order: int
) -> dict:
    """Build both sides as exact truncated series and compare coefficient-wise.

    Returns a row dict with status "verified" or "mismatch" (plus the
    graded-lex least failing monomial and both coefficients there).

    A row whose mismatch ``run_suite``'s invariant can excuse, the as-stated
    variant of a record with a corrected candidate, first compares the
    sides in the probe box, every cap cut to min(1, cap).  Caps are trusted
    orders, so the probe's coefficients are the full box's; when its least
    differing monomial has total degree d at most the least probe cap,
    every monomial of degree d or less lies in the probe, and it is the
    full box's witness too.  Every other row, which must verify, and every
    row the probe leaves undecided builds both sides once, at the full
    caps, so an unexpected mismatch gets the full box's witness.  The
    chi-sum's weights and shifted points are built once, up to the full
    chi cap and before either box, also where w_l vanishes, so a
    degenerate shift raises ``DegenerateParameter`` whichever box decides.
    """
    p = FAMILIES[record.family].narrow(params)
    caps = _caps_for(record, n_order, m_order)
    weights = list(itertools.islice(_weights(record, p), n_order + 1))

    def compare(box: dict[str, int]) -> Mismatch | None:
        return first_mismatch(lhs_series(record, variant, p, box), _sum_series(record, weights, box))

    if variant == AS_STATED and record.corrected is not None:
        probe = {v: min(1, cap) for v, cap in caps.items()}
        found = compare(probe)
        if not (probe == caps or found is not None and found.degree <= min(probe.values())):
            found = compare(caps)
    else:
        found = compare(caps)
    witness = _witness(found)
    return {
        "id": record.rec_id,
        "variant": variant,
        "params": param_strs(params),
        "orders": {"N": n_order, "M": m_order},
        "status": "verified" if witness is None else "mismatch",
        "witness": witness,
    }


def verify_numeric(
    record: IdentityRecord,
    variant: str,
    params,
    chi: float,
    tol: float,
    x: float = DEFAULT_EVAL_X,
    y: float = DEFAULT_EVAL_Y,
) -> dict:
    """Evaluate both sides in floating point and compare relatively; a side
    whose float arithmetic overflows raises ``NoConvergence``."""
    p = FAMILIES[record.family].narrow(params)
    check_domain(record, chi, x, y)
    try:
        lhs = lhs_value(record, variant, p, x, y, chi, tol)
        rhs = _sum_float(record, p, x, y, chi, tol)
    except OverflowError as exc:
        raise NoConvergence(f"{record.rec_id}: a side overflows at chi={chi}: {exc}") from exc
    scale = max(abs(lhs), abs(rhs), 1.0)
    ok = abs(lhs - rhs) <= tol * scale
    return {
        "id": record.rec_id,
        "variant": variant,
        "params": param_strs(params),
        "chi": chi,
        "point": dict(zip(FAMILIES[record.family].coords, (x, y))),
        "status": "verified" if ok else "mismatch",
        "witness": None if ok else {
            "lhs": repr(lhs), "rhs": repr(rhs), "rel_diff": repr(abs(lhs - rhs) / scale)
        },
    }


# -- suite runner -------------------------------------------------------------------

def default_param_points() -> list[ParamsPsi2]:
    return [ParamsPsi2(*point) for point in DEFAULT_PARAM_POINTS]


def run_suite(
    param_points: Sequence[ParamsPsi2] | None = None,
    orders: Mapping[str, tuple[int, int]] | None = None,
    mode: str = "formal",
    chi_grid: Sequence[float] = (0.1, 0.25),
    tol: float = 1e-8,
    records: Sequence[IdentityRecord] | None = None,
) -> dict:
    """Verify every record x variant x parameter point (x chi for numeric).

    ``records`` (the catalogue by default) are verified as given, whatever
    their ids.

    The report is a plain dict: ``scope``, ``engine_version``, ``summary``,
    ``rows`` and ``total_ms``.  Its summary counts the rows by status and
    variant, and counts under ``unresolved_failures`` every mismatch but an
    as-stated one whose corrected candidate verified for the same record,
    point, mode (and chi); ``invariant_ok(report)`` is false when there is
    one.  A corrected candidate that mismatches is thus a failure, also
    where its as-stated form verifies.  The rows that can be excused are
    the rows ``verify_formal`` builds its probe box for.

    The rows share their converged float sums, the power ladders and Horn
    weights of their compositions and their chi-sum weights: a family
    member at one parameter point and evaluation point, a chi-sum member or
    a left-side value, met again (another chi, variant or record) is summed
    once per call, whole, nested sums included (``_member_value``), and so
    is an inner 1F1 of a Humbert sum met again; an argument met again
    (another variant, record or point) is raised to its powers once per
    call, and the weights and shifted points of one operator at one point
    are walked once per call, as far as the furthest row reads them
    (``series._shared_work``, on only for the call and dropped when it
    returns or raises).  In a default numeric suite the Humbert members
    and left sides are 344 reads of 200 distinct sums.  The rows are those
    of separate ``verify_formal`` and ``verify_numeric`` calls.
    """
    if mode not in ("formal", "numeric", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    if param_points is None:
        param_points = default_param_points()
    if not param_points:
        raise ValueError("param_points must be nonempty")
    if orders is None:
        orders = {"f11": DEFAULT_F11_ORDERS, "psi2": DEFAULT_PSI2_ORDERS}
    cat = catalogue() if records is None else list(records)

    t0 = time.perf_counter()
    rows: list[dict] = []
    with _shared_work():
        for record in cat:
            for variant in (AS_STATED, CORRECTED) if record.corrected else (AS_STATED,):
                for point in param_points:
                    n_order, m_order = orders[record.family]
                    if mode in ("formal", "both"):
                        t1 = time.perf_counter()
                        row = verify_formal(record, variant, point, n_order, m_order)
                        row["mode"] = "formal"
                        row["elapsed_ms"] = (time.perf_counter() - t1) * 1000.0
                        rows.append(row)
                    if mode in ("numeric", "both"):
                        for chi in chi_grid:
                            t1 = time.perf_counter()
                            row = verify_numeric(record, variant, point, chi, tol)
                            row["mode"] = "numeric"
                            row["orders"] = {"N": n_order, "M": m_order}
                            row["elapsed_ms"] = (time.perf_counter() - t1) * 1000.0
                            rows.append(row)
    total_ms = (time.perf_counter() - t0) * 1000.0

    def case(r: dict) -> tuple:
        return r["id"], tuple(r["params"].items()), r["mode"], r.get("chi")

    resolved = {case(r) for r in rows if r["variant"] == CORRECTED and r["status"] == "verified"}
    summary = {"records": len(cat), "rows": len(rows),
               **dict.fromkeys(("verified", "mismatched", "as_stated_verified",
                                "as_stated_mismatched", "unresolved_failures"), 0)}
    for r in rows:
        status = "verified" if r["status"] == "verified" else "mismatched"
        summary[status] += 1
        as_stated = r["variant"] == AS_STATED
        if as_stated:
            summary["as_stated_" + status] += 1
        if status == "mismatched" and not (as_stated and case(r) in resolved):
            summary["unresolved_failures"] += 1
    return {
        "scope": "identities",
        "engine_version": ENGINE_VERSION,
        "summary": summary,
        "rows": rows,
        "total_ms": total_ms,
    }


def invariant_ok(report: Mapping) -> bool:
    """The verdict of a ``run_suite`` report: every mismatch is an as-stated
    one paired with a verified corrected candidate."""
    return report["summary"]["unresolved_failures"] == 0


# -- serialization -------------------------------------------------------------------

def report_to_json(payload: Mapping) -> str:
    """The JSON text of a report: every report file ``verify`` writes.

    The text is ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``,
    written by one recursive pass that appends to one list: with ``indent``
    set, ``json`` falls back to its pure-Python encoder, which costs about
    twice as much.  A value that is not a list, tuple or dict is written by
    one lookup of its exact type in ``_SCALAR_TEXT``: strings are escaped by
    ``json``'s own C ``encode_basestring_ascii``, and numbers, booleans and
    None are written as ``json`` writes them.  A value of any other type
    raises ``json``'s ``TypeError``, and so does a subclass of ``str``,
    ``int`` or ``float``, which ``json`` would write: no report holds one.
    Dict keys are sorted, and a key that is not a ``str``, which ``json``
    would convert, raises ``TypeError``: no report has one either.
    """
    out: list[str] = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


_escape = json.encoder.encode_basestring_ascii


def _float_text(value: float) -> str:
    """A float as ``json`` writes it, ``NaN`` and the infinities included."""
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def _not_json(value) -> NoReturn:
    """Raise ``json``'s ``TypeError`` for a value it cannot write."""
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


# The JSON text of a value that is not a list, tuple or dict, by its exact
# type; any other type is ``_not_json``.
_SCALAR_TEXT = {
    str: _escape,
    int: int.__repr__,
    float: _float_text,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append the indented JSON text of ``value`` to ``out``; ``newline`` is
    a newline and the indentation of the line ``value`` starts on."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        items = [(_escape(k), v) for k, v in sorted(value.items())]
        close = newline + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        head = "[" + inner
        items = [(None, v) for v in value]
        close = newline + "]"
    else:
        out.append(_SCALAR_TEXT.get(type(value), _not_json)(value))
        return
    for key, item in items:
        if key is not None:
            head = f"{head}{key}: "
        text = _SCALAR_TEXT.get(type(item))
        if text is not None:
            out.append(head + text(item))
        elif isinstance(item, (list, tuple, dict)):
            out.append(head)
            _write_json(item, inner, out)
        else:
            _not_json(item)
        head = "," + inner
    out.append(close)


# Timing fields, each on a line of its own.  A row's ``elapsed_ms`` and a
# suite's ``total_ms`` leave their line empty.  A ``verify`` scope's
# ``elapsed_ms``, the first key of its part under ``scopes``, goes with its
# line, so that a stripped report is the same whether its scopes are timed
# or not.
_TIMING_RE = re.compile(r'^\s*"(elapsed_ms|total_ms)": [0-9eE+.-]+,?$', re.M)
_SCOPE_TIMING_RE = re.compile(r'^(    "\w+": \{\n)      "elapsed_ms": [0-9eE+.-]+,\n', re.M)


def strip_timing(text: str) -> str:
    """Remove the isolated timing fields for byte-for-byte comparisons."""
    return _TIMING_RE.sub("", _SCOPE_TIMING_RE.sub(r"\1", text))


def report_to_markdown(report: Mapping) -> str:
    lines = [
        f"# Verification report: {report['scope']}",
        "",
        f"engine version {report['engine_version']}",
        "",
        "| id | variant | mode | params | status | witness |",
        "|---|---|---|---|---|---|",
    ]
    for r in report["rows"]:
        params = " ".join(f"{k}={v}" for k, v in r["params"].items())
        witness = ""
        if r["witness"]:
            witness = "; ".join(f"{k}={v}" for k, v in r["witness"].items())
        chi = f" chi={r['chi']}" if "chi" in r else ""
        lines.append(
            f"| {r['id']} | {r['variant']} | {r['mode']}{chi} | {params} "
            f"| {r['status']} | {witness} |"
        )
    lines.append("")
    lines.append(
        "summary: "
        + ", ".join(f"{k}={v}" for k, v in sorted(report["summary"].items()))
    )
    lines.append("")
    return "\n".join(lines)
