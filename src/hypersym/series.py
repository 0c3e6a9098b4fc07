"""Truncated multivariate formal power series over exact rationals.

A :class:`MultiSeries` stores a sparse map from exponent tuples to nonzero
``Fraction`` coefficients, together with a per-variable truncation cap.  The
caps are *trusted orders*: every stored coefficient is exactly the
coefficient of the represented function, and anything beyond a cap has been
discarded.  Ring operations (add, mul, integer/rational powers) preserve
exactness at the caps; only :meth:`MultiSeries.derivative` genuinely loses
the top order of the differentiated variable and therefore reduces its cap
by one.  A number on the left of ``+`` or ``-`` is a constant series,
``s / t`` is ``s * pow_rational(t, -1)`` (so t needs constant term 1) and
``s ** g`` is ``pow_rational(s, g)``, so a closed form such as
``(1 - chi) ** -a * F(x / (1 - chi))`` reads the same on series as on
floats.

Per-variable caps (rather than a total-degree cap) matter because the
verification workloads pair a deformation order in one variable with an
independent inner order in the others.

The Horn term-ratio kernel lives here.  ``horn_coefficients`` walks the
index grid on an unreduced integer numerator/denominator pair, multiplying
in each term ratio as integer factors, and makes one ``Fraction`` per
coefficient; it can start from a given coefficient and key its grid under a
prefix, so a scaled grid merges into a larger series as it stands.
``horn_compose`` sums those coefficients against powers of series arguments
on integers: each argument becomes integer numerators over the lcm of its
denominators, its powers are integer series, and the whole sum is one
integer dict over one common denominator with one ``Fraction`` per output
term.  ``pow_rational``, ``exp_series`` and the compositions in ``hypfun``
are calls to it.

The public constructor ``MultiSeries(caps, terms)`` is the entry point for
outside input: it coerces every coefficient, rejects malformed exponent
tuples and drops zero and over-cap terms.  Ring and reshape operations build
their results with the private ``MultiSeries._trusted``, which takes terms
that are clean by construction and checks nothing.  The product scales each
operand to integer numerators over the lcm of its denominators, so the
Cauchy sum (``_cauchy``, the one product loop, which ``horn_compose`` uses
too) runs on integers and each output coefficient is one reduced
``Fraction``.

:class:`PrefactorSeries` attaches a monomial prefactor with exact rational
exponents (e.g. ``y^a z^b`` for non-integer a, b) to a body series; the
product rule across body and prefactor is implemented exactly.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Mapping, Sequence

from .exactnum import Q, as_rational, is_nonpositive_integer


class CapMismatch(ValueError):
    """Operands carry different variable sets or truncation caps."""


class UnknownVariable(KeyError):
    """A variable name is not part of the series."""


class NonUnitConstantTerm(ValueError):
    """Operation requires a series with constant term exactly 1."""


class NonZeroConstantTerm(ValueError):
    """Operation requires a series with constant term exactly 0."""


class PrefactorMismatch(ValueError):
    """Prefactor exponents differ where they must agree."""


def _normalize_caps(caps: Mapping[str, int]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    names = tuple(sorted(caps))
    degs = tuple(int(caps[n]) for n in names)
    for n, d in zip(names, degs):
        if d < 0:
            raise ValueError(f"negative cap for variable {n!r}")
    return names, degs


def _integer_terms(
    terms: Mapping[tuple[int, ...], Fraction]
) -> tuple[int, dict[tuple[int, ...], int]]:
    """The lcm d of the coefficients' denominators, and each coefficient times d."""
    d = math.lcm(*(c.denominator for c in terms.values()))
    return d, {e: c.numerator * (d // c.denominator) for e, c in terms.items()}


def _cauchy(
    a: Mapping[tuple[int, ...], int],
    b: Mapping[tuple[int, ...], int],
    caps: tuple[int, ...],
) -> dict[tuple[int, ...], int]:
    """Truncated Cauchy product of two integer term maps; sums may be zero.

    The smaller operand is iterated outermost, and a pair is skipped as soon
    as one exponent has no room left under its cap.
    """
    if len(a) > len(b):
        a, b = b, a
    b_items = list(b.items())
    out: dict[tuple[int, ...], int] = {}
    for e1, n1 in a.items():
        room = tuple(map(operator.sub, caps, e1))
        for e2, n2 in b_items:
            if all(map(operator.le, e2, room)):
                exps = tuple(map(operator.add, e1, e2))
                out[exps] = out.get(exps, 0) + n1 * n2
    return out


class MultiSeries:
    """Sparse truncated power series; immutable by convention."""

    __slots__ = ("variables", "caps", "terms")

    def __init__(self, caps: Mapping[str, int], terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.variables, self.caps = _normalize_caps(caps)
        cleaned: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != len(self.variables):
                    raise ValueError("exponent tuple length mismatch")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in series term")
                if any(e > c for e, c in zip(exps, self.caps)):
                    continue
                c = as_rational(coeff)
                if c != 0:
                    cleaned[exps] = c
        self.terms = cleaned

    @classmethod
    def _trusted(
        cls,
        variables: tuple[str, ...],
        caps: tuple[int, ...],
        terms: dict[tuple[int, ...], Fraction],
    ) -> "MultiSeries":
        """Series from sorted variables, their caps and clean terms.

        Nothing is checked or copied: every key must be an int tuple inside
        the caps and every value a nonzero ``Fraction``.
        """
        s = object.__new__(cls)
        s.variables = variables
        s.caps = caps
        s.terms = terms
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, caps: Mapping[str, int]) -> "MultiSeries":
        return cls(caps)

    @classmethod
    def constant(cls, value, caps: Mapping[str, int]) -> "MultiSeries":
        value = as_rational(value)
        s = cls(caps)
        if value != 0:
            s.terms[(0,) * len(s.variables)] = value
        return s

    @classmethod
    def monomial(cls, coeff, exponents: Mapping[str, int], caps: Mapping[str, int]) -> "MultiSeries":
        s = cls(caps)
        exps = [0] * len(s.variables)
        for name, e in exponents.items():
            if name not in s.variables:
                raise UnknownVariable(name)
            exps[s.variables.index(name)] = int(e)
        coeff = as_rational(coeff)
        if coeff != 0 and all(e <= c for e, c in zip(exps, s.caps)):
            s.terms[tuple(exps)] = coeff
        return s

    @classmethod
    def variable(cls, name: str, caps: Mapping[str, int]) -> "MultiSeries":
        return cls.monomial(1, {name: 1}, caps)

    # -- basic queries -----------------------------------------------------

    def cap_map(self) -> dict[str, int]:
        return dict(zip(self.variables, self.caps))

    def cap(self, v: str) -> int:
        try:
            return self.caps[self.variables.index(v)]
        except ValueError:
            raise UnknownVariable(v) from None

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.variables), Q(0))

    def coefficient(self, exponents: Mapping[str, int]) -> Fraction:
        exps = [0] * len(self.variables)
        for name, e in exponents.items():
            if name not in self.variables:
                raise UnknownVariable(name)
            exps[self.variables.index(name)] = int(e)
        return self.terms.get(tuple(exps), Q(0))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lex order (total degree, then exponent tuple)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.caps == other.caps
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        caps = ", ".join(f"{v}<={c}" for v, c in zip(self.variables, self.caps))
        return f"MultiSeries[{caps}]({self.render()})"

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "MultiSeries") -> None:
        if self.variables != other.variables or self.caps != other.caps:
            raise CapMismatch(
                f"{dict(zip(self.variables, self.caps))} vs "
                f"{dict(zip(other.variables, other.caps))}"
            )

    def _combine(self, other: "MultiSeries", subtract: bool) -> "MultiSeries":
        """self + other, or self - other: one pass over other's terms."""
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps)
            if s is None:
                out[exps] = -c if subtract else c
                continue
            s = s - c if subtract else s + c
            if s:
                out[exps] = s
            else:
                del out[exps]
        return MultiSeries._trusted(self.variables, self.caps, out)

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        return self._combine(other, False)

    def __neg__(self) -> "MultiSeries":
        return MultiSeries._trusted(
            self.variables, self.caps, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self._combine(other, True)

    def __radd__(self, k) -> "MultiSeries":
        return MultiSeries.constant(k, self.cap_map()) + self

    def __rsub__(self, k) -> "MultiSeries":
        return MultiSeries.constant(k, self.cap_map()) - self

    def scale(self, k) -> "MultiSeries":
        k = as_rational(k)
        terms = {e: c * k for e, c in self.terms.items()} if k else {}
        return MultiSeries._trusted(self.variables, self.caps, terms)

    def __mul__(self, other: "MultiSeries") -> "MultiSeries":
        """Truncated Cauchy product, summed on integer numerators.

        Each operand is written as integer numerators over the lcm of its
        denominators; ``_cauchy`` accumulates the pair products as integers
        and each output coefficient is one ``Fraction(sum, da * db)``, which
        reduces to the same value the ``Fraction`` sum would give.
        """
        self._check_compatible(other)
        da, a = _integer_terms(self.terms)
        db, b = _integer_terms(other.terms)
        d = da * db
        terms = {e: Fraction(v, d) for e, v in _cauchy(a, b, self.caps).items() if v}
        return MultiSeries._trusted(self.variables, self.caps, terms)

    def __truediv__(self, other: "MultiSeries") -> "MultiSeries":
        """self / other for a divisor with constant term 1."""
        return self * pow_rational(other, -1)

    def __pow__(self, gamma) -> "MultiSeries":
        return pow_rational(self, gamma)

    def pow_int(self, n: int) -> "MultiSeries":
        if n < 0:
            raise ValueError("negative integer power; use pow_rational")
        out = MultiSeries.constant(1, self.cap_map())
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def shift(self, v: str, k: int = 1) -> "MultiSeries":
        """Multiply by the monomial v^k (k >= 0); overflowing terms drop."""
        if v not in self.variables:
            raise UnknownVariable(v)
        if k < 0:
            raise ValueError("negative monomial shift on a body series")
        i = self.variables.index(v)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[i] + k
            if e > self.caps[i]:
                continue
            out[exps[:i] + (e,) + exps[i + 1:]] = c
        return MultiSeries._trusted(self.variables, self.caps, out)

    def derivative(self, v: str) -> "MultiSeries":
        """Formal partial derivative; the cap of v drops by one because the
        top-order coefficient of the result would need information beyond
        the stored truncation."""
        if v not in self.variables:
            raise UnknownVariable(v)
        i = self.variables.index(v)
        caps = self.caps[:i] + (max(self.caps[i] - 1, 0),) + self.caps[i + 1:]
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            out[exps[:i] + (e - 1,) + exps[i + 1:]] = c * e
        return MultiSeries._trusted(self.variables, caps, out)

    # -- shape changes -----------------------------------------------------

    def truncate(self, caps: Mapping[str, int]) -> "MultiSeries":
        """Restrict to (possibly lower) caps; variable set must agree."""
        names, degs = _normalize_caps(caps)
        if names != self.variables:
            raise CapMismatch("truncate cannot change the variable set")
        terms = {
            exps: c for exps, c in self.terms.items()
            if all(map(operator.le, exps, degs))
        }
        return MultiSeries._trusted(names, degs, terms)

    def extend(self, extra_caps: Mapping[str, int]) -> "MultiSeries":
        """Embed into a larger variable set; new variables get degree 0."""
        caps = self.cap_map()
        for name, c in extra_caps.items():
            if name in caps:
                if caps[name] != c:
                    raise CapMismatch(f"conflicting cap for {name!r}")
            else:
                caps[name] = c
        new_names, new_caps = _normalize_caps(caps)
        idx = [new_names.index(v) for v in self.variables]
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            full = [0] * len(new_names)
            for pos, e in zip(idx, exps):
                full[pos] = e
            out[tuple(full)] = c
        return MultiSeries._trusted(new_names, new_caps, out)

    # -- evaluation / rendering --------------------------------------------

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact evaluation of the truncated polynomial at rational point.

        The sum runs over integers on one common denominator: the lcm of the
        coefficient denominators times each coordinate's denominator raised
        to its cap.  Only the final quotient is reduced.
        """
        vals = [as_rational(point[v]) for v in self.variables]
        if not self.terms:
            return Q(0)
        common = math.lcm(*(c.denominator for c in self.terms.values()))
        denominator = common
        # powers[i][e] = p^e * q^(cap - e) for the coordinate p/q of variable i
        powers = []
        for val, cap in zip(vals, self.caps):
            p, q = val.numerator, val.denominator
            p_pows = [1]
            q_pows = [1]
            for _ in range(cap):
                p_pows.append(p_pows[-1] * p)
                q_pows.append(q_pows[-1] * q)
            powers.append([p_pows[e] * q_pows[cap - e] for e in range(cap + 1)])
            denominator *= q_pows[cap]
        total = 0
        for exps, c in self.terms.items():
            term = c.numerator * (common // c.denominator)
            for row, e in zip(powers, exps):
                term *= row[e]
            total += term
        return Fraction(total, denominator)

    def render(self) -> str:
        """Canonical text form: graded-lex term order, exact rationals."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
                if e
            )
            mag = abs(coeff)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)


# -- Horn term-ratio kernel --------------------------------------------------

def horn_coefficients(
    a: Fraction,
    axes: Sequence[tuple[int, tuple[Fraction, ...]]],
    *,
    start: Fraction = Fraction(1),
    prefix: tuple[int, ...] = (),
) -> dict[tuple[int, ...], Fraction]:
    """Nonzero coefficients start * (a)_{|k|} / prod_i (k_i! prod (lower_i)_{k_i}).

    ``axes`` gives each index's cap and bottom parameters, in the order the
    index tuples are keyed, and each coefficient is keyed ``prefix + k``, so
    a caller can merge a scaled grid into a dict of its own.  The grid is
    walked in lexicographic order on an unreduced integer pair: with a = p/q
    and each bottom r/s, the step k -> k+1 on an index whose predecessors
    sum to o multiplies the numerator by (p + q(o+k)) prod s and the
    denominator by q (k+1) prod (r + s k), and one ``Fraction`` is made per
    coefficient.
    Once a coefficient vanishes (a is a non-positive integer) every later
    one along that index and below it vanishes too, so the walk stops there.
    """
    out: dict[tuple[int, ...], Fraction] = {}
    if not start:
        return out
    p, q = a.numerator, a.denominator
    steps = []
    before = 0
    for cap, lower in axes:
        scale = 1
        for low in lower:
            scale *= low.denominator
        # tops[t]: numerator factor of a step out of total degree t
        tops = [(p + q * t) * scale for t in range(before + cap)]
        bottoms = []
        for k in range(cap):
            d = q * (k + 1)
            for low in lower:
                d *= low.numerator + low.denominator * k
            bottoms.append(d)
        steps.append((cap, tops, bottoms))
        before += cap
    _horn_walk(steps, 0, start.numerator, start.denominator, 0, prefix, out)
    return out


def _horn_walk(
    steps: list[tuple[int, list[int], list[int]]],
    i: int,
    num: int,
    den: int,
    total: int,
    prefix: tuple[int, ...],
    out: dict[tuple[int, ...], Fraction],
) -> None:
    """Fill ``out`` below ``prefix``; num/den sits at (prefix, 0, ..., 0)."""
    cap, tops, bottoms = steps[i]
    last = i == len(steps) - 1
    for k in range(cap + 1):
        if last:
            out[prefix + (k,)] = Fraction(num, den)
        else:
            _horn_walk(steps, i + 1, num, den, total + k, prefix + (k,), out)
        if k == cap:
            break
        top = tops[total + k]
        if not top:
            break
        num *= top
        den *= bottoms[k]


def horn_compose(
    a: Fraction, args: Sequence[tuple[MultiSeries, tuple[Fraction, ...]]]
) -> MultiSeries:
    """The Horn series of ``a`` with series arguments.

    ``args`` pairs each argument u_i with its bottom parameters; the result
    is the sum over k of ``horn_coefficients`` times prod_i u_i^(k_i).
    Every argument needs zero constant term and the caps of the first, so
    u_i^k has total degree at least k and the sum is finite: powers stop at
    the first zero one, and at -a when (a)_k vanishes beyond it.

    The sum runs on integers.  Each argument is written as integer
    numerators U_i over the lcm D_i of its denominators, and its powers are
    the integer series U_i^k.  With B_i the highest power kept and C the lcm
    of the coefficients' denominators, the sum times C prod D_i^(B_i) is
    sum_k C c_k prod U_i^(k_i) D_i^(B_i - k_i), accumulated in one integer
    dict (the innermost index as a weighted sum of powers, each outer one as
    one product per power); each output coefficient is one ``Fraction``.
    """
    first = args[0][0]
    variables, caps = first.variables, first.caps
    bound = sum(caps)
    if is_nonpositive_integer(a):
        bound = min(bound, -a.numerator)
    zero = (0,) * len(variables)
    rows = []
    denominator = 1
    for arg, _ in args:
        if arg.constant_term():
            raise NonZeroConstantTerm("composition arguments need zero constant term")
        first._check_compatible(arg)
        d, u = _integer_terms(arg.terms)
        row = [{zero: 1}]
        while len(row) <= bound:
            nxt = {e: v for e, v in _cauchy(row[-1], u, caps).items() if v}
            if not nxt:
                break
            row.append(nxt)
        top = len(row) - 1
        if d != 1:
            row = [{e: v * d ** (top - k) for e, v in power.items()}
                   for k, power in enumerate(row)]
        denominator *= d ** top
        rows.append(row)
    axes = [(len(row) - 1, lower) for row, (_, lower) in zip(rows, args)]
    # past the bound the product of powers is zero
    coeffs = [(k, c) for k, c in horn_coefficients(a, axes).items() if sum(k) <= bound]
    common = math.lcm(*(c.denominator for _, c in coeffs))
    weights = {k: c.numerator * (common // c.denominator) for k, c in coeffs}
    total = _power_sum(rows, weights, caps, (), bound)
    d = common * denominator
    terms = {e: Fraction(v, d) for e, v in total.items() if v}
    return MultiSeries._trusted(variables, caps, terms)


def _power_sum(
    rows: list[list[dict[tuple[int, ...], int]]],
    weights: dict[tuple[int, ...], int],
    caps: tuple[int, ...],
    prefix: tuple[int, ...],
    room: int,
) -> dict[tuple[int, ...], int]:
    """Integer sum over k extending ``prefix`` of weights[k] * prod_i rows[i][k_i],
    the product taken over the indices after ``prefix``."""
    out: dict[tuple[int, ...], int] = {}
    i = len(prefix)
    row = rows[i]
    for k in range(min(len(row) - 1, room) + 1):
        key = prefix + (k,)
        if i == len(rows) - 1:
            w = weights.get(key)
            if not w:
                continue
            for e, v in row[k].items():
                out[e] = out.get(e, 0) + w * v
            continue
        inner = _power_sum(rows, weights, caps, key, room - k)
        if inner:
            for e, v in _cauchy(row[k], inner, caps).items():
                out[e] = out.get(e, 0) + v
    return out


def pow_rational(s: MultiSeries, gamma) -> MultiSeries:
    """Generalized binomial power s^gamma = sum_k (-gamma)_k/k! (1 - s)^k.

    Requires constant term exactly 1, so that 1 - s has zero constant term.
    """
    gamma = as_rational(gamma)
    if s.constant_term() != 1:
        raise NonUnitConstantTerm("pow_rational needs constant term 1")
    return horn_compose(-gamma, [(1 - s, ())])


def exp_series(s: MultiSeries) -> MultiSeries:
    """Truncated exponential e^s = 1F1(1; 1; s) of a series with zero constant term."""
    return horn_compose(Q(1), [(s, (Q(1),))])


class PrefactorSeries:
    """A body series times a monomial with exact rational exponents.

    Integer powers of the body variables stay in the body; every exponent
    that is parameter-valued (or negative) lives in the prefactor map.
    """

    __slots__ = ("body", "prefactor")

    def __init__(self, body: MultiSeries, prefactor: Mapping[str, Fraction] | None = None):
        self.body = body
        pf: dict[str, Fraction] = {}
        if prefactor:
            for name, e in prefactor.items():
                e = as_rational(e)
                if e != 0:
                    pf[name] = e
        self.prefactor = pf

    def cap_map(self) -> dict[str, int]:
        return self.body.cap_map()

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def exponent(self, v: str) -> Fraction:
        return self.prefactor.get(v, Q(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrefactorSeries):
            return NotImplemented
        if self.body.is_zero() and other.body.is_zero():
            return True
        return self.prefactor == other.prefactor and self.body == other.body

    __hash__ = None

    def __repr__(self) -> str:
        return f"PrefactorSeries({self.render()})"

    def render(self) -> str:
        pf = "*".join(
            f"{v}^({e})" for v, e in sorted(self.prefactor.items())
        )
        return f"({self.body.render()})" + (f" * {pf}" if pf else "")

    def __add__(self, other: "PrefactorSeries") -> "PrefactorSeries":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.prefactor != other.prefactor:
            raise PrefactorMismatch(
                f"{self.prefactor} vs {other.prefactor}"
            )
        return PrefactorSeries(self.body + other.body, self.prefactor)

    def __sub__(self, other: "PrefactorSeries") -> "PrefactorSeries":
        return self + other.scale(-1)

    def scale(self, k) -> "PrefactorSeries":
        return PrefactorSeries(self.body.scale(k), self.prefactor)

    def truncate(self, caps: Mapping[str, int]) -> "PrefactorSeries":
        return PrefactorSeries(self.body.truncate(caps), self.prefactor)

    def multiply_prefactor(self, v: str, k) -> "PrefactorSeries":
        """Absorb a factor v^k into the prefactor exponent (k exact rational)."""
        pf = dict(self.prefactor)
        pf[v] = pf.get(v, Q(0)) + as_rational(k)
        return PrefactorSeries(self.body, pf)

    def multiply_monomial(self, v: str, k: int) -> "PrefactorSeries":
        """Multiply by v^k, keeping it in the body when that stays polynomial."""
        if k == 0:
            return self
        if v in self.body.variables and v not in self.prefactor and k > 0:
            return PrefactorSeries(self.body.shift(v, k), self.prefactor)
        return self.multiply_prefactor(v, k)

    def derivative(self, v: str) -> "PrefactorSeries":
        """d/dv of body * v^alpha.

        For alpha = 0 this is the plain body derivative (cap of v drops by
        one).  For alpha != 0 the identity
        d/dv (S * v^alpha) = (v dS/dv + alpha S) * v^(alpha-1)
        updates each body coefficient in place by (e_v + alpha), which loses
        no orders at all.
        """
        alpha = self.prefactor.get(v)
        if alpha is None:
            if v not in self.body.variables:
                raise UnknownVariable(v)
            return PrefactorSeries(self.body.derivative(v), self.prefactor)
        pf = dict(self.prefactor)
        if alpha == 1:
            pf.pop(v)
        else:
            pf[v] = alpha - 1
        if v in self.body.variables:
            i = self.body.variables.index(v)
            terms = {
                exps: c * (exps[i] + alpha)
                for exps, c in self.body.terms.items()
                if exps[i] + alpha != 0
            }
            body = MultiSeries._trusted(self.body.variables, self.body.caps, terms)
        else:
            body = self.body.scale(alpha)
        return PrefactorSeries(body, pf)

