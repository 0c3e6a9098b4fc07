"""Truncated multivariate formal power series over exact rationals.

A :class:`MultiSeries` stores a sparse map from exponent tuples to nonzero
``Fraction`` coefficients, together with a per-variable truncation cap.  The
caps are *trusted orders*: every stored coefficient is exactly the
coefficient of the represented function, and anything beyond a cap has been
discarded.  Ring operations (add, mul, integer/rational powers) preserve
exactness at the caps; only :meth:`MultiSeries.derivative` genuinely loses
the top order of the differentiated variable and therefore reduces its cap
by one.

Per-variable caps (rather than a total-degree cap) matter because the
verification workloads pair a deformation order in one variable with an
independent inner order in the others.

The Horn term-ratio kernel lives here: ``horn_coefficients`` builds Horn
coefficients as running products of their term ratios, and ``horn_compose``
sums them against powers of series arguments; ``pow_rational``,
``exp_series`` and the compositions in ``hypfun`` are calls to it.

The public constructor ``MultiSeries(caps, terms)`` is the entry point for
outside input: it coerces every coefficient, rejects malformed exponent
tuples and drops zero and over-cap terms.  Ring and reshape operations build
their results with the private ``MultiSeries._trusted``, which takes terms
that are clean by construction and checks nothing.  ``linear_combination``
builds a sum of scaled series in one dict instead of copying a growing sum
at every step, and the product scales each operand to integer numerators
over the lcm of its denominators, so the Cauchy sum runs on integers and
each output coefficient is one reduced ``Fraction``.

:class:`PrefactorSeries` attaches a monomial prefactor with exact rational
exponents (e.g. ``y^a z^b`` for non-integer a, b) to a body series; the
product rule across body and prefactor is implemented exactly.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps)
            if s is None:
                out[exps] = c
                continue
            s += c
            if s:
                out[exps] = s
            else:
                del out[exps]
        return MultiSeries._trusted(self.variables, self.caps, out)

    def __neg__(self) -> "MultiSeries":
        return MultiSeries._trusted(
            self.variables, self.caps, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self + (-other)

    def scale(self, k) -> "MultiSeries":
        k = as_rational(k)
        terms = {e: c * k for e, c in self.terms.items()} if k else {}
        return MultiSeries._trusted(self.variables, self.caps, terms)

    def __mul__(self, other: "MultiSeries") -> "MultiSeries":
        """Truncated Cauchy product, summed on integer numerators.

        Each operand is written as integer numerators over the lcm of its
        denominators; the pair products are accumulated as integers and each
        output coefficient is one ``Fraction(sum, da * db)``, which reduces
        to the same value the ``Fraction`` sum would give.
        """
        self._check_compatible(other)
        caps = self.caps
        # Iterate the smaller operand outermost: sparse-friendly.
        a, b = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        da = math.lcm(*(c.denominator for c in a.values()))
        db = math.lcm(*(c.denominator for c in b.values()))
        b_ints = [(e2, c2.numerator * (db // c2.denominator)) for e2, c2 in b.items()]
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in a.items():
            n1 = c1.numerator * (da // c1.denominator)
            room = tuple(map(operator.sub, caps, e1))
            for e2, n2 in b_ints:
                if all(map(operator.le, e2, room)):
                    exps = tuple(map(operator.add, e1, e2))
                    out[exps] = out.get(exps, 0) + n1 * n2
        d = da * db
        terms = {e: Fraction(v, d) for e, v in out.items() if v}
        return MultiSeries._trusted(self.variables, caps, terms)

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


def linear_combination(
    caps: Mapping[str, int], pairs: Iterable[tuple[object, MultiSeries]]
) -> MultiSeries:
    """The sum of k * s over ``(k, s)`` pairs, accumulated in one dict.

    Every series must carry exactly ``caps``.  ``pairs`` is consumed lazily,
    so a generator keeps only one summand alive at a time.
    """
    variables, degs = _normalize_caps(caps)
    out: dict[tuple[int, ...], Fraction] = {}
    for k, s in pairs:
        if s.variables != variables or s.caps != degs:
            raise CapMismatch(f"{dict(zip(variables, degs))} vs {s.cap_map()}")
        k = as_rational(k)
        if not k:
            continue
        for exps, c in s.terms.items():
            old = out.get(exps)
            out[exps] = c * k if old is None else old + c * k
    return MultiSeries._trusted(variables, degs, {e: c for e, c in out.items() if c})


# -- Horn term-ratio kernel --------------------------------------------------

def horn_coefficients(
    a: Fraction, axes: Sequence[tuple[int, tuple[Fraction, ...]]]
) -> dict[tuple[int, ...], Fraction]:
    """Nonzero coefficients (a)_{|k|} / prod_i (k_i! prod (lower_i)_{k_i}).

    ``axes`` gives each index's cap and bottom parameters, in the order the
    index tuples are keyed.  The grid is walked in lexicographic order; each
    coefficient is its predecessor times one term ratio, so no Pochhammer
    product is ever rebuilt.  Once a coefficient vanishes (a is a
    non-positive integer) every later one along that index and below it
    vanishes too, so the walk stops there.
    """
    # ratios[i][o][k]: step k -> k+1 on index i while the indices before it
    # sum to o (the indices after it are 0 at every step taken).
    ratios = []
    before = 0
    for cap, lower in axes:
        bottoms = []
        for k in range(cap):
            d = k + 1
            for low in lower:
                d *= low + k
            bottoms.append(d)
        ratios.append(
            [[(a + (o + k)) / bottoms[k] for k in range(cap)] for o in range(before + 1)]
        )
        before += cap
    out: dict[tuple[int, ...], Fraction] = {}
    _horn_walk(ratios, [cap for cap, _ in axes], 0, Fraction(1), 0, (), out)
    return out


def _horn_walk(
    ratios: list[list[list[Fraction]]],
    caps: list[int],
    i: int,
    coeff: Fraction,
    total: int,
    prefix: tuple[int, ...],
    out: dict[tuple[int, ...], Fraction],
) -> None:
    """Fill ``out`` below ``prefix``; ``coeff`` sits at (prefix, 0, ..., 0)."""
    row = ratios[i][total]
    for k in range(caps[i] + 1):
        if i == len(caps) - 1:
            out[prefix + (k,)] = coeff
        else:
            _horn_walk(ratios, caps, i + 1, coeff, total + k, prefix + (k,), out)
        if k == caps[i]:
            break
        coeff = coeff * row[k]
        if not coeff:
            break


def horn_compose(
    a: Fraction, args: Sequence[tuple[MultiSeries, tuple[Fraction, ...]]]
) -> MultiSeries:
    """The Horn series of ``a`` with series arguments.

    ``args`` pairs each argument u_i with its bottom parameters; the result
    is the sum over k of ``horn_coefficients`` times prod_i u_i^(k_i).
    Every argument needs zero constant term and the caps of the first, so
    u_i^k has total degree at least k and the sum is finite: powers stop at
    the first zero one, and at -a when (a)_k vanishes beyond it.
    """
    first = args[0][0]
    caps = first.cap_map()
    bound = sum(first.caps)
    if is_nonpositive_integer(a):
        bound = min(bound, -a.numerator)
    one = MultiSeries.constant(1, caps)
    powers = []
    for arg, _ in args:
        if arg.constant_term():
            raise NonZeroConstantTerm("composition arguments need zero constant term")
        first._check_compatible(arg)
        row = [one]
        while len(row) <= bound:
            nxt = row[-1] * arg
            if nxt.is_zero():
                break
            row.append(nxt)
        powers.append(row)
    coeffs = horn_coefficients(a, [(len(row) - 1, lower) for row, (_, lower) in zip(powers, args)])

    def terms():
        for k, coeff in coeffs.items():
            if sum(k) > bound:
                continue  # total degree past the caps: the product is zero
            factors = [row[e] for row, e in zip(powers, k) if e]
            yield coeff, functools.reduce(operator.mul, factors) if factors else one

    return linear_combination(caps, terms())


def pow_rational(s: MultiSeries, gamma) -> MultiSeries:
    """Generalized binomial power s^gamma = sum_k (-gamma)_k/k! (1 - s)^k.

    Requires constant term exactly 1, so that 1 - s has zero constant term.
    """
    gamma = as_rational(gamma)
    if s.constant_term() != 1:
        raise NonUnitConstantTerm("pow_rational needs constant term 1")
    return horn_compose(-gamma, [(MultiSeries.constant(1, s.cap_map()) - s, ())])


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

