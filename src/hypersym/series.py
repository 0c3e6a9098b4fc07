"""Truncated multivariate formal power series over exact rationals.

A :class:`MultiSeries` has a per-variable truncation cap.  The caps are
*trusted orders*: every stored coefficient is exactly the coefficient of
the represented function, and anything beyond a cap has been discarded.
Ring operations (add, mul, integer/rational powers) preserve exactness at
the caps; only :meth:`MultiSeries.derivative` genuinely loses the top order
of the differentiated variable and therefore reduces its cap by one, which
a variable cut at order 0 cannot give up.  A rational number on either side
of ``+ - * /`` is a constant series (a float raises TypeError), ``s / t`` is
``s * pow_rational(t, -1)`` (so t needs constant term 1) and ``s ** g`` is
``s.pow_int(g)`` for an int g >= 0, else ``pow_rational(s, g)``, so a
closed form such as ``(1 - chi) ** -a * F(x / (1 - chi))`` reads the same
on series as on floats.

Per-variable caps (rather than a total-degree cap) matter because the
verification workloads pair a deformation order in one variable with an
independent inner order in the others.

Storage.  A series stores one positive integer denominator ``den`` and a
dict ``nums`` of nonzero integer numerators, the coefficient at exponents e
being ``nums[key] / den``.  Each exponent tuple is packed into one int
(``_Layout``: a bit field per variable, topped by a guard bit).  The pair
is reduced by its content, gcd(den, *nums) == 1, which is the form the
public constructor gives reduced ``Fraction``s over the lcm of their
denominators; so equal series have equal stored forms.  Each operation
that can change the content divides it out once (``_reduce``), in place.
``+`` and ``-`` put both sides on the lcm of the two denominators, ``*`` is
the Cauchy sum of the numerators over the product of the denominators
(``_cauchy``, the one product loop, which ``horn_compose`` uses too: per
term pair one int add, one test of the guard bits, which is nonzero exactly
when an exponent of the sum passes its cap, one int product and one dict
update), and ``operator_image`` sums the terms c v^k d/dw of a
first-order operator applied to a series in one pass per term over its
numerators, moving each kept key within its bit fields, and repacks the
keys only where a field of its cut narrows.  It is the one linear map on
packed keys: ``scale``, negation, ``shift``, ``derivative`` and
``truncate`` are one-term calls of it (``truncate`` passes its caps as the
cut, and returns the series itself at its own caps and k = 1), so
``_term_part`` is the only code that drops a key under a cut.
``MultiSeries.terms`` is a ``Fraction`` view keyed by exponent tuples,
built on each read; ``render``, ``coefficient`` and the report witnesses of
``first_mismatch`` read reduced ``Fraction``s.  ``extend`` and ``evaluate``,
which no command calls, read it too, and build their results with the
public constructor or as a plain ``Fraction`` sum, so they share no
packed-key arithmetic with the kernels the tests check against them.

The public constructor ``MultiSeries(caps, terms)`` and
``MultiSeries.monomial`` are the entry points for outside input: they
coerce every coefficient, take caps and exponents through
``operator.index``, reject negative caps, negative exponents and malformed
tuples and drop zero and over-cap terms.  Ring and reshape operations
other than ``extend`` build their results with the private
``MultiSeries._trusted``, which takes a reduced stored form and checks
nothing.

The Horn term-ratio kernel lives here.  In a Horn series a step k -> k+1 on
one index multiplies a coefficient by a top factor over a bottom factor,
and the bottom depends only on the index and k.  So the product D of every
bottom up to the grid's far corner is a common denominator, and the
numerator at k is the start's numerator times the tops along the path times,
per index, the product of its bottoms from k_i to the cap.  One step table
per index (``_horn_steps``) holds the tops and those suffix products.
``_horn_walk`` writes the numerators on packed keys with one int product per
step and per term and no gcd; the grid is reduced once.  ``horn_series``
sums such grids, each under fixed leading exponents, into one series, and
its ``terms`` are their ``Fraction`` view.  ``horn_value`` reads the same
table to sum a cut series at a rational point without building it, each
index once per offset by Horner's rule.  ``horn_compose`` sums the
walk's coefficients against the packed integer powers of series arguments
in one integer dict over one common denominator, reduced once.
``pow_rational``, ``exp_series`` and the compositions in ``hypfun`` are
calls to it.

Shared work.  Much exact work of a verification suite depends only on
inputs that recur: an argument's power ladder U^0, U^1, ...
(``_power_ladder``) depends only on the caps, the highest power needed and
the argument's integer numerators, not on its denominator, the top
parameter or the bottoms, and the same arguments (x/(1-chi), x(1+chi), ...)
recur across the records, variants and parameter points of a suite; so do
the Horn weights of a composition, the realized family members of the
operator actions, the weights of a chi-sum and the float sums of its
members.  Inside ``_shared_work()``, which each suite opens once, every
such piece of work is built once and handed out again by the one accessor
``_kept(key, build, *args)``, whose key leads with a tag naming the kind
of work (``"ladder"``, ``"horn weights"``, ``"f11 sum"``, ``"member sum"``,
``"realized"``, ``"chi weights"``).  The
memo is dropped when the block ends, also when it raises, and outside it
nothing is kept.  Kept work is shared, so no caller changes it:
``horn_compose`` scales a copy of a ladder by the denominator.

This module knows nothing of prefactors with rational exponents: the
realized basis elements that carry them, and the rule for operators acting
on them, live in ``liealg``.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .exactnum import Q, as_rational, is_nonpositive_integer

T = TypeVar("T")


# The work kept by the open ``_shared_work`` block, or None outside one.
# Every key leads with a tag naming its kind of work, so keys of different
# kinds never meet; ``_kept`` is the one way in.
_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("hypersym_memo", default=None)


@contextlib.contextmanager
def _shared_work() -> Iterator[None]:
    """Keep work that depends only on its inputs for the duration of the block.

    Each block starts an empty memo and restores the previous state on exit,
    whether the block returns or raises.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _kept(key: tuple, build: Callable[..., T], *args) -> T:
    """``build(*args)``, kept under ``key`` by the open ``_shared_work`` block.

    ``key`` leads with the tag of its kind of work and holds every input
    the build reads.  Inside a block the first call builds and keeps, and
    every later call with an equal key is handed the same object; a build
    that raises keeps nothing.  Outside a block each call builds afresh.
    """
    memo = _MEMO.get()
    if memo is None:
        return build(*args)
    found = memo.get(key)
    if found is None:
        found = memo[key] = build(*args)
    return found


class CapMismatch(ValueError):
    """Operands carry different variable sets or truncation caps."""


class UnknownVariable(KeyError):
    """A variable name is not part of the series."""


class NonUnitConstantTerm(ValueError):
    """Operation requires a series with constant term exactly 1."""


class NonZeroConstantTerm(ValueError):
    """Operation requires a series with constant term exactly 0."""


def _normalize_caps(caps: Mapping[str, int]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Sorted names and their caps; a cap that is not an integer raises
    TypeError, a negative one ValueError."""
    names = tuple(sorted(caps))
    degs = tuple(operator.index(caps[n]) for n in names)
    for n, d in zip(names, degs):
        if d < 0:
            raise ValueError(f"negative cap for variable {n!r}")
    return names, degs


class _Layout(dict):
    """Packed exponent keys for one caps tuple; maps a packed key to its exponents.

    Coordinate i gets a bit field of width ``(2*cap_i).bit_length() + 1``
    starting at bit ``shifts[i]``; the sum of two exponents within the cap
    fits below the field's top bit, which is a guard bit.  ``offset`` holds
    ``2**b - 1 - cap_i`` in each field, b the bits below the guard, so the
    guard bit of e + offset is set exactly when e passes the cap, and no
    carry reaches the next field; ``guard`` holds the guard bits.  A packed
    key is unpacked on its first lookup and its tuple is kept, so the series
    over these caps share it.
    """

    __slots__ = ("fields", "shifts", "guard", "offset")

    def __init__(self, caps: tuple[int, ...]):
        super().__init__()
        fields = []
        guard = offset = shift = 0
        for cap in caps:
            bits = (2 * cap).bit_length()
            fields.append((shift, (1 << bits) - 1))
            guard |= 1 << (shift + bits)
            offset |= ((1 << bits) - 1 - cap) << shift
            shift += bits + 1
        self.fields = tuple(fields)
        self.shifts = tuple(shift for shift, _ in fields)
        self.guard = guard
        self.offset = offset

    def __missing__(self, key: int) -> tuple[int, ...]:
        exps = self[key] = tuple([key >> shift & mask for shift, mask in self.fields])
        return exps

    def key(self, exps: Sequence[int]) -> int:
        """The packed key of an exponent tuple within the caps."""
        return sum(map(operator.lshift, exps, self.shifts))

    def pack(self, terms: Mapping[tuple[int, ...], Fraction]) -> tuple[int, dict[int, int]]:
        """The lcm d of the coefficients' denominators, and each coefficient
        times d keyed by its packed exponents.  For reduced ``Fraction``s
        this is the reduced form: gcd(d, *numerators) == 1."""
        d = math.lcm(*(c.denominator for c in terms.values()))
        key = self.key
        return d, {key(e): c.numerator * (d // c.denominator) for e, c in terms.items()}


@functools.lru_cache(maxsize=None)
def _layout(caps: tuple[int, ...]) -> _Layout:
    return _Layout(caps)


def _reduce(den: int, nums: dict[int, int]) -> tuple[int, dict[int, int]]:
    """``den`` and ``nums`` divided by their content gcd(den, *nums); ``nums``
    is divided in place.  An empty ``nums`` gets the denominator 1."""
    g = math.gcd(den, *nums.values())
    if g != 1:
        for k, v in nums.items():
            nums[k] = v // g
        den //= g
    return den, nums


def _exponents(exps, n: int) -> tuple[int, ...]:
    """``exps`` as a tuple of n nonnegative ints; an entry that is not an
    integer raises TypeError, a negative one ValueError."""
    exps = tuple(map(operator.index, exps))
    if len(exps) != n:
        raise ValueError("exponent tuple length mismatch")
    if any(e < 0 for e in exps):
        raise ValueError("negative exponent in series term")
    return exps


def _cauchy(
    a: Mapping[int, int], b: Mapping[int, int], guard: int, offset: int
) -> dict[int, int]:
    """Truncated Cauchy product of two integer term maps on packed keys.

    Keys are packed exponents of one ``_Layout`` and lie within its caps;
    ``guard`` and ``offset`` are the layout's.  The outer operand's keys are
    biased by ``offset``, so a pair costs one add, and the biased sum has a
    guard bit set exactly when some exponent passes its cap; such pairs are
    skipped.  The kept sums are keyed biased, and the offset comes off once
    per output key.  Zero sums are dropped.  The smaller operand is iterated
    outermost.
    """
    if len(a) > len(b):
        a, b = b, a
    b_items = list(b.items())
    out: dict[int, int] = {}
    get = out.get
    for k1, n1 in a.items():
        k1 += offset
        for k2, n2 in b_items:
            k = k1 + k2
            if k & guard:
                continue
            out[k] = get(k, 0) + n1 * n2
    return {k - offset: v for k, v in out.items() if v}


class MultiSeries:
    """Sparse truncated power series; immutable by convention.

    The coefficient at exponents e is ``Fraction(nums[key], den)``, key the
    packed e in the ``_Layout`` of ``caps``; ``den`` is positive, no
    numerator is zero, and gcd(den, *nums) == 1.
    """

    __slots__ = ("variables", "caps", "den", "nums")

    def __init__(self, caps: Mapping[str, int], terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.variables, self.caps = _normalize_caps(caps)
        cleaned: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = _exponents(exps, len(self.variables))
                if any(map(operator.gt, exps, self.caps)):
                    continue
                c = as_rational(coeff)
                if c != 0:
                    cleaned[exps] = c
        self.den, self.nums = _layout(self.caps).pack(cleaned)

    @classmethod
    def _trusted(
        cls,
        variables: tuple[str, ...],
        caps: tuple[int, ...],
        den: int,
        nums: dict[int, int],
    ) -> "MultiSeries":
        """Series from sorted variables, their caps and a reduced stored form.

        Nothing is checked or copied: every key must be packed in the
        ``_Layout`` of the caps, every numerator nonzero, ``den`` positive
        and gcd(den, *nums) == 1 (``_reduce`` makes it so).
        """
        s = object.__new__(cls)
        s.variables = variables
        s.caps = caps
        s.den = den
        s.nums = nums
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, caps: Mapping[str, int]) -> "MultiSeries":
        value = as_rational(value)
        s = cls(caps)
        if value != 0:
            s.den, s.nums = value.denominator, {0: value.numerator}
        return s

    @classmethod
    def monomial(cls, coeff, exponents: Mapping[str, int], caps: Mapping[str, int]) -> "MultiSeries":
        s = cls(caps)
        exps = s._exponent_tuple(exponents)
        coeff = as_rational(coeff)
        if coeff != 0 and all(map(operator.le, exps, s.caps)):
            s.den, s.nums = coeff.denominator, {_layout(s.caps).key(exps): coeff.numerator}
        return s

    @classmethod
    def variable(cls, name: str, caps: Mapping[str, int]) -> "MultiSeries":
        return cls.monomial(1, {name: 1}, caps)

    # -- basic queries -----------------------------------------------------

    def cap_map(self) -> dict[str, int]:
        return dict(zip(self.variables, self.caps))

    def _exponent_tuple(self, exponents: Mapping[str, int]) -> tuple[int, ...]:
        """The exponent tuple of a name -> exponent map, absent names at 0."""
        exps = [0] * len(self.variables)
        for name, e in exponents.items():
            if name not in self.variables:
                raise UnknownVariable(name)
            exps[self.variables.index(name)] = e
        return _exponents(exps, len(exps))

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as reduced ``Fraction``s keyed by exponent tuples,
        built on each read."""
        layout, den = _layout(self.caps), self.den
        return {layout[k]: Fraction(v, den) for k, v in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, exponents: Mapping[str, int]) -> Fraction:
        exps = self._exponent_tuple(exponents)
        if not all(map(operator.le, exps, self.caps)):
            return Q(0)
        return Fraction(self.nums.get(_layout(self.caps).key(exps), 0), self.den)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lex order (total degree, then exponent tuple)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.caps == other.caps
            and self.den == other.den
            and self.nums == other.nums
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

    def _with(self, den: int, nums: dict[int, int]) -> "MultiSeries":
        """A series at these variables and caps, ``nums`` reduced in place."""
        return MultiSeries._trusted(self.variables, self.caps, *_reduce(den, nums))

    def _combine(self, other: "MultiSeries", subtract: bool) -> "MultiSeries":
        """self + other, or self - other: both sides on the lcm of the two
        denominators, one pass over other's numerators."""
        self._check_compatible(other)
        d = math.lcm(self.den, other.den)
        m = d // self.den
        out = {k: v * m for k, v in self.nums.items()} if m != 1 else dict(self.nums)
        m = d // other.den
        if subtract:
            m = -m
        get = out.get
        for k, v in other.nums.items():
            s = get(k, 0) + v * m
            if s:
                out[k] = s
            else:
                del out[k]
        return self._with(d, out)

    def _series(self, other) -> "MultiSeries":
        """``other`` if a series, else the constant series of a number."""
        return other if isinstance(other, MultiSeries) else MultiSeries.constant(other, self.cap_map())

    def __add__(self, other) -> "MultiSeries":
        return self._combine(self._series(other), False)

    def __neg__(self) -> "MultiSeries":
        """-1 times the series: one ``operator_image`` term."""
        return operator_image(self, [(-1, None, ())])[0]

    def __sub__(self, other) -> "MultiSeries":
        return self._combine(self._series(other), True)

    def __radd__(self, k) -> "MultiSeries":
        return self._series(k) + self

    def __rsub__(self, k) -> "MultiSeries":
        return self._series(k) - self

    def scale(self, k) -> "MultiSeries":
        """k times the series; at k = 1 the series itself (series are values),
        else one ``operator_image`` term."""
        k = as_rational(k)
        if k == 1:
            return self
        return operator_image(self, [(k, None, ())])[0]

    def __mul__(self, other) -> "MultiSeries":
        """Truncated Cauchy product of the numerators over the product of the
        denominators; a number ``scale``s.

        ``_cauchy`` accumulates the pair products as integers on packed keys,
        skipping a pair whose packed sum sets a guard bit, that is, has an
        exponent past its cap; the result is reduced by its content once.
        """
        if not isinstance(other, MultiSeries):
            return self.scale(other)
        self._check_compatible(other)
        layout = _layout(self.caps)
        product = _cauchy(self.nums, other.nums, layout.guard, layout.offset)
        return self._with(self.den * other.den, product)

    def __rmul__(self, k) -> "MultiSeries":
        return self.scale(k)

    def __truediv__(self, other) -> "MultiSeries":
        """self / other for a divisor with constant term 1, or by a number."""
        if not isinstance(other, MultiSeries):
            return self.scale(1 / as_rational(other))
        return self * pow_rational(other, -1)

    def __rtruediv__(self, k) -> "MultiSeries":
        return pow_rational(self, -1).scale(k)

    def __pow__(self, gamma) -> "MultiSeries":
        if isinstance(gamma, int) and gamma >= 0:
            return self.pow_int(gamma)
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
        """Multiply by the monomial v^k (k >= 0); overflowing terms drop.

        One ``operator_image`` term: a kept key moves by k within v's bit
        field."""
        return operator_image(self, [(1, None, ((v, k),))])[0]

    def derivative(self, v: str) -> "MultiSeries":
        """Formal partial derivative; the cap of v drops by one because the
        top-order coefficient of the result would need information beyond
        the stored truncation.  Raises ValueError when v is cut at order 0:
        no coefficient of the derivative is known there.  One
        ``operator_image`` term."""
        return operator_image(self, [(1, v, ())])[0]

    # -- shape changes -----------------------------------------------------

    def truncate(self, caps: Mapping[str, int], k=1) -> "MultiSeries":
        """k times the series restricted to caps at or below its own; variable
        set must agree.

        A cap above the series' own raises ``CapMismatch`` (a ``ValueError``):
        the coefficients between the two caps are unknown, not zero.  At the
        series' own caps and k = 1 the result is ``self`` (series are values:
        no method changes one); otherwise it is one ``operator_image`` term
        cut at ``caps``.
        """
        names, degs = _normalize_caps(caps)
        if names != self.variables:
            raise CapMismatch("truncate cannot change the variable set")
        for name, cap, own in zip(names, degs, self.caps):
            if cap > own:
                raise CapMismatch(f"truncate cannot raise the cap of {name!r} from {own} to {cap}")
        k = as_rational(k)
        if k == 1 and degs == self.caps:
            return self
        return operator_image(self, [(k, None, ())], degs)[0]

    def extend(self, extra_caps: Mapping[str, int]) -> "MultiSeries":
        """Embed into a larger variable set; new variables get degree 0.

        Built from the ``terms`` view by the public constructor: no command
        path calls it, and it shares no packed-key arithmetic with the
        kernels it is used to check."""
        caps = {**extra_caps, **self.cap_map()}
        for name, c in zip(self.variables, self.caps):
            if extra_caps.get(name, c) != c:
                raise CapMismatch(f"conflicting cap for {name!r}")
        names = sorted(caps)
        terms = {}
        for exps, c in self.terms.items():
            at = dict(zip(self.variables, exps))
            terms[tuple(at.get(v, 0) for v in names)] = c
        return MultiSeries(caps, terms)

    # -- evaluation / rendering --------------------------------------------

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact evaluation of the truncated polynomial at rational point:
        the sum over the ``terms`` view of c * prod v^e.

        No command path calls it: ``eval`` sums a family without building
        its series (``horn_value``), and the tests keep this plain sum as
        that kernel's reference value.
        """
        vals = [as_rational(point[v]) for v in self.variables]
        return sum((c * math.prod(map(pow, vals, exps)) for exps, c in self.terms.items()), Q(0))

    def render(self) -> str:
        """Canonical text form: graded-lex term order, exact rationals."""
        if not self.nums:
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


def operator_image(
    s: MultiSeries,
    terms: Sequence[tuple[Fraction | int, str | None, Sequence[tuple[str, int]]]],
    cut: tuple[int, ...] | None = None,
) -> tuple[MultiSeries, list[bool]]:
    """The sum over ``terms`` of c * prod v^k * d/dw s, cut at ``cut``, and
    for each term whether its image at its own caps is nonzero.

    A term ``(c, w, ((v, k), ...))`` is a rational coefficient, the variable
    w to differentiate in or None, and monomial shifts k >= 0.  Its image
    has the caps of s, but one less for w.  ``cut`` defaults to the least
    caps of all terms, vanishing ones included, since past a term's caps its
    coefficients are unknown; a caller that passes one (``truncate``) keeps
    it at or below those.  The terms are checked in order, w before its
    shifts: a name that is not a variable raises ``UnknownVariable``, w cut
    at order 0 and a negative shift ``ValueError``.

    This is the one linear map on packed keys: ``scale``, negation,
    ``shift``, ``derivative`` and ``truncate`` are one-term calls of it.
    Each term is one pass over the numerators of s on its packed keys: with
    l_i = k_i, less 1 for w, the term keeps a key whose exponent e_i is at
    most cut_i - l_i for every i, one guard-bit test, and moves it by
    sum l_i << shift_i, multiplying its numerator by e_w and the term's
    share of one common denominator, den(s) times the lcm of the
    coefficients' denominators.  The sum is reduced once, and its keys are
    repacked only where a bit field of the cut is narrower than in s.
    """
    layout = _layout(s.caps)
    fields, guard = layout.fields, layout.guard
    least = s.caps
    scale = 1
    plans = []
    for coeff, w, shifts in terms:
        own = list(s.caps)
        lift = [0] * len(own)
        d = None
        if w is not None:
            d = _index(s, w)
            if not own[d]:
                raise ValueError(f"derivative in {w!r} of a series cut at order 0")
            own[d] -= 1
            lift[d] = -1
        for v, k in shifts:
            i = _index(s, v)
            if k < 0:
                raise ValueError("negative monomial shift on a body series")
            lift[i] += k
        least = tuple(map(min, least, own))
        scale = math.lcm(scale, coeff.denominator)
        plans.append((coeff, d, lift, own))
    if cut is None:
        cut = least
    out: dict[int, int] = {}
    merged = False
    live = []
    for coeff, d, lift, own in plans:
        part = {}
        if coeff:
            part = _term_part(s.nums, fields, guard, d, lift, cut,
                              coeff.numerator * (scale // coeff.denominator))
        if part and out:
            get = out.get
            for k, v in part.items():
                out[k] = get(k, 0) + v
            merged = True
        elif part:
            out = part
        # a term cut away whole at the least caps may be nonzero at its own
        live.append(bool(part or coeff and _term_part(s.nums, fields, guard, d, lift, own, 1)))
    if merged:
        out = {k: v for k, v in out.items() if v}
    den, out = _reduce(s.den * scale, out)
    new = _layout(cut)
    if new.fields != fields:
        out = {new.key(layout[k]): v for k, v in out.items()}
    return MultiSeries._trusted(s.variables, cut, den, out), live


def _index(s: MultiSeries, v: str) -> int:
    """The position of variable v in s; ``UnknownVariable`` if it has none."""
    if v not in s.variables:
        raise UnknownVariable(v)
    return s.variables.index(v)


def _term_part(
    nums: Mapping[int, int],
    fields: tuple[tuple[int, int], ...],
    guard: int,
    d: int | None,
    lift: Sequence[int],
    cut: Sequence[int],
    m: int,
) -> dict[int, int]:
    """One term of ``operator_image`` on the packed keys of ``nums``: every
    key whose exponents e satisfy e + lift <= cut (and e_d >= 1), moved by
    ``lift`` and with its numerator times m (and e_d)."""
    offset = move = 0
    for (shift, mask), top, l in zip(fields, cut, lift):
        bound = top - l
        if bound < 0:
            return {}
        offset |= (mask - bound) << shift
        move += l << shift
    if d is None:
        return {key + move: n * m for key, n in nums.items() if not (key + offset) & guard}
    shift, mask = fields[d]
    return {key + move: n * e * m for key, n in nums.items()
            if (e := key >> shift & mask) and not (key + offset) & guard}


# -- Horn term-ratio kernel --------------------------------------------------

def _horn_steps(
    a: Fraction, axes: Sequence[tuple[int, tuple[Fraction, ...]]]
) -> list[tuple[list[int], list[int]]]:
    """Each index's integer step table ``(tops, suffix)``; ``axes`` gives
    each index's cap and bottom parameters.

    With a = p/q and each bottom r/s, the step k -> k+1 on index i, when the
    indices sum to t (this one at k), multiplies a coefficient by the top
    tops[t] = (p + q t) prod s over the bottom b_i(k) = q (k+1) prod (r + s k).
    The bottom depends on i and k alone; suffix[k] is
    S_i(k) = prod_{k <= j < reach} b_i(j), the index reaching its cap or its
    first zero bottom, reach = len(suffix) - 1.  A coefficient stops there
    only if a zero top ends it first; when the tops of the first reach + 1
    steps are all nonzero, the coefficient at (reach, 0, ...) steps past the
    zero bottom, and that raises ZeroDivisionError.
    """
    p, q = a.numerator, a.denominator
    steps = []
    before = 0
    for cap, lower in axes:
        scale = 1
        for low in lower:
            scale *= low.denominator
        tops = [(p + q * t) * scale for t in range(before + cap)]
        bottoms = []
        for k in range(cap):
            d = q * (k + 1)
            for low in lower:
                d *= low.numerator + low.denominator * k
            if not d:
                if all(tops[:k + 1]):
                    raise ZeroDivisionError(f"Horn step past a zero bottom factor at index {k}")
                break
            bottoms.append(d)
        suffix = [1] * (len(bottoms) + 1)
        for k in range(len(bottoms) - 1, -1, -1):
            suffix[k] = suffix[k + 1] * bottoms[k]
        steps.append((tops, suffix))
        before += cap
    return steps


def _horn_numerators(
    a: Fraction,
    axes: Sequence[tuple[int, tuple[Fraction, ...]]],
    start: Fraction,
    shifts: Sequence[int],
    lead: int = 0,
) -> tuple[int, dict[int, int]]:
    """The nonzero coefficients start * (a)_{|k|} / prod_i (k_i! prod
    (lower_i)_{k_i}) as reduced integer numerators over one denominator,
    keyed ``lead + sum_i k_i << shifts[i]``; ``axes`` gives each index's cap
    and bottom parameters.

    The bottoms of the step table (``_horn_steps``) depend on the index and
    k alone, so D = den(start) prod_i S_i(0) is a common denominator, and
    the numerator at k is num(start) times the tops along the path times
    prod_i S_i(k_i).  The walk multiplies one integer per step and one per
    output term; the result is reduced once.  Once a coefficient vanishes
    (a is a non-positive integer) every later one along that index and
    below it vanishes too, so the walk stops there.
    """
    if not start:
        return 1, {}
    steps = []
    den = start.denominator
    for (tops, suffix), shift in zip(_horn_steps(a, axes), shifts):
        den *= suffix[0]
        steps.append((1 << shift, tops, suffix))
    num = start.numerator
    if den < 0:
        den, num = -den, -num
    nums: dict[int, int] = {}
    _horn_walk(steps, 0, num, 0, lead, nums)
    return _reduce(den, nums)


def _horn_walk(
    steps: list[tuple[int, list[int], list[int]]],
    i: int,
    num: int,
    total: int,
    key: int,
    out: dict[int, int],
) -> None:
    """Fill ``out`` from index i on; ``num`` is the numerator at key (the
    indices from i on at 0) without the suffix products of i and later."""
    unit, tops, suffix = steps[i]
    reach = len(suffix) - 1
    last = i == len(steps) - 1
    for k in range(reach + 1):
        if last:
            out[key] = num * suffix[k]
        else:
            _horn_walk(steps, i + 1, num * suffix[k], total + k, key, out)
        if k == reach:
            break
        top = tops[total + k]
        if not top:
            break
        num *= top
        key += unit


def horn_value(
    a: Fraction, axes: Sequence[tuple[int, tuple[Fraction, ...]]], point: Sequence
) -> Fraction:
    """The Horn series of ``a`` cut at the caps of ``axes`` (each index's cap
    and bottom parameters), evaluated exactly at ``point`` (one rational per
    index) without building the series.

    The sum over an index depends on the indices before it only through
    their total o, so it is summed once per offset, innermost index first.
    With u = P/Q its coordinate and v(o) the numerator of the sum inside it
    (1 for the innermost), Horner's rule on the step table,
    h <- S(k) Q^(cap-k) v(o+k) + top(o+k) P h for k from cap - 1 down to 0,
    gives the numerator at o over S(0) Q^cap times the inner denominator,
    the same for every offset.  That is sum_i (sum_{j<i} cap_j + 1) cap_i
    steps, 1,260 for three indices cut at 20, where the series has 9,261
    terms to walk and evaluate; one ``Fraction`` is made, at the end.
    """
    before = sum(cap for cap, _ in axes)
    numerators = [1] * (before + 1)
    denominator = 1
    for (cap, _), (tops, suffix), u in reversed(list(zip(axes, _horn_steps(a, axes), point))):
        before -= cap
        u = as_rational(u)
        reach = len(suffix) - 1
        weights = [s * u.denominator ** (reach - k) for k, s in enumerate(suffix)]
        ups = [top * u.numerator for top in tops]
        level = []
        for o in range(before + 1):
            h = numerators[o + reach]
            for k in range(reach - 1, -1, -1):
                h = weights[k] * numerators[o + k] + ups[o + k] * h
            level.append(h)
        numerators = level
        denominator *= weights[0]
    return Fraction(numerators[0], denominator)


def horn_series(
    variables: tuple[str, ...],
    caps: tuple[int, ...],
    grids: Iterable[tuple[Fraction, Sequence[tuple[Fraction, ...]], Fraction, tuple[int, ...]]],
) -> MultiSeries:
    """A sum of Horn grids as one series over sorted ``variables`` cut at ``caps``.

    Each grid ``(a, lowers, start, lead)`` fixes the leading exponents to
    ``lead`` and walks the remaining variables, whose bottom parameters
    ``lowers`` lists in order: its term at exponents lead + k is
    start * (a)_{|k|} / prod_i (k_i! prod (lower_i)_{k_i}), k within the caps.  Distinct grids need distinct
    leads.  Each grid is reduced over its own denominator, and the grids are
    put on the lcm of those, which keeps the sum reduced.
    """
    shifts = _layout(caps).shifts
    planes = []
    for a, lowers, start, lead in grids:
        n = len(lead)
        axes = list(zip(caps[n:], lowers))
        planes.append(_horn_numerators(a, axes, start, shifts[n:],
                                       sum(map(operator.lshift, lead, shifts))))
    den = math.lcm(*(d for d, _ in planes))
    if len(planes) == 1:
        return MultiSeries._trusted(variables, caps, den, planes[0][1])
    nums: dict[int, int] = {}
    for d, plane in planes:
        m = den // d
        for k, v in plane.items():
            nums[k] = v * m
    return MultiSeries._trusted(variables, caps, den, nums)


def horn_compose(
    a: Fraction, args: Sequence[tuple[MultiSeries, tuple[Fraction, ...]]]
) -> MultiSeries:
    """The Horn series of ``a`` with series arguments.

    ``args`` pairs each argument u_i with its bottom parameters; the result
    is the sum over k of (a)_{|k|} / prod_i (k_i! prod (lower_i)_{k_i})
    times prod_i u_i^(k_i).
    Every argument needs zero constant term and the caps of the first, so
    u_i^k has total degree at least k and the sum is finite: powers stop at
    the first zero one, and at -a when (a)_k vanishes beyond it.

    The sum runs on integers and packed keys (the ``_Layout`` of the caps,
    whose guard bits drop the pairs of every product that pass a cap).  Each
    argument is its integer numerators U_i over its denominator D_i, and its
    powers are the integer series U_i^k, kept packed (``_power_ladder``,
    shared inside ``_shared_work``).  With B_i the highest
    power kept and C the denominator of the coefficients' integer walk, the
    sum times C prod D_i^(B_i) is sum_k C c_k prod U_i^(k_i) D_i^(B_i - k_i),
    accumulated in one packed integer dict (the innermost index as a
    weighted sum of powers, each outer one as one product per power) and
    reduced once.  The walk depends only on ``a`` and, per argument, B_i and
    the bottoms (the packing follows from the B_i), so inside
    ``_shared_work`` it is kept under those.
    """
    first = args[0][0]
    variables, caps = first.variables, first.caps
    layout = _layout(caps)
    guard, offset = layout.guard, layout.offset
    bound = sum(caps)
    if is_nonpositive_integer(a):
        bound = min(bound, -a.numerator)
    rows = []
    denominator = 1
    for arg, _ in args:
        if 0 in arg.nums:
            raise NonZeroConstantTerm("composition arguments need zero constant term")
        first._check_compatible(arg)
        d = arg.den
        row = _power_ladder(arg.nums, caps, bound)
        top = len(row) - 1
        if d != 1:
            row = [{e: v * d ** (top - k) for e, v in power.items()}
                   for k, power in enumerate(row)]
        denominator *= d ** top
        rows.append(row)
    axes = tuple((len(row) - 1, tuple(lower)) for row, (_, lower) in zip(rows, args))
    # weights keyed by packed index tuples; past the bound the product of
    # powers is zero, so those are never read
    shifts = _layout(tuple(cap for cap, _ in axes)).shifts
    common, weights = _kept(("horn weights", a, axes),
                            _horn_numerators, a, axes, Fraction(1), shifts)
    total = _power_sum(rows, weights, shifts, guard, offset, 0, 0, bound)
    for e in [e for e, v in total.items() if not v]:
        del total[e]
    return MultiSeries._trusted(variables, caps, *_reduce(common * denominator, total))


def _power_ladder(
    u: dict[int, int], caps: tuple[int, ...], bound: int
) -> tuple[dict[int, int], ...]:
    """The integer powers U^0, U^1, ... of the term map ``u``, packed in the
    ``_Layout`` of ``caps``, up to U^bound or up to the first zero power,
    which is left out.

    The ladder depends on nothing else, so inside ``_shared_work`` it is
    kept under (caps, bound, the items of ``u``) and the same tuple is
    handed to every later call with those; no caller changes it.
    """
    return _kept(("ladder", caps, bound, frozenset(u.items())), _build_ladder, u, caps, bound)


def _build_ladder(
    u: dict[int, int], caps: tuple[int, ...], bound: int
) -> tuple[dict[int, int], ...]:
    """``_power_ladder`` built afresh."""
    layout = _layout(caps)
    guard, offset = layout.guard, layout.offset
    row = [{0: 1}]
    while len(row) <= bound:
        nxt = _cauchy(row[-1], u, guard, offset)
        if not nxt:
            break
        row.append(nxt)
    return tuple(row)


def _power_sum(
    rows: list[list[dict[int, int]]],
    weights: dict[int, int],
    shifts: Sequence[int],
    guard: int,
    offset: int,
    i: int,
    index: int,
    room: int,
) -> dict[int, int]:
    """Integer sum over k with k_j fixed for j < i (packed in ``index`` by
    ``shifts``) of weights[k] * prod_{j >= i} rows[j][k_j], on packed keys."""
    out: dict[int, int] = {}
    row = rows[i]
    shift = shifts[i]
    for k in range(min(len(row) - 1, room) + 1):
        key = index + (k << shift)
        if i == len(rows) - 1:
            w = weights.get(key)
            if not w:
                continue
            for e, v in row[k].items():
                out[e] = out.get(e, 0) + w * v
            continue
        inner = _power_sum(rows, weights, shifts, guard, offset, i + 1, key, room - k)
        if inner:
            for e, v in _cauchy(row[k], inner, guard, offset).items():
                out[e] = out.get(e, 0) + v
    return out


class Mismatch(NamedTuple):
    """The witness of ``first_mismatch``."""

    monomial: str
    lhs: Fraction
    rhs: Fraction
    degree: int


def first_mismatch(lhs: MultiSeries, rhs: MultiSeries) -> Mismatch | None:
    """The graded-lex least monomial where two series differ, or None.

    Returns the monomial as text (``chi^1*x^0``, or ``1`` without
    variables), the two coefficients there and its total degree.  Equal
    series have equal stored forms, so those are compared first; otherwise
    the numerators are compared crosswise over the two denominators, and no
    difference series is formed.  Raises CapMismatch when their variables
    or caps differ.
    """
    lhs._check_compatible(rhs)
    a, b, da, db = lhs.nums, rhs.nums, lhs.den, rhs.den
    if da == db and a == b:
        return None
    layout = _layout(lhs.caps)
    key = min((k for k in a.keys() | b.keys() if a.get(k, 0) * db != b.get(k, 0) * da),
              key=lambda k: (sum(layout[k]), layout[k]))
    exps = layout[key]
    mono = "*".join(f"{v}^{e}" for v, e in zip(lhs.variables, exps)) or "1"
    return Mismatch(mono, Fraction(a.get(key, 0), da), Fraction(b.get(key, 0), db), sum(exps))


def pow_rational(s: MultiSeries, gamma) -> MultiSeries:
    """Generalized binomial power s^gamma = sum_k (-gamma)_k/k! (1 - s)^k.

    Requires constant term ``s.coefficient({})`` exactly 1, so that 1 - s
    has zero constant term.
    """
    gamma = as_rational(gamma)
    if s.coefficient({}) != 1:
        raise NonUnitConstantTerm("pow_rational needs constant term 1")
    return horn_compose(-gamma, [(1 - s, ())])


def exp_series(s: MultiSeries) -> MultiSeries:
    """Truncated exponential e^s = 1F1(1; 1; s) of a series with zero constant term."""
    return horn_compose(Q(1), [(s, (Q(1),))])

