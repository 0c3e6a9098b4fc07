"""The two parameter classes share one body; they still behave as the two
classes written out in full did.

The oracle below is those classes and the two readers ``param_strs`` and
``float_params`` as they were before the shared body, kept here verbatim, so
that the class names in reprs and error texts are the same on both sides.
"""

from dataclasses import dataclass, fields
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersym import hypfun
from hypersym.exactnum import DegenerateParameter, as_rational, is_nonpositive_integer


# -- oracle: the classes written out in full -----------------------------------

def _check_denominator_param(name: str, value: Fraction) -> None:
    if is_nonpositive_integer(value):
        raise DegenerateParameter(
            f"parameter {name} = {value} is zero or a negative integer"
        )


@dataclass(frozen=True)
class Params1F1:
    """Parameters (a; b); b must avoid zero and negative integers."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))
        _check_denominator_param("b", self.b)

    def shifted(self, da: int = 0, db: int = 0) -> "Params1F1":
        return Params1F1(self.a + da, self.b + db)


@dataclass(frozen=True)
class ParamsPsi2:
    """Parameters (a; b, c); b and c avoid zero and negative integers."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))
        object.__setattr__(self, "c", as_rational(self.c))
        _check_denominator_param("b", self.b)
        _check_denominator_param("c", self.c)

    def shifted(self, da: int = 0, db: int = 0, dc: int = 0) -> "ParamsPsi2":
        return ParamsPsi2(self.a + da, self.b + db, self.c + dc)


def param_strs(params: Params1F1 | ParamsPsi2) -> dict[str, str]:
    """Parameters by name as exact rational strings, for reports."""
    return {f.name: str(getattr(params, f.name)) for f in fields(params)}


def float_params(params: Params1F1 | ParamsPsi2) -> SimpleNamespace:
    """Parameters as floats ``.a``, ``.b`` and, for Psi2, ``.c``, made in that
    order; ValueError names the first one too large for a float."""
    floats = SimpleNamespace()
    try:
        floats.a = float(params.a)
        floats.b = float(params.b)
        if isinstance(params, ParamsPsi2):
            floats.c = float(params.c)
    except OverflowError:
        # the parameters made so far are set; the next one overflowed
        name = "abc"[len(vars(floats))]
        raise ValueError(f"parameter {name} is too large for a float") from None
    return floats


# -- comparison ----------------------------------------------------------------

PAIRS = [(hypfun.Params1F1, Params1F1), (hypfun.ParamsPsi2, ParamsPsi2)]

# Values a parameter is given: ints, Fractions, rational strings (good and
# bad), floats, values on a pole, and values too large for a float.
VALUES = st.one_of(
    st.integers(-4, 4),
    st.integers(),
    st.fractions(max_denominator=50),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 9)),
    st.integers(-20, 20).map(str),
    st.sampled_from(["0", "-3", "-6/2", " 5/3 ", "0.5", "1/0", "x", "", "1e3"]),
    st.floats(allow_nan=False),
    st.sampled_from([0, -1, -7, Fraction(0), Fraction(-2), Fraction(-4, 2), Fraction(5, 1)]),
    st.sampled_from([10**400, -(10**309), Fraction(10**400, 3), f"{10**310}/7"]),
)
STEPS = st.lists(st.integers(-3, 3), max_size=4).map(tuple)


def _outcome(make):
    """What ``make()`` gives: ("value", its value), or its exception's type
    and text."""
    try:
        return "value", make()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def _point(cls, values):
    return _outcome(lambda: cls(*values))


def _show(outcome):
    kind, value = outcome
    return (kind, repr(value)) if kind == "value" else outcome


@st.composite
def class_and_values(draw):
    new, old = draw(st.sampled_from(PAIRS))
    values = draw(st.lists(VALUES, min_size=len(fields(old)), max_size=len(fields(old))))
    return new, old, values


class TestSharedBodyMatchesTheFullClasses:
    @settings(max_examples=400, deadline=None)
    @given(case=class_and_values())
    def test_construction(self, case):
        new, old, values = case
        got, expected = _point(new, values), _point(old, values)
        assert _show(got) == _show(expected)
        if got[0] == "value":
            p, q = got[1], expected[1]
            assert hash(p) == hash(q)
            assert [type(getattr(p, f.name)) for f in fields(q)] == [Fraction] * len(fields(q))

    @settings(max_examples=400, deadline=None)
    @given(case=class_and_values(), steps=st.lists(STEPS, min_size=1, max_size=4))
    def test_shifted(self, case, steps):
        new, old, values = case
        got, expected = _point(new, values), _point(old, values)
        if got[0] != "value" or expected[0] != "value":
            return
        p, q = got[1], expected[1]
        for step in steps:
            assert _show(_outcome(lambda: p.shifted(*step))) == _show(
                _outcome(lambda: q.shifted(*step))), step

    @settings(max_examples=300, deadline=None)
    @given(first=class_and_values(), second=class_and_values())
    def test_equality_and_hash(self, first, second):
        (new1, old1, values1), (new2, old2, values2) = first, second
        got = [_point(new1, values1), _point(new2, values2)]
        expected = [_point(old1, values1), _point(old2, values2)]
        if any(kind != "value" for kind, _ in got + expected):
            return
        (p1, p2), (q1, q2) = (v for _, v in got), (v for _, v in expected)
        assert (p1 == p2) == (q1 == q2)
        assert (p1 != p2) == (q1 != q2)
        assert (hash(p1) == hash(p2)) == (hash(q1) == hash(q2))
        assert (p1 == p1.shifted()) and (q1 == q1.shifted())

    @settings(max_examples=400, deadline=None)
    @given(case=class_and_values())
    def test_readers(self, case):
        new, old, values = case
        got, expected = _point(new, values), _point(old, values)
        if got[0] != "value" or expected[0] != "value":
            return
        p, q = got[1], expected[1]
        assert list(hypfun.param_strs(p).items()) == list(param_strs(q).items())
        floats, floats_expected = (_outcome(lambda: list(vars(f(x)).items()))
                                   for f, x in ((hypfun.float_params, p), (float_params, q)))
        assert floats == floats_expected

    def test_error_texts_of_the_last_field(self):
        # a float overflow and a pole in the last field, and one step too many
        for new, old in PAIRS:
            n = len(fields(old))
            too_large = [1] * (n - 1) + [10**400]
            message = f"parameter {'abc'[n - 1]} is too large for a float"
            assert _outcome(lambda: hypfun.float_params(new(*too_large))) == (ValueError, message)
            assert _outcome(lambda: float_params(old(*too_large))) == (ValueError, message)
            pole = [1] * (n - 1) + [-2]
            assert _point(new, pole) == _point(old, pole) == (
                DegenerateParameter, f"parameter {'abc'[n - 1]} = -2 is zero or a negative integer")
            too_long = (0,) * (n + 1)
            assert _outcome(lambda: new(*[1] * n).shifted(*too_long)) == (
                TypeError, f"{old.__name__}.shifted() takes from 1 to {n + 1} positional "
                           f"arguments but {n + 2} were given")


class TestValueBehaviour:
    """Equality, hash, ``repr``, field order and immutability of the points,
    as the frozen dataclasses of the oracle above give them."""

    def test_not_equal_to_a_tuple_or_the_other_class(self):
        # points key shared work, so a tuple or a point of the other class
        # must not find their entries
        f, p = hypfun.Params1F1(1, 2), hypfun.ParamsPsi2(1, 2, 3)
        assert f != (Fraction(1), Fraction(2)) and p != (Fraction(1), Fraction(2), Fraction(3))
        assert f != hypfun.ParamsPsi2(1, 2, 1) and p != hypfun.Params1F1(1, 2)
        assert len({f: 1, (Fraction(1), Fraction(2)): 2}) == 2
        assert f == hypfun.Params1F1("1", Fraction(2)) and p == hypfun.ParamsPsi2(1, 2, 3)

    def test_hash_is_the_hash_of_the_fields(self):
        for p in (hypfun.Params1F1("1/2", 4), hypfun.ParamsPsi2(Fraction(-7, 3), "4/3", 5)):
            fields = tuple(getattr(p, name) for name in p.__match_args__)
            assert hash(p) == hash(fields) == hash(p)

    def test_repr_and_field_order(self):
        # the oracle's reprs, recorded
        assert repr(hypfun.Params1F1("1/2", 4)) == "Params1F1(a=Fraction(1, 2), b=Fraction(4, 1))"
        assert repr(hypfun.ParamsPsi2(Fraction(-7, 3), "4/3", 5)) == (
            "ParamsPsi2(a=Fraction(-7, 3), b=Fraction(4, 3), c=Fraction(5, 1))")
        assert hypfun.Params1F1.__match_args__ == ("a", "b")
        assert hypfun.ParamsPsi2.__match_args__ == ("a", "b", "c")

    def test_fields_cannot_be_assigned(self):
        p = hypfun.ParamsPsi2(1, 2, 3)
        hash(p)
        for name in ("a", "c", "d"):
            try:
                setattr(p, name, 5)
            except AttributeError as exc:
                assert str(exc) == f"cannot assign to field {name!r}"
            else:
                raise AssertionError(name)
        assert p == hypfun.ParamsPsi2(1, 2, 3) and hash(p) == hash(hypfun.ParamsPsi2(1, 2, 3))

    def test_fields_cannot_be_deleted(self):
        p = hypfun.Params1F1(1, 2)
        with pytest.raises(AttributeError, match="^cannot delete field 'a'$"):
            del p.a
        assert p == hypfun.Params1F1(1, 2)
