import random
from fractions import Fraction as Q

import pytest

from hypersym.exactnum import parse_rational, pochhammer, power_factors, signed_text


def test_pochhammer_empty_product():
    assert pochhammer(7, 0) == 1
    assert pochhammer(Q(-3, 5), 0) == 1


def test_pochhammer_direct_products():
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6 == 360
    assert pochhammer(Q(1, 2), 3) == Q(1, 2) * Q(3, 2) * Q(5, 2) == Q(15, 8)


def test_pochhammer_rejects_a_negative_order():
    with pytest.raises(ValueError, match="nonnegative"):
        pochhammer(Q(1, 2), -1)


def test_pochhammer_recurrence():
    rng = random.Random(42)
    for _ in range(20):
        a = Q(rng.randint(-20, 20), rng.randint(1, 9))
        for s in range(0, 51, 7):
            assert pochhammer(a, s + 1) == pochhammer(a, s) * (a + s)


def test_pochhammer_splitting():
    rng = random.Random(7)
    for _ in range(20):
        a = Q(rng.randint(-20, 20), rng.randint(1, 9))
        l = rng.randint(0, 8)
        s = rng.randint(0, 8)
        assert pochhammer(a, l) * pochhammer(a + l, s) == pochhammer(a, l + s)


def test_parse_rational():
    assert parse_rational("3/4") == Q(3, 4)
    assert parse_rational("-7") == -7
    assert parse_rational(" 5/9 ") == Q(5, 9)


@pytest.mark.parametrize("bad", ["0.5", "1e-3", "1/0", "x", "1 / 2", "2/-3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_field_axioms_spot_check():
    rng = random.Random(11)
    for _ in range(50):
        a = Q(rng.randint(-50, 50), rng.randint(1, 20))
        b = Q(rng.randint(-50, 50), rng.randint(1, 20))
        c = Q(rng.randint(-50, 50), rng.randint(1, 20))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


class TestSignedText:
    """The one writer of signed sums, behind ``MultiSeries.render`` and
    ``DiffOperator.pretty``."""

    def test_no_terms_read_zero(self):
        assert signed_text([]) == "0"
        assert signed_text(iter(())) == "0"

    def test_a_single_negative_term_has_a_bare_sign(self):
        assert signed_text([(Q(-3), [])]) == "-3"
        assert signed_text([(Q(-2, 5), ["x"])]) == "-2/5*x"

    def test_a_magnitude_of_one_is_left_out_only_beside_a_factor(self):
        assert signed_text([(Q(1), [])]) == "1"
        assert signed_text([(Q(-1), [])]) == "-1"
        assert signed_text([(Q(1), ["x", "d/dy"])]) == "x*d/dy"
        assert signed_text([(Q(-1), ["x"]), (Q(1), []), (Q(-1), ["y"])]) == "-x + 1 - y"

    def test_a_negative_fraction_with_factors(self):
        factors = power_factors([("x", 2)]) + ["d/dy"]
        assert signed_text([(Q(-1, 2), factors)]) == "-1/2*x^2*d/dy"
        assert signed_text([(Q(3), []), (Q(-1, 2), factors)]) == "3 - 1/2*x^2*d/dy"

    def test_power_factors_skip_zero_exponents(self):
        assert power_factors([("chi", 0), ("x", 1), ("y", 0), ("z", -1), ("u", 3)]) == \
            ["x", "z^-1", "u^3"]
        assert power_factors([("x", 0)]) == []
        assert signed_text([(Q(5, 6), power_factors([("chi", 0), ("x", 1)]))]) == "5/6*x"
