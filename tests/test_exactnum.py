import random
from fractions import Fraction as Q

import pytest

from hypersym.exactnum import parse_rational, pochhammer


def test_pochhammer_empty_product():
    assert pochhammer(7, 0) == 1
    assert pochhammer(Q(-3, 5), 0) == 1


def test_pochhammer_direct_products():
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6 == 360
    assert pochhammer(Q(1, 2), 3) == Q(1, 2) * Q(3, 2) * Q(5, 2) == Q(15, 8)


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
