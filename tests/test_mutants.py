"""Every action rule can fail its check: each single mutant of
``liealg.ACTION_RULES`` makes ``verify_action`` report FAIL.

The mutants are made from the table, not from a hand list: for each of the
17 rules, the coefficient c becomes c + 1 and 2c, and each entry of the
shift moves by +1 and by -1.  None of the rules' coefficients is zero at
the point, so 2c is never the rule itself.  A mutant that passes is a
catalogued fact the actions scope could not refute at this point and order.
"""

from fractions import Fraction

import pytest

from hypersym import liealg
from hypersym.hypfun import ParamsPsi2

POINT = ParamsPsi2(Fraction(1, 2), Fraction(4, 3), Fraction(5, 7))
ORDER = 12


def _mutants():
    """(op id, label, mutated rule) of each single mutant of each rule."""
    for op_id, rule in liealg.ACTION_RULES.items():
        c = rule.coefficient
        yield op_id, "c+1", rule._replace(coefficient=lambda p, c=c: c(p) + 1)
        yield op_id, "2c", rule._replace(coefficient=lambda p, c=c: 2 * c(p))
        for i in range(len(rule.shift)):
            for step in (1, -1):
                shift = list(rule.shift)
                shift[i] += step
                yield op_id, f"shift[{i}]{step:+d}", rule._replace(shift=tuple(shift))


MUTANTS = list(_mutants())


def test_every_rule_passes_unmutated_and_yields_its_mutants():
    assert len(liealg.ACTION_RULES) == 17
    assert len(MUTANTS) == 120
    for op_id in liealg.ACTION_RULES:
        assert liealg.verify_action(op_id, POINT, ORDER)["status"] == "PASS", op_id


@pytest.mark.parametrize("op_id, mutant", [(op_id, rule) for op_id, _label, rule in MUTANTS],
                         ids=[f"{op_id}:{label}" for op_id, label, _rule in MUTANTS])
def test_each_mutant_fails_its_action_check(monkeypatch, op_id, mutant):
    monkeypatch.setitem(liealg.ACTION_RULES, op_id, mutant)
    assert liealg.verify_action(op_id, POINT, ORDER)["status"] == "FAIL"
