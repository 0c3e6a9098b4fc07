"""Every action rule and every left side that must verify can fail its check.

Action rules: each single mutant of ``liealg.ACTION_RULES`` makes
``verify_action`` report FAIL.  The mutants are made from the table, not
from a hand list: for each of the 17 rules, the coefficient c becomes c + 1
and 2c, and each entry of the shift moves by +1 and by -1.  None of the
rules' coefficients is zero at the point, so 2c is never the rule itself.
A mutant that passes is a catalogued fact the actions scope could not
refute at this point and order.

Left sides: each row that must verify (every variant but the as-stated one
of a record with a corrected candidate) gets, from its own formula, the
mutants that call it with one parameter moved by +1 or -1 while F keeps the
row's point, that double it and that multiply it by (1 + chi).  Each makes
``verify_formal`` report the mismatch, and the witness, of building both
sides at the full caps.  A formula that does not read the moved parameter
is its own mutant: such a mutant is equivalent, and is listed, not run.
"""

import math
from fractions import Fraction

import pytest

from hypersym import identities, liealg
from hypersym.hypfun import DEFAULT_F11_ORDERS, DEFAULT_PSI2_ORDERS, FAMILIES, ParamsPsi2
from hypersym.identities import AS_STATED, CORRECTED, IdentityRecord

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


# -- left sides ----------------------------------------------------------------------

class _Moved:
    """The parameters p with the one named moved by ``step``."""

    def __init__(self, p, name, step):
        self.p, self.name, self.step = p, name, step

    def __getattr__(self, name):
        value = getattr(self.p, name)
        return value + self.step if name == self.name else value


def _params_read(lhs):
    """The parameter names a left-side formula reads, on floats."""
    read = set()

    class Reading:
        def __getattr__(self, name):
            read.add(name)
            return 0.5

    lhs(lambda *u: 1.0, math.exp, Reading(), 0.25, 0.2, 0.1)
    return read


def _side_mutants():
    """(record, variant, label, mutated formula, equivalent) of each
    left-side mutant of each row that must verify."""
    for record in identities.catalogue():
        for variant in (CORRECTED,) if record.corrected else (AS_STATED,):
            lhs = identities._lhs(record, variant)
            read = _params_read(lhs)
            for name in FAMILIES[record.family].params.__match_args__:
                for step in (1, -1):
                    yield record, variant, f"{name}{step:+d}", (
                        lambda F, exp, p, x, y, chi, lhs=lhs, name=name, step=step:
                        lhs(F, exp, _Moved(p, name, step), x, y, chi)), name not in read
            yield record, variant, "2L", (
                lambda F, exp, p, x, y, chi, lhs=lhs: 2 * lhs(F, exp, p, x, y, chi)), False
            yield record, variant, "(1+chi)L", (
                lambda F, exp, p, x, y, chi, lhs=lhs: (1 + chi) * lhs(F, exp, p, x, y, chi)), False


SIDE_MUTANTS = list(_side_mutants())
LIVE = [m for m in SIDE_MUTANTS if not m[4]]

# The parameters a row's formula does not read: every one of its shifts is
# the formula itself.
EQUIVALENT = {
    "I-F11-RAISE-A": "b", "I-F11-RAISE-B": "ab", "I-F11-LOWER-B": "a", "I-F11-SHIFT": "ab",
    "I-PSI2-REDUCTION": "bc", "I-PSI2-LOWER-B": "ac", "I-PSI2-LOWER-C": "ab",
    "I-PSI2-SHIFT-X": "abc", "I-PSI2-SHIFT-Y": "abc",
}


def test_left_side_mutants_and_their_equivalents():
    assert len(SIDE_MUTANTS) == 70
    equivalent = {}
    for record, _variant, label, _lhs, same in SIDE_MUTANTS:
        if same:
            equivalent.setdefault(record.rec_id, set()).add(label)
    assert equivalent == {rec_id: {f"{n}{s}" for n in names for s in ("+1", "-1")}
                          for rec_id, names in EQUIVALENT.items()}
    assert len(LIVE) == 34


def _full_box(record, variant, p, caps):
    """The row's witness from both sides built at the full caps."""
    found = identities.first_mismatch(
        identities.lhs_series(record, variant, p, caps),
        identities._sum_series(record, identities._weights(record, p), caps))
    return identities._witness(found)


@pytest.mark.parametrize("record, variant, mutant", [(r, v, m) for r, v, _l, m, _s in LIVE],
                         ids=[f"{r.rec_id}:{v}:{label}" for r, v, label, _m, _s in LIVE])
def test_each_left_side_mutant_is_a_mismatch(record, variant, mutant):
    field = "lhs" if variant == AS_STATED else "corrected"
    mutated = IdentityRecord(**{**vars(record), field: mutant})
    n, m = DEFAULT_F11_ORDERS if record.family == "f11" else DEFAULT_PSI2_ORDERS
    p = FAMILIES[record.family].narrow(POINT)
    row = identities.verify_formal(mutated, variant, POINT, n, m)
    assert row["status"] == "mismatch"
    assert row["witness"] == _full_box(mutated, variant, p, identities._caps_for(record, n, m))
