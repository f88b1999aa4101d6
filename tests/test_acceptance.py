"""Acceptance suite: one test per criterion, one printed line per test.

The criteria live in `gcflag.criteria`, where `gc verify` runs them too.
The tests are made from its registry `CRITERIA`, one named
`test_criterion_<name>` per entry, so a new criterion cannot go untested.
Run with plain pytest; the pass/fail lines are printed outside the capture
so they always appear:

    pytest tests/test_acceptance.py -v
"""

from fractions import Fraction

import pytest

from gcflag import criteria


def criterion_test(c):
    def test(capsys):
        outcome = c()
        with capsys.disabled():
            verdict = "PASS" if outcome.passed else "FAIL"
            print("[%s] criterion %s: %s" % (verdict, c.name, outcome.detail))
        assert outcome.passed, "criterion %s: %s" % (c.name, outcome.detail)

    return test


for c in criteria.CRITERIA:
    globals()["test_criterion_" + c.name] = criterion_test(c)


@pytest.mark.parametrize("fn", ["degeneration", "containment", "moment_maps", "toda_identity"])
@pytest.mark.parametrize("samples", [0, -1])
def test_sampled_criteria_refuse_no_draws(fn, samples):
    # on no draws a sampled criterion would pass having checked nothing
    with pytest.raises(ValueError, match="samples must be at least 1"):
        getattr(criteria, fn)(samples=samples)


def test_determinants_fail_on_a_zero_determinant(monkeypatch):
    # a loop-free selection has rank N, so det = 0 is a fault, not a skip
    monkeypatch.setattr("gcflag.polytopes.det", lambda rows: Fraction(0))
    assert criteria.determinants().passed is False
