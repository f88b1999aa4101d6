"""Acceptance suite: one test per criterion, one printed line per test.

The criteria live in `gcflag.criteria`, where `gc verify` runs them too.
The tests are made from its registry `CRITERIA`, one named
`test_criterion_<name>` per entry, so a new criterion cannot go untested.
Run with plain pytest; the pass/fail lines are printed outside the capture
so they always appear:

    pytest tests/test_acceptance.py -v
"""

import dataclasses
import re
from fractions import Fraction

import pytest

from gcflag import criteria
from gcflag.polytopes import build_polytope


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


def test_a_run_past_its_time_bound_fails():
    # the registry times each run; one without a bound has no time to fail
    bounded = dataclasses.replace(criteria.CRITERIA[0], seconds=0.0)
    outcome = bounded()
    assert outcome.passed is False and re.search(r" \(\d+\.\d\ds\)$", outcome.detail)
    assert dataclasses.replace(bounded, seconds=None)().passed


def test_determinants_fail_on_a_zero_determinant(monkeypatch):
    # a loop-free selection has rank N, so det = 0 is a fault, not a skip;
    # the detail counts what failed
    calls = []

    def zero(rows):
        calls.append(rows)
        return Fraction(0)

    monkeypatch.setattr("gcflag.polytopes.det", zero)
    outcome = criteria.determinants()
    assert outcome.passed is False
    selections = "%d of %d loop-free selections have |det| != 1" % (len(calls), len(calls))
    assert selections in outcome.detail
    assert ", 0 of " in outcome.detail and len(calls) > 0


def test_determinants_fail_on_a_vertex_without_a_selection(monkeypatch):
    # with every selection a loop, each vertex is bare and the detail says so
    monkeypatch.setattr("gcflag.polytopes.selection_is_loop_free", lambda poly, sel: False)
    vertices = sum(
        len(build_polytope(fl, lam).vertices()) for fl, lam in criteria.DET_CASES
    )
    outcome = criteria.determinants()
    assert outcome.passed is False
    assert "0 of 0 loop-free selections have |det| != 1" in outcome.detail
    assert "%d of %d vertices have no loop-free selection" % (vertices, vertices) in outcome.detail
