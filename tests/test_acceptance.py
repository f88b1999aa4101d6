"""Acceptance suite: one test per criterion, one printed line per test.

The criteria live in `gcflag.criteria`, where `gc verify` runs them too.
Run with plain pytest; the pass/fail lines are printed outside the capture
so they always appear:

    pytest tests/test_acceptance.py -v
"""

import pytest

from gcflag import criteria


def report(capsys, num, outcome):
    with capsys.disabled():
        verdict = "PASS" if outcome.passed else "FAIL"
        print("[%s] criterion %2d: %s" % (verdict, num, outcome.detail))
    assert outcome.passed, "criterion %d: %s" % (num, outcome.detail)


def test_criterion_01_facets(capsys):
    report(capsys, 1, criteria.facets())


def test_criterion_02_critical_f123(capsys):
    report(capsys, 2, criteria.critical_f123())


def test_criterion_03_critical_gr24(capsys):
    report(capsys, 3, criteria.critical_gr24())


def test_criterion_04_lattice_counts(capsys):
    report(capsys, 4, criteria.lattice_counts())


def test_criterion_05_volumes(capsys):
    report(capsys, 5, criteria.volumes())


def test_criterion_06_reflexivity(capsys):
    report(capsys, 6, criteria.reflexivity())


def test_criterion_07_determinants(capsys):
    report(capsys, 7, criteria.determinants())


def test_criterion_08_degeneration(capsys):
    report(capsys, 8, criteria.degeneration())


def test_criterion_09_containment(capsys):
    report(capsys, 9, criteria.containment())


def test_criterion_10_moment_maps(capsys):
    report(capsys, 10, criteria.moment_maps())


def test_criterion_11_toda_identity(capsys):
    report(capsys, 11, criteria.toda_identity())


def test_criterion_12_positive_minimum(capsys):
    report(capsys, 12, criteria.positive_minimum())


def test_criterion_13_level_set(capsys):
    report(capsys, 13, criteria.level_set())


@pytest.mark.parametrize("fn", ["degeneration", "containment", "moment_maps", "toda_identity"])
@pytest.mark.parametrize("samples", [0, -1])
def test_sampled_criteria_refuse_no_draws(fn, samples):
    # on no draws a sampled criterion would pass having checked nothing
    with pytest.raises(ValueError, match="samples must be at least 1"):
        getattr(criteria, fn)(samples=samples)
