"""Self-test of checks.py: each check passes on the program's real output
and fails on a copy corrupted in the way it is meant to catch.

    python3 bench/selftest.py      # from the root of a checkout, about 10 s

Prints one line per corruption and exits 1 if any went unnoticed.
"""

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

import checks
from reference import anticanonical, parse_lambda

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))


def gc(command, flag, lam):
    argv = [sys.executable, "-m", "gcflag.cli", command, "--flag", flag]
    argv += ["--lambda", ",".join(map(str, lam))]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    res = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, check=True, text=True)
    return json.loads(res.stdout)


def shift(key, by):
    def corrupt(doc):
        doc[key] = str(Fraction(doc[key]) + by) if isinstance(doc[key], str) else doc[key] + by

    return corrupt


def set_field(key, value):
    return lambda doc: doc.__setitem__(key, value)


def nudge_facet(doc):
    doc["facets"][0]["tau"] = str(Fraction(doc["facets"][0]["tau"]) - 1)


def move_vertex(doc):
    doc["vertices"][0][0] = str(Fraction(doc["vertices"][0][0]) + Fraction(1, 3))


def add_redundant_term(doc):
    t = doc["terms"][0]
    doc["terms"].append({"v": t["v"], "tau": str(Fraction(t["tau"]) - 1)})


def perturb_point(doc):
    doc["critical"][0]["y_re"][0] *= 1.001


def duplicate_point(doc):
    doc["critical"][1] = copy.deepcopy(doc["critical"][0])


def drop_point(doc):
    del doc["critical"][0]
    doc["critical_count"] -= 1


def wrong_valuation(doc):
    doc["critical"][0]["valuation"][1] += 0.1


def exterior_minimum(doc):
    doc["positive_real_minimum"]["valuation"][0] += 100.0


def critical_with_count(flag, lam, doc):
    missing = checks.missing_critical_points(flag, doc)
    problems = checks.check_critical(flag, lam, doc)
    return problems + (["%d points missing" % missing] if missing else [])


CASES = [
    (
        checks.check_polytope, "polytope", "1,2,3|4", (3, 1, -1, -3),
        [
            ("perturbed volume", shift("volume", Fraction(1, 7))),
            ("perturbed volume_formula", shift("volume_formula", 1)),
            ("dropped vertex", lambda d: d["vertices"].pop(0)),
            ("vertex moved off its facets", move_vertex),
            ("wrong facet", nudge_facet),
            ("dropped facet", lambda d: d["facets"].pop()),
            ("wrong lattice point count", shift("lattice_point_count", 1)),
            ("anticanonical reported not reflexive", set_field("reflexive", False)),
            ("wrong interior point", lambda d: d["interior_point"].__setitem__(0, "1")),
            ("wrong dual volume", shift("dual_volume", Fraction(1, 1000))),
        ],
    ),
    (
        checks.check_polytope, "polytope", "1,2|3", (2, "1/2", -2),
        [
            ("dropped vertex", lambda d: d["vertices"].pop()),
            ("perturbed volume", shift("volume", 1)),
        ],
    ),
    (
        checks.check_potential, "potential", "1,3|5", anticanonical("1,3|5"),
        [
            ("dropped term", lambda d: d["terms"].pop(3)),
            ("redundant term added", add_redundant_term),
            ("wrong term offset", lambda d: d["terms"][0].__setitem__("tau", "17")),
        ],
    ),
    (
        critical_with_count, "critical", "2|4", (1, 1, -1, -1),
        [
            ("dropped critical point", drop_point),
            ("perturbed critical point", perturb_point),
            ("duplicated critical point", duplicate_point),
            ("wrong valuation", wrong_valuation),
            ("positive minimum valuation outside", exterior_minimum),
            ("wrong term", lambda d: d["terms"].pop()),
        ],
    ),
    (
        critical_with_count, "critical", "1,2|3", (2, 0, -2),
        [("dropped critical point", drop_point), ("perturbed critical point", perturb_point)],
    ),
]


def fiber_block():
    """One round of the fiber-sampling operations on 1,2,3|4."""
    import fiber
    from gcflag import polytopes as pl
    from gcflag.flags import FlagType

    flag = "1,2,3|4"
    b = fiber.Block(flag, pl.build_polytope(FlagType.parse(flag), anticanonical(flag)))
    fiber.run_ops(fiber.block_ops(b, np.random.default_rng(0)))
    return b.arrays()


def bump(key, index, by):
    def corrupt(block):
        block[key] = block[key].copy()
        block[key][index] += by

    return corrupt


FIBER_CORRUPTIONS = [
    ("gc_map output moved", bump("orbit_u", (0, 0), 1e-3)),
    ("orbit point off the orbit", bump("orbit_x", (0, 0, 0), 1e-3)),
    ("fiber_point matrix perturbed", bump("fiber_x", (3, 1, 1), 1e-3)),
    ("round trip off", bump("fiber_back", (5, 2), 1e-3)),
    ("deformed_plucker at t=1 off", bump("plucker_q1", (0, 7), 1e-6)),
    ("deformed_plucker at t=0 off", bump("plucker_q0", (1, 3), 1e-6)),
    ("phase function off", bump("toda_f", 4, 1e-9)),
]


def main():
    missed = []

    def report(what, clean, problems):
        ok = bool(problems) != clean
        print("[%s] %s%s" % ("ok" if ok else "MISSED", what, "" if ok else ": %s" % problems))
        if not ok:
            missed.append(what)

    for check, command, flag, lam, corruptions in CASES:
        doc = gc(command, flag, lam)
        lamf = parse_lambda(lam)
        name = "gc %s %s %s" % (command, flag, lam)
        report(name + ": clean output passes", True, check(flag, lamf, doc))
        for what, corrupt in corruptions:
            bad = copy.deepcopy(doc)
            corrupt(bad)
            report("%s: %s is caught" % (name, what), False, check(flag, lamf, bad))

    block = fiber_block()
    report("fiber-sampling 1,2,3|4: clean output passes", True, checks.check_fiber(block))
    for what, corrupt in FIBER_CORRUPTIONS:
        bad = dict(block)
        corrupt(bad)
        report("fiber-sampling 1,2,3|4: %s is caught" % what, False, checks.check_fiber(bad))
    print("%d corruptions missed" % len(missed))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
