"""Command-line front end.

Subcommands: polytope, critical, potential, verify, toda.  All output is
JSON with a fixed field order (and optional CSV for lattice points), so a
given invocation is byte-reproducible.  Exit codes: 0 success, 1 internal
failure or failed verification, 2 invalid input.
"""

import argparse
import csv
import json
import sys
from fractions import Fraction

import numpy as np

from .flags import FlagType, anticanonical_lambda, dimension
from . import degeneration as dg
from . import polytopes as pl
from . import potential as pt
from . import system as sy
from . import toda as td


def parse_lambda(text):
    return [Fraction(tok) for tok in text.split(",")]


def parse_T(text):
    if text == "e-1":
        return float(np.exp(-1))
    val = float(text)
    if not 0 < val < 1:
        raise ValueError("T must lie in (0, 1)")
    return val


def emit(doc, out):
    blob = json.dumps(doc, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(blob + "\n")
    else:
        sys.stdout.write(blob + "\n")


def _build(args):
    flag = FlagType.parse(args.flag)
    lam = parse_lambda(args.lam)
    return flag, pl.build_polytope(flag, lam)


def cmd_polytope(args):
    flag, poly = _build(args)
    doc = pl.polytope_to_json(poly)
    doc["dimension"] = poly.N
    doc["vertices"] = [[pl.frac_str(x) for x in v] for v, _ in poly.vertices()]
    doc["volume"] = pl.frac_str(pl.volume(poly))
    doc["volume_formula"] = pl.frac_str(pl.volume_formula(flag, poly.lam))
    if all(x.denominator == 1 for x in poly.lam):
        pts = pl.lattice_points(poly)
        doc["lattice_point_count"] = len(pts)
        if flag.is_full():
            doc["weyl_dimension"] = pl.weyl_dimension(poly.lam)
        ok, p = pl.is_reflexive(poly)
        doc["reflexive"] = ok
        if ok:
            doc["interior_point"] = [pl.frac_str(x) for x in p]
            doc["dual_volume"] = pl.frac_str(pl.dual_volume(poly))
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["u%d" % (i + 1) for i in range(poly.N)])
                for row in pts:
                    w.writerow([int(x) for x in row])
    emit(doc, args.out)
    return 0


def cmd_potential(args):
    flag, poly = _build(args)
    pot = pt.build_potential(poly)
    doc = {
        "flag": str(flag),
        "lambda": [pl.frac_str(x) for x in poly.lam],
        "laurent": pot.render(),
        "terms": [{"v": list(v), "tau": pl.frac_str(t)} for v, _, t in pot.terms],
    }
    emit(doc, args.out)
    return 0


def cmd_critical(args):
    flag, poly = _build(args)
    T = parse_T(args.T)
    pot = pt.build_potential(poly)
    points = pt.critical_points(pot, T, seed=args.seed)
    pt.critical_valuation(pot, points)
    count, rank = len(points), pt.cohomology_rank(flag)
    posmin = pt.positive_real_minimum(pot, T)
    doc = {
        "flag": str(flag),
        "lambda": [pl.frac_str(x) for x in poly.lam],
        "T": T,
        "laurent": pot.render(),
        "critical_count": count,
        "cohomology_rank": rank,
    }
    rep = pt.potential_report(pot, points)
    doc["terms"] = rep["terms"]
    doc["critical"] = rep["critical"]
    doc["positive_real_minimum"] = {
        "y": [float(x) for x in posmin.y.real],
        "valuation": [float(x) for x in posmin.valuation],
        "interior": bool(
            poly.contains_float(np.asarray(posmin.valuation), -1e-6)
        ),
        "nondegenerate": posmin.nondegenerate,
    }
    emit(doc, args.out)
    return 0


def cmd_toda(args):
    flag, poly = _build(args)
    pot = pt.build_potential(poly)
    rep = td.level_set_check(pot, seed=args.seed)
    doc = {
        "flag": str(flag),
        "lambda": [pl.frac_str(x) for x in poly.lam],
        "critical_count": len(rep),
        "points": [
            {
                "y_re": [float(v) for v in r["y"].real],
                "y_im": [float(v) for v in r["y"].imag],
                "convention": r["convention"],
                "residual": r["residual"],
            }
            for r in rep
        ],
        "max_residual": max((r["residual"] for r in rep), default=None),
    }
    emit(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _suite_polytope(args):
    checks = []
    cases = [
        (FlagType.full(2), (1, 0)),
        (FlagType.full(3), (2, 0, -2)),
        (FlagType.full(3), (3, 1, 0)),
        (FlagType.full(4), anticanonical_lambda(FlagType.full(4))),
        (FlagType.grassmannian(2, 4), (1, 1, -1, -1)),
        (FlagType.grassmannian(2, 4), (2, 2, -2, -2)),
    ]
    for flag, lam in cases:
        poly = pl.build_polytope(flag, lam)
        vol = pl.volume(poly)
        want = pl.volume_formula(flag, lam)
        checks.append(
            {
                "name": "volume %s lambda=%s" % (flag, list(map(str, lam))),
                "passed": vol == want,
                "residual": 0.0 if vol == want else float(abs(vol - want)),
            }
        )
        if flag.is_full():
            npts = len(pl.lattice_points(poly))
            want_n = pl.weyl_dimension(lam)
            checks.append(
                {
                    "name": "lattice count %s lambda=%s" % (flag, list(map(str, lam))),
                    "passed": npts == want_n,
                    "residual": abs(npts - want_n),
                }
            )
        dets = _det_check(poly)
        checks.append(
            {
                "name": "cone determinants %s lambda=%s" % (flag, list(map(str, lam))),
                "passed": dets,
                "residual": 0.0 if dets else 1.0,
            }
        )
    return checks


def _det_check(poly):
    from itertools import combinations

    for vertex, active in poly.vertices():
        for sel in combinations(sorted(active), poly.N):
            try:
                d = pl.simplicial_cone_determinant(poly, vertex, sel)
            except (pl.LoopError, pl.RankDeficientError):
                continue  # no simplicial cone to check
            if abs(d) != 1:
                return False
    return True


def _suite_degeneration(args):
    checks = []
    flag = FlagType.parse(args.flag) if args.flag else FlagType.full(3)
    n = flag.n
    rng = np.random.default_rng(args.seed)
    worst1 = worst0 = 0.0
    from itertools import combinations

    for _ in range(args.samples):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for k in range(1, n + 1):
            for I in combinations(range(1, n + 1), k):
                q1 = dg.deformed_plucker(z, I, 1.0)
                det1 = np.linalg.det(z[[i - 1 for i in I]][:, :k])
                worst1 = max(worst1, abs(q1 - det1) / max(abs(det1), 1e-12))
                q0 = dg.deformed_plucker(z, I, 0.0)
                d0 = np.prod([z[I[l] - 1, l] for l in range(k)])
                worst0 = max(worst0, abs(q0 - d0) / max(abs(d0), 1e-12))
    checks.append({"name": "q_I(z,1)=det", "passed": worst1 <= 1e-12, "residual": worst1})
    checks.append({"name": "q_I(z,0)=diag", "passed": worst0 <= 1e-12, "residual": worst0})

    fam = {
        "1,2|3": "+Z[1]Z[2,3] -Z[2]Z[1,3] +t Z[3]Z[1,2]",
        "2|4": "+t Z[1,2]Z[3,4] -Z[1,3]Z[2,4] +Z[1,4]Z[2,3]",
    }
    rel = fam.get(str(flag))
    if rel:
        res = dg.verify_family_equation(flag, rel, samples=args.samples, seed=args.seed)
        checks.append({"name": "family equation", "passed": res <= 1e-10, "residual": res})

    ok = True
    for k1 in flag.steps:
        for k2 in flag.steps:
            for I in combinations(range(1, n + 1), k1):
                for J in combinations(range(1, n + 1), k2):
                    if not dg.binomial_relation_holds(flag, I, J):
                        ok = False
    checks.append({"name": "binomial relations", "passed": ok, "residual": 0.0 if ok else 1.0})
    return checks


def _uniform_point(poly, seed):
    """A uniform random point of the polytope: the GC map of a Haar-random
    orbit point.  The GC map pushes the Liouville (Haar) measure of the orbit
    forward to Lebesgue measure on the polytope (Guillemin-Sternberg 1983;
    Baryshnikov, Probab. Theory Relat. Fields 119 (2001))."""
    x = sy.random_orbit_point([float(v) for v in poly.lam], seed=seed)
    return sy.gc_map(x, poly)


def _suite_system(args):
    checks = []
    cases = [
        (FlagType.full(3), (2, 0, -2)),
        (FlagType.full(4), (3, 1, -1, -3)),
        (FlagType.grassmannian(2, 4), (1, 1, -1, -1)),
    ]
    for flag, lam in cases:
        poly = pl.build_polytope(flag, lam)
        worst = -1.0
        inside = True
        for s in range(args.samples):
            u = _uniform_point(poly, s)
            if not poly.contains_float(u, tol=1e-9):
                inside = False
        checks.append(
            {"name": "gc_map containment %s" % flag, "passed": inside, "residual": 0.0 if inside else 1.0}
        )
        for t in range(50):
            cand = _uniform_point(poly, (args.seed, t))
            y = sy.fiber_point(poly, cand)
            worst = max(worst, float(np.abs(sy.gc_map(y, poly) - cand).max()))
        checks.append(
            {"name": "round trip %s" % flag, "passed": worst <= 1e-8, "residual": worst}
        )
    return checks


def _suite_toda(args):
    checks = []
    ns = [args.n] if args.n else [2, 3]
    rng = np.random.default_rng(args.seed)
    for n in ns:
        flag = FlagType.full(n)
        lam = sorted(rng.uniform(-2.0, 2.0, n), reverse=True)
        lam = [Fraction(round(v * 64), 64) for v in lam]
        poly = pl.build_polytope(flag, lam)
        pot = pt.build_potential(poly)
        worst = 0.0
        for s in range(args.samples):
            u = _uniform_point(poly, s)
            x = np.random.default_rng(s).standard_normal(pot.N)
            lhs = 0.0
            for v, _, tau in pot.terms:
                lhs += np.exp(np.dot(v, x) - (np.dot(v, u) - float(tau)))
            pc = td.gc_to_toda(x, u, [float(v) for v in lam])
            rhs = td.phase_function(pc)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        checks.append(
            {"name": "phase identity n=%d" % n, "passed": worst <= 1e-12, "residual": worst}
        )
    return checks


SUITES = {
    "polytope": _suite_polytope,
    "degeneration": _suite_degeneration,
    "system": _suite_system,
    "toda": _suite_toda,
}


def cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        for c in SUITES[name](args):
            checks.append(
                {
                    "suite": name,
                    "name": c["name"],
                    "passed": bool(c["passed"]),
                    "residual": float(c["residual"]),
                }
            )
    doc = {
        "suites": names,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
    emit(doc, args.out)
    return 0 if doc["passed"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="gc", description="Gelfand-Cetlin polytopes, systems and potentials"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, need_lambda=True):
        p.add_argument("--flag", required=need_lambda, help='flag type, e.g. "1,2|3" or "2|4"')
        if need_lambda:
            p.add_argument("--lambda", dest="lam", required=True, help="comma-separated rationals")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("polytope", help="facets, vertices, volume, reflexivity")
    common(p)
    p.add_argument("--csv", default=None, help="write lattice points as CSV")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("potential", help="print the Laurent potential")
    common(p)
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("critical", help="critical points, valuations, Hessians")
    common(p)
    p.add_argument("--T", default="e-1", help='Novikov parameter in (0,1), or "e-1"')
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("toda", help="Toda level-set diagnostic at T=e^-1")
    common(p)
    p.set_defaults(func=cmd_toda)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", default="all", choices=["all"] + sorted(SUITES))
    p.add_argument("--flag", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, KeyError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except Exception as exc:  # internal failure
        sys.stderr.write("internal error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
