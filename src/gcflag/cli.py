"""Command-line front end.

Subcommands: polytope, critical, potential, verify, toda.  All output is
JSON with a fixed field order (and optional CSV for lattice points), so a
given invocation is byte-reproducible.  Exit codes: 0 success, 1 internal
failure or failed verification, 2 invalid input.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from .flags import FlagType
from . import polytopes as pl
from . import potential as pt
from . import toda as td


def parse_lambda(text):
    return [Fraction(tok) for tok in text.split(",")]


def parse_T(text):
    if text == "e-1":
        return math.exp(-1)
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
    integral = all(x.denominator == 1 for x in poly.lam)
    if args.csv and not integral:
        raise ValueError("--csv needs integral lambda: lattice points are integral patterns")
    doc = pl.polytope_to_json(poly)
    doc["dimension"] = poly.N
    doc["vertices"] = [[pl.frac_str(x) for x in v] for v, _ in poly.vertices()]
    doc["volume"] = pl.frac_str(pl.volume(poly))
    doc["volume_formula"] = pl.frac_str(pl.volume_formula(flag, poly.lam))
    if integral:
        doc["lattice_point_count"] = pl.lattice_point_count(poly)
        if flag.is_full():
            doc["weyl_dimension"] = pl.weyl_dimension(poly.lam)
        ok, p = pl.is_reflexive(poly)
        doc["reflexive"] = ok
        if ok:
            doc["interior_point"] = [pl.frac_str(x) for x in p]
            doc["dual_volume"] = pl.frac_str(pl.dual_volume(poly))
        if args.csv:
            import csv

            with open(args.csv, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["u%d" % (i + 1) for i in range(poly.N)])
                for row in pl.lattice_points(poly):
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
    stats = {}
    points = pt.critical_points(pot, T, seed=args.seed, stats=stats)
    posmin = pt.positive_real_minimum(pot, T)
    pt.critical_valuation(pot, points + [posmin])
    count, rank = len(points), pt.cohomology_rank(flag)
    doc = {
        "flag": str(flag),
        "lambda": [pl.frac_str(x) for x in poly.lam],
        "T": T,
        "laurent": pot.render(),
        "critical_count": count,
        "cohomology_rank": rank,
    }
    if "outside_torus" in stats:
        # the Toda route: the points of D = 0 whose lift leaves the torus
        doc["outside_torus"] = stats["outside_torus"]
    doc["terms"] = [{"v": list(v), "tau": pl.frac_str(t)} for v, _, t in pot.terms]
    doc["critical"] = [
        {
            "y_re": [float(x) for x in p.y.real],
            "y_im": [float(x) for x in p.y.imag],
            "valuation": [float(x) for x in p.valuation],
            "nondegenerate": p.nondegenerate,
        }
        for p in points
    ]
    doc["positive_real_minimum"] = {
        "y": [float(x) for x in posmin.y.real],
        "valuation": [float(x) for x in posmin.valuation],
        "interior": poly.contains_float(posmin.valuation, pt.INTERIOR_TOL),
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
                "residual": r["residual"],
            }
            for r in rep
        ],
        "max_residual": max((r["residual"] for r in rep), default=None),
    }
    emit(doc, args.out)
    return 0


def cmd_verify(args):
    from . import criteria as cr  # only verify needs the registry; other commands skip its import

    if args.suite != "all" and args.suite not in cr.SUITES:
        raise ValueError("unknown suite %r (choose all, %s)" % (args.suite, ", ".join(cr.SUITES)))
    names = list(cr.SUITES) if args.suite == "all" else [args.suite]
    chosen = [c for name in names for c in cr.CRITERIA if c.suite == name]
    given = [o for o in ("flag", "n", "samples") if getattr(args, o) is not None]
    unused = ["--" + o for o in given if not any(o in c.options for c in chosen)]
    if unused:
        raise ValueError("no criterion of suite %s takes %s" % (args.suite, ", ".join(unused)))
    if args.samples is not None:
        cr.check_samples(args.samples)
    if args.n is not None and args.n < 2:
        raise ValueError("--n must be at least 2 (got %d)" % args.n)
    opts = {
        "samples": args.samples,
        "seed": args.seed,
        "flag": FlagType.parse(args.flag) if args.flag else None,
        "n": args.n,
    }
    checks = []
    for c in chosen:
        out = c(**opts)
        checks.append(
            {
                "suite": c.suite,
                "name": c.name,
                "passed": bool(out.passed),
                "residual": float(out.residual),
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

    def common(p):
        p.add_argument("--flag", required=True, help='flag type, e.g. "1,2|3" or "2|4"')
        p.add_argument("--lambda", dest="lam", required=True, help="comma-separated rationals")
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
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("toda", help="Toda level-set diagnostic at T=e^-1")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_toda)

    p = sub.add_parser("verify", help="run the acceptance criteria, grouped into suites")
    p.add_argument(
        "--suite", default="all", help="all, polytope, potential, degeneration, system or toda"
    )
    p.add_argument("--flag", default=None, help="narrow the degeneration criterion to one flag")
    p.add_argument("--n", type=int, default=None, help="narrow the Toda identity to one n >= 2")
    p.add_argument(
        "--samples", type=int, default=None,
        help="draw count of the sampled criteria 8-11 (default: the acceptance suite's)",
    )
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
