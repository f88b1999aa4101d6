"""The fiber-sampling workload: seeded calls into gcflag's system,
degeneration and toda layers, made in one process as a library user would.

    PYTHONPATH=src python3 bench/fiber.py --seed N --seconds S --trace 0|1 --out FILE.npz

Set-up builds the polytopes of BLOCKS (three times, each timed).  Then it
runs whole rounds until S seconds have passed; with --trace 1 every second
round is traced.  Each round draws its inputs from (N, round number) and
runs, per block, the operations below; every operation's inputs and outputs
go to FILE.npz for checks.check_fiber.  The last line of standard output is
a JSON summary: set-up times, per-round times, operations attempted and
failed, and per-layer statistics of the traced rounds.
"""

import argparse
import json
import sys
import time
import traceback
from itertools import combinations

import numpy as np

from reference import anticanonical, is_full, parse_flag, random_interior_point
from spans import Tracer

BLOCKS = ("1,2,3|4", "3|6", "1,2,3,4|5")  # anticanonical lambda; the last is the heaviest
ORBIT = 200  # random_orbit_point + gc_map
FIBER = 200  # fiber_point + gc_map round trip at an interior point
PLUCKER_Z = 16  # matrices z; each takes deformed_plucker at t = 1 and 0 on every index set
TODA = 200  # gc_to_toda + phase_function (full flags only)
SETUPS = 3


def index_sets(flag):
    steps, n = parse_flag(flag)
    return [I for k in steps for I in combinations(range(1, n + 1), k)]


class Block:
    """One flag's polytope, its inputs and the outputs collected so far."""

    def __init__(self, flag, poly):
        self.flag = flag
        self.poly = poly
        self.lam = anticanonical(flag)
        self.lamf = [float(x) for x in self.lam]
        self.sets = index_sets(flag)
        self.full = is_full(flag)
        self.out = {k: [] for k in (
            "orbit_x", "orbit_u", "fiber_u", "fiber_x", "fiber_back",
            "plucker_z", "plucker_q1", "plucker_q0", "toda_x", "toda_u", "toda_f",
        )}

    def arrays(self):
        mask = np.zeros((len(self.sets), len(self.lam)), dtype=bool)
        for r, I in enumerate(self.sets):
            mask[r, [i - 1 for i in I]] = True
        doc = {key: np.array(rows) for key, rows in self.out.items()}
        doc.update(
            flag=np.array(self.flag),
            lam=np.array(self.lam),
            coords=np.array(self.poly.coords),
            plucker_sets=mask,
        )
        return doc


def save_blocks(path, blocks):
    np.savez(path, **{
        "%d/%s" % (j, key): val for j, b in enumerate(blocks) for key, val in b.arrays().items()
    })


def load_blocks(path):
    """The per-block arrays written by save_blocks, in BLOCKS order."""
    with np.load(path) as data:
        out = [{} for _ in BLOCKS]
        for key in data.files:
            j, name = key.split("/")
            out[int(j)][name] = data[key]
    return out


def run_ops(ops):
    """Run (name, fn) pairs; an operation that raises counts as failed."""
    failed = 0
    for name, fn in ops:
        try:
            fn()
        except Exception:
            failed += 1
            sys.stderr.write("failed: %s\n%s" % (name, traceback.format_exc()))
    return failed


def block_ops(b, rng):
    """The operations of one round on one block, inputs drawn from rng.

    They call gcflag through module attributes, so that spans.Tracer's
    wrappers are the ones called while it is installed."""
    from gcflag import degeneration as dg, system as sy, toda as td

    out = b.out

    def orbit(seed):
        x = sy.random_orbit_point(b.lamf, seed=seed)
        u = sy.gc_map(x, b.poly)
        out["orbit_x"].append(x)
        out["orbit_u"].append(u)

    def fiber(u):
        x = sy.fiber_point(b.poly, u)
        back = sy.gc_map(x, b.poly)
        out["fiber_u"].append(u)
        out["fiber_x"].append(x)
        out["fiber_back"].append(back)

    def plucker(z):
        out["plucker_q1"].append([dg.deformed_plucker(z, I, 1.0) for I in b.sets])
        out["plucker_q0"].append([dg.deformed_plucker(z, I, 0.0) for I in b.sets])
        out["plucker_z"].append(z)

    def toda(x, u):
        f = td.phase_function(td.gc_to_toda(x, u, b.lamf))
        out["toda_x"].append(x)
        out["toda_u"].append(u)
        out["toda_f"].append(f)

    n, N = len(b.lam), len(b.poly.coords)
    ops = [("orbit", lambda s=int(rng.integers(2**31)): orbit(s)) for _ in range(ORBIT)]
    ops += [
        ("fiber", lambda u=random_interior_point(b.lam, b.poly.coords, rng): fiber(u))
        for _ in range(FIBER)
    ]
    for _ in range(PLUCKER_Z):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ops.append(("plucker", lambda z=z: plucker(z)))
    if b.full:
        for _ in range(TODA):
            x = rng.standard_normal(N)
            u = random_interior_point(b.lam, b.poly.coords, rng)
            ops.append(("toda", lambda x=x, u=u: toda(x, u)))
    return ops


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    from gcflag import polytopes as pl
    from gcflag.flags import FlagType

    build_s = []
    for _ in range(SETUPS):
        t = time.perf_counter()
        polys = [pl.build_polytope(FlagType.parse(f), anticanonical(f)) for f in BLOCKS]
        build_s.append(time.perf_counter() - t)
    blocks = [Block(f, p) for f, p in zip(BLOCKS, polys)]

    rounds, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rng = np.random.default_rng([args.seed, len(rounds)])
        work = [block_ops(b, rng) for b in blocks]
        tracer = Tracer()
        if traced:
            tracer.install()
        times = []
        t0 = time.perf_counter()
        try:
            for ops in work:
                t = time.perf_counter()
                failed += run_ops(ops)
                times.append(time.perf_counter() - t)
        finally:
            tracer.uninstall()
        wall = time.perf_counter() - t0
        attempted += sum(len(ops) for ops in work)
        rounds.append(
            {"wall_s": wall, "largest_s": times[-1], "traced": traced, "stats": tracer.stats}
        )
        if time.perf_counter() - start >= args.seconds and (not args.trace or traced):
            break

    save_blocks(args.out, blocks)
    summary = {"build_s": build_s, "rounds": rounds, "attempted": attempted, "failed": failed}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
