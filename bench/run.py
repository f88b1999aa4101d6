"""Benchmark of the gc commands and of the gcflag library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it runs the program from ./src.  It
sets up (times interpreter start and `import gcflag`), runs whole rounds of
the workload until S seconds have passed, checks every output with
checks.py, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 rounds alternate between untraced and traced
(spans.py) and the metrics are the per-layer ones plus the tracing overhead.
Raw outputs and traces go to bench/runs/NAME/.  See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from reference import anticanonical, parse_lambda

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
# One BLAS thread: the figures should measure the program, not how a
# 2-core host schedules BLAS workers.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
COMMAND_TIMEOUT_S = 150


def case(command, flag, lam=None):
    """One gc command; lam defaults to the anticanonical weight."""
    lam = tuple(str(x) for x in (lam or anticanonical(flag)))
    return (command, flag, lam)


# Each ladder is one round; `largest` names its heaviest input, whose own
# time is largest_case_s.
CLI_WORKLOADS = {
    # exact volume, dual volume, lattice points, reflexivity (polytopes, exactla.det)
    "polytope-ladder": dict(
        cases=[
            case("polytope", "1,2|3", (2, 0, -2)),
            case("polytope", "1,2|3", (2, "1/2", -2)),
            case("polytope", "2|4"),
            case("polytope", "1,2,3|4", (3, 1, -1, -3)),
            case("polytope", "1,2,3|4", (6, 3, -1, -5)),
            case("polytope", "2|5"),
            case("polytope", "1,3|5"),
            case("polytope", "3|6"),
        ],
        largest=case("polytope", "3|6"),
    ),
    # brute-force vertex enumeration and irredundancy (polytopes, exactla.solve/rank)
    "potential-ladder": dict(
        cases=[
            case("potential", "1,2,3,4|5", (4, 2, 0, -2, -4)),
            case("potential", "1,2,3,4|5", (7, 3, 0, -2, -8)),
            case("potential", "1,2,4|5"),
            case("potential", "1,3,4|5"),
            case("potential", "2,3|5"),
        ],
        largest=case("potential", "1,2,3,4|5", (4, 2, 0, -2, -4)),
    ),
    # multi-start Newton, valuations, positive minimum (potential)
    "critical-solve": dict(
        cases=[
            case("critical", "1,2|3", (2, 0, -2)),
            case("critical", "2|4", (1, 1, -1, -1)),
            case("critical", "1,2,3|4", (3, 1, -1, -3)),
            case("critical", "1,2,3|4", (5, 2, 0, -4)),
            case("critical", "2|5"),
            case("critical", "1,2|3", (2, "1/2", -2)),
        ],
        largest=case("critical", "1,2,3|4", (5, 2, 0, -4)),
    ),
}
WORKLOADS = sorted(CLI_WORKLOADS) + ["fiber-sampling"]

END_TO_END = {"setup_s": "s", "wall_s": "s", "largest_case_s": "s", "peak_rss_mb": "MB"}
# (span name, report self seconds, report calls); see README.md for which
# end-to-end metric each should move.
LAYER_SPANS = [
    ("polytopes.build_polytope", True, False),
    ("polytopes.vertices", True, False),
    ("polytopes.volume", True, False),
    ("polytopes.dual_volume", True, False),
    ("polytopes.is_reflexive", True, False),
    ("polytopes.lattice_points", True, True),
    ("polytopes.contains", True, True),
    ("polytopes.contains_float", True, True),
    ("exactla.det", True, True),
    ("exactla.solve", True, True),
    ("exactla.rank", True, True),
    ("potential.critical_points", True, False),
    ("potential.terms_at", True, True),
    ("potential.hessian", True, True),
    ("potential.critical_valuation", True, False),
    ("potential.positive_real_minimum", True, False),
    ("system.gc_map", True, True),
    ("system.fiber_point", True, True),
    ("degeneration.deformed_plucker", True, True),
    ("toda.gc_to_toda", True, False),
    ("toda.phase_function", True, False),
]
LAYERS = ("polytopes", "exactla", "potential", "system", "degeneration", "toda")


def program_env():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Outcome:
    """A finished process: exit code, output, wall seconds, peak RSS in MB."""

    def __init__(self, code, stdout, stderr, wall_s, rss_mb):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.wall_s, self.rss_mb = wall_s, rss_mb


def run_program(argv, workdir):
    """Run argv from the checkout root and wait for it, killing it after
    COMMAND_TIMEOUT_S.  The child gets BENCH_SPAWN_T, the perf_counter()
    reading just before the spawn.

    wait4 gives the child's peak RSS, but the kernel counts the pages the
    child shared with this process before exec.  So this process imports
    numpy and scipy (for the checks) only after the program has run."""
    out_path, err_path = os.path.join(workdir, "stdout"), os.path.join(workdir, "stderr")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        env = dict(program_env(), BENCH_SPAWN_T=repr(t0))
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(
            proc.returncode, out.read().decode(), err.read().decode(), wall, usage.ru_maxrss / 1024
        )


def setup_time(module, workdir):
    """Median time to start the interpreter and import module."""
    times = []
    for _ in range(SETUP_PROBES):
        res = run_program([sys.executable, "-c", "import " + module], workdir)
        if res.code != 0:
            raise SystemExit("bench: `import %s` failed:\n%s" % (module, res.stderr))
        times.append(res.wall_s)
    return statistics.median(times)


class Tally:
    """Operations attempted and failed, and problems found in outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what, why):
        self.failed += 1
        sys.stderr.write("bench: failed: %s: %s\n" % (what, why))

    def wrong(self, what, problems):
        for p in dict.fromkeys(problems):
            self.problems.append("%s: %s" % (what, p))
            sys.stderr.write("bench: WRONG OUTPUT: %s: %s\n" % (what, p))


def gc_args(c):
    return [c[0], "--flag", c[1], "--lambda", ",".join(c[2])]


def label(c):
    return "gc " + " ".join(gc_args(c))


def merge_stats(into, stats):
    for name, (calls, total, self_s) in stats.items():
        st = into.setdefault(name, [0, 0.0, 0.0])
        st[0] += calls
        st[1] += total
        st[2] += self_s


def check_output(c, stdout):
    """(problems, critical points missing, critical points found) for the
    output of gc command c."""
    import checks

    checker = {
        "polytope": checks.check_polytope,
        "potential": checks.check_potential,
        "critical": checks.check_critical,
    }[c[0]]
    try:
        doc = json.loads(stdout)
        missing = checks.missing_critical_points(c[1], doc) if c[0] == "critical" else 0
        return checker(c[1], parse_lambda(c[2]), doc), missing, len(doc.get("critical", ()))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return ["malformed output: %r" % exc], 0, 0


def run_cli(name, seed, seconds, trace, workdir):
    spec = CLI_WORKLOADS[name]
    order = list(spec["cases"])
    random.Random(seed).shuffle(order)
    setup_s = setup_time("gcflag.cli", workdir)

    tally, verdicts, rounds = Tally(), {}, []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        rnd = {"traced": traced, "ops": []}
        t0 = time.perf_counter()
        for i, c in enumerate(order):
            argv = [sys.executable, "-m", "gcflag.cli", *gc_args(c)]
            trace_path = os.path.join(workdir, "trace-%d-%d.json" % (len(rounds), i))
            if traced:
                argv[1:3] = [os.path.join(HERE, "spans.py"), trace_path]
            rnd["ops"].append((c, run_program(argv, workdir), trace_path if traced else None))
        rnd["wall_s"] = time.perf_counter() - t0
        rounds.append(rnd)
        if time.perf_counter() - start >= seconds and (not trace or traced):
            break

    for rnd in rounds:
        rnd["critical_points"] = 0
        for c, res, _ in rnd["ops"]:
            tally.attempted += 1
            if res.code != 0:
                tally.fail(label(c), "exit %d: %s" % (res.code, res.stderr.strip()[-200:]))
                continue
            key = (c, hashlib.sha256(res.stdout.encode()).hexdigest())
            if key not in verdicts:
                verdicts[key] = check_output(c, res.stdout)
            problems, missing, found = verdicts[key]
            tally.wrong(label(c), problems)
            rnd["critical_points"] += found
            if missing:
                why = "%d of %d critical points missing" % (missing, missing + found)
                tally.fail(label(c), why)

    plain = [r for r in rounds if not r["traced"]]
    if not trace:
        heavy = [res.wall_s for r in plain for c, res, _ in r["ops"] if c == spec["largest"]]
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "largest_case_s": statistics.median(heavy),
            "peak_rss_mb": max(res.rss_mb for r in plain for _, res, _ in r["ops"]),
        }
        return tally, metrics

    per_round, startups = [], []
    for r in rounds:
        if not r["traced"]:
            continue
        stats = {}
        for _, res, path in r["ops"]:
            if os.path.exists(path):
                with open(path) as fh:
                    merge_stats(stats, json.load(fh)["stats"])
        calls, total, _ = stats.pop("cli.startup", (0, 0.0, 0.0))
        startups.append(total / calls if calls else 0.0)
        per_round.append((stats, r["wall_s"], r["critical_points"]))
    plain_walls = [r["wall_s"] for r in plain]
    return tally, layer_metrics(per_round, plain_walls, statistics.median(startups))


def layer_metrics(per_round, plain_walls, startup_s):
    """Per-layer metrics: medians over the traced rounds of per-round sums."""

    def med(fn):
        return statistics.median(fn(stats) for stats, _, _ in per_round)

    def get(stats, name, field):
        return stats.get(name, [0, 0.0, 0.0])[field]

    m = {}
    for name, want_s, want_calls in LAYER_SPANS:
        if want_s:
            m[name + "_s"] = (med(lambda st: get(st, name, 2)), "s")
        if want_calls:
            m[name + "_calls"] = (med(lambda st: get(st, name, 0)), "count")
    for layer in LAYERS:
        m["layer.%s_s" % layer] = (
            med(lambda st: sum(v[2] for k, v in st.items() if k.startswith(layer + "."))),
            "s",
        )
    m["cli.startup_s"] = (startup_s, "s")
    m["cli.other_s"] = (med(lambda st: get(st, "cli.main", 2)), "s")
    m["critical_points"] = (statistics.median(cp for _, _, cp in per_round), "count")
    traced = statistics.median(w for _, w, _ in per_round)
    plain = statistics.median(plain_walls)
    m["trace.wall_s"] = (traced, "s")
    m["trace.overhead_s"] = (traced - plain, "s")
    m["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_fiber(seed, seconds, trace, workdir):
    setup_s = setup_time("gcflag", workdir)
    out = os.path.join(workdir, "fiber.npz")
    argv = [
        sys.executable, os.path.join(HERE, "fiber.py"), "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", out,
    ]
    res = run_program(argv, workdir)
    if res.code != 0:
        raise SystemExit("bench: fiber-sampling worker exited %d:\n%s" % (res.code, res.stderr))
    import checks
    import fiber

    summary = json.loads(res.stdout.strip().splitlines()[-1])
    tally = Tally()
    tally.attempted, tally.failed = summary["attempted"], summary["failed"]
    if res.stderr:
        sys.stderr.write(res.stderr)
    for block in fiber.load_blocks(out):
        tally.wrong("fiber-sampling", checks.check_fiber(block))

    plain = [r for r in summary["rounds"] if not r["traced"]]
    if not trace:
        metrics = {
            "setup_s": setup_s + statistics.median(summary["build_s"]),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "largest_case_s": statistics.median(r["largest_s"] for r in plain),
            "peak_rss_mb": res.rss_mb,
        }
        return tally, metrics
    per_round = [(r["stats"], r["wall_s"], 0) for r in summary["rounds"] if r["traced"]]
    return tally, layer_metrics(per_round, [r["wall_s"] for r in plain], 0.0)


def run_workload(name, seed, seconds, trace):
    """Run one workload; return its result object."""
    workdir = os.path.join(HERE, "runs", name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    if name == "fiber-sampling":
        tally, metrics = run_fiber(seed, seconds, trace, workdir)
    else:
        tally, metrics = run_cli(name, seed, seconds, trace, workdir)
    if not trace:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gcflag", "__init__.py")):
        sys.stderr.write("bench: no src/gcflag under %s; run from the root of a checkout\n" % ROOT)
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    # one process per workload, so that none measures another's imports
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if res.returncode != 0:
            return res.returncode
        result = json.loads(res.stdout.strip().splitlines()[-1])
        print(json.dumps(dict(workload=name, **result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
