import ast
import csv
import glob
import json
import math
import os
import subprocess
import sys
from graphlib import TopologicalSorter

import numpy as np
import pytest

import gcflag
from gcflag.cli import main, parse_T, parse_lambda


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# the names gcflag exports, by layer module
EXPORTS = {
    "flags": "FlagType LadderDiagram anticanonical_lambda dimension ladder_diagram meet_join "
    "normalize_index_set path_count positive_paths",
    "polytopes": "Facet GCPolytope build_polytope dual_volume free_positions "
    "is_reflexive lattice_point_count lattice_points polytope_from_json "
    "polytope_to_json simplicial_cone_determinant volume volume_formula weyl_dimension",
    "system": "arrow_completion fiber_point gc_map random_orbit_point",
    "degeneration": "PluckerPoint TorusPoint binomial_relation_holds deformed_plucker moment_mu "
    "moment_nu monomial_embedding multi_deformed_plucker parse_relation random_torus_point "
    "verify_family_equation weight_matrix",
    "potential": "CriticalPoint LaurentPotential build_potential cohomology_rank critical_points "
    "critical_valuation hessian_nondegenerate positive_real_minimum",
    "toda": "PhaseCoordinates TodaState gc_to_toda level_set_check phase_function "
    "toda_hamiltonians",
}


def test_package_exports():
    # resolving every name runs every layer module, so an import error in
    # any of them fails here
    names = {name: layer for layer, names in EXPORTS.items() for name in names.split()}
    assert sorted(gcflag.__all__) == sorted([*names, *EXPORTS, "exactla"])
    assert len(gcflag.__all__) == 60
    for name, layer in names.items():
        assert getattr(gcflag, name) is getattr(sys.modules["gcflag." + layer], name), name
    for layer in [*EXPORTS, "exactla"]:
        assert getattr(gcflag, layer) is sys.modules["gcflag." + layer]
    assert set(gcflag.__all__) <= set(dir(gcflag))
    with pytest.raises(AttributeError):
        getattr(gcflag, "no_such_name")


def test_parse_T_token():
    assert parse_T("e-1") == math.exp(-1) == np.exp(-1)
    assert parse_T("0.25") == 0.25
    with pytest.raises(ValueError):
        parse_T("1.5")
    with pytest.raises(ValueError):
        parse_T("0")


def test_parse_lambda():
    from fractions import Fraction

    assert parse_lambda("2,0,-2") == [2, 0, -2]
    assert parse_lambda("3/2,-1/2") == [Fraction(3, 2), Fraction(-1, 2)]


def test_polytope_command(capsys):
    code, out = run(capsys, "polytope", "--flag", "1,2|3", "--lambda", "2,0,-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 3
    assert doc["volume"] == "8" == doc["volume_formula"]
    assert doc["lattice_point_count"] == 27 == doc["weyl_dimension"]
    assert doc["reflexive"] is True
    assert doc["interior_point"] == ["1", "-1", "0"]
    assert doc["dual_volume"] == "4/3"
    assert len(doc["facets"]) == 6


def test_polytope_output_reproducible(capsys):
    _, a = run(capsys, "polytope", "--flag", "2|4", "--lambda", "1,1,-1,-1")
    _, b = run(capsys, "polytope", "--flag", "2|4", "--lambda", "1,1,-1,-1")
    assert a == b


def test_polytope_csv(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    out_path = tmp_path / "doc.json"
    code = main(
        ["polytope", "--flag", "1,2|3", "--lambda", "2,0,-2",
         "--csv", str(csv_path), "--out", str(out_path)]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u1", "u2", "u3"]
    assert len(rows) - 1 == doc["lattice_point_count"] == 27


def test_polytope_csv_refuses_rational_lambda(tmp_path, capsys):
    # lattice points need integral lambda; this used to exit 0 with no CSV
    csv_path = tmp_path / "pts.csv"
    code = main(["polytope", "--flag", "1,2|3", "--lambda", "2,1/2,-2", "--csv", str(csv_path)])
    err = capsys.readouterr()
    assert code == 2 and err.out == ""
    assert "--csv needs integral lambda" in err.err
    assert not csv_path.exists()


@pytest.mark.parametrize("command", ["polytope", "potential"])
def test_seed_only_where_it_is_read(capsys, command):
    # only critical, toda and verify draw anything at random
    with pytest.raises(SystemExit) as exc:
        main([command, "--flag", "1,2|3", "--lambda", "2,0,-2", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_potential_command(capsys):
    code, out = run(capsys, "potential", "--flag", "1,2|3", "--lambda", "2,0,-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["laurent"] == "Q1/y1 + y1/Q2 + Q2/y2 + y2/Q3 + y1/y3 + y3/y2"
    assert doc["terms"][0] == {"v": [-1, 0, 0], "tau": "-2"}


def test_critical_command(capsys):
    code, out = run(
        capsys, "critical", "--flag", "1,2|3", "--lambda", "2,0,-2",
        "--T", "e-1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["critical_count"] == 6
    assert doc["cohomology_rank"] == 6
    assert len(doc["terms"]) == 6
    assert doc["terms"][0] == {"v": [-1, 0, 0], "tau": "-2"}
    assert len(doc["critical"]) == 6
    for p in doc["critical"]:
        assert p["nondegenerate"] is True
        assert np.allclose(p["valuation"], [1, -1, 0], atol=1e-3)
    pm = doc["positive_real_minimum"]
    assert pm["interior"] is True and pm["nondegenerate"] is True


@pytest.mark.xfail(strict=True, reason="flat-valley rows of the grid pass the drift check at T = 0.01")
def test_critical_command_at_3_6_and_T_0_01(capsys):
    # the anticanonical 3|6 at T = 0.01 should give its critical points;
    # two flat-valley rows pass the drift check, and their continuation
    # loses its branch, so gc critical exits 1
    code, _ = run(capsys, "critical", "--flag", "3|6", "--lambda", "3,3,3,-3,-3,-3", "--T", "0.01")
    assert code == 0


@pytest.mark.xfail(strict=True, reason="the valuation ladder loses row 3 at log T = -9.09526")
def test_critical_command_at_8_6_m5_m6_and_T_0_01(capsys):
    # critical_points gives all 24 points here, carried from T0; the
    # continuation of one of them loses its branch below T = 1e-2, so gc
    # critical exits 1
    code, _ = run(capsys, "critical", "--flag", "1,2,3|4", "--lambda", "8,6,-5,-6", "--T", "0.01")
    assert code == 0


@pytest.mark.xfail(strict=True, reason="the valuation ladder loses row 18 at log T = -5.10517")
def test_critical_command_at_8_3_1_m4_and_T_0_1(capsys):
    # 20 points and 4 outside the torus; the continuation of one point
    # loses its branch on the real leg to T = 1e-2, so gc critical exits 1
    code, _ = run(capsys, "critical", "--flag", "1,2,3|4", "--lambda", "8,3,1,-4", "--T", "0.1")
    assert code == 0


@pytest.mark.xfail(strict=True, reason="the valuation ladder loses row 10 at log T = -8.78294, or row 8 at -8.84526 at seed 3")
@pytest.mark.parametrize("seed", ["2", "3"])
def test_critical_command_at_7_5_m6_m7_and_T_0_1_seed_2(capsys, seed):
    # critical_points gives all 24 points, carried from T0 = exp(-1/11);
    # the continuation of one of them loses its branch below T = 1e-2, so
    # gc critical exits 1
    code, _ = run(capsys, "critical", "--flag", "1,2,3|4", "--lambda", "7,5,-6,-7", "--T", "0.1", "--seed", seed)
    assert code == 0


@pytest.mark.parametrize("seed", ["2", "3"])
def test_lost_branch_is_the_one_line_on_stderr(seed):
    # rows that run away on the valuation ladder overflow the terms of W
    # and the tracker rejects them; numpy's overflow and invalid-value
    # warnings stay quiet, so the error is all that gc critical prints
    argv = ["critical", "--flag", "1,2,3|4", "--lambda", "7,5,-6,-7", "--T", "0.1", "--seed", seed]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gcflag.__file__)))
    res = subprocess.run([sys.executable, "-W", "default", "-m", "gcflag.cli", *argv], env=env, capture_output=True, text=True)
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: continuation lost the branch"), res.stderr


def test_critical_command_continues_once(capsys, monkeypatch):
    # the critical points and the positive minimum share one continuation
    calls = []
    valuate = gcflag.potential.critical_valuation

    def counted(pot, points):
        calls.append(points)
        return valuate(pot, points)

    monkeypatch.setattr(gcflag.potential, "critical_valuation", counted)
    code, out = run(capsys, "critical", "--flag", "2|4", "--lambda", "1,1,-1,-1")
    assert code == 0
    assert len(calls) == 1
    assert len(calls[0]) == json.loads(out)["critical_count"] + 1 == 5


def test_critical_command_reports_solutions_outside_the_torus(capsys):
    # full flags: the Toda level set has n! points, 4 of them outside the
    # torus at (3,1,-1,-3); partial flags have no such field
    code, out = run(capsys, "critical", "--flag", "1,2,3|4", "--lambda", "3,1,-1,-3")
    doc = json.loads(out)
    assert code == 0 and (doc["critical_count"], doc["outside_torus"]) == (20, 4)
    assert list(doc)[:7] == ["flag", "lambda", "T", "laurent", "critical_count", "cohomology_rank", "outside_torus"]
    code, out = run(capsys, "critical", "--flag", "2|4", "--lambda", "1,1,-1,-1")
    assert code == 0 and "outside_torus" not in json.loads(out)


def test_critical_command_rational_lambda(capsys):
    code, out = run(capsys, "critical", "--flag", "1,2|3", "--lambda", "2,1/2,-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["critical_count"] == doc["cohomology_rank"] == 6
    assert all(p["nondegenerate"] for p in doc["critical"])
    assert doc["positive_real_minimum"]["interior"] is True


def test_toda_command(capsys):
    code, out = run(capsys, "toda", "--flag", "1,2|3", "--lambda", "2,0,-2")
    assert code == 0
    doc = json.loads(out)
    assert doc["critical_count"] == 6
    assert doc["max_residual"] < 1e-6


def test_verify_suites(capsys):
    code, out = run(capsys, "verify", "--suite", "polytope")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_toda_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "toda", "--samples", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_verify_toda_suite_n4(capsys):
    # sampled through the GC map, not by rejection from the bounding box
    code, out = run(capsys, "verify", "--suite", "toda", "--n", "4", "--samples", "200")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_all_runs_the_acceptance_criteria(capsys):
    import test_acceptance
    from gcflag.criteria import CRITERIA

    code, out = run(capsys, "verify", "--suite", "all")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    tests = {n for n in vars(test_acceptance) if n.startswith("test_criterion_")}
    assert {"test_criterion_" + c["name"] for c in doc["checks"]} == tests
    assert len(doc["checks"]) == len(CRITERIA) == 13


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_refuses_samples_below_one(capsys, samples):
    code = main(["verify", "--suite", "system", "--samples", samples])
    err = capsys.readouterr()
    assert code == 2
    assert "--samples must be at least 1" in err.err and err.out == ""


def test_verify_refuses_options_no_criterion_takes(capsys):
    # the polytope suite has no sampled, flag- or n-narrowed criterion
    code = main(["verify", "--suite", "polytope", "--flag", "2|4", "--samples", "5", "--n", "7"])
    err = capsys.readouterr()
    assert code == 2 and err.out == ""
    assert "no criterion of suite polytope takes --flag, --n, --samples" in err.err


@pytest.mark.parametrize("n", ["0", "1"])
def test_verify_refuses_n_below_two(capsys, n):
    code = main(["verify", "--suite", "toda", "--n", n])
    err = capsys.readouterr()
    assert code == 2
    assert "--n must be at least 2" in err.err and err.out == ""


def test_verify_refuses_unknown_suite(capsys):
    code = main(["verify", "--suite", "bogus"])
    err = capsys.readouterr()
    assert code == 2
    assert "unknown suite 'bogus'" in err.err and err.out == ""


def test_potential_command_2_4_6(capsys):
    code, out = run(capsys, "potential", "--flag", "2,4|6", "--lambda", "3,3,0,0,-3,-3")
    assert code == 0
    assert len(json.loads(out)["terms"]) == 20


def test_exit_code_invalid_input(capsys):
    # non-decreasing lambda is a usage error: exit code 2
    code = main(["polytope", "--flag", "1,2|3", "--lambda", "0,1,2"])
    assert code == 2
    # malformed flag string
    code = main(["polytope", "--flag", "bogus", "--lambda", "2,0,-2"])
    assert code == 2
    # T outside (0, 1)
    code = main(["critical", "--flag", "1,2|3", "--lambda", "2,0,-2", "--T", "7"])
    assert code == 2


@pytest.mark.parametrize("command", ["polytope", "potential", "critical"])
def test_zero_dimensional_flag_refused(capsys, command):
    # the flag type |3 pins every pattern entry: its polytope is a point
    code = main([command, "--flag", "|3", "--lambda", "1,1,1"])
    err = capsys.readouterr()
    assert code == 2 and err.out == ""
    assert "polytope must be at least one-dimensional" in err.err


def test_exit_code_toda_partial_flag(capsys):
    code = main(["toda", "--flag", "2|4", "--lambda", "1,1,-1,-1"])
    assert code == 2


def test_exact_commands_do_not_import_numpy():
    # gc polytope and gc potential are exact: numpy loads only on first
    # numeric use.  Every layer module is registered with gcflag.cli, but
    # runs only when a command uses it; a lazy module's type is not
    # ModuleType until then, and asking for its type does not run it
    script = """
import sys, types
from gcflag.cli import main
layers = ("polytopes", "exactla", "potential", "system", "degeneration", "toda")
assert all("gcflag." + m in sys.modules for m in layers)

def ran(m):
    return type(sys.modules["gcflag." + m]) is types.ModuleType

for cmd in ("polytope", "potential"):
    assert main([cmd, "--flag", "1,2,3|4", "--lambda", "3,1,-1,-3", "--out", "/dev/null"]) == 0
    assert ran("polytopes") and ran("potential") == (cmd == "potential"), cmd
    assert not any(map(ran, ("system", "degeneration", "toda"))), cmd
    assert "dataclasses" not in sys.modules and "inspect" not in sys.modules, cmd
assert "numpy.linalg" not in sys.modules, "numpy was loaded"
"""
    src = os.path.dirname(os.path.dirname(gcflag.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_numeric_commands_do_not_import_numpy_random():
    # the start phases come from the standard library's random, so gc
    # critical and gc toda never load numpy.random, nor the secrets module
    # (and hashlib's OpenSSL) that it imports.  The full-flag route of gc
    # critical lives in the potential layer, so the Toda layer runs only
    # for gc toda
    script = """
import sys, types
from gcflag.cli import main
for cmd in ("critical", "toda"):
    assert main([cmd, "--flag", "1,2,3|4", "--lambda", "5,2,0,-4", "--out", "/dev/null"]) == 0, cmd
    ran = type(sys.modules["gcflag.toda"]) is types.ModuleType
    assert ran == (cmd == "toda"), cmd
assert "numpy.linalg" in sys.modules
loaded = [m for m in ("numpy.random", "secrets") if m in sys.modules]
assert not loaded, loaded
"""
    src = os.path.dirname(os.path.dirname(gcflag.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_layers_import_one_way():
    # every relative import, at module level and inside functions: the
    # modules import one another with no loop, and none imports a private
    # name of another
    graph, private = {}, []
    for path in glob.glob(os.path.join(os.path.dirname(gcflag.__file__), "*.py")):
        name = os.path.basename(path)[:-3]
        graph[name] = set()
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            if node.module is None:  # from . import layer
                graph[name].update(a.name for a in node.names)
            else:
                graph[name].add(node.module)
                private += [name + ": " + node.module + "." + a.name for a in node.names if a.name.startswith("_")]
    assert {"potential", "toda"} <= set(graph)
    list(TopologicalSorter(graph).static_order())  # CycleError names a loop
    assert not private, private
