import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tsystems as ts
from tsystems import cli
from tsystems.errors import TSystemError


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    # the child process imports the checkout's tsystems, not an installed copy
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "tsystems.cli", *args], capture_output=True, text=True, env=env
    )


def test_certify_ect_fixture():
    r = run_cli("certify", "--family", "power:0,2,3", "--domain", "0.5,2", "--target", "ect")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["level"] == "ECT"


def test_certify_refuted_exit_code():
    r = run_cli(
        "certify", "--family", "monomial:0,1,3", "--domain", "0,1",
        "--target", "et", "--grid", "101",
    )
    assert r.returncode == 2
    out = json.loads(r.stdout)
    assert out["level"] == "none" and out["counterexample"]["nodes"] == [[0.0, 3]]


@pytest.mark.parametrize("target", ["ect", "et"])
def test_certify_fractional_exponents_at_zero_refuted(target):
    # x^0.5 has no derivative at 0: refuted at the node 0 of multiplicity 3
    r = run_cli("certify", "--family", "power:0,0.5,1.5", "--domain", "0,1", "--target", target)
    assert r.returncode == 2
    out = json.loads(r.stdout)
    assert out["level"] == "none" and out["counterexample"]["nodes"] == [[0.0, 3]]
    assert out["route"] == "theory"


def test_certify_grid_without_tuples_exit_1():
    # two points hold no T tuple of three: an error, not a vacuous pass
    r = run_cli("certify", "--family", "monomial:0,1,3", "--domain=-1,1", "--grid", "2")
    assert r.returncode == 1 and r.stdout == ""
    assert "holds no T tuple" in r.stderr and "Traceback" not in r.stderr


def test_decompose_power_alpha():
    r = run_cli(
        "decompose", "--mode", "pos_ab", "--family", "power:0,0.5",
        "--domain", "0,1", "--coeffs", "1,0",
    )
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["f_lower"]["coeffs"] == [-0.0, 1.0] or out["f_lower"]["coeffs"] == [0.0, 1.0]


def test_missing_problem_file_exit_1():
    r = run_cli("run", "/tmp/definitely_missing_problem.json")
    assert r.returncode == 1


def test_problem_file_round_trip(tmp_path):
    prob = {
        "schema_version": "1",
        "task": "certify",
        "payload": {"family": "power:0,2,3", "domain": "0.5,2", "target": "ect"},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(prob))
    r = run_cli("run", str(path))
    assert r.returncode == 0
    assert json.loads(r.stdout)["level"] == "ECT"


def test_bad_schema_version(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"schema_version": "2", "task": "certify", "payload": {}}))
    assert run_cli("run", str(path)).returncode == 1


def test_byte_identical_output():
    args = ("certify", "--family", "monomial:0,1,2", "--domain", "0,1", "--target", "t")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_moments_check_infeasible_exit_2():
    r = run_cli("moments-check", "--moments", "1,0,-1", "--variant", "hamburger")
    assert r.returncode == 2


def test_sparse_moments_check_feasible():
    # moments of the atom 0.5 with weight 1 over monomials 0..2 on [0,1]
    r = run_cli(
        "moments-check", "--family", "monomial:0,1,2", "--domain", "0,1",
        "--moments", "1,0.5,0.25",
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "feasible"


def test_decompose_plot_csv(tmp_path):
    plot = tmp_path / "dec.csv"
    r = run_cli(
        "decompose", "--mode", "pos_ab", "--family", "monomial:0,1,2",
        "--domain=-1,1", "--coeffs", "1,0,1", "--plot", str(plot), "--grid", "21",
    )
    assert r.returncode == 0
    with plot.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "f", "f_star", "f_upper_star"]
    assert len(rows) == 22
    # f = f_star + f_upper pointwise in the CSV
    for row in rows[1:]:
        x, f, fs, fu = map(float, row)
        assert abs(f - fs - fu) < 1e-9


def test_snake_cli():
    r = run_cli("snake", "--family", "monomial:0,1", "--domain=-1,1", "--g1=-1", "--g2=1")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert len(out["touch_points"]) == 2


def test_approx_cli():
    r = run_cli(
        "approx", "--family", "monomial:0,1", "--domain=-1,1",
        "--target-fn", "monomial:0,1,2", "--coeffs", "0,0,1",
    )
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert abs(out["deviation"] - 0.5) < 1e-9


def test_usage_error_exit_1():
    assert run_cli("decompose", "--mode", "bogus", "--family", "monomial:0,1",
                   "--domain", "0,1", "--coeffs", "1,1").returncode == 1
    assert run_cli().returncode == 1


DOC = Path(__file__).resolve().parent.parent / "docs" / "problem-file-v1.md"


def doc_examples():
    """The complete problem files among the JSON blocks of the schema doc."""
    out = []
    for block in re.findall(r"```json\n(.*?)```", DOC.read_text(), re.S):
        try:
            out.append(json.loads(block))
        except ValueError:  # the outline of the format
            pass
    return out


# (exit code, check of the JSON output) of each documented example, in order
DOC_EXPECTED = [
    (0, lambda o: o["level"] == "ECT"),
    (0, lambda o: o["poly"]["coeffs"] == pytest.approx([0.25, -1.0, 1.0])),
    (0, lambda o: o["converged"]
        and o["f_lower"]["coeffs"] == pytest.approx([2.0, -2 * math.sqrt(2.0), 1.0])),
    (0, lambda o: o["touch_points"] == [[-1.0, "lower"], [1.0, "upper"]]),
    (0, lambda o: o["deviation"] == pytest.approx(0.5)),
    (2, lambda o: o["all_psd"] is False),
    (2, lambda o: o["status"] == "infeasible"),
    (0, lambda o: len(o["atoms"]) == 2 and sum(w for _, w in o["atoms"]) == pytest.approx(1.0)),
    (0, lambda o: o["mesh_points"] == 2001),
    # max over theta of (x - theta)^2 at 0.3 over its integral: 123/83 at 0.915
    (0, lambda o: o["value"] == pytest.approx(123 / 83, rel=1e-12)),
]


@pytest.mark.parametrize("index", range(len(DOC_EXPECTED)))
def test_documented_problem_files(index, tmp_path, capsys):
    examples = doc_examples()
    assert len(examples) == len(DOC_EXPECTED)
    prob = examples[index]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(prob))
    code = cli.main(["run", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert out["task"] == prob["task"]
    expected_code, check = DOC_EXPECTED[index]
    assert code == expected_code
    assert check(out), out


@pytest.mark.parametrize("argv", [
    ["certify", "--domain", "0,1"],
    ["moments-recover", "--moments", "1,0.5"],
])
def test_missing_family_is_a_usage_error(argv, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "the following arguments are required: --family" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("problem", [
    [1, 2],
    {"schema_version": "1", "task": "certify", "payload": [1]},
    {"schema_version": "1", "task": 5, "payload": {}},
])
def test_malformed_problem_file_exit_1(problem, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    r = run_cli("run", str(path))
    assert r.returncode == 1
    assert r.stderr.startswith("cannot read problem file")
    assert "Traceback" not in r.stderr


def test_fractional_monomial_degree_exit_1(capsys):
    assert cli.main(["certify", "--family", "monomial:0,1.5,2", "--domain", "0,1"]) == 1
    assert "monomial degrees must be naturals" in capsys.readouterr().err


def test_schema_doc_names_every_task():
    headings = re.findall(r"^### (\S+)$", DOC.read_text(), re.M)
    assert sorted(headings) == sorted(cli.COMMANDS)


def _oracle_build_poly():
    fam = ts.monomial_family([0, 1, 2], ts.interval(0, 1))
    poly = ts.poly_from_zeros(fam, ts.NodeSet.of((0.5, 2)), sign="auto_nonneg")
    return {"poly": poly.to_dict(), "zeros": ts.count_zeros(poly, tol=1e-8).to_dict()}


def _oracle_optimize_ratio():
    fam = ts.monomial_family([0, 1, 2], ts.interval(0, 1))
    value, poly, top5 = ts.optimize_ratio(
        fam, ts.MomentFunctional((1, 0.3, 0.09), fam),
        ts.MomentFunctional((1, 0.5, 0.333), fam), sense="max", seed=2,
    )
    return {"value": value, "poly": poly.to_dict(),
            "top5": [[v, tag, list(theta)] for v, tag, theta in top5]}


def _oracle_smooth():
    _, report = ts.gaussian_smooth(ts.monomial_family([0, 1, 3], ts.interval(0, 1)),
                                   ts.KernelSpec("gaussian", 0.1, None, 64, 8.0),
                                   return_report=True)
    return {"sigma": 0.1, "panels": 64, "truncation": 8.0, "mesh_points": 301,
            "quadrature_error_estimate": report["quadrature_error_estimate"],
            "truncation_error_bound": report["truncation_error_bound"]}


def _error_of(call):
    with pytest.raises(TSystemError) as info:
        call()
    return {"error": str(info.value)}


_MON2 = ts.monomial_family([0, 1, 2], ts.interval(0, 1))
_LINE = ts.monomial_family([0, 1], ts.interval(-1, 1))

# (argv, the library's own result, exit code); the CLI adds task, and seed
# whenever --family is given
JSON_ORACLES = [
    (["certify", "--family", "power:0,2,3", "--domain", "0.5,2", "--target", "ect",
      "--seed", "4"],
     lambda: ts.certify(ts.power_family([0, 2, 3], ts.interval(0.5, 2)), "ECT", grid=2001,
                        seed=4).to_dict(), 0),
    (["certify", "--family", "monomial:0,1,3", "--domain", "0,1", "--target", "et",
      "--grid", "101"],
     lambda: ts.certify(ts.monomial_family([0, 1, 3], ts.interval(0, 1)), "ET",
                        grid=101).to_dict(), 2),
    (["build-poly", "--family", "monomial:0,1,2", "--domain", "0,1", "--nodes", "0.5:2",
      "--count"], _oracle_build_poly, 0),
    (["decompose", "--mode", "halfline_pos", "--family", "monomial:0,1,2", "--domain", "0,inf",
      "--coeffs", "2,-2,1"],
     lambda: ts.decompose_halfline(
         ts.SparsePoly((2.0, -2.0, 1.0), ts.monomial_family([0, 1, 2], ts.halfline(0))),
         "positive").to_dict(), 0),
    (["snake", "--family", "monomial:0,1", "--domain=-1,1", "--g1=-1", "--g2=1"],
     lambda: ts.snake(_LINE, -1.0, 1.0).to_dict(), 0),
    (["snake", "--family", "monomial:0,1", "--domain=-1,1", "--g1=1", "--g2=-1"],
     lambda: _error_of(lambda: ts.snake(_LINE, 1.0, -1.0)), 2),
    (["approx", "--family", "monomial:0,1", "--domain=-1,1", "--target-fn", "monomial:0,1,2",
      "--coeffs", "0,0,1"],
     lambda: ts.best_approx(_LINE, ts.SparsePoly(
         (0.0, 0.0, 1.0), ts.monomial_family([0, 1, 2], ts.interval(-1, 1)))).to_dict(), 0),
    (["moments-check", "--moments", "1,0,-1", "--variant", "hamburger"],
     lambda: ts.hankel_check([1, 0, -1], "hamburger", tol=1e-8), 2),
    (["moments-check", "--family", "monomial:0,1,2", "--domain", "0,1",
      "--moments", "1,0.5,0.25", "--seed", "1"],
     lambda: ts.sparse_feasibility(ts.MomentFunctional((1, 0.5, 0.25), _MON2), grid=2001,
                                   tol=1e-8, seed=1).to_dict(), 0),
    (["moments-recover", "--family", "monomial:0,1,2,3", "--domain", "0,1",
      "--moments", "1,0.5,0.3125,0.2265625"],
     lambda: ts.recover_atoms(ts.MomentFunctional(
         (1, 0.5, 0.3125, 0.2265625), ts.monomial_family([0, 1, 2, 3], ts.interval(0, 1))),
         grid=2001, tol=1e-8).to_dict(), 0),
    (["moments-recover", "--family", "monomial:0,1,2", "--domain", "0,1",
      "--moments", "1,0.5,0.1"],
     lambda: _error_of(lambda: ts.recover_atoms(ts.MomentFunctional((1, 0.5, 0.1), _MON2),
                                                grid=2001, tol=1e-8)), 2),
    (["smooth", "--family", "monomial:0,1,3", "--domain", "0,1", "--sigma", "0.1",
      "--grid", "301"],
     _oracle_smooth, 0),
    (["optimize-ratio", "--family", "monomial:0,1,2", "--domain", "0,1",
      "--numerator", "1,0.3,0.09", "--denominator", "1,0.5,0.333", "--seed", "2"],
     _oracle_optimize_ratio, 0),
]


@pytest.mark.parametrize("argv,oracle,code", JSON_ORACLES,
                         ids=[f"{i}-{argv[0]}" for i, (argv, _, _) in enumerate(JSON_ORACLES)])
def test_json_is_the_library_result(argv, oracle, code, capsys):
    assert cli.main(argv) == code
    out = json.loads(capsys.readouterr().out)
    # through JSON, as the CLI writes it: tuples read back as lists
    expected = dict(json.loads(json.dumps(oracle())), task=argv[0].replace("-", "_"))
    if "--family" in argv and "error" not in expected:
        expected["seed"] = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
    assert out == expected
