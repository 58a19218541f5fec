import csv
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tsystems import cli


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tsystems.cli", *args], capture_output=True, text=True
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
    rows = list(csv.reader(plot.open()))
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
