import json
import math
from pathlib import Path

import numpy as np
import pytest

from thetafock.cli import main
from thetafock.problem import load_problem

G1R1_FILE = str(Path(__file__).resolve().parent.parent / "problems" / "g1_r1.json")

G1R1 = {
    "g": 1,
    "r": 1,
    "nu": math.pi,
    "H": [[[1, 0]]],
    "omegas": [[[1, 0]]],
    "alpha": [0.0],
}

G2R1 = {
    "g": 2,
    "r": 1,
    "nu": math.pi,
    "H": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "omegas": [[[1, 0], [0, 0]]],
    "alpha": [0.3],
}

G1R0 = {"g": 1, "r": 0, "nu": math.pi, "H": [[[1, 0]]], "omegas": [], "alpha": []}


def write(tmp_path, doc, name="problem.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(tmp_path, *argv):
    out = tmp_path / "result.json"
    code = main(list(argv) + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def result(doc, name):
    for entry in doc["results"]:
        if entry["name"] == name:
            return entry
    raise KeyError(name)


def test_validate_ok(tmp_path):
    code, doc = run(tmp_path, "validate", write(tmp_path, G2R1))
    assert code == 0
    assert doc["status"] == "ok"
    assert result(doc, "det_B")["value"] == pytest.approx(1.0)
    assert result(doc, "rdq_character")["pass"]


def test_validate_non_isotropic(tmp_path):
    bad = dict(G2R1)
    bad["r"] = 2
    bad["omegas"] = [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]
    bad["alpha"] = [0.3, 0.1]
    path = write(tmp_path, bad)
    code, doc = run(tmp_path, "validate", path)
    assert code == 2
    assert doc["status"] == "validation-failure"
    inv = result(doc, "invariant")
    assert inv["value"] == "NotIsotropic"
    assert "(0, 1)" in inv["message"]
    # every verb's failure document names the problem and its flags
    code, doc = run(tmp_path, "norms", path, "--n-max", "2")
    assert code == 2
    assert doc["config_digest"] == load_problem(path).digest
    assert doc["flags"] == {"n_max": 2, "k_max": 1}


def test_validate_malformed_row(tmp_path, capsys):
    bad = dict(G1R1)
    bad["H"] = [[[1, 0], [0, 0]]]  # one row, wrong width
    code = main(["validate", write(tmp_path, bad)])
    assert code == 1
    assert "H[0]" in capsys.readouterr().err


def test_theta_reference_value(tmp_path):
    code, doc = run(tmp_path, "theta", write(tmp_path, G1R1), "--z", "0", "--tol", "1e-12")
    assert code == 0
    value = result(doc, "theta")["value"]
    # F = 2i here, so the sum is sum_n exp(-2 pi n^2)
    brute = sum(math.exp(-2 * math.pi * n * n) for n in range(-10, 11))
    assert value[0] == pytest.approx(brute, abs=1e-12)
    assert result(doc, "tail_bound")["value"] <= 1e-12
    assert result(doc, "index_set_size")["value"] >= 1


def test_theta_r0(tmp_path):
    code, doc = run(tmp_path, "theta", write(tmp_path, G1R0), "--tol", "1e-10")
    assert code == 0
    assert result(doc, "theta")["value"] == [1.0, 0.0]


def test_theta_budget_failure(tmp_path):
    code, doc = run(
        tmp_path, "theta", write(tmp_path, G1R1),
        "--z", "0", "--tol", "1e-30", "--max-radius", "1.2",
    )
    assert code == 3
    assert doc["status"] == "budget-failure"
    assert result(doc, "budget")["value"] == "TailBoundUnreachable"


def test_theta_out_of_range(tmp_path):
    code, doc = run(tmp_path, "theta", G1R1_FILE, "--z=0.1,30")
    assert code == 3
    assert doc["status"] == "budget-failure"
    assert result(doc, "budget")["value"] == "ValueOutOfRange"
    # the failure document names the problem and the flags that failed
    assert doc["config_digest"] == load_problem(G1R1_FILE).digest
    assert doc["flags"]["z"] == [[0.1, 30.0]]


def test_kernel_out_of_range(tmp_path):
    path = str(Path(G1R1_FILE).parent / "g2_r1.json")
    code, doc = run(tmp_path, "kernel", path, "--u", "0", "--u", "20", "--v", "0", "--v", "20")
    assert code == 3
    assert doc["status"] == "budget-failure"
    assert result(doc, "budget")["value"] == "ValueOutOfRange"
    assert doc["config_digest"] == load_problem(path).digest
    assert doc["flags"] == {"tol": 1e-10}


def test_kernel_symmetry_spot_check(tmp_path):
    path = write(tmp_path, G2R1)
    code, doc = run(
        tmp_path, "kernel", path,
        "--u", "0.1,0.2", "--u", "0.3,-0.1", "--v", "0.2", "--v", "0.1,0.1",
    )
    assert code == 0
    assert result(doc, "hermitian_symmetry_defect")["pass"]


def test_norms_table(tmp_path):
    code, doc = run(
        tmp_path, "norms", write(tmp_path, G1R1), "--n-max", "1", "--k-max", "0",
        "--nodes", "16,32",
    )
    assert code == 0
    rows = [e for e in doc["results"] if e["name"].startswith("norm_sq")]
    assert len(rows) == 3
    assert all(r["pass"] for r in rows)
    center = result(doc, "norm_sq[n=[0],k=[]]")
    assert center["value"] == pytest.approx(math.sqrt(0.5), rel=1e-10)


def test_norms_property_failure_with_tiny_grid(tmp_path):
    code, doc = run(
        tmp_path, "norms", write(tmp_path, G1R1), "--n-max", "2", "--k-max", "0",
        "--nodes", "3,4",
    )
    assert code == 4
    assert doc["status"] == "property-failure"


def test_verify_geometry_and_theta(tmp_path):
    path = write(tmp_path, G2R1)
    code, doc = run(tmp_path, "verify", path, "--suite", "geometry")
    assert code == 0
    assert all(entry["pass"] for entry in doc["results"])
    code, doc = run(tmp_path, "verify", path, "--suite", "theta", "--seed", "5")
    assert code == 0


def test_verify_all_r0_file(tmp_path):
    code, doc = run(tmp_path, "verify", write(tmp_path, G1R0), "--suite", "all")
    assert code == 0
    assert all(entry["pass"] for entry in doc["results"])


def test_verify_deterministic_output(tmp_path):
    path = write(tmp_path, G1R1)
    _, doc1 = run(tmp_path, "verify", path, "--suite", "theta", "--seed", "3")
    _, doc2 = run(tmp_path, "verify", path, "--suite", "theta", "--seed", "3")
    doc1.pop("timings")
    doc2.pop("timings")
    assert json.dumps(doc1) == json.dumps(doc2)


def test_usage_error_exit_code(capsys):
    assert main(["theta"]) == 1  # missing file argument
    assert main(["frobnicate", "x.json"]) == 1
    capsys.readouterr()


def test_parse_error_missing_file(capsys):
    assert main(["validate", "/no/such/file.json"]) == 1
    assert "parse error" in capsys.readouterr().err


def test_parse_error_wrong_field_type(tmp_path, capsys):
    bad = dict(G1R1)
    bad["nu"] = "three"
    assert main(["validate", write(tmp_path, bad)]) == 1
    assert "nu" in capsys.readouterr().err


def test_vector_file_reference(tmp_path):
    zfile = tmp_path / "z.json"
    zfile.write_text(json.dumps([[0.25, 0.5]]))
    code, doc = run(
        tmp_path, "theta", write(tmp_path, G1R1), "--z", f"@{zfile}", "--tol", "1e-10"
    )
    assert code == 0
    assert doc["flags"]["z"] == [[0.25, 0.5]]


def test_wrong_vector_length(tmp_path, capsys):
    assert main(["theta", write(tmp_path, G2R1), "--z", "0", "--z", "1"]) == 1
    assert "--z" in capsys.readouterr().err


@pytest.mark.parametrize("verb, flags", [
    ("theta", ["--z", "0.1", "--tol", "0"]),
    ("kernel", ["--u", "0", "--v", "0", "--tol", "-1"]),
    ("theta", ["--z", "0.1", "--tol", "nan"]),
    ("norms", ["--nodes", "0,0"]),
    ("norms", ["--nodes", "16,0"]),
    ("verify", ["--nodes", "0"]),
])
def test_bad_numeric_flag_is_usage_error(tmp_path, capsys, verb, flags):
    assert main([verb, write(tmp_path, G1R1)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
