import functools
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thetafock
from thetafock.cli import main
from thetafock.problem import load_problem

G1R1_FILE = str(Path(__file__).resolve().parent.parent / "problems" / "g1_r1.json")
G2R1_FILE = str(Path(__file__).resolve().parent.parent / "problems" / "g2_r1.json")
G3R2_FILE = str(Path(__file__).resolve().parent.parent / "problems" / "g3_r2.json")
G2R0_FILE = str(Path(__file__).resolve().parent.parent / "problems" / "g2_r0.json")
G2R2_FILE = str(Path(__file__).resolve().parent.parent / "problems" / "g2_r2.json")

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


def test_validate_failing_entry_is_property_failure(tmp_path):
    # isotropic to within the form tolerance, but the character fails the
    # cocycle check: one entry with pass false makes the verdict
    problem = {"g": 2, "r": 2, "nu": 1000.0, "H": [[1, 0], [0, 1]],
               "omegas": [[1, 0], [[0, 5e-11], 1]], "alpha": [0.1, 0.2]}
    path = write(tmp_path, problem)
    code, doc = run(tmp_path, "validate", path)
    assert code == 4
    assert doc.pop("timings").keys() == {"wall_seconds"}
    rdq = doc["results"][3]
    assert rdq.pop("value") == pytest.approx(2.0e-7, rel=1e-6)
    assert doc == {
        "command": "validate",
        "config_digest": load_problem(path).digest,
        "status": "property-failure",
        "flags": {},
        "results": [
            {"name": "hermitian", "value": True, "pass": True},
            {"name": "positive_definite", "value": True, "pass": True},
            {"name": "isotropic", "value": True, "pass": True},
            {"name": "rdq_character", "pass": False, "worst_pair": [[2, 0], [0, 2]]},
            {"name": "B", "value": [[1.0, 0.0], [0.0, 1.0]]},
            {"name": "det_B", "value": 1.0},
            {"name": "B_inv", "value": [[1.0, 0.0], [0.0, 1.0]]},
            {"name": "complement_basis", "value": []},
            {"name": "ambient_measure_factor", "value": 1.0},
        ],
    }


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


@pytest.mark.parametrize("flags", [["--n-max", "99999999999"]], ids=["n-max"])
def test_oversized_norms_request_is_budget_failure(tmp_path, capsys, flags):
    # it asked numpy for terabytes and ended in a MemoryError traceback
    code, doc = run(tmp_path, "norms", G1R1_FILE, *flags)
    assert code == 3 and capsys.readouterr().err == ""
    assert doc["status"] == "budget-failure"
    assert result(doc, "budget")["value"] == "NodeBudgetExceeded"


def test_norms_term_matrices_over_the_byte_cap_is_budget_failure(tmp_path):
    # N = 10,011 indices (|k| <= 140 at g - r = 2) pass the battery's entry
    # count, and at r = 0 their grid is sized by degree alone (141 nodes);
    # the term matrices would take 3.2 GB, over a 3 GB address space.  Their
    # bytes are refused before anything that size is built
    cap = 3 * 10**9
    src = str(Path(thetafock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out_file = tmp_path / "result.json"
    out = subprocess.run(
        [sys.executable, "-m", "thetafock.cli", "norms", G2R0_FILE, "--k-max", "140",
         "--out", str(out_file)],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr
    doc = json.loads(out_file.read_text())
    assert doc["status"] == "budget-failure"
    assert result(doc, "budget")["value"] == "NodeBudgetExceeded"
    assert "bytes" in result(doc, "budget")["message"]


def test_verify_reference_over_budget_is_budget_failure(tmp_path, monkeypatch):
    # the kernel series counts its indices x points (150 x 6 here) against
    # the work budget; on a (4, 4) grid the grid and inner products fit in it
    Q = thetafock.quadrature
    monkeypatch.setattr(Q, "build_grid",
                        functools.partial(Q.build_grid, compact_nodes=4, unbounded_nodes=4))
    monkeypatch.setattr(Q, "_WORK_BUDGET", 300)
    code, doc = run(tmp_path, "verify", G2R1_FILE, "--suite", "reproducing")
    assert code == 3
    assert doc["status"] == "budget-failure"
    assert result(doc, "budget")["value"] == "NodeBudgetExceeded"
    assert "kernel series" in result(doc, "budget")["message"]


def test_unbounded_nodes_past_the_hermite_range_run(tmp_path, monkeypatch):
    # within the budget, 10,000 fine unbounded nodes were refused because
    # numpy's Hermite weights overflow there; the lattice axes now take the
    # trapezoid rule and the Fock rule stays at its cap, so the battery runs
    monkeypatch.setattr(thetafock.quadrature, "unbounded_nodes", lambda *args: 5000)
    code, doc = run(tmp_path, "norms", G1R1_FILE)
    assert code == 0 and doc["status"] == "ok"
    assert result(doc, "grid_nodes")["value"] == [32, 5000]
    assert doc["results"] and all(r.get("pass", True) for r in doc["results"])


def test_norms_grid_is_sized_by_the_family(tmp_path, monkeypatch):
    # |n| <= 8 asks the lattice s-axes for |s| <= 26.2 (106 nodes); the
    # guessed (32, 48) grid kept 6.4e-9 here.  |n| <= 10 asks for 31.2, past
    # the reach of the rule, and is refused before any rule is built
    code, doc = run(tmp_path, "norms", G1R1_FILE, "--n-max", "8", "--k-max", "0")
    assert code == 0 and result(doc, "grid_nodes")["value"] == [32, 106]
    assert max(r["rel_defect"] for r in doc["results"] if "rel_defect" in r) <= 1e-13
    monkeypatch.setattr(thetafock.quadrature, "_rules", lambda *a: pytest.fail("a rule was built"))
    code, doc = run(tmp_path, "norms", G1R1_FILE, "--n-max", "10", "--k-max", "0")
    assert code == 3 and doc["status"] == "budget-failure"
    assert result(doc, "budget")["value"] == "GridTooCoarse"
    assert "31.2" in result(doc, "budget")["message"]


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


def test_kernel_symmetry_is_measured_on_the_value_scale(tmp_path):
    # |K(u, v)| = 6.1e4: K(u, v) and conj K(v, u) differ by rounding alone,
    # 2.2e-10, above 2 tol in absolute terms but 3.6e-15 of the value
    code, doc = run(tmp_path, "kernel", G3R2_FILE, "--u=1.8,1.7", "--u=1.8,1.6", "--u=0.5,-0.4",
                    "--v=-0.6,-0.2", "--v=0.7,-0.6", "--v=1.6,-0.3")
    assert code == 0 and doc["status"] == "ok"
    entry = result(doc, "hermitian_symmetry_defect")
    assert entry["pass"]
    assert entry["value"] <= 1e-13 * abs(complex(*result(doc, "kernel")["value"]))


def test_norms_table(tmp_path):
    code, doc = run(tmp_path, "norms", write(tmp_path, G1R1), "--n-max", "1", "--k-max", "0")
    assert code == 0
    assert result(doc, "grid_nodes")["value"] == [32, 48]  # the family's reach is below 48's
    rows = [e for e in doc["results"] if e["name"].startswith("norm_sq")]
    assert len(rows) == 3
    assert all(r["pass"] for r in rows)
    center = result(doc, "norm_sq[n=[0],k=[]]")
    assert center["value"] == pytest.approx(math.sqrt(0.5), rel=1e-10)


def test_norms_property_failure_with_tiny_grid(tmp_path, monkeypatch):
    build_grid = thetafock.quadrature.build_grid
    monkeypatch.setattr(thetafock.quadrature, "build_grid",
                        lambda config, **_: build_grid(config, compact_nodes=3, unbounded_nodes=4))
    code, doc = run(tmp_path, "norms", write(tmp_path, G1R1), "--n-max", "2", "--k-max", "0")
    assert code == 4
    assert doc["status"] == "property-failure"
    assert result(doc, "grid_nodes")["value"] == [3, 4]


def test_verify_geometry_and_theta(tmp_path):
    path = write(tmp_path, G2R1)
    code, doc = run(tmp_path, "verify", path, "--suite", "geometry")
    assert code == 0
    assert all(entry["pass"] for entry in doc["results"])
    code, doc = run(tmp_path, "verify", path, "--suite", "theta", "--seed", "5")
    assert code == 0
    # the flags the verb reads are recorded, defaults included
    assert doc["flags"] == {"suite": "theta", "seed": 5}


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


def test_spaced_negative_component(tmp_path):
    # '--v -0.3,0.1' is a value, as '--v=-0.3,0.1' is
    u = ["--u", "0.1,0.2", "--u", "0.3"]
    code1, doc1 = run(tmp_path, "kernel", G2R1_FILE, *u, "--v", "-0.3,0.1", "--v", "0,0.5")
    code2, doc2 = run(tmp_path, "kernel", G2R1_FILE, *u, "--v=-0.3,0.1", "--v", "0,0.5")
    assert code1 == code2 == 0
    doc1.pop("timings")
    doc2.pop("timings")
    assert json.dumps(doc1) == json.dumps(doc2)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("z, recorded", [
    ("nan", ["nan", 0.0]), ("-inf", ["-inf", 0.0]), ("0,inf", [0.0, "inf"]),
], ids=["nan", "-inf", "0,inf"])
def test_non_finite_point_is_validation_failure(tmp_path, z, recorded):
    code, doc = run(tmp_path, "theta", G1R1_FILE, "--z", z)
    assert code == 2 and doc["status"] == "validation-failure"
    assert "finite" in result(doc, "invariant")["message"]
    # the document is strict JSON: a non-finite number is written as a string
    text = (tmp_path / "result.json").read_text()
    assert json.loads(text, parse_constant=_reject_constant)["flags"]["z"] == [recorded]


@pytest.mark.parametrize("path", [G2R0_FILE, G2R2_FILE], ids=["g2_r0", "g2_r2"])
def test_degenerate_rank_files(tmp_path, path):
    # r = 0 (the classical Fock-Bargmann space) and r = g run every verb
    problem = load_problem(path)
    z = ["--z=0.1,0.2"] * problem.r
    u = ["--u=0.1,0.2", "--u=0.3,-0.1"]
    v = ["--v=-0.3,0.1", "--v=0,0.5"]
    for verb, *flags in (["validate"], ["theta", *z], ["kernel", *u, *v], ["norms"],
                         ["verify", "--suite", "all"]):
        code, doc = run(tmp_path, verb, path, *flags)
        assert code == 0 and doc["status"] == "ok", (verb, doc)
        assert all(entry.get("pass", True) for entry in doc["results"]), verb


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


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "1e400"])
def test_non_finite_nu_is_parse_error(tmp_path, capsys, nu):
    # a NaN nu used to reach the theta planner as a NaN budget (exit 3)
    bad = dict(G1R1, nu=nu)
    assert main(["theta", write(tmp_path, bad), "--z", "0.1"]) == 1
    assert "parse error: nu:" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["1e-10", None, True, math.nan, math.inf, -1, 0],
                         ids=["str", "null", "true", "nan", "inf", "-1", "0"])
def test_bad_form_tolerance_is_parse_error(tmp_path, capsys, form):
    # a string or null used to end in a TypeError traceback, NaN to switch
    # every form check off, -1 to report H[0][0] as not its own conjugate
    bad = dict(G1R1, H=[[[-1, 0]]], tolerances={"form": form})
    assert main(["validate", write(tmp_path, bad)]) == 1
    assert "parse error: tolerances.form:" in capsys.readouterr().err


@pytest.mark.parametrize("extra, where", [
    ({"Alpha": [0.3]}, "Alpha"),
    ({"tolerances": {"Form": 1e-3}}, "tolerances.Form"),
], ids=["top-level", "tolerances"])
def test_unknown_key_is_parse_error(tmp_path, capsys, extra, where):
    # a misspelled optional key used to run with that key's default
    bad = dict(G1R1, **extra)
    assert main(["theta", write(tmp_path, bad), "--z", "0.1"]) == 1
    assert capsys.readouterr().err.startswith(f"parse error: {where}: unknown key")


def test_form_tolerance_is_read(tmp_path):
    # a finite positive form tolerance still sets the validation scale:
    # H = [[1 + 1e-6 i]] is hermitian within 1e-3, not within the default
    near = dict(G1R1, H=[[[1, 1e-6]]])
    assert run(tmp_path, "validate", write(tmp_path, near))[0] == 2
    loose = dict(near, tolerances={"form": 1e-3})
    assert run(tmp_path, "validate", write(tmp_path, loose))[0] == 0


def test_vector_file_reference(tmp_path):
    zfile = tmp_path / "z.json"
    zfile.write_text(json.dumps([[0.25, 0.5]]))
    code, doc = run(
        tmp_path, "theta", write(tmp_path, G1R1), "--z", f"@{zfile}", "--tol", "1e-10"
    )
    assert code == 0
    assert doc["flags"]["z"] == [[0.25, 0.5]]


@pytest.mark.parametrize("content", [[True], ["1+2j"], "7", [[1, 2, 3]], [0.1, 0.2]],
                         ids=["bool", "string-entry", "string", "triple", "two-entries"])
def test_vector_file_follows_problem_rules(tmp_path, capsys, content):
    # a vector file follows the problem-file rules: a bool or a string is not
    # a number, a string is not a list, and a pair has two entries
    zfile = tmp_path / "z.json"
    zfile.write_text(json.dumps(content))
    assert main(["theta", G1R1_FILE, "--z", f"@{zfile}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: --z") and "Traceback" not in err


@pytest.mark.parametrize("field, value, where", [
    ("H", [[True]], "H[0][0]"),
    ("omegas", [[[True, False]]], "omegas[0][0]"),
    ("alpha", [False], "alpha[0]"),
    ("H", [[[1, 0], [0, 0]]], "H[0]"),
    ("H", [[10**400]], "H[0][0]"),
], ids=["H-bool", "omega-bools", "alpha-bool", "H-row-length", "H-int-past-double"])
def test_bad_array_entry_is_parse_error(tmp_path, capsys, field, value, where):
    bad = dict(G1R1, **{field: value})
    assert main(["validate", write(tmp_path, bad)]) == 1
    assert capsys.readouterr().err.startswith(f"parse error: {where}:")


def test_wrong_vector_length(tmp_path, capsys):
    assert main(["theta", write(tmp_path, G2R1), "--z", "0", "--z", "1"]) == 1
    assert "--z" in capsys.readouterr().err


@pytest.mark.parametrize("verb, flags", [
    ("theta", ["--z", "0.1", "--tol", "0"]),
    ("kernel", ["--u", "0", "--v", "0", "--tol", "-1"]),
    ("theta", ["--z", "0.1", "--tol", "nan"]),
    ("norms", ["--n-max", "nan"]),
    ("norms", ["--k-max", "1e3"]),
    ("verify", ["--seed", "inf"]),
    ("theta", ["--z", "0.1", "--tol", "inf"]),
    ("kernel", ["--u", "0", "--v", "0", "--tol", "inf"]),
    ("theta", ["--z", "0.1", "--max-radius", "inf"]),
    ("theta", ["--z", "0.1", "--max-radius", "nan"]),
    ("theta", ["--z", "0.1", "--max-radius", "0"]),
    ("theta", ["--z", "0.1", "--max-radius", "-1"]),
    ("norms", ["--n-max", "-1"]),
    ("norms", ["--k-max", "-1"]),
    ("norms", ["--n-max", "1.5"]),
    ("verify", ["--seed", "-1"]),
    ("verify", ["--seed", "1e3"]),
    ("norms", ["--k-max", "+2"]),
    ("theta", ["--z", "1,2,3"]),
])
def test_bad_numeric_flag_is_usage_error(tmp_path, capsys, verb, flags):
    assert main([verb, write(tmp_path, G1R1)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert flags[-2] in err  # the message names the flag it rejects


@pytest.mark.parametrize("verb, flags", [
    ("validate", ["--tol", "1e-3"]),
    ("kernel", ["--u", "0", "--v", "0", "--max-radius", "2"]),
    ("norms", ["--seed", "1"]),
    ("theta", ["--z", "0.1", "--n-max", "2"]),
    ("norms", ["--nodes", "32,48"]),  # the grids are sized by their families
    ("verify", ["--nodes", "32,48"]),
])
def test_flag_the_verb_does_not_read_is_usage_error(tmp_path, capsys, verb, flags):
    assert main([verb, write(tmp_path, G1R1)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "unrecognized arguments" in err


def test_verify_orthogonality_g3_file(tmp_path):
    code, doc = run(tmp_path, "verify", G3R2_FILE, "--suite", "orthogonality")
    assert code == 0 and doc["status"] == "ok"
    assert all(entry["pass"] for entry in doc["results"])


def test_validate_all_zero_generators(tmp_path):
    # a clean validation failure: exit 2, no warning and no traceback
    bad = dict(G1R1, omegas=[[[0, 0]]])
    path = write(tmp_path, bad)
    src = str(Path(thetafock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out_file = tmp_path / "result.json"
    out = subprocess.run([sys.executable, "-W", "error", "-m", "thetafock.cli", "validate", path,
                          "--out", str(out_file)], env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 2, out.stderr
    assert "Warning" not in out.stderr and "Traceback" not in out.stderr
    doc = json.loads(out_file.read_text())
    assert doc["status"] == "validation-failure"
    assert result(doc, "invariant")["value"] == "NotIndependent"


def test_import_leaves_scipy_out():
    # the library and CLI need numpy only; scipy is a test-time reference
    src = str(Path(thetafock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, thetafock, thetafock.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
