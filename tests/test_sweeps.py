import importlib.util
import json
from pathlib import Path

from thetafock import errors, verify

ROOT = Path(__file__).resolve().parent.parent
G1R1_FILE = str(ROOT / "problems" / "g1_r1.json")

_spec = importlib.util.spec_from_file_location("sweeps_run", ROOT / "sweeps" / "run.py")
sweeps = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweeps)


def test_sweep_records_each_failing_seed(tmp_path, monkeypatch):
    # a failing outcome and a raise are each recorded with their seed; the
    # shapes run on their own seed range
    asked = []

    def run_suite(config, suite, seed=0):
        asked.append((config.g, config.r, suite, seed))
        if seed == 4:
            raise errors.NodeBudgetExceeded("too big")
        return [verify.PropertyOutcome("odd", passed=seed % 2 == 0, defect=0.0, tolerance=0.0)]

    monkeypatch.setattr(verify, "run_suite", run_suite)
    out = tmp_path / "sweep.json"
    assert sweeps.main(["--suite", "theta", "--seeds", "0:6", "--problems", G1R1_FILE,
                        "--shape", "2,1", "--shape-seeds", "2:4", "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert [(run["input"], run["seeds"]) for run in runs] == [
        ("problems/g1_r1.json", [0, 5]), ("random_config(2, 1)", [2, 3])]
    assert runs[0]["failures"] == [
        {"seed": 1, "outcomes": ["odd"]}, {"seed": 3, "outcomes": ["odd"]},
        {"seed": 4, "exception": "NodeBudgetExceeded: too big"}, {"seed": 5, "outcomes": ["odd"]}]
    assert runs[1]["failures"] == [{"seed": 3, "outcomes": ["odd"]}]
    assert asked[-2:] == [(2, 1, "theta", 2), (2, 1, "theta", 3)]


def test_sweep_runs_the_suites(tmp_path):
    out = tmp_path / "sweep.json"
    sweeps.main(["--suite", "geometry", "--suite", "bounds", "--seeds", "0:2",
                 "--problems", G1R1_FILE, "--out", str(out)])
    record = json.loads(out.read_text())
    assert [run["suite"] for run in record["runs"]] == ["geometry", "bounds"]
    assert all(run["failures"] == [] for run in record["runs"])
