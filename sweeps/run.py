"""Property sweeps: verify suites over seed ranges, with every failing seed recorded.

    python3 sweeps/run.py --suite theta --suite bounds --seeds 0:200 \
        --shape 5,3 --shape 5,5 --shape-seeds 0:20 --out sweep.json

Run from the repository root (the package is imported from ./src).  Each
problem file (default problems/*.json) runs each suite at every seed of
--seeds, as `thetafock verify FILE --suite SUITE --seed SEED` does; each
shape g,r runs each suite at every seed s of --shape-seeds on
verify.random_config(numpy.random.default_rng([s, g, r]), g, r), seeded s.
A seed fails when an outcome does not pass or the suite raises.  The
record is one JSON document: per suite and input, the seeds run, each
failing seed with its failing outcome names or its exception, and the
time; then the total time.  The last stdout line is a one-line summary.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _seeds(text: str) -> range:
    """range(a, b) from "a:b"."""
    a, _, b = text.partition(":")
    return range(int(a), int(b))


def _shape(text: str) -> tuple:
    """(g, r) from "g,r"."""
    g, r = (int(v) for v in text.split(","))
    return g, r


def _failure(run, seed: int):
    """None when every outcome of run() passes, else what failed at the seed."""
    try:
        failed = [o.name for o in run() if not o.passed]
    except Exception as exc:  # a sweep records every raising seed and goes on
        return {"seed": seed, "exception": f"{type(exc).__name__}: {exc}"}
    return {"seed": seed, "outcomes": failed} if failed else None


def sweep(suites, problems, seeds: range, shapes, shape_seeds: range) -> dict:
    """The sweep record of each suite on each problem file and each random shape."""
    import numpy as np

    from thetafock import verify
    from thetafock.problem import build_config, load_problem

    inputs = [(os.path.relpath(path, ROOT), seeds,
               lambda s, path=path: build_config(load_problem(path))) for path in problems]
    inputs += [(f"random_config({g}, {r})", shape_seeds,
                lambda s, g=g, r=r: verify.random_config(np.random.default_rng([s, g, r]), g, r))
               for g, r in shapes]
    start, runs = time.perf_counter(), []
    for name, seed_range, config in inputs:
        for suite in suites:
            t0 = time.perf_counter()
            failures = [f for f in (
                _failure(lambda: verify.run_suite(config(s), suite, seed=s), s) for s in seed_range)
                if f is not None]
            runs.append({"suite": suite, "input": name,
                         "seeds": [seed_range.start, seed_range.stop - 1],
                         "failures": failures, "seconds": round(time.perf_counter() - t0, 3)})
    return {"environment": {"python": platform.python_version(), "numpy": np.__version__},
            "runs": runs, "seconds": round(time.perf_counter() - start, 3)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--suite", action="append", required=True,
                    help="a suite name of thetafock.verify.SUITES; repeat for several")
    ap.add_argument("--seeds", type=_seeds, default=range(0, 200),
                    help="seeds a:b (b excluded) for the problem files (default 0:200)")
    ap.add_argument("--problems", nargs="*", default=None,
                    help="problem files (default problems/*.json)")
    ap.add_argument("--shape", type=_shape, action="append", default=[],
                    help="a random_config shape g,r; repeat for several")
    ap.add_argument("--shape-seeds", type=_seeds, default=range(0, 20),
                    help="seeds a:b for the shapes (default 0:20)")
    ap.add_argument("--out", required=True, help="path of the JSON record")
    args = ap.parse_args(argv)
    sys.path.insert(0, SRC)
    problems = (sorted(glob.glob(os.path.join(ROOT, "problems", "*.json")))
                if args.problems is None else args.problems)
    record = sweep(args.suite, problems, args.seeds, args.shape, args.shape_seeds)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    failing = sum(len(run["failures"]) for run in record["runs"])
    print(f"{len(record['runs'])} runs, {failing} failing seeds, {record['seconds']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
