"""Run every workload and print all six end-to-end metrics with their units.

    python3 perfbench/report.py --seed N --seconds S [--trace] [--out FILE]

Each workload runs through run.py, in fresh processes of its own.  With
--trace the per-layer table follows.  --out writes the summary, with the
environment record, as JSON (the format of baseline_seed.json).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

KEEP = ("setup_s", "setup_samples_s", "import_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
        "peak_rss_mb", "fail_frac", "attempted", "failed", "correct", "failures", "passes",
        "ops_per_pass", "known_defect_time_share", "meta", "reduced", "per_layer",
        "setup_traced_s", "setup_untraced_s")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB", "fail_frac": "-"}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(run.OUT, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _tail(tail) -> str:
    if tail is None:
        return "n/a (<20 ops)"
    return f"{tail['value']:.4g} (p{tail['percentile']:g}, n={tail['samples']})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in run.WORKLOAD_NAMES:
        rec = run_one(workload, args.seed, args.seconds, 0)
        summary.setdefault("environment", rec["environment"])
        entry = {"untraced": {k: rec[k] for k in KEEP if k in rec}}
        if args.trace:
            traced = run_one(workload, args.seed, args.seconds, 1)
            entry["traced"] = {k: traced[k] for k in KEEP if k in traced}
        summary["workloads"][workload] = entry

    print(f"seed {args.seed}, {args.seconds:g} s per run; environment: "
          f"{json.dumps(summary['environment'])}")
    header = "".join(f"{name} [{unit}]".rjust(26) for name, unit in UNITS.items())
    print("workload".ljust(20) + header)
    for workload, entry in summary["workloads"].items():
        u = entry["untraced"]
        cells = [f"{u['setup_s']:.4g}", f"{u['ops_per_s']:.4g}", f"{u['op_p50_ms']:.4g}",
                 _tail(u["op_tail_ms"]), f"{u['peak_rss_mb']:.4g}",
                 f"{u['fail_frac']:.4g} ({u['failed']}/{u['attempted']})"]
        print(workload.ljust(20) + "".join(c.rjust(26) for c in cells))
        if u.get("reduced"):
            print(" " * 20 + f"reduced: {u['reduced']}")
    if args.trace:
        units = run.per_layer_units()
        names = list(summary["workloads"])
        print("\nper layer (one set-up + one average op)".ljust(44)
              + "".join(n.rjust(20) for n in names))
        for metric, unit in units.items():
            row = [summary["workloads"][n]["traced"]["per_layer"][metric] for n in names]
            print(f"{metric} [{unit}]".ljust(44) + "".join(f"{v:.4g}".rjust(20) for v in row))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
