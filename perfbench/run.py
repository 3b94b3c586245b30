"""thetafock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ./src).  Each
workload runs in a fresh worker process, a closed loop with one client:
each op starts when the previous one returns.  With --trace 0 the last
stdout line carries the end-to-end metrics; set-up time is the median of
SETUP_REPEATS fresh-process set-ups taken before and after the timed run.  With --trace 1 one worker runs the
ops untraced, then again with span wrappers installed, and the last line
carries the per-layer metrics of perfbench/layers.json.  Full results,
the environment record and the spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
THREADS_ENV = "THETAFOCK_THREADS"
SETUP_REPEATS = 7
DEADLINE_S = 170.0

WORKLOAD_NAMES = ("norms-oracle", "reproducing-oracle", "kernel-points", "cli-verbs")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["metrics"]}


# ---------------------------------------------------------------------------
# worker side


def _import_package() -> float:
    """Import thetafock from ./src (never an installed copy); returns seconds."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import thetafock

    elapsed = time.perf_counter() - start
    if not os.path.abspath(thetafock.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"thetafock imported from {thetafock.__file__}, not {SRC}")
    return elapsed


def _make(name: str, seed: int, tag: str):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliVerbs:
        return cls(seed, os.path.join(OUT, f"cli-{os.getpid()}-{tag}"),
                   os.path.join(HERE, "cli_runner.py"))
    return cls(seed)


def _correct(loop, known_defect) -> bool:
    """No op missed its check; ops failed by NaN/inf/raise only at known-defect inputs."""
    return all(o.ok or (o.kind == "error" and known_defect[i]) for i, o in loop.outcomes)


def _known_defect_share(loop, known_defect) -> float:
    """Share of timed-op time spent on known-defect inputs (far-imaginary points)."""
    spent = sum(s for s, (i, _) in zip(loop.latencies, loop.outcomes) if known_defect[i])
    return spent / sum(loop.latencies)


def _failures(loop, limit: int = 5):
    seen = {}
    for i, o in loop.outcomes:
        if not o.ok:
            seen.setdefault((i, o.reason), None)
    return [f"op {i}: {reason}" for i, reason in list(seen)[:limit]]


def worker(args) -> dict:
    # NaN/overflow warnings from known-defect inputs are counted as failures instead.
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    import_s = _import_package()
    import harness

    wl = _make(args.workload, args.seed, "run")
    t0 = time.perf_counter()
    wl.setup()
    ready = time.perf_counter()
    result = {"setup_s": time.monotonic() - args.launch, "import_s": import_s,
              "setup_body_s": ready - t0}
    if args.worker == "setup":
        wl.close()
        return result
    wl.references()
    if args.trace:
        result.update(_traced(args, wl, import_s))
    else:
        loop = harness.Loop()
        loop.run(wl.ops, wl.checks, seconds=args.seconds)
        result.update(_loop_result(loop, wl))
    result["peak_rss_mb"] = harness.peak_rss_mb(children=args.workload == "cli-verbs")
    wl.close()
    return result


def _loop_result(loop, wl) -> dict:
    return dict(loop.figures(), attempted=loop.attempted, failed=loop.failed,
                correct=_correct(loop, wl.known_defect), failures=_failures(loop),
                passes=loop.attempted // len(wl.ops), ops_per_pass=len(wl.ops),
                known_defect_time_share=_known_defect_share(loop, wl.known_defect),
                meta=wl.meta, reduced=wl.reduced)


def _traced(args, wl, import_s) -> dict:
    """Alternate untraced and traced passes over the same ops; per-layer figures.

    The set-up is repeated once traced and once untraced, both after the
    worker's own (cold) set-up, so the overhead compares warm with warm.
    """
    import harness
    import spans

    tracer = spans.Tracer()

    def traced(fn):
        undo = spans.install(tracer)
        try:
            return fn()
        finally:
            spans.uninstall(undo)

    def setup_again(tag):
        other = _make(args.workload, args.seed, tag)
        start = time.perf_counter()
        other.setup()
        elapsed = time.perf_counter() - start
        other.close()
        if other.meta != wl.meta:
            raise RuntimeError("a repeated set-up generated different inputs")
        return elapsed

    setup_traced = traced(lambda: setup_again("traced"))
    setup_untraced = setup_again("untraced")
    ops = [tracer.wrap(spans.OP_SPAN, op) for op in wl.ops]
    plain, loop = harness.Loop(), harness.Loop()

    def on_op(k):
        tracer.op = k

    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        plain.run(wl.ops, wl.checks, passes=1)
        wl.set_traced(True)
        try:
            traced(lambda: loop.run(ops, wl.checks, on_op=on_op, passes=1))
        finally:
            wl.set_traced(False)
    if args.workload == "cli-verbs":
        _merge_child_spans(tracer, wl, loop.attempted)
    n = loop.attempted
    figures = _per_layer(tracer, setup_traced, loop.wall, n, import_s)
    figures["bench.untraced_wall_s"] = import_s + setup_untraced + plain.wall / n
    figures["bench.trace_overhead_s"] = figures["bench.traced_wall_s"] - figures["bench.untraced_wall_s"]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans,
                   "counters": {f"{p}:{k}": v for (p, k), v in tracer.counters.items()}}, fh)
    out = _loop_result(plain, wl)
    out.update(per_layer=figures, spans_file=os.path.relpath(path, ROOT),
               attempted=plain.attempted + n, failed=plain.failed + loop.failed,
               correct=out["correct"] and _correct(loop, wl.known_defect),
               traced_failures=_failures(loop), setup_traced_s=setup_traced,
               setup_untraced_s=setup_untraced)
    return out


def _merge_child_spans(tracer, wl, n_ops) -> None:
    """Attach each traced CLI child's spans under the op span that ran it."""
    import spans

    roots = {row[4]: i for i, row in enumerate(tracer.spans) if row[0] == spans.OP_SPAN}
    for k in range(n_ops):
        with open(wl.trace_file(k), encoding="utf-8") as fh:
            child = json.load(fh)
        offset = len(tracer.spans)
        for name, start, end, parent, _op in child["spans"]:
            tracer.spans.append([name, start, end, roots[k] if parent < 0 else parent + offset, k])
        for name, value in child["counters"].items():
            tracer.counters[("ops", name)] += value


def _per_layer(tracer, setup_wall, ops_wall, n, import_s) -> dict:
    import spans

    phases = spans.summarize(tracer.spans)
    top = {"setup": 0.0, "ops": 0.0}  # wall covered by top-level spans
    for name, start, end, parent, op in tracer.spans:
        if parent < 0:
            top["setup" if op < 0 else "ops"] += end - start

    def per_op(phase_setup, phase_ops):
        return phase_setup + phase_ops / n

    def selfs(match):
        return per_op(sum(v for k, v in phases["setup"].items() if match(k)),
                      sum(v for k, v in phases["ops"].items() if match(k)))

    def counter(name):
        return per_op(tracer.counters.get(("setup", name), 0.0),
                      tracer.counters.get(("ops", name), 0.0))

    out = {}
    for name in per_layer_units():
        if name.endswith(".self_s"):
            prefix = name[: -len(".self_s")]
            if prefix in spans.LAYERS:
                out[name] = selfs(lambda k, p=prefix: spans.layer_of(k) == p)
            else:
                out[name] = selfs(lambda k, p=prefix: k == p)
    for name in ("theta.truncation_plan.calls", "theta.terms_kept", "theta.theta_eval_many.points",
                 "space.basis_values", "quadrature.build_grid.calls", "quadrature.nodes",
                 "quadrature.integrand_bytes"):
        out[name] = counter(name)
    kept = counter("theta.terms_kept")
    out["theta.useful_term_ratio"] = counter("theta.terms_minimal") / kept if kept else 0.0
    out["cli.import_s"] = import_s + selfs(lambda k: k == "cli.import")
    harness_s = per_op(setup_wall - top["setup"], ops_wall - top["ops"]) + selfs(
        lambda k: k == spans.OP_SPAN)
    counters_s = selfs(lambda k: k == spans.COUNTER_SPAN)
    traced_wall = import_s + setup_wall + ops_wall / n
    layers = sum(selfs(lambda k, p=p: spans.layer_of(k) == p) for p in spans.LAYERS)
    out["bench.harness_self_s"] = harness_s
    out["bench.counters_s"] = counters_s
    out["bench.traced_wall_s"] = traced_wall
    out["bench.library_frac"] = layers / traced_wall
    return out


# ---------------------------------------------------------------------------
# parent side


def _spawn(args, role: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop(THREADS_ENV, None)  # library defaults: serial quadrature
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--launch", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{role} worker for {args.workload} exceeded the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"{role} worker for {args.workload} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", choices=("run", "setup"), help=argparse.SUPPRESS)
    ap.add_argument("--launch", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, HERE)

    if args.worker:
        print(json.dumps(worker(args)))
        return 0

    if args.workload not in WORKLOAD_NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOAD_NAMES)}")
    if not os.path.isdir(os.path.join(SRC, "thetafock")):
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # Set-up samples are taken before and after the timed run, so one slow
    # spell of the machine cannot cover all of them.
    before = [] if args.trace else [_spawn(args, "setup", deadline)["setup_s"]
                                    for _ in range(SETUP_REPEATS // 2)]
    run = _spawn(args, "run", deadline)
    import harness

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "caller_THETAFOCK_THREADS": os.environ.get(THREADS_ENV),
              "environment": harness.environment(ROOT, "unset (library default: serial)")}
    if args.trace:
        units = per_layer_units()
        metrics = {k: _metric(run["per_layer"][k], u) for k, u in units.items()}
        correct = run["correct"]
    else:
        setups = before + [run["setup_s"]] + [_spawn(args, "setup", deadline)["setup_s"]
                                              for _ in range(SETUP_REPEATS - 1 - len(before))]
        run["setup_s"] = statistics.median(setups)
        run["setup_samples_s"] = setups
        metrics = {k: _metric(run[k], u) for k, u in END_TO_END.items()}
        correct = run["correct"]
    record.update(run)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    tail = run.get("op_tail_ms")
    tail_text = ("n/a (fewer than 20 ops)" if tail is None else
                 f"{tail['value']:.4g} ms = p{tail['percentile']:g} of {tail['samples']} ops, "
                 f"{tail['beyond']} beyond")
    print(f"perfbench {args.workload} seed={args.seed}: op_tail_ms {tail_text}; "
          f"fail_frac {run['fail_frac']:.4g} ({run['failed']}/{run['attempted']}); "
          f"details in {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": bool(correct), "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
