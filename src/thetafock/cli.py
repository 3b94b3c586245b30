"""Command-line front end.

Verbs: validate, theta, kernel, norms, verify.  Results are emitted as a
JSON result document on stdout (or --out).  Exit codes: 0 success,
1 usage or parse failure, 2 validation failure, 3 numerical-budget
failure (including a value outside the double range), 4 property failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import quadrature as Q
from . import space as S
from . import theta as T
from . import verify
from .errors import BudgetError, ParseError, ThetaFockError, ValidationError
from .geometry import ambient_measure_factor, check_rdq, coordinates
from .problem import ResultDocument, build_config, load_problem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_PROPERTY = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _component(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise _UsageError(f"cannot parse complex component {text!r}; use 're' or 're,im'")


def _vector(values, expected: int, flag: str) -> np.ndarray:
    """Repeated 're,im' flag values, or '@file.json' holding [re, im] pairs."""
    if values and len(values) == 1 and values[0].startswith("@"):
        path = values[0][1:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            comps = [complex(p[0], p[1]) if isinstance(p, list) else complex(p) for p in raw]
        except (OSError, json.JSONDecodeError, TypeError, IndexError, ValueError) as exc:
            raise ParseError(flag, f"cannot read vector file {path}: {exc}") from None
    else:
        comps = [_component(v) for v in (values or [])]
    if len(comps) != expected:
        raise _UsageError(f"{flag} needs {expected} components, got {len(comps)}")
    return np.array(comps, dtype=complex)


def _nodes_pair(text: str):
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) == 1:
        parts = [Q._DEFAULT_COMPACT_NODES] + parts
    if len(parts) != 2 or min(parts) < 1:
        raise _UsageError(f"--nodes expects 'compact,unbounded' counts >= 1, got {text!r}")
    return parts[0], parts[1]


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value > 0:
        raise _UsageError(f"--tol expects a positive number, got {text!r}")
    return value


def build_parser() -> _Parser:
    p = _Parser(prog="thetafock", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("file", help="problem file (JSON)")
        sp.add_argument("--out", help="write the result document here instead of stdout")
        sp.add_argument("--tol", type=_positive_float, default=1e-10)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--max-radius", type=float, default=None, dest="max_radius")
        sp.add_argument("--nodes", type=_nodes_pair, default=None,
                        help="quadrature node counts as 'compact,unbounded'")

    sp = sub.add_parser("validate", help="check all structural invariants")
    common(sp)

    sp = sub.add_parser("theta", help="evaluate the lattice theta function")
    common(sp)
    sp.add_argument("--z", action="append", default=None,
                    help="component 're[,im]' (repeat r times) or '@file.json'")

    sp = sub.add_parser("kernel", help="evaluate the reproducing kernel")
    common(sp)
    sp.add_argument("--u", action="append", default=None,
                    help="ambient component 're[,im]' (repeat g times) or '@file.json'")
    sp.add_argument("--v", action="append", default=None,
                    help="ambient component 're[,im]' (repeat g times) or '@file.json'")

    sp = sub.add_parser("norms", help="closed-form norms against the quadrature oracle")
    common(sp)
    sp.add_argument("--n-max", type=int, default=1, dest="n_max")
    sp.add_argument("--k-max", type=int, default=1, dest="k_max")

    sp = sub.add_parser("verify", help="run a named property suite")
    common(sp)
    sp.add_argument("--suite", default="all",
                    choices=sorted(verify.SUITES) + ["all"])
    return p


def _emit(doc: ResultDocument, out_path):
    text = doc.to_json() + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _start(args, doc: ResultDocument, **flags):
    """Load the problem and record its digest and the verb's flags in doc."""
    problem = load_problem(args.file)
    doc.config_digest = problem.digest
    doc.flags = flags
    return problem


def _failure(doc: ResultDocument, status: str, name: str, exc) -> ResultDocument:
    """A failure document keeping the digest and flags recorded so far."""
    out = ResultDocument(command=doc.command, config_digest=doc.config_digest,
                         status=status, flags=doc.flags)
    out.add(name, type(exc).__name__, passed=False, message=str(exc))
    return out


def cmd_validate(args, doc: ResultDocument) -> int:
    config = build_config(_start(args, doc))
    lat = config.lattice
    doc.add("hermitian", True, passed=True)
    doc.add("positive_definite", True, passed=True)
    doc.add("isotropic", True, passed=True)
    rep = check_rdq(lat, config.character, config.nu)
    doc.add("rdq_character", rep.worst_defect, passed=rep.passed,
            worst_pair=list(rep.worst_pair))
    doc.add("B", lat.B)
    doc.add("det_B", lat.det_b)
    doc.add("B_inv", lat.B_inv)
    doc.add("complement_basis", lat.complement)
    doc.add("ambient_measure_factor", ambient_measure_factor(lat))
    return EXIT_OK


def cmd_theta(args, doc: ResultDocument) -> int:
    # --z is recorded as given until the rank is known, then as parsed
    problem = _start(args, doc, tol=args.tol, z=args.z, max_radius=args.max_radius)
    config = build_config(problem)
    doc.flags["z"] = z = _vector(args.z, config.r, "--z")
    res = T.theta_eval(config.theta_params, z, args.tol, max_radius=args.max_radius)
    doc.add("theta", res.value)
    doc.add("tail_bound", res.tail_bound)
    doc.add("index_set_size", res.terms)
    return EXIT_OK


def cmd_kernel(args, doc: ResultDocument) -> int:
    problem = _start(args, doc, tol=args.tol)
    config = build_config(problem)
    u = coordinates(config.lattice, _vector(args.u, config.g, "--u"))
    v = coordinates(config.lattice, _vector(args.v, config.g, "--v"))
    k_uv = S.kernel_eval(config, u, v, args.tol)
    k_vu = S.kernel_eval(config, v, u, args.tol)
    sym_defect = abs(k_uv - k_vu.conjugate())
    doc.add("kernel", k_uv)
    doc.add("hermitian_symmetry_defect", sym_defect, passed=sym_defect <= 2 * args.tol)
    doc.add("u_coordinates", np.concatenate([u.z, u.z_perp]))
    doc.add("v_coordinates", np.concatenate([v.z, v.z_perp]))
    if sym_defect > 2 * args.tol:
        doc.status = "property-failure"
        return EXIT_PROPERTY
    return EXIT_OK


def cmd_norms(args, doc: ResultDocument) -> int:
    problem = _start(args, doc, n_max=args.n_max, k_max=args.k_max)
    config = build_config(problem)
    compact, unbounded = args.nodes or (Q._DEFAULT_COMPACT_NODES, Q._DEFAULT_UNBOUNDED_NODES)
    grid = Q.build_grid(config, compact_nodes=compact, unbounded_nodes=unbounded)
    battery = verify.norms_battery(config, grid, args.n_max, args.k_max)
    ok = True
    for idx, closed, oracle, defect in zip(
        battery.indices, battery.closed, battery.oracle, battery.defects
    ):
        good = bool(defect <= 1e-6)
        ok = ok and good
        doc.add(f"norm_sq[n={list(idx.n)},k={list(idx.k)}]", float(closed), passed=good,
                oracle=float(oracle), rel_defect=float(defect))
    if not ok:
        doc.status = "property-failure"
        return EXIT_PROPERTY
    return EXIT_OK


def cmd_verify(args, doc: ResultDocument) -> int:
    problem = _start(args, doc, suite=args.suite, seed=args.seed)
    config = build_config(problem)
    kwargs = {}
    if args.nodes:
        kwargs["compact_nodes"], kwargs["unbounded_nodes"] = args.nodes
    outcomes = verify.run_suite(config, args.suite, seed=args.seed, **kwargs)
    ok = True
    for oc in outcomes:
        ok = ok and oc.passed
        doc.add(oc.name, oc.defect, passed=oc.passed, tolerance=oc.tolerance,
                detail=oc.detail)
    if not ok:
        doc.status = "property-failure"
        return EXIT_PROPERTY
    return EXIT_OK


_DISPATCH = {
    "validate": cmd_validate,
    "theta": cmd_theta,
    "kernel": cmd_kernel,
    "norms": cmd_norms,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.perf_counter()
    doc = ResultDocument(command=args.cmd, config_digest="")
    try:
        code = _DISPATCH[args.cmd](args, doc)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        _emit(_failure(doc, "validation-failure", "invariant", exc), args.out)
        return EXIT_VALIDATION
    except BudgetError as exc:
        _emit(_failure(doc, "budget-failure", "budget", exc), args.out)
        return EXIT_BUDGET
    except ThetaFockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    doc.timings["wall_seconds"] = round(time.perf_counter() - t0, 6)
    _emit(doc, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
