"""Command-line front end.

Verbs: validate, theta, kernel, norms, verify.  Results are emitted as a
JSON result document on stdout (or --out).  Exit codes: 0 success,
1 usage or parse failure, 2 validation failure, 3 numerical-budget
failure (including a value outside the double range), 4 property failure:
any result entry with pass false, whatever the verb.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

import numpy as np

from . import quadrature as Q
from . import space as S
from . import theta as T
from . import verify
from .errors import BudgetError, ParseError, ThetaFockError, ValidationError
from .geometry import ambient_measure_factor, check_rdq, coordinates
from .problem import ResultDocument, build_config, load_problem, read_array, read_json
from .problem import _complex_entry, _positive_number

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_PROPERTY = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # '-0.3,0.1' and '-inf' are values; argparse's own pattern takes
        # only plain negative numbers and reads the rest as options
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise _UsageError(message)


def _flag_type(flag: str, expects: str, read):
    """argparse type of flag: read(text), a usage error when it raises ValueError or gives None."""

    def parse(text: str):
        try:
            value = read(text)
        except ValueError:
            value = None
        if value is None:
            raise _UsageError(f"{flag} expects {expects}, got {text!r}")
        return value

    return parse


def _component(text: str):
    parts = [float(p) for p in text.split(",")]
    return complex(*parts) if len(parts) in (1, 2) else None


def _positive_float(text: str):
    value = float(text)
    return value if _positive_number(value) else None


def _nonnegative_int(text: str):
    return int(text) if text.isdecimal() else None


def _vector(values, expected: int, flag: str) -> np.ndarray:
    """Repeated 're,im' flag values, or '@file.json' read as a problem file's arrays are."""
    if values and len(values) == 1 and values[0].startswith("@"):
        return read_array(read_json(values[0][1:], flag)[1], (expected,), flag, _complex_entry)
    parse = _flag_type(flag, "a component 're' or 're,im'", _component)
    comps = [parse(v) for v in (values or [])]
    if len(comps) != expected:
        raise _UsageError(f"{flag} needs {expected} components, got {len(comps)}")
    return np.array(comps, dtype=complex)


_POSITIVE, _COUNT = "a finite positive number", "an integer >= 0"
_FLAGS = {  # flag: what it expects, its reader, further add_argument keywords
    "--tol": (_POSITIVE, _positive_float, dict(default=1e-10)),
    "--seed": (_COUNT, _nonnegative_int, dict(default=0)),
    "--max-radius": (_POSITIVE, _positive_float, dict(default=None)),
    "--n-max": (_COUNT, _nonnegative_int, dict(default=1)),
    "--k-max": (_COUNT, _nonnegative_int, dict(default=1)),
}


def build_parser() -> _Parser:
    p = _Parser(prog="thetafock", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def verb(name, summary, *flags):
        """A verb taking a problem file, --out, and only the flags it reads."""
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("file", help="problem file (JSON)")
        sp.add_argument("--out", help="write the result document here instead of stdout")
        for flag in flags:
            expects, read, keywords = _FLAGS[flag]
            sp.add_argument(flag, type=_flag_type(flag, expects, read), **keywords)
        return sp

    verb("validate", "check all structural invariants")

    sp = verb("theta", "evaluate the lattice theta function", "--tol", "--max-radius")
    sp.add_argument("--z", action="append", default=None,
                    help="component 're[,im]' (repeat r times) or '@file.json'")

    sp = verb("kernel", "evaluate the reproducing kernel", "--tol")
    sp.add_argument("--u", action="append", default=None,
                    help="ambient component 're[,im]' (repeat g times) or '@file.json'")
    sp.add_argument("--v", action="append", default=None,
                    help="ambient component 're[,im]' (repeat g times) or '@file.json'")

    verb("norms", "closed-form norms against the quadrature oracle", "--n-max", "--k-max")

    sp = verb("verify", "run a named property suite", "--seed")
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


def cmd_validate(args, doc: ResultDocument) -> None:
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


def cmd_theta(args, doc: ResultDocument) -> None:
    # --z is recorded as given until the rank is known, then as parsed
    problem = _start(args, doc, tol=args.tol, z=args.z, max_radius=args.max_radius)
    config = build_config(problem)
    doc.flags["z"] = z = _vector(args.z, config.r, "--z")
    res = T.theta_eval(config.theta_params, z, args.tol, max_radius=args.max_radius)
    doc.add("theta", res.value)
    doc.add("tail_bound", res.tail_bound)
    doc.add("index_set_size", res.terms)


def cmd_kernel(args, doc: ResultDocument) -> None:
    problem = _start(args, doc, tol=args.tol)
    config = build_config(problem)
    u = coordinates(config.lattice, _vector(args.u, config.g, "--u"))
    v = coordinates(config.lattice, _vector(args.v, config.g, "--v"))
    k_uv = S.kernel_eval(config, u, v, args.tol)
    k_vu = S.kernel_eval(config, v, u, args.tol)
    sym_defect = abs(k_uv - k_vu.conjugate())
    doc.add("kernel", k_uv)
    # rounding grows with |K(u, v)|: on the value's scale, as verify's theta shift
    doc.add("hermitian_symmetry_defect", sym_defect,
            passed=sym_defect <= 2 * args.tol * max(1.0, abs(k_uv)))
    doc.add("u_coordinates", np.concatenate([u.z, u.z_perp]))
    doc.add("v_coordinates", np.concatenate([v.z, v.z_perp]))


def cmd_norms(args, doc: ResultDocument) -> None:
    problem = _start(args, doc, n_max=args.n_max, k_max=args.k_max)
    config = build_config(problem)
    idxs = verify.battery_indices(config, args.n_max, args.k_max)
    grid = Q.build_grid(config, unbounded_nodes=Q.unbounded_nodes(config, *idxs))
    doc.add("grid_nodes", list(grid.base.shape))  # per axis, base level
    battery = verify.norms_battery(config, grid, idxs)
    n, k = battery.indices
    for n_row, k_row, closed, oracle, defect in zip(
        n.tolist(), k.tolist(), battery.closed, battery.oracle, battery.defects
    ):
        doc.add(f"norm_sq[n={n_row},k={k_row}]", float(closed), passed=defect <= 1e-6,
                oracle=float(oracle), rel_defect=float(defect))


def cmd_verify(args, doc: ResultDocument) -> None:
    problem = _start(args, doc, suite=args.suite, seed=args.seed)
    config = build_config(problem)
    for oc in verify.run_suite(config, args.suite, seed=args.seed):
        doc.add(oc.name, oc.defect, passed=oc.passed, tolerance=oc.tolerance,
                detail=oc.detail)


_DISPATCH = {
    "validate": cmd_validate,
    "theta": cmd_theta,
    "kernel": cmd_kernel,
    "norms": cmd_norms,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        doc = ResultDocument(command=args.cmd, config_digest="")
        _DISPATCH[args.cmd](args, doc)
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
    code = EXIT_OK
    if not all(entry.get("pass", True) for entry in doc.results):
        doc.status, code = "property-failure", EXIT_PROPERTY
    doc.timings["wall_seconds"] = round(time.perf_counter() - t0, 6)
    _emit(doc, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
