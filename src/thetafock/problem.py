"""Problem files and result documents for the command-line front end.

A problem file is a JSON document with the ambient dimension, the
hermitian form, the lattice generators, the character and nu.  Complex
numbers are encoded as two-element arrays [re, im] so files round-trip
bit-exactly and diff cleanly.  nu and the optional tolerances.form (the
relative tolerance of the form checks) must be finite positive numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .geometry import build_lattice, validate_space
from .space import SpaceConfig, make_config

__all__ = ["ProblemFile", "ResultDocument", "parse_problem", "load_problem", "build_config", "encode_value"]


@dataclass(frozen=True)
class ProblemFile:
    g: int
    r: int
    nu: float
    H: np.ndarray
    omegas: np.ndarray
    alpha: np.ndarray
    tolerances: dict
    digest: str


def _complex_entry(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(p, (int, float)) for p in value)
    ):
        return complex(value[0], value[1])
    raise ParseError(where, f"expected a number or [re, im] pair, got {value!r}")


def _int_field(doc, name) -> int:
    if name not in doc:
        raise ParseError(name, "missing required field")
    v = doc[name]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(name, f"expected an integer, got {v!r}")
    return v


def _positive_number(value) -> bool:
    """A JSON number, not a bool, that is positive and finite as a double."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


def parse_problem(doc: dict, digest: str = "") -> ProblemFile:
    """Validate the raw document structure; every error names its field."""
    if not isinstance(doc, dict):
        raise ParseError("<root>", "problem document must be an object")
    g = _int_field(doc, "g")
    r = _int_field(doc, "r")
    if g < 1:
        raise ParseError("g", f"must be a positive integer, got {g}")
    if r < 0:
        raise ParseError("r", f"must be nonnegative, got {r}")
    nu = doc.get("nu")
    if not _positive_number(nu):
        raise ParseError("nu", f"expected a finite positive number, got {nu!r}")

    H_raw = doc.get("H")
    if not isinstance(H_raw, list) or len(H_raw) != g:
        raise ParseError("H", f"expected {g} rows")
    H = np.zeros((g, g), dtype=complex)
    for i, row in enumerate(H_raw):
        if not isinstance(row, list) or len(row) != g:
            raise ParseError(f"H[{i}]", f"expected {g} entries")
        for j, entry in enumerate(row):
            H[i, j] = _complex_entry(entry, f"H[{i}][{j}]")

    om_raw = doc.get("omegas", [])
    if not isinstance(om_raw, list) or len(om_raw) != r:
        raise ParseError("omegas", f"expected {r} generators")
    omegas = np.zeros((r, g), dtype=complex)
    for i, vec in enumerate(om_raw):
        if not isinstance(vec, list) or len(vec) != g:
            raise ParseError(f"omegas[{i}]", f"expected {g} components")
        for j, entry in enumerate(vec):
            omegas[i, j] = _complex_entry(entry, f"omegas[{i}][{j}]")

    al_raw = doc.get("alpha", [0.0] * r)
    if not isinstance(al_raw, list) or len(al_raw) != r:
        raise ParseError("alpha", f"expected {r} components")
    alpha = np.zeros(r)
    for i, entry in enumerate(al_raw):
        if not isinstance(entry, (int, float)) or isinstance(entry, bool):
            raise ParseError(f"alpha[{i}]", f"expected a real number, got {entry!r}")
        alpha[i] = float(entry)

    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ParseError("tolerances", "expected an object")
    if "form" in tolerances and not _positive_number(tolerances["form"]):
        raise ParseError(
            "tolerances.form", f"expected a finite positive number, got {tolerances['form']!r}"
        )
    return ProblemFile(
        g=g, r=r, nu=float(nu), H=H, omegas=omegas, alpha=alpha,
        tolerances=dict(tolerances), digest=digest,
    )


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError("<file>", str(exc)) from None
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError("<file>", f"invalid JSON: {exc}") from None
    return parse_problem(doc, digest=hashlib.sha256(raw).hexdigest()[:16])


def build_config(problem: ProblemFile) -> SpaceConfig:
    """Problem file -> validated SpaceConfig (validation errors propagate)."""
    tol_scale = problem.tolerances.get("form", 1e-10)
    space = validate_space(problem.H, tol_scale=tol_scale)
    lattice = build_lattice(space, problem.omegas)
    return make_config(lattice, problem.alpha, problem.nu)


def encode_value(value):
    """Encode scalars/arrays with complex numbers as [re, im] pairs.

    A non-finite float becomes the string "nan", "inf" or "-inf", so the
    document stays strict JSON.
    """
    if isinstance(value, (complex, np.complexfloating)):
        return [encode_value(float(value.real)), encode_value(float(value.imag))]
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, (np.floating, np.integer)):
        return encode_value(value.item())
    if isinstance(value, np.ndarray):
        return [encode_value(v) for v in value.tolist()] if value.ndim else encode_value(value.item())
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {k: encode_value(v) for k, v in value.items()}
    return value


@dataclass
class ResultDocument:
    """Structured command output; deterministic apart from ``timings``."""

    command: str
    config_digest: str
    status: str = "ok"
    flags: dict = field(default_factory=dict)
    results: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def add(self, name, value, passed=None, **extra):
        entry = {"name": name, "value": encode_value(value)}
        if passed is not None:
            entry["pass"] = bool(passed)
        entry.update({k: encode_value(v) for k, v in extra.items()})
        self.results.append(entry)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "config_digest": self.config_digest,
            "status": self.status,
            "flags": encode_value(self.flags),
            "results": self.results,
            "timings": self.timings,
        }
        return json.dumps(doc, indent=2, allow_nan=False)
