"""Problem files and result documents for the command-line front end.

A problem file is a JSON document with the ambient dimension, the
hermitian form, the lattice generators, the character and nu.  Complex
numbers are encoded as two-element arrays [re, im] so files round-trip
bit-exactly and diff cleanly.  nu and the optional tolerances.form (the
relative tolerance of the form checks) must be finite positive numbers;
any other key, at the top level or in tolerances, is a parse error.
read_json opens every JSON file and read_array reads every array, the
CLI's '@file' vectors included: a number is a JSON number, never a bool.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .geometry import FORM_TOL_SCALE, build_lattice, validate_space
from .space import SpaceConfig, make_config

__all__ = ["ProblemFile", "ResultDocument", "parse_problem", "load_problem", "read_json",
           "read_array", "build_config", "encode_value"]


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


def _number(value) -> bool:
    """A JSON number that is not a bool and converts to a double."""
    return isinstance(value, float) or type(value) is int and abs(value) <= sys.float_info.max


def _complex_entry(value, where: str) -> complex:
    if _number(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_number, value)):
        return complex(value[0], value[1])
    raise ParseError(where, f"expected a number or [re, im] pair, got {value!r}")


def _real_entry(value, where: str) -> float:
    if not _number(value):
        raise ParseError(where, f"expected a real number, got {value!r}")
    return float(value)


def read_array(raw, shape: tuple, where: str, entry) -> np.ndarray:
    """Nested lists raw of this shape as an array of entry(value, path), of entry's type.

    An error names the list or entry at fault by its path, as H[0][1].
    """

    def read(value, depth: int, path: str):
        if depth == len(shape):
            return entry(value, path)
        if not isinstance(value, list) or len(value) != shape[depth]:
            raise ParseError(path, f"expected a list of {shape[depth]} entries")
        return [read(v, depth + 1, f"{path}[{i}]") for i, v in enumerate(value)]

    return np.array(read(raw, 0, where), dtype=type(entry(0, where))).reshape(shape)


def _int_field(doc, name) -> int:
    if name not in doc:
        raise ParseError(name, "missing required field")
    v = doc[name]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(name, f"expected an integer, got {v!r}")
    return v


_KEYS = ("g", "r", "nu", "H", "omegas", "alpha", "tolerances")
_TOLERANCE_KEYS = ("form",)


def _known_keys(doc: dict, known: tuple, where: str) -> None:
    """ParseError naming the first key of doc outside ``known``, so a misspelling never defaults."""
    for key in doc:
        if key not in known:
            raise ParseError(f"{where}{key}", f"unknown key; expected one of {', '.join(known)}")


def _positive_number(value) -> bool:
    """A JSON number, not a bool, that is positive and finite as a double."""
    return _number(value) and 0 < value <= sys.float_info.max


def parse_problem(doc: dict, digest: str = "") -> ProblemFile:
    """Validate the raw document structure; every error names its field."""
    if not isinstance(doc, dict):
        raise ParseError("<root>", "problem document must be an object")
    _known_keys(doc, _KEYS, "")
    g = _int_field(doc, "g")
    r = _int_field(doc, "r")
    if g < 1:
        raise ParseError("g", f"must be a positive integer, got {g}")
    if r < 0:
        raise ParseError("r", f"must be nonnegative, got {r}")
    nu = doc.get("nu")
    if not _positive_number(nu):
        raise ParseError("nu", f"expected a finite positive number, got {nu!r}")

    H = read_array(doc.get("H"), (g, g), "H", _complex_entry)
    omegas = read_array(doc.get("omegas", []), (r, g), "omegas", _complex_entry)
    alpha = read_array(doc.get("alpha", [0.0] * r), (r,), "alpha", _real_entry)

    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ParseError("tolerances", "expected an object")
    _known_keys(tolerances, _TOLERANCE_KEYS, "tolerances.")
    if "form" in tolerances and not _positive_number(tolerances["form"]):
        raise ParseError(
            "tolerances.form", f"expected a finite positive number, got {tolerances['form']!r}"
        )
    return ProblemFile(
        g=g, r=r, nu=float(nu), H=H, omegas=omegas, alpha=alpha,
        tolerances=dict(tolerances), digest=digest,
    )


def read_json(path: str, where: str):
    """(raw bytes, parsed document) of the JSON file at path; a ParseError names where."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(where, str(exc)) from None
    try:
        return raw, json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(where, f"invalid JSON: {exc}") from None


def load_problem(path: str) -> ProblemFile:
    raw, doc = read_json(path, "<file>")
    return parse_problem(doc, digest=hashlib.sha256(raw).hexdigest()[:16])


def build_config(problem: ProblemFile) -> SpaceConfig:
    """Problem file -> validated SpaceConfig (validation errors propagate)."""
    tol_scale = problem.tolerances.get("form", FORM_TOL_SCALE)
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
