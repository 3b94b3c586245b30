"""Weighted holomorphic function space attached to an isotropic lattice.

Members are holomorphic functions on C^g, written in the adapted
coordinates u = (z, z_perp), that transform under lattice translations by
the automorphy factor chi(m) exp(nu H(u + gamma/2, gamma)) and are square
integrable against exp(-nu H(u,u)) over a fundamental domain.  The
orthogonal basis is

    e_{n,k}(z, z_perp) = exp(nu/2 z^T B z + 2 pi i (alpha+n).z) z_perp^k,

with closed-form squared norms, and the reproducing kernel is a theta
series times Gaussian weight factors.  All evaluation routines accept
batches; points with large real lattice coordinates are first translated
back near the fundamental domain using the exact automorphy factor, which
keeps exp(nu/2 B(z,z)) in range.

Every evaluation goes through one of two primitives.  basis_eval_many
evaluates basis functions; weight_factor is its (n=0, k=0) value, and
basis_function, basis_family and synthesized_function are linear
combinations of its rows built by one factory.  _kernel_batch evaluates
the kernel's outer factor and theta factor; kernel_eval, kernel_section
and kernel_diagonal (the real part of K(u, u)) all go through it.

The closures returned by basis_family, basis_function,
synthesized_function and kernel_section also carry their block-factored
form as a ``factored`` attribute (quadrature.Factored): basis lattice
factors e_{n,0}(z) times one factor per perpendicular coordinate, summed
block by block by the quadrature oracle.  A kernel section's form is its
theta series expanded into planned terms (see kernel_section).

Basis indices are integer arrays n (N, r) and k (N, g - r) inside the
module: a list of BasisIndex or an (n, k) pair is converted once, by
_index_arrays, and basis_eval_many multiplies per-coordinate power tables
(_powers) in row blocks, with no Python loop over indices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import theta as _theta
from .errors import DimensionMismatch, ValidationError, ValueOutOfRange
from .geometry import Character, IsotropicLattice, PointCoordinates, b_form
from .quadrature import Factored

__all__ = [
    "SpaceConfig",
    "BasisIndex",
    "CoefficientField",
    "EvaluationBoundReport",
    "make_config",
    "weight_factor",
    "basis_eval",
    "basis_eval_many",
    "basis_function",
    "basis_norm_sq",
    "basis_norm_sq_log",
    "synthesize",
    "synthesized_function",
    "growth_functional",
    "kernel_eval",
    "kernel_section",
    "kernel_diagonal",
    "evaluation_bound_check",
    "series_indices",
    "perp_inner",
]

# |Re z_j| beyond which a point is translated back before evaluation.
REDUCTION_CUTOFF = 6.0

_LOG_OVERFLOW = math.log(np.finfo(float).max)
# log 1e-290, the floor on an outer factor's magnitude where it sets the theta tolerance
_LOG_OUTER_FLOOR = math.log(1e-290)
# bytes of (indices x points) complex values that basis_eval_many multiplies at a time
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True, eq=False)
class SpaceConfig:
    """Immutable (lattice, character, nu) triple with derived theta data.

    Checks its inputs when built, so dataclasses.replace checks them too:
    nu must be finite and positive (ValueError) and the character's rank
    must be the lattice's (DimensionMismatch).  Compared and hashed by
    identity, as are the geometry value types.
    """

    lattice: IsotropicLattice
    character: Character
    nu: float
    theta_params: _theta.ThetaParameters = field(init=False)
    # C = sqrt(det B) (2 nu/pi)^(r/2) (nu/pi)^(g-r), the kernel's constant factor
    kernel_prefactor: float = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.nu < math.inf:  # NaN included
            raise ValueError("nu must be finite and positive")
        if self.character.r != self.lattice.r:
            raise DimensionMismatch(
                f"character has rank {self.character.r}, lattice has rank {self.lattice.r}"
            )
        object.__setattr__(self, "nu", float(self.nu))
        F = (2j * np.pi / self.nu) * self.lattice.B_inv
        object.__setattr__(self, "theta_params", _theta.validate_parameters(F, self.alpha))
        r, g, nu = self.r, self.g, self.nu
        object.__setattr__(self, "kernel_prefactor", math.sqrt(self.lattice.det_b)
                           * (2.0 * nu / math.pi) ** (r / 2.0) * (nu / math.pi) ** (g - r))

    @cached_property
    def half_theta_params(self) -> _theta.ThetaParameters:
        """Theta data of F/2, whose plans expand kernel sections; built once."""
        return _theta.validate_parameters(self.theta_params.F / 2, self.alpha)

    @property
    def r(self) -> int:
        return self.lattice.r

    @property
    def g(self) -> int:
        return self.lattice.g

    @property
    def alpha(self) -> np.ndarray:
        return self.character.alpha


def make_config(lattice: IsotropicLattice, alpha, nu: float) -> SpaceConfig:
    """Build a SpaceConfig from a lattice, character data and nu > 0."""
    character = alpha if isinstance(alpha, Character) else Character(np.asarray(alpha, dtype=float))
    return SpaceConfig(lattice=lattice, character=character, nu=nu)


@dataclass(frozen=True)
class BasisIndex:
    """(n, k) with n in Z^r and k a multi-index in N^(g-r)."""

    n: tuple
    k: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(map(int, self.n)))
        object.__setattr__(self, "k", tuple(map(int, self.k)))
        if min(self.k, default=0) < 0:
            raise ValueError(f"k must be componentwise nonnegative, got {self.k}")


def _stack(indices) -> tuple:
    """(n, k) integer arrays of a list of BasisIndex, which must share one shape.

    An empty list gives arrays of width 0, which fit every configuration.
    """
    shapes = {(len(idx.n), len(idx.k)) for idx in indices}
    if len(shapes) > 1:
        raise DimensionMismatch(f"basis indices of different shapes {sorted(shapes)}")
    r, m = shapes.pop() if shapes else (0, 0)
    rows = np.array([idx.n + idx.k for idx in indices], dtype=np.int64).reshape(len(indices), r + m)
    rows.setflags(write=False)
    return rows[:, :r], rows[:, r:]


def _index_arrays(config: SpaceConfig, indices) -> tuple:
    """Basis indices as integer arrays n of shape (N, r) and k of shape (N, g - r).

    ``indices`` is a sequence of BasisIndex or an (n, k) pair of integer
    arrays; an empty pair of any width is the empty set.  Raises
    ValidationError for non-integer entries, DimensionMismatch for shapes
    that do not match the configuration and ValueError for a negative k.
    """
    if all(isinstance(idx, BasisIndex) for idx in indices):
        indices = _stack(indices)
    n, k = indices
    n, k = np.asarray(n), np.asarray(k)
    if n.dtype.kind not in "iu" or k.dtype.kind not in "iu":
        raise ValidationError(f"basis index arrays must hold integers, got {n.dtype} and {k.dtype}")
    n, k = n.astype(np.int64, copy=False), k.astype(np.int64, copy=False)
    r, m = config.r, config.g - config.r
    if n.ndim != 2 or k.ndim != 2 or len(n) != len(k) or n.size != len(n) * r or k.size != len(k) * m:
        raise DimensionMismatch(f"index arrays of shapes {n.shape} and {k.shape} do not "
                                f"match (N, r) = (N, {r}) and (N, g-r) = (N, {m})")
    if k.min(initial=0) < 0:
        raise ValueError("k must be componentwise nonnegative")
    return n.reshape(len(n), r), k.reshape(len(k), m)


@dataclass(frozen=True)
class CoefficientField:
    """Finite coefficient map BasisIndex -> complex, canonically ordered.

    Its indices, as the integer arrays n and k, and its coefficients a
    are derived when it is built, in the order of ``entries``.
    """

    entries: tuple  # ((BasisIndex, complex), ...) sorted by (n, k)
    n: np.ndarray = field(init=False, repr=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)
    a: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        norm = tuple(
            sorted(((idx, complex(a)) for idx, a in dict(self.entries).items()),
                   key=lambda t: (t[0].n, t[0].k))
        )
        object.__setattr__(self, "entries", norm)
        n, k = _stack([idx for idx, _ in norm])
        a = np.array([a for _, a in norm], dtype=complex)
        a.setflags(write=False)
        for name, value in (("n", n), ("k", k), ("a", a)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, mapping) -> "CoefficientField":
        return cls(entries=tuple(mapping.items()))

    def __len__(self) -> int:
        return len(self.entries)

    def indices(self):
        return [idx for idx, _ in self.entries]


def _as_batch(config: SpaceConfig, z, z_perp):
    Z = np.atleast_2d(np.asarray(z, dtype=complex))
    Zp = np.atleast_2d(np.asarray(z_perp, dtype=complex))
    if Z.shape[0] == 1 and Zp.shape[0] > 1:
        Z = np.broadcast_to(Z, (Zp.shape[0], Z.shape[1]))
    if Zp.shape[0] == 1 and Z.shape[0] > 1:
        Zp = np.broadcast_to(Zp, (Z.shape[0], Zp.shape[1]))
    if Z.shape[1] != config.r or Zp.shape[1] != config.g - config.r:
        raise DimensionMismatch(
            f"points must have shapes (., {config.r}) and (., {config.g - config.r})"
        )
    if not (np.isfinite(Z).all() and np.isfinite(Zp).all()):
        raise ValidationError("points must be finite")
    return Z, Zp


def _reduce_batch(config: SpaceConfig, Z):
    """Translate far points by -floor(Re z); return (Z_red, log automorphy).

    f(Z) = exp(log_factor) * f(Z_red) for every member of the space; the
    log factor is the scalar 0.0 when no point moves.
    """
    x = Z.real
    size = np.abs(x)
    if not size.max(initial=0.0) > REDUCTION_CUTOFF:
        return Z, 0.0
    mask = size.max(axis=1) > REDUCTION_CUTOFF
    m = np.zeros(Z.shape, dtype=float)
    m[mask] = np.floor(x[mask])
    Zr = Z - m
    log_factor = config.nu * b_form(config.lattice, Zr + 0.5 * m, m) + 2j * np.pi * (
        m @ config.alpha
    )
    return Zr, log_factor


def weight_factor(config: SpaceConfig, u: PointCoordinates) -> complex:
    """psi(u) = exp(nu/2 B(z,z) + 2 pi i alpha.z), the seed automorphic unit.

    This is e_{0,0}(u), which does not depend on z_perp.
    """
    r, m = config.r, config.g - config.r
    zero = np.zeros((1, r), dtype=np.int64), np.zeros((1, m), dtype=np.int64)
    return complex(basis_eval_many(config, zero, u.z[None, :], np.zeros((1, m)))[0, 0])


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of an integer array, in increasing order."""
    flat = np.sort(a, axis=None)
    return flat[np.diff(flat, prepend=flat[:1] - 1) != 0]


def _powers(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows values**e for e = lo..hi (lo <= 0 <= hi), by repeated multiplication."""
    table = np.empty((hi - lo + 1, values.shape[0]), dtype=complex)
    table[-lo] = 1.0
    for e in range(1 - lo, hi - lo + 1):
        table[e] = table[e - 1] * values
    if lo < 0:
        inv = 1.0 / values
        for e in range(-lo - 1, -1, -1):
            table[e] = table[e + 1] * inv
    return table


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def basis_eval_many(config: SpaceConfig, indices, z, z_perp):
    """Values of several basis functions on a batch of points.

    ``indices`` is a list of BasisIndex or an (n, k) pair of integer arrays;
    returns an array of shape (N, n_points).  The shared weight
    exp(nu/2 B(z,z) + 2 pi i alpha.z) is computed once per point, and the
    phases exp(2 pi i n_j z_j) and monomials z_perp_j^k_j come from one
    power table per coordinate, multiplied in coordinate order (exponent 0
    multiplies by an exact 1).  Raises ValueOutOfRange when a value or a
    factor leaves the double range.
    """
    Z, Zp = _as_batch(config, z, z_perp)
    n, k = _index_arrays(config, indices)
    Zr, log_factor = _reduce_batch(config, Z)
    base = np.exp(
        0.5 * config.nu * b_form(config.lattice, Zr, Zr)
        + 2j * np.pi * (Zr @ config.alpha)
        + log_factor
    )
    # one table per coordinate whose exponents are not all zero, phases first
    lo, hi, top = n.min(axis=0, initial=0), n.max(axis=0, initial=0), k.max(axis=0, initial=0)
    tables = [(_powers(np.exp(2j * np.pi * Zr[:, j]), lo[j], hi[j]), n[:, j] - lo[j])
              for j in range(config.r) if lo[j] < hi[j]]
    tables += [(_powers(Zp[:, j], 0, top[j]), k[:, j])
               for j in range(config.g - config.r) if top[j]]
    out = np.empty((len(n), Z.shape[0]), dtype=complex)
    step = max(1, _BLOCK_BYTES // (16 * max(Z.shape[0], 1)))
    for start in range(0, len(n), step):
        block = out[start:start + step]
        block[...] = base
        for table, rows in tables:
            block *= table[rows[start:start + step]]
    if not np.isfinite(out).all():
        raise ValueOutOfRange("a basis value or one of its factors leaves the double range")
    return out


def _member(config: SpaceConfig, n, k, coeffs):
    """Closure (z, z_perp) -> basis_eval_many((n, k)) weighted by coeffs, with its block form.

    n and k are index arrays as _index_arrays returns them.

    A (1, N) row of coeffs gives one function (values of shape
    (n_points,)), an (N,) vector the family coeffs[i] e_i ((N, n_points)).
    In the ``factored`` form e_{n,k} is the lattice factor e_{n,0}(z)
    times z_perp_j^k_j for every perpendicular coordinate j, from one
    power table over the exponents of all of them; each distinct factor
    is evaluated once, and the factors of a block are in increasing order.
    """
    coeffs = np.asarray(coeffs, dtype=complex)

    def f(z, z_perp):
        values = basis_eval_many(config, (n, k), z, z_perp)
        return coeffs[:, None] * values if coeffs.ndim == 1 else coeffs[0] @ values

    # equal n are adjacent in (n, k) order; g >= 1 keys keep lexsort defined at r = 0
    order = np.lexsort((*k.T[::-1], *n.T[::-1]))
    first = np.ones(len(n), dtype=bool)
    first[1:] = (n[order[1:]] != n[order[:-1]]).any(axis=1)
    lattice_rows = np.empty(len(n), dtype=np.intp)
    lattice_rows[order] = np.cumsum(first) - 1
    lattice_n = n[order[first]]
    lattice_k = np.zeros((len(lattice_n), k.shape[1]), dtype=np.int64)
    origin = np.zeros((1, k.shape[1]))

    def lattice(z):
        return basis_eval_many(config, (lattice_n, lattice_k), z, origin)

    exponents = _distinct(k)
    f.factored = Factored(
        lattice=lattice,
        fock=lambda w: _powers(w, 0, exponents.max(initial=0))[exponents],
        terms=np.column_stack([lattice_rows, np.searchsorted(exponents, k)]),
        coeffs=coeffs,
    )
    return f


def basis_family(config: SpaceConfig, indices):
    """Batch closure (z, z_perp) -> (N, n_points) value matrix.

    ``indices`` is a list of BasisIndex or an (n, k) pair of integer
    arrays.  With its ``factored`` form this is the fast path for Gram
    batteries.
    """
    n, k = _index_arrays(config, indices)
    return _member(config, n, k, np.ones(len(n)))


def basis_eval(
    config: SpaceConfig, idx: BasisIndex, u: PointCoordinates, normalized: bool = False
) -> complex:
    """e_{n,k}(u), or the unit-norm version when normalized=True."""
    value = complex(basis_eval_many(config, [idx], u.z[None, :], u.z_perp[None, :])[0, 0])
    return value / math.sqrt(basis_norm_sq(config, idx)) if normalized else value


def basis_function(config: SpaceConfig, idx: BasisIndex, normalized: bool = False):
    """Batch-evaluable closure (z, z_perp) -> values for one basis index."""
    scale = 1.0 / math.sqrt(basis_norm_sq(config, idx)) if normalized else 1.0
    return _member(config, *_index_arrays(config, [idx]), [[scale]])


def _norm_exponents(config: SpaceConfig, n: np.ndarray) -> np.ndarray:
    """q = (n+alpha)^T B^-1 (n+alpha) per row of n, the exponent of _log_norms; one
    stacked product per row, so an index's q does not depend on the batch."""
    na = n + config.alpha
    return (na[:, None, :] @ config.lattice.B_inv @ na[:, :, None])[:, 0, 0]


def _log_norms(config: SpaceConfig, indices) -> np.ndarray:
    """log ||e_{n,k}||^2 of every index, in one vectorised pass; always finite."""
    n, k = _index_arrays(config, indices)
    nu = config.nu
    base = -math.log(config.kernel_prefactor)  # ||e_{0,0}||^2 = 1/C at alpha = 0
    top = int(k.max(initial=0))
    log_fact = np.fromiter(map(math.lgamma, range(1, top + 2)), dtype=float, count=top + 1)
    log_k_fact = 0  # sum_j log k_j!, added column by column as a Python sum would
    for kj in k.T:
        log_k_fact = log_k_fact + log_fact[kj]
    rest = base + log_k_fact - k.sum(axis=1) * math.log(nu)
    return rest + (2.0 * math.pi**2 / nu) * _norm_exponents(config, n)


def _exp_norms(log_norms: np.ndarray) -> np.ndarray:
    """exp(log_norms); raises ValueOutOfRange when one exceeds the double range."""
    worst = float(log_norms.max(initial=-np.inf))
    if worst > _LOG_OVERFLOW:
        raise ValueOutOfRange(f"||e||^2 has log {worst:.1f}; retrieve it with basis_norm_sq_log")
    return np.exp(log_norms)


def basis_norm_sq_log(config: SpaceConfig, idx: BasisIndex) -> float:
    """log ||e_{n,k}||^2; always finite, with a table of log j! up to the largest k_j."""
    return float(_log_norms(config, [idx])[0])


def basis_norm_sq(config: SpaceConfig, idx: BasisIndex) -> float:
    """||e_{n,k}||^2 in closed form, exp(basis_norm_sq_log).

    Raises ValueOutOfRange (an OverflowError) when the result exceeds the
    double range; retrieve it with basis_norm_sq_log then.
    """
    return float(_exp_norms(_log_norms(config, [idx]))[0])


def synthesize(config: SpaceConfig, coeffs: CoefficientField, u: PointCoordinates) -> complex:
    """sum a_{n,k} e_{n,k}(u) over the finite coefficient field."""
    vals = basis_eval_many(config, (coeffs.n, coeffs.k), u.z[None, :], u.z_perp[None, :])
    return complex(coeffs.a @ vals[:, 0])


def synthesized_function(config: SpaceConfig, coeffs: CoefficientField):
    """Batch-evaluable closure for the synthesized field."""
    return _member(config, *_index_arrays(config, (coeffs.n, coeffs.k)), coeffs.a[None, :])


def growth_functional(config: SpaceConfig, coeffs: CoefficientField) -> float:
    """sum |a_{n,k}|^2 ||e_{n,k}||^2 — the membership functional.

    Shares the closed-form norm with basis_norm_sq (_log_norms, one pass
    over the field), so Parseval holds by construction; quadrature provides
    the independent check.  Raises ValueOutOfRange when a norm exceeds the
    double range.
    """
    weights = np.abs(coeffs.a) ** 2
    return float(weights @ _exp_norms(_log_norms(config, (coeffs.n, coeffs.k))))


def perp_inner(z_perp, w_perp):
    """<z_perp, w_perp> = sum z_j conj(w_j), batched over leading axes."""
    z_perp = np.asarray(z_perp, dtype=complex)
    w_perp = np.asarray(w_perp, dtype=complex)
    return np.einsum("...j,...j->...", z_perp, np.conj(w_perp))


def _kernel_sides(config: SpaceConfig, Z):
    """Reduced rows Z_r of Z and h = nu/2 B(Z_r, Z_r) + log automorphy, per row.

    K(u, v) = C exp(h_u + conj(h_v) + nu <u_perp, v_perp>) T(z_u - conj(z_v)),
    with the reduced z of each point and T the theta series of F.
    """
    Zr, log_factor = _reduce_batch(config, Z)
    return Zr, 0.5 * config.nu * b_form(config.lattice, Zr, Zr) + log_factor


def _kernel_batch(config: SpaceConfig, Zr, h, perp_log, zv, hv, tol: float):
    """Outer factors and theta factors of K(u, v) at the rows (Zr, h) of _kernel_sides.

    (zv, hv) is the v side, perp_log is nu <z_perp, v_perp> per point (0
    drops the perpendicular factor) and tol is positive.  The theta factor
    is evaluated at a per-point absolute tolerance equal to tol divided by
    the magnitude of the outer factor (floored at 1e-290), so their product
    is within tol of the kernel.  It is planned and summed once, at those
    log tolerances, by theta.planned_sum, the route of theta_eval_many.
    Raises ValueOutOfRange when an outer factor exceeds the double range,
    and planned_sum raises it when a theta term or value does.
    """
    log_outer = h + (hv.conjugate() + perp_log)
    C = config.kernel_prefactor
    log_mag = log_outer.real + math.log(C)
    worst = float(log_mag.max(initial=-np.inf))
    if worst > _LOG_OVERFLOW:
        raise ValueOutOfRange(
            f"the kernel outer factor has log {worst:.1f}, beyond the double range"
        )
    outer = C * np.exp(log_outer)
    log_tol = math.log(tol) - np.maximum(log_mag, _LOG_OUTER_FLOOR)
    return outer, _theta.planned_sum(config.theta_params, Zr - zv.conj(), log_tol)[0]


def _check_kernel_args(config: SpaceConfig, tol: float, *points: PointCoordinates) -> None:
    """ValueError unless tol > 0, DimensionMismatch unless every point has r and g - r coordinates."""
    if not tol > 0:  # NaN included
        raise ValueError("tol must be positive")
    if any(p.z.shape[0] != config.r or p.z_perp.shape[0] != config.g - config.r for p in points):
        raise DimensionMismatch("points do not match the configuration dimensions")


def kernel_section(config: SpaceConfig, v: PointCoordinates, tol: float):
    """Closure u -> K(u, v) evaluating the closed form on point batches, within tol.

    The ``factored`` form expands the theta factor: with t = n + alpha,
    term t times the outer factor is c_t e_{n,0}(z), where
    c_t = C exp(l_v + 2 pi i (1/2 t F t - t.conj z_v)), l_v = conj(h_v),
    times the factor exp(nu w conj v_j) of each perpendicular coordinate j.
    Against the weight, term t has magnitude C e^(Re l_v) times that of
    term t of the theta series with period matrix F/2 at Im z = y_v, so
    that series' plan at tolerance tol / (C e^(Re l_v)) gives, with no grid,

        |K(u, v) - expansion(u)| <= tol exp(nu/2 H(u,u) + nu/2 |v_perp|^2)

    for every u.  That plan is theta.plan, which checks no term of the F/2
    series (those leave the double range far out, where the c_t do not);
    the c_t are theta.log_terms of F at -conj z_v.  Raises ValueOutOfRange
    when a c_t leaves the double range, and the closure raises it when a
    kernel value does.
    """
    _check_kernel_args(config, tol, v)
    (zv,), (hv,) = _kernel_sides(config, v.z[None, :])

    def f(z, z_perp):
        Z, Zp = _as_batch(config, z, z_perp)
        perp_log = config.nu * perp_inner(Zp, np.broadcast_to(v.z_perp, Zp.shape))
        outer, vals = _kernel_batch(config, *_kernel_sides(config, Z), perp_log, zv, hv, tol)
        with np.errstate(over="ignore", invalid="ignore"):
            values = outer * vals
        if not np.isfinite(values).all():
            raise ValueOutOfRange("a kernel value leaves the double range")
        return values

    l_v = np.conj(hv)
    C = config.kernel_prefactor
    half = config.half_theta_params
    log_tol = math.log(tol) - math.log(C) - l_v.real
    idx = _theta.plan(half, zv[None, :], log_tol)[1]
    exponents = _theta.log_terms(config.theta_params, -zv.conj()[None, :], idx)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = C * np.exp(l_v + exponents)
    if not np.isfinite(coeffs).all():
        raise ValueOutOfRange("a coefficient of the kernel expansion leaves the double range")
    # the lattice part is sum_t c_t e_{n,0}; the rows k = (0, ..., m - 1) give
    # coordinate j Fock factor j, exp(nu w conj v_j)
    k = np.broadcast_to(np.arange(config.g - config.r), (len(idx), config.g - config.r))
    f.factored = replace(_member(config, idx, k, coeffs[None, :]).factored,
                         fock=lambda w: np.exp(config.nu * w * np.conj(v.z_perp)[:, None]))
    return f


def kernel_eval(config: SpaceConfig, u: PointCoordinates, v: PointCoordinates, tol: float) -> complex:
    """Reproducing kernel K(u, v) with absolute accuracy tol.

    A batch of one through the kernel_section closure's routine: the two
    share the plan and both factors bit for bit, but this product of two
    complex scalars can differ from the closure's array product by an ulp.
    The reduced points and their weights are formed in one pass, over u
    alone when v is u.  In the degenerate ranks the absent factors are exact
    floating-point no-ops (theta value 1 for r = 0, empty perpendicular
    inner product for r = g).  Raises ValueOutOfRange when the theta
    factor or the kernel value leaves the double range.
    """
    _check_kernel_args(config, tol, u, v)
    Zr, h = _kernel_sides(config, u.z[None, :] if v is u else np.array((u.z, v.z)))
    perp_log = config.nu * perp_inner(u.z_perp, v.z_perp)
    outer, vals = _kernel_batch(config, Zr[:1], h[:1], perp_log, Zr[-1], h[-1], tol)
    # a scalar product: the array product can differ in the last bit
    value = complex(outer[0]) * complex(vals[0])
    if not cmath.isfinite(value):
        raise ValueOutOfRange("the kernel value leaves the double range")
    return value


def kernel_diagonal(config: SpaceConfig, u: PointCoordinates, tol: float) -> float:
    """K(u, u), strictly positive: the real part of kernel_eval(u, u).

    For the purely imaginary F of a space configuration the theta factor
    at z - conj(z) = 2i Im z is a sum of positive real terms, and the
    outer factor is real up to rounding.  Raises ValueOutOfRange when
    either factor or their product leaves the double range.
    """
    return kernel_eval(config, u, u, tol).real


@dataclass(frozen=True)
class EvaluationBoundReport:
    lhs: float
    rhs: float
    holds: bool


def evaluation_bound_check(
    config: SpaceConfig,
    coeffs: CoefficientField,
    u: PointCoordinates,
    tol: float = 1e-12,
) -> EvaluationBoundReport:
    """Check |f(u)| <= sqrt(K(u,u)) ||f|| for the synthesized field, up to a relative 1e-9."""
    lhs = abs(synthesize(config, coeffs, u))
    rhs = math.sqrt(kernel_diagonal(config, u, tol)) * math.sqrt(
        growth_functional(config, coeffs)
    )
    return EvaluationBoundReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + 1e-9))


def series_indices(config: SpaceConfig, n_radius: int, k_total: int) -> tuple:
    """Basis indices with |n_j| <= n_radius and |k| <= k_total, as an (n, k) pair of arrays.

    In lexicographic order: n-major over the integer box, then k as
    _multi_indices orders it.
    """
    ns = _integer_box(config.r, n_radius)
    ks = _multi_indices(config.g - config.r, k_total)
    return np.repeat(ns, len(ks), axis=0), np.tile(ks, (len(ns), 1))


def _integer_box(r: int, radius: int) -> np.ndarray:
    """Integer vectors with |n_j| <= radius as an (N, r) array, lexicographic."""
    side = 2 * radius + 1
    return np.ascontiguousarray(np.indices((side,) * r).reshape(r, side**r).T) - radius


def _multi_indices(m: int, total: int) -> np.ndarray:
    """Multi-indices in N^m with |k| <= total as an (N, m) array, lexicographic.

    Each first entry j is followed by the indices of N^(m-1) with
    |k| <= total - j, so only the indices kept are generated.
    """
    ks = np.zeros((1 if total >= 0 else 0, 0), dtype=np.int64)
    for _ in range(m):
        # nonzero runs j-major, so each j's rows follow in the order of ks
        first, rest = np.nonzero(np.arange(total + 1)[:, None] + ks.sum(axis=1) <= total)
        ks = np.column_stack((first, ks[rest]))
    return ks
