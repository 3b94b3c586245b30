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

The closures returned by basis_family, basis_function,
synthesized_function and kernel_section also carry their block-factored
form as a ``factored`` attribute (quadrature.Factored): a lattice factor
in z times one factor per perpendicular coordinate, which the quadrature
oracle sums block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import theta as _theta
from .errors import DimensionMismatch
from .geometry import Character, IsotropicLattice, PointCoordinates
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


@dataclass(frozen=True)
class SpaceConfig:
    """Immutable (lattice, character, nu) triple with derived theta data."""

    lattice: IsotropicLattice
    character: Character
    nu: float
    theta_params: _theta.ThetaParameters = None

    def __post_init__(self):
        if self.theta_params is None:
            r = self.lattice.r
            F = (2j * np.pi / self.nu) * self.lattice.B_inv if r else np.zeros((0, 0))
            params = _theta.validate_parameters(F, alpha=self.character.alpha)
            object.__setattr__(self, "theta_params", params)

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
    if nu <= 0:
        raise ValueError("nu must be positive")
    character = alpha if isinstance(alpha, Character) else Character(np.asarray(alpha, dtype=float))
    if character.r != lattice.r:
        raise DimensionMismatch(
            f"character has rank {character.r}, lattice has rank {lattice.r}"
        )
    return SpaceConfig(lattice=lattice, character=character, nu=float(nu))


@dataclass(frozen=True)
class BasisIndex:
    """(n, k) with n in Z^r and k a multi-index in N^(g-r)."""

    n: tuple
    k: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))
        if any(v < 0 for v in self.k):
            raise ValueError(f"k must be componentwise nonnegative, got {self.k}")


@dataclass(frozen=True)
class CoefficientField:
    """Finite coefficient map BasisIndex -> complex, canonically ordered."""

    entries: tuple  # ((BasisIndex, complex), ...) sorted by (n, k)

    def __post_init__(self):
        norm = tuple(
            sorted(((idx, complex(a)) for idx, a in dict(self.entries).items()),
                   key=lambda t: (t[0].n, t[0].k))
        )
        object.__setattr__(self, "entries", norm)

    @classmethod
    def from_dict(cls, mapping) -> "CoefficientField":
        return cls(entries=tuple(mapping.items()))

    def __len__(self) -> int:
        return len(self.entries)

    def indices(self):
        return [idx for idx, _ in self.entries]

    def coefficients(self) -> np.ndarray:
        return np.array([a for _, a in self.entries], dtype=complex)


def _check_index(config: SpaceConfig, idx: BasisIndex):
    if len(idx.n) != config.r or len(idx.k) != config.g - config.r:
        raise DimensionMismatch(
            f"index dimensions {(len(idx.n), len(idx.k))} do not match (r, g-r) = "
            f"{(config.r, config.g - config.r)}"
        )


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
    return Z, Zp


def _bilinear(config: SpaceConfig, a, b):
    """a^T B b on lattice coordinates, batched."""
    if config.r == 0:
        return np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]), dtype=complex)
    return np.einsum("...j,jk,...k->...", a, config.lattice.B, b)


def _reduce_batch(config: SpaceConfig, Z):
    """Translate far points by -floor(Re z); return (Z_red, log automorphy).

    f(Z) = exp(log_factor) * f(Z_red) for every member of the space.
    """
    if config.r == 0:
        return Z, np.zeros(Z.shape[0], dtype=complex)
    x = Z.real
    mask = np.abs(x).max(axis=1) > REDUCTION_CUTOFF
    if not mask.any():
        return Z, np.zeros(Z.shape[0], dtype=complex)
    m = np.zeros(Z.shape, dtype=float)
    m[mask] = np.floor(x[mask])
    Zr = Z - m
    log_factor = config.nu * _bilinear(config, Zr + 0.5 * m, m) + 2j * np.pi * (
        m @ config.alpha
    )
    return Zr, log_factor


def weight_factor(config: SpaceConfig, u: PointCoordinates) -> complex:
    """psi(u) = exp(nu/2 B(z,z) + 2 pi i alpha.z), the seed automorphic unit."""
    z = np.asarray(u.z, dtype=complex)
    if z.shape[0] != config.r:
        raise DimensionMismatch(f"expected {config.r} lattice coordinates")
    return complex(
        np.exp(0.5 * config.nu * _bilinear(config, z, z) + 2j * np.pi * (config.alpha @ z))
    )


def _power_table(values: np.ndarray, exponents) -> dict:
    """{e: values**e} built by repeated multiplication, e any integers."""
    table = {0: np.ones_like(values)}
    top, bot = max(max(exponents, default=0), 0), min(min(exponents, default=0), 0)
    for e in range(1, top + 1):
        table[e] = table[e - 1] * values
    if bot < 0:
        inv = 1.0 / values
        for e in range(-1, bot - 1, -1):
            table[e] = table[e + 1] * inv
    return table


def basis_eval_many(config: SpaceConfig, indices, z, z_perp, normalized: bool = False):
    """Values of several basis functions on a batch of points.

    Returns an array of shape (len(indices), n_points).  The shared weight
    exp(nu/2 B(z,z) + 2 pi i alpha.z) is computed once per point, and the
    integer phases exp(2 pi i n.z) come from per-dimension power tables.
    """
    Z, Zp = _as_batch(config, z, z_perp)
    for idx in indices:
        _check_index(config, idx)
    Zr, log_factor = _reduce_batch(config, Z)
    base = np.exp(
        0.5 * config.nu * _bilinear(config, Zr, Zr)
        + 2j * np.pi * (Zr @ config.alpha)
        + log_factor
    )
    r, m = config.r, config.g - config.r
    phase_tables = [
        _power_table(np.exp(2j * np.pi * Zr[:, j]), [idx.n[j] for idx in indices])
        for j in range(r)
    ]
    mono_tables = [
        _power_table(Zp[:, j], [idx.k[j] for idx in indices]) for j in range(m)
    ]
    out = np.empty((len(indices), Z.shape[0]), dtype=complex)
    for i, idx in enumerate(indices):
        vals = base.copy()
        for j in range(r):
            if idx.n[j]:
                vals *= phase_tables[j][idx.n[j]]
        for j in range(m):
            if idx.k[j]:
                vals *= mono_tables[j][idx.k[j]]
        if normalized:
            vals /= math.sqrt(basis_norm_sq(config, idx))
        out[i] = vals
    return out


def _factored(config: SpaceConfig, indices, coeffs) -> Factored:
    """Block form of the combinations coeffs @ [e_idx for idx in indices].

    e_{n,k} is the lattice factor e_{n,0}(z) times z_perp_j^k_j for every
    perpendicular coordinate j; each distinct factor is evaluated once.
    """
    m = config.g - config.r
    ns = {n: i for i, n in enumerate(sorted({idx.n for idx in indices}))}
    ks = [{k: i for i, k in enumerate(sorted({idx.k[j] for idx in indices}))} for j in range(m)]
    lattice_indices = [BasisIndex(n=n, k=(0,) * m) for n in ns]
    origin = np.zeros((1, m))

    def lattice(z):
        return basis_eval_many(config, lattice_indices, z, origin)

    def monomials(exponents):
        def perp(w):
            table = _power_table(w, exponents)
            return np.array([table[e] for e in exponents]).reshape(len(exponents), w.shape[0])

        return perp

    terms = np.array(
        [[ns[idx.n]] + [ks[j][idx.k[j]] for j in range(m)] for idx in indices], dtype=np.intp
    ).reshape(len(indices), 1 + m)
    return Factored(
        lattice=lattice,
        perp=tuple(monomials(list(kj)) for kj in ks),
        terms=terms,
        coeffs=np.asarray(coeffs, dtype=complex),
    )


def basis_family(config: SpaceConfig, indices, normalized: bool = False):
    """Batch closure (z, z_perp) -> (len(indices), n_points) value matrix.

    Shares the Gaussian base and the phase power tables across the family;
    with its ``factored`` form this is the fast path for Gram batteries.
    """
    indices = list(indices)

    def fam(z, z_perp):
        return basis_eval_many(config, indices, z, z_perp, normalized)

    scale = [1.0 / math.sqrt(basis_norm_sq(config, i)) if normalized else 1.0 for i in indices]
    fam.size = len(indices)
    fam.factored = _factored(config, indices, np.diag(scale))
    return fam


def basis_eval(
    config: SpaceConfig, idx: BasisIndex, u: PointCoordinates, normalized: bool = False
) -> complex:
    """e_{n,k}(u), or the unit-norm version when normalized=True."""
    vals = basis_eval_many(config, [idx], u.z[None, :], u.z_perp[None, :], normalized)
    return complex(vals[0, 0])


def basis_function(config: SpaceConfig, idx: BasisIndex, normalized: bool = False):
    """Batch-evaluable closure (z, z_perp) -> values for one basis index."""

    def f(z, z_perp):
        return basis_eval_many(config, [idx], z, z_perp, normalized)[0]

    scale = 1.0 / math.sqrt(basis_norm_sq(config, idx)) if normalized else 1.0
    f.factored = _factored(config, [idx], [[scale]])
    return f


def basis_norm_sq_log(config: SpaceConfig, idx: BasisIndex) -> float:
    """log ||e_{n,k}||^2; always finite, safe for any index size."""
    _check_index(config, idx)
    r, g, nu = config.r, config.g, config.nu
    n = np.array(idx.n, dtype=float)
    quad = (
        (2.0 * math.pi**2 / nu) * float((n + config.alpha) @ config.lattice.B_inv @ (n + config.alpha))
        if r
        else 0.0
    )
    ktot = sum(idx.k)
    return (
        -0.5 * math.log(config.lattice.det_b)
        + (r / 2.0) * math.log(math.pi / (2.0 * nu))
        + (g - r) * math.log(math.pi / nu)
        + sum(math.lgamma(kj + 1) for kj in idx.k)
        - ktot * math.log(nu)
        + quad
    )


def basis_norm_sq(config: SpaceConfig, idx: BasisIndex) -> float:
    """||e_{n,k}||^2 in closed form.

    Small factorials are taken exactly; beyond |k| = 30 the value is
    assembled in log space.  Raises OverflowError when the result exceeds
    the double range (use basis_norm_sq_log then).
    """
    _check_index(config, idx)
    log_value = basis_norm_sq_log(config, idx)
    if log_value > _LOG_OVERFLOW:
        raise OverflowError(
            f"||e||^2 has log {log_value:.1f}; retrieve it with basis_norm_sq_log"
        )
    r, g, nu = config.r, config.g, config.nu
    ktot = sum(idx.k)
    if ktot > 30:
        return math.exp(log_value)
    n = np.array(idx.n, dtype=float)
    quad = (
        (2.0 * math.pi**2 / nu) * float((n + config.alpha) @ config.lattice.B_inv @ (n + config.alpha))
        if r
        else 0.0
    )
    fact = 1.0
    for kj in idx.k:
        fact *= math.factorial(kj)
    return (
        config.lattice.det_b ** (-0.5)
        * (math.pi / (2.0 * nu)) ** (r / 2.0)
        * (math.pi / nu) ** (g - r)
        * (fact / nu**ktot)
        * math.exp(quad)
    )


def synthesize(config: SpaceConfig, coeffs: CoefficientField, u: PointCoordinates) -> complex:
    """sum a_{n,k} e_{n,k}(u) over the finite coefficient field."""
    if len(coeffs) == 0:
        return complex(0.0)
    vals = basis_eval_many(config, coeffs.indices(), u.z[None, :], u.z_perp[None, :])
    return complex(coeffs.coefficients() @ vals[:, 0])


def synthesized_function(config: SpaceConfig, coeffs: CoefficientField):
    """Batch-evaluable closure for the synthesized field."""
    idxs = coeffs.indices()
    a = coeffs.coefficients()

    def f(z, z_perp):
        if not idxs:
            Z, _ = _as_batch(config, z, z_perp)
            return np.zeros(Z.shape[0], dtype=complex)
        return a @ basis_eval_many(config, idxs, z, z_perp)

    f.factored = _factored(config, idxs, a[None, :])
    return f


def growth_functional(config: SpaceConfig, coeffs: CoefficientField) -> float:
    """sum |a_{n,k}|^2 ||e_{n,k}||^2 — the membership functional.

    Shares the closed-form norm with basis_norm_sq, so Parseval holds by
    construction; quadrature provides the independent check.
    """
    return float(
        sum(abs(a) ** 2 * basis_norm_sq(config, idx) for idx, a in coeffs.entries)
    )


def perp_inner(z_perp, w_perp):
    """<z_perp, w_perp> = sum z_j conj(w_j), batched over leading axes."""
    z_perp = np.asarray(z_perp, dtype=complex)
    w_perp = np.asarray(w_perp, dtype=complex)
    return np.einsum("...j,...j->...", z_perp, np.conj(w_perp))


def _kernel_prefactor(config: SpaceConfig) -> float:
    r, g, nu = config.r, config.g, config.nu
    return (
        math.sqrt(config.lattice.det_b)
        * (2.0 * nu / math.pi) ** (r / 2.0)
        * (nu / math.pi) ** (g - r)
    )


def kernel_section(config: SpaceConfig, v: PointCoordinates, tol: float):
    """Closure u -> K(u, v) evaluating the closed form on point batches.

    The theta factor is evaluated at a per-point absolute tolerance equal
    to tol divided by the magnitude of the outer Gaussian factors, so the
    overall kernel error stays below tol.  In the ``factored`` form the
    lattice factor is the closure at z_perp = 0 and the factor of
    coordinate j is exp(nu z_j conj(v_j)); its theta tolerance is tol over
    the lattice part alone, so its error is tol times the perpendicular
    factors.
    """
    if v.z.shape[0] != config.r or v.z_perp.shape[0] != config.g - config.r:
        raise DimensionMismatch("v does not match the configuration dimensions")
    C = _kernel_prefactor(config)
    zv = v.z[None, :]
    zv_red, log_fv = _reduce_batch(config, zv)
    half_v = 0.5 * config.nu * np.conj(_bilinear(config, zv_red, zv_red)[0]) + np.conj(log_fv[0])

    def with_theta(Zr, outer):
        if config.r == 0:
            return outer
        theta_tol = tol / np.maximum(np.abs(outer), 1e-290)
        vals, _ = _theta.theta_eval_many(
            config.theta_params, Zr - np.conj(zv_red), theta_tol
        )
        return outer * vals

    def f(z, z_perp):
        Z, Zp = _as_batch(config, z, z_perp)
        Zr, log_fu = _reduce_batch(config, Z)
        outer_log = (
            0.5 * config.nu * _bilinear(config, Zr, Zr)
            + half_v
            + config.nu * perp_inner(Zp, np.broadcast_to(v.z_perp, Zp.shape))
            + log_fu
        )
        return with_theta(Zr, C * np.exp(outer_log))

    def lattice(z):
        Zr, log_fu = _reduce_batch(config, z)
        outer = C * np.exp(0.5 * config.nu * _bilinear(config, Zr, Zr) + half_v + log_fu)
        return with_theta(Zr, outer)[None, :]

    def perp_factor(vj):
        return lambda w: np.exp(config.nu * w * np.conj(vj))[None, :]

    m = config.g - config.r
    f.factored = Factored(
        lattice=lattice,
        perp=tuple(perp_factor(vj) for vj in v.z_perp),
        terms=np.zeros((1, 1 + m), dtype=np.intp),
        coeffs=np.ones((1, 1), dtype=complex),
    )
    return f


def kernel_eval(config: SpaceConfig, u: PointCoordinates, v: PointCoordinates, tol: float) -> complex:
    """Reproducing kernel K(u, v) with absolute accuracy tol.

    Scalar path: the theta factor is summed in the deterministic plan
    order with compensated accumulation.  In the degenerate ranks the
    absent factors are exact floating-point no-ops (theta term 1 for
    r = 0, empty perpendicular inner product for r = g).
    """
    if u.z.shape[0] != config.r or v.z.shape[0] != config.r:
        raise DimensionMismatch("points do not match the configuration rank")
    if u.z_perp.shape[0] != config.g - config.r or v.z_perp.shape[0] != config.g - config.r:
        raise DimensionMismatch("points do not match the configuration dimensions")
    C = _kernel_prefactor(config)
    zur, log_fu = _reduce_batch(config, u.z[None, :])
    zvr, log_fv = _reduce_batch(config, v.z[None, :])
    outer_log = (
        0.5 * config.nu * _bilinear(config, zur, zur)[0]
        + np.conj(0.5 * config.nu * _bilinear(config, zvr, zvr)[0] + log_fv[0])
        + config.nu * perp_inner(u.z_perp, v.z_perp)
        + log_fu[0]
    )
    outer = C * np.exp(outer_log)
    if config.r == 0:
        theta_val = complex(1.0)
    else:
        theta_tol = tol / max(abs(outer), 1e-290)
        theta_val = _theta.theta_eval(
            config.theta_params, (zur - np.conj(zvr))[0], theta_tol
        ).value
    return complex(outer * theta_val)


def kernel_diagonal(config: SpaceConfig, u: PointCoordinates, tol: float) -> float:
    """K(u, u) through the all-real diagonal series; strictly positive.

    For the purely imaginary F of a space configuration every diagonal
    theta term is a positive real exponential, so the sum is taken in real
    arithmetic (compensated, in plan order).
    """
    z = np.asarray(u.z, dtype=complex)[None, :]
    zp = np.asarray(u.z_perp, dtype=complex)
    if z.shape[1] != config.r or zp.shape[0] != config.g - config.r:
        raise DimensionMismatch("u does not match the configuration dimensions")
    C = _kernel_prefactor(config)
    zr, log_f = _reduce_batch(config, z)
    outer = (
        C
        * math.exp(
            config.nu * float(np.real(_bilinear(config, zr, zr)[0]))
            + config.nu * float(np.real(perp_inner(zp, zp)))
            + 2.0 * float(np.real(log_f[0]))
        )
    )
    if config.r == 0:
        return outer
    params = config.theta_params
    plan = _theta.truncation_plan(params, (zr - np.conj(zr))[0], tol / max(outer, 1e-290))
    t = plan.index_set + params.alpha
    y = np.imag(zr[0])
    exponents = (
        -(2.0 * math.pi**2 / config.nu) * np.einsum("ij,jk,ik->i", t, config.lattice.B_inv, t)
        - 4.0 * math.pi * (t @ y)
    )
    theta_diag = _theta._neumaier(np.exp(exponents))
    return outer * theta_diag


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
    slack: float = 1e-9,
) -> EvaluationBoundReport:
    """Check |f(u)| <= sqrt(K(u,u)) ||f|| for the synthesized field."""
    lhs = abs(synthesize(config, coeffs, u))
    rhs = math.sqrt(kernel_diagonal(config, u, tol)) * math.sqrt(
        growth_functional(config, coeffs)
    )
    return EvaluationBoundReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + slack))


def series_indices(config: SpaceConfig, n_radius: int, k_total: int):
    """Basis indices with |n_j| <= n_radius and |k| <= k_total.

    Ordered dominant-first for series truncation: by the norm exponent
    (n+alpha)^T B^-1 (n+alpha), then by |k|, then lexicographically.
    """
    r, m = config.r, config.g - config.r
    ns = _integer_box(r, n_radius)
    ks = _multi_indices(m, k_total)
    items = []
    for n in ns:
        na = np.array(n, dtype=float) + config.alpha
        q = float(na @ config.lattice.B_inv @ na) if r else 0.0
        for k in ks:
            items.append((q, sum(k), n, k))
    items.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
    return [BasisIndex(n=n, k=k) for _, _, n, k in items]


def _integer_box(r: int, radius: int):
    if r == 0:
        return [()]
    inner = _integer_box(r - 1, radius)
    return [(v,) + rest for v in range(-radius, radius + 1) for rest in inner]


def _multi_indices(m: int, total: int):
    if m == 0:
        return [()]
    out = []
    for first in range(total + 1):
        for rest in _multi_indices(m - 1, total - first):
            out.append((first,) + rest)
    return out
