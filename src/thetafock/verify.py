"""Seeded property-verification campaigns.

Each suite takes a space configuration and a seeded generator and returns
a list of PropertyOutcome records with measured defects; the CLI renders
them and the acceptance tests drive them across many configurations.
Every complex sample is drawn through one sampler, _gaussian.  The
geometry and theta suites draw each property's samples as arrays: each
geometry property is one array expression over them, and the theta suite
evaluates its unshifted points in batches.  The reproducing and bounds
suites read one kernel sample each: the matrix K(p_i, p_j) of 6 points,
one kernel section's closure per column, and every kernel property is
one expression on it, measured against sqrt(K(p_i, p_i) K(p_j, p_j)),
which bounds |K(p_i, p_j)|.
The two brute-force references sum only the indices their inputs need:
the kernel series (_kernel_series) the indices of one theta plan of the
F/2 series over its points, with |k| up to the degree where the Poisson
tail of the perpendicular factor ends, and plan-soundness the closed-form
bounding box of the ellipsoid where a theta term exceeds its cap.  Each
counts its indices times points against the quadrature work budget
before it builds its index arrays (NodeBudgetExceeded), then builds and
evaluates them in blocks, so its memory stays bounded.
Random configurations are sampled here as well: isotropic generators are
built as real combinations of an H-orthonormal frame, with a Gram
spectrum in the fixed range [0.5, 1.5], so no draw is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature as Q
from . import space as S
from . import theta as T
from .errors import NodeBudgetExceeded
from .geometry import (
    HermitianSpace,
    PointCoordinates,
    b_form,
    b_form_full,
    build_lattice,
    check_rdq,
    coordinates_many,
    validate_space,
)

__all__ = [
    "PropertyOutcome",
    "random_hermitian_space",
    "random_isotropic_generators",
    "random_config",
    "random_field",
    "random_point",
    "verify_geometry",
    "verify_theta",
    "NormsBattery",
    "norms_battery",
    "verify_orthogonality",
    "verify_reproducing",
    "verify_bounds",
    "SUITES",
    "run_suite",
]


@dataclass(frozen=True)
class PropertyOutcome:
    name: str
    passed: bool
    defect: float
    tolerance: float
    detail: str = ""


def _outcome(name, defect, tolerance, detail=""):
    return PropertyOutcome(
        name=name, passed=bool(defect <= tolerance), defect=float(defect),
        tolerance=float(tolerance), detail=detail,
    )


def _relative(lhs, rhs) -> float:
    """Worst |lhs - rhs| / max(|lhs|, 1) over the samples (entries) of lhs."""
    return float((np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1.0)).max())


# index values over points that a reference evaluates at a time
_BLOCK = 1 << 16


def _counted(what: str, indices: int, points: int) -> int:
    """indices, once its indices x points values are within the work budget;
    NodeBudgetExceeded, before any index is built, when they are not."""
    if indices * points > Q._WORK_BUDGET:
        raise NodeBudgetExceeded(f"{what} would take {indices} x {points} values, more than "
                                 f"the budget of {Q._WORK_BUDGET:.3e}")
    return indices


def _blocks(count: int, points: int):
    """range(count) in consecutive blocks of at most _BLOCK // points entries (at least one)."""
    step = max(1, _BLOCK // points)
    for start in range(0, count, step):
        yield np.arange(start, min(start + step, count))


def _centers(params: T.ThetaParameters, Z):
    """Centers c = -alpha - Y^-1 Im z and log prefactors pi Im z^T Y^-1 Im z of the rows
    of Z: term n of the theta series at z has log magnitude log_pref - pi |U(n - c)|^2."""
    s = np.asarray(Z).imag
    sy = s @ params.y_inv
    return -params.alpha - sy, math.pi * np.einsum("ij,ij->i", sy, s)


# ---------------------------------------------------------------------------
# random sampling


def _gaussian(rng, shape, scale: float = 1.0) -> np.ndarray:
    """scale (x + i y) for standard normal x then y of the given shape."""
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_hermitian_space(rng, g: int) -> HermitianSpace:
    A = _gaussian(rng, (g, g))
    H = A.conj().T @ A / g + 0.4 * np.eye(g)
    return validate_space(H)


def random_isotropic_generators(rng, space: HermitianSpace, r: int) -> np.ndarray:
    """Draw r generators with pairwise vanishing symplectic form, by construction.

    With H = L L* and a random unitary Q, the rows of F = Q L^-1 are
    H-orthonormal; real combinations of them have a real H-Gram matrix, so
    E = Im H vanishes on every pair.  The generators are
    O diag(sqrt(lambda)) F[:r], with O a random real orthogonal matrix and
    lambda uniform in [0.5, 1.5]: their Gram matrix is O diag(lambda) O^T.
    Every isotropic set arises this way, since Gram-Schmidt of one has
    real coefficients.
    """
    L = np.linalg.cholesky(space.matrix)
    Q = np.linalg.qr(_gaussian(rng, (space.g, space.g)))[0]
    F = Q @ np.linalg.inv(L)
    O = np.linalg.qr(rng.standard_normal((r, r)))[0]
    return (O * np.sqrt(rng.uniform(0.5, 1.5, size=r))) @ F[:r]


def random_config(rng, g: int, r: int) -> S.SpaceConfig:
    """Random well-conditioned configuration, with nu uniform in [1.5, 4).

    The lattice's Gram matrix B has its spectrum in the fixed range
    [0.5, 1.5], so cond(B) <= 3: the norm exponent 2 pi^2/nu (n+a) B^-1 (n+a)
    leaves the double range at |n| <= 2 once B is badly conditioned, which
    is an input problem rather than an implementation one.
    """
    space = random_hermitian_space(rng, g)
    lattice = build_lattice(space, random_isotropic_generators(rng, space, r))
    alpha = rng.uniform(0.0, 1.0, size=r)
    nu = float(rng.uniform(1.5, 4.0))
    return S.make_config(lattice, alpha, nu)


def random_field(rng, config: S.SpaceConfig, max_terms: int = 4, n_inf: int = 2,
                 k_total: int = 2) -> S.CoefficientField:
    r, m = config.r, config.g - config.r
    available = (2 * n_inf + 1) ** r * math.comb(k_total + m, m)
    entries = {}
    n_terms = min(int(rng.integers(1, max_terms + 1)), available)
    while len(entries) < n_terms:
        n = tuple(int(v) for v in rng.integers(-n_inf, n_inf + 1, size=r))
        k = tuple(int(v) for v in rng.integers(0, k_total + 1, size=m))
        if sum(k) > k_total:
            continue
        a = complex(_gaussian(rng, ()))
        entries[S.BasisIndex(n=n, k=k)] = a
    return S.CoefficientField.from_dict(entries)


def random_point(rng, config: S.SpaceConfig, scale: float = 0.5) -> PointCoordinates:
    return PointCoordinates(z=_gaussian(rng, config.r, scale),
                            z_perp=_gaussian(rng, config.g - config.r, scale))


# ---------------------------------------------------------------------------
# geometry suite


def verify_geometry(config: S.SpaceConfig, rng) -> list[PropertyOutcome]:
    """Each sampled property is one array check over 20 samples, the rows of its draws."""
    lat = config.lattice
    space, g, r = lat.space, lat.g, lat.r
    P, P_inv = lat.basis_matrix, lat.inv_basis_matrix  # coordinates -> ambient, and back
    out = []

    if r:  # the lattice checks list no outcome for an empty lattice
        gram = space.hermitian(lat.generators[:, None, :], lat.generators[None, :, :])
        out.append(_outcome("generator-isotropy", float(np.abs(gram.imag).max()), space.tol))
        b_min = float(np.linalg.eigvalsh(lat.B).min())
        out.append(_outcome("gram-positive-definite", max(0.0, -b_min), 0.0,
                            detail=f"min eigenvalue {b_min:.6e}"))
        bb = lat.B @ lat.B_inv - np.eye(r)
        out.append(_outcome("gram-inverse", float(np.abs(bb).max()), space.tol))

    # conjugating both slots in coordinates transposes the pairing on the
    # lattice span: H(conj(v), conj(u)) = H(u, v)
    U, V = (_gaussian(rng, (20, r)) @ P[:, :r].T for _ in range(2))

    def conj(X):  # coordinate_conjugate of each row
        return np.conj(X @ P_inv.T) @ P.T

    out.append(_outcome("span-conjugation-symmetry",
                        _relative(space.hermitian(U, V), space.hermitian(conj(V), conj(U))), 1e-10))

    # H(u, gamma) equals the bilinear extension on lattice vectors
    U = _gaussian(rng, (20, g))
    gam = lat.gamma(rng.integers(-3, 4, size=(20, r)))
    out.append(_outcome("lattice-bilinear-pairing",
                        _relative(space.hermitian(U, gam), b_form_full(lat, U, gam)), 1e-10))
    rhs = b_form_full(lat, U, U) + 2.0 * space.hermitian(U + 0.5 * gam, gam)
    out.append(_outcome("bilinear-square-expansion",
                        _relative(b_form_full(lat, U + gam, U + gam), rhs), 1e-10))

    # hermitian form decomposes over the adapted coordinates
    U, V = _gaussian(rng, (20, g)), _gaussian(rng, (20, g))
    (zu, pu), (zv, pv) = coordinates_many(lat, U), coordinates_many(lat, V)
    rhs = b_form(lat, zu, np.conj(zv)) + S.perp_inner(pu, pv)
    out.append(_outcome("form-coordinate-decomposition", _relative(space.hermitian(U, V), rhs),
                        1e-10))

    # coordinate round trip
    U = _gaussian(rng, (20, g))
    out.append(_outcome("coordinate-round-trip", _relative(U, U @ P_inv.T @ P.T), 1e-12))

    # cocycle gate: the configured character passes, a warped one fails
    rep = check_rdq(lat, config.character, config.nu)
    out.append(_outcome("cocycle-character", rep.worst_defect, 1e-9))
    if r >= 2:
        rep_bad = check_rdq(lat, _non_character(config.alpha), config.nu)
        out.append(
            _outcome(
                "cocycle-rejects-non-character",
                0.0 if (not rep_bad.passed and rep_bad.worst_defect > 1e-6) else 1.0,
                0.0,
                detail=f"defect {rep_bad.worst_defect:.3e} at {rep_bad.worst_pair}",
            )
        )
    return out


def _non_character(alpha):
    """A map that is not a character: exp(2 pi i m.alpha + i m_0 m_1), for r >= 2."""

    def chi(m):
        m = np.asarray(m, dtype=float)
        return np.exp(2j * np.pi * (m @ alpha) + 1j * m[0] * m[1])

    return chi


# ---------------------------------------------------------------------------
# theta suite


def verify_theta(config: S.SpaceConfig, rng) -> list[PropertyOutcome]:
    """Each sampled property draws its samples as arrays; unshifted values come in batches."""
    params = config.theta_params
    out = []
    r = params.r
    if r == 0:  # the one outcome of an empty series: its value is 1
        val = T.theta_eval(params, np.zeros(0), 1e-12)
        out.append(_outcome("empty-rank-value", abs(val.value - 1.0), 0.0))
        return out

    z0 = _gaussian(rng, r, 0.4)
    a1 = T.theta_eval(params, z0, 1e-12)
    a2 = T.theta_eval(params, z0, 1e-12)
    out.append(
        _outcome("determinism", 0.0 if (a1.value == a2.value and a1.tail_bound == a2.tail_bound) else 1.0, 0.0)
    )

    tol = 1e-10
    Z, M, M2 = (_gaussian(rng, (10, r), 0.6), rng.integers(-2, 3, size=(10, r)),
                rng.integers(-1, 2, size=(10, r)))
    defects = [T.theta_quasiperiodicity_defect(params, *sample, tol) for sample in zip(Z, M, M2)]
    # configs with large Im F make both sides big; measure the defect
    # against their scale, where the truncation budget is meaningful
    lhs, _ = T.theta_eval_many(params, np.concatenate([Z + M, Z + M2 @ params.F.T]), tol)
    scale = np.maximum(1.0, np.abs(lhs).reshape(2, -1).max(axis=0))
    out.append(_outcome("quasi-periodicity", float(np.max(defects / scale)), 2 * tol))

    Z, M = _gaussian(rng, (10, r), 0.6), rng.integers(-2, 3, size=(10, r))
    base, _ = T.theta_eval_many(params, Z, tol)
    shifted = [
        T.theta_eval(T.validate_parameters(params.F, alpha=params.alpha + m, beta=params.beta),
                     z, tol).value
        for z, m in zip(Z, M)
    ]
    # on the value's scale, as quasi-periodicity: rounding grows with |theta|
    scale = np.maximum(1.0, np.abs(base))
    out.append(_outcome("characteristic-shift", float((np.abs(shifted - base) / scale).max()),
                        2 * tol))

    # empirical tails never exceed the certified bound along a radius grid
    z = _gaussian(rng, r, 0.5)
    ref = T.theta_eval(params, z, 1e-13)
    approx = [T.theta_eval(params, z, float(tol_k)) for tol_k in np.logspace(-2, -9, 8)]
    excess = [abs(a.value - ref.value) - (a.tail_bound + ref.tail_bound) for a in approx]
    out.append(_outcome("tail-soundness", max(0.0, *excess), 0.0))

    # every term larger than tail/|set| lies inside the planned set.  Term n has log
    # magnitude log_pref - pi |U(n - c)|^2, so every such term lies in the ellipsoid
    # |U(n - c)|^2 < q = (log_pref - log cap)/pi, within |n_j - c_j| <= sqrt(q (Y^-1)_jj);
    # q is widened by 1e-6 against the rounding of the exponents theta sums
    plan = T.truncation_plan(params, z, 1e-6)
    cap = plan.tail_bound / max(plan.index_set.shape[0], 1)
    (c,), (log_pref,) = _centers(params, z[None, :])
    w = np.sqrt(max((log_pref - math.log(cap)) / math.pi + 1e-6, 0.0) * np.diag(params.y_inv))
    lo = np.ceil(c - w)
    sides = [int(side) for side in np.floor(c + w) - lo + 1]  # floor(c + w) >= ceil(c - w) - 1
    count = _counted("plan-soundness", math.prod(sides), 1)
    planned = {tuple(row) for row in plan.index_set.tolist()}
    missing = 0
    for block in _blocks(count, 1):
        box = np.column_stack(np.unravel_index(block, sides)) + lo.astype(np.int64)
        log_mags = T.log_terms(params, z[None, :], box)[0].real
        missing += sum(tuple(row) not in planned for row in box[np.exp(log_mags) > cap].tolist())
    out.append(_outcome("plan-soundness", float(missing), 0.0, detail=f"{missing} escapees"))
    return out


# ---------------------------------------------------------------------------
# orthogonality suite

_NODES = (Q._DEFAULT_COMPACT_NODES, Q._DEFAULT_UNBOUNDED_NODES)  # (compact, unbounded) nodes


@dataclass(frozen=True)
class NormsBattery:
    """Oracle Gram matrix of a basis index box against the closed-form norms."""

    indices: tuple  # (n, k) integer arrays, one row per basis index
    oracle: np.ndarray  # real part of the oracle Gram diagonal
    closed: np.ndarray  # closed-form squared norms
    defects: np.ndarray  # relative diagonal defects
    off_diagonal: float  # worst |G_ij| / sqrt(closed_i closed_j) over i != j


def norms_battery(config: S.SpaceConfig, grid, n_max: int, k_max: int) -> NormsBattery:
    """Gram battery over |n_j| <= n_max, |k| <= k_max on the given grid; NodeBudgetExceeded,
    before any index is built, when its N x N Gram has more entries than the work budget."""
    m = config.g - config.r
    n = (2 * n_max + 1) ** config.r * math.comb(k_max + m, m)
    _counted("the norms battery's Gram matrix", n, n)
    idxs = S.series_indices(config, n_max, k_max)
    G, _ = Q.gram_matrix(config, S.basis_family(config, idxs), grid)
    closed = S._exp_norms(S._log_norms(config, idxs))
    oracle = np.diag(G).real
    root = np.sqrt(closed)  # the product closed_i closed_j overflows past ~1e154 each
    off = np.abs(G - np.diag(np.diag(G))) / np.outer(root, root)
    return NormsBattery(
        indices=idxs,
        oracle=oracle,
        closed=closed,
        defects=np.abs(oracle - closed) / closed,
        off_diagonal=float(off.max()),
    )


def verify_orthogonality(
    config: S.SpaceConfig, rng, n_inf: int = 2, nodes: tuple = _NODES
) -> list[PropertyOutcome]:
    out = []
    compact, unbounded = nodes
    grid = Q.build_grid(config, compact_nodes=compact, unbounded_nodes=unbounded)
    out.append(_outcome("grid-self-calibration", grid.estimated_error, 1e-9))

    battery = norms_battery(config, grid, n_inf, k_max=2)
    out.append(_outcome("norms-match-closed-form", float(battery.defects.max()), 1e-6))
    out.append(_outcome("off-diagonal-orthogonality", battery.off_diagonal, 1e-6))

    # Parseval for a random finite field
    coeffs = random_field(rng, config)
    f = S.synthesized_function(config, coeffs)
    quad_norm = Q.inner_product(config, f, f, grid).value
    closed = S.growth_functional(config, coeffs)
    out.append(
        _outcome("parseval", abs(quad_norm.real - closed) / max(closed, 1e-300), 1e-6)
    )

    # the norm is independent of where the compact box sits
    shift = rng.uniform(0.1, 0.9, size=config.r)
    grid_shifted = Q.build_grid(config, compact_nodes=compact, unbounded_nodes=unbounded,
                                box_offset=shift)
    quad_shifted = Q.inner_product(config, f, f, grid_shifted).value
    out.append(
        _outcome(
            "translation-invariance",
            abs(quad_shifted - quad_norm) / max(abs(quad_norm), 1e-300),
            1e-8,
            detail=f"box offset {np.round(shift, 3).tolist()}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# reproducing-kernel suite


def _kernel_sample(config: S.SpaceConfig, rng):
    """6 points at scale 0.4, the kernel section of each at tol 1e-12, and the matrix
    K[i, j] = K(p_i, p_j): column j is section j evaluated over the whole batch."""
    Z, Zp = _gaussian(rng, (6, config.r), 0.4), _gaussian(rng, (6, config.g - config.r), 0.4)
    pts = [PointCoordinates(z=z, z_perp=zp) for z, zp in zip(Z, Zp)]
    sections = [S.kernel_section(config, p, 1e-12) for p in pts]
    return pts, sections, np.column_stack([section(Z, Zp) for section in sections])


def verify_reproducing(config: S.SpaceConfig, rng, nodes: tuple = _NODES) -> list[PropertyOutcome]:
    """Each property is one expression on the sample's kernel matrix, over sqrt(K_ii K_jj)."""
    compact, unbounded = nodes
    grid = Q.build_grid(config, compact_nodes=compact, unbounded_nodes=unbounded)
    pts, sections, K = _kernel_sample(config, rng)
    root = np.sqrt(np.diag(K).real)  # |K_ij| <= sqrt(K_ii K_jj), Cauchy-Schwarz on the sections
    scale = np.outer(root, root)

    # <K_u, K_v> = K_u(v) = K(v, u), for consecutive sample points
    inner = [Q.inner_product(config, sections[i + 1], sections[i], grid, refine=False).value
             for i in range(len(pts) - 1)]
    out = [_outcome("reproducing-property",
                    float((np.abs(inner - np.diag(K, 1)) / np.diag(scale, 1)).max()), 1e-5)]
    out.append(_outcome("kernel-series-agreement",
                        float((np.abs(K - _kernel_series(config, pts, pts)) / scale).max()), 1e-8))
    out.append(_outcome("kernel-hermitian-symmetry",
                        float((np.abs(K - K.conj().T) / scale).max()), 1e-10))
    return out


# the share of K(p, p) that each part of the kernel series may omit at a point p
_SERIES_SHARE = 5e-15


def _kernel_series(config: S.SpaceConfig, us, vs) -> np.ndarray:
    """Basis expansion of the kernel over the indices its points need, as a matrix.

    Entry [i, j] sums e_{n,k}(us[i]) conj(e_{n,k}(vs[j])) / ||e_{n,k}||^2.
    At a point p = (z, z_perp), |e_{n,k}(p)|^2 / ||e_{n,k}||^2 is
    C e^(nu Re B(z,z)) a_n(z)^2 times nu^|k| |z_perp^k|^2 / k!, with a_n(z)
    the magnitude of term n of the theta series of F/2 at z; so K(p, p) is
    C e^(nu Re B(z,z) + nu |z_perp|^2) times the sum of the a_n^2.  Each
    part omits at most a share 5e-15 of it:

    - n: one theta.plan of the F/2 series over all the points, at the log
      tolerance log a_n0 + 1/2 log(5e-15) per point, n0 the rounded center.
      The a_n it omits sum to at most sqrt(5e-15) a_n0, so their squares
      to 5e-15 a_n0^2, at most 5e-15 times the sum of the a_n^2.
    - k: |k| <= K, the first degree at which the Poisson tail of mean
      nu |z_perp|^2, largest over the points, is at most 5e-15; the terms
      of degree d sum to the Poisson weight of d times e^(nu |z_perp|^2).

    So each point omits at most 1e-14 K(p, p), and by Cauchy-Schwarz each
    entry at most 1e-14 sqrt(K(us[i], us[i]) K(vs[j], vs[j])).  The plan
    picks the indices only: values come from basis_eval_many, scaled by
    1/||e_{n,k}|| through log space (_log_norms), so an index whose norm
    overflows the double range underflows to zero.  The (n, k) indices
    times the points are counted against the work budget before any
    (n, k) index is built (NodeBudgetExceeded); they are built, evaluated
    and summed in blocks.
    """
    points = us if vs is us else [*us, *vs]
    Z, Zp = np.array([p.z for p in points]), np.array([p.z_perp for p in points])
    params = config.half_theta_params
    centers, log_pref = _centers(params, Z)
    d = (np.rint(centers) - centers) @ params.chol.T  # U(n0 - c)
    ns = T.plan(params, Z, log_pref - math.pi * np.einsum("ij,ij->i", d, d)
                + 0.5 * math.log(_SERIES_SHARE))[1]
    degree = _poisson_degree(config.nu * float(np.max(np.sum(np.abs(Zp) ** 2, axis=1))))
    m = config.g - config.r
    count = _counted("the kernel series", len(ns) * math.comb(degree + m, m), len(points))
    ks = S.series_indices(config, 0, degree)[1]
    out = np.zeros((len(us), len(vs)), dtype=complex)
    for block in _blocks(count, len(points)):
        idx = ns[block // len(ks)], ks[block % len(ks)]
        inv_norms = np.exp(-0.5 * S._log_norms(config, idx))[:, None]
        a = inv_norms * S.basis_eval_many(config, idx, Z, Zp)
        out += a[:, :len(us)].T @ a[:, len(points) - len(vs):].conj()
    return out


def _poisson_degree(x: float) -> int:
    """The first degree K at which P(D > K) <= _SERIES_SHARE, for D Poisson of mean x.

    Past d + 1 > x the weights e^-x x^d / d! fall by at least x / (K + 2)
    per degree, so the tail is at most the weight of K + 1 over
    1 - x / (K + 2).  At x = 0 every weight past degree 0 is 0.
    """
    K = 0
    while x > 0 and not (K + 2 > x and -x + (K + 1) * math.log(x) - math.lgamma(K + 2)
                         - math.log1p(-x / (K + 2)) <= math.log(_SERIES_SHARE)):
        K += 1
    return K


# ---------------------------------------------------------------------------
# bounds suite


def verify_bounds(config: S.SpaceConfig, rng) -> list[PropertyOutcome]:
    """The evaluation bound samples fields one at a time; the kernel properties read one
    kernel matrix, the series identity on the kernel's own scale K(u, u)."""
    out = []
    failures = 0
    worst_ratio = 0.0
    for _ in range(100):
        coeffs = random_field(rng, config)
        u = random_point(rng, config, scale=0.8)
        rep = S.evaluation_bound_check(config, coeffs, u)
        if not rep.holds:
            failures += 1
        if rep.rhs > 0:
            worst_ratio = max(worst_ratio, rep.lhs / rep.rhs)
    out.append(
        _outcome(
            "evaluation-bound", float(failures), 0.0,
            detail=f"worst |f|/bound ratio {worst_ratio:.6f}",
        )
    )

    pts, _, K = _kernel_sample(config, rng)
    diag = np.array([S.kernel_diagonal(config, p, 1e-12) for p in pts])
    worst = float((np.abs(diag - np.diag(K)) / diag).max()) if diag.min() > 0 else math.inf
    out.append(_outcome("diagonal-consistency", worst, 1e-10))

    eigs = np.linalg.eigvalsh(0.5 * (K + K.conj().T))
    out.append(_outcome("kernel-positive-semidefinite", max(0.0, -float(eigs.min())),
                        1e-8 * float(np.trace(K).real)))

    # truncated diagonal series approaches the closed-form diagonal
    series = np.diag(_kernel_series(config, pts, pts)).real
    out.append(_outcome("diagonal-series-identity", float((np.abs(series - diag) / diag).max()),
                        1e-8))

    # K(z, t z_perp) grows with |t| through the exp(nu |z_perp|^2) factor
    # (at r = g the doubled point is the point itself)
    doubled = np.array([S.kernel_diagonal(config, PointCoordinates(z=p.z, z_perp=2 * p.z_perp),
                                          1e-12) for p in pts])
    out.append(_outcome("diagonal-perp-monotonicity", float((doubled < diag).any()), 0.0))
    return out


SUITES = {
    "geometry": verify_geometry,
    "theta": verify_theta,
    "orthogonality": verify_orthogonality,
    "reproducing": verify_reproducing,
    "bounds": verify_bounds,
}


def run_suite(config: S.SpaceConfig, suite: str, seed: int = 0,
              nodes: tuple = _NODES) -> list[PropertyOutcome]:
    """Run one named suite (or 'all'), each with a generator of the same seed.

    The grid suites (orthogonality, reproducing) take the node counts
    (compact, unbounded) of their grids.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)} or 'all'")
    results = []
    for name, fn in SUITES.items():
        if suite in ("all", name):
            grid = {"nodes": nodes} if name in ("orthogonality", "reproducing") else {}
            results.extend(fn(config, np.random.default_rng(seed), **grid))
    return results
