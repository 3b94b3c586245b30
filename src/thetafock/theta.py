"""Riemann theta function with characteristics, by certified truncation.

The series summed is

    T(z) = sum_{n in Z^r} exp(2 pi i (1/2 (a+n) F (a+n) + (a+n)(z+b)))

for a symmetric F with positive definite imaginary part Y = Im F.  Writing
t = n + a and s = Im(z + b), the term magnitudes are

    |term(n)| = exp(pi s^T Y^-1 s) * exp(-pi |Y^(1/2) (n - c)|^2),

with real center c = -a - Y^-1 s.  Truncation keeps the lattice points of
the ellipsoid |Y^(1/2)(n - c)| <= R.  The omitted mass is bounded by a
shell integral: every omitted n owns a disjoint parallelepiped of volume
sqrt(det Y) within distance delta = sigma_max(Y^(1/2)) sqrt(r)/2 of its
image point, so

    tail(R) <= exp(pi s^T Y^-1 s) / sqrt(det Y)
               * Surf(r-1) * int_{max(R-delta,0)}^inf t^(r-1)
                 exp(-pi max(t-delta,0)^2) dt,

which is evaluated in closed form through upper incomplete gamma
functions Gamma(s, x) at half-integer s: the recurrence
Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x from Gamma(1/2, x) =
sqrt(pi) erfc(sqrt x) or Gamma(1, x) = e^-x, rounded up by a relative
1e-12 so that floating-point error cannot undercut it.  The bound is
crude but certified and monotone in R.

Every entry point goes through one planner and one reducer.  The planner
takes the rows s = Im(z + b) of a batch, finds one radius for the
tightest row, and enumerates one index set covering every row's
ellipsoid; a single point is a batch of one.  The reducer sums the
planned terms of each row in plan order (dominant terms first) with
numpy's pairwise summation, so the rounding error is about
log2(K) eps sum |terms| for K terms, and a row's value does not depend on
the other rows of its batch.  A sum that leaves the double range raises
ValueOutOfRange instead of returning inf or NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    ImaginaryPartNotPositiveDefinite,
    NotSymmetric,
    TailBoundUnreachable,
    ValueOutOfRange,
)

__all__ = [
    "ThetaParameters",
    "TruncationPlan",
    "ThetaResult",
    "validate_parameters",
    "truncation_plan",
    "theta_eval",
    "theta_eval_many",
    "eval_with_plan",
    "theta_quasiperiodicity_defect",
]

_RADIUS_STEP = 0.5
# Relative round-up of _upper_gamma_half, far above the ~3e-14 rounding
# error of its recurrence for s <= 5 and x <= 400 (against 50-digit
# mpmath), so the shell bound stays an upper bound.
_GAMMA_ROUND_UP = 1.0 + 1e-12
_MAX_INDICES = 5_000_000
# Cap on the bytes of one complex (points x terms) temporary in the reducer;
# batches are summed in chunks of rows that stay under it.
_CHUNK_BYTES = 1 << 24


def _readonly(a):
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ThetaParameters:
    """Validated (F, alpha, beta) triple for an r-dimensional theta series."""

    r: int
    F: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    # derived, filled by validate_parameters
    y_sqrt: np.ndarray = None
    y_inv: np.ndarray = None
    lambda_min: float = 0.0
    det_y: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        for name in ("F", "alpha", "beta", "y_sqrt", "y_inv"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def max_radius(self) -> float:
        """Default radius budget; exceeding it raises TailBoundUnreachable."""
        return 40.0 / math.sqrt(self.lambda_min) if self.r else 0.0


def validate_parameters(F, alpha=None, beta=None) -> ThetaParameters:
    """Check symmetry of F and positive definiteness of Im F."""
    F = np.asarray(F, dtype=complex)
    if F.size == 0:
        F = F.reshape(0, 0)
    F = np.atleast_2d(F)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise DimensionMismatch(f"F must be square, got shape {F.shape}")
    r = F.shape[0]
    alpha = np.zeros(r) if alpha is None else np.asarray(alpha, dtype=float).reshape(-1)
    beta = np.zeros(r) if beta is None else np.asarray(beta, dtype=float).reshape(-1)
    if alpha.shape[0] != r or beta.shape[0] != r:
        raise DimensionMismatch("alpha and beta must have length r")
    if r == 0:
        return ThetaParameters(
            r=0, F=F, alpha=alpha, beta=beta,
            y_sqrt=np.zeros((0, 0)), y_inv=np.zeros((0, 0)),
            lambda_min=math.inf, det_y=1.0, delta=0.0,
        )
    scale = max(1.0, float(np.abs(F).max()))
    asym = np.abs(F - F.T)
    if asym.max() > 1e-10 * scale:
        j, k = np.unravel_index(int(asym.argmax()), asym.shape)
        raise NotSymmetric(f"F[{j}][{k}] != F[{k}][{j}] (difference {F[j, k] - F[k, j]})")
    Y = 0.5 * (F.imag + F.imag.T)
    evals, evecs = np.linalg.eigh(Y)
    if evals.min() <= 1e-12 * scale:
        raise ImaginaryPartNotPositiveDefinite(
            f"min eigenvalue of Im F is {evals.min():.6e}"
        )
    y_sqrt = (evecs * np.sqrt(evals)) @ evecs.T
    y_inv = (evecs / evals) @ evecs.T
    delta = math.sqrt(evals.max()) * math.sqrt(r) / 2.0
    return ThetaParameters(
        r=r, F=F, alpha=alpha, beta=beta,
        y_sqrt=y_sqrt, y_inv=y_inv,
        lambda_min=float(evals.min()), det_y=float(np.prod(evals)), delta=delta,
    )


@dataclass(frozen=True)
class TruncationPlan:
    """Ellipsoid index set with a certified bound on the omitted mass."""

    radius: float
    index_set: np.ndarray  # (K, r) integers, deterministic summation order
    tail_bound: float
    center: np.ndarray  # real ellipsoid center in index space
    log_prefactor: float  # pi s^T Y^-1 s

    def __post_init__(self):
        object.__setattr__(self, "index_set", _readonly(self.index_set))
        object.__setattr__(self, "center", _readonly(self.center))


@dataclass(frozen=True)
class ThetaResult:
    value: complex
    tail_bound: float
    terms: int


def _upper_gamma_half(j: int, x: float) -> float:
    """Upper incomplete gamma Gamma((j+1)/2, x) for x >= 0, rounded up.

    Starts from Gamma(1/2, x) = sqrt(pi) erfc(sqrt x) or Gamma(1, x) = e^-x
    and steps Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x.  Every term is
    non-negative, so the rounding error grows by a few ulps per step.
    """
    if j % 2:
        s, gam = 1.0, math.exp(-x)
    else:
        s, gam = 0.5, math.sqrt(math.pi) * math.erfc(math.sqrt(x))
    for _ in range(j // 2):
        gam = s * gam + (math.exp(s * math.log(x) - x) if x > 0.0 else 0.0)
        s += 1.0
    return gam * _GAMMA_ROUND_UP


def _shell_integral(r: int, delta: float, R: float) -> float:
    """int_{max(R-delta,0)}^inf t^(r-1) exp(-pi max(t-delta,0)^2) dt."""
    a = max(R - delta, 0.0)
    total = 0.0
    if a < delta:
        total += (delta**r - a**r) / r
    b = max(a - delta, 0.0)
    # int_b^inf (s+delta)^(r-1) e^(-pi s^2) ds, expanded binomially;
    # int_b^inf s^j e^(-pi s^2) ds = Gamma((j+1)/2, pi b^2) / (2 pi^((j+1)/2))
    x = math.pi * b * b
    for j in range(r):
        coeff = math.comb(r - 1, j) * delta ** (r - 1 - j)
        total += coeff * _upper_gamma_half(j, x) / (2.0 * math.pi ** ((j + 1) / 2.0))
    return total


def _shell_bound(params: ThetaParameters, R: float) -> float:
    if params.r == 0:
        return 0.0
    surf = 2.0 * math.pi ** (params.r / 2.0) / math.gamma(params.r / 2.0)
    return surf / math.sqrt(params.det_y) * _shell_integral(params.r, params.delta, R)


def _find_radius(params: ThetaParameters, log_target: float, max_radius: float):
    """Smallest grid radius whose log shell mass is below the target."""
    R = 1.0
    while R <= max_radius:
        sb = _shell_bound(params, R)
        log_sb = math.log(sb) if sb > 0.0 else -math.inf
        if log_sb <= log_target:
            return R, log_sb
        R += _RADIUS_STEP
    raise TailBoundUnreachable(
        f"radius budget {max_radius:.3g} reached with log shell bound "
        f"{math.log(max(_shell_bound(params, max_radius), 5e-324)):.3f} > "
        f"target {log_target:.3f}"
    )


def _enumerate_box(params: ThetaParameters, lo: np.ndarray, hi: np.ndarray, R: float) -> np.ndarray:
    """Integer points within Y-distance R of the box [lo, hi]."""
    extents = R * np.sqrt(np.diag(params.y_inv))
    mins = np.floor(lo - extents).astype(np.int64)
    maxs = np.ceil(hi + extents).astype(np.int64)
    counts = maxs - mins + 1
    total = int(np.prod(counts.astype(float)))
    if total > _MAX_INDICES or total < 0:
        raise TailBoundUnreachable(
            f"index box of {total} points exceeds the {_MAX_INDICES} budget"
        )
    axes = [np.arange(m, M + 1, dtype=np.int64) for m, M in zip(mins, maxs)]
    grid = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grid], axis=1)
    nearest = np.clip(pts, lo, hi)
    dist = np.linalg.norm((pts - nearest) @ params.y_sqrt.T, axis=1)
    return pts[dist <= R + 1e-12]


def _plan(params: ThetaParameters, S: np.ndarray, log_tol, max_radius: float | None):
    """One truncation plan for the rows S = Im(Z + beta) of a batch.

    The radius meets the tightest row's target log_tol - log_prefactor;
    the index set covers every row's ellipsoid, so extra indices only
    tighten the other rows.  Returns (radius, index set, centers,
    log_prefactors, tails), the tails being each row's certified bound on
    the omitted mass.
    """
    SY = S @ params.y_inv.T
    centers = -params.alpha - SY
    log_pref = math.pi * np.einsum("ij,ij->i", SY, S)
    budget = params.max_radius if max_radius is None else float(max_radius)
    R, log_sb = _find_radius(params, float((log_tol - log_pref).min()), budget)
    lo, hi = centers.min(axis=0), centers.max(axis=0)
    idx = _sort_indices(params, _enumerate_box(params, lo, hi, R), 0.5 * (lo + hi))
    # each tail is at most its row's tol, so exp cannot overflow; the floor keeps it positive
    tails = np.exp(np.maximum(log_pref + log_sb, -744.0))
    return R, idx, centers, log_pref, tails


def truncation_plan(
    params: ThetaParameters, z, tol: float, max_radius: float | None = None
) -> TruncationPlan:
    """Plan for one target point: index set plus certified tail bound.

    The ellipsoid is recentered at the real minimizer of the term
    magnitude, c = -alpha - Y^-1 Im(z + beta), so the plan adapts to
    large imaginary parts.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if params.r == 0:
        return TruncationPlan(
            radius=0.0,
            index_set=np.zeros((1, 0), dtype=np.int64),
            tail_bound=0.0,
            center=np.zeros(0),
            log_prefactor=0.0,
        )
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape[0] != params.r:
        raise DimensionMismatch(f"z must have length {params.r}")
    R, idx, centers, log_pref, tails = _plan(
        params, np.imag(z + params.beta)[None, :], np.log(tol), max_radius
    )
    return TruncationPlan(
        radius=R,
        index_set=idx,
        tail_bound=float(tails[0]),
        center=centers[0],
        log_prefactor=float(log_pref[0]),
    )


def _sort_indices(params: ThetaParameters, idx: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Dominant terms first, lexicographic tie-break; fixes summation order."""
    if idx.shape[0] == 0:
        return idx
    q = np.einsum("ij,ij->i", (idx - center) @ params.y_sqrt.T, (idx - center) @ params.y_sqrt.T)
    keys = tuple(idx[:, j] for j in reversed(range(params.r))) + (q,)
    return idx[np.lexsort(keys)]


def _term_exponents(params: ThetaParameters, z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """2 pi i (1/2 t F t + t.(z + beta)) for t = idx + alpha.

    z of shape (..., r) gives shape (..., K).  The linear part is built
    one coordinate at a time, so each entry is computed the same way
    whatever the number of points.
    """
    t = idx + params.alpha
    zb = z + params.beta
    out = 0.5 * np.einsum("ij,jk,ik->i", t, params.F, t) + zb[..., :1] * t[:, 0]
    for j in range(1, params.r):
        out += zb[..., j : j + 1] * t[:, j]
    out *= 2j * np.pi
    return out


def _sum_terms(params: ThetaParameters, Z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Sum of the planned terms at each row of Z (N, r), in plan order.

    Rows are processed in chunks whose (rows x terms) temporaries stay
    under _CHUNK_BYTES; the chunking does not change any value.  Raises
    ValueOutOfRange when a sum is not finite.
    """
    rows = max(1, _CHUNK_BYTES // (16 * max(idx.shape[0], 1)))
    out = np.empty(Z.shape[0], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, Z.shape[0], rows):
            terms = _term_exponents(params, Z[start : start + rows], idx)
            out[start : start + rows] = np.sum(np.exp(terms, out=terms), axis=1)
    if not np.isfinite(out).all():
        bad = int(np.argmin(np.isfinite(out)))
        raise ValueOutOfRange(
            f"theta sum at point {bad} is {out[bad]}: the value leaves the double range"
        )
    return out


def eval_with_plan(params: ThetaParameters, z, plan: TruncationPlan) -> complex:
    """Sum the planned terms at z in plan order (pairwise summation)."""
    if params.r == 0:
        return complex(1.0)
    z = np.asarray(z, dtype=complex).reshape(1, -1)
    return complex(_sum_terms(params, z, plan.index_set)[0])


def theta_eval(
    params: ThetaParameters, z, tol: float, max_radius: float | None = None
) -> ThetaResult:
    """Evaluate the series at z with |error| <= tail_bound <= tol.

    Deterministic: the same inputs give bit-identical results, equal to
    those of theta_eval_many on the batch [z].  Raises ValueOutOfRange when
    the value leaves the double range.
    """
    if params.r == 0:
        return ThetaResult(value=complex(1.0), tail_bound=0.0, terms=1)
    plan = truncation_plan(params, z, tol, max_radius)
    value = eval_with_plan(params, z, plan)
    return ThetaResult(value=value, tail_bound=plan.tail_bound, terms=plan.index_set.shape[0])


def theta_eval_many(params: ThetaParameters, Z, tol, max_radius: float | None = None):
    """Batch evaluation over points Z of shape (N, r).

    ``tol`` is a scalar or per-point array of absolute error targets.  One
    index set covering the union of the per-point ellipsoids is summed at
    every point, in its plan order; extra indices only tighten the result,
    so the per-point tail bounds returned remain certified.  Each point's
    value depends only on that point and the shared index set, and a
    batch of one gives theta_eval's value and tail bit for bit.  Raises
    ValueOutOfRange when a value leaves the double range.  Returns
    (values (N,), tails (N,)).
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    if params.r == 0:
        return np.ones(Z.shape[0], dtype=complex), np.zeros(Z.shape[0])
    if Z.shape[1] != params.r:
        raise DimensionMismatch(f"points must have {params.r} columns")
    if Z.shape[0] == 0:
        return np.zeros(0, dtype=complex), np.zeros(0)
    tol_arr = np.broadcast_to(np.asarray(tol, dtype=float), (Z.shape[0],))
    if np.any(tol_arr <= 0):
        raise ValueError("tol must be positive")
    _, idx, _, _, tails = _plan(params, np.imag(Z + params.beta), np.log(tol_arr), max_radius)
    return _sum_terms(params, Z, idx), tails


def theta_quasiperiodicity_defect(params: ThetaParameters, z, m, m2, tol: float) -> float:
    """Max defect of the two translation identities, each bounded by 2 tol.

    For the F-direction shift the comparison factor can be large, so the
    reference evaluation is tightened by its magnitude to keep the overall
    defect within 2 tol.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    m = np.asarray(m, dtype=float).reshape(-1)
    m2 = np.asarray(m2, dtype=float).reshape(-1)
    if params.r == 0:
        return 0.0
    if m.shape[0] != params.r or m2.shape[0] != params.r:
        raise DimensionMismatch("m and m2 must have length r")

    factor1 = np.exp(2j * np.pi * (params.alpha @ m))
    factor2 = np.exp(-2j * np.pi * (0.5 * m2 @ params.F @ m2 + m2 @ (z + params.beta)))
    base_tol = tol / max(1.0, abs(factor1), abs(factor2))
    base = theta_eval(params, z, base_tol).value
    lhs1 = theta_eval(params, z + m, tol).value
    lhs2 = theta_eval(params, z + params.F @ m2, tol).value
    return max(abs(lhs1 - factor1 * base), abs(lhs2 - factor2 * base))
