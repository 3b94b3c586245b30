"""Riemann theta function with characteristics, by certified truncation.

The series summed is

    T(z) = sum_{n in Z^r} exp(2 pi i (1/2 (a+n) F (a+n) + (a+n)(z+b)))

for a symmetric F with positive definite imaginary part Y = Im F.  Writing
t = n + a and s = Im(z + b), the term magnitudes are

    |term(n)| = exp(pi s^T Y^-1 s) * exp(-pi |Y^(1/2) (n - c)|^2),

with real center c = -a - Y^-1 s.  Truncation keeps the lattice points of
the ellipsoid |Y^(1/2)(n - c)| <= R.  With rho(x) = exp(-pi |x|^2) and
the lattice L = U Z^r (Y = U^T U), the omitted terms are
exp(pi s^T Y^-1 s) rho(x) over the points x of L - Uc outside the ball RB,
and Banaszczyk's bound (Math. Ann. 296, 1993, Lemma 1.5(ii)) holds for
every shift u and every c = R/sqrt(r) >= 1/sqrt(2 pi):

    rho(points of L + u outside c sqrt(r) B) < 2 (c sqrt(2 pi e) e^(-pi c^2))^r rho(L),

while rho(L + u) <= rho(L) at every radius.  So

    tail(R) <= exp(pi s^T Y^-1 s) rho(L) min(1, 2 (c sqrt(2 pi e) e^(-pi c^2))^r),

in closed form, with no lambda_min.  rho(L) = sum_n exp(-pi n^T Y n) bounds
itself: the sum S over one enumeration at R0 = sqrt(r) around 0 misses
less than 2 C(1)^r rho(L), C(1) = sqrt(2 pi e) e^-pi = 0.179, so
rho(L) < S / (1 - 2 C(1)^r).  The log bound is rounded up by a relative
1e-12 of its terms, so floating-point error cannot undercut it, and it
stays in log scale, so a bound far below the smallest double is still
exact enough to choose a radius.  The radius is the first point of the
grid R = 1, 1.25, 1.5, ... whose bound meets the target.  ThetaParameters
is a value type: it takes only F, alpha and beta, rejects non-finite
entries, and derives lambda_min(Y), Y^-1 and the Cholesky factor
Y = U^T U when it is built, so a copy made with dataclasses.replace
derives them again and its tails stay certified.  Its one cache field
holds log rho(L) and the log bound on that grid, both filled by the
first plan, so a plan scans a table, and the cell sets below.

The ellipsoid is enumerated directly (Fincke and Pohst, Math. Comp.
1985): on U, last coordinate first, each fixed tail of n confines the
next coordinate to an interval.  A batch carries its rows' centers as a
box [lo, hi], so one index set covers every row's ellipsoid.  The
candidates of the integer box [0, e], e = floor(hi) - k + 1, moved by
k = floor(lo), cover those of [lo, hi]; that cache holds them per
(R, e), within _CHUNK_BYTES (16 MiB).  One selection
pass computes U(n - m), m = (lo + hi)/2, once per candidate and keeps the
points within R of the box.  A plan is a set: the tail bound certifies
the mass it omits whatever the order of its terms, and they are summed
in the order they are enumerated, lexicographic from the last
coordinate.

Tails stay in log scale in the planner, floored at e^-744 so that a
reported tail is a positive double; a tail far above the double range
still bounds kernel_section's plans at a far point.  In dimension 0 no
tail bound exists: the plan is the one empty index, whose term 1 is the
value, with log tail -inf.  Other modules reach the series through plan
(radius, index set and log tails), log_terms (the term exponents below)
and planned_sum (values and plan), which serves theta_eval_many and the
space kernels; theta_eval sums the plan of truncation_plan.  A call
computes its rows' centers and log prefactors once, for the planner, the
term formula and the summer.  A route that sums is checked first:
non-finite points raise ValidationError, a tol that is not positive
ValueError, and a row whose nearest lattice term is beyond the double
range ValueOutOfRange before any radius is searched.  plan checks
nothing: kernel_section plans the F/2 series with it.

Each planned term is computed from its centred distance, with x = Re(z + b)
and X = Re F (0 for every space configuration):

    term(n) = exp(pi s^T Y^-1 s - pi |U(n - c)|^2 + 2 pi i (1/2 t X t + t.x)),

an exact rewrite of the series term in real arithmetic until the one
complex exponential.  Its log magnitude carries no cancellation between
tYt and t.s, which grow with Im z, nor between U n and U c.  t X t is
formed once per index, and each row's distances and phases come from
products of that row alone (a stacked product per row), never from a
matrix product across rows.  The reducer sums each row's terms in plan
order with numpy's pairwise summation, so the rounding error is about
log2(K) eps sum |terms| for K terms, and a row's value does not depend on
the other rows of its batch or on how the batch is chunked; a sum that
leaves the double range raises ValueOutOfRange instead of returning inf
or NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    ImaginaryPartNotPositiveDefinite,
    NotSymmetric,
    TailBoundUnreachable,
    ValidationError,
    ValueOutOfRange,
)

__all__ = [
    "ThetaParameters",
    "TruncationPlan",
    "ThetaResult",
    "validate_parameters",
    "truncation_plan",
    "plan",
    "log_terms",
    "planned_sum",
    "theta_eval",
    "theta_eval_many",
    "theta_quasiperiodicity_defect",
]

_RADIUS_STEP = 0.25
_TABLE_BLOCK = 64  # radii per step of the tail table's growth
# 1/2 log(2 pi e), of Banaszczyk's factor C(c) = c sqrt(2 pi e) e^(-pi c^2)
_HALF_LOG_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)
# Relative round-up of the log bound against the sum of its terms' magnitudes,
# far above their rounding (a few ulps each), so it stays an upper bound.
_ROUND_UP = 1e-12
# A term whose log magnitude is above log(DBL_MAX) = 709.78 is inf; the
# margin keeps rounding from deciding.
_LOG_TERM_MAX = 710.8
# Enumeration slack in index units, far above the rounding of its intervals.
_SLACK = 1e-9
_MAX_INDICES = 5_000_000
# Cap on the bytes of one (points x terms) temporary in the reducer, the
# complex terms or the r coordinates of their distances; batches are summed
# in chunks of rows that stay under it.
_CHUNK_BYTES = 1 << 24


def _readonly(a):
    """a as a read-only array: copied, unless it is a read-only array already."""
    if isinstance(a, np.ndarray) and not a.flags.writeable:
        return a
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ThetaParameters:
    """Validated (F, alpha, beta) triple for an r-dimensional theta series.

    Built from its inputs alone (alpha and beta default to zero): F must
    be square, symmetric and with positive definite Y = Im F, and every
    entry finite.  Construction derives r, Y^-1, Y^(1/2), lambda_min(Y),
    the radius budget max_radius, X = Re F (``f_real``, None when 0) and
    the Cholesky factor Y = U^T U (``chol``), so dataclasses.replace
    checks and derives them again.  ``cache`` holds what plans fill in on
    first use: log rho(L) (_log_mass), the log tail bound on the radius
    grid, negated (grown by _find_radius), and the enumerated candidates
    of each integer box [0, e] at each radius R (keyed by (R, e), stored
    as int32, at most _CHUNK_BYTES in all; see _cells).  Instances compare and hash by
    identity, so they serve as dict keys.
    """

    F: np.ndarray
    alpha: np.ndarray = None
    beta: np.ndarray = None
    r: int = field(init=False)
    y_sqrt: np.ndarray = field(init=False, repr=False)  # read by perfbench's minimal_terms
    y_inv: np.ndarray = field(init=False, repr=False)
    lambda_min: float = field(init=False)
    max_radius: float = field(init=False)  # default radius budget; past it TailBoundUnreachable
    chol: np.ndarray = field(init=False, repr=False)  # upper triangular U, the enumerator's factor
    f_real: np.ndarray = field(init=False, repr=False)  # X = Re F, None when it is 0
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        F = np.asarray(self.F, dtype=complex)
        if F.size == 0:
            F = F.reshape(0, 0)
        F = np.atleast_2d(F)
        if F.ndim != 2 or F.shape[0] != F.shape[1]:
            raise DimensionMismatch(f"F must be square, got shape {F.shape}")
        r = F.shape[0]
        alpha, beta = (np.zeros(r) if v is None else np.asarray(v, dtype=float).reshape(-1)
                       for v in (self.alpha, self.beta))
        if alpha.shape[0] != r or beta.shape[0] != r:
            raise DimensionMismatch("alpha and beta must have length r")
        if not (np.isfinite(F).all() and np.isfinite(alpha).all() and np.isfinite(beta).all()):
            raise ValidationError("F, alpha and beta must be finite")
        scale = max(1.0, float(np.abs(F).max(initial=0.0)))
        asym = np.abs(F - F.T)
        if asym.max(initial=0.0) > 1e-10 * scale:
            j, k = np.unravel_index(int(asym.argmax()), asym.shape)
            raise NotSymmetric(f"F[{j}][{k}] != F[{k}][{j}] (difference {F[j, k] - F[k, j]})")
        Y = 0.5 * (F.imag + F.imag.T)
        evals, evecs = np.linalg.eigh(Y)
        lambda_min = float(evals.min(initial=math.inf))  # inf at r = 0
        if lambda_min <= 1e-12 * scale:
            raise ImaginaryPartNotPositiveDefinite(f"min eigenvalue of Im F is {lambda_min:.6e}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "lambda_min", lambda_min)
        # the bound at R0 + sqrt(r) is below rho(L) e^(-pi R0^2), since
        # r log(1 + R0/sqrt(r)) <= R0 sqrt(r); R0 = 40 shortest-vector lengths when below 1
        object.__setattr__(self, "max_radius", 40.0 / min(1.0, math.sqrt(lambda_min)) + math.sqrt(r))
        object.__setattr__(self, "f_real", _readonly(F.real) if F.real.any() else None)
        for name, value in (
            ("F", F), ("alpha", alpha), ("beta", beta),
            ("y_sqrt", (evecs * np.sqrt(evals)) @ evecs.T), ("y_inv", (evecs / evals) @ evecs.T),
            ("chol", np.linalg.cholesky(Y).T),
        ):
            object.__setattr__(self, name, _readonly(value))


def validate_parameters(F, alpha=None, beta=None) -> ThetaParameters:
    """Check symmetry of F and positive definiteness of Im F (see ThetaParameters)."""
    return ThetaParameters(F, alpha, beta)


@dataclass(frozen=True)
class TruncationPlan:
    """Ellipsoid index set with a certified bound on the omitted mass."""

    radius: float
    index_set: np.ndarray  # (K, r) integers, lexicographic from the last coordinate
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


def _log_mass(params: ThetaParameters) -> float:
    """log rho(L), L = U Z^r, rounded up; kept in params.cache from the first call.

    One enumeration at R0 = sqrt(r) around 0 holds every n with |U n| <= R0,
    so its sum S is at least the mass of L within R0 B, and Banaszczyk's
    bound at c = 1 leaves less than 2 C(1)^r rho(L) outside:
    rho(L) < S / (1 - 2 C(1)^r).
    """
    log_mass = params.cache.get("log_mass")
    if log_mass is None:
        r = params.r
        d = _enumerate(params, np.zeros(r), np.zeros(r), math.sqrt(r)) @ params.chol.T
        log_mass = math.log(np.exp(-math.pi * np.einsum("ij,ij->i", d, d)).sum())
        log_mass -= math.log1p(-2.0 * math.exp(r * (_HALF_LOG_2PIE - math.pi)))  # 1 - 2 C(1)^r
        params.cache["log_mass"] = log_mass = log_mass + _ROUND_UP * (1.0 + abs(log_mass))
    return log_mass


def _log_bound(params: ThetaParameters, R):
    """Log of Banaszczyk's bound at radius R without its prefactor, elementwise in R.

    log rho(L) + min(0, log 2 + r (log c + 1/2 log(2 pi e) - pi c^2)),
    c = R/sqrt(r), where c >= 1/sqrt(2 pi); below that, log rho(L).
    """
    r, log_mass = params.r, _log_mass(params)
    c = np.asarray(R, dtype=float) / math.sqrt(r)
    log_c, pi_c2 = np.log(c), math.pi * c * c
    excess = np.where(c * math.sqrt(2.0 * math.pi) >= 1.0,
                      np.minimum(math.log(2.0) + r * (log_c + _HALF_LOG_2PIE - pi_c2), 0.0), 0.0)
    magnitude = 1.0 + abs(log_mass) + r * (np.abs(log_c) + _HALF_LOG_2PIE + pi_c2)
    return log_mass + excess + _ROUND_UP * magnitude


def _find_radius(params: ThetaParameters, log_target: float, max_radius: float):
    """Smallest grid radius whose log tail bound is at most the target.

    The grid is R = 1 + k _RADIUS_STEP.  Its table holds the running
    minimum of the log bound, which is still a bound (the omitted mass
    falls as R grows) and does not increase; it is kept negated, in the
    ascending order searchsorted reads.  The table is kept in params.cache
    and grown a block at a time as far as a target needs.
    """
    table = params.cache.get("neg_log_tails", np.zeros(0))
    while (table.size == 0 or -table[-1] > log_target) and (
        1.0 + _RADIUS_STEP * table.size <= max_radius
    ):
        radii = 1.0 + _RADIUS_STEP * np.arange(table.size, table.size + _TABLE_BLOCK)
        block = _log_bound(params, radii)
        table = _readonly(np.maximum.accumulate(np.concatenate((table, -block))))
        params.cache["neg_log_tails"] = table
    k = int(table.searchsorted(-log_target))
    R = 1.0 + _RADIUS_STEP * k
    if k < table.size and R <= max_radius:
        return R, -float(table[k])
    raise TailBoundUnreachable(
        f"no radius within the budget {max_radius:.3g} brings the log tail bound "
        f"to the target {log_target:.3f}"
    )


def _enumerate(params: ThetaParameters, lo: np.ndarray, hi: np.ndarray, R: float) -> np.ndarray:
    """Integer points n within Y-distance R of the box of centers [lo, hi].

    Fincke-Pohst on Y = U^T U, last coordinate first.  Row i of U(n - c)
    is (U n)_i - (U c)_i, and over the box (U c)_i spans [b_i, a_i].  With
    n_j fixed for j > i, that row confines n_i to an interval; each prefix
    is expanded over its interval with np.repeat, one level at a time.
    The intervals carry a slack against rounding, so the candidates hold
    every point that _cells keeps.  Every row takes its own worst center,
    so the set covers every center's ellipsoid.  The points are in
    lexicographic order from the last coordinate.  Raises
    TailBoundUnreachable when a level would hold more than _MAX_INDICES.
    """
    U, r = params.chol, params.r
    u_lo, u_hi = U * lo, U * hi
    a, b = np.maximum(u_lo, u_hi).sum(axis=1), np.minimum(u_lo, u_hi).sum(axis=1)
    R2 = (R + _SLACK) ** 2
    pts = np.zeros((1, 0), dtype=np.int64)
    used = np.zeros(1)  # sum over the fixed rows of min_c (U(n - c))_k^2
    un = np.zeros((1, r))  # (U n)_k summed over the fixed coordinates
    for i in reversed(range(r)):
        w = np.sqrt(np.maximum(R2 - used, 0.0))
        first = np.ceil((b[i] - w - un[:, i]) / U[i, i] - _SLACK)
        last = np.floor((a[i] + w - un[:, i]) / U[i, i] + _SLACK)
        counts = np.maximum(last - first + 1.0, 0.0)
        total = float(counts.sum())
        if total > _MAX_INDICES:
            raise TailBoundUnreachable(
                f"ellipsoid enumeration of {total:.0f} points at level {i} exceeds "
                f"the {_MAX_INDICES} budget"
            )
        counts = counts.astype(np.int64)
        rows = np.repeat(np.arange(counts.shape[0]), counts)
        n = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(int(total))
        pts = np.concatenate((n.astype(np.int64)[:, None], pts[rows]), axis=1)
        if i == 0:
            break
        x = U[i, i] * n + un[rows, i]
        used = used[rows] + np.maximum(np.maximum(x - a[i], b[i] - x), 0.0) ** 2
        un = un[rows, :i] + n[:, None] * U[:i, i]
    return pts


def _cells(params: ThetaParameters, lo: np.ndarray, hi: np.ndarray, R: float) -> np.ndarray:
    """The plan index set of the box [lo, hi] at radius R, selected from cached candidates.

    With k = floor(lo) and e = floor(hi) - k + 1, k plus the candidates of
    [0, e] cover those of [lo, hi], in the same lexicographic order, which
    is the plan's order.  The candidates of [0, e] are enumerated once per
    (R, e) and kept in params.cache as int32 while all its cached sets
    stay within _CHUNK_BYTES; a set that would pass that cap is used but
    not kept.  The shift by k is made in floating point, where these
    integers are exact.  The candidates n within Y-distance R (+ _SLACK)
    of the box are kept, in order, as int64: over the box (Uc)_i spans
    m_i -+ h_i, m = U(lo + hi)/2 and h = |U| (hi - lo)/2, so the box
    distance is max(|U n - m| - h, 0), with U n - m formed once per
    candidate; a point, passed as hi is lo, skips the max.
    """
    k = np.floor(lo)
    span = np.floor(hi) - k  # e - 1
    cache = params.cache.setdefault("cells", {})
    key = (R, span.tobytes())
    cells = cache.get(key)
    if cells is None:
        cells = _enumerate(params, np.zeros(params.r), span + 1.0, R)
        kept = sum(c.nbytes for c in cache.values()) + cells.nbytes // 2
        if kept <= _CHUNK_BYTES and np.abs(cells).max() < 2**31:
            cache[key] = cells = _readonly(cells.astype(np.int32))
    pts, U = cells + k, params.chol
    d = pts @ U.T - U @ (lo if hi is lo else 0.5 * (lo + hi))
    if hi is not lo:
        d = np.maximum(np.abs(d) - np.abs(U) @ (0.5 * (hi - lo)), 0.0)
    return pts[np.einsum("ij,ij->i", d, d) <= (R + _SLACK) ** 2].astype(np.int64, copy=False)


def _rows(params: ThetaParameters, S: np.ndarray):
    """Centers c = -alpha - Y^-1 s and log prefactors pi s^T Y^-1 s of the rows S.

    Y^-1 s is one (1, r) x (r, r) product per row, so each row's values
    are those of the row alone.
    """
    SY = (S[:, None, :] @ params.y_inv.T)[:, 0]
    return -params.alpha - SY, math.pi * np.einsum("ij,ij->i", SY, S)


def _check_summable(params: ThetaParameters, Z: np.ndarray, log_tol):
    """The _rows of a batch Z (N, r) to be summed at log tolerances log_tol, checked.

    Non-finite points raise ValidationError, a log_tol of -inf or NaN (tol
    not positive) ValueError, points without r coordinates
    DimensionMismatch.  Rounding one coordinate at a time on U, last first
    (Babai's nearest plane), gives a lattice point n with q = |U(n - c)|^2.
    When log_pref - pi q is beyond the double range, that term exceeds any
    tol, so every certified plan of the row holds it, and its exponential
    is inf: ValueOutOfRange is raised before any radius is searched.
    """
    if not np.isfinite(Z).all():
        raise ValidationError("theta points must be finite")
    if not (np.asarray(log_tol) > -np.inf).all():  # NaN included
        raise ValueError("tol must be positive")
    if Z.shape[1] != params.r:
        raise DimensionMismatch(f"points must have {params.r} coordinates")
    centers, log_pref = _rows(params, Z.imag)  # Im(z + beta) = Im z
    if log_pref.max(initial=-np.inf) <= _LOG_TERM_MAX:
        return centers, log_pref
    U = params.chol
    n = np.zeros_like(centers)
    q = np.zeros(centers.shape[0])
    for i in reversed(range(params.r)):
        t = centers[:, i] - (n[:, i + 1 :] - centers[:, i + 1 :]) @ U[i, i + 1 :] / U[i, i]
        n[:, i] = np.rint(t)
        q += (U[i, i] * (n[:, i] - t)) ** 2
    log_term = log_pref - math.pi * q
    if log_term.max() > _LOG_TERM_MAX:
        bad = int(log_term.argmax())
        term = ", ".join(f"{x + 0.0:.16g}" for x in n[bad])  # + 0.0 drops the sign of -0
        raise ValueOutOfRange(
            f"theta term [{term}] at point {bad} has log magnitude "
            f"{log_term[bad]:.1f}: the value leaves the double range"
        )
    return centers, log_pref


def _plan(params: ThetaParameters, centers, log_pref, log_tol, max_radius: float | None):
    """The planner: one truncation plan for the rows of a batch, given their _rows.

    The radius meets the tightest row's target log_tol - log_prefactor;
    the index set covers every row's ellipsoid, so extra indices only
    tighten the other rows.  Returns (radius, index set, log tails): the
    log of each row's certified bound on the omitted mass, which can be
    far above the double range when log_tol is (kernel_section), floored
    at e^-744 (still a bound).  No tail bound exists in dimension 0: the
    one term n = () is the value, its log tail -inf; so for an empty batch.
    """
    if not (params.r and centers.shape[0]):
        return 0.0, np.zeros((1, params.r), dtype=np.int64), np.full(centers.shape[0], -np.inf)
    budget = params.max_radius if max_radius is None else float(max_radius)
    R, log_sb = _find_radius(params, float((log_tol - log_pref).min()), budget)
    lo = centers[0] if centers.shape[0] == 1 else centers.min(axis=0)
    hi = lo if centers.shape[0] == 1 else centers.max(axis=0)
    return R, _cells(params, lo, hi, R), np.maximum(log_pref + log_sb, -744.0)


def plan(params: ThetaParameters, Z, log_tol):
    """(radius, index set, log tails) of one plan for the points Z (N, r), unchecked.

    A series whose terms leave the double range still has a plan.
    """
    Z = np.asarray(Z, dtype=complex)
    return _plan(params, *_rows(params, Z.imag), log_tol, None)


def truncation_plan(
    params: ThetaParameters, z, tol: float, max_radius: float | None = None
) -> TruncationPlan:
    """Plan for one target point: index set plus certified tail bound.

    The ellipsoid is recentered at the real minimizer of the term
    magnitude, c = -alpha - Y^-1 Im(z + beta), so the plan adapts to
    large imaginary parts.  Raises ValueOutOfRange when a term of the
    plan would leave the double range, so that no plan can be summed.
    """
    Z = np.asarray(z, dtype=complex).reshape(1, -1)
    with np.errstate(divide="ignore", invalid="ignore"):  # a tol <= 0 is refused below
        log_tol = np.log(tol)
    centers, log_pref = _check_summable(params, Z, log_tol)
    R, idx, log_tails = _plan(params, centers, log_pref, log_tol, max_radius)
    for a in (idx, centers):  # fresh arrays: the plan keeps them without a copy
        a.setflags(write=False)
    return TruncationPlan(radius=R, index_set=idx, tail_bound=float(np.exp(log_tails[0])),
                          center=centers[0], log_prefactor=float(log_pref[0]))


def _term_exponents(params: ThetaParameters, Z, idx, centers, log_pref) -> np.ndarray:
    """The term formula: exponents of the terms idx (K, r) at the rows of Z (N, r), (N, K).

    With the rows' centers c_i and log prefactors (_rows), t = n + alpha,
    X = Re F and x_i = Re(z_i + beta), the term is exactly

        exp(log_pref_i - pi |U(n - c_i)|^2 + 2 pi i (1/2 t X t + t.x_i)),

    whose real part is its log magnitude (see the module notes).
    """
    n = idx.T.astype(float, order="C")  # (r, K), one row per coordinate
    t = n + params.alpha[:, None]
    d = params.chol @ (n - centers[:, :, None])  # U(n - c_i), (N, r, K), one product per row
    out = np.empty((Z.shape[0], idx.shape[0]), dtype=complex)
    np.subtract(log_pref[:, None], math.pi * np.square(d, out=d).sum(axis=1), out=out.real)
    out.imag = (((2.0 * math.pi) * (Z.real + params.beta))[:, None, :] @ t)[:, 0]
    if params.f_real is not None:
        out.imag += math.pi * ((params.f_real @ t) * t).sum(axis=0)
    return out


def log_terms(params: ThetaParameters, Z, idx) -> np.ndarray:
    """Exponents (N, K) of the terms idx (K, r) at the points Z (N, r), as summed.

    The real part of each is the term's log magnitude.
    """
    Z = np.asarray(Z, dtype=complex)
    return _term_exponents(params, Z, idx, *_rows(params, Z.imag))


def _sum_terms(params: ThetaParameters, Z: np.ndarray, idx, centers, log_pref) -> np.ndarray:
    """The summer: the planned terms at each row of Z (N, r), summed in plan order.

    Rows are processed in chunks whose (rows x terms) temporaries stay
    under _CHUNK_BYTES; the chunking does not change any value.  Raises
    ValueOutOfRange when a sum is not finite.
    """
    rows = max(1, _CHUNK_BYTES // (8 * max(params.r, 2) * max(idx.shape[0], 1)))
    out = np.empty(Z.shape[0], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, Z.shape[0], rows):
            s = slice(start, start + rows)
            terms = _term_exponents(params, Z[s], idx, centers[s], log_pref[s])
            np.exp(terms, out=terms).sum(axis=1, out=out[s])
    if not np.isfinite(out).all():
        bad = int(np.argmin(np.isfinite(out)))
        raise ValueOutOfRange(
            f"theta sum at point {bad} is {out[bad]}: the value leaves the double range"
        )
    return out


def planned_sum(params: ThetaParameters, Z, log_tol):
    """(values (N,), plan) at the points Z (N, r) within log tolerances log_tol.

    The points are checked, planned once and summed; the plan is
    (radius, index set, log tails).  Raises ValueOutOfRange when a term or
    a value leaves the double range.
    """
    Z = np.asarray(Z, dtype=complex)
    centers, log_pref = _check_summable(params, Z, log_tol)
    summary = _plan(params, centers, log_pref, log_tol, None)
    return _sum_terms(params, Z, summary[1], centers, log_pref), summary


def theta_eval(
    params: ThetaParameters, z, tol: float, max_radius: float | None = None
) -> ThetaResult:
    """Evaluate the series at z with |error| <= tail_bound <= tol.

    Deterministic: the same inputs give bit-identical results, equal to
    those of theta_eval_many on the batch [z].  Raises ValueOutOfRange when
    the value leaves the double range.
    """
    p = truncation_plan(params, z, tol, max_radius)
    Z = np.asarray(z, dtype=complex).reshape(1, -1)
    value = _sum_terms(params, Z, p.index_set, p.center[None, :], np.array([p.log_prefactor]))
    return ThetaResult(complex(value[0]), tail_bound=p.tail_bound, terms=p.index_set.shape[0])


def theta_eval_many(params: ThetaParameters, Z, tol):
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
    with np.errstate(divide="ignore", invalid="ignore"):  # planned_sum refuses a tol <= 0
        log_tol = np.log(tol)
    values, (_, _, log_tails) = planned_sum(params, np.atleast_2d(Z), log_tol)
    return values, np.exp(log_tails)


def theta_quasiperiodicity_defect(params: ThetaParameters, z, m, m2, tol: float) -> float:
    """Max defect of the two translation identities, each bounded by 2 tol.

    For the F-direction shift the comparison factor can be large, so the
    reference evaluation is tightened by its magnitude to keep the overall
    defect within 2 tol.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    m = np.asarray(m, dtype=float).reshape(-1)
    m2 = np.asarray(m2, dtype=float).reshape(-1)
    if m.shape[0] != params.r or m2.shape[0] != params.r:
        raise DimensionMismatch("m and m2 must have length r")

    factor1 = np.exp(2j * np.pi * (params.alpha @ m))
    factor2 = np.exp(-2j * np.pi * (0.5 * m2 @ params.F @ m2 + m2 @ (z + params.beta)))
    base_tol = tol / max(1.0, abs(factor1), abs(factor2))
    base = theta_eval(params, z, base_tol).value
    lhs1 = theta_eval(params, z + m, tol).value
    lhs2 = theta_eval(params, z + params.F @ m2, tol).value
    return max(abs(lhs1 - factor1 * base), abs(lhs2 - factor2 * base))
