"""Independent quadrature oracle over the fundamental domain.

The integration domain in adapted coordinates is ([0,1] x R)^r x C^(g-r)
with weight exp(-nu H(u,u)) = exp(-nu (x^T B x + y^T B y + |z_perp|^2))
for z = x + iy.  Gauss-Legendre handles the compact box; Gauss-Hermite
handles every unbounded direction after the quadratic form 2 nu B (in y)
and nu I (in z_perp) are diagonalized into the Hermite weight.  The
leftover exp(nu (y^T B y - x^T B x)) is folded into the node weights; it
stays bounded against members of the space since their own Gaussian
growth cancels it.

Both the weight and the tensor grid factor into blocks: the lattice block
([0,1] x R)^r (r Legendre times r Hermite axes, carrying the correction
above and the Jacobian of the y substitution) and one two-dimensional
Hermite grid per perpendicular coordinate (carrying a factor 1/nu).  The
integrands built by thetafock.space carry a ``factored`` attribute
(:class:`Factored`): each member is a sum of products of one lattice
factor and one factor per perpendicular coordinate.  A tensor sum of a
product is the product of the per-block sums, so those integrands are
reduced block by block.  The nodes and weights are the same as for the
full tensor grid; only the order of summation differs.  Any other
callable is summed as one block over the whole tensor grid.

The lattice block splits again into its real and imaginary axes when
both families are declared ``separable``.  For factors
exp(nu/2 z^T B z + 2 pi i c.z) with B real, the only x-y cross term is
the phase exp(i nu x^T B y); it is the same for every factor and cancels
in f_a conj(f_b).  The lattice Gram is then the entrywise product of a
sum over the x nodes (points x + 0i) and a sum over the y nodes (points
0 + iy).  Kernel sections carry a theta factor, which does not split, so
they and any pair involving them keep the tensor lattice block.

This module is the verification oracle: it never consults the closed-form
norms or kernels it is used to check.  It only evaluates each integrand,
or each of its factors, at its own nodes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, roots_hermite, roots_legendre

from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    GridTooCoarse,
    NotSymmetric,
    RealPartNotPositiveDefinite,
)

__all__ = [
    "FundamentalDomain",
    "QuadratureGrid",
    "InnerProductResult",
    "Factored",
    "gaussian_integral",
    "build_grid",
    "inner_product",
    "gram_matrix",
]

_CHUNK = 1 << 14
_DEFAULT_COMPACT_NODES = 32
_DEFAULT_UNBOUNDED_NODES = 48
_REDUCED_NODE_LIMIT = 24  # g = 3 is allowed only at or below this count
_COARSE_RTOL = 1e-3  # inner_product accepts a refinement change up to this times |value| + 1


def gaussian_integral(a: float, A, b) -> complex:
    """Closed form of int_{R^r} exp(-a y^T A y + b.y) dy.

    Requires a > 0 and symmetric A with positive definite real part; the
    determinant square root is the product of principal eigenvalue roots,
    which is the analytic continuation from real positive definite A.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        A = A.reshape(0, 0)
    A = np.atleast_2d(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    r = A.shape[0]
    b = np.zeros(r, dtype=complex) if b is None else np.asarray(b, dtype=complex).reshape(-1)
    if b.shape[0] != r:
        raise DimensionMismatch("b must have the same dimension as A")
    if r == 0:
        return complex(1.0)
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.T).max() > 1e-10 * scale:
        raise NotSymmetric("A must be symmetric")
    re_eigs = np.linalg.eigvalsh(0.5 * (A.real + A.real.T))
    if re_eigs.min() <= 0:
        raise RealPartNotPositiveDefinite(
            f"Re(A) has non-positive eigenvalue {re_eigs.min():.6e}"
        )
    eigs = np.linalg.eigvals(A)
    inv_sqrt_det = complex(np.prod(1.0 / np.sqrt(eigs)))
    x = np.linalg.solve(A, b)
    return inv_sqrt_det * (math.pi / a) ** (r / 2.0) * np.exp((b @ x) / (4.0 * a))


@dataclass(frozen=True)
class FundamentalDomain:
    """Shape of the integration region and effective node coverage."""

    r: int
    g: int
    compact_dims: int
    unbounded_dims: int
    radii: tuple  # effective half-extent per unbounded direction
    tail_fraction: float  # bound on Gaussian mass beyond the radii


@dataclass(frozen=True)
class Factored:
    """A family of integrands written as sums of products over the grid blocks.

    Member i is sum_t coeffs[i, t] * term_t, where term t multiplies the
    lattice factor ``terms[t, 0]`` with the factor ``terms[t, 1 + j]`` of
    every perpendicular coordinate j.  ``lattice`` maps lattice
    coordinates (n, r) to the (L, n) values of its distinct factors;
    ``perp[j]`` maps values (n,) of coordinate j to (P_j, n).

    ``separable`` declares that every pair of lattice factors splits over
    the real and imaginary axes,

        f_a(x + iy) conj f_b(x + iy) = f_a(x) conj f_b(x) * f_a(iy) conj f_b(iy),

    as it does for exp(nu/2 z^T B z + 2 pi i c.z) with real B: the only
    cross term, exp(i nu x^T B y), is a phase shared by every factor and
    cancels in the product.  A theta factor does not split this way.
    """

    lattice: Callable
    perp: tuple
    terms: np.ndarray  # (n_terms, 1 + g - r) integer factor rows
    coeffs: np.ndarray  # (n_members, n_terms) complex
    separable: bool = False


@dataclass(frozen=True)
class _Level:
    compact_nodes: np.ndarray
    compact_weights: np.ndarray
    herm_nodes: np.ndarray
    herm_weights: np.ndarray
    y_transform: np.ndarray  # (r, r): y = s @ T.T
    lattice_jacobian: float  # det factor of the y substitution
    perp_jacobian: float  # 1/nu per perpendicular coordinate
    shape: tuple  # per-dim node counts: r compact, r Hermite, 2(g-r) Hermite


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor grid; ``fine`` doubles every node count for error estimates.

    Level shapes and ``total_nodes`` describe the logical tensor grid,
    whichever way an integrand is reduced over it.
    """

    config: object
    base: _Level
    fine: _Level
    domain: FundamentalDomain
    box_offset: np.ndarray
    estimated_error: float
    total_nodes: int


@dataclass(frozen=True)
class InnerProductResult:
    value: complex
    error_estimate: float | None
    nodes: int


def _make_level(config, n_compact: int, n_unbounded: int) -> _Level:
    r, g, nu = config.r, config.g, config.nu
    xt, xw = roots_legendre(n_compact)
    ht, hw = roots_hermite(n_unbounded)
    if r:
        evals, evecs = np.linalg.eigh(2.0 * nu * config.lattice.B)
        T = evecs / np.sqrt(evals)
        jac_y = float(np.prod(1.0 / np.sqrt(evals)))
    else:
        T = np.zeros((0, 0))
        jac_y = 1.0
    shape = (n_compact,) * r + (n_unbounded,) * r + (n_unbounded,) * (2 * (g - r))
    return _Level(
        compact_nodes=0.5 * (xt + 1.0),
        compact_weights=0.5 * xw,
        herm_nodes=ht,
        herm_weights=hw,
        y_transform=T,
        lattice_jacobian=jac_y,
        perp_jacobian=1.0 / nu,
        shape=shape,
    )


def build_grid(
    config,
    requested_tol: float | None = None,
    compact_nodes: int = _DEFAULT_COMPACT_NODES,
    unbounded_nodes: int = _DEFAULT_UNBOUNDED_NODES,
    box_offset=None,
) -> QuadratureGrid:
    """Build the tensor grid for a space configuration.

    Full-strength oracle runs are limited to g <= 2; g = 3 is admitted
    with reduced node counts, anything larger raises.  When
    requested_tol is given the grid is self-calibrated on integrands with
    known closed forms and GridTooCoarse is raised if the observed defect
    exceeds the request.
    """
    g = config.g
    cap = 3 if unbounded_nodes <= _REDUCED_NODE_LIMIT else 2
    if g > cap:
        raise DimensionCapExceeded(
            f"g = {g} exceeds the oracle dimension cap {cap} "
            f"(use reduced node counts for g = 3)"
        )
    r = config.r
    offset = np.zeros(r) if box_offset is None else np.asarray(box_offset, dtype=float).reshape(-1)
    if offset.shape[0] != r:
        raise DimensionMismatch(f"box_offset must have length {r}")
    base = _make_level(config, compact_nodes, unbounded_nodes)
    fine = _make_level(config, 2 * compact_nodes, 2 * unbounded_nodes)

    smax = float(np.abs(base.herm_nodes).max()) if base.herm_nodes.size else 0.0
    if r:
        y_radii = tuple(float(v) for v in np.abs(base.y_transform).sum(axis=1) * smax)
    else:
        y_radii = ()
    perp_radii = (smax / math.sqrt(config.nu),) * (2 * (g - r))
    n_unb = 2 * g - r
    domain = FundamentalDomain(
        r=r,
        g=g,
        compact_dims=r,
        unbounded_dims=n_unb,
        radii=y_radii + perp_radii,
        tail_fraction=float(n_unb * 0.5 * erfc(smax)) if n_unb else 0.0,
    )
    grid = QuadratureGrid(
        config=config,
        base=base,
        fine=fine,
        domain=domain,
        box_offset=offset,
        estimated_error=math.nan,
        total_nodes=int(np.prod(base.shape)) if base.shape else 1,
    )
    est = _calibrate(config, grid)
    object.__setattr__(grid, "estimated_error", est)
    if requested_tol is not None and est > requested_tol:
        raise GridTooCoarse(
            f"self-calibration defect {est:.3e} exceeds requested tolerance {requested_tol:.3e}"
        )
    return grid


def _calibrate(config, grid) -> float:
    """Grid defect on Gaussian-times-polynomial integrands with closed forms.

    The integrand exp(nu/2 z^T B z + 2 pi i a.z) z_perp^k is checked
    against the Gaussian integral; for r > 0 its cross term with the
    frequency a + 1 must vanish.
    """
    r, g, nu = config.r, config.g, config.nu
    m = g - r
    B = config.lattice.B
    a_lin = 0.3 + np.arange(r, dtype=float)
    k_cal = tuple(2 if j == 0 else 1 for j in range(m))
    freqs = [a_lin, a_lin + 1.0] if r else [a_lin]

    def lattice(z):
        quad = 0.5 * nu * np.einsum("...j,jk,...k->...", z, B, z) if r else 0.0
        return np.array([np.exp(quad + 2j * np.pi * (z @ a)) for a in freqs])

    form = Factored(
        lattice=lattice,
        perp=tuple((lambda w, k=k: (w**k)[None, :]) for k in k_cal),
        terms=np.array([[i] + [0] * m for i in range(len(freqs))]),
        coeffs=np.eye(len(freqs), dtype=complex),
        separable=True,
    )
    got = _factored_sum(config, grid.base, grid.box_offset, form, form)

    closed = complex(gaussian_integral(2.0 * nu, B, -4.0 * math.pi * a_lin))
    for kj in k_cal:
        closed *= math.pi / nu * math.factorial(kj) / nu**kj
    scale = max(abs(closed), 1e-300)
    defect = abs(got[0, 0] - closed) / scale
    if r:
        defect = max(defect, abs(got[0, 1]) / scale)
    return float(defect)


def _box(nodes, weights, d: int):
    """d-fold tensor grid of a 1-D rule: points (n^d, d) and weights (n^d,)."""
    n = len(nodes)
    idx = np.indices((n,) * d).reshape(d, n**d)
    return nodes[idx].T, np.prod(weights[idx], axis=0)


def _perp_grid(config, level: _Level):
    """Nodes (n^2,) and weights of one perpendicular coordinate's Hermite grid."""
    p, w = _box(level.herm_nodes, level.herm_weights, 2)
    return (p[:, 0] + 1j * p[:, 1]) / math.sqrt(config.nu), w


def _lattice_axes(config, level: _Level, offset):
    """Real nodes x (n_c^r, r), imaginary nodes iy (n_h^r, r) and their weights.

    The weights carry the correction exp(|s|^2/2 - nu x^T B x), split into
    its x and s parts, but no Jacobian.
    """
    r, nu = config.r, config.nu
    x, wx = _box(level.compact_nodes, level.compact_weights, r)
    x = x + offset
    wx = wx * np.exp(-nu * np.einsum("ij,jk,ik->i", x, config.lattice.B, x))
    t = level.herm_nodes
    s, ws = _box(t, level.herm_weights * np.exp(0.5 * t * t), r)
    return x, wx, 1j * (s @ level.y_transform.T), ws


def _axis_chunks(points, weights):
    """Yield ((points,), weights) in runs of at most _CHUNK nodes."""
    for start in range(0, len(weights), _CHUNK):
        yield (points[start:start + _CHUNK],), weights[start:start + _CHUNK]


def _tensor_chunks(config, level: _Level, offset, with_perp: bool):
    """Yield (points, weights) over the whole tensor grid or the lattice block.

    Points are (Z, Zp) with ``with_perp``, else (Z,); at most _CHUNK nodes
    are assembled at a time.  Weights are as in _lattice_axes.
    """
    m = config.g - config.r if with_perp else 0
    x, wx, iy, ws = _lattice_axes(config, level, offset)
    zp, wp = _perp_grid(config, level)
    sizes = (len(wx), len(ws)) + (len(wp),) * m
    total = math.prod(sizes)
    for start in range(0, total, _CHUNK):
        idx = np.unravel_index(np.arange(start, min(start + _CHUNK, total)), sizes)
        Z = x[idx[0]] + iy[idx[1]]
        w = wx[idx[0]] * ws[idx[1]]
        if not with_perp:
            yield (Z,), w
            continue
        Zp = np.empty((Z.shape[0], m), dtype=complex)
        for j in range(m):
            Zp[:, j] = zp[idx[2 + j]]
            w = w * wp[idx[2 + j]]
        yield (Z, Zp), w


def _block_sum(chunks, f, h, same: bool) -> np.ndarray:
    """sum_nodes w f_a conj(h_b) for factor maps f, h: an (A, B) matrix."""
    out = 0.0
    for points, w in chunks:
        U = f(*points)
        V = U if same else h(*points)
        out = out + (U * w) @ V.conj().T
    return out


def _factored_sum(config, level: _Level, offset, ff: Factored, hf: Factored) -> np.ndarray:
    """Level sum of the Factored families ff, hf, block by block."""
    same = ff is hf
    if ff.separable and hf.separable:
        x, wx, iy, ws = _lattice_axes(config, level, offset)
        lattice = _block_sum(_axis_chunks(x + 0j, wx), ff.lattice, hf.lattice, same)
        lattice = lattice * _block_sum(_axis_chunks(iy, ws), ff.lattice, hf.lattice, same)
    else:
        chunks = _tensor_chunks(config, level, offset, False)
        lattice = _block_sum(chunks, ff.lattice, hf.lattice, same)
    blocks = [level.lattice_jacobian * lattice]
    zp, wp = _perp_grid(config, level)
    for fj, hj in zip(ff.perp, hf.perp):
        blocks.append(level.perp_jacobian * _block_sum(_axis_chunks(zp, wp), fj, hj, same))
    terms = np.ones((ff.terms.shape[0], hf.terms.shape[0]), dtype=complex)
    for b, M in enumerate(blocks):
        terms *= M[np.ix_(ff.terms[:, b], hf.terms[:, b])]
    return ff.coeffs @ terms @ hf.coeffs.conj().T


def _level_sum(config, level: _Level, offset, fs, hs) -> np.ndarray:
    """Matrix of level sums of f_i conj(h_k) against exp(-nu H(u,u)).

    Integrands that both carry a ``factored`` attribute are reduced block
    by block; otherwise the whole tensor grid is one block.
    """
    ff, hf = getattr(fs, "factored", None), getattr(hs, "factored", None)
    if ff is not None and hf is not None:
        return _factored_sum(config, level, offset, ff, hf)
    jacobian = level.lattice_jacobian * level.perp_jacobian ** (config.g - config.r)
    return jacobian * _block_sum(
        _tensor_chunks(config, level, offset, True),
        lambda Z, Zp: np.atleast_2d(fs(Z, Zp)),
        lambda Z, Zp: np.atleast_2d(hs(Z, Zp)),
        fs is hs,
    )


def inner_product(config, f, h, grid: QuadratureGrid, refine: bool = True) -> InnerProductResult:
    """Approximate int f conj(h) exp(-nu H(u,u)) over the fundamental domain.

    With refine=True (default) the value comes from the node-doubled grid
    and the error estimate is the difference from the base grid;
    GridTooCoarse is raised when the two disagree beyond
    1e-3 * (|value| + 1).  With refine=False only the base grid is
    used and no estimate is produced.
    """
    v0 = complex(_level_sum(config, grid.base, grid.box_offset, f, h)[0, 0])
    if not refine:
        return InnerProductResult(value=v0, error_estimate=None, nodes=grid.total_nodes)
    v1 = complex(_level_sum(config, grid.fine, grid.box_offset, f, h)[0, 0])
    err = abs(v1 - v0)
    if err > _COARSE_RTOL * (abs(v1) + 1.0):
        raise GridTooCoarse(
            f"refinement changed the value by {err:.3e} (value {abs(v1):.3e})"
        )
    return InnerProductResult(
        value=v1, error_estimate=err, nodes=int(np.prod(grid.fine.shape))
    )


def gram_matrix(config, funcs, grid: QuadratureGrid, refine: bool = True):
    """All pairwise inner products of ``funcs`` in one sweep.

    ``funcs`` is one closure returning a (n_funcs, n_points) matrix (or
    (n_points,) values for a single function).  A family from
    space.basis_family is reduced block by block (the fast path).
    Returns (G, E): the Gram matrix from the finest level used and the
    entrywise difference between levels (zeros when refine=False).
    """
    g0 = _level_sum(config, grid.base, grid.box_offset, funcs, funcs)
    if not refine:
        return g0, np.zeros_like(g0, dtype=float)
    g1 = _level_sum(config, grid.fine, grid.box_offset, funcs, funcs)
    return g1, np.abs(g1 - g0)
