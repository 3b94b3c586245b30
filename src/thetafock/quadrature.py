"""Independent quadrature oracle over the fundamental domain.

The integration domain in adapted coordinates is ([0,1] x R)^r x C^(g-r)
with weight exp(-nu H(u,u)) = exp(-nu (x^T B x + y^T B y + |z_perp|^2))
for z = x + iy.  Gauss-Legendre handles the compact box; Gauss-Hermite
handles every unbounded direction after the quadratic form 2 nu B (in y)
and nu I (in z_perp) are diagonalized into the Hermite weight.  The
leftover exp(nu (y^T B y - x^T B x)) is folded into the node weights; it
stays bounded against members of the space since their own Gaussian
growth cancels it.  The 1-D rules come from numpy
(``leggauss``, ``hermgauss``); they are built once per pair of node
counts, cached, and shared read-only by every grid with those counts.

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

The lattice block splits again, into its 2r one-dimensional axes.  Every
lattice factor is a basis factor exp(nu/2 z^T B z + 2 pi i c.z) with B
real (a kernel section expands its theta factor into such terms).
Against the weight, f_a conj(f_b) is the character
exp(2 pi i (c_a - conj c_b).x) in x times, in the eigen-coordinates s
of 2 nu B (y = T s), exp(-|s|^2) e^(|s|^2/2) exp(linear in s): a
product over the axes x_j and s_j, each factor 1 at the origin.  The
lattice Gram is then the entrywise product of one sum per axis, on the
points (x_j + offset_j) e_j and i s_j T e_j.

The cost of a reduction is the number of factor values it computes: each
distinct factor once per node of its block (each lattice axis, each
perpendicular grid), or, for any other callable, one value per node of
the whole tensor grid.  That count depends on node counts alone, so it is
checked against one budget before any node is built or any integrand
called; the dimension g and rank r enter only through it.  A lattice axis
holds only L x n values for L factors and the n nodes of one 1-D rule,
so it is summed in one piece; every other node set (the perpendicular
grids, the whole tensor grid) is built chunk by chunk from index ranges
over the 1-D rules, so memory stays bounded whatever the grid's size.

The grid calibrates itself on two levels, the requested node counts and
their doubles, against integrands with closed forms (see _calibrate).

This module is the verification oracle: it never consults the closed-form
norms or kernels it is used to check.  It only evaluates each integrand,
or each of its factors, at its own nodes.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    NodeBudgetExceeded,
    NotSymmetric,
    RealPartNotPositiveDefinite,
    ValidationError,
)

__all__ = [
    "QuadratureGrid",
    "InnerProductResult",
    "Factored",
    "gaussian_integral",
    "build_grid",
    "inner_product",
    "gram_matrix",
]

_CHUNK = 1 << 14  # nodes per chunk of a callable without a factored form
_CHUNK_BYTES = 1 << 24  # bytes of (factors x nodes) complex values per chunk of a Factored map
_WORK_BUDGET = 1 << 29  # factor values per call; factored maps run 27-52M values/s on 2 vCPUs
_DEFAULT_COMPACT_NODES = 32
_DEFAULT_UNBOUNDED_NODES = 48
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
    b = np.asarray(b, dtype=complex).reshape(-1)
    if b.shape[0] != r:
        raise DimensionMismatch("b must have the same dimension as A")
    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    if np.abs(A - A.T).max(initial=0.0) > 1e-10 * scale:
        raise NotSymmetric("A must be symmetric")
    re_eigs = np.linalg.eigvalsh(0.5 * (A.real + A.real.T))
    if (re_eigs <= 0).any():
        raise RealPartNotPositiveDefinite(
            f"Re(A) has non-positive eigenvalue {re_eigs.min():.6e}"
        )
    eigs = np.linalg.eigvals(A)
    inv_sqrt_det = complex(np.prod(1.0 / np.sqrt(eigs)))
    x = np.linalg.solve(A, b)
    return inv_sqrt_det * (math.pi / a) ** (r / 2.0) * np.exp((b @ x) / (4.0 * a))


@dataclass(frozen=True)
class Factored:
    """A family of integrands written as sums of products over the grid blocks.

    Member i is sum_t coeffs[i, t] * term_t, where term t multiplies the
    lattice factor ``terms[t, 0]`` with the factor ``terms[t, 1 + j]`` of
    every perpendicular coordinate j.  ``lattice`` maps lattice
    coordinates (n, r) to the (L, n) values of its distinct factors;
    ``perp[j]`` maps values (n,) of coordinate j to (P_j, n).  L and P_j
    are one more than the largest index in their column of ``terms``,
    which is how the work budget counts them before any map is called.

    Contract on every lattice map: for each pair of its factors,
    f_a conj(f_b) times the weight correction exp(nu (y^T B y - x^T B x))
    splits over every lattice axis and equals 1 at the origin,

        f_a conj f_b (x + i T s) e^(...) = prod_j F_j(x_j) prod_j S_j(s_j),
        F_j(0) = S_j(0) = 1,

    as it does for exp(nu/2 z^T B z + 2 pi i c.z) with real B: the only
    x-y cross term, exp(i nu x^T B y), is a phase shared by every factor
    and cancels in the product, what is left is a character in x and, in
    s, a Gaussian that the correction turns into an exponential.  Basis
    factors, kernel-section terms and the calibration factors meet it.
    The lattice block is summed one axis at a time on that basis.
    """

    lattice: Callable
    perp: tuple
    terms: np.ndarray  # (n_terms, 1 + g - r) integer factor rows
    coeffs: np.ndarray  # (n_members, n_terms) complex


@dataclass(frozen=True)
class _Level:
    compact_nodes: np.ndarray
    compact_weights: np.ndarray
    herm_nodes: np.ndarray
    herm_weights: np.ndarray
    y_transform: np.ndarray  # (r, r): y = s @ T.T
    lattice_jacobian: float  # det factor of the y substitution
    shape: tuple  # per-dim node counts: r compact, r Hermite, 2(g-r) Hermite


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor grid; ``fine`` doubles every node count for error estimates.

    Level shapes describe the logical tensor grid, whichever way an
    integrand is reduced over it.  ``estimated_error`` is the two-level
    calibration defect of _calibrate.
    """

    config: object
    base: _Level
    fine: _Level
    box_offset: np.ndarray
    estimated_error: float


@dataclass(frozen=True)
class InnerProductResult:
    value: complex
    error_estimate: float | None
    work: int  # factor values computed over every level summed, as checked against the budget


@functools.lru_cache(maxsize=8)
def _gauss_rules(n_compact: int, n_unbounded: int):
    """Read-only Legendre rule on [0, 1] and Hermite rule, built once per pair.

    Raises ValidationError, and caches nothing, when a rule is not finite:
    numpy's Hermite weights overflow from 372 nodes on.
    """
    x, wx = leggauss(n_compact)
    with np.errstate(all="ignore"):
        rules = (0.5 * (x + 1.0), 0.5 * wx) + hermgauss(n_unbounded)
    if not all(np.isfinite(a).all() for a in rules):
        raise ValidationError(
            f"the Gauss rules for ({n_compact}, {n_unbounded}) nodes are not finite; the "
            f"fine level doubles the requested node counts, so request fewer"
        )
    for a in rules:
        a.setflags(write=False)
    return rules


def _make_level(config, n_compact: int, n_unbounded: int) -> _Level:
    r, g, nu = config.r, config.g, config.nu
    x, wx, t, wt = _gauss_rules(n_compact, n_unbounded)
    evals, evecs = np.linalg.eigh(2.0 * nu * config.lattice.B)
    shape = (n_compact,) * r + (n_unbounded,) * r + (n_unbounded,) * (2 * (g - r))
    return _Level(
        compact_nodes=x,
        compact_weights=wx,
        herm_nodes=t,
        herm_weights=wt,
        y_transform=evecs / np.sqrt(evals),
        lattice_jacobian=float(np.prod(1.0 / np.sqrt(evals))),
        shape=shape,
    )


def build_grid(
    config,
    requested_tol: float | None = None,
    compact_nodes: int = _DEFAULT_COMPACT_NODES,
    unbounded_nodes: int = _DEFAULT_UNBOUNDED_NODES,
    box_offset=None,
) -> QuadratureGrid:
    """Build the tensor grid for a space configuration and self-calibrate it.

    Any g and r are admitted; what a grid may cost is bounded per call by
    the work budget (NodeBudgetExceeded), which the calibration passes
    through too.  Node counts must be ints >= 1 whose Gauss rules, at
    both levels, are finite (ValidationError otherwise).  The calibration
    sums integrands with known closed forms on both levels; when
    requested_tol is given GridTooCoarse is raised if the observed defect
    exceeds it.
    """
    for name, n in (("compact_nodes", compact_nodes), ("unbounded_nodes", unbounded_nodes)):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValidationError(f"{name} must be an int >= 1, got {n!r}")
    compact_nodes, unbounded_nodes = int(compact_nodes), int(unbounded_nodes)
    r = config.r
    offset = np.zeros(r) if box_offset is None else np.asarray(box_offset, dtype=float).reshape(-1)
    if offset.shape[0] != r:
        raise DimensionMismatch(f"box_offset must have length {r}")
    # fine first: a rule that is not finite fails there before the base rule is cached
    fine = _make_level(config, 2 * compact_nodes, 2 * unbounded_nodes)
    base = _make_level(config, compact_nodes, unbounded_nodes)
    est = _calibrate(config, base, fine, offset)
    if requested_tol is not None and est > requested_tol:
        raise GridTooCoarse(
            f"self-calibration defect {est:.3e} exceeds requested tolerance {requested_tol:.3e}"
        )
    return QuadratureGrid(config=config, base=base, fine=fine, box_offset=offset,
                          estimated_error=est)


def _calibrate(config, base: _Level, fine: _Level, offset) -> float:
    """Grid defect on Gaussian-times-polynomial integrands with closed forms.

    The integrands f_a = exp(nu/2 z^T B z + 2 pi i a.z) z_perp^k for the
    frequencies a and, when r > 0, a + 1 are summed on both levels.  The
    base level checks the diagonal of a and the cross term, which must
    vanish, scaled by sqrt(closed_a closed_(a+1)); the fine level checks
    every diagonal.  A defect that is not a number reads as infinite.
    """
    r, g, nu = config.r, config.g, config.nu
    m = g - r
    B = config.lattice.B
    a_lin = 0.3 + np.arange(r, dtype=float)
    k_cal = tuple(2 if j == 0 else 1 for j in range(m))
    # at r = 0 the shifted frequency is the same empty vector: no cross term
    freqs = [a_lin, a_lin + 1.0] if r else [a_lin]

    def lattice(z):
        quad = 0.5 * nu * np.einsum("...j,jk,...k->...", z, B, z)
        return np.array([np.exp(quad + 2j * np.pi * (z @ a)) for a in freqs])

    form = Factored(
        lattice=lattice,
        perp=tuple((lambda w, k=k: (w**k)[None, :]) for k in k_cal),
        terms=np.array([[i] + [0] * m for i in range(len(freqs))]),
        coeffs=np.eye(len(freqs), dtype=complex),
    )
    (got, got_fine), _ = _reduce(config, [base, fine], offset, form, form)

    perp = math.prod(math.pi / nu * math.factorial(kj) / nu**kj for kj in k_cal)
    closed = np.array([gaussian_integral(2.0 * nu, B, -4.0 * math.pi * a).real * perp
                       for a in freqs])
    defects = np.concatenate([
        [abs(got[0, 0] - closed[0]) / closed[0]],
        np.abs(got[0, 1:]) / np.sqrt(closed[0] * closed[1:]),
        np.abs(np.diag(got_fine) - closed) / closed,
    ])
    est = float(defects.max())
    return est if not math.isnan(est) else math.inf


def _factored(f) -> Factored | None:
    """The block form of an integrand: f itself, its ``factored`` attribute, or None."""
    return f if isinstance(f, Factored) else getattr(f, "factored", None)


def _factor_counts(form: Factored) -> list:
    """Distinct factors per block: the lattice block, then each perpendicular coordinate."""
    if not form.terms.size:
        return [0] * form.terms.shape[1]
    return [int(c) + 1 for c in form.terms.max(axis=0)]


def _work(config, levels, fs, hs) -> int:
    """Factor values that summing f conj(h) over ``levels`` computes, from node counts alone.

    A Factored pair computes each distinct factor once per node of its
    block: r (n_c + n_h) lattice-axis nodes and n_h^2 nodes per
    perpendicular coordinate.  Any other pair computes at least one value
    per tensor node for each of f and h.  When h is f it is counted once.
    """
    r, m = config.r, config.g - config.r
    ff, hf = _factored(fs), _factored(hs)
    shapes = [(len(level.compact_nodes), len(level.herm_nodes)) for level in levels]
    if ff is None or hf is None:
        return (1 if fs is hs else 2) * sum(nc**r * nh ** (r + 2 * m) for nc, nh in shapes)
    lattice, *perp = [sum(c) for c in zip(*map(_factor_counts, [ff] if ff is hf else [ff, hf]))]
    return sum(r * (nc + nh) * lattice + nh**2 * sum(perp) for nc, nh in shapes)


def _grid_sums(config, grid: QuadratureGrid, refine: bool, fs, hs) -> tuple:
    """_reduce over the grid's base level, then its fine level when refine.

    Raises ValidationError when the grid was built for another configuration.
    """
    if grid.config is not config:
        raise ValidationError("the quadrature grid was built for another configuration")
    return _reduce(config, [grid.base, grid.fine] if refine else [grid.base], grid.box_offset, fs, hs)


def _reduce(config, levels, offset, fs, hs) -> tuple:
    """Sums of f conj(h) over each of ``levels`` and the work they take.

    The one budget check: NodeBudgetExceeded is raised before any node is
    built or any integrand called when the work exceeds _WORK_BUDGET.
    """
    work = _work(config, levels, fs, hs)
    if work > _WORK_BUDGET:
        raise NodeBudgetExceeded(
            f"the quadrature would compute {work:.3e} factor values, over the budget of "
            f"{_WORK_BUDGET:.3e}; use fewer nodes or fewer factors"
        )
    return [_level_sum(config, level, offset, fs, hs) for level in levels], work


def _nodes(config, level: _Level, offset, rows: int, *, lattice: bool, perp: int):
    """Yield (Z, Zp, w) over a product of the level's 1-D rules, ``rows`` nodes at a time.

    The product takes, when ``lattice``, r Legendre and r Hermite axes
    (points x + iy), and two Hermite axes for each of ``perp``
    perpendicular coordinates; Z is (n, r) and Zp (n, perp).  Each chunk
    is built from a range of flat indices, so only one chunk of points
    exists at a time.  Points are column-major, as the evaluators read
    them by column.  The weights w carry the correction
    exp(|s|^2/2 - nu x^T B x) of the lattice axes, but no Jacobian.
    """
    r, nu = config.r, config.nu
    rl = r if lattice else 0
    t = level.herm_nodes
    rules = (
        [(level.compact_nodes, level.compact_weights)] * rl
        + [(t, level.herm_weights * np.exp(0.5 * t * t))] * rl
        + [(t / math.sqrt(nu), level.herm_weights)] * (2 * perp)
    )
    sizes = [len(nodes) for nodes, _ in rules]
    total = math.prod(sizes)
    for start in range(0, total, rows):
        n = min(rows, total - start)
        P = np.empty((n, len(rules)), order="F")
        w = np.ones(n)
        idx = np.unravel_index(np.arange(start, start + n), sizes) if sizes else ()
        for a, i in enumerate(idx):
            P[:, a] = rules[a][0][i]
            w *= rules[a][1][i]
        Z = np.zeros((n, r), dtype=complex, order="F")
        if lattice:
            xs = P[:, :r] + offset
            Z.real = xs
            w *= np.exp(-nu * np.einsum("ij,jk,ik->i", xs, config.lattice.B, xs))
            Z.imag = P[:, r:2 * r] @ level.y_transform.T
        q = P[:, 2 * rl:]
        yield Z, q[:, 0::2] + 1j * q[:, 1::2], w


def _block_sum(chunks, f, h, same: bool) -> np.ndarray:
    """sum_nodes w f_a conj(h_b) over chunks of ((points,), w): an (A, B) matrix."""
    out = 0.0
    for points, w in chunks:
        U = f(*points)
        V = U if same else h(*points)
        out = out + (U * w) @ V.conj().T
    return out


def _lattice_axes(config, level: _Level, offset):
    """(Z, w) for each of the lattice block's 2r axes: x_j first, then s_j, per j.

    The x_j axis holds the points (x_j + offset_j) e_j with the Legendre
    weights times exp(-nu B_jj x_j^2); the s_j axis holds the points
    i s_j T e_j, T = ``y_transform``, with the Hermite weights times
    exp(s_j^2 / 2).  Under the Factored contract the lattice block's
    tensor sum is the product of the sums over these axes.
    """
    r, nu, B = config.r, config.nu, config.lattice.B
    x, t = level.compact_nodes, level.herm_nodes
    for j in range(r):
        xs = x + offset[j]
        Z = np.zeros((len(x), r), dtype=complex, order="F")
        Z[:, j] = xs
        yield Z, level.compact_weights * np.exp(-nu * B[j, j] * xs * xs)
        Z = np.zeros((len(t), r), dtype=complex, order="F")
        Z.imag = np.outer(t, level.y_transform[:, j])
        yield Z, level.herm_weights * np.exp(0.5 * t * t)


def _factored_sum(config, level: _Level, offset, ff: Factored, hf: Factored) -> np.ndarray:
    """Level sum of the Factored families ff, hf, block by block.

    The lattice block is the entrywise product of one unchunked sum per
    lattice axis, each L x n values; at r = 0 it is the empty product, all
    ones.  Each perpendicular grid is chunked so that one map's values
    stay under _CHUNK_BYTES.
    """
    same = ff is hf
    f_counts, h_counts = _factor_counts(ff), _factor_counts(hf)
    lattice = np.ones((f_counts[0], h_counts[0]), dtype=complex)
    for Z, w in _lattice_axes(config, level, offset):
        lattice *= _block_sum([((Z,), w)], ff.lattice, hf.lattice, same)
    blocks = [level.lattice_jacobian * lattice]
    for j, (fj, hj) in enumerate(zip(ff.perp, hf.perp)):
        rows = max(1, _CHUNK_BYTES // (16 * max(f_counts[1 + j], h_counts[1 + j], 1)))
        perp_nodes = _nodes(config, level, offset, rows, lattice=False, perp=1)
        chunks = (((Zp[:, 0],), w) for _, Zp, w in perp_nodes)
        blocks.append((1.0 / config.nu) * _block_sum(chunks, fj, hj, same))
    terms = np.ones((ff.terms.shape[0], hf.terms.shape[0]), dtype=complex)
    for b, M in enumerate(blocks):
        terms *= M[np.ix_(ff.terms[:, b], hf.terms[:, b])]
    return ff.coeffs @ terms @ hf.coeffs.conj().T


def _level_sum(config, level: _Level, offset, fs, hs) -> np.ndarray:
    """Matrix of level sums of f_i conj(h_k) against exp(-nu H(u,u)).

    Integrands that both have a block form are reduced block by block;
    otherwise the whole tensor grid is one block, _CHUNK nodes at a time.
    """
    ff, hf = _factored(fs), _factored(hs)
    if ff is not None and hf is not None:
        return _factored_sum(config, level, offset, ff, hf)
    m = config.g - config.r
    jacobian = level.lattice_jacobian * (1.0 / config.nu) ** m
    tensor = _nodes(config, level, offset, _CHUNK, lattice=True, perp=m)
    return jacobian * _block_sum(
        (((Z, Zp), w) for Z, Zp, w in tensor),
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
    used and no estimate is produced.  NodeBudgetExceeded is raised,
    before f or h is called, when the levels summed would compute more
    factor values than the work budget; ``work`` reports that count.
    A grid built for another configuration raises ValidationError.
    """
    sums, work = _grid_sums(config, grid, refine, f, h)
    v0 = complex(sums[0][0, 0])
    if not refine:
        return InnerProductResult(value=v0, error_estimate=None, work=work)
    v1 = complex(sums[1][0, 0])
    err = abs(v1 - v0)
    if err > _COARSE_RTOL * (abs(v1) + 1.0):
        raise GridTooCoarse(
            f"refinement changed the value by {err:.3e} (value {abs(v1):.3e})"
        )
    return InnerProductResult(value=v1, error_estimate=err, work=work)


def gram_matrix(config, funcs, grid: QuadratureGrid, refine: bool = True):
    """All pairwise inner products of ``funcs`` in one sweep.

    ``funcs`` is one closure returning a (n_funcs, n_points) matrix (or
    (n_points,) values for a single function).  A family from
    space.basis_family is reduced block by block (the fast path).
    Returns (G, E): the Gram matrix from the finest level used and the
    entrywise difference between levels (zeros when refine=False).
    Raises ValidationError and NodeBudgetExceeded as inner_product does.
    """
    sums, _ = _grid_sums(config, grid, refine, funcs, funcs)
    if not refine:
        return sums[0], np.zeros_like(sums[0], dtype=float)
    return sums[1], np.abs(sums[1] - sums[0])
