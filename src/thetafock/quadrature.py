"""Independent quadrature oracle over the fundamental domain.

The integration domain in adapted coordinates is ([0,1] x R)^r x C^(g-r)
with weight exp(-nu H(u,u)) = exp(-nu (x^T B x + y^T B y + |z_perp|^2))
for z = x + iy, with the forms 2 nu B (in y) and nu I (in z_perp)
diagonalized.  Gauss-Legendre handles the compact box, the trapezoid rule
the lattice's unbounded axes, and Gauss-Hermite, exact on the polynomial
Fock factors, the perpendicular ones.  The leftover
exp(nu (y^T B y - x^T B x)) is folded into the node weights; it stays
bounded against members of the space since their own Gaussian growth
cancels it.  The 1-D rules are built once per pair of node counts,
cached, and shared read-only by every grid with those counts.

Both the weight and the tensor grid factor into blocks: the lattice block
([0,1] x R)^r (r Legendre times r trapezoid axes, carrying the correction
above and the Jacobian of the y substitution) and the Fock block, one
two-dimensional Hermite grid (carrying a factor 1/nu) that every
perpendicular coordinate shares, as its weight exp(-nu |w|^2) is the same
in each.  The integrands built by thetafock.space carry a ``factored``
attribute (:class:`Factored`): each member is a sum of products of one
lattice factor and one Fock factor per perpendicular coordinate.  A
tensor sum of a product is the product of the per-block sums, so those
integrands are reduced block by block.  The nodes and weights are the
same as for the full tensor grid; only the order of summation differs.
An integrand without that form is refused (ValidationError).

The lattice block splits again, into its 2r one-dimensional axes.  Every
lattice factor is a basis factor exp(nu/2 z^T B z + 2 pi i c.z) with B
real (a kernel section expands its theta factor into such terms).
Against the weight, f_a conj(f_b) is the character
exp(2 pi i (c_a - conj c_b).x) in x times, in the eigen-coordinates s
of 2 nu B (y = T s), exp(-|s|^2) e^(|s|^2/2) exp(linear in s): a
product over the axes x_j and s_j, each factor 1 at the origin.  The
lattice Gram is then the entrywise product of one sum per axis, on the
points (x_j + offset_j) e_j and i s_j T e_j.  On s_j the factor is a
Gaussian exp(-(s - s*)^2) times a bounded phase, which the trapezoid rule
of step h sums to an aliasing of about 2 exp(-pi^2 / h^2) wherever its
nodes reach (Trefethen and Weideman, SIAM Rev. 56, 2014, section 5).

The nodes of each block are built once, with the grid, as one kind of
node set (_Block): points and weights in segments, and the block's scale.
The lattice block has its 2r axes as segments, the Fock block its 2-D
Hermite grid as one.  A reduction calls the lattice map and the Fock map once
each, on its block's nodes of every level it sums, and one segment
reducer (_segment_sums) hands on each segment's sum as it completes.

The cost of a reduction is the number of factor values it computes: each
distinct factor once per node of its block.  That count depends on
node and factor counts alone, so it is checked against one budget before
any factor map is called; the dimension g and rank r enter only through
it.  The bytes of the term matrices are checked there against one cap.
The reducer cuts its rows into chunks so that one map's values stay under
_CHUNK_BYTES, so memory stays bounded whatever the number of nodes.

The grid calibrates itself on two levels, the requested node counts and
their doubles, against integrands with closed forms (see _calibrate).

This module is the verification oracle: it never consults the closed-form
norms or kernels it is used to check.  It only evaluates the factors of
each integrand at its own nodes.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

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
    ValueOutOfRange,
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

_CHUNK_BYTES = 1 << 24  # bytes of (factors x nodes) complex values per chunk of a Factored map
_WORK_BUDGET = 1 << 29  # factor values per call; factored maps run 27-52M values/s on 2 vCPUs
_TERM_BYTES = 1 << 30  # bytes of the per-level (terms of f) x (terms of h) matrices per call
_DEFAULT_COMPACT_NODES = 32
_DEFAULT_UNBOUNDED_NODES = 48
_MAX_HERMITE_NODES = 370  # the Fock rule's cap: numpy's Hermite weights are 0 at 371, inf from 372
_TRAPEZOID_STEP = 0.5  # lattice s-axes: aliasing about 2 exp(-pi^2 / h^2) = 1e-17
_TRAPEZOID_HALF_WIDTH = 30.0  # past |s| = 30 basis factors overflow before their weights apply
_COARSE_RTOL = 1e-3  # inner_product accepts a refinement change up to this times |value| + 1


def gaussian_integral(a: float, A, b) -> complex:
    """Closed form of int_{R^r} exp(-a y^T A y + b.y) dy.

    Requires a finite a > 0 (ValueError), finite A and b (ValidationError)
    and symmetric A with positive definite real part; the determinant
    square root is the product of principal eigenvalue roots, which is the
    analytic continuation from real positive definite A.
    """
    if not 0 < a < math.inf:  # NaN included
        raise ValueError("a must be finite and positive")
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
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValidationError("A and b must be finite")
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
    """One integrand, sum_t coeffs[0, t] term_t, or a family, member t coeffs[t] term_t.

    Term t multiplies the lattice factor ``terms[t, 0]`` with the Fock
    factor ``terms[t, 1 + j]`` of every perpendicular coordinate j.
    ``lattice`` maps lattice coordinates (n, r) to the (L, n) values of
    its distinct factors; ``fock`` maps values (n,) of any perpendicular
    coordinate to the (P, n) values of the distinct factors of all of
    them.  L and P are one more than the largest index in the lattice
    column and in the Fock columns, which is how the work budget counts
    them before any map is called.

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

    Each map is called once per reduction, on the nodes of every level
    summed, in chunks of rows that keep its values under _CHUNK_BYTES; a
    map must give each point the value it would give it alone.
    """

    lattice: Callable
    fock: Callable
    terms: np.ndarray  # (n_terms, 1 + g - r) integer factor rows
    coeffs: np.ndarray  # (1, n_terms) one function, or (n_terms,) a family's weights; complex


class _Block(NamedTuple):
    """One block's node set: points and weights in segments of ``lengths`` nodes, and a scale.

    The block's Gram on a level is the scale times the entrywise product of
    its segment sums (all ones when there is no segment).
    """

    points: np.ndarray  # read-only
    weights: np.ndarray  # read-only
    lengths: tuple
    scale: float


@dataclass(frozen=True)
class _Level:
    """One level's node sets of its two blocks.

    ``lattice`` has 2r segments, x_j then s_j for each j: the n_c points
    (x_j + offset_j) e_j, weighted by the Legendre weights times
    exp(-nu B_jj x_j^2), and the n_h trapezoid points i s_j T e_j (s the
    eigen-coordinates of 2 nu B, y = T s) weighted by h exp(-s_j^2 / 2);
    its scale is the Jacobian of y = T s.  ``fock`` has one segment, the
    n_f^2 Hermite grid (t_a + i t_b) / sqrt(nu) with weights w_a w_b, and
    scale 1/nu; every perpendicular coordinate reads it.
    """

    lattice: _Block
    fock: _Block
    shape: tuple  # per-dim node counts: r compact, r trapezoid, 2(g-r) Hermite


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor grid; ``fine`` doubles every node count for error estimates.

    Each level holds the node sets of the block-by-block reduction, built
    once with the grid, and the ``shape`` of the tensor grid they factor.
    ``box_offset`` shifts the compact box [0, 1]^r.  ``estimated_error``
    is the two-level calibration defect of _calibrate.
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
def _rules(n_compact: int, n_unbounded: int):
    """Read-only rules of one level, built once per pair: Legendre on [0, 1]; the trapezoid
    rule s_k = h (k - (n - 1)/2), weights h exp(-s_k^2 / 2), of the lattice s-axes, at step
    h = _TRAPEZOID_STEP until its half-width reaches _TRAPEZOID_HALF_WIDTH; and the Fock
    block's Hermite rule at min(n, _MAX_HERMITE_NODES) nodes."""
    x, wx = leggauss(n_compact)
    h = min(_TRAPEZOID_STEP, 2 * _TRAPEZOID_HALF_WIDTH / max(n_unbounded - 1, 1))
    s = h * (np.arange(n_unbounded) - (n_unbounded - 1) / 2)
    t, wt = hermgauss(min(n_unbounded, _MAX_HERMITE_NODES))
    rules = (0.5 * (x + 1.0), 0.5 * wx, s, h * np.exp(-0.5 * s * s), t, wt)
    for a in rules:
        a.setflags(write=False)
    return rules


def _block_lengths(r: int, n_compact: int, n_unbounded: int) -> tuple:
    """Segment lengths of a level's lattice block (x_j then s_j for each j) and Fock block."""
    return (n_compact, n_unbounded) * r, (min(n_unbounded, _MAX_HERMITE_NODES) ** 2,)


def _make_level(config, n_compact: int, n_unbounded: int, offset, T, jacobian: float) -> _Level:
    """The level's rules and node sets; T and jacobian come from 2 nu B, diagonalised once per grid."""
    r, g, nu, B = config.r, config.g, config.nu, config.lattice.B
    lattice_lengths, fock_lengths = _block_lengths(r, n_compact, n_unbounded)
    x, wx, s, ws, t, wt = _rules(n_compact, n_unbounded)
    n = n_compact + n_unbounded
    points = np.zeros((r * n, r), dtype=complex)
    weights = np.empty(r * n)
    for j in range(r):
        xs = x + offset[j]
        points[j * n:j * n + n_compact, j] = xs
        weights[j * n:j * n + n_compact] = wx * np.exp(-nu * B[j, j] * xs * xs)
        points[j * n + n_compact:(j + 1) * n].imag = np.outer(s, T[:, j])
        weights[j * n + n_compact:(j + 1) * n] = ws
    t = t / math.sqrt(nu)
    lattice = _Block(points, weights, lattice_lengths, jacobian)
    fock = _Block((t[:, None] + 1j * t).ravel(), np.outer(wt, wt).ravel(), fock_lengths, 1 / nu)
    for a in (lattice.points, lattice.weights, fock.points, fock.weights):
        a.setflags(write=False)
    return _Level(lattice=lattice, fock=fock,
                  shape=(n_compact,) * r + (n_unbounded,) * r + (len(t),) * (2 * (g - r)))


def build_grid(
    config,
    requested_tol: float | None = None,
    compact_nodes: int = _DEFAULT_COMPACT_NODES,
    unbounded_nodes: int = _DEFAULT_UNBOUNDED_NODES,
    box_offset=None,
) -> QuadratureGrid:
    """Build the tensor grid for a space configuration and self-calibrate it.

    Any g and r are admitted; the work budget (NodeBudgetExceeded) bounds
    the values building both levels asks for (numpy's n x n companion
    matrix of each Gauss rule, the Hermite one capped, and the node sets)
    and the calibration's reduction; every node count it admits builds.
    Node counts must be ints >= 1 (ValidationError).  The calibration sums
    integrands with closed forms on both levels; GridTooCoarse when their
    defect exceeds requested_tol, ValueError when that is not positive
    (NaN included).  A box_offset of the wrong length raises
    DimensionMismatch, one not finite ValidationError.  The arguments and
    the budget are checked before any rule is built.
    """
    if requested_tol is not None and not requested_tol > 0:  # NaN included
        raise ValueError("requested_tol must be positive")
    for name, n in (("compact_nodes", compact_nodes), ("unbounded_nodes", unbounded_nodes)):
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValidationError(f"{name} must be an int >= 1, got {n!r}")
    compact_nodes, unbounded_nodes = int(compact_nodes), int(unbounded_nodes)
    r = config.r
    offset = np.zeros(r) if box_offset is None else np.asarray(box_offset, dtype=float).reshape(-1)
    if offset.shape[0] != r:
        raise DimensionMismatch(f"box_offset must have length {r}")
    if not np.isfinite(offset).all():
        raise ValidationError(f"box_offset must be finite, got {offset.tolist()}")
    levels = ((compact_nodes, unbounded_nodes), (2 * compact_nodes, 2 * unbounded_nodes))
    values = sum(n_c**2 + min(n_h, _MAX_HERMITE_NODES) ** 2
                 + sum(map(sum, _block_lengths(r, n_c, n_h))) for n_c, n_h in levels)
    if values > _WORK_BUDGET:
        raise NodeBudgetExceeded(f"building the grid's Gauss rules and node sets would ask for "
                                 f"{values} values, over the budget of {_WORK_BUDGET:.3e}")
    evals, evecs = np.linalg.eigh(2.0 * config.nu * config.lattice.B)
    axes = (offset, evecs / np.sqrt(evals), float(np.prod(1.0 / np.sqrt(evals))))
    base, fine = [_make_level(config, n_c, n_h, *axes) for n_c, n_h in levels]
    est = _calibrate(config, base, fine)
    if requested_tol is not None and est > requested_tol:
        raise GridTooCoarse(
            f"self-calibration defect {est:.3e} exceeds requested tolerance {requested_tol:.3e}"
        )
    return QuadratureGrid(config=config, base=base, fine=fine, box_offset=offset,
                          estimated_error=est)


def _calibrate(config, base: _Level, fine: _Level) -> float:
    """Grid defect on Gaussian-times-polynomial integrands with closed forms.

    The integrands f_a = exp(nu/2 z^T B z + 2 pi i a.z) z_perp^k for the
    frequencies a and, when r > 0, a + 1 are summed on both levels.  The
    base level checks the diagonal of a and the cross term, which must
    vanish, scaled by sqrt(closed_a closed_(a+1)); the fine level checks
    every diagonal.  A closed form that overflows, or any other defect that
    is not finite, reads as an infinite defect.
    """
    r, m, nu = config.r, config.g - config.r, config.nu
    B = config.lattice.B
    a_lin = 0.3 + np.arange(r, dtype=float)
    k_cal = tuple(2 if j == 0 else 1 for j in range(m))
    # at r = 0 the shifted frequency is the same empty vector: no cross term
    freqs = [a_lin, a_lin + 1.0] if r else [a_lin]

    def lattice(z):
        quad = 0.5 * nu * np.einsum("...j,jk,...k->...", z, B, z)
        return np.array([np.exp(quad + 2j * np.pi * (z @ a)) for a in freqs])

    exponents = sorted(set(k_cal))
    form = Factored(
        lattice=lattice,
        fock=lambda w: np.array([w**k for k in exponents]),
        terms=np.array([[i] + [exponents.index(k) for k in k_cal] for i in range(len(freqs))]),
        coeffs=np.ones(len(freqs), dtype=complex),
    )
    (got, got_fine), _ = _reduce([base, fine], form, form)

    perp = math.prod(math.pi / nu * math.factorial(kj) / nu**kj for kj in k_cal)
    closed = _lattice_integrals(config, freqs) * perp
    with np.errstate(all="ignore"):  # inf / inf and the like read as infinite below
        defects = np.concatenate([
            [abs(got[0, 0] - closed[0]) / closed[0]],
            np.abs(got[0, 1:]) / np.sqrt(closed[0] * closed[1:]),
            np.abs(np.diag(got_fine) - closed) / closed,
        ])
    est = float(defects.max())
    return est if math.isfinite(est) else math.inf


def _lattice_integrals(config, freqs) -> np.ndarray:
    """gaussian_integral(2 nu, B, -4 pi a) for each real frequency a, from B's derived fields.

    (pi / 2 nu)^(r/2) det(B)^(-1/2) exp(2 pi^2 a^T B^-1 a / nu): the
    integrals the calibration factors take over the lattice block.
    """
    r, nu, lattice = config.r, config.nu, config.lattice
    scale = (math.pi / (2.0 * nu)) ** (r / 2.0) / math.sqrt(lattice.det_b)
    quad = np.array([a @ lattice.B_inv @ a for a in freqs])
    with np.errstate(over="ignore"):  # an overflow reads as an infinite defect
        return scale * np.exp(2.0 * math.pi**2 / nu * quad)


def _factored(f) -> Factored:
    """The block form of an integrand: f itself or its ``factored`` attribute.

    Raises ValidationError for an integrand with neither, without calling it.
    """
    form = f if isinstance(f, Factored) else getattr(f, "factored", None)
    if not isinstance(form, Factored):
        raise ValidationError(
            f"the integrand {f!r} has no block form: pass a Factored, or a callable whose "
            f"'factored' attribute is one (see quadrature.Factored)"
        )
    return form


def _factor_counts(form: Factored) -> list:
    """Distinct factors of the lattice map and of the Fock map (0 when g = r)."""
    return [int(c.max(initial=-1)) + 1 for c in (form.terms[:, :1], form.terms[:, 1:])]


def _work(levels, ff: Factored, hf: Factored) -> int:
    """Factor values that summing ff conj(hf) over ``levels`` computes, from node counts alone.

    Each distinct factor of a block is computed once per node of the block
    (_block_lengths): r (n_c + n_h) lattice nodes, n_f^2 Fock nodes
    whatever g - r is.  When hf is ff it is counted once.
    """
    counts = [sum(c) for c in zip(*map(_factor_counts, [ff] if ff is hf else [ff, hf]))]
    return sum(sum(block.lengths) * c for level in levels
               for block, c in zip((level.lattice, level.fock), counts))


def _grid_sums(config, grid: QuadratureGrid, refine: bool, fs, hs) -> tuple:
    """_reduce over the grid's base level, then its fine level when refine.

    Raises ValidationError when the grid was built for another configuration,
    and ValueOutOfRange when a level sum is not finite.
    """
    if grid.config is not config:
        raise ValidationError("the quadrature grid was built for another configuration")
    sums, work = _reduce([grid.base, grid.fine] if refine else [grid.base], fs, hs)
    if not all(np.isfinite(s).all() for s in sums):
        raise ValueOutOfRange("a quadrature level sum leaves the double range")
    return sums, work


def _reduce(levels, fs, hs) -> tuple:
    """Sums of f conj(h) over each of ``levels``, block by block, and the work they take.

    The one check on an integrand pair, before any factor map is called:
    ValidationError when either has no block form (_factored), then
    NodeBudgetExceeded when the work exceeds _WORK_BUDGET or the term
    matrices of the levels, one (terms of f) x (terms of h) each, take more
    than _TERM_BYTES.  Besides them a reduction holds one block Gram, one
    segment sum with one product into it, and one chunk of each map.
    """
    ff, hf = _factored(fs), _factored(hs)
    work = _work(levels, ff, hf)
    if work > _WORK_BUDGET:
        raise NodeBudgetExceeded(
            f"the quadrature would compute {work:.3e} factor values, over the budget of "
            f"{_WORK_BUDGET:.3e}; use fewer nodes or fewer factors"
        )
    nbytes = 16 * len(levels) * len(ff.terms) * len(hf.terms)
    if nbytes > _TERM_BYTES:
        raise NodeBudgetExceeded(f"the quadrature's term matrices would take {nbytes:.3e} "
                                 f"bytes, over the cap of {_TERM_BYTES:.3e}; use fewer terms")
    return _factored_sums(levels, ff, hf), work


def _segment_sums(chunks, lengths, f, h, same: bool):
    """Yields the sum of w f_a conj(h_b), (A, B), over each segment of ``lengths`` nodes in turn.

    ``chunks`` yields (points, w) for runs of nodes in order; f and h map
    a run's points to its (A, n) and (B, n) values and are called once per
    run, and a run may straddle segment boundaries.
    """
    bounds = list(itertools.accumulate(lengths, initial=0))
    i, total, start = 0, 0.0, 0
    for points, w in chunks:
        U = f(points)
        V = U if same else h(points)
        Uw = U * w
        for lo, hi in zip(bounds[i:], bounds[i + 1:]):
            a, b = max(lo - start, 0), min(hi - start, len(w))
            if a < b:
                total += Uw[:, a:b] @ V[:, a:b].conj().T  # in place once total is an array
            if hi > start + len(w):
                break
            yield total
            i, total = i + 1, 0.0
        start += len(w)


@np.errstate(all="ignore")  # a sum that leaves the double range is refused by its caller
def _factored_sums(levels, ff: Factored, hf: Factored) -> list:
    """Level sums of the Factored integrands ff, hf, block by block.

    The lattice map and, when g > r, the Fock map are called once each, on
    their block's nodes of every level (base first), in chunks of rows
    that keep one map's values under _CHUNK_BYTES.  A level's block Gram
    is the block's scale times the entrywise product of its segment sums;
    a block without segments (the lattice at r = 0) is all ones and its
    map is never called.  Each term pair multiplies its factors' entries
    of the block Grams, from the first column's gather on; family weights
    scale rows and columns.
    """
    terms = [None] * len(levels)
    width = ff.terms.shape[1]
    for name, cols, nf, nh in zip(("lattice", "fock")[:width], (range(1), range(1, width)),
                                  *map(_factor_counts, (ff, hf))):  # no Fock block at g = r
        sets = [getattr(level, name) for level in levels]
        points, weights, lengths, _ = zip(*sets)
        points, weights = np.concatenate(points), np.concatenate(weights)
        rows = max(1, _CHUNK_BYTES // (16 * max(nf, nh, 1)))
        chunks = ((points[i:i + rows], weights[i:i + rows]) for i in range(0, len(weights), rows))
        f, h = getattr(ff, name), getattr(hf, name)
        sums = _segment_sums(chunks, sum(lengths, ()), f, h, ff is hf)
        gram = np.empty((nf, nh), dtype=complex)  # one buffer, refilled per level
        for i, b in enumerate(sets):
            gram.fill(1)
            for _ in b.lengths:  # in place, and no name keeps a folded sum
                gram *= next(sums)
            gram *= b.scale
            for col in cols:
                pair = gram[ff.terms[:, col, None], hf.terms[None, :, col]]
                terms[i] = pair if terms[i] is None else np.multiply(terms[i], pair, out=terms[i])
    fc, hc = ff.coeffs, hf.coeffs.conj()
    terms = [fc @ t if fc.ndim == 2 else np.multiply(t, fc[:, None], out=t) for t in terms]
    return [t @ hc.T if hc.ndim == 2 else np.multiply(t, hc, out=t) for t in terms]


def inner_product(config, f, h, grid: QuadratureGrid, refine: bool = True) -> InnerProductResult:
    """Approximate int f conj(h) exp(-nu H(u,u)) over the fundamental domain.

    With refine=True (default) the value comes from the node-doubled grid
    and the error estimate is the difference from the base grid;
    GridTooCoarse is raised when the two disagree beyond
    1e-3 * (|value| + 1).  With refine=False only the base grid is
    used and no estimate is produced.  f and h must each be a Factored
    or carry one as their ``factored`` attribute, as the functions of
    thetafock.space do; only their factor maps are called.  Before any
    map is called, ValidationError is raised for an integrand without
    that form, for a side with other than one member (families go to
    gram_matrix) or a grid built for another configuration, and
    NodeBudgetExceeded when the levels summed would compute more factor
    values than the work budget, or their term matrices would pass the
    byte cap; ``work`` reports the value count.  ValueOutOfRange is raised
    when a level sum is not finite, before the refinement gate.
    """
    ff, hf = _factored(f), _factored(h)
    if len(ff.coeffs) != 1 or len(hf.coeffs) != 1:
        raise ValidationError(
            f"inner_product takes one function on each side, got {len(ff.coeffs)} and "
            f"{len(hf.coeffs)} members; pass a family to gram_matrix"
        )
    sums, work = _grid_sums(config, grid, refine, ff, hf)
    v0 = complex(sums[0][0, 0])
    if not refine:
        return InnerProductResult(value=v0, error_estimate=None, work=work)
    v1 = complex(sums[1][0, 0])
    err = abs(v1 - v0)
    if not err <= _COARSE_RTOL * (abs(v1) + 1.0):  # NaN fails
        raise GridTooCoarse(
            f"refinement changed the value by {err:.3e} (value {abs(v1):.3e})"
        )
    return InnerProductResult(value=v1, error_estimate=err, work=work)


def gram_matrix(config, funcs, grid: QuadratureGrid, refine: bool = True):
    """All pairwise inner products of ``funcs`` in one sweep.

    ``funcs`` is one family with a block form, such as a
    space.basis_family or its ``factored`` attribute; its members are
    the terms scaled by the Factored's ``coeffs`` (a one-function form is
    a family of one).  Returns (G, E): the Gram matrix from the finest
    level used and the entrywise difference between levels (zeros when
    refine=False).  Raises ValidationError, NodeBudgetExceeded and
    ValueOutOfRange as inner_product does.
    """
    sums, _ = _grid_sums(config, grid, refine, funcs, funcs)
    if not refine:
        return sums[0], np.zeros_like(sums[0], dtype=float)
    return sums[1], np.abs(sums[1] - sums[0])
