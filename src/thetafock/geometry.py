"""Hermitian/symplectic scaffolding and isotropic lattices.

A positive definite hermitian form H on C^g (linear in the first slot,
conjugate-linear in the second) induces the symplectic form
E(u, v) = Im H(u, v).  A rank-r discrete subgroup spanned by generators
w_1..w_r is isotropic when E vanishes on all generator pairs, which forces
r <= g and makes G[j,k] = H(w_j, w_k) a real symmetric positive definite
matrix.  The generators are completed to a C-basis of C^g by an
H-orthonormal complement, and every downstream computation works in the
coordinates of that basis.  The value types here hold arrays, so they
compare and hash by identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NonUnitModulus,
    NotHermitian,
    NotIndependent,
    NotIsotropic,
    NotPositiveDefinite,
    RankExceedsG,
    SingularBasis,
    ValidationError,
)

__all__ = [
    "HermitianSpace",
    "IsotropicLattice",
    "Character",
    "PointCoordinates",
    "RdqReport",
    "validate_space",
    "symplectic_form",
    "build_lattice",
    "check_rdq",
    "coordinates",
    "to_ambient",
    "coordinates_many",
    "coordinate_conjugate",
    "b_form",
    "b_form_full",
    "ambient_measure_factor",
]

# Relative tolerance used for all form/shape validations.
FORM_TOL_SCALE = 1e-10
# tolerance of check_rdq on |chi| - 1 and on the cocycle defect
_RDQ_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class HermitianSpace:
    """Validated ambient space (C^g, H).

    Built from the matrix and the relative tolerance tol_scale, a finite
    positive number; construction checks H and derives g and the
    absolute tolerance tol, so dataclasses.replace checks again.  Raises
    NotHermitian or NotPositiveDefinite, naming the failing entry pair or
    the smallest eigenvalue.
    """

    matrix: np.ndarray  # g x g hermitian positive definite, stored symmetrized
    tol_scale: float = FORM_TOL_SCALE
    g: int = field(init=False)
    tol: float = field(init=False)  # absolute tolerance, tol_scale scaled to H

    def __post_init__(self):
        if not 0.0 < self.tol_scale < math.inf:
            raise ValidationError(
                f"tol_scale must be a finite positive number, got {self.tol_scale!r}"
            )
        H = np.atleast_2d(np.asarray(self.matrix, dtype=complex))
        if H.ndim != 2 or H.shape[0] != H.shape[1] or not H.size:
            raise DimensionMismatch(f"expected a non-empty square matrix, got shape {H.shape}")
        if not np.all(np.isfinite(H)):
            raise NotHermitian("matrix contains non-finite entries")
        scale = max(1.0, float(np.abs(H).max()))
        tol = self.tol_scale * scale
        defect = np.abs(H - H.conj().T)
        if defect.max() > tol:
            j, k = np.unravel_index(int(defect.argmax()), defect.shape)
            raise NotHermitian(
                f"H[{j}][{k}] = {H[j, k]} is not the conjugate of H[{k}][{j}] = {H[k, j]}"
            )
        H = 0.5 * (H + H.conj().T)
        eigs = np.linalg.eigvalsh(H)
        if eigs.min() <= tol:
            raise NotPositiveDefinite(f"smallest eigenvalue {eigs.min():.6e} is not positive")
        object.__setattr__(self, "g", H.shape[0])
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "matrix", _readonly(H))

    def hermitian(self, u, v):
        """H(u, v), broadcasting over leading axes of u and v."""
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        if u.shape[-1] != self.g or v.shape[-1] != self.g:
            raise DimensionMismatch(
                f"expected vectors of length {self.g}, got {u.shape[-1]} and {v.shape[-1]}"
            )
        return np.einsum("...j,jk,...k->...", u, self.matrix, np.conj(v))

    def symplectic(self, u, v):
        """E(u, v) = Im H(u, v)."""
        return np.imag(self.hermitian(u, v))


def validate_space(H, tol_scale: float = FORM_TOL_SCALE) -> HermitianSpace:
    """Validate a hermitian positive definite matrix and wrap it (see HermitianSpace)."""
    return HermitianSpace(H, tol_scale)


def symplectic_form(space: HermitianSpace, u, v):
    """E(u, v) = Im H(u, v); antisymmetric, and H(u,v) = E(iu,v) + iE(u,v)."""
    return space.symplectic(u, v)


@dataclass(frozen=True, eq=False)
class Character:
    """Unit character m -> exp(2 pi i alpha . m) on Z^r.

    alpha is stored with each component reduced into [0, 1); the character
    and everything built from it are invariant under integer shifts of
    alpha (the lattice sum reindexes).
    """

    alpha: np.ndarray

    def __post_init__(self):
        a = np.mod(np.asarray(self.alpha, dtype=float).reshape(-1), 1.0)
        # mod can return 1.0 for tiny negative inputs
        a[a >= 1.0] = 0.0
        object.__setattr__(self, "alpha", _readonly(a))

    @property
    def r(self) -> int:
        return self.alpha.shape[0]

    def __call__(self, m) -> complex:
        m = np.asarray(m, dtype=float)
        if m.shape[-1] != self.r:
            raise DimensionMismatch(f"expected integer vectors of length {self.r}")
        return np.exp(2j * np.pi * (m @ self.alpha))


@dataclass(frozen=True, eq=False)
class PointCoordinates:
    """A point of C^g split into lattice-span and complement coordinates."""

    z: np.ndarray  # (r,) complex, coordinates along w_1..w_r
    z_perp: np.ndarray  # (g-r,) complex, coordinates along w_{r+1}..w_g

    def __post_init__(self):
        object.__setattr__(self, "z", _readonly(np.asarray(self.z, dtype=complex).reshape(-1)))
        object.__setattr__(
            self, "z_perp", _readonly(np.asarray(self.z_perp, dtype=complex).reshape(-1))
        )
        if not (np.isfinite(self.z).all() and np.isfinite(self.z_perp).all()):
            raise ValidationError("point coordinates must be finite")


@dataclass(frozen=True, eq=False)
class IsotropicLattice:
    """Rank-r isotropic lattice with its adapted basis of C^g.

    Built from the space and the generators (r, g), the lattice generators
    in ambient coordinates.  Construction checks R-linear independence
    (singular values of the 2g x r real matrix) and pairwise isotropy,
    forms B and its inverse, and completes the generators to a C-basis
    with one solve per step for the H-projections of every e_i, keeping
    the residual of largest H-norm (the first of equal norms), normalised.
    dataclasses.replace checks and derives everything again.

    Derived fields
    --------------
    complement : (g-r, g) complex — H-orthonormal completion, H-orthogonal
        to the generator span.
    B : (r, r) real symmetric positive definite, B[j,k] = H(w_j, w_k).
    det_b : det B; the empty 0x0 determinant is 1.
    basis_matrix : (g, g) complex with columns w_1..w_g.
    """

    space: HermitianSpace
    generators: np.ndarray
    r: int = field(init=False)
    complement: np.ndarray = field(init=False)
    B: np.ndarray = field(init=False)
    B_inv: np.ndarray = field(init=False)
    det_b: float = field(init=False)
    basis_matrix: np.ndarray = field(init=False)
    inv_basis_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        space, g = self.space, self.space.g
        gens = np.asarray(self.generators, dtype=complex)
        if gens.size == 0:
            gens = np.zeros((0, g), dtype=complex)
        gens = np.atleast_2d(gens)
        if gens.shape[1] != g:
            raise DimensionMismatch(f"generators must be vectors of length {g}, got {gens.shape}")
        if not np.isfinite(gens).all():
            raise ValidationError("generators must be finite")
        r = gens.shape[0]
        if r > g:
            raise RankExceedsG(
                f"{r} generators in complex dimension {g}: isotropic rank is at most g"
            )

        svals = np.linalg.svd(np.concatenate([gens.real, gens.imag], axis=1).T, compute_uv=False)
        top = svals.max(initial=0.0)
        if (svals <= 1e-10 * top).any():
            spread = f"sigma_min/sigma_max = {svals.min() / top:.3e}" if top else "all are 0"
            raise NotIndependent(f"generators are not R-linearly independent ({spread})")

        gram = space.hermitian(gens[:, None, :], gens[None, :, :])
        bad = np.argwhere(np.abs(np.triu(gram.imag, 1)) > space.tol)  # in (j, k) order
        if bad.size:
            j, k = map(int, bad[0])
            raise NotIsotropic((j, k), float(np.imag(gram[j, k])))

        B = np.real(gram)
        B = 0.5 * (B + B.T)
        b_eigs = np.linalg.eigvalsh(B)
        if (b_eigs <= space.tol).any():
            raise NotPositiveDefinite(
                f"lattice Gram matrix has non-positive eigenvalue {b_eigs.min():.6e}"
            )

        basis = _complete_basis(space, gens)
        B_inv = np.linalg.inv(B)
        complement, basis_matrix = basis[r:], basis.T
        try:
            inv = np.linalg.inv(basis_matrix)
        except np.linalg.LinAlgError as exc:
            raise SingularBasis(str(exc)) from None
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "det_b", float(np.linalg.det(B)))
        for name, value in (
            ("generators", gens), ("complement", complement), ("B", B), ("B_inv", B_inv),
            ("basis_matrix", basis_matrix), ("inv_basis_matrix", inv),
        ):
            object.__setattr__(self, name, _readonly(value))

    @property
    def g(self) -> int:
        return self.space.g

    def gamma(self, m) -> np.ndarray:
        """Ambient lattice point for an integer vector m."""
        m = np.asarray(m, dtype=float)
        if m.shape[-1] != self.r:
            raise DimensionMismatch(f"expected integer vectors of length {self.r}")
        return m @ self.generators


def build_lattice(space: HermitianSpace, generators) -> IsotropicLattice:
    """Validate generators and build the adapted basis (see IsotropicLattice)."""
    return IsotropicLattice(space, generators)


def _complete_basis(space: HermitianSpace, gens: np.ndarray) -> np.ndarray:
    """Rows w_1..w_g: gens, then an H-orthonormal complement; each step solves once for the
    residuals of e_1..e_g off the span and keeps the largest in H-norm (the first of ties)."""
    eye = np.eye(space.g, dtype=complex)
    basis = gens  # current spanning set
    for _ in range(space.g - gens.shape[0]):
        gram = space.hermitian(basis[:, None, :], basis[None, :, :])
        rhs = space.hermitian(eye[:, None, :], basis[None, :, :])  # H(e_i, b_j)
        # e_i - sum_j c_ij b_j with H(e_i - sum c b, b_k) = 0  =>  gram^T c_i = rhs_i
        try:
            coeffs = np.linalg.solve(gram.T, rhs.T)
        except np.linalg.LinAlgError as exc:
            raise SingularBasis(str(exc)) from None
        residuals = eye - coeffs.T @ basis
        norms = np.sqrt(np.maximum(np.real(space.hermitian(residuals, residuals)), 0.0))
        i = int(np.argmax(norms))
        if norms[i] <= math.sqrt(space.tol):
            raise SingularBasis("cannot complete generators to a basis of C^g")
        basis = np.concatenate([basis, residuals[i:i + 1] / norms[i]])
    return basis


def coordinates(lattice: IsotropicLattice, u) -> PointCoordinates:
    """Coordinates of an ambient point w.r.t. the adapted basis."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    if u.shape[0] != lattice.g:
        raise DimensionMismatch(f"expected a vector of length {lattice.g}")
    zfull = lattice.inv_basis_matrix @ u
    return PointCoordinates(z=zfull[: lattice.r], z_perp=zfull[lattice.r :])


def to_ambient(lattice: IsotropicLattice, coords: PointCoordinates) -> np.ndarray:
    zfull = np.concatenate([coords.z, coords.z_perp])
    if zfull.shape[0] != lattice.g:
        raise DimensionMismatch(f"expected {lattice.g} coordinates")
    return lattice.basis_matrix @ zfull


def coordinates_many(lattice: IsotropicLattice, points):
    """Batch version of :func:`coordinates`: (N, g) -> (N, r), (N, g-r)."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    if pts.shape[-1] != lattice.g:
        raise DimensionMismatch(f"expected vectors of length {lattice.g}")
    zfull = pts @ lattice.inv_basis_matrix.T
    return zfull[..., : lattice.r], zfull[..., lattice.r :]


def coordinate_conjugate(lattice: IsotropicLattice, u) -> np.ndarray:
    """The point whose adapted-basis coordinates are the conjugated ones.

    This is the conjugation under which the lattice is pointwise fixed;
    it realizes the bilinear (non-sesquilinear) pairing below.
    """
    c = coordinates(lattice, u)
    return to_ambient(lattice, PointCoordinates(np.conj(c.z), np.conj(c.z_perp)))


def b_form(lattice: IsotropicLattice, z, w):
    """Symmetric bilinear form z^T B w on lattice-span coordinates."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if z.shape[-1] != lattice.r or w.shape[-1] != lattice.r:
        raise DimensionMismatch(f"expected coordinate vectors of length {lattice.r}")
    return np.einsum("...j,jk,...k->...", z, lattice.B, w)


def b_form_full(lattice: IsotropicLattice, u, v):
    """Bilinear extension to C^g: H(u, conj(v)) with conjugation in coordinates."""
    zu, pu = coordinates_many(lattice, np.atleast_2d(u))
    zv, pv = coordinates_many(lattice, np.atleast_2d(v))
    val = b_form(lattice, zu, zv) + np.einsum("...j,...j->...", pu, pv)
    return val[0] if np.asarray(u).ndim == 1 else val


def ambient_measure_factor(lattice: IsotropicLattice) -> float:
    """|det P|^2 converting coordinate Lebesgue measure to the ambient one.

    Reported alongside results; never applied silently.
    """
    return float(abs(np.linalg.det(lattice.basis_matrix)) ** 2)


@dataclass(frozen=True)
class RdqReport:
    passed: bool
    worst_defect: float
    worst_pair: tuple  # (m, m') as two tuples of ints
    pairs_checked: int


def _rdq_test_set(r: int) -> np.ndarray:
    """Deterministic small battery of integer vectors in Z^r, as an (M, r) array:
    0, then e_i, -e_i, 2 e_i for each i, then e_i + e_j, e_i - e_j for each i < j."""
    eye = np.eye(r, dtype=int)
    i, j = np.triu_indices(r, 1)
    return np.concatenate([
        np.zeros((1, r), dtype=int),
        np.stack([eye, -eye, 2 * eye], axis=1).reshape(3 * r, r),
        np.stack([eye[i] + eye[j], eye[i] - eye[j]], axis=1).reshape(2 * len(i), r),
    ])


def check_rdq(lattice: IsotropicLattice, chi, nu: float) -> RdqReport:
    """Check the cocycle condition chi(m+m') = chi(m) chi(m') e^{i nu E}, within 1e-9.

    For an isotropic lattice E vanishes on lattice pairs, so the condition
    reduces to chi being a character; the symplectic factor is kept anyway
    so the reported defect is the literal cocycle defect.  chi is called
    once per distinct m + m' over the test set; worst_pair is the first
    largest defect in (m, m') order.  The gate fails closed: it raises
    NonUnitModulus unless every |chi| is within 1e-9 of 1 (NaN included),
    and a defect that is not finite (a non-finite nu, say) reads as inf.
    """
    ms = _rdq_test_set(lattice.r)
    size, r = ms.shape
    sums, where = np.unique((ms[:, None] + ms[None, :]).reshape(size * size, r), axis=0,
                            return_inverse=True)
    values = np.array([complex(chi(s)) for s in sums], dtype=complex)
    bad = np.flatnonzero(~(np.abs(np.abs(values) - 1.0) <= _RDQ_TOL))
    if bad.size:
        raise NonUnitModulus(f"|chi({tuple(map(int, sums[bad[0]]))})| = {abs(values[bad[0]]):.12f}")

    gam = lattice.gamma(ms)
    e_vals = lattice.space.symplectic(gam[:, None, :], gam[None, :, :])
    s = values[where.reshape(size, size)]  # chi(m + m') at pair (m, m')
    a = s[0]  # chi(m), as ms[0] = 0
    # each product is formed part by part, rounded as scalar complex arithmetic
    # rounds it (numpy's array product may fuse the parts)
    with np.errstate(invalid="ignore", over="ignore"):
        phase = np.exp(1j * nu * e_vals)
        pr = a.real[:, None] * a.real - a.imag[:, None] * a.imag
        pi = a.real[:, None] * a.imag + a.imag[:, None] * a.real
        defects = np.hypot(s.real - (pr * phase.real - pi * phase.imag),
                           s.imag - (pr * phase.imag + pi * phase.real))
    defects[~np.isfinite(defects)] = np.inf
    i, j = divmod(int(np.argmax(defects)), size)
    worst = float(defects[i, j])
    return RdqReport(
        passed=worst <= _RDQ_TOL,
        worst_defect=worst,
        worst_pair=(tuple(map(int, ms[i])), tuple(map(int, ms[j]))),
        pairs_checked=size * size,
    )
