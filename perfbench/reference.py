"""Reference values the benchmark computes for its own checks.

These never call thetafock: the theta series is summed by brute force over
an integer box that covers every term within Y-distance ``BOX_RADIUS`` of
the magnitude peak, far beyond any certified plan, with ``math.fsum``.
Sums are returned in log scale (peak exponent, mantissa, absolute
mantissa), so a reference exists even where the value itself leaves the
double range.  The absolute mantissa times the scale is the magnitude that
rounding is proportional to.
"""

from __future__ import annotations

import math

import numpy as np

# exp(-pi * 4^2) ~ 1e-22: terms beyond this Y-distance from the peak cannot
# reach any check, which allows ROUNDING relative to the largest term.
BOX_RADIUS = 4.0
# Rounding allowance relative to the sum of term magnitudes.  Scalar and
# batch kernel paths agree to 5e-14 of it; exponents of a few hundred lose
# ~1e-13 relative in exp() alone.
ROUNDING = 1e-12


def fsum_complex(values) -> complex:
    return complex(math.fsum(values.real), math.fsum(values.imag))


def theta_log(F, alpha, beta, z, radius: float = BOX_RADIUS):
    """Brute-force sum of exp(2 pi i (1/2 t F t + t (z + beta))), t = n + alpha.

    Returns (peak, mantissa, abs_mantissa) with value = exp(peak) * mantissa
    and sum of term magnitudes = exp(peak) * abs_mantissa.
    """
    F = np.asarray(F, dtype=complex)
    alpha = np.asarray(alpha, dtype=float)
    zb = np.asarray(z, dtype=complex) + np.asarray(beta, dtype=float)
    y_inv = np.linalg.inv(0.5 * (F.imag + F.imag.T))
    center = -alpha - y_inv @ zb.imag
    half = np.ceil(radius * np.sqrt(np.diag(y_inv))).astype(int) + 1
    axes = [np.arange(math.floor(c) - h, math.ceil(c) + h + 1) for c, h in zip(center, half)]
    n = np.stack([a.reshape(-1) for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    t = n + alpha
    exponents = 2j * math.pi * (0.5 * ((t @ F) * t).sum(axis=1) + t @ zb)
    peak = float(exponents.real.max())
    terms = np.exp(exponents - peak)
    return peak, fsum_complex(terms), math.fsum(np.abs(terms))


def _log_kernel_prefactor(B, nu: float, g: int) -> float:
    r = B.shape[0]
    return (0.5 * math.log(np.linalg.det(B)) + 0.5 * r * math.log(2.0 * nu / math.pi)
            + (g - r) * math.log(nu / math.pi))


def kernel_log(B, alpha, nu: float, zu, zu_perp, zv, zv_perp):
    """Closed-form reproducing kernel K(u, v) with a brute-force theta factor.

    K = C exp(nu/2 B(zu,zu) + conj(nu/2 B(zv,zv)) + nu <zu_perp, zv_perp>)
        * theta((2 pi i / nu) B^-1, alpha, 0; zu - conj(zv)).
    Returns (log_scale, mantissa, abs_mantissa) as theta_log does.
    """
    B = np.asarray(B, dtype=float)
    zu, zv = np.asarray(zu, dtype=complex), np.asarray(zv, dtype=complex)
    g = B.shape[0] + len(zu_perp)
    outer = (0.5 * nu * (zu @ B @ zu) + np.conj(0.5 * nu * (zv @ B @ zv))
             + nu * np.sum(np.asarray(zu_perp) * np.conj(zv_perp)))
    F = (2j * math.pi / nu) * np.linalg.inv(B)
    peak, mant, abs_mant = theta_log(F, alpha, np.zeros(len(zu)), zu - np.conj(zv))
    phase = complex(np.exp(1j * outer.imag))
    return _log_kernel_prefactor(B, nu, g) + float(outer.real) + peak, phase * mant, abs_mant


def basis_values(B, alpha, nu: float, entries, z, z_perp):
    """sum a e_{n,k}(z, z_perp) and sum |a e_{n,k}| for e = exp(nu/2 zBz + 2 pi i (alpha+n).z) z_perp^k."""
    z, z_perp = np.asarray(z, dtype=complex), np.asarray(z_perp, dtype=complex)
    terms = np.array([
        a * np.exp(0.5 * nu * (z @ B @ z) + 2j * math.pi * ((np.asarray(n) + alpha) @ z))
        * np.prod(z_perp ** np.asarray(k, dtype=int))
        for (n, k), a in entries
    ])
    return fsum_complex(terms), math.fsum(np.abs(terms))


def close(got, log_scale: float, mantissa, abs_mantissa: float, tol: float) -> bool:
    """|got - exp(log_scale) mantissa| <= tol + ROUNDING * exp(log_scale) abs_mantissa.

    Evaluated on whichever side keeps exp() within range, so a reference
    far outside the double range still decides the check.
    """
    if not np.isfinite(got):
        return False
    if log_scale > 0.0:
        shrink = math.exp(-log_scale)
        return abs(got * shrink - mantissa) <= tol * shrink + ROUNDING * abs_mantissa
    grow = math.exp(log_scale)
    return abs(got - grow * mantissa) <= tol + ROUNDING * grow * abs_mantissa
