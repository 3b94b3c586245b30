import dataclasses
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thetafock as tf
from thetafock import errors
from thetafock import theta as T


def brute_theta(F, alpha, beta, z, radius=20):
    """Independent oracle: plain double-loop lattice sum over a box."""
    F = np.atleast_2d(np.asarray(F, dtype=complex))
    r = F.shape[0]
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    z = np.asarray(z, dtype=complex)
    total = 0.0 + 0.0j
    for n in itertools.product(range(-radius, radius + 1), repeat=r):
        t = np.array(n, dtype=float) + alpha
        total += np.exp(2j * np.pi * (0.5 * t @ F @ t + t @ (z + beta)))
    return total


# frozen from the oracle above: sum_n exp(-pi n^2) over |n| <= 20
THETA3_EXP_PI = 1.0864348112133080


def test_reference_value_r1():
    params = tf.validate_parameters([[1j]])
    res = tf.theta_eval(params, [0.0], 1e-12)
    assert res.value.real == pytest.approx(THETA3_EXP_PI, abs=1e-12)
    assert abs(res.value.imag) < 1e-15
    assert res.tail_bound <= 1e-12
    assert abs(res.value - brute_theta([[1j]], [0], [0], [0.0])) < 1e-14


def test_r0_is_exactly_one():
    params = tf.validate_parameters(np.zeros((0, 0)))
    res = tf.theta_eval(params, np.zeros(0), 1e-12)
    assert res.value == 1.0 + 0.0j
    assert res.tail_bound == 0.0
    assert res.terms == 1


def test_r0_point_with_coordinates_is_rejected():
    # r = 0 runs the rank checks of every rank
    params = tf.validate_parameters(np.zeros((0, 0)))
    assert params.max_radius == 40.0  # R0 + sqrt(0); no plan reads it at r = 0
    with pytest.raises(errors.DimensionMismatch):
        tf.theta_eval(params, [0.5], 1e-12)
    with pytest.raises(errors.DimensionMismatch):
        tf.theta_quasiperiodicity_defect(params, [], [1.0], [], 1e-12)


def test_r2_diagonal_factorizes():
    params = tf.validate_parameters(1j * np.eye(2))
    res = tf.theta_eval(params, [0.0, 0.0], 1e-12)
    assert res.value.real == pytest.approx(THETA3_EXP_PI**2, rel=1e-12)
    assert abs(res.value - brute_theta(1j * np.eye(2), [0, 0], [0, 0], [0, 0], radius=12)) < 1e-13


def test_oracle_agreement_random():
    rng = np.random.default_rng(10)
    for _ in range(10):
        r = int(rng.integers(1, 3))
        A = rng.standard_normal((r, r))
        Y = A @ A.T + 0.8 * np.eye(r)
        X = rng.standard_normal((r, r))
        F = 0.5 * (X + X.T) + 1j * Y
        alpha = rng.uniform(0, 1, r)
        beta = rng.uniform(0, 1, r)
        z = 0.5 * (rng.standard_normal(r) + 1j * rng.standard_normal(r))
        params = tf.validate_parameters(F, alpha, beta)
        got = tf.theta_eval(params, z, 1e-11).value
        want = brute_theta(F, alpha, beta, z, radius=14)
        assert abs(got - want) < 5e-11


def test_not_symmetric():
    with pytest.raises(errors.NotSymmetric):
        tf.validate_parameters([[1j, 0.5], [0.2, 1j]])
    with pytest.raises(errors.NotSymmetric):
        T.ThetaParameters([[1j, 0.5], [0.2, 1j]])


def test_parameters_take_only_their_inputs():
    # r, Y^-1, Y^(1/2), lambda_min and chol are derived, not constructor fields
    params = tf.validate_parameters([[1j]])
    with pytest.raises(TypeError):
        T.ThetaParameters(1, params.F, params.alpha, params.beta)
    with pytest.raises(ValueError):
        dataclasses.replace(params, lambda_min=4.0)


@pytest.mark.parametrize("F, alpha, beta", [
    ([[math.nan]], None, None),
    ([[1j, 0.0], [0.0, complex(0.0, math.inf)]], None, None),
    ([[1j]], [math.nan], None),
    ([[1j]], None, [-math.inf]),
], ids=["F-nan", "F-inf", "alpha-nan", "beta-inf"])
def test_non_finite_parameters_are_rejected(F, alpha, beta):
    with pytest.raises(errors.ValidationError, match="finite"):
        tf.validate_parameters(F, alpha, beta)


def test_replace_recomputes_derived_parameters():
    # a copy with a new F carries that F's lambda_min, Y^-1 and Cholesky
    # factor, so its tail is certified against a tighter reference
    params = tf.validate_parameters([[1j]])
    tf.theta_eval(params, [0.3 + 0.2j], 1e-10)  # fills params.cache
    small = dataclasses.replace(params, F=[[0.05j]])
    made = tf.validate_parameters([[0.05j]])
    assert small.lambda_min == made.lambda_min == pytest.approx(0.05)
    assert np.array_equal(small.y_inv, made.y_inv)
    assert np.array_equal(small.y_sqrt, made.y_sqrt)
    assert np.array_equal(small.chol, made.chol)
    assert small.cache == {}
    z = [0.3 + 0.2j]
    res, ref = tf.theta_eval(small, z, 1e-10), tf.theta_eval(made, z, 1e-13)
    assert res == tf.theta_eval(made, z, 1e-10)
    assert abs(res.value - ref.value) <= res.tail_bound + ref.tail_bound


def test_im_not_positive_definite():
    with pytest.raises(errors.ImaginaryPartNotPositiveDefinite):
        tf.validate_parameters([[1.0 - 1j * 0.0, 0.0], [0.0, 1j]])


def test_quasiperiodicity_alpha_zero():
    params = tf.validate_parameters([[1j]], alpha=[0.0])
    tol = 1e-10
    d = tf.theta_quasiperiodicity_defect(params, [0.3 + 0.2j], [2], [1], tol)
    assert d <= 2 * tol


def test_quasiperiodicity_brute_r1():
    # reindexing identity at arbitrary alpha, against the oracle
    F = [[0.3 + 1.2j]]
    alpha, beta = [0.37], [0.11]
    z = np.array([0.4 - 0.3j])
    m = np.array([2.0])
    lhs = brute_theta(F, alpha, beta, z + m)
    rhs = np.exp(2j * np.pi * 0.37 * 2.0) * brute_theta(F, alpha, beta, z)
    assert abs(lhs - rhs) < 1e-12
    params = tf.validate_parameters(F, alpha, beta)
    assert tf.theta_quasiperiodicity_defect(params, z, [2], [0], 1e-10) <= 2e-10


def test_quasiperiodicity_f_direction():
    params = tf.validate_parameters([[1j]])
    d = tf.theta_quasiperiodicity_defect(params, [0.25 + 0.1j], [0], [1], 1e-10)
    assert d <= 2e-10


def test_characteristic_shift():
    rng = np.random.default_rng(11)
    F = np.array([[0.1 + 1.0j, 0.2], [0.2, -0.3 + 1.4j]])
    alpha = rng.uniform(0, 1, 2)
    params = tf.validate_parameters(F, alpha)
    shifted = tf.validate_parameters(F, alpha + np.array([3.0, -2.0]))
    z = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    tol = 1e-11
    a = tf.theta_eval(params, z, tol).value
    b = tf.theta_eval(shifted, z, tol).value
    assert abs(a - b) <= 2 * tol


def test_determinism_bit_identical():
    params = tf.validate_parameters([[0.2 + 1.1j]], alpha=[0.3], beta=[0.7])
    z = [0.123 + 0.456j]
    r1 = tf.theta_eval(params, z, 1e-11)
    r2 = tf.theta_eval(params, z, 1e-11)
    assert r1.value == r2.value
    assert r1.tail_bound == r2.tail_bound


TAIL_RADII = np.arange(1.0, 12.0, 0.5)


def test_tail_bound_monotone_in_radius():
    # the bound falls as R grows, and so does the cached radius table
    rng = np.random.default_rng(400)
    cases = [[[1j, 0.2j], [0.2j, 1.5j]]] + [1j * _spectrum_y(rng, r, 0.3, 30.0) for r in range(1, 7)]
    for F in cases:
        params = tf.validate_parameters(F)
        bounds = [T._log_bound(params, R) for R in TAIL_RADII]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:])), params.r
        T._find_radius(params, -2000.0, params.max_radius)  # past one table block
        table = -params.cache["neg_log_tails"]
        assert table.size > T._TABLE_BLOCK and np.all(np.diff(table) <= 0.0), params.r


def _ellipsoid(Y, center, R):
    """Every integer n with (n - center)^T Y (n - center) <= R^2, last coordinate first.

    With the coordinates after k fixed, the minimum of the form over those
    before k is the form of the Schur complement S = ((Y^-1)[k:, k:])^-1, a
    quadratic in coordinate k; its roots bound that coordinate.
    """
    r, y_inv = len(center), np.linalg.inv(Y)
    x = np.zeros((1, 0))  # n - center over the fixed coordinates
    for k in reversed(range(r)):
        S = np.linalg.inv(y_inv[k:, k:])
        b = x @ S[0, 1:]
        w = np.sqrt(np.maximum(b * b - S[0, 0] * (np.einsum("ij,jk,ik->i", x, S[1:, 1:], x) - R * R), 0))
        first = np.ceil((-b - w) / S[0, 0] + center[k] - 1e-9)
        counts = np.maximum(np.floor((w - b) / S[0, 0] + center[k] + 1e-9) - first + 1, 0).astype(int)
        rows = np.repeat(np.arange(len(x)), counts)
        n = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
        x = np.concatenate(((n - center[k])[:, None], x[rows]), axis=1)
    return np.rint(x + center).astype(np.int64)


def _bound_cases(r):
    """A random Y = A A^T + 0.7 I and a skewed one, eigenvalues 0.5 to 50, as theta parameters."""
    rng = np.random.default_rng(200 + r)
    A = rng.standard_normal((r, r))
    return [tf.validate_parameters(1j * Y) for Y in (A @ A.T + 0.7 * np.eye(r), _spectrum_y(rng, r, 0.5, 50.0))]


@pytest.mark.parametrize("r", range(1, 7))
def test_log_bound_is_rounded_up_against_mpmath(r):
    # the cached log rho(L) is at least the 50-digit sum over |U n| <= 4.5,
    # whose omitted part is below 1e-22 of it, and at least its own formula,
    # log S - log(1 - 2 C(1)^r) with S the sum over |U n| <= sqrt(r), in 50
    # digits; _log_bound at every radius is at least Banaszczyk's formula on
    # the cached value; both round-ups stay within 1e-9
    for params in _bound_cases(r):
        T.theta_eval(params, np.zeros(r), 1e-6)  # the first plan fills the cache
        log_mass = params.cache["log_mass"]
        with mpmath.workdps(50):
            Y = [mpmath.mpf(float(v)) for v in params.F.imag.reshape(-1)]
            n = _ellipsoid(params.F.imag, np.zeros(r), 4.5)
            pairs = (n[:, :, None] * n[:, None, :]).reshape(len(n), -1)
            q = [mpmath.fdot(Y, p) for p in pairs.tolist()]
            terms = [mpmath.exp(-mpmath.pi * v) for v in q]
            assert mpmath.mpf(log_mass) >= mpmath.log(mpmath.fsum(terms)), r
            c1 = mpmath.sqrt(2 * mpmath.pi * mpmath.e) * mpmath.exp(-mpmath.pi)
            near = mpmath.fsum(t for t, v in zip(terms, q) if v <= r)
            own = mpmath.log(near) - mpmath.log(1 - 2 * c1**r)
            assert 0 <= mpmath.mpf(log_mass) - own <= 1e-9, (r, float(log_mass - own))
            for R in TAIL_RADII:
                c = mpmath.mpf(float(R)) / mpmath.sqrt(r)
                factor = mpmath.log(2) + r * (mpmath.log(c * mpmath.sqrt(2 * mpmath.pi * mpmath.e))
                                              - mpmath.pi * c * c)
                ref = mpmath.mpf(log_mass) + (min(factor, 0) if c * mpmath.sqrt(2 * mpmath.pi) >= 1 else 0)
                got = mpmath.mpf(float(T._log_bound(params, float(R))))
                assert 0 <= got - ref <= 1e-9 * (1 + abs(ref)), (r, R, float(got - ref))


def _rows_missing_from(idx, pts):
    """The rows of the integer array pts that are not rows of idx."""
    lo = np.minimum(idx.min(axis=0), pts.min(axis=0))
    radix = np.cumprod(np.maximum(idx.max(axis=0), pts.max(axis=0)) - lo + 1)
    scale = np.concatenate(([1], radix[:-1]))
    return pts[~np.isin((pts - lo) @ scale, (idx - lo) @ scale)]


def _box(center, half_widths):
    """Every integer point of the box center +- half_widths."""
    axes = [np.arange(math.floor(c - h), math.ceil(c + h) + 1) for c, h in zip(center, half_widths)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _spectrum_y(rng, r, lam_min, lam_max):
    """Random symmetric Y whose eigenvalues run from lam_min to lam_max."""
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    lam = np.exp(rng.uniform(math.log(lam_min), math.log(lam_max), r))
    lam[-1], lam[0] = lam_max, lam_min
    return (q * lam) @ q.T


@pytest.mark.parametrize("r", range(1, 7))
def test_tail_bound_covers_brute_force_omitted_mass(r):
    # the reported tail is at least the omitted mass summed over the
    # ellipsoid of the plan radius R + 1, on random and skewed Y; past it
    # Banaszczyk's bound is about e^(-pi (2R + 1)) of its value at R
    rng = np.random.default_rng(300 + r)
    for cond in (1.5, 10.0, 100.0):
        X = rng.standard_normal((r, r))
        F = 0.5 * (X + X.T) + 1j * _spectrum_y(rng, r, 0.5, 0.5 * cond)
        params = tf.validate_parameters(F, rng.uniform(0, 1, r), rng.uniform(0, 1, r))
        z = rng.standard_normal(r) + 0.5j * rng.standard_normal(r)
        for tol in (1e-6, 1e-12, 1e-15):
            plan = tf.truncation_plan(params, z, tol)
            pts = _ellipsoid(params.F.imag, plan.center, plan.radius + 1.0)
            d = _rows_missing_from(plan.index_set, pts) - plan.center
            q = np.einsum("ij,jk,ik->i", d, params.F.imag, d)
            omitted = math.fsum(np.exp(plan.log_prefactor - math.pi * q))
            assert 0.0 < omitted <= plan.tail_bound <= tol, (cond, tol)


@pytest.mark.parametrize("Y, center, tol", [
    ([[0.01]], [149.5], 1e-30),
    ([[0.04, 0.0], [0.0, 100.0]], [0.0, 1.55], 1e-20),
    ([[0.04, 0.0], [0.0, 1e4]], [0.0, 0.5], 1e-12),
])
def test_tail_stays_certified_when_the_bound_leaves_the_double_range(Y, center, tol):
    # log_tol - log_prefactor is below -745, so the tail bound at the
    # chosen radius underflows a double: the radius must still come from
    # the bound, evaluated in log scale.  In the last case the nearest
    # terms lie 50 away from the center and carry the whole value, 10.
    Y, center = np.array(Y), np.array(center)
    params = tf.validate_parameters(1j * Y)
    z = -1j * (Y @ center)
    res = tf.theta_eval(params, z, tol)
    plan = tf.truncation_plan(params, z, tol)
    assert np.isfinite(res.value) and 0.0 < res.tail_bound <= tol
    pts = _box(center, 2.0 * plan.radius * np.sqrt(np.diag(params.y_inv)))
    d = _rows_missing_from(plan.index_set, pts) - center
    log_mass = plan.log_prefactor - math.pi * np.einsum("ij,jk,ik->i", d, Y, d)
    top = log_mass.max()
    assert top + math.log(np.exp(log_mass - top).sum()) <= math.log(plan.tail_bound)


@pytest.mark.parametrize("off, centers", [
    (0.9, [[0.0, 0.0], [0.0, 10.0]]),
    (0.99, [[0.0, 0.0], [0.0, 5.0], [5.0, 0.0]]),
])
def test_batch_plan_covers_every_row_ellipsoid(off, centers):
    # every integer point within R of every row's center is planned; a
    # coordinatewise clip to the box of centers is not the box point nearest
    # in the Y metric, so a filter built on it drops some of them
    Y = np.array([[1.0, off], [off, 1.0]])
    params = tf.validate_parameters(1j * Y)
    centers = np.array(centers)
    # Im z = -Y c puts a row's center at c (alpha = 0)
    assert np.allclose(T._rows(params, -centers @ Y)[0], centers)
    R, idx, _ = T.plan(params, -1j * (centers @ Y), math.log(1e-12))
    for c in centers:
        pts = _box(c, R * np.sqrt(np.diag(params.y_inv)) + 1.0)
        d = pts - c
        near = pts[np.einsum("ij,jk,ik->i", d, Y, d) <= R * R]
        assert _rows_missing_from(idx, near).shape[0] == 0, c


def test_rank_six_plans_and_its_tails_hold():
    # eigenvalues 0.51-3.1: the plan enumerates the ellipsoid, not its box
    rng = np.random.default_rng(16)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    X = rng.standard_normal((6, 6))
    F = 0.1 * (X + X.T) + 1j * (q * np.linspace(0.51, 3.1, 6)) @ q.T
    params = tf.validate_parameters(F, rng.uniform(0, 1, 6))
    z = 0.3 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    plan = tf.truncation_plan(params, z, 1e-10)
    assert plan.tail_bound <= 1e-10
    assert plan.index_set.shape[0] < 20_000
    ref = tf.theta_eval(params, z, 1e-13)
    for tol in (1e-3, 1e-6, 1e-10):
        coarse = tf.theta_eval(params, z, tol)
        assert abs(coarse.value - ref.value) <= coarse.tail_bound + ref.tail_bound


def test_rank_five_value_agrees_with_brute_force():
    # a long-double sum of the series terms over the ellipsoid of radius
    # R + 2 around the plan center, past which the terms fall below e^-100
    # of the largest, from their definition
    rng = np.random.default_rng(55)
    X = rng.standard_normal((5, 5))
    F = 0.1 * (X + X.T) + 1j * _spectrum_y(rng, 5, 0.5, 1.5)
    params = tf.validate_parameters(F, rng.uniform(0, 1, 5), rng.uniform(0, 1, 5))
    z = 0.4 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
    res, plan = tf.theta_eval(params, z, 1e-12), tf.truncation_plan(params, z, 1e-12)
    t = _ellipsoid(params.F.imag, plan.center, plan.radius + 2.0) + params.alpha
    t = t.astype(np.longdouble)
    Fl, zb = params.F.astype(np.clongdouble), (z + params.beta).astype(np.clongdouble)
    two_pi_i = 8j * np.arctan(np.longdouble(1.0))
    terms = np.exp(two_pi_i * (0.5 * np.einsum("ij,jk,ik->i", t, Fl, t) + t @ zb))
    ref, mass = complex(terms.sum()), float(np.abs(terms).sum())
    assert res.tail_bound <= 1e-12
    assert abs(res.value - ref) <= res.tail_bound + 1e-15 * mass, abs(res.value - ref)


def mpmath_theta(F, alpha, beta, z, half_widths):
    """50-digit brute-force sum over the box -alpha +- half_widths, with sum |terms|."""
    r = len(alpha)
    total, mass = mpmath.mpc(0), mpmath.mpf(0)
    with mpmath.workdps(50):
        Fm = [[mpmath.mpc(complex(F[j][k])) for k in range(r)] for j in range(r)]
        zb = [mpmath.mpc(complex(z[j])) + mpmath.mpf(float(beta[j])) for j in range(r)]
        for n in _box(-np.asarray(alpha), half_widths):
            t = [int(n[j]) + mpmath.mpf(float(alpha[j])) for j in range(r)]
            quad = sum(t[j] * Fm[j][k] * t[k] for j in range(r) for k in range(r))
            term = mpmath.exp(2j * mpmath.pi * (quad / 2 + sum(t[j] * zb[j] for j in range(r))))
            total += term
            mass += abs(term)
    return complex(total), float(mass)


@pytest.mark.parametrize("F, alpha, beta, z", [
    ([[1.3j]], [0.0], [0.0], [0.2 + 0.1j]),
    ([[0.7 + 0.9j]], [0.37], [0.21], [-0.4 + 0.6j]),
    ([[1.1j, 0.4j], [0.4j, 0.8j]], [0.25, 0.6], [0.0, 0.0], [0.3 - 0.2j, 0.1 + 0.4j]),
    ([[0.3 + 1.2j, -0.5 + 0.3j], [-0.5 + 0.3j, 0.2 + 0.7j]], [0.1, 0.8], [0.4, 0.9],
     [0.5 + 0.3j, -0.2 - 0.5j]),
])
def test_theta_agrees_with_mpmath_brute_force(F, alpha, beta, z):
    # an independent 50-digit reference: the box reaches past the terms of
    # relative size 1e-40 at every point used here
    params = tf.validate_parameters(F, alpha, beta)
    res = tf.theta_eval(params, z, 1e-12)
    ref, mass = mpmath_theta(F, alpha, beta, z, 6.0 + 4.0 * np.sqrt(np.diag(params.y_inv)))
    assert abs(res.value - ref) <= 1e-12 + 1e-15 * mass


def test_tail_soundness_on_radius_grid():
    rng = np.random.default_rng(12)
    for r in (1, 2):
        A = rng.standard_normal((r, r))
        F = 1j * (A @ A.T + 0.7 * np.eye(r))
        params = tf.validate_parameters(F, rng.uniform(0, 1, r))
        z = 0.5 * (rng.standard_normal(r) + 1j * rng.standard_normal(r))
        ref = tf.theta_eval(params, z, 1e-13)
        for tol in np.logspace(-2, -10, 9):
            approx = tf.theta_eval(params, z, float(tol))
            assert abs(approx.value - ref.value) <= approx.tail_bound + ref.tail_bound


def test_plan_soundness_brute_force():
    # every index whose term beats tail/|set| must be inside the plan
    params = tf.validate_parameters([[0.4 + 0.9j]], alpha=[0.25])
    z = np.array([0.3 + 0.8j])
    plan = tf.truncation_plan(params, z, 1e-7)
    cap = plan.tail_bound / plan.index_set.shape[0]
    inside = {tuple(row) for row in plan.index_set}
    grid = np.arange(-25, 26)[:, None]
    mags = np.exp(T.log_terms(params, z[None, :], grid).real)[0]
    for row, mag in zip(grid, mags):
        if mag > cap:
            assert tuple(row) in inside


def test_tail_bound_unreachable():
    params = tf.validate_parameters([[1j]])
    with pytest.raises(errors.TailBoundUnreachable):
        tf.theta_eval(params, [0.0], 1e-30, max_radius=1.5)


@pytest.mark.parametrize("y", [40.0, 1e4])
def test_default_budget_reaches_wide_spacing(y):
    # the default budget must not shrink like 40 / sqrt(lambda_min) as Y grows
    for alpha in ([0.0], [0.3]):
        params = tf.validate_parameters([[1j * y]], alpha=alpha)
        for z in ([0.0], [0.3 + 0.5j]):
            ref = brute_theta([[1j * y]], alpha, [0.0], z, radius=3)
            for tol in (1e-6, 1e-12):
                res = tf.theta_eval(params, z, tol)
                assert res.tail_bound <= tol
                assert abs(res.value - ref) <= tol + 1e-15 * abs(ref)


def test_batch_matches_scalar():
    rng = np.random.default_rng(13)
    F = np.array([[0.2 + 1.3j, -0.1], [-0.1, 0.5 + 0.9j]])
    params = tf.validate_parameters(F, [0.2, 0.6], [0.1, 0.0])
    Z = 0.7 * (rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2)))
    tol = 1e-11
    vals, tails = T.theta_eval_many(params, Z, tol)
    assert np.all(tails <= tol * (1 + 1e-12))
    for i in range(Z.shape[0]):
        single = tf.theta_eval(params, Z[i], tol).value
        # truncation budgets plus magnitude-scaled summation rounding
        assert abs(vals[i] - single) <= 2 * tol + 1e-13 * (1.0 + abs(single))


def test_continuity_bounded_by_gradient_sum():
    # |T(z+h) - T(z)| = O(|h|), constant observable from the planned terms
    params = tf.validate_parameters([[0.1 + 1.2j]], alpha=[0.3], beta=[0.2])
    z = np.array([0.4 + 0.3j])
    plan = tf.truncation_plan(params, z, 1e-13)
    terms = np.exp(T.log_terms(params, z[None, :], plan.index_set))[0]
    grad_sum = float(
        np.sum(2 * np.pi * np.abs(plan.index_set[:, 0] + 0.3) * np.abs(terms))
    )
    base = tf.theta_eval(params, z, 1e-13).value
    for h in (1e-4, 1e-5, 1e-6):
        for direction in (1.0, 1j, (1 + 1j) / math.sqrt(2)):
            moved = tf.theta_eval(params, z + h * direction, 1e-13).value
            assert abs(moved - base) <= 1.1 * grad_sum * h + 1e-12


def test_plan_recentering_tracks_imaginary_part():
    params = tf.validate_parameters([[1j]])
    far = tf.truncation_plan(params, [0.0 + 5.0j], 1e-10)
    assert abs(far.center[0] + 5.0) < 1e-12
    mid = np.mean(far.index_set)
    assert abs(mid - far.center[0]) < 2.0
    assert far.tail_bound <= 1e-10
    # the dominant term n = -5 is in the plan
    assert [-5] in far.index_set.tolist()


def _random_params(rng, r):
    A = rng.standard_normal((r, r))
    X = rng.standard_normal((r, r))
    F = 0.5 * (X + X.T) + 1j * (A @ A.T + 0.5 * np.eye(r))
    return tf.validate_parameters(F, rng.uniform(0, 1, r), rng.uniform(0, 1, r))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 3), log_tol=st.floats(-13.0, -3.0))
def test_scalar_is_batch_of_one(seed, r, log_tol):
    rng = np.random.default_rng(seed)
    params = _random_params(rng, r)
    z = rng.standard_normal(r) + 2j * rng.standard_normal(r)
    single = tf.theta_eval(params, z, 10.0**log_tol)
    vals, tails = T.theta_eval_many(params, z[None, :], 10.0**log_tol)
    assert single.value == vals[0]
    assert single.tail_bound == tails[0]


def test_batch_chunking_bit_identical(monkeypatch):
    rng = np.random.default_rng(14)
    params = _random_params(rng, 2)
    Z = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
    tol = 10.0 ** rng.uniform(-12, -6, 30)
    vals, tails = T.theta_eval_many(params, Z, tol)
    monkeypatch.setattr(T, "_CHUNK_BYTES", 1)  # one row per chunk
    vals1, tails1 = T.theta_eval_many(params, Z, tol)
    assert np.array_equal(vals, vals1)
    assert np.array_equal(tails, tails1)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_row_value_does_not_depend_on_its_batch(r):
    # given the batch's index set, a row alone gives its batch value bit for
    # bit: its center, prefactor and terms are products of that row only
    rng = np.random.default_rng(30 + r)
    params = _random_params(rng, r)
    Z = 0.6 * rng.standard_normal((25, r)) + 1j * rng.standard_normal((25, r))
    vals, _ = T.theta_eval_many(params, Z, 1e-9)
    values, (_, idx, _) = T.planned_sum(params, Z, math.log(1e-9))
    assert np.array_equal(values, vals)
    for i in range(Z.shape[0]):
        row = Z[i : i + 1]
        assert T._sum_terms(params, row, idx, *T._rows(params, row.imag))[0] == vals[i]


def test_out_of_range_value_raises():
    # the terms near n = -20 have magnitude exp(400 pi): the value is not a double
    params = tf.validate_parameters([[1j]], alpha=[0.3])
    with pytest.raises(errors.ValueOutOfRange):
        tf.theta_eval(params, [0.1 + 20j], 1e-10)
    with pytest.raises(errors.ValueOutOfRange):
        T.theta_eval_many(params, [[0.1], [0.1 + 20j]], 1e-10)
    assert issubclass(errors.ValueOutOfRange, errors.BudgetError)
    assert issubclass(errors.ValueOutOfRange, OverflowError)


def test_unsummable_point_raises_before_planning(monkeypatch):
    # the nearest term has log magnitude ~1257 > log(DBL_MAX): no plan can
    # be summed, so the ellipsoid its target asks for is never enumerated
    params = tf.validate_parameters([[1j, 0.3j], [0.3j, 1.2j]], alpha=[0.3, 0.1])
    monkeypatch.setattr(T, "_enumerate", None)
    with pytest.raises(errors.ValueOutOfRange, match="log magnitude"):
        tf.truncation_plan(params, [0.1 + 20j, 0.2], 1e-10)
    with pytest.raises(errors.ValueOutOfRange, match="log magnitude"):
        T.theta_eval_many(params, [[0.1, 0.2], [0.1 + 20j, 0.2]], 1e-10)


def test_huge_point_is_out_of_range_without_a_warning():
    # Im z = 1e200 puts the nearest term at log magnitude inf; its
    # message prints the term's float coordinates as they are
    params = tf.validate_parameters([[1j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.ValueOutOfRange, match=r"term \[-1e\+200\]"):
            tf.theta_eval(params, [1e200j], 1e-10)


def test_reported_tail_is_not_clamped():
    # the certified bound is e^709.5, still a double below the requested tol;
    # it must be reported as it is, not clamped to e^709
    params = tf.validate_parameters([[1j]])
    plan = tf.truncation_plan(params, [0.1 + 15.033j], 1.7e308)
    log_bound = plan.log_prefactor + float(T._log_bound(params, plan.radius))
    assert log_bound > 709.0
    assert math.log(plan.tail_bound) == pytest.approx(log_bound, abs=1e-9)
    assert plan.tail_bound <= 1.7e308


def _cell_case(seed, r):
    """Random parameters and a center at most 30 index units from 0."""
    rng = np.random.default_rng(seed)
    return _random_params(rng, r), rng.uniform(-30.0, 30.0, r), rng


def _box_select(params, pts, lo, hi, R):
    """The rows n of pts within Y-distance R (+ slack) of the box [lo, hi], as int64.

    Over the box (U c)_i spans m_i -+ h_i, m = U (lo + hi)/2 and
    h = |U| (hi - lo)/2, so the box distance of U n is max(|U n - m| - h, 0).
    """
    U = params.chol
    d = pts @ U.T - U @ (lo if hi is lo else 0.5 * (lo + hi))
    if hi is not lo:
        d = np.maximum(np.abs(d) - np.abs(U) @ (0.5 * (hi - lo)), 0.0)
    return pts[np.einsum("ij,ij->i", d, d) <= (R + T._SLACK) ** 2].astype(np.int64, copy=False)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 4),
       R=st.sampled_from([1.0, 2.0, 3.5, 5.25]), box=st.booleans())
def test_cell_cache_equals_enumeration(seed, r, R, box):
    # k + the cached candidates of the integer box [0, e], selected for
    # [lo, hi], are the selection of a fresh enumeration of [lo, hi], row
    # order included; the second and third calls read the cache the first
    # one filled
    params, lo, rng = _cell_case(seed, r)
    for shift in (0.0, 0.4, -7.3):
        lo = lo + shift
        hi = lo + rng.uniform(0.0, 2.5, r) if box else lo
        got = T._cells(params, lo, hi, R)
        want = _box_select(params, T._enumerate(params, lo, hi, R), lo, hi, R)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 4), rows=st.integers(1, 3),
       symmetric=st.booleans(), log_tol=st.floats(-13.0, -3.0))
def test_plan_is_in_enumeration_order(seed, r, rows, symmetric, log_tol):
    # a plan is a set summed in the order it is enumerated: lexicographic
    # from the last coordinate, each index once; a middle at 0 makes the
    # set symmetric, so n and -n are both kept
    params, center, rng = _cell_case(seed, r)
    centers = center + rng.uniform(-2.0, 2.0, (rows, r))
    if symmetric:
        half = centers[: rows // 2] - center
        centers = np.concatenate((half, -half)) if rows > 1 else np.zeros((1, r))
    _, idx, _ = T._plan(params, centers, np.zeros(len(centers)), log_tol, None)
    # lexsort sorts by its last key first: n_r, then n_(r-1), ..., n_1
    assert np.array_equal(np.lexsort(idx.T), np.arange(len(idx)))
    assert len(np.unique(idx, axis=0)) == len(idx)
    if symmetric:
        assert {tuple(n) for n in idx} == {tuple(-n) for n in idx}


def test_cell_cache_is_reused(monkeypatch):
    # a warm lattice plans any point of the same radius from its cached set
    params, center, _ = _cell_case(21, 3)
    other = center + np.array([3.25, -11.5, 0.125])
    log_pref, log_tol = np.zeros(1), math.log(1e-10)
    want = T._plan(_cell_case(21, 3)[0], other[None, :], log_pref, log_tol, None)
    warm = T._plan(params, center[None, :], log_pref, log_tol, None)
    monkeypatch.setattr(T, "_enumerate", None)  # a cache miss would raise TypeError
    again = T._plan(params, center[None, :], log_pref, log_tol, None)
    got = T._plan(params, other[None, :], log_pref, log_tol, None)
    for a, b in ((again, warm), (got, want)):
        assert a[0] == b[0] and np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])
    assert len(params.cache["cells"]) == 1


@pytest.mark.parametrize("cap", [0, 3000])
def test_cell_cache_stays_within_its_byte_cap(monkeypatch, cap):
    # plans past the cap are still exact; what is kept never passes it
    seeds_ranks, tols = ((5, 2), (6, 3), (7, 4)), (1e-3, 1e-8, 1e-13)

    def plans(cases):
        return [T._plan(p, c[None, :], np.zeros(1), math.log(tol), None)[1]
                for p, c, _ in cases for tol in tols]

    want = plans([_cell_case(*sr) for sr in seeds_ranks])
    monkeypatch.setattr(T, "_CHUNK_BYTES", cap)
    cases = [_cell_case(*sr) for sr in seeds_ranks]
    assert all(np.array_equal(a, b) for a, b in zip(plans(cases), want))
    caches = [p.cache["cells"].values() for p, _, _ in cases]
    for kept in caches:
        assert sum(cells.nbytes for cells in kept) <= cap
        assert all(cells.dtype == np.int32 for cells in kept)
    # 3000 bytes keep some of the nine sets and leave the others out
    retained = sum(len(kept) for kept in caches)
    assert 0 < retained < len(want) if cap else retained == 0


@pytest.mark.parametrize("z", [-0.26926267 + 12.5j, 0.18897846 + 17.5j])
def test_far_point_agrees_with_mpmath(z):
    # the two far points of the rank-1 benchmark space (B = 1.00566393,
    # nu = 3.967) that are doubles: the values are about e^312 and e^611, and
    # each term exp(log_pref - pi |U(n - c)|^2 + phase) must keep the
    # rounding within 1e-12 of the summed magnitudes, the benchmark's check
    nu, b, alpha, tol = 3.9670217579781246, 1.00566393, 0.88948783, 1e-12
    params = tf.validate_parameters([[2j * math.pi / (nu * b)]], [alpha])
    res = tf.theta_eval(params, [z], tol)
    with mpmath.workdps(40):
        y, a, zm = mpmath.mpf(params.F[0, 0].imag), mpmath.mpf(alpha), mpmath.mpc(z)
        center = int(round(-alpha - z.imag / float(y)))
        terms = [mpmath.exp(2j * mpmath.pi * (0.5j * y * t * t + t * zm))
                 for t in (n + a for n in range(center - 40, center + 41))]
        ref, mass = mpmath.fsum(terms), mpmath.fsum(abs(t) for t in terms)
        assert abs(mpmath.mpc(res.value) - ref) <= tol + 1e-12 * mass
