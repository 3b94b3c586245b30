import itertools
import math

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


def test_tail_bound_monotone_in_radius():
    params = tf.validate_parameters([[1j, 0.2j], [0.2j, 1.5j]])
    bounds = [T._shell_bound(params, R) for R in np.arange(1.0, 12.0, 0.5)]
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_tail_soundness_on_radius_grid():
    rng = np.random.default_rng(12)
    for r in (1, 2):
        A = rng.standard_normal((r, r))
        F = 1j * (A @ A.T + 0.7 * np.eye(r))
        params = tf.validate_parameters(F, rng.uniform(0, 1, r))
        z = 0.5 * (rng.standard_normal(r) + 1j * rng.standard_normal(r))
        ref_plan = tf.truncation_plan(params, z, 1e-13)
        ref = T.eval_with_plan(params, z, ref_plan)
        for tol in np.logspace(-2, -10, 9):
            plan = tf.truncation_plan(params, z, float(tol))
            approx = T.eval_with_plan(params, z, plan)
            assert abs(approx - ref) <= plan.tail_bound + ref_plan.tail_bound


def test_plan_soundness_brute_force():
    # every index whose term beats tail/|set| must be inside the plan
    params = tf.validate_parameters([[0.4 + 0.9j]], alpha=[0.25])
    z = np.array([0.3 + 0.8j])
    plan = tf.truncation_plan(params, z, 1e-7)
    cap = plan.tail_bound / plan.index_set.shape[0]
    inside = {tuple(row) for row in plan.index_set}
    grid = np.arange(-25, 26)[:, None]
    mags = np.exp(np.real(T._term_exponents(params, z, grid)))
    for row, mag in zip(grid, mags):
        if mag > cap:
            assert tuple(row) in inside


def test_tail_bound_unreachable():
    params = tf.validate_parameters([[1j]])
    with pytest.raises(errors.TailBoundUnreachable):
        tf.theta_eval(params, [0.0], 1e-30, max_radius=1.5)


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
    terms = np.exp(T._term_exponents(params, z, plan.index_set))
    grad_sum = float(
        np.sum(2 * np.pi * np.abs(plan.index_set[:, 0] + 0.3) * np.abs(terms))
    )
    base = T.eval_with_plan(params, z, plan)
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
    # the dominant term sits first in the planned summation order
    assert abs(far.index_set[0, 0] + 5.0) <= 1.0


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


def test_out_of_range_value_raises():
    # the terms near n = -20 have magnitude exp(400 pi): the value is not a double
    params = tf.validate_parameters([[1j]], alpha=[0.3])
    with pytest.raises(errors.ValueOutOfRange):
        tf.theta_eval(params, [0.1 + 20j], 1e-10)
    with pytest.raises(errors.ValueOutOfRange):
        T.theta_eval_many(params, [[0.1], [0.1 + 20j]], 1e-10)
    assert issubclass(errors.ValueOutOfRange, errors.BudgetError)
    assert issubclass(errors.ValueOutOfRange, OverflowError)
