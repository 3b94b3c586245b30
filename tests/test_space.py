import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import thetafock as tf
from thetafock import space as S
from thetafock import theta as T
from thetafock import verify
from thetafock.errors import DimensionMismatch, ValidationError, ValueOutOfRange
from thetafock.geometry import PointCoordinates, b_form


@pytest.fixture(scope="module")
def cfg_g1r1():
    sp = tf.validate_space(np.eye(1))
    lat = tf.build_lattice(sp, [[1.0]])
    return tf.make_config(lat, [0.0], math.pi)


@pytest.fixture(scope="module")
def cfg_g2r1():
    sp = tf.validate_space(np.eye(2))
    lat = tf.build_lattice(sp, [[1.0, 1j]])
    return tf.make_config(lat, [0.3], math.pi)


@pytest.fixture(scope="module")
def cfg_g2r2():
    sp = tf.validate_space(np.eye(2))
    lat = tf.build_lattice(sp, [[1.0, 0.0], [0.0, 1.0]])
    return tf.make_config(lat, [0.3, 0.1], math.pi)


@pytest.fixture(scope="module")
def cfg_g1r0():
    sp = tf.validate_space(np.eye(1))
    lat = tf.build_lattice(sp, [])
    return tf.make_config(lat, [], math.pi)


def test_weight_factor_at_zero(cfg_g2r1):
    u = PointCoordinates(np.zeros(1), np.zeros(1))
    assert tf.weight_factor(cfg_g2r1, u) == 1.0 + 0.0j


def test_weight_factor_scalar_example():
    sp = tf.validate_space(np.eye(1))
    lat = tf.build_lattice(sp, [[1.0]])
    cfg = tf.make_config(lat, [0.0], 2.0)
    u = PointCoordinates(np.array([1.0 + 0j]), np.zeros(0))
    assert tf.weight_factor(cfg, u) == pytest.approx(math.e, rel=1e-14)


def test_weight_factor_translation_equation(cfg_g2r1):
    # psi(u + gamma) = chi(gamma) exp(nu H(u + gamma/2, gamma)) psi(u)
    rng = np.random.default_rng(20)
    lat = cfg_g2r1.lattice
    for _ in range(20):
        z = 0.8 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
        m = rng.integers(-2, 3, size=1)
        u_amb = tf.to_ambient(lat, PointCoordinates(z, np.zeros(1)))
        gam = lat.gamma(m)
        lhs = tf.weight_factor(cfg_g2r1, tf.coordinates(lat, u_amb + gam))
        factor = cfg_g2r1.character(m) * np.exp(
            cfg_g2r1.nu * complex(lat.space.hermitian(u_amb + 0.5 * gam, gam))
        )
        rhs = factor * tf.weight_factor(cfg_g2r1, tf.coordinates(lat, u_amb))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_basis_eval_unit_at_origin(cfg_g2r1):
    idx = tf.BasisIndex(n=(0,), k=(0,))
    u = PointCoordinates(np.zeros(1), np.zeros(1))
    assert tf.basis_eval(cfg_g2r1, idx, u) == 1.0 + 0.0j


def test_basis_eval_scalar_example(cfg_g1r1):
    idx = tf.BasisIndex(n=(1,), k=())
    u = PointCoordinates(np.array([1j]), np.zeros(0))
    want = math.exp(-math.pi / 2 - 2 * math.pi)
    assert tf.basis_eval(cfg_g1r1, idx, u) == pytest.approx(want, rel=1e-13)


def test_basis_functional_equation(cfg_g2r1):
    rng = np.random.default_rng(21)
    for _ in range(20):
        idx = tf.BasisIndex(n=(int(rng.integers(-2, 3)),), k=(int(rng.integers(0, 3)),))
        z = 0.7 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
        zp = 0.7 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
        m = rng.integers(-2, 3, size=1).astype(float)
        u = PointCoordinates(z, zp)
        shifted = PointCoordinates(z + m, zp)
        lhs = tf.basis_eval(cfg_g2r1, idx, shifted)
        factor = np.exp(
            cfg_g2r1.nu * complex(b_form(cfg_g2r1.lattice, z + 0.5 * m, m + 0j))
            + 2j * np.pi * float(cfg_g2r1.alpha @ m)
        )
        rhs = factor * tf.basis_eval(cfg_g2r1, idx, u)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_basis_far_point_reduction(cfg_g2r1):
    # evaluation beyond the cutoff goes through the exact automorphy factor
    idx = tf.BasisIndex(n=(1,), k=(1,))
    z = np.array([0.4 + 0.3j])
    zp = np.array([0.2 - 0.1j])
    m = np.array([9.0])
    direct = tf.basis_eval(cfg_g2r1, idx, PointCoordinates(z, zp))
    factor = np.exp(
        cfg_g2r1.nu * complex(b_form(cfg_g2r1.lattice, z + 0.5 * m, m + 0j))
        + 2j * np.pi * float(cfg_g2r1.alpha @ m)
    )
    far = tf.basis_eval(cfg_g2r1, idx, PointCoordinates(z + m, zp))
    assert abs(far - factor * direct) <= 1e-10 * abs(far)


def test_norm_reference_g1r1(cfg_g1r1):
    # oracle: <e_0, e_0> = int_0^1 dx int_R exp(-2 pi y^2) dy = sqrt(1/2)
    oracle, err = quad(lambda y: math.exp(-2 * math.pi * y * y), -np.inf, np.inf)
    idx = tf.BasisIndex(n=(0,), k=())
    assert tf.basis_norm_sq(cfg_g1r1, idx) == pytest.approx(oracle, rel=1e-10)
    assert tf.basis_norm_sq(cfg_g1r1, idx) == pytest.approx(0.7071067811865476, rel=1e-12)


def test_norm_reference_g1r0(cfg_g1r0):
    # polar-coordinate oracle for the k=2 monomial at nu=pi
    oracle, err = quad(
        lambda rho: 2 * math.pi * rho**5 * math.exp(-math.pi * rho * rho), 0, np.inf
    )
    idx = tf.BasisIndex(n=(), k=(2,))
    assert tf.basis_norm_sq(cfg_g1r0, idx) == pytest.approx(oracle, rel=1e-10)
    assert tf.basis_norm_sq(cfg_g1r0, idx) == pytest.approx(0.20264236728467555, rel=1e-12)


def test_norm_ratio_in_n(cfg_g2r1):
    # log norm ratio between n and n+1 equals the exponent increment
    for n in (-2, 0, 1):
        a = tf.basis_norm_sq_log(cfg_g2r1, tf.BasisIndex(n=(n + 1,), k=(0,)))
        b = tf.basis_norm_sq_log(cfg_g2r1, tf.BasisIndex(n=(n,), k=(0,)))
        alpha = cfg_g2r1.alpha[0]
        binv = cfg_g2r1.lattice.B_inv[0, 0]
        want = (2 * math.pi**2 / cfg_g2r1.nu) * binv * (2 * n + 2 * alpha + 1)
        assert a - b == pytest.approx(want, rel=1e-12)


def test_norm_log_consistency_and_overflow(cfg_g1r1):
    idx = tf.BasisIndex(n=(2,), k=())
    assert math.log(tf.basis_norm_sq(cfg_g1r1, idx)) == pytest.approx(
        tf.basis_norm_sq_log(cfg_g1r1, idx), rel=1e-12
    )
    big = tf.BasisIndex(n=(50,), k=())
    with pytest.raises(OverflowError):
        tf.basis_norm_sq(cfg_g1r1, big)
    assert np.isfinite(tf.basis_norm_sq_log(cfg_g1r1, big))


def test_norm_large_k_log_space(cfg_g1r0):
    idx = tf.BasisIndex(n=(), k=(40,))
    got = tf.basis_norm_sq(cfg_g1r0, idx)
    want = (math.pi / math.pi) * math.factorial(40) / math.pi**40
    assert got == pytest.approx(want, rel=1e-10)


def test_synthesize_single_term(cfg_g2r1):
    idx = tf.BasisIndex(n=(1,), k=(0,))
    coeffs = tf.CoefficientField.from_dict({idx: 1.0})
    u = PointCoordinates(np.array([0.2 + 0.1j]), np.array([0.3 - 0.2j]))
    assert tf.synthesize(cfg_g2r1, coeffs, u) == tf.basis_eval(cfg_g2r1, idx, u)


def test_synthesize_linearity(cfg_g2r1):
    rng = np.random.default_rng(22)
    f1 = verify.random_field(rng, cfg_g2r1)
    f2 = verify.random_field(rng, cfg_g2r1)
    merged = dict(f1.entries)
    for idx, a in f2.entries:
        merged[idx] = merged.get(idx, 0.0) + 2.0 * a
    combined = tf.CoefficientField(entries=tuple(merged.items()))
    u = verify.random_point(rng, cfg_g2r1)
    lhs = tf.synthesize(cfg_g2r1, combined, u)
    rhs = tf.synthesize(cfg_g2r1, f1, u) + 2.0 * tf.synthesize(cfg_g2r1, f2, u)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_synthesize_empty(cfg_g2r1):
    u = PointCoordinates(np.zeros(1), np.zeros(1))
    assert tf.synthesize(cfg_g2r1, tf.CoefficientField(entries=()), u) == 0.0


def test_growth_functional(cfg_g2r1):
    assert tf.growth_functional(cfg_g2r1, tf.CoefficientField(entries=())) == 0.0
    i1 = tf.BasisIndex(n=(0,), k=(0,))
    i2 = tf.BasisIndex(n=(1,), k=(2,))
    single = tf.growth_functional(cfg_g2r1, tf.CoefficientField.from_dict({i1: 1.0}))
    assert single == pytest.approx(tf.basis_norm_sq(cfg_g2r1, i1), rel=1e-14)
    both = tf.growth_functional(
        cfg_g2r1, tf.CoefficientField.from_dict({i1: 1.0, i2: 1.0})
    )
    assert both == pytest.approx(
        tf.basis_norm_sq(cfg_g2r1, i1) + tf.basis_norm_sq(cfg_g2r1, i2), rel=1e-14
    )


def test_synthesized_functional_equation_closure(cfg_g2r1):
    rng = np.random.default_rng(23)
    lat = cfg_g2r1.lattice
    for _ in range(20):
        coeffs = verify.random_field(rng, cfg_g2r1)
        u = verify.random_point(rng, cfg_g2r1)
        m = rng.integers(-2, 3, size=1).astype(float)
        shifted = PointCoordinates(u.z + m, u.z_perp)
        lhs = tf.synthesize(cfg_g2r1, coeffs, shifted)
        factor = np.exp(
            cfg_g2r1.nu * complex(b_form(lat, u.z + 0.5 * m, m + 0j))
            + 2j * np.pi * float(cfg_g2r1.alpha @ m)
        )
        rhs = factor * tf.synthesize(cfg_g2r1, coeffs, u)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1e-12)


def test_kernel_hermitian_symmetry(cfg_g2r1):
    rng = np.random.default_rng(24)
    for _ in range(5):
        u = verify.random_point(rng, cfg_g2r1)
        v = verify.random_point(rng, cfg_g2r1)
        a = tf.kernel_eval(cfg_g2r1, u, v, 1e-12)
        b = tf.kernel_eval(cfg_g2r1, v, u, 1e-12)
        assert abs(a - b.conjugate()) <= 1e-12


def test_kernel_series_agreement(cfg_g2r1):
    rng = np.random.default_rng(25)
    for _ in range(5):
        u = verify.random_point(rng, cfg_g2r1, scale=0.4)
        v = verify.random_point(rng, cfg_g2r1, scale=0.4)
        closed = tf.kernel_eval(cfg_g2r1, u, v, 1e-12)
        series = verify._kernel_series(cfg_g2r1, [u], [v])[0, 0]
        assert abs(closed - series) <= 1e-8


def test_kernel_r0_closed_form(cfg_g1r0):
    rng = np.random.default_rng(26)
    u = verify.random_point(rng, cfg_g1r0)
    v = verify.random_point(rng, cfg_g1r0)
    got = tf.kernel_eval(cfg_g1r0, u, v, 1e-12)
    direct = (cfg_g1r0.nu / math.pi) ** 1 * np.exp(
        cfg_g1r0.nu * S.perp_inner(u.z_perp, v.z_perp)
    )
    assert got == complex(direct)


@pytest.mark.parametrize("name", ["cfg_g1r0", "cfg_g1r1", "cfg_g2r1", "cfg_g2r2"])
def test_kernel_eval_matches_section(name, request, monkeypatch):
    cfg = request.getfixturevalue(name)
    rng = np.random.default_rng(31)
    m = cfg.g - cfg.r
    e00 = tf.BasisIndex(n=(0,) * cfg.r, k=(0,) * m)
    factors = []
    batch = S._kernel_batch
    monkeypatch.setattr(S, "_kernel_batch", lambda *a: factors.append(batch(*a)) or factors[-1])
    for _ in range(25):
        u = verify.random_point(rng, cfg)
        v = verify.random_point(rng, cfg)
        want = tf.kernel_eval(cfg, u, v, 1e-11)
        got = S.kernel_section(cfg, v, 1e-11)(u.z, u.z_perp)[0]
        # the same outer and theta factors, bit for bit; a product of two
        # scalars and one of two arrays can differ in the last bits
        (outer, vals), (outer_s, vals_s) = factors[-2:]
        assert outer[0] == outer_s[0] and vals[0] == vals_s[0]
        assert abs(got - want) <= 4 * np.finfo(float).eps * abs(want)
        # the diagonal and the weight factor are exact special cases
        diag = tf.kernel_diagonal(cfg, u, 1e-11)
        assert diag == tf.kernel_eval(cfg, u, u, 1e-11).real and diag > 0
        at_origin = PointCoordinates(u.z, np.zeros(m))
        assert tf.weight_factor(cfg, u) == tf.basis_eval(cfg, e00, at_origin)


_TOL_ENTRY_POINTS = {
    "truncation_plan": lambda cfg, u, tol: tf.truncation_plan(cfg.theta_params, u.z, tol),
    "theta_eval": lambda cfg, u, tol: tf.theta_eval(cfg.theta_params, u.z, tol),
    "theta_eval_many": lambda cfg, u, tol: T.theta_eval_many(cfg.theta_params, u.z[None, :], tol),
    "kernel_eval": lambda cfg, u, tol: tf.kernel_eval(cfg, u, u, tol),
    "kernel_section": lambda cfg, u, tol: S.kernel_section(cfg, u, tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("entry", list(_TOL_ENTRY_POINTS))
def test_tol_must_be_positive(cfg_g2r1, entry, tol):
    # a bad tol is a bad argument, not an unreachable tail budget
    u = PointCoordinates(np.array([0.2 + 0.1j]), np.array([0.3 - 0.2j]))
    with pytest.raises(ValueError, match="tol must be positive"):
        _TOL_ENTRY_POINTS[entry](cfg_g2r1, u, tol)


_POINT_ENTRY_POINTS = {
    "truncation_plan": lambda cfg, z: tf.truncation_plan(cfg.theta_params, z, 1e-10),
    "theta_eval": lambda cfg, z: tf.theta_eval(cfg.theta_params, z, 1e-10),
    "theta_eval_many": lambda cfg, z: T.theta_eval_many(cfg.theta_params, z[None, :], 1e-10),
    "kernel_eval": lambda cfg, z: tf.kernel_eval(
        cfg, PointCoordinates(z, [0.3 - 0.2j]), PointCoordinates([0.0], [0.0]), 1e-10),
    "kernel_section_z": lambda cfg, z: S.kernel_section(
        cfg, PointCoordinates([0.1], [0.2]), 1e-10)(z[None, :], np.array([[0.3 - 0.2j]])),
    "kernel_section_z_perp": lambda cfg, z: S.kernel_section(
        cfg, PointCoordinates([0.1], [0.2]), 1e-10)(np.array([[0.3 - 0.2j]]), z[None, :]),
    "basis_eval_many_z": lambda cfg, z: S.basis_eval_many(
        cfg, [tf.BasisIndex(n=(1,), k=(1,))], z[None, :], np.array([[0.3 - 0.2j]])),
    "basis_eval_many_z_perp": lambda cfg, z: S.basis_eval_many(
        cfg, [tf.BasisIndex(n=(1,), k=(1,))], np.array([[0.3 - 0.2j]]), z[None, :]),
}


@pytest.mark.parametrize("bad", [
    PointCoordinates(np.array([0.1, 0.2]), np.array([0.3])),
    PointCoordinates(np.array([0.1]), np.array([0.3, 0.2])),
    PointCoordinates(np.array([0.1]), np.array([], dtype=complex)),
], ids=["z", "z_perp", "no_z_perp"])
def test_kernel_point_of_wrong_dimensions(cfg_g2r1, bad):
    # one check and one message for both kernels, whichever side is wrong
    good = PointCoordinates(np.array([0.2 + 0.1j]), np.array([0.3 - 0.2j]))
    calls = (lambda: tf.kernel_eval(cfg_g2r1, bad, good, 1e-10),
             lambda: tf.kernel_eval(cfg_g2r1, good, bad, 1e-10),
             lambda: S.kernel_section(cfg_g2r1, bad, 1e-10))
    for call in calls:
        with pytest.raises(DimensionMismatch, match="points do not match the configuration"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf * 1j, math.inf], ids=["nan", "inf_j", "inf"])
@pytest.mark.parametrize("entry", list(_POINT_ENTRY_POINTS))
def test_point_must_be_finite(cfg_g2r1, entry, bad):
    # a non-finite point is bad input, not a tail budget or a range failure
    with pytest.raises(ValidationError, match="must be finite"):
        _POINT_ENTRY_POINTS[entry](cfg_g2r1, np.array([bad], dtype=complex))


@pytest.mark.parametrize("im, terms", [(30.0, 1822), (40.0, 3236)])
def test_far_kernel_section_builds(im, terms):
    # K(v, v) leaves the double range here, but the section's expansion is
    # finite: its plan's tails, far beyond the double range, stay in log scale
    config = verify.random_config(np.random.default_rng(1), 3, 2)
    v = PointCoordinates(np.array([0.1 + im * 1j, 0.2]), np.array([0.1]))
    f = S.kernel_section(config, v, 1e-10)
    assert f.factored.terms.shape[0] == terms
    assert np.isfinite(f.factored.coeffs).all()


def test_kernel_far_imaginary_raises(cfg_g1r1):
    # the outer Gaussian underflows and theta overflows; until theta is
    # carried in log scale these raise instead of returning NaN
    u = PointCoordinates(np.array([0.1 + 25j]), np.zeros(0))
    v = PointCoordinates(np.array([0.2 + 0.1j]), np.zeros(0))
    with pytest.raises(ValueOutOfRange):
        tf.kernel_eval(cfg_g1r1, u, v, 1e-10)
    with pytest.raises(ValueOutOfRange):
        tf.kernel_diagonal(cfg_g1r1, PointCoordinates(np.array([0.1 + 15j]), np.zeros(0)), 1e-10)


def test_kernel_outer_factor_out_of_range(cfg_g2r1):
    # the outer factor exp(nu |z_perp|^2) = exp(400 pi) overflows a double
    u = PointCoordinates(np.zeros(1), np.array([20.0 + 0j]))
    with pytest.raises(ValueOutOfRange):
        tf.kernel_eval(cfg_g2r1, u, u, 1e-10)
    with pytest.raises(ValueOutOfRange):
        tf.kernel_diagonal(cfg_g2r1, u, 1e-10)
    with pytest.raises(ValueOutOfRange):
        S.kernel_section(cfg_g2r1, u, 1e-10)(u.z, u.z_perp)


def test_kernel_product_out_of_range():
    # the outer factor (about e^357) and the theta factor (about e^388) are
    # doubles, their product is not
    config = verify.random_config(np.random.default_rng(1), 2, 1)
    u = PointCoordinates(np.array([0.2 + 10j]), np.array([16.0 + 0j]))
    Zr, h = S._kernel_sides(config, u.z[None, :])
    outer, vals = S._kernel_batch(config, Zr, h, config.nu * 256.0, Zr[0], h[0], 1e-10)
    assert np.isfinite(outer).all() and np.isfinite(vals).all()
    with pytest.raises(ValueOutOfRange):
        tf.kernel_eval(config, u, u, 1e-10)
    with pytest.raises(ValueOutOfRange):
        tf.kernel_diagonal(config, u, 1e-10)
    with pytest.raises(ValueOutOfRange):
        S.kernel_section(config, u, 1e-10)(u.z, u.z_perp)
    with pytest.raises(ValueOutOfRange):
        tf.evaluation_bound_check(config, verify.random_field(np.random.default_rng(0), config), u)


def test_replace_recomputes_theta_params():
    # theta_params is derived from the lattice and nu, not a constructor field
    cfg = verify.random_config(np.random.default_rng(1), 2, 2)
    u = verify.random_point(np.random.default_rng(2), cfg)
    replaced = dataclasses.replace(cfg, nu=2 * cfg.nu)
    made = tf.make_config(cfg.lattice, cfg.alpha, 2 * cfg.nu)
    assert np.array_equal(replaced.theta_params.F, made.theta_params.F)
    assert tf.kernel_eval(replaced, u, u, 1e-12) == tf.kernel_eval(made, u, u, 1e-12)
    with pytest.raises(TypeError):
        S.SpaceConfig(cfg.lattice, cfg.character, cfg.nu, cfg.theta_params)


def test_basis_value_out_of_range(cfg_g1r1):
    # z = 25.3 + 0.1i reduces to 0.3 + 0.1i with automorphy log ~ 1005:
    # the values are about exp(1005), which used to come back as inf or NaN
    u = PointCoordinates(np.array([25.3 + 0.1j]), np.zeros(0))
    with pytest.raises(ValueOutOfRange):
        tf.basis_eval(cfg_g1r1, tf.BasisIndex(n=(1,), k=()), u)
    with pytest.raises(ValueOutOfRange):
        tf.weight_factor(cfg_g1r1, u)


def test_kernel_diagonal(cfg_g2r1):
    rng = np.random.default_rng(27)
    for _ in range(5):
        u = verify.random_point(rng, cfg_g2r1)
        kd = tf.kernel_diagonal(cfg_g2r1, u, 1e-12)
        ke = tf.kernel_eval(cfg_g2r1, u, u, 1e-12)
        assert kd > 0
        assert abs(ke.imag) <= 1e-12 * kd
        assert kd == pytest.approx(ke.real, rel=1e-12)


def test_kernel_diagonal_r0_origin(cfg_g1r0):
    u = PointCoordinates(np.zeros(0), np.zeros(1))
    assert tf.kernel_diagonal(cfg_g1r0, u, 1e-12) == (math.pi / math.pi) ** 1 * 1.0


def test_kernel_diagonal_perp_monotone(cfg_g2r1):
    u1 = PointCoordinates(np.array([0.2 + 0.1j]), np.array([0.5 + 0.2j]))
    u2 = PointCoordinates(np.array([0.2 + 0.1j]), np.array([1.0 + 0.4j]))
    assert tf.kernel_diagonal(cfg_g2r1, u2, 1e-12) >= tf.kernel_diagonal(
        cfg_g2r1, u1, 1e-12
    )


def test_diagonal_series_identity(cfg_g2r1):
    rng = np.random.default_rng(28)
    u = verify.random_point(rng, cfg_g2r1, scale=0.4)
    kd = tf.kernel_diagonal(cfg_g2r1, u, 1e-12)
    series = verify._kernel_series(cfg_g2r1, [u], [u])[0, 0].real
    assert abs(series - kd) <= 1e-8


def test_evaluation_bound(cfg_g2r1):
    rng = np.random.default_rng(29)
    empty = tf.CoefficientField(entries=())
    rep = tf.evaluation_bound_check(cfg_g2r1, empty, verify.random_point(rng, cfg_g2r1))
    assert rep.holds and rep.lhs == 0.0
    idx = tf.BasisIndex(n=(0,), k=(1,))
    single = tf.CoefficientField.from_dict({idx: 2.0})
    rep = tf.evaluation_bound_check(cfg_g2r1, single, verify.random_point(rng, cfg_g2r1))
    assert rep.holds
    for _ in range(20):
        coeffs = verify.random_field(rng, cfg_g2r1)
        u = verify.random_point(rng, cfg_g2r1)
        assert tf.evaluation_bound_check(cfg_g2r1, coeffs, u).holds


def test_series_indices_ordering(cfg_g2r1):
    # lexicographic: n-major, then k; the order does not depend on alpha or B
    ns, ks = tf.series_indices(cfg_g2r1, n_radius=2, k_total=2)
    assert ns[:, 0].tolist() == [n for n in range(-2, 3) for _ in range(3)]
    assert ks[:, 0].tolist() == [0, 1, 2] * 5  # 5 n-values times k in {0, 1, 2}


def test_multi_indices_are_the_filtered_product():
    # only the kept indices are generated, in the order of the filtered product
    for m in range(5):
        for total in range(-1, 7):
            want = [k for k in itertools.product(range(total + 1), repeat=m) if sum(k) <= total]
            assert list(map(tuple, S._multi_indices(m, total).tolist())) == want, (m, total)


@pytest.mark.parametrize("nu", [math.nan, math.inf, 0.0, -1.0])
def test_make_config_rejects_bad_nu(cfg_g1r1, nu):
    with pytest.raises(ValueError, match="nu must be finite and positive"):
        tf.make_config(cfg_g1r1.lattice, cfg_g1r1.alpha, nu)


_CONFIG_BUILDS = {
    "constructor": lambda cfg, **kw: S.SpaceConfig(
        kw.get("lattice", cfg.lattice), kw.get("character", cfg.character), kw.get("nu", cfg.nu)),
    "replace": lambda cfg, **kw: dataclasses.replace(cfg, **kw),
}


@pytest.mark.parametrize("build", list(_CONFIG_BUILDS))
def test_config_checks_its_own_inputs(cfg_g1r1, cfg_g2r2, build):
    # SpaceConfig checks nu and the character's rank, so replace() checks them too
    for nu in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="nu must be finite and positive"):
            _CONFIG_BUILDS[build](cfg_g1r1, nu=nu)
    with pytest.raises(DimensionMismatch, match="character has rank 2, lattice has rank 1"):
        _CONFIG_BUILDS[build](cfg_g1r1, character=cfg_g2r2.character)


def _loop_basis_values(cfg, n, k, z, zp):
    """Reference: the per-index, per-point product that basis_eval_many replaced."""
    Zr, log_factor = S._reduce_batch(cfg, z)
    base = np.exp(0.5 * cfg.nu * b_form(cfg.lattice, Zr, Zr) + 2j * np.pi * (Zr @ cfg.alpha)
                  + log_factor)
    out = np.empty((len(n), len(z)), dtype=complex)
    for i, p in itertools.product(range(len(n)), range(len(z))):
        value = complex(base[p])
        for j, e in enumerate(n[i]):
            value *= complex(np.exp(2j * np.pi * Zr[p, j])) ** int(e)
        for j, e in enumerate(k[i]):
            value *= complex(zp[p, j]) ** int(e)
        out[i, p] = value
    return out


@pytest.mark.parametrize("g, r", [(g, r) for g in range(1, 5) for r in range(g + 1)])
def test_index_pair_matches_index_list(g, r):
    # the (n, k) array pair and the BasisIndex list are one input, converted once:
    # the same values and norms bit for bit, far points and the empty set included
    cfg = verify.random_config(np.random.default_rng([44, g, r]), g, r)
    rng = np.random.default_rng([42, g, r])
    n = rng.integers(-3, 4, size=(12, r))
    k = rng.integers(0, 4, size=(12, g - r))
    z = rng.standard_normal((9, r)) + 1j * rng.standard_normal((9, r))
    z[::3] += 9.0  # beyond REDUCTION_CUTOFF
    zp = rng.standard_normal((9, g - r)) + 1j * rng.standard_normal((9, g - r))
    for rows in (slice(None), slice(0, 1), slice(0, 0)):
        pair = n[rows], k[rows]
        listed = [tf.BasisIndex(n=a, k=b) for a, b in zip(*pair)]
        for many_z, many_zp in ((z, zp), (z[:1], zp[:1])):
            got = S.basis_eval_many(cfg, pair, many_z, many_zp)
            assert got.shape == (len(listed), len(many_z))
            assert got.tobytes() == S.basis_eval_many(cfg, listed, many_z, many_zp).tobytes()
            # powers by repeated multiplication against Python's: a few roundings apart
            want = _loop_basis_values(cfg, *pair, many_z, many_zp)
            np.testing.assert_allclose(got, want, rtol=512 * np.finfo(float).eps, atol=0)
        assert S._log_norms(cfg, pair).tobytes() == S._log_norms(cfg, listed).tobytes()


_BAD_PAIRS = {
    "n_columns": (lambda n, k: (n[:, :0], k), DimensionMismatch),
    "k_columns": (lambda n, k: (n, np.hstack((k, k))), DimensionMismatch),
    "rows": (lambda n, k: (n, k[:1]), DimensionMismatch),
    "one_dimensional": (lambda n, k: (n[:, 0], k), DimensionMismatch),
    "negative_k": (lambda n, k: (n, -k), ValueError),
    "float_n": (lambda n, k: (n.astype(float), k), ValidationError),
    "nan_k": (lambda n, k: (n, np.full(k.shape, math.nan)), ValidationError),
}


@pytest.mark.parametrize("bad", list(_BAD_PAIRS))
@pytest.mark.parametrize("entry", ["basis_eval_many", "basis_family", "_log_norms"])
def test_malformed_index_pair_raises(cfg_g2r1, entry, bad):
    make, error = _BAD_PAIRS[bad]
    pair = make(np.array([[1], [-2]]), np.array([[1], [0]]))
    calls = {
        "basis_eval_many": lambda: S.basis_eval_many(cfg_g2r1, pair, [[0.1j]], [[0.2]]),
        "basis_family": lambda: S.basis_family(cfg_g2r1, pair),
        "_log_norms": lambda: S._log_norms(cfg_g2r1, pair),
    }
    with pytest.raises(error):
        calls[entry]()


def test_family_weights_are_a_vector(cfg_g1r1):
    # 4,001 indices: the family's weights are an (N,) vector, where an
    # N x N coefficient matrix (np.diag) took 128 MB
    n = np.arange(-2000, 2001)[:, None]
    tracemalloc.start()
    try:
        fam = S.basis_family(cfg_g1r1, (n, np.zeros((len(n), 0), dtype=np.int64)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert fam.factored.coeffs.shape == (len(n),)
    z = np.array([[0.1 + 0j], [0.35 + 0j]])  # real z: every phase has modulus 1
    values = S.basis_eval_many(cfg_g1r1, (n[:3], np.zeros((3, 0), dtype=np.int64)), z, [[], []])
    assert np.array_equal(fam(z, [[], []])[:3], values)


def test_kernel_positive_semidefinite(cfg_g2r1):
    rng = np.random.default_rng(30)
    pts = [verify.random_point(rng, cfg_g2r1, scale=0.5) for _ in range(6)]
    K = np.array([[tf.kernel_eval(cfg_g2r1, a, b, 1e-12) for b in pts] for a in pts])
    eigs = np.linalg.eigvalsh(0.5 * (K + K.conj().T))
    assert eigs.min() >= -1e-8 * np.trace(K).real


def test_basis_index_validation(cfg_g2r1):
    with pytest.raises(ValueError):
        tf.BasisIndex(n=(0,), k=(-1,))
    with pytest.raises(DimensionMismatch):
        tf.basis_eval(
            cfg_g2r1,
            tf.BasisIndex(n=(0, 0), k=()),
            PointCoordinates(np.zeros(1), np.zeros(1)),
        )


def test_normalized_basis(cfg_g2r1):
    idx = tf.BasisIndex(n=(1,), k=(1,))
    u = PointCoordinates(np.array([0.3 + 0.2j]), np.array([0.4 - 0.1j]))
    raw = tf.basis_eval(cfg_g2r1, idx, u)
    unit = tf.basis_eval(cfg_g2r1, idx, u, normalized=True)
    assert unit == pytest.approx(raw / math.sqrt(tf.basis_norm_sq(cfg_g2r1, idx)), rel=1e-14)


@pytest.mark.parametrize("g, r", [(g, r) for r in range(3) for g in range(max(r, 1), r + 4)])
def test_series_indices_order_is_the_tuple_sort(g, r):
    # the box is the filtered product of the n and k ranges, which runs in
    # the sorted order of the (n, k) tuples
    cfg = verify.random_config(np.random.default_rng(40 + 5 * g + r), g, r)
    for n_radius, k_total in ((0, 0), (1, 2), (2, 3)):
        want = [(n, k) for n in itertools.product(range(-n_radius, n_radius + 1), repeat=r)
                for k in itertools.product(range(k_total + 1), repeat=g - r) if sum(k) <= k_total]
        assert want == sorted(want)
        ns, ks = S.series_indices(cfg, n_radius, k_total)
        assert list(zip(map(tuple, ns.tolist()), map(tuple, ks.tolist()))) == want


_PLANNED_CALLS = {
    "theta_eval": lambda cfg, u, v, f: tf.theta_eval(cfg.theta_params, u.z, 1e-12),
    "theta_eval_many": lambda cfg, u, v, f: T.theta_eval_many(
        cfg.theta_params, np.array([u.z, v.z]), 1e-12),
    "kernel_eval": lambda cfg, u, v, f: tf.kernel_eval(cfg, u, v, 1e-12),
    "kernel_diagonal": lambda cfg, u, v, f: tf.kernel_diagonal(cfg, u, 1e-12),
    "evaluation_bound_check": lambda cfg, u, v, f: tf.evaluation_bound_check(cfg, f, u, 1e-12),
    "kernel_section": lambda cfg, u, v, f: S.kernel_section(cfg, v, 1e-12),
}


@pytest.mark.parametrize("entry", list(_PLANNED_CALLS))
@pytest.mark.parametrize("name", ["cfg_g2r1", "cfg_g2r2"])
def test_one_plan_per_scalar_call(name, entry, request, monkeypatch):
    # each call plans once, through the one planner; a kernel section plans
    # the series of F/2, the others that of F
    cfg = request.getfixturevalue(name)
    rng = np.random.default_rng(50)
    u, v = verify.random_point(rng, cfg), verify.random_point(rng, cfg)
    field = verify.random_field(rng, cfg)
    plans = []
    plan = T._plan
    monkeypatch.setattr(T, "_plan", lambda *args: plans.append(args) or plan(*args))
    _PLANNED_CALLS[entry](cfg, u, v, field)
    assert len(plans) == 1
    planned = cfg.half_theta_params if entry == "kernel_section" else cfg.theta_params
    assert plans[0][0] is planned


@pytest.mark.parametrize("entry", [*_PLANNED_CALLS, "truncation_plan", "section_values"])
def test_rows_once_per_parameter_set(cfg_g2r2, entry, monkeypatch):
    # a call computes its points' centers and log prefactors once for each
    # series it plans or sums: the term formula and the summability check
    # reuse them
    cfg = cfg_g2r2
    rng = np.random.default_rng(51)
    u, v = verify.random_point(rng, cfg), verify.random_point(rng, cfg)
    field = verify.random_field(rng, cfg)
    section = S.kernel_section(cfg, v, 1e-12)
    calls = {
        **_PLANNED_CALLS,
        "truncation_plan": lambda cfg, u, v, f: tf.truncation_plan(cfg.theta_params, u.z, 1e-12),
        "section_values": lambda cfg, u, v, f: section(np.array([u.z, v.z]),
                                                       np.array([u.z_perp, v.z_perp])),
    }
    seen = []
    rows = T._rows
    monkeypatch.setattr(T, "_rows", lambda params, S: seen.append(params) or rows(params, S))
    calls[entry](cfg, u, v, field)
    # parameter sets compare by identity
    half = [cfg.half_theta_params] if entry == "kernel_section" else []
    assert seen == half + [cfg.theta_params]


def test_far_kernel_is_refused_before_enumeration(monkeypatch):
    # r = 3 at Im z = 30: the nearest theta term has log magnitude 911.8 >
    # 710.8, so the summability check raises before any ellipsoid is
    # enumerated (a fresh configuration has no cached candidates)
    lattice = tf.build_lattice(tf.validate_space(np.eye(3)), np.eye(3).astype(complex))
    cfg = tf.make_config(lattice, [0.1, 0.2, 0.3], 2.0)
    u = PointCoordinates(np.array([0.1, 0.2, -0.1]) + 30j / math.sqrt(3), np.zeros(0))
    v = PointCoordinates(np.array([0.2 + 0.1j, -0.1, 0.3j]), np.zeros(0))

    def never(*args):
        raise AssertionError("the ellipsoid was enumerated")

    monkeypatch.setattr(T, "_enumerate", never)
    with pytest.raises(ValueOutOfRange, match="log magnitude 911.8"):
        tf.kernel_eval(cfg, u, v, 1e-10)


@pytest.mark.parametrize("g, r", [(r + 1, r) for r in range(1, 5)])
def test_log_norms_do_not_depend_on_the_batch(g, r):
    # a row's norm is the same alone and in a batch, bit for bit, so
    # basis_norm_sq agrees with the norms inside growth_functional
    rng = np.random.default_rng([45, g, r])
    cfg = verify.random_config(rng, g, r)
    n, k = rng.integers(-4, 5, (300, r)), rng.integers(0, 4, (300, g - r))
    batch = S._log_norms(cfg, (n, k))
    rows = [S._log_norms(cfg, (n[i : i + 1], k[i : i + 1]))[0] for i in range(len(n))]
    assert np.array_equal(batch, rows)


@pytest.mark.parametrize("g, r", [(g, r) for g in range(1, 5) for r in range(g + 1)])
def test_unit_norm_is_the_inverse_kernel_constant(g, r):
    # at alpha = 0, ||e_{0,0}||^2 = 1/C with C the kernel constant, bit for
    # bit: the closed-form norms take their constant from kernel_prefactor
    drawn = verify.random_config(np.random.default_rng([46, g, r]), g, r)
    cfg = tf.make_config(drawn.lattice, np.zeros(r), drawn.nu)
    idx = tf.BasisIndex(n=(0,) * r, k=(0,) * (g - r))
    assert S.basis_norm_sq_log(cfg, idx) == -math.log(cfg.kernel_prefactor)
