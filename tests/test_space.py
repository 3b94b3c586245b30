import math

import numpy as np
import pytest
from scipy.integrate import quad

import thetafock as tf
from thetafock import space as S
from thetafock import verify
from thetafock.errors import DimensionMismatch, ValueOutOfRange
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
        series = verify._kernel_series(cfg_g2r1, u, v)
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
def test_kernel_eval_matches_section(name, request):
    cfg = request.getfixturevalue(name)
    rng = np.random.default_rng(31)
    m = cfg.g - cfg.r
    e00 = tf.BasisIndex(n=(0,) * cfg.r, k=(0,) * m)
    for _ in range(5):
        u = verify.random_point(rng, cfg)
        v = verify.random_point(rng, cfg)
        want = tf.kernel_eval(cfg, u, v, 1e-11)
        got = S.kernel_section(cfg, v, 1e-11)(u.z, u.z_perp)[0]
        assert abs(got - want) <= 1e-15 * abs(want)
        # the diagonal and the weight factor are exact special cases
        diag = tf.kernel_diagonal(cfg, u, 1e-11)
        assert diag == tf.kernel_eval(cfg, u, u, 1e-11).real and diag > 0
        at_origin = PointCoordinates(u.z, np.zeros(m))
        assert tf.weight_factor(cfg, u) == tf.basis_eval(cfg, e00, at_origin)


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
    series = verify._kernel_series(cfg_g2r1, u, u).real
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
    idxs = tf.series_indices(cfg_g2r1, n_radius=2, k_total=2)
    quads = []
    for idx in idxs:
        na = np.array(idx.n, dtype=float) + cfg_g2r1.alpha
        quads.append(float(na @ cfg_g2r1.lattice.B_inv @ na))
    assert all(a <= b + 1e-12 for a, b in zip(quads, quads[1:]))
    assert len(idxs) == 5 * 3  # 5 n-values times k in {0, 1, 2}


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
