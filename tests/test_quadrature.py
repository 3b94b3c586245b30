import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import roots_hermite

import thetafock as tf
from thetafock import errors
from thetafock import quadrature as Q
from thetafock import space as S
from thetafock import verify


@pytest.fixture(scope="module")
def cfg_g1r1():
    sp = tf.validate_space(np.eye(1))
    lat = tf.build_lattice(sp, [[1.0]])
    return tf.make_config(lat, [0.0], math.pi)


@pytest.fixture(scope="module")
def grid_g1r1(cfg_g1r1):
    # 32 Legendre x 48 Hermite reproduce the calibration closed forms
    return tf.build_grid(cfg_g1r1, requested_tol=1e-10)


def quad_complex(f, a, b):
    re, _ = quad(lambda t: f(t).real, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
    im, _ = quad(lambda t: f(t).imag, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
    return complex(re, im)


def test_gaussian_integral_reference_values():
    assert tf.gaussian_integral(1.0, [[1.0]], [0.0]) == pytest.approx(
        math.sqrt(math.pi), rel=1e-14
    )
    assert tf.gaussian_integral(1.0, [[1.0]], [2.0]) == pytest.approx(
        math.sqrt(math.pi) * math.e, rel=1e-14
    )
    assert tf.gaussian_integral(2.0, np.diag([1.0, 4.0]), [0.0, 0.0]) == pytest.approx(
        math.pi / 4, rel=1e-14
    )


def test_gaussian_integral_oracle_closure():
    # adaptive 1-d quadrature confirms the closed form on random data
    rng = np.random.default_rng(40)
    for _ in range(50):
        a = float(rng.uniform(0.3, 3.0))
        A = complex(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        closed = tf.gaussian_integral(a, [[A]], [b])
        oracle = quad_complex(lambda y: np.exp(-a * A * y * y + b * y), -np.inf, np.inf)
        assert abs(closed - oracle) <= 1e-10 * abs(oracle)


def test_gaussian_integral_r0():
    assert tf.gaussian_integral(1.0, np.zeros((0, 0)), []) == 1.0 + 0.0j


def test_gaussian_integral_errors():
    with pytest.raises(errors.RealPartNotPositiveDefinite):
        tf.gaussian_integral(1.0, [[-1.0 + 1j]], [0.0])
    with pytest.raises(errors.NotSymmetric):
        tf.gaussian_integral(1.0, [[1.0, 0.5], [0.2, 1.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        tf.gaussian_integral(-1.0, [[1.0]], [0.0])


def test_hermite_exactness_degree():
    # the Hermite sub-rule integrates t^(2j) against exp(-t^2) exactly
    t, w = roots_hermite(Q._DEFAULT_UNBOUNDED_NODES)
    for j in range(0, 16):
        got = float(w @ t ** (2 * j))
        want = float(gamma_fn(j + 0.5))
        assert abs(got - want) <= 1e-12 * want


def test_grid_invariants(grid_g1r1):
    lvl = grid_g1r1.base
    assert np.all(lvl.compact_weights > 0)
    assert np.all(lvl.herm_weights > 0)
    assert np.all((lvl.compact_nodes > 0) & (lvl.compact_nodes < 1))
    dom = grid_g1r1.domain
    assert dom.compact_dims == 1 and dom.unbounded_dims == 1
    assert all(rad >= np.abs(lvl.herm_nodes).max() / math.sqrt(2 * math.pi) - 1e-9
               for rad in dom.radii)
    assert dom.tail_fraction < 1e-20
    assert grid_g1r1.estimated_error <= 1e-10


def test_grid_dimension_cap():
    sp = tf.validate_space(np.eye(4))
    lat = tf.build_lattice(sp, [[1.0, 0, 0, 0]])
    cfg = tf.make_config(lat, [0.0], math.pi)
    with pytest.raises(errors.DimensionCapExceeded):
        tf.build_grid(cfg)

    sp3 = tf.validate_space(np.eye(3))
    lat3 = tf.build_lattice(sp3, [[1.0, 0, 0]])
    cfg3 = tf.make_config(lat3, [0.0], math.pi)
    with pytest.raises(errors.DimensionCapExceeded):
        tf.build_grid(cfg3)  # full nodes
    grid = tf.build_grid(cfg3, compact_nodes=8, unbounded_nodes=16)
    assert grid.total_nodes == 8 * 16**5


def test_grid_too_coarse():
    sp = tf.validate_space(np.eye(1))
    lat = tf.build_lattice(sp, [[1.0]])
    cfg = tf.make_config(lat, [0.0], math.pi)
    with pytest.raises(errors.GridTooCoarse):
        tf.build_grid(cfg, requested_tol=1e-12, compact_nodes=3, unbounded_nodes=4)


def test_inner_product_diagonal(cfg_g1r1, grid_g1r1):
    f = S.basis_function(cfg_g1r1, tf.BasisIndex(n=(0,), k=()))
    res = tf.inner_product(cfg_g1r1, f, f, grid_g1r1)
    assert res.value.real == pytest.approx(math.sqrt(0.5), rel=1e-8)
    assert res.error_estimate is not None and res.error_estimate < 1e-10


def test_inner_product_orthogonality(cfg_g1r1, grid_g1r1):
    f = S.basis_function(cfg_g1r1, tf.BasisIndex(n=(0,), k=()))
    h = S.basis_function(cfg_g1r1, tf.BasisIndex(n=(1,), k=()))
    res = tf.inner_product(cfg_g1r1, f, h, grid_g1r1)
    assert abs(res.value) <= 1e-8


def test_inner_product_no_refine(cfg_g1r1, grid_g1r1):
    f = S.basis_function(cfg_g1r1, tf.BasisIndex(n=(0,), k=()))
    res = tf.inner_product(cfg_g1r1, f, f, grid_g1r1, refine=False)
    assert res.error_estimate is None
    assert res.value.real == pytest.approx(math.sqrt(0.5), rel=1e-8)


def test_translation_invariance(cfg_g1r1, grid_g1r1):
    # the weighted norm does not depend on where the compact box sits
    f = S.basis_function(cfg_g1r1, tf.BasisIndex(n=(1,), k=()))
    base = tf.inner_product(cfg_g1r1, f, f, grid_g1r1).value
    shifted_grid = tf.build_grid(cfg_g1r1, box_offset=[0.37])
    shifted = tf.inner_product(cfg_g1r1, f, f, shifted_grid).value
    assert abs(shifted - base) <= 1e-8 * abs(base)


def test_monomial_norms_pure_hermite():
    # g=1, r=0: the grid reproduces k!/nu^k (pi/nu) without compact dims
    sp = tf.validate_space(np.eye(1))
    lat = tf.build_lattice(sp, [])
    cfg = tf.make_config(lat, [], math.pi)
    grid = tf.build_grid(cfg)
    for k in range(4):
        f = S.basis_function(cfg, tf.BasisIndex(n=(), k=(k,)))
        got = tf.inner_product(cfg, f, f, grid).value.real
        want = math.factorial(k) / math.pi**k * (math.pi / math.pi)
        assert got == pytest.approx(want, rel=1e-10)


def test_gram_matches_pairwise(cfg_g1r1, grid_g1r1):
    idxs = [tf.BasisIndex(n=(n,), k=()) for n in (-1, 0, 1)]
    fam = S.basis_family(cfg_g1r1, idxs)
    G, E = tf.gram_matrix(cfg_g1r1, fam, grid_g1r1)
    for i, a in enumerate(idxs):
        for j, b in enumerate(idxs):
            res = tf.inner_product(
                cfg_g1r1,
                S.basis_function(cfg_g1r1, a),
                S.basis_function(cfg_g1r1, b),
                grid_g1r1,
            )
            assert abs(G[i, j] - res.value) <= 1e-12 * (1 + abs(res.value))
    assert np.all(E >= 0)


def test_integration_deterministic(cfg_g1r1, grid_g1r1):
    f = S.basis_function(cfg_g1r1, tf.BasisIndex(n=(1,), k=()))
    a = tf.inner_product(cfg_g1r1, f, f, grid_g1r1).value
    b = tf.inner_product(cfg_g1r1, f, f, grid_g1r1).value
    assert a == b


def test_skewed_lattice_battery_reduced_range():
    # non-diagonal Gram matrix still verified, over the index range the
    # default node counts can resolve
    sp = tf.validate_space(np.eye(2))
    lat = tf.build_lattice(sp, [[1.0, 0.0], [1.0, 1.0]])
    cfg = tf.make_config(lat, [0.3, 0.7], math.pi)
    grid = tf.build_grid(cfg, compact_nodes=16, unbounded_nodes=32)
    idxs = [
        tf.BasisIndex(n=(n1, n2), k=())
        for n1 in (-1, 0, 1)
        for n2 in (-1, 0, 1)
    ]
    fam = S.basis_family(cfg, idxs)
    G, _ = tf.gram_matrix(cfg, fam, grid)
    norms = np.array([tf.basis_norm_sq(cfg, i) for i in idxs])
    assert float((np.abs(np.diag(G).real - norms) / norms).max()) <= 1e-6
    geo = np.sqrt(np.outer(norms, norms))
    off = np.abs(G - np.diag(np.diag(G))) / geo
    assert float(off.max()) <= 1e-6


# --- block-factored reduction ------------------------------------------------


@pytest.fixture(scope="module", params=["g1r1", "g2r0", "g2r1", "g2r2"])
def small_case(request):
    nodes = (10, 14)
    if request.param == "g1r1":
        lat = tf.build_lattice(tf.validate_space(np.eye(1)), [[1.2]])
        cfg = tf.make_config(lat, [0.2], math.pi)
        offset = None
    elif request.param == "g2r0":
        lat = tf.build_lattice(tf.validate_space(np.eye(2)), [])
        cfg = tf.make_config(lat, [], 2.5)
        offset = None
    elif request.param == "g2r1":
        H = np.array([[1.0, 0.2j], [-0.2j, 1.3]])
        lat = tf.build_lattice(tf.validate_space(H), [[1.0, 0.4 + 0.1j]])
        cfg = tf.make_config(lat, [0.3], math.pi)
        offset = [0.37]
    else:
        # real, non-diagonal B and an offset box: the x/y split of the
        # lattice block must not lean on a diagonal form.  Fewer compact
        # nodes keep the kernel-section pairs (theta at every node) cheap.
        lat = tf.build_lattice(tf.validate_space(np.eye(2)), [[1.0, 0.0], [0.4, 1.1]])
        assert abs(lat.B[0, 1]) > 0.1
        cfg = tf.make_config(lat, [0.3, 0.1], 2 * math.pi)
        offset = [0.37, -0.21]
        nodes = (6, 12)
    return cfg, tf.build_grid(cfg, compact_nodes=nodes[0], unbounded_nodes=nodes[1],
                              box_offset=offset)


def _one_block(fn):
    # drops the factored attribute, so the whole tensor grid is one block
    return lambda z, zp: fn(z, zp)


@pytest.mark.parametrize("refine", [True, False])
def test_factored_matches_one_block(small_case, refine):
    cfg, grid = small_case
    idxs = [
        tf.BasisIndex(n=n, k=k)
        for n in S._integer_box(cfg.r, 1)
        for k in S._multi_indices(cfg.g - cfg.r, 2)
    ]
    fam = S.basis_family(cfg, idxs)
    G, E = tf.gram_matrix(cfg, fam, grid, refine=refine)
    G1, E1 = tf.gram_matrix(cfg, _one_block(fam), grid, refine=refine)
    assert np.abs(G - G1).max() <= 1e-13 * np.abs(G1).max()
    assert np.abs(E - E1).max() <= 1e-13 * np.abs(G1).max()

    rng = np.random.default_rng(12)
    coeffs = verify.random_field(rng, cfg, max_terms=3, n_inf=1, k_total=1)
    v = verify.random_point(rng, cfg, scale=0.3)
    f = S.synthesized_function(cfg, coeffs)
    section = S.kernel_section(cfg, v, 1e-10)
    empty = S.synthesized_function(cfg, S.CoefficientField.from_dict({}))
    for a, b in ((f, f), (f, section), (section, f), (empty, section)):
        got = tf.inner_product(cfg, a, b, grid, refine=refine).value
        want = tf.inner_product(cfg, _one_block(a), _one_block(b), grid, refine=refine).value
        assert abs(got - want) <= 1e-13 * abs(want)


def test_oracle_never_reads_closed_forms(small_case, monkeypatch):
    cfg, _ = small_case

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle consulted a closed form")

    for name in ("basis_norm_sq", "basis_norm_sq_log", "growth_functional",
                 "kernel_eval", "kernel_diagonal"):
        monkeypatch.setattr(S, name, forbidden)
    grid = tf.build_grid(cfg, compact_nodes=8, unbounded_nodes=12)
    idxs = [tf.BasisIndex(n=(0,) * cfg.r, k=k) for k in S._multi_indices(cfg.g - cfg.r, 1)]
    G, _ = tf.gram_matrix(cfg, S.basis_family(cfg, idxs), grid)
    assert np.all(np.diag(G).real > 0)
    coeffs = S.CoefficientField.from_dict({idxs[-1]: 1.0 - 0.5j})
    v = tf.PointCoordinates(np.full(cfg.r, 0.1 + 0.2j), np.full(cfg.g - cfg.r, 0.2 - 0.1j))
    f = S.synthesized_function(cfg, coeffs)
    value = tf.inner_product(cfg, f, S.kernel_section(cfg, v, 1e-10), grid).value
    assert np.isfinite(value)


def test_wrapped_family_keeps_block_path(small_case):
    # functools.wraps copies the attributes but not the closure itself,
    # as tracing wrappers do; the block path must still be taken
    cfg, grid = small_case
    idxs = [tf.BasisIndex(n=(n,) * cfg.r, k=(1,) * (cfg.g - cfg.r)) for n in (-1, 0, 1)]
    fam = S.basis_family(cfg, idxs)

    @functools.wraps(fam)
    def wrapped(z, zp):
        return fam(z, zp)

    assert wrapped.factored is fam.factored
    G, E = tf.gram_matrix(cfg, fam, grid)
    Gw, Ew = tf.gram_matrix(cfg, wrapped, grid)
    assert np.array_equal(G, Gw) and np.array_equal(E, Ew)


def test_wrong_separable_declaration_is_caught(small_case):
    # a theta factor does not split over x and y; declaring it separable
    # must move the value, so the agreement test above would catch a
    # wrong declaration
    cfg, grid = small_case
    v = tf.PointCoordinates(np.full(cfg.r, 0.1 + 0.2j), np.full(cfg.g - cfg.r, 0.2 - 0.1j))
    section = S.kernel_section(cfg, v, 1e-10)
    assert not section.factored.separable

    def wrong(z, zp):
        return section(z, zp)

    wrong.factored = dataclasses.replace(section.factored, separable=True)
    f = S.basis_function(cfg, tf.BasisIndex(n=(1,) * cfg.r, k=(1,) * (cfg.g - cfg.r)))
    want = tf.inner_product(cfg, _one_block(f), _one_block(section), grid, refine=False).value
    got = tf.inner_product(cfg, f, wrong, grid, refine=False).value
    assert abs(got - want) > 1e-3 * abs(want)
