import dataclasses
import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

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


@pytest.mark.parametrize("a, A, b, error", [
    (math.nan, [[1.0]], [0.0], ValueError),
    (math.inf, [[1.0]], [0.0], ValueError),
    (1.0, [[math.nan]], [0.0], errors.ValidationError),
    (1.0, [[1.0]], [math.nan], errors.ValidationError),
], ids=["a-nan", "a-inf", "A-nan", "b-nan"])
def test_gaussian_integral_rejects_non_finite_input(a, A, b, error):
    # these returned nan+nanj or 0j, or raised numpy's LinAlgError
    with pytest.raises(error):
        tf.gaussian_integral(a, A, b)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_calibration_closed_forms_match_gaussian_integral(r):
    # the calibration reads its closed forms from det B and B^-1; they must
    # be gaussian_integral(2 nu, B, -4 pi a), here with a non-diagonal B
    gens = np.eye(3)[:r] + 0.3 * np.triu(np.ones((3, 3)), 1)[:r]
    cfg = tf.make_config(tf.build_lattice(tf.validate_space(np.eye(3)), gens),
                         0.2 * np.arange(r), 2.7)
    assert r < 2 or abs(cfg.lattice.B[0, 1]) > 0.1
    freqs = [0.3 + np.arange(r, dtype=float), 1.3 + np.arange(r, dtype=float)]
    want = [tf.gaussian_integral(2 * cfg.nu, cfg.lattice.B, -4 * math.pi * a).real for a in freqs]
    np.testing.assert_allclose(Q._lattice_integrals(cfg, freqs), want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_box_offset_that_is_not_finite_is_validation_error(cfg_g1r1, bad, monkeypatch):
    monkeypatch.setattr(Q, "_make_level", _never_called)
    with pytest.raises(errors.ValidationError, match="box_offset"):
        tf.build_grid(cfg_g1r1, box_offset=[bad])


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
def test_requested_tol_must_be_positive(cfg_g1r1, bad, monkeypatch):
    # a bad tolerance is a bad argument: NaN would turn the calibration gate
    # off, and 0 or -1 would blame the grid (GridTooCoarse)
    monkeypatch.setattr(Q, "_make_level", _never_called)
    with pytest.raises(ValueError, match="requested_tol must be positive"):
        tf.build_grid(cfg_g1r1, requested_tol=bad)


_DEFAULT_LEVELS = [(Q._DEFAULT_COMPACT_NODES, Q._DEFAULT_UNBOUNDED_NODES),
                   (2 * Q._DEFAULT_COMPACT_NODES, 2 * Q._DEFAULT_UNBOUNDED_NODES)]


def test_hermite_exactness_degree():
    # the Fock block's Hermite rules, on both default levels, integrate
    # t^(2j) against exp(-t^2) exactly
    for counts in _DEFAULT_LEVELS:
        *_, t, w = Q._rules(*counts)
        for j in range(0, 16):
            got = float(w @ t ** (2 * j))
            want = math.gamma(j + 0.5)
            assert abs(got - want) <= 1e-12 * want


def test_legendre_exactness_degree():
    # an n-node Legendre rule on [0, 1] integrates x^k exactly for k < 2n
    for counts in _DEFAULT_LEVELS:
        x, w, *_ = Q._rules(*counts)
        for k in range(2 * len(x)):
            want = 1.0 / (k + 1)
            assert abs(float(w @ x**k) - want) <= 1e-12 * want


@pytest.mark.parametrize("bad", [0, -1, 2.5, True])
@pytest.mark.parametrize("name", ["compact_nodes", "unbounded_nodes"])
def test_bad_node_count_is_validation_error(cfg_g1r1, name, bad):
    before = Q._rules.cache_info().currsize
    with pytest.raises(errors.ValidationError, match=name):
        tf.build_grid(cfg_g1r1, **{name: bad})
    assert Q._rules.cache_info().currsize == before


def test_cached_rules_are_read_only(cfg_g1r1):
    tf.build_grid(cfg_g1r1, compact_nodes=7, unbounded_nodes=9)
    rules = Q._rules(7, 9) + Q._rules(14, 18)
    saved = [arr.copy() for arr in rules]
    for arr in rules:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # building again reads both levels' rules from the cache, unchanged
    hits = Q._rules.cache_info().hits
    tf.build_grid(cfg_g1r1, compact_nodes=7, unbounded_nodes=9)
    assert Q._rules.cache_info().hits == hits + 2
    assert all(a is b for a, b in zip(Q._rules(7, 9) + Q._rules(14, 18), rules))
    for arr, copy in zip(rules, saved):
        np.testing.assert_array_equal(arr, copy)


@pytest.mark.parametrize("n, step", [(48, 0.5), (96, 0.5), (121, 0.5), (372, 60 / 371)],
                         ids=["48", "96", "121", "372"])
def test_trapezoid_rule_integrates_the_lattice_integrands(n, step):
    # on a lattice s-axis each pair's integrand, against the weight, is
    # exp(-s^2 / 2 + b s): the rule's sum is sqrt(2 pi) exp(b^2 / 2) to
    # rounding, and the half-width (n - 1) h / 2 stops at 30
    _, _, s, w, _, _ = Q._rules(1, n)
    assert len(s) == n and np.allclose(np.diff(s), step, rtol=1e-12, atol=0)
    assert s[-1] == pytest.approx(min(0.25 * (n - 1), 30.0), rel=1e-12) and s[0] == -s[-1]
    np.testing.assert_allclose(w, step * np.exp(-0.5 * s * s), rtol=1e-15, atol=0)
    for b in (0.0, 1.5, -3.0 + 0.7j, 2.0 - 2.0j, 2j):
        want = math.sqrt(2 * math.pi) * np.exp(b * b / 2)
        scale = math.sqrt(2 * math.pi) * math.exp(b.real**2 / 2)
        assert abs(w @ np.exp(b * s) - want) <= 1e-14 * scale


def test_grid_invariants(grid_g1r1):
    x, wx, _, ws, _, wt = Q._rules(*_DEFAULT_LEVELS[0])
    assert np.all(wx > 0)
    assert np.all(ws > 0)
    assert np.all(wt > 0)
    assert np.all((x > 0) & (x < 1))
    assert grid_g1r1.estimated_error <= 1e-10


def _never_called(*args, **kwargs):
    raise AssertionError("an integrand was called or a node set built")


def test_grid_node_budget(monkeypatch):
    # g = 4, r = 1 at the default nodes: a lattice factor index of 2.3e6
    # costs r (n_c + n_h) = 80 + 160 values per factor over both levels,
    # 5.5e8 in all, over the 2^29 budget; it is refused before any map is
    # called or any node set summed
    cfg4 = tf.make_config(
        tf.build_lattice(tf.validate_space(np.eye(4)), [[1.0, 0, 0, 0]]), [0.0], math.pi)
    grid4 = tf.build_grid(cfg4)
    big = Q.Factored(lattice=_never_called, fock=_never_called,
                     terms=np.array([[2_300_000, 0, 0, 0]]), coeffs=np.ones((1, 1), dtype=complex))
    assert Q._work([grid4.base, grid4.fine], big, big) > Q._WORK_BUDGET
    with monkeypatch.context() as mp:
        mp.setattr(Q, "_segment_sums", _never_called)
        with pytest.raises(errors.NodeBudgetExceeded):
            tf.inner_product(cfg4, big, big, grid4)
        with pytest.raises(errors.NodeBudgetExceeded):
            tf.gram_matrix(cfg4, big, grid4)
    assert issubclass(errors.NodeBudgetExceeded, errors.BudgetError)

    # factored g = 3 requests at the default nodes run; the work reported is
    # one value per distinct factor and node of each block, over both levels:
    # k = (1, 1) has one distinct Fock factor, w, shared by both coordinates
    cfg3 = tf.make_config(
        tf.build_lattice(tf.validate_space(np.eye(3)), [[1.0, 0, 0]]), [0.0], math.pi)
    grid3 = tf.build_grid(cfg3, requested_tol=1e-9)
    f = S.basis_function(cfg3, tf.BasisIndex(n=(0,), k=(1, 1)))
    res = tf.inner_product(cfg3, f, f, grid3)
    assert res.work == (32 + 48 + 48**2) + (64 + 96 + 96**2) == 11_760
    assert res.value.real == pytest.approx(tf.basis_norm_sq(cfg3, tf.BasisIndex(n=(0,), k=(1, 1))),
                                           rel=1e-8)


@pytest.mark.parametrize("nodes", [(99999999999, 48), (20000, 48), (32, 200_000_000)])
def test_grid_over_budget_builds_no_rule(monkeypatch, cfg_g1r1, nodes):
    # numpy's Legendre companion matrices alone would take 1e22 values or
    # 11.9 GiB, and the lattice s-axes 6e8 nodes: refused before any rule
    # is built
    monkeypatch.setattr(Q, "_rules", _never_called)
    with pytest.raises(errors.NodeBudgetExceeded, match="Gauss rules"):
        tf.build_grid(cfg_g1r1, compact_nodes=nodes[0], unbounded_nodes=nodes[1])


@pytest.mark.parametrize("nodes", [(32, 186), (1, 5000)])
def test_grid_within_budget_reaches_the_rules(monkeypatch, cfg_g1r1, nodes):
    # node counts the budget admits reach the rules, base level first:
    # nothing is refused for lying past the Hermite rule's range
    asked = []

    def rules(*counts):
        asked.append(counts)
        raise errors.ValidationError("stub")

    monkeypatch.setattr(Q, "_rules", rules)
    with pytest.raises(errors.ValidationError, match="stub"):
        tf.build_grid(cfg_g1r1, compact_nodes=nodes[0], unbounded_nodes=nodes[1])
    assert asked == [nodes]


@pytest.mark.parametrize("nodes", [(32, 186), (32, 5000)])
def test_hermite_rule_numpy_cannot_build_is_never_asked_for(monkeypatch, cfg_g1r1, nodes):
    # fine Hermite rules of 372 or 10,000 nodes, whose weights numpy returns
    # not finite (hermgauss(10000) alone takes about a minute), are never
    # asked of numpy: each level's Fock rule stops at the cap, base level
    # first, and the grid builds with finite weights
    asked = []

    def hermgauss(n):
        asked.append(n)
        return np.polynomial.hermite.hermgauss(n)

    monkeypatch.setattr(Q, "hermgauss", hermgauss)
    Q._rules.cache_clear()
    grid = tf.build_grid(cfg_g1r1, compact_nodes=nodes[0], unbounded_nodes=nodes[1])
    assert asked == [min(nodes[1], Q._MAX_HERMITE_NODES), Q._MAX_HERMITE_NODES]
    for level in (grid.base, grid.fine):
        assert np.isfinite(level.lattice.weights).all() and np.isfinite(level.fock.weights).all()


def test_grid_past_the_hermite_range_builds():
    # 186 unbounded nodes put 372 on the fine level, where numpy's Hermite
    # weights overflow: the fine lattice s-axes take 372 trapezoid nodes
    # and the Fock block 370 Hermite nodes per coordinate; the weights are
    # finite, the Fock weights sum to pi, and the calibration holds
    cfg = tf.make_config(tf.build_lattice(tf.validate_space(np.eye(2)), [[1.0, 0.0]]),
                         [0.3], math.pi)
    grid = tf.build_grid(cfg, requested_tol=1e-10, compact_nodes=8, unbounded_nodes=186)
    assert grid.base.shape == (8, 186, 186, 186)
    assert grid.fine.shape == (16, 372, 370, 370)
    assert grid.fine.lattice.lengths == (16, 372) and grid.fine.fock.lengths == (370**2,)
    for level in (grid.base, grid.fine):
        assert np.all(level.lattice.weights > 0) and np.all(level.fock.weights >= 0)
        assert level.fock.weights.sum() == pytest.approx(math.pi, rel=1e-13)
    f = S.basis_function(cfg, tf.BasisIndex(n=(1,), k=(3,)))
    assert tf.inner_product(cfg, f, f, grid).value.real == pytest.approx(
        tf.basis_norm_sq(cfg, tf.BasisIndex(n=(1,), k=(3,))), rel=1e-12)


def test_hermite_threshold_matches_numpy():
    # the Fock rule's cap stands for numpy's own rule: its weights sum to
    # sqrt(pi) up to _MAX_HERMITE_NODES nodes, are all 0 one past it and
    # not finite two past it; a Fock rule asked for more stays at the cap
    with np.errstate(all="ignore"):
        rules = [np.polynomial.hermite.hermgauss(Q._MAX_HERMITE_NODES + i) for i in range(3)]
    assert rules[0][1].sum() == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert not rules[1][1].any() and not np.isfinite(rules[2][1]).all()
    *_, t, w = Q._rules(1, Q._MAX_HERMITE_NODES + 2)
    assert np.array_equal(t, rules[0][0]) and np.array_equal(w, rules[0][1])


def test_grid_budget_counts_the_values_built(monkeypatch):
    # g = 3, r = 2: the budget check counts each level's companion matrices
    # n_c^2 + n_f^2 and its node sets r (n_c + n_h) + n_f^2, as built, with
    # n_f = min(n_h, 370) Hermite nodes: the fine Fock rule of 186 is capped
    cfg = tf.make_config(tf.build_lattice(tf.validate_space(np.eye(3)), np.eye(3)[:2]),
                         [0.0, 0.5], math.pi)
    for n in (7, 186):
        levels = ((5, n), (10, 2 * n))
        grid = tf.build_grid(cfg, compact_nodes=5, unbounded_nodes=n)
        for level, (n_c, n_h) in zip((grid.base, grid.fine), levels):
            n_f = min(n_h, Q._MAX_HERMITE_NODES)
            assert len(level.lattice.weights) == sum(level.lattice.lengths) == 2 * (n_c + n_h)
            assert len(level.fock.weights) == sum(level.fock.lengths) == n_f**2
        need = sum(n_c**2 + 2 * min(n_h, Q._MAX_HERMITE_NODES) ** 2 + 2 * (n_c + n_h)
                   for n_c, n_h in levels)
        with monkeypatch.context() as mp:
            mp.setattr(Q, "_WORK_BUDGET", need)
            tf.build_grid(cfg, compact_nodes=5, unbounded_nodes=n)
            mp.setattr(Q, "_WORK_BUDGET", need - 1)
            with pytest.raises(errors.NodeBudgetExceeded, match="Gauss rules"):
                tf.build_grid(cfg, compact_nodes=5, unbounded_nodes=n)


def test_plain_callable_is_refused(cfg_g1r1, grid_g1r1):
    # only integrands with a block form are summed; a bare callable is
    # refused, as f, as h or as a Gram family, before it is called
    fam = S.basis_family(cfg_g1r1, [tf.BasisIndex(n=(n,), k=()) for n in (-1, 0, 1)])
    calls = (lambda: tf.inner_product(cfg_g1r1, _never_called, fam, grid_g1r1),
             lambda: tf.inner_product(cfg_g1r1, fam, _never_called, grid_g1r1),
             lambda: tf.gram_matrix(cfg_g1r1, _never_called, grid_g1r1))
    for call in calls:
        with pytest.raises(errors.ValidationError, match="Factored"):
            call()
    G, E = tf.gram_matrix(cfg_g1r1, fam.factored, grid_g1r1)
    Gf, Ef = tf.gram_matrix(cfg_g1r1, fam, grid_g1r1)
    assert np.array_equal(G, Gf) and np.array_equal(E, Ef)


def test_inner_product_takes_one_function_on_each_side(monkeypatch):
    # a two-member family as f or h was read as its first member, <e_0, e_0>
    # = 1.0472 on this lattice, and the second member was dropped
    cfg = tf.make_config(tf.build_lattice(tf.validate_space(np.eye(1)), [[1.0]]), [0.25], math.pi)
    grid = tf.build_grid(cfg)
    fam = S.basis_family(cfg, [tf.BasisIndex(n=(n,), k=()) for n in (0, 1)])
    one = S.basis_function(cfg, tf.BasisIndex(n=(0,), k=()))
    with monkeypatch.context() as mp:
        mp.setattr(Q, "_segment_sums", _never_called)
        for f, h, counts in ((fam, fam, "2 and 2"), (fam, one, "2 and 1"), (one, fam, "1 and 2")):
            with pytest.raises(errors.ValidationError, match=counts + " members.*gram_matrix"):
                tf.inner_product(cfg, f, h, grid)
    assert tf.inner_product(cfg, one, one, grid).value == pytest.approx(
        tf.gram_matrix(cfg, fam, grid)[0][0, 0], rel=1e-12)


def test_calibration_reads_an_overflowed_closed_form_as_infinite():
    # g3r3 with B = I at nu = 0.2: the closed form is 2.4e304 for the
    # frequency a and overflows for a + 1, so one defect is inf / inf
    cfg = tf.make_config(tf.build_lattice(tf.validate_space(np.eye(3)), np.eye(3)),
                         np.zeros(3), 0.2)
    assert np.array_equal(cfg.lattice.B, np.eye(3))
    assert tf.build_grid(cfg, compact_nodes=8, unbounded_nodes=10).estimated_error == math.inf
    with pytest.raises(errors.GridTooCoarse):
        tf.build_grid(cfg, requested_tol=1e-6, compact_nodes=8, unbounded_nodes=10)


def test_grid_too_coarse():
    sp = tf.validate_space(np.eye(1))
    lat = tf.build_lattice(sp, [[1.0]])
    cfg = tf.make_config(lat, [0.0], math.pi)
    with pytest.raises(errors.GridTooCoarse):
        tf.build_grid(cfg, requested_tol=1e-12, compact_nodes=3, unbounded_nodes=4)


@pytest.fixture(scope="module")
def overflow_case():
    # a random g2r1 configuration whose high basis functions overflow the
    # level sums at (32, 48): their products were NaN
    cfg = verify.random_config(np.random.default_rng([7, 2, 1]), 2, 1)
    return cfg, tf.build_grid(cfg, compact_nodes=32, unbounded_nodes=48)


@pytest.mark.parametrize("action", ["error", "ignore"])
@pytest.mark.parametrize("nk, refine", [(13, True), (14, False)])
def test_overflowed_inner_product_is_out_of_range(overflow_case, nk, refine, action):
    # (13, 13) refined returned nan+nanj with error estimate nan, (14, 14)
    # unrefined nan+nanj; with warnings as errors numpy's overflow warning
    # escaped instead
    cfg, grid = overflow_case
    e = S.basis_function(cfg, tf.BasisIndex(n=(nk,), k=(nk,)))
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(errors.ValueOutOfRange):
            tf.inner_product(cfg, e, e, grid, refine=refine)


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_overflowed_gram_is_out_of_range(overflow_case, action):
    # n in [-20, 20], k in [0, 20] (N = 861): all 741,321 entries were NaN
    cfg, grid = overflow_case
    n, k = np.arange(-20, 21)[:, None], np.arange(21)[:, None]
    fam = S.basis_family(cfg, (np.repeat(n, len(k), axis=0), np.tile(k, (len(n), 1))))
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(errors.ValueOutOfRange):
            tf.gram_matrix(cfg, fam, grid, refine=False)


def test_finite_disagreement_is_still_too_coarse(overflow_case):
    # at (7, 7) both levels are finite and disagree: the refinement gate
    cfg, grid = overflow_case
    e = S.basis_function(cfg, tf.BasisIndex(n=(7,), k=(7,)))
    with pytest.raises(errors.GridTooCoarse):
        tf.inner_product(cfg, e, e, grid)


def test_term_matrix_byte_cap(cfg_g1r1, grid_g1r1, monkeypatch):
    # the term matrices of 2 levels x 3 x 3 terms take 288 bytes: refused
    # one byte under that, before any map is called
    fam = S.basis_family(cfg_g1r1, [tf.BasisIndex(n=(n,), k=()) for n in (-1, 0, 1)])
    monkeypatch.setattr(Q, "_TERM_BYTES", 2 * 3 * 3 * 16)
    tf.gram_matrix(cfg_g1r1, fam, grid_g1r1)
    monkeypatch.setattr(Q, "_TERM_BYTES", 2 * 3 * 3 * 16 - 1)
    monkeypatch.setattr(Q, "_segment_sums", _never_called)
    with pytest.raises(errors.NodeBudgetExceeded, match="bytes"):
        tf.gram_matrix(cfg_g1r1, fam, grid_g1r1)


def test_reduction_holds_the_term_matrices_and_three_more(monkeypatch):
    # a section-by-section inner product at r = 3 (about 320,000 term pairs)
    # holds the term matrices of its 2 levels, one block Gram, one segment
    # sum and its partial: under (2 + 3) N_f N_h complex values plus one
    # chunk, kept small here so that the term-sized arrays dominate.  A
    # reducer that holds all 2r segment sums of a level peaks at 17 here
    cfg = tf.make_config(tf.build_lattice(tf.validate_space(np.eye(3)), np.eye(3)),
                         [0.1, 0.2, 0.3], 2 * math.pi)
    u = tf.PointCoordinates(np.array([0.1 + 0.2j, -0.2 + 0.1j, 0.3 - 0.1j]), np.zeros(0))
    v = tf.PointCoordinates(np.array([-0.3 + 0.1j, 0.1 - 0.2j, 0.2 + 0.3j]), np.zeros(0))
    f, h = S.kernel_section(cfg, u, 1e-12), S.kernel_section(cfg, v, 1e-12)
    n_f, n_h = len(f.factored.terms), len(h.factored.terms)
    assert n_f * n_h > 300_000
    grid = tf.build_grid(cfg)
    monkeypatch.setattr(Q, "_CHUNK_BYTES", 1 << 16)
    tracemalloc.start()
    try:
        value = tf.inner_product(cfg, f, h, grid).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 + 3) * n_f * n_h * 16 + Q._CHUNK_BYTES
    want = S.kernel_eval(cfg, v, u, 1e-12)
    assert abs(value - want) <= 1e-10 * abs(want)


def test_two_perpendicular_coordinates_with_a_lattice():
    # g3r1: the one Fock table serves both perpendicular coordinates; the
    # Gram of n in {-1, 0, 1} x |k| <= 2 against the closed-form norms, and
    # the kernel's reproducing property at a v whose perpendicular
    # coordinates differ, which a table mixing the coordinates fails
    H = np.array([[1, 0.1j, 0], [-0.1j, 1.2, 0.05], [0, 0.05, 0.9]])
    cfg = tf.make_config(tf.build_lattice(tf.validate_space(H), [[1, 0.2 + 0.1j, 0.1]]),
                         [0.3], math.pi)
    grid = tf.build_grid(cfg, requested_tol=1e-9)
    idxs = [tf.BasisIndex(n=(n,), k=k) for n in (-1, 0, 1) for k in S._multi_indices(2, 2)]
    G, _ = tf.gram_matrix(cfg, S.basis_family(cfg, idxs), grid)
    norms = np.array([tf.basis_norm_sq(cfg, idx) for idx in idxs])
    assert (np.abs(np.diag(G).real - norms) / norms).max() <= 1e-10
    off = np.abs(G - np.diag(np.diag(G))) / np.sqrt(np.outer(norms, norms))
    assert off.max() <= 1e-10

    v = tf.PointCoordinates(np.array([0.15 + 0.1j]), np.array([0.3 - 0.1j, -0.2 + 0.25j]))
    section = S.kernel_section(cfg, v, 1e-12)
    for idx in (tf.BasisIndex(n=(1,), k=(1, 2)), tf.BasisIndex(n=(0,), k=(2, 0))):
        want = S.basis_eval(cfg, idx, v)
        got = tf.inner_product(cfg, S.basis_function(cfg, idx), section, grid).value
        assert abs(got - want) <= 1e-8 * abs(want)


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


def test_grid_of_another_configuration_raises(cfg_g1r1):
    # a grid's nodes and weights absorb its own configuration's weight: summed
    # against the nu = 2 pi configuration, the nu = pi grid gives 401.69
    # for ||e_(1)||^2, whose closed form is 67.73
    at_pi, at_2pi = (tf.make_config(cfg_g1r1.lattice, [0.25], nu) for nu in (math.pi, 2 * math.pi))
    grid = tf.build_grid(at_pi)
    family = S.basis_family(at_2pi, [tf.BasisIndex(n=(1,), k=())])
    for config in (at_2pi, dataclasses.replace(at_pi)):
        with pytest.raises(errors.ValidationError, match="another configuration"):
            tf.inner_product(config, family, family, grid, refine=False)
        with pytest.raises(errors.ValidationError, match="another configuration"):
            tf.gram_matrix(config, family, grid)
    assert tf.gram_matrix(at_2pi, family, tf.build_grid(at_2pi))[0][0, 0].real == pytest.approx(
        S.basis_norm_sq(at_2pi, tf.BasisIndex(n=(1,), k=())), rel=1e-8)


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
    # each case's unbounded count is the least that lets its refined pairs
    # below pass the refinement gate: at a step of 0.5 the base level's
    # lattice s-axes span only |s| <= (n_h - 1) / 4
    if request.param == "g1r1":
        lat = tf.build_lattice(tf.validate_space(np.eye(1)), [[1.2]])
        cfg = tf.make_config(lat, [0.2], math.pi)
        offset, nodes = None, (10, 20)
    elif request.param == "g2r0":
        lat = tf.build_lattice(tf.validate_space(np.eye(2)), [])
        cfg = tf.make_config(lat, [], 2.5)
        offset, nodes = None, (10, 14)
    elif request.param == "g2r1":
        H = np.array([[1.0, 0.2j], [-0.2j, 1.3]])
        lat = tf.build_lattice(tf.validate_space(H), [[1.0, 0.4 + 0.1j]])
        cfg = tf.make_config(lat, [0.3], math.pi)
        offset, nodes = [0.37], (6, 22)
    else:
        # real, non-diagonal B and an offset box: the x/y split of the
        # lattice block must not lean on a diagonal form.  Fewer compact
        # nodes keep the kernel-section pairs (theta at every node) cheap.
        lat = tf.build_lattice(tf.validate_space(np.eye(2)), [[1.0, 0.0], [0.4, 1.1]])
        assert abs(lat.B[0, 1]) > 0.1
        cfg = tf.make_config(lat, [0.3, 0.1], 2 * math.pi)
        offset, nodes = [0.37, -0.21], (6, 18)
    return cfg, tf.build_grid(cfg, compact_nodes=nodes[0], unbounded_nodes=nodes[1],
                              box_offset=offset), nodes


_CHUNK = 1 << 14  # tensor nodes per chunk of the reference sum


def _tensor_chunks(cfg, counts, offset, T):
    # ((Z, Zp), w) over the level's whole tensor grid, _CHUNK nodes at a
    # time: r Legendre axes at x + offset, weighted by exp(-nu x^T B x); r
    # trapezoid axes s, with y = T s for the eigen-coordinates s of 2 nu B;
    # two Hermite axes t / sqrt(nu) per perpendicular coordinate; counts
    # are the level's (n_c, n_h).  Points are column-major, as the
    # evaluators read them.
    r, nu = cfg.r, cfg.nu
    x, wx, s, ws, t, wt = Q._rules(*counts)
    rules = [(x, wx)] * r + [(s, ws)] * r + [(t / math.sqrt(nu), wt)] * (2 * (cfg.g - r))
    sizes = [len(nodes) for nodes, _ in rules]
    total = math.prod(sizes)
    for start in range(0, total, _CHUNK):
        n = min(_CHUNK, total - start)
        P = np.empty((n, len(rules)), order="F")
        w = np.ones(n)
        for a, i in enumerate(np.unravel_index(np.arange(start, start + n), sizes)):
            P[:, a] = rules[a][0][i]
            w *= rules[a][1][i]
        Z = np.zeros((n, r), dtype=complex, order="F")
        xs = P[:, :r] + offset
        Z.real = xs
        w *= np.exp(-nu * np.einsum("ij,jk,ik->i", xs, cfg.lattice.B, xs))
        Z.imag = P[:, r:2 * r] @ T.T
        q = P[:, 2 * r:]
        yield (Z, q[:, 0::2] + 1j * q[:, 1::2]), w


def _tensor_gram(cfg, f, h, grid, nodes, refine):
    # the reference for the block-by-block oracle: (G, E) as gram_matrix
    # returns them, from f conj(h) called directly on each level's whole
    # tensor grid (the same nodes and weights, summed as one block), times
    # the lattice Jacobian and nu^-(g - r); h None is f; the grid was built
    # at nodes
    evals, evecs = np.linalg.eigh(2.0 * cfg.nu * cfg.lattice.B)
    scale = float(np.prod(1.0 / np.sqrt(evals))) / cfg.nu ** (cfg.g - cfg.r)
    T = evecs / np.sqrt(evals)
    levels = [(grid.base, nodes), (grid.fine, (2 * nodes[0], 2 * nodes[1]))]
    sums = [scale * next(Q._segment_sums(_tensor_chunks(cfg, counts, grid.box_offset, T),
                                         [math.prod(level.shape)],
                                         lambda p: np.atleast_2d(f(*p)),
                                         lambda p: np.atleast_2d(h(*p)), h is None))
            for level, counts in (levels if refine else levels[:1])]
    if not refine:
        return sums[0], np.zeros(sums[0].shape)
    return sums[1], np.abs(sums[1] - sums[0])


@pytest.mark.parametrize("refine", [True, False])
def test_factored_matches_one_block(small_case, refine, monkeypatch):
    # the oracle's block-by-block sums against the tests-side tensor sum
    cfg, grid, nodes = small_case
    idxs = [
        tf.BasisIndex(n=n, k=k)
        for n in S._integer_box(cfg.r, 1)
        for k in S._multi_indices(cfg.g - cfg.r, 2)
    ]
    fam = S.basis_family(cfg, idxs)
    G, E = tf.gram_matrix(cfg, fam, grid, refine=refine)
    G1, E1 = _tensor_gram(cfg, fam, None, grid, nodes, refine)
    assert np.abs(G - G1).max() <= 1e-13 * np.abs(G1).max()
    assert np.abs(E - E1).max() <= 1e-13 * np.abs(G1).max()

    rng = np.random.default_rng(12)
    coeffs = verify.random_field(rng, cfg, max_terms=3, n_inf=1, k_total=1)
    v = verify.random_point(rng, cfg, scale=0.3)
    f = S.synthesized_function(cfg, coeffs)
    section = S.kernel_section(cfg, v, 1e-10)
    empty = S.synthesized_function(cfg, S.CoefficientField.from_dict({}))
    # one reference sum of the three as a family evaluates each once per node
    funcs = (f, section, empty)
    want = _tensor_gram(cfg, lambda z, zp: np.vstack([a(z, zp) for a in funcs]), None, grid,
                        nodes, refine)[0]
    for i, j in ((0, 0), (0, 1), (1, 0), (2, 1)):
        got = tf.inner_product(cfg, funcs[i], funcs[j], grid, refine=refine).value
        assert abs(got - want[i, j]) <= 1e-13 * abs(want[i, j])
    want_section = want[0, 1]

    # with no cap, each map is called once per reduction, on the nodes of
    # every level summed: r (n_c + n_h) lattice rows and n_h^2 Fock rows per
    # level, one Fock call whatever g - r is (none at g = r)
    levels = [nodes, (2 * nodes[0], 2 * nodes[1])][:2 if refine else 1]
    n_lattice = cfg.r * sum(n_c + n_h for n_c, n_h in levels)
    n_perp = sum(n_h**2 for _, n_h in levels)
    calls = {}
    got = tf.inner_product(cfg, f, _recording(section, calls), grid, refine=refine).value
    assert abs(got - want_section) <= 1e-13 * abs(want_section)
    assert calls == ({"lattice": [n_lattice]} if cfg.r else {}) | (
        {"fock": [n_perp]} if cfg.g > cfg.r else {})

    # a byte cap of seven values of the smallest nonzero factor count cuts
    # every call to at most seven rows, and a chunk of lattice rows
    # straddles an axis or level boundary; the sums must not move
    def seven_rows(a, b):
        counts = map(max, Q._factor_counts(a.factored), Q._factor_counts(b.factored))
        return 16 * 7 * min(c for c in counts if c)

    fam_calls, section_calls = {}, {}
    with monkeypatch.context() as mp:
        mp.setattr(Q, "_CHUNK_BYTES", seven_rows(fam, fam))
        Gc, Ec = tf.gram_matrix(cfg, _recording(fam, fam_calls), grid, refine=refine)
        mp.setattr(Q, "_CHUNK_BYTES", seven_rows(f, section))
        got = tf.inner_product(cfg, f, _recording(section, section_calls), grid,
                               refine=refine).value
    assert np.abs(Gc - G1).max() <= 1e-13 * np.abs(G1).max()
    assert np.abs(Ec - E1).max() <= 1e-13 * np.abs(G1).max()
    assert abs(got - want_section) <= 1e-13 * abs(want_section)
    for rows in (*fam_calls.values(), *section_calls.values()):
        assert max(rows) <= 7 and len(rows) > 1
    if cfg.r:
        bounds = set(itertools.accumulate(n for counts in levels for _ in range(cfg.r)
                                          for n in counts))
        starts = list(itertools.accumulate(fam_calls["lattice"], initial=0))
        assert starts[-1] == n_lattice
        assert any(lo < b < hi for lo, hi in zip(starts, starts[1:]) for b in bounds)


def _recording(fn, calls):
    # fn with its two factor maps wrapped to record the rows of each call, by block
    def record(m, block):
        def wrapped(z):
            calls.setdefault(block, []).append(len(z))
            return m(z)
        return wrapped

    def recorded(z, zp):
        return fn(z, zp)

    form = fn.factored
    recorded.factored = dataclasses.replace(
        form, lattice=record(form.lattice, "lattice"), fock=record(form.fock, "fock"))
    return recorded


def _counted(fn, values):
    # fn with its factor maps wrapped to add the factor values they return
    def count(m):
        def wrapped(w):
            out = m(w)
            values.append(out.size)
            return out
        return wrapped

    def counted(z, zp):
        return fn(z, zp)

    form = fn.factored
    counted.factored = dataclasses.replace(
        form, lattice=count(form.lattice), fock=count(form.fock))
    return counted


@pytest.mark.parametrize("refine", [True, False])
def test_work_counts_the_factor_values_computed(small_case, refine):
    # at r = 0, 1 and 2: r (n_c + n_h) lattice-axis values and n_h^2 Fock
    # values, per distinct factor of the block and level; one
    # function on each side: f is e_(first index) with every other factor of
    # the index box at coefficient 0, so it computes all of their values
    cfg, grid, _ = small_case
    idxs = [tf.BasisIndex(n=n, k=k) for n in S._integer_box(cfg.r, 1)
            for k in S._multi_indices(cfg.g - cfg.r, 2)]
    fam = S.synthesized_function(
        cfg, S.CoefficientField.from_dict({idx: float(i == 0) for i, idx in enumerate(idxs)}))
    v = tf.PointCoordinates(np.full(cfg.r, 0.1 + 0.2j), np.full(cfg.g - cfg.r, 0.2 - 0.1j))
    section = S.kernel_section(cfg, v, 1e-10)
    values = []
    f, h = _counted(fam, values), _counted(section, values)
    for a, b in ((f, h), (f, f), (h, h)):
        values.clear()
        res = tf.inner_product(cfg, a, b, grid, refine=refine)
        assert values and res.work == sum(values)


def test_oracle_never_reads_closed_forms(small_case, monkeypatch):
    cfg, _, _ = small_case

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
    cfg, grid, _ = small_case
    idxs = [tf.BasisIndex(n=(n,) * cfg.r, k=(1,) * (cfg.g - cfg.r)) for n in (-1, 0, 1)]
    fam = S.basis_family(cfg, idxs)

    @functools.wraps(fam)
    def wrapped(z, zp):
        return fam(z, zp)

    assert wrapped.factored is fam.factored
    G, E = tf.gram_matrix(cfg, fam, grid)
    Gw, Ew = tf.gram_matrix(cfg, wrapped, grid)
    assert np.array_equal(G, Gw) and np.array_equal(E, Ew)


def test_kernel_expansion_mutation_is_caught(small_case, monkeypatch):
    # dropping the conjugate of z_v in the expansion coefficients
    # c_t = C exp(l_v + 2 pi i (1/2 t F t - t.conj z_v)) must move the
    # value, so the agreement test above would catch such a slip
    cfg, grid, nodes = small_case
    v = tf.PointCoordinates(np.full(cfg.r, 0.1 + 0.2j), np.full(cfg.g - cfg.r, 0.2 - 0.1j))
    f = S.basis_function(cfg, tf.BasisIndex(n=(1,) * cfg.r, k=(1,) * (cfg.g - cfg.r)))
    section = S.kernel_section(cfg, v, 1e-10)
    want = _tensor_gram(cfg, f, section, grid, nodes, refine=False)[0][0, 0]
    log_terms = S._theta.log_terms
    with monkeypatch.context() as mp:
        # the coefficients take the exponents at -conj z_v; conjugating gives -z_v
        mp.setattr(S._theta, "log_terms", lambda p, Z, idx: log_terms(p, np.conj(Z), idx))
        wrong = S.kernel_section(cfg, v, 1e-10)
    got = tf.inner_product(cfg, f, wrong, grid, refine=False).value
    if cfg.r:
        assert abs(got - want) > 1e-3 * abs(want)
    else:
        # r = 0: one term with no z_v in it, so there is nothing to mutate
        assert abs(got - want) <= 1e-13 * abs(want)


def test_far_real_section_out_of_range(cfg_g1r1, grid_g1r1):
    # v is reduced to 0.3 + 0.1i with automorphy log ~ 1005: the section's
    # values and the coefficients of its expansion leave the double range
    v = tf.PointCoordinates(np.array([25.3 + 0.1j]), np.zeros(0))
    f = S.basis_function(cfg_g1r1, tf.BasisIndex(n=(0,), k=()))
    with pytest.raises(errors.ValueOutOfRange):
        tf.inner_product(cfg_g1r1, f, S.kernel_section(cfg_g1r1, v, 1e-10), grid_g1r1)
