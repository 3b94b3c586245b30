import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import thetafock as tf
from thetafock import errors, verify
from thetafock.cli import main
from thetafock.problem import build_config, load_problem

G3R2_FILE = Path(__file__).resolve().parent.parent / "problems" / "g3_r2.json"


@pytest.fixture(scope="module")
def cfg():
    space = tf.validate_space(np.eye(1))
    lattice = tf.build_lattice(space, [[1.0]])
    return tf.make_config(lattice, [0.25], math.pi)


def test_run_all_suites_pass(cfg):
    # default node counts; the g=1 grid is small
    outcomes = verify.run_suite(cfg, "all", seed=7)
    names = [o.name for o in outcomes]
    assert "norms-match-closed-form" in names
    assert "reproducing-property" in names
    assert "tail-soundness" in names
    failed = [o for o in outcomes if not o.passed]
    assert not failed, failed


@pytest.mark.parametrize("nu", [math.pi, 2 * math.pi])
def test_reproducing_suite_g2r2(nu):
    # r = g = 2 with a real, non-diagonal B, at the default nodes (32, 48)
    space = tf.validate_space(np.eye(2))
    lattice = tf.build_lattice(space, [[1.0, 0.0], [0.4, 1.1]])
    cfg = tf.make_config(lattice, [0.3, 0.1], nu)
    outcomes = verify.run_suite(cfg, "reproducing")
    assert [o.name for o in outcomes] == [
        "reproducing-property", "kernel-series-agreement", "kernel-hermitian-symmetry"
    ]
    failed = [o for o in outcomes if not o.passed]
    assert not failed, failed


def test_run_suite_unknown_name(cfg):
    with pytest.raises(ValueError):
        verify.run_suite(cfg, "nonsense")


def test_random_isotropic_generators_are_isotropic():
    rng = np.random.default_rng(50)
    for g, r in ((2, 1), (3, 2), (3, 3)):
        space = verify.random_hermitian_space(rng, g)
        gens = verify.random_isotropic_generators(rng, space, r)
        lattice = tf.build_lattice(space, gens)  # raises if not isotropic
        assert lattice.r == r


def test_random_config_conditioning():
    rng = np.random.default_rng(51)
    for _ in range(20):
        cfg = verify.random_config(rng, 2, 2)
        assert np.linalg.eigvalsh(cfg.lattice.B).min() >= 0.35


def test_random_config_builds_isotropic_lattices():
    # every draw for g <= 6, r <= g and seeds 0-99 is built, never resampled
    # (build_lattice raises on generators that are not isotropic): E = Im H
    # vanishes on the generators and B has the sampler's spectrum [0.5, 1.5]
    for g in range(1, 7):
        for r in range(g + 1):
            for s in range(100):
                lat = verify.random_config(np.random.default_rng([s, g, r]), g, r).lattice
                assert lat.r == r
                gram = lat.space.hermitian(lat.generators[:, None, :], lat.generators[None, :, :])
                assert np.abs(gram.imag).max(initial=0.0) <= lat.space.tol
                eigs = np.linalg.eigvalsh(lat.B)
                assert np.all((eigs >= 0.5 - 1e-12) & (eigs <= 1.5 + 1e-12))


def test_random_field_respects_caps():
    rng = np.random.default_rng(52)
    space = tf.validate_space(np.eye(1))
    cfg0 = tf.make_config(tf.build_lattice(space, []), [], math.pi)
    for _ in range(10):
        field = verify.random_field(rng, cfg0, max_terms=4, n_inf=2, k_total=2)
        assert 1 <= len(field) <= 3  # only 3 distinct indices exist
        assert all(sum(idx.k) <= 2 for idx in field.indices())


def test_geometry_suite_flags_seeded_determinism(cfg):
    a = verify.run_suite(cfg, "geometry", seed=3)
    b = verify.run_suite(cfg, "geometry", seed=3)
    assert [(o.name, o.defect) for o in a] == [(o.name, o.defect) for o in b]


_GEOMETRY = ["span-conjugation-symmetry", "lattice-bilinear-pairing", "bilinear-square-expansion",
             "form-coordinate-decomposition", "coordinate-round-trip", "cocycle-character"]
_LATTICE = ["generator-isotropy", "gram-positive-definite", "gram-inverse"]
_THETA = ["determinism", "quasi-periodicity", "characteristic-shift", "tail-soundness",
          "plan-soundness"]
_GRID_AND_BOUNDS = {
    "orthogonality": ["norms-match-closed-form", "off-diagonal-orthogonality", "parseval",
                      "translation-invariance"],
    "reproducing": ["reproducing-property", "kernel-series-agreement",
                    "kernel-hermitian-symmetry"],
    "bounds": ["evaluation-bound", "diagonal-consistency", "kernel-positive-semidefinite",
               "diagonal-series-identity", "diagonal-perp-monotonicity"],
}


@pytest.mark.parametrize("problem, geometry, theta", [
    ("g2_r0", _GEOMETRY, ["empty-rank-value"]),
    ("g2_r1", _LATTICE + _GEOMETRY, _THETA),
    ("g2_r2", _LATTICE + _GEOMETRY + ["cocycle-rejects-non-character"], _THETA),
], ids=["g2_r0", "g2_r1", "g2_r2"])
def test_outcome_names_by_rank(problem, geometry, theta):
    # the rank decides which outcomes a suite lists: none of the lattice's
    # at r = 0, the non-character gate from r = 2 on
    cfg = build_config(load_problem(G3R2_FILE.with_name(f"{problem}.json")))
    expected = {"geometry": geometry, "theta": theta, **_GRID_AND_BOUNDS}
    for suite, names in expected.items():
        assert [o.name for o in verify.run_suite(cfg, suite)] == names, suite


def test_run_suite_builds_each_grid_suite_at_its_counts(monkeypatch):
    # orthogonality sizes both its grids for its box |n_j| <= 2, |k| <= 2
    # (59 unbounded nodes on g2_r2), reproducing takes build_grid's defaults
    cfg = build_config(load_problem(G3R2_FILE.with_name("g2_r2.json")))
    asked = []
    build_grid = verify.Q.build_grid

    def recording(config, **kwargs):
        grid = build_grid(config, **kwargs)
        asked.append(grid.base.shape)
        return grid

    monkeypatch.setattr(verify.Q, "build_grid", recording)
    for suite in ("orthogonality", "reproducing"):
        _assert_all_pass(verify.run_suite(cfg, suite))
    assert asked == [(32, 32, 59, 59)] * 2 + [(32, 32, 48, 48)]


def test_random_point_draws_real_parts_then_imaginary_parts():
    # the orthogonality, reproducing and bounds suites sample through it
    g2r1 = build_config(load_problem(G3R2_FILE.with_name("g2_r1.json")))
    u = verify.random_point(np.random.default_rng(4), g2r1, scale=0.3)
    x = np.random.default_rng(4).standard_normal(4)
    assert np.array_equal(u.z, 0.3 * (x[:1] + 1j * x[1:2]))
    assert np.array_equal(u.z_perp, 0.3 * (x[2:3] + 1j * x[3:]))


def test_plan_soundness_catches_a_dropped_term(monkeypatch):
    # a plan that lacks its largest term leaves that term, far above the
    # cap tail/|set|, outside the set: the check must count it
    cfg = build_config(load_problem(G3R2_FILE.with_name("g2_r2.json")))
    plan_of = verify.T.truncation_plan

    def drop_largest(params, z, tol, max_radius=None):
        plan = plan_of(params, z, tol, max_radius)
        dist = np.square((plan.index_set - plan.center) @ params.chol.T).sum(axis=1)
        return dataclasses.replace(plan, index_set=np.delete(plan.index_set, dist.argmin(), 0))

    def plan_soundness():
        return [o for o in verify.run_suite(cfg, "theta") if o.name == "plan-soundness"][0]

    assert plan_soundness().passed
    monkeypatch.setattr(verify.T, "truncation_plan", drop_largest)
    outcome = plan_soundness()
    assert not outcome.passed and outcome.defect >= 1
    assert outcome.detail == f"{int(outcome.defect)} escapees"


def test_plan_soundness_magnitudes_are_the_summed_terms():
    # plan-soundness ranks terms by theta's own term formula, and that
    # formula's real part is log_prefactor - pi |U(n - c)|^2, with the plan's
    # c and log prefactor, which verify._centers gives the kernel series too
    cfg = build_config(load_problem(G3R2_FILE.with_name("g2_r2.json")))
    params = cfg.theta_params
    z = np.array([0.3 - 0.8j, -0.5 + 1.1j])
    plan = verify.T.truncation_plan(params, z, 1e-6)
    (c,), (log_pref,) = verify._centers(params, z[None, :])
    np.testing.assert_allclose(c, plan.center, rtol=1e-12)
    assert log_pref == pytest.approx(plan.log_prefactor, rel=1e-12)
    box = verify.S._integer_box(2, 12)
    log_mags = log_pref - math.pi * np.square((box - c) @ params.chol.T).sum(1)
    exponents = verify.T.log_terms(params, z[None, :], box)[0]
    np.testing.assert_allclose(log_mags, exponents.real, rtol=1e-12, atol=1e-9)


def test_plan_soundness_box_holds_every_term_above_the_cap(monkeypatch):
    # the closed-form bounding box of the ellipsoid where a term exceeds
    # tail/|set| holds every such term of the |n_j| <= 12 box it replaced
    asked = []
    log_terms = verify.T.log_terms
    monkeypatch.setattr(verify.T, "log_terms", lambda *a: asked.append(a) or log_terms(*a))
    for name in ("g1_r1", "g2_r1", "g2_r2", "g3_r2"):
        cfg = build_config(load_problem(G3R2_FILE.with_name(f"{name}.json")))
        for seed in range(10):
            asked.clear()
            assert [o for o in verify.run_suite(cfg, "theta", seed=seed)
                    if o.name == "plan-soundness"][0].passed
            (params, Z, box), = asked
            plan = verify.T.truncation_plan(params, Z[0], 1e-6)
            cap = plan.tail_bound / len(plan.index_set)
            wide = verify.S._integer_box(params.r, 12)
            above = wide[np.exp(log_terms(params, Z, wide)[0].real) > cap]
            assert {tuple(n) for n in above.tolist()} <= {tuple(n) for n in box.tolist()}
            assert len(box) < len(wide)


def test_norms_battery_closed_norms_past_the_square_root_range():
    # closed norms reach 1.5e221 at |n| = 4, so closed_i closed_j overflows;
    # the grid still resolves every norm
    cfg = tf.make_config(tf.build_lattice(tf.validate_space(np.eye(1)), [[0.5]]), [0.5], math.pi)
    grid = tf.build_grid(cfg, compact_nodes=40, unbounded_nodes=180)
    battery = verify.norms_battery(cfg, grid, verify.battery_indices(cfg, 4, 0))
    assert battery.closed.max() > 1e154
    assert battery.defects.max() <= 1e-6
    assert 0.0 < battery.off_diagonal <= 1e-6


def _never_called(*args, **kwargs):
    raise AssertionError("an index array or a basis family was built")


@pytest.mark.parametrize("problem, n_max, k_max", [
    ("g1_r1", 99999999999, 1),  # a 1.46 TiB index box
    ("g1_r1", 100000, 1),  # a 298 GiB N x N diagonal in basis_family
    ("g2_r1", 1, 99999999999),  # 745 GiB of multi-indices
])
def test_norms_battery_over_budget_builds_no_index(monkeypatch, problem, n_max, k_max):
    cfg = build_config(load_problem(G3R2_FILE.with_name(f"{problem}.json")))
    for name in ("series_indices", "_integer_box", "_multi_indices", "basis_family"):
        monkeypatch.setattr(verify.S, name, _never_called)
    with pytest.raises(errors.NodeBudgetExceeded, match="norms battery"):
        verify.battery_indices(cfg, n_max, k_max)


def test_norms_battery_budget_counts_the_indices_it_builds(monkeypatch):
    # the count N matches the indices of a battery that runs: a budget one
    # entry short of its N x N Gram refuses it before any index is built
    cfg = build_config(load_problem(G3R2_FILE.with_name("g2_r1.json")))
    grid = tf.build_grid(cfg, compact_nodes=8, unbounded_nodes=12)
    n = len(verify.norms_battery(cfg, grid, verify.battery_indices(cfg, 1, 2)).indices[0])
    assert n == 3 * 3
    monkeypatch.setattr(verify.Q, "_WORK_BUDGET", n * n - 1)
    monkeypatch.setattr(verify.S, "series_indices", _never_called)
    with pytest.raises(errors.NodeBudgetExceeded):
        verify.battery_indices(cfg, 1, 2)


def test_battery_box_is_built_once_per_battery(monkeypatch, tmp_path):
    # `thetafock norms` and the orthogonality suite count and build the
    # battery's index box once, then size the grid and run the battery on it
    g1r1 = str(G3R2_FILE.with_name("g1_r1.json"))
    series_indices, calls = verify.S.series_indices, []
    monkeypatch.setattr(verify.S, "series_indices",
                        lambda *a: calls.append(a[1:]) or series_indices(*a))
    assert main(["norms", g1r1, "--n-max", "3", "--out", str(tmp_path / "result.json")]) == 0
    assert calls == [(3, 1)]
    calls.clear()
    _assert_all_pass(verify.verify_orthogonality(build_config(load_problem(g1r1)),
                                                 np.random.default_rng(0)))
    assert calls == [(2, 2)]


def test_norms_battery_indices_are_the_series_box():
    # the battery and `thetafock norms` read one index box
    cfg = build_config(load_problem(str(G3R2_FILE)))
    grid = tf.build_grid(cfg, compact_nodes=8, unbounded_nodes=12)
    n, k = verify.norms_battery(cfg, grid, verify.battery_indices(cfg, 1, 2)).indices
    want_n, want_k = tf.series_indices(cfg, 1, 2)
    assert len(n) == 9 * 3  # r = 2, g - r = 1
    np.testing.assert_array_equal(n, want_n)
    np.testing.assert_array_equal(k, want_k)


def _assert_all_pass(outcomes):
    failed = [o for o in outcomes if not o.passed]
    assert outcomes and not failed, failed


def test_orthogonality_suite_g3r1():
    cfg = verify.random_config(np.random.default_rng([0, 3, 1]), 3, 1)
    _assert_all_pass(verify.verify_orthogonality(cfg, np.random.default_rng(0)))


def test_reproducing_suite_g3r2():
    cfg = build_config(load_problem(str(G3R2_FILE)))
    _assert_all_pass(verify.verify_reproducing(cfg, np.random.default_rng(0)))


def test_reproducing_suite_g4r2():
    # g - r = 2: the kernel series' k part runs over two perpendicular coordinates
    cfg = verify.random_config(np.random.default_rng([0, 4, 2]), 4, 2)
    _assert_all_pass(verify.verify_reproducing(cfg, np.random.default_rng(0)))


def _g3r3_config(nu):
    space = tf.validate_space(np.eye(3))
    lattice = tf.build_lattice(space, [[1.0, 0, 0], [0.3, 1.1, 0], [0, 0.2, 0.95]])
    return tf.make_config(lattice, [0.3, 0.1, 0.2], nu)


def test_orthogonality_suite_g3r3():
    _assert_all_pass(verify.verify_orthogonality(
        _g3r3_config(2 * math.pi), np.random.default_rng(0), n_inf=1))


def test_g3r3_calibration_reads_the_grid_at_nu_pi():
    # a fully resolved grid: its calibration reads 1.9e-14 at (32, 48), so
    # the 1e-9 bound must not flag it
    cfg = _g3r3_config(math.pi)
    tf.build_grid(cfg, requested_tol=1e-9)
    _assert_all_pass(verify.verify_orthogonality(cfg, np.random.default_rng(0), n_inf=1))


def test_under_resolved_g3_config_is_flagged():
    # (32, 48) nodes leave this lattice's calibration defect at 0.11, and
    # the refinement of the suite's Parseval norm changes it by 3.5e69; the
    # grid sized for the suite's box (102 unbounded nodes) resolves both
    cfg = verify.random_config(np.random.default_rng([18, 3, 3]), 3, 3)
    with pytest.raises(errors.GridTooCoarse):
        tf.build_grid(cfg, requested_tol=1e-9)
    f = verify.S.synthesized_function(cfg, verify.random_field(np.random.default_rng(0), cfg))
    with pytest.raises(errors.GridTooCoarse, match="refinement"):
        tf.inner_product(cfg, f, f, tf.build_grid(cfg))
    _assert_all_pass(verify.verify_orthogonality(cfg, np.random.default_rng(0)))


def test_only_a_requested_tolerance_calibrates(monkeypatch, tmp_path):
    # the suites and the CLI judge a grid by the battery and by each sum's
    # refinement; the synthetic calibration runs only for build_grid's
    # requested_tol, once per grid
    calibrate, calls = verify.Q._calibrate, []

    def refused(*args):
        raise AssertionError("a grid was calibrated")

    monkeypatch.setattr(verify.Q, "_calibrate", refused)
    for path in sorted(G3R2_FILE.parent.glob("*.json")):
        _assert_all_pass(verify.run_suite(build_config(load_problem(str(path))), "all", seed=3))
    g1r1 = str(G3R2_FILE.with_name("g1_r1.json"))
    for argv in (["norms", g1r1], ["verify", g1r1, "--suite", "all"]):
        assert main(argv + ["--out", str(tmp_path / "result.json")]) == 0, argv

    monkeypatch.setattr(verify.Q, "_calibrate", lambda *a: calls.append(a) or calibrate(*a))
    tf.build_grid(build_config(load_problem(g1r1)), requested_tol=1e-9)
    assert len(calls) == 1


_RANDOM_SHAPES = [(3, 2), (3, 3), (4, 3), (4, 4), (5, 3), (5, 4)]


@pytest.mark.parametrize("g, r", _RANDOM_SHAPES)
def test_orthogonality_suite_passes_on_random_configs(g, r):
    # on grids sized for the suite's box every outcome passes on seeds 0-1
    # of each shape; the guessed (32, 48) grids failed 6 of seeds 0-4
    for s in range(2):
        cfg = verify.random_config(np.random.default_rng([s, g, r]), g, r)
        _assert_all_pass(verify.run_suite(cfg, "orthogonality", seed=s))


@pytest.mark.parametrize("g, r", _RANDOM_SHAPES)
def test_reproducing_suite_passes_on_random_configs(g, r):
    # build_grid's default (32, 48) grid: the reproducing defects read about 1e-15
    for s in range(2):
        cfg = verify.random_config(np.random.default_rng([s, g, r]), g, r)
        _assert_all_pass(verify.run_suite(cfg, "reproducing", seed=s))


@pytest.mark.parametrize("name", ["g2_r2.json", "g3_r2.json"])
def test_characteristic_shift_is_measured_on_the_value_scale(name):
    # at seed 189 the sampled values reach ~1e5 and the shifted and unshifted
    # sums differ by rounding alone, 2.3e-10 in absolute terms: relative to
    # max(1, |theta|) the defect is at rounding level
    cfg = build_config(load_problem(G3R2_FILE.with_name(name)))
    outcome = [o for o in verify.run_suite(cfg, "theta", seed=189)
               if o.name == "characteristic-shift"][0]
    assert outcome.passed and outcome.tolerance == 2e-10
    assert outcome.defect <= 1e-13


@pytest.mark.parametrize("key", [(1, 3, 3), (0, 2, 2)], ids=["g3r3", "g2r2"])
def test_reproducing_property_reads_the_kernel_scale(key):
    # with random fields, <f, K_v> - f(v) over 1 + |f(v)| read 2.04 and 7.8e2
    # here: the section's plan omits indices of norm far beyond |f(v)|.  Between
    # two kernel sections <K_u, K_v> = K(v, u), on the scale sqrt(K(u,u) K(v,v))
    cfg = verify.random_config(np.random.default_rng(list(key)), key[1], key[2])
    outcomes = verify.verify_reproducing(cfg, np.random.default_rng(0))
    _assert_all_pass(outcomes)
    assert outcomes[0].name == "reproducing-property" and outcomes[0].defect <= 1e-12


@pytest.mark.parametrize("name, suite, seed", [("g3_r2", "reproducing", 26),
                                               ("g2_r0", "bounds", 36)])
def test_kernel_suites_pass_where_absolute_defects_failed(name, suite, seed):
    # absolute defects failed here by rounding and series truncation alone:
    # kernel-hermitian-symmetry 6.1e-9 at |K| = 3.6e6, diagonal-series-identity
    # 1.3e-8 at K(u,u) = 2.95e4; tolerances unchanged, on the kernel's scale
    cfg = build_config(load_problem(G3R2_FILE.with_name(f"{name}.json")))
    _assert_all_pass(verify.run_suite(cfg, suite, seed=seed))


@pytest.mark.parametrize("name", ["g1_r1", "g2_r0", "g2_r1", "g2_r2", "g3_r2"])
def test_theta_suite_passes_over_fifty_seeds(name):
    # plan soundness (every term above tail/|set| is planned) is not a
    # theorem of the tail bound, so it is checked over many seeds
    cfg = build_config(load_problem(G3R2_FILE.with_name(f"{name}.json")))
    for seed in range(50):
        failed = [o for o in verify.run_suite(cfg, "theta", seed=seed) if not o.passed]
        assert not failed, (seed, failed)


@pytest.mark.parametrize("name", ["g1_r1", "g2_r0", "g2_r1", "g2_r2", "g3_r2"])
def test_orthogonality_suite_passes_over_fifty_seeds(name):
    # the lattice axes must resolve the far Gaussians of every sampled
    # field and battery index: with Gauss-Hermite lattice axes seeds 5, 7,
    # 13, 17, 22 and 28 failed here on g2_r2, and 5, 7, 17 and 22 on g3_r2
    cfg = build_config(load_problem(G3R2_FILE.with_name(f"{name}.json")))
    for seed in range(50):
        failed = [o for o in verify.run_suite(cfg, "orthogonality", seed=seed) if not o.passed]
        assert not failed, (seed, failed)


@pytest.mark.parametrize("name", ["g2_r0", "g2_r1", "g2_r2", "g3_r2"])
def test_references_over_budget_build_no_index(monkeypatch, name):
    # the kernel series and plan-soundness count their indices x points
    # against the work budget: one value short of a run refuses it before
    # any index array is built or any value evaluated
    cfg = build_config(load_problem(G3R2_FILE.with_name(f"{name}.json")))
    pts = verify._kernel_sample(cfg, np.random.default_rng(0))[0]
    built = []
    evaluate, log_terms = verify.S.basis_eval_many, verify.T.log_terms
    monkeypatch.setattr(verify.S, "basis_eval_many",
                        lambda c, idx, *a: built.append(len(idx[0])) or evaluate(c, idx, *a))
    monkeypatch.setattr(verify.T, "log_terms",
                        lambda p, Z, idx: built.append(len(idx)) or log_terms(p, Z, idx))
    verify._kernel_series(cfg, pts, pts)
    series, built[:] = sum(built) * len(pts), []
    verify.run_suite(cfg, "theta")
    soundness = sum(built)  # 0 at r = 0, which lists no plan-soundness
    for name in ("basis_eval_many", "series_indices", "_log_norms"):
        monkeypatch.setattr(verify.S, name, _never_called)
    monkeypatch.setattr(verify.T, "log_terms", _never_called)
    monkeypatch.setattr(verify.Q, "_WORK_BUDGET", series - 1)
    with pytest.raises(errors.NodeBudgetExceeded, match="kernel series"):
        verify._kernel_series(cfg, pts, pts)
    if cfg.r:
        monkeypatch.setattr(verify.Q, "_WORK_BUDGET", soundness - 1)
        with pytest.raises(errors.NodeBudgetExceeded, match="plan-soundness"):
            verify.run_suite(cfg, "theta")


def test_every_budget_site_checks_before_it_builds(monkeypatch):
    # the grid's rules, a reduction's factor maps, the battery's box and
    # the two references' index arrays each follow one call of the one
    # work-budget check, naming what it counted
    cfg = build_config(load_problem(G3R2_FILE.with_name("g2_r1.json")))
    grid = tf.build_grid(cfg, compact_nodes=8, unbounded_nodes=12)
    pts = verify._kernel_sample(cfg, np.random.default_rng(0))[0]
    form = verify.S.basis_family(cfg, verify.battery_indices(cfg, 1, 1)).factored
    events = []

    def recorded(kind, fn):
        return lambda *a: events.append(kind) or fn(*a)

    maps = [recorded("factor map", m) for m in (form.lattice, form.fock)]
    family = verify.Q.Factored(*maps, terms=form.terms, coeffs=form.coeffs)
    check_work = verify.Q._check_work
    monkeypatch.setattr(verify.Q, "_check_work",
                        lambda what, values: events.append(what) or check_work(what, values))
    monkeypatch.setattr(verify.Q, "_rules", recorded("rules", verify.Q._rules))
    monkeypatch.setattr(verify.S, "series_indices",
                        recorded("index array", verify.S.series_indices))
    monkeypatch.setattr(verify, "_blocks", recorded("index array", verify._blocks))
    sites = [
        ("Gauss rules", "rules", lambda: tf.build_grid(cfg)),
        ("factor maps", "factor map", lambda: tf.gram_matrix(cfg, family, grid)),
        ("norms battery", "index array", lambda: verify.battery_indices(cfg, 1, 1)),
        ("plan-soundness", "index array",
         lambda: verify.verify_theta(cfg, np.random.default_rng(0))),
        ("kernel series", "index array", lambda: verify._kernel_series(cfg, pts, pts)),
    ]
    for what, built, run in sites:
        events.clear()
        run()
        assert len(events) > 1 and what in events[0], (what, events)
        assert set(events[1:]) == {built}, (what, events)


@pytest.mark.parametrize("suite", ["theta", "reproducing", "bounds"])
@pytest.mark.parametrize("g, r", [(5, 5), (5, 3)], ids=["g5r5", "g5r3"])
def test_suites_pass_at_genus_five(g, r, suite):
    # the references sum only the indices their points need: 0.02-0.9 s and
    # at most 260 MB each here on 2 vCPUs, where the fixed boxes took
    # 0.7-2.0 s and peaked at 1.9 GB (theta, r = g = 5) and 1.0 GB (r = 3)
    cfg = verify.random_config(np.random.default_rng([0, g, r]), g, r)
    _assert_all_pass(verify.run_suite(cfg, suite, seed=0))
