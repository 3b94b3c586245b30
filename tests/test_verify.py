import math

import numpy as np
import pytest

import thetafock as tf
from thetafock import verify


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
