import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import thetafock as tf
from thetafock import errors, verify
from thetafock.geometry import (
    Character,
    PointCoordinates,
    b_form,
    b_form_full,
    coordinate_conjugate,
    coordinates_many,
)
from thetafock.problem import build_config, load_problem


def test_validate_space_identity():
    sp = tf.validate_space(np.eye(2))
    assert sp.g == 2
    assert tf.symplectic_form(sp, np.array([1.0, 0]), np.array([0, 1.0])) == 0.0


def test_validate_space_not_hermitian():
    with pytest.raises(errors.NotHermitian) as exc:
        tf.validate_space(np.array([[1.0, 1j], [1j, 1.0]]))
    assert "H[0][1]" in str(exc.value) or "H[1][0]" in str(exc.value)


def test_validate_space_not_positive_definite():
    # eigenvalues 3 and -1
    with pytest.raises(errors.NotPositiveDefinite):
        tf.validate_space(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("H", [np.zeros((0, 0)), []], ids=["0x0", "list"])
def test_validate_space_rejects_empty(H):
    with pytest.raises(errors.DimensionMismatch):
        tf.validate_space(H)


def test_symplectic_form_values():
    sp = tf.validate_space(np.eye(1))
    assert tf.symplectic_form(sp, np.array([1.0]), np.array([1.0])) == 0.0
    assert tf.symplectic_form(sp, np.array([1.0]), np.array([1j])) == -1.0


def test_symplectic_antisymmetry():
    sp = tf.validate_space(np.eye(2))
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert tf.symplectic_form(sp, u, v) == pytest.approx(
            -tf.symplectic_form(sp, v, u), abs=1e-14
        )


def test_hermitian_symplectic_identity():
    # H(u,v) = E(iu,v) + i E(u,v)
    sp = tf.validate_space(np.array([[2.0, 0.5j], [-0.5j, 1.0]]))
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        h = complex(sp.hermitian(u, v))
        e = float(sp.symplectic(u, v))
        ei = float(sp.symplectic(1j * u, v))
        assert h == pytest.approx(ei + 1j * e, rel=1e-12)


def test_build_lattice_standard():
    sp = tf.validate_space(np.eye(2))
    lat = tf.build_lattice(sp, [[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(lat.B, np.eye(2))
    assert lat.complement.shape == (0, 2)
    assert lat.det_b == pytest.approx(1.0)


def test_build_lattice_complex_generator():
    sp = tf.validate_space(np.eye(1))
    lat = tf.build_lattice(sp, [[1.0 + 1.0j]])
    assert lat.B[0, 0] == pytest.approx(2.0)


def test_build_lattice_not_isotropic():
    sp = tf.validate_space(np.eye(2))
    with pytest.raises(errors.NotIsotropic) as exc:
        tf.build_lattice(sp, [[1.0, 0.0], [1j, 1.0]])
    assert exc.value.pair == (0, 1)
    assert exc.value.value == pytest.approx(-1.0)


def test_build_lattice_not_independent():
    sp = tf.validate_space(np.eye(2))
    with pytest.raises(errors.NotIndependent):
        tf.build_lattice(sp, [[1.0, 0.0], [2.0, 0.0]])


@pytest.mark.parametrize("gens", [[[0.0]], [[0.0, 0.0], [0.0, 0.0]]], ids=["g1", "g2"])
def test_all_zero_generators_are_not_independent(gens):
    # no singular value is positive: the message must not divide 0 by 0
    # (a RuntimeWarning, an error under this suite's filter)
    sp = tf.validate_space(np.eye(len(gens[0])))
    with pytest.raises(errors.NotIndependent, match="all are 0"):
        tf.build_lattice(sp, gens)


def test_value_types_compare_and_hash_by_identity():
    # value types holding arrays: == is identity and hash works, so they
    # can be dict keys (value equality would ask numpy for an array's truth)
    def build():
        sp = tf.validate_space(np.eye(2))
        lattice = tf.build_lattice(sp, [[1.0, 0.0]])
        config = tf.make_config(lattice, [0.3], 2.0)
        return (sp, lattice, config, config.theta_params, config.character,
                PointCoordinates([0.1 + 0.2j], [0.3]), tf.validate_parameters(np.eye(2) * 1j))

    for a, b in zip(build(), build()):
        assert a == a and a != b, type(a).__name__
        assert {a: 1, b: 2}[a] == 1 and hash(a) == hash(a)
        assert dataclasses.replace(a) != a


def test_build_lattice_rank_exceeds_g():
    sp = tf.validate_space(np.eye(1))
    with pytest.raises(errors.RankExceedsG):
        tf.build_lattice(sp, [[1.0], [1j]])


@pytest.mark.parametrize("gr", [None, (3, 0), (3, 2), (4, 1), (4, 3), (5, 2), (5, 4)],
                         ids=lambda gr: "fixed" if gr is None else f"g{gr[0]}r{gr[1]}")
def test_complement_orthonormality(gr):
    if gr is None:
        sp = tf.validate_space(np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.5]]))
        lat = tf.build_lattice(sp, [[1.0, 0.5]])
    else:
        lat = verify.random_config(np.random.default_rng([0, *gr]), *gr).lattice
    sp, comp = lat.space, lat.complement
    assert comp.shape == (lat.g - lat.r, lat.g)
    cross = sp.hermitian(comp[:, None, :], lat.generators[None, :, :])
    assert np.abs(cross).max(initial=0.0) < 1e-10
    gram = sp.hermitian(comp[:, None, :], comp[None, :, :])
    assert np.abs(gram - np.eye(len(comp))).max(initial=0.0) < 1e-10


def test_complement_ties_go_to_the_first_candidate():
    # every residual off span(e_2) has H-norm 1 or 0: e_1 wins the first
    # step over e_3, and the residuals are the standard vectors exactly
    lat = tf.build_lattice(tf.validate_space(np.eye(3)), [[0.0, 1.0, 0.0]])
    assert np.array_equal(lat.complement, [[1, 0, 0], [0, 0, 1]])
    assert np.array_equal(tf.build_lattice(tf.validate_space(np.eye(4)), []).complement,
                          np.eye(4))


def test_not_isotropic_names_the_first_pair():
    # E(w_0, w_3) = -2 and E(w_1, w_2) = -1: the first pair in (j, k) order
    # is (0, 3), though (1, 2) comes first column by column
    gens = np.eye(4, dtype=complex)
    gens[2, 1], gens[3, 0] = 1j, 2j
    with pytest.raises(errors.NotIsotropic) as exc:
        tf.build_lattice(tf.validate_space(np.eye(4)), gens)
    assert exc.value.pair == (0, 3) and type(exc.value.pair[0]) is int
    assert exc.value.value == -2.0


def test_coordinates_basis_vectors():
    sp = tf.validate_space(np.eye(2))
    lat = tf.build_lattice(sp, [[1.0, 1j]])
    c = tf.coordinates(lat, lat.generators[0])
    assert np.allclose(c.z, [1.0])
    assert np.allclose(c.z_perp, [0.0])
    c2 = tf.coordinates(lat, lat.complement[0])
    assert np.allclose(c2.z, [0.0])
    assert np.allclose(c2.z_perp, [1.0])


def test_coordinates_round_trip():
    sp = tf.validate_space(np.array([[1.3, 0.2j], [-0.2j, 0.9]]))
    lat = tf.build_lattice(sp, [[0.7, 0.4 - 0.1j]])
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        back = tf.to_ambient(lat, tf.coordinates(lat, u))
        assert np.abs(back - u).max() < 1e-12


def test_b_form_values():
    sp = tf.validate_space(np.eye(2))
    lat = tf.build_lattice(sp, [[1.0, 0.0], [0.0, 1.0]])
    one = np.array([1.0, 0.0], dtype=complex)
    eye_i = np.array([1j, 0.0])
    assert tf.b_form(lat, one, one) == pytest.approx(1.0)
    # bilinear, not sesquilinear
    assert tf.b_form(lat, eye_i, eye_i) == pytest.approx(-1.0)


def test_bilinear_square_expansion_identity():
    sp = tf.validate_space(np.eye(2))
    lat = tf.build_lattice(sp, [[1.0, 1j]])
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        gam = lat.gamma(rng.integers(-3, 4, size=1))
        lhs = b_form_full(lat, u + gam, u + gam)
        rhs = b_form_full(lat, u, u) + 2.0 * complex(sp.hermitian(u + 0.5 * gam, gam))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_lattice_pairing_matches_hermitian():
    sp = tf.validate_space(np.array([[1.5, 0.4], [0.4, 1.0]]))
    lat = tf.build_lattice(sp, [[1.0, 0.2]])
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        gam = lat.gamma(rng.integers(-3, 4, size=1))
        h = complex(sp.hermitian(u, gam))
        assert abs(h - b_form_full(lat, u, gam)) <= 1e-10 * max(abs(h), 1.0)


def test_span_conjugation_symmetry():
    # on the generator span, conjugating both slots in coordinates swaps
    # them: H(conj(v), conj(u)) = H(u, v), the symmetry of the bilinear
    # pairing (the same-order variant only holds up to conjugation)
    sp = tf.validate_space(np.eye(2))
    lat = tf.build_lattice(sp, [[1.0, 1j]])
    rng = np.random.default_rng(5)
    for _ in range(10):
        zc = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        wc = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        u = tf.to_ambient(lat, PointCoordinates(zc, np.zeros(1)))
        v = tf.to_ambient(lat, PointCoordinates(wc, np.zeros(1)))
        lhs = complex(sp.hermitian(u, v))
        rhs = complex(
            sp.hermitian(coordinate_conjugate(lat, v), coordinate_conjugate(lat, u))
        )
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
        same_order = complex(
            sp.hermitian(coordinate_conjugate(lat, u), coordinate_conjugate(lat, v))
        )
        assert abs(same_order - np.conj(lhs)) <= 1e-10 * max(abs(lhs), 1.0)


def test_form_decomposes_over_coordinates():
    sp = tf.validate_space(np.array([[2.0, 0.1 + 0.2j], [0.1 - 0.2j, 1.2]]))
    lat = tf.build_lattice(sp, [[1.0, 0.3]])
    rng = np.random.default_rng(6)
    for _ in range(10):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        (zu, pu) = coordinates_many(lat, u[None, :])
        (zv, pv) = coordinates_many(lat, v[None, :])
        lhs = complex(sp.hermitian(u, v))
        rhs = complex(b_form(lat, zu[0], np.conj(zv[0]))) + complex(pu[0] @ np.conj(pv[0]))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_character_normalization_and_values():
    chi = Character(np.array([1.3, -0.25]))
    assert np.allclose(chi.alpha, [0.3, 0.75])
    m = np.array([2, -1])
    assert abs(chi(m)) == pytest.approx(1.0)
    assert chi(m) == pytest.approx(np.exp(2j * np.pi * (0.3 * 2 - 0.75)))


def test_check_rdq_character_passes():
    sp = tf.validate_space(np.eye(2))
    lat = tf.build_lattice(sp, [[1.0, 0.0], [0.0, 1.0]])
    rep = tf.check_rdq(lat, Character(np.array([0.37, 0.81])), nu=2.0)
    assert rep.passed
    assert rep.worst_defect < 1e-12


def test_check_rdq_rejects_cross_term():
    sp = tf.validate_space(np.eye(2))
    lat = tf.build_lattice(sp, [[1.0, 0.0], [0.0, 1.0]])

    def chi(m):
        return np.exp(2j * np.pi * (0.1 * m[0]) + 1j * m[0] * m[1])

    rep = tf.check_rdq(lat, chi, nu=2.0)
    assert not rep.passed
    assert rep.worst_defect > 1e-3


def test_check_rdq_trivial_character():
    sp = tf.validate_space(np.eye(1))
    lat = tf.build_lattice(sp, [[1.0]])
    rep = tf.check_rdq(lat, lambda m: 1.0 + 0.0j, nu=1.0)
    assert rep.passed


def test_check_rdq_non_unit_modulus():
    # a NaN character used to pass with defect 0.0
    sp = tf.validate_space(np.eye(1))
    lat = tf.build_lattice(sp, [[1.0]])
    for value in (2.0 + 0.0j, complex(math.nan, math.nan)):
        with pytest.raises(errors.NonUnitModulus):
            tf.check_rdq(lat, lambda m: value, nu=1.0)


@pytest.mark.parametrize("nu", [math.nan, math.inf])
def test_check_rdq_non_finite_nu_fails(nu):
    # a non-finite defect reads as inf and fails; a NaN defect used to pass as 0.0
    lat = tf.build_lattice(tf.validate_space(np.eye(2)), np.eye(2))
    rep = tf.check_rdq(lat, Character(np.array([0.37, 0.81])), nu)
    assert rep.passed is False
    assert rep.worst_defect == math.inf
    assert rep.worst_pair == ((0, 0), (0, 0))


def _rdq_reference(lattice, chi, nu):
    """The pair loop that check_rdq replaced: (passed, worst_defect, worst_pair)."""
    r = lattice.r
    vecs = [np.zeros(r, dtype=int)]
    eye = np.eye(r, dtype=int)
    for i in range(r):
        vecs.extend([eye[i], -eye[i], 2 * eye[i]])
    for i in range(r):
        for j in range(i + 1, r):
            vecs.extend([eye[i] + eye[j], eye[i] - eye[j]])
    ms = np.array(vecs, dtype=int)
    vals = {tuple(m): complex(chi(m)) for m in ms}
    sums = {tuple(m + mp) for m in ms for mp in ms}
    for s in sums:
        if s not in vals:
            vals[s] = complex(chi(np.array(s, dtype=int)))
    for m, v in vals.items():
        if abs(abs(v) - 1.0) > 1e-9:
            raise errors.NonUnitModulus(f"|chi({m})| = {abs(v):.12f}")
    worst = 0.0
    worst_pair = (tuple(ms[0]), tuple(ms[0]))
    for m in ms:
        gm = lattice.gamma(m)
        for mp in ms:
            e_val = float(lattice.space.symplectic(gm, lattice.gamma(mp)))
            defect = abs(
                vals[tuple(m + mp)] - vals[tuple(m)] * vals[tuple(mp)] * np.exp(1j * nu * e_val)
            )
            if defect > worst:
                worst = defect
                worst_pair = (tuple(m), tuple(mp))
    return worst <= 1e-9, worst, worst_pair


_PROBLEMS = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.json"))


@pytest.mark.parametrize("source", _PROBLEMS + [(s, g, r) for s in range(10) for g in range(1, 5)
                                                for r in range(g + 1)],
                         ids=lambda source: getattr(source, "stem", str(source)))
def test_check_rdq_matches_the_pair_loop(source):
    if isinstance(source, Path):
        cfg = build_config(load_problem(str(source)))
    else:
        cfg = verify.random_config(np.random.default_rng(list(source)), *source[1:])
    lat = cfg.lattice
    rng = np.random.default_rng(71)
    chis = [cfg.character] + [Character(rng.uniform(0, 1, lat.r)) for _ in range(3)]
    if lat.r >= 2:
        chis += [verify._non_character(cfg.alpha),
                 lambda m: np.exp(2j * np.pi * (0.1 * m[0]) + 1j * m[0] * m[1])]
    for chi in chis:
        passed, worst, pair = _rdq_reference(lat, chi, cfg.nu)
        rep = tf.check_rdq(lat, chi, cfg.nu)
        assert rep.passed is bool(passed)
        assert rep.worst_defect == pytest.approx(worst, rel=1e-12, abs=1e-14)
        # numpy's einsum of one pair of length-2 vectors sums each row of H
        # before adding it, which the broadcast sums in one sequence: E differs
        # in its last bits there, and so can the largest of rounding-sized defects
        if worst > 1e-12 or lat.g != 2:
            assert rep.worst_pair == pair
        assert type(rep.worst_defect) is float and rep.pairs_checked == (1 + lat.r) ** 4


def test_r_zero_lattice():
    sp = tf.validate_space(np.eye(2))
    lat = tf.build_lattice(sp, [])
    assert lat.r == 0
    assert lat.det_b == 1.0
    assert lat.complement.shape == (2, 2)


def test_replace_recomputes_inverse_basis():
    # everything past the space and the generators is derived, not a constructor field
    lat = tf.build_lattice(tf.validate_space(np.eye(2)), [[1.0, 0.5j]])
    scaled = dataclasses.replace(lat, generators=2.0 * lat.generators)
    assert np.array_equal(scaled.generators, 2.0 * lat.generators)
    assert np.array_equal(scaled.inv_basis_matrix, np.linalg.inv(scaled.basis_matrix))
    with pytest.raises(TypeError):
        tf.IsotropicLattice(lat.space, lat.r, lat.generators)


def test_replace_generators_rebuilds_g1_lattice():
    lat = tf.build_lattice(tf.validate_space(np.eye(1)), [[1.0]])
    doubled = dataclasses.replace(lat, generators=2 * lat.generators)
    assert doubled.B[0, 0] == 4.0 and doubled.det_b == 4.0
    assert doubled.B_inv[0, 0] == 0.25
    assert np.array_equal(doubled.basis_matrix, [[2.0]])
    assert np.array_equal(doubled.inv_basis_matrix, [[0.5]])
    with pytest.raises(errors.RankExceedsG):
        dataclasses.replace(lat, generators=[[1.0], [2.0]])


def test_replace_rechecks_space():
    sp = tf.validate_space(np.eye(2))
    with pytest.raises(errors.NotPositiveDefinite):
        dataclasses.replace(sp, matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))
    wide = dataclasses.replace(sp, matrix=4.0 * np.eye(2))
    assert wide.g == 2 and wide.tol == 4.0 * sp.tol
    with pytest.raises(ValueError):
        dataclasses.replace(sp, tol=1.0)


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf)])
def test_non_finite_generators_are_rejected(bad):
    # a NaN generator used to end in numpy's LinAlgError from the SVD
    with pytest.raises(errors.ValidationError, match="generators must be finite"):
        tf.build_lattice(tf.validate_space(np.eye(2)), [[1.0, bad]])


@pytest.mark.parametrize("tol_scale", [math.nan, math.inf, -1.0, 0.0])
def test_validate_space_rejects_bad_tol_scale(tol_scale):
    # a NaN scale would switch every form check off: [[-1]] would pass
    with pytest.raises(errors.ValidationError, match="tol_scale"):
        tf.validate_space([[-1.0]], tol_scale=tol_scale)


def test_ambient_measure_factor():
    sp = tf.validate_space(np.eye(2))
    lat = tf.build_lattice(sp, [[1.0, 0.0], [0.0, 1.0]])
    assert tf.ambient_measure_factor(lat) == pytest.approx(1.0)
    lat2 = tf.build_lattice(sp, [[2.0, 0.0]])
    assert tf.ambient_measure_factor(lat2) == pytest.approx(4.0)
