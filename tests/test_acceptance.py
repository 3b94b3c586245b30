"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import thetafock as tf
from thetafock import quadrature as Q
from thetafock import space as S
from thetafock import verify
from thetafock.geometry import Character, PointCoordinates, b_form


def report(num, ok, detail):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def quad_complex(f):
    re, _ = quad(lambda t: f(t).real, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200)
    im, _ = quad(lambda t: f(t).imag, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200)
    return complex(re, im)


def make_config(H, gens, alpha, nu):
    space = tf.validate_space(H)
    lattice = tf.build_lattice(space, gens)
    return tf.make_config(lattice, alpha, nu)


def test_criterion_1_gaussian_integral():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst1 = 0.0
    for _ in range(50):
        a = float(rng.uniform(0.3, 3.0))
        A = complex(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        closed = tf.gaussian_integral(a, [[A]], [b])
        oracle = quad_complex(lambda y: np.exp(-a * A * y * y + b * y))
        worst1 = max(worst1, abs(closed - oracle) / abs(oracle))
    worst2 = 0.0
    for _ in range(10):
        a = float(rng.uniform(0.3, 3.0))
        A1 = complex(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
        A2 = complex(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
        b = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2)
        closed = tf.gaussian_integral(a, np.diag([A1, A2]), b)
        product = tf.gaussian_integral(a, [[A1]], [b[0]]) * tf.gaussian_integral(
            a, [[A2]], [b[1]]
        )
        worst2 = max(worst2, abs(closed - product) / abs(product))
    dt = time.time() - t0
    report(
        1,
        worst1 <= 1e-10 and worst2 <= 1e-12 and dt < 10.0,
        f"gaussian closed form: r=1 defect {worst1:.2e} (<=1e-10), "
        f"r=2 product defect {worst2:.2e} (<=1e-12), {dt:.1f}s (<10s)",
    )


BATTERY = [
    ("g1r0", np.eye(1), [], [], math.pi),
    ("g1r1", np.eye(1), [[1.0]], [0.0], math.pi),
    ("g1r1c", np.eye(1), [[1.0 + 1.0j]], [0.3], 2.0),
    ("g2r0", np.eye(2), [], [], math.pi),
    ("g2r1", np.eye(2), [[1.0, 1j]], [0.3], math.pi),
    ("g2r2", np.eye(2), [[1.0, 0.0], [0.0, 1.0]], [0.3, 0.7], math.pi),
]


def test_criterion_2_basis_norms():
    t0 = time.time()
    worst_diag = 0.0
    worst_off = 0.0
    for name, H, gens, alpha, nu in BATTERY:
        cfg = make_config(H, gens, alpha, nu)
        grid = tf.build_grid(cfg)  # default node counts
        r, m = cfg.r, cfg.g - cfg.r
        idxs = [
            tf.BasisIndex(n=n, k=k)
            for n in itertools.product(range(-2, 3), repeat=r)
            for k in itertools.product(range(3), repeat=m)
            if sum(k) <= 2
        ]
        fam = S.basis_family(cfg, idxs)
        G, _ = tf.gram_matrix(cfg, fam, grid)
        norms = np.array([tf.basis_norm_sq(cfg, i) for i in idxs])
        worst_diag = max(worst_diag, float((np.abs(np.diag(G).real - norms) / norms).max()))
        geo = np.sqrt(np.outer(norms, norms))
        off = np.abs(G - np.diag(np.diag(G))) / geo
        worst_off = max(worst_off, float(off.max()))
    dt = time.time() - t0
    report(
        2,
        worst_diag <= 1e-6 and worst_off <= 1e-6 and dt < 300.0,
        f"basis norms over {len(BATTERY)} configs (g<=2, r<=g, |n|<=2, |k|<=2): "
        f"diagonal defect {worst_diag:.2e}, off-diagonal {worst_off:.2e} "
        f"(<=1e-6), {dt:.0f}s (<300s)",
    )


def test_criterion_3_functional_equation():
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(100):
        g = int(rng.integers(1, 4))
        r = int(rng.integers(1, g + 1))
        cfg = verify.random_config(rng, g, r)
        coeffs = verify.random_field(rng, cfg)
        u = verify.random_point(rng, cfg, scale=0.8)
        mvec = rng.integers(-2, 3, size=r).astype(float)
        shifted = PointCoordinates(u.z + mvec, u.z_perp)
        lhs = tf.synthesize(cfg, coeffs, shifted)
        factor = np.exp(
            cfg.nu * complex(b_form(cfg.lattice, u.z + 0.5 * mvec, mvec + 0j))
            + 2j * np.pi * float(cfg.alpha @ mvec)
        )
        rhs = factor * tf.synthesize(cfg, coeffs, u)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    dt = time.time() - t0
    report(
        3,
        worst <= 1e-9 and dt < 5.0,
        f"functional equation on 100 random (config, f, gamma, u): "
        f"relative defect {worst:.2e} (<=1e-9), {dt:.1f}s (<5s)",
    )


def test_criterion_4_reproducing_property():
    t0 = time.time()
    rng = np.random.default_rng(404)
    cfg = make_config(np.eye(2), [[1.0, 1j]], [0.3], math.pi)
    grid = tf.build_grid(cfg, compact_nodes=24, unbounded_nodes=40)
    worst = 0.0
    for _ in range(20):
        coeffs = verify.random_field(rng, cfg, max_terms=3, n_inf=1, k_total=1)
        v = verify.random_point(rng, cfg, scale=0.3)
        f = S.synthesized_function(cfg, coeffs)
        section = S.kernel_section(cfg, v, 1e-10)
        lhs = Q.inner_product(cfg, f, section, grid, refine=False).value
        rhs = tf.synthesize(cfg, coeffs, v)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    dt = time.time() - t0
    report(
        4,
        worst <= 1e-5 and dt < 180.0,
        f"reproducing property (g=2, r=1, 20 random f, v): defect {worst:.2e} "
        f"(<=1e-5), {dt:.0f}s (<180s)",
    )


def _box_series(cfg, u, v):
    """The kernel's basis expansion at (u, v) over the box |n_j| <= 8, |k| <= 40."""
    idxs = S.series_indices(cfg, 8, 40)
    a = np.exp(-0.5 * S._log_norms(cfg, idxs))[:, None] * S.basis_eval_many(
        cfg, idxs, [u.z, v.z], [u.z_perp, v.z_perp])
    return complex(a[:, 0] @ a[:, 1].conj())


def test_criterion_5_kernel_series():
    t0 = time.time()
    rng = np.random.default_rng(505)
    configs = [
        make_config(np.eye(1), [[1.0]], [0.2], math.pi),
        make_config(np.eye(2), [[1.0, 1j]], [0.3], math.pi),
        make_config(np.eye(2), [[1.0, 0.0], [0.0, 1.0]], [0.3, 0.7], 2.0),
    ]
    worst = 0.0
    pairs = 0
    for cfg in configs:
        for _ in range(7):
            if pairs == 20:
                break
            u = verify.random_point(rng, cfg, scale=0.4)
            v = verify.random_point(rng, cfg, scale=0.4)
            closed = tf.kernel_eval(cfg, u, v, 1e-12)
            # the series over the indices the points need agrees with a fixed box
            series = verify._kernel_series(cfg, [u], [v])[0, 0]
            assert abs(series - _box_series(cfg, u, v)) <= 1e-10, "series differs from the box"
            worst = max(worst, abs(closed - series))
            pairs += 1
    dt = time.time() - t0
    report(
        5,
        worst <= 1e-8 and pairs == 20 and dt < 60.0,
        f"kernel closed form vs basis series at {pairs} random pairs: "
        f"abs defect {worst:.2e} (<=1e-8), {dt:.0f}s (<60s)",
    )


def test_criterion_6_evaluation_bound():
    t0 = time.time()
    rng = np.random.default_rng(606)
    failures = 0
    worst_ratio = 0.0
    for i in range(100):
        g = int(rng.integers(1, 3))
        r = int(rng.integers(0, g + 1))
        cfg = verify.random_config(rng, g, r)
        coeffs = verify.random_field(rng, cfg)
        u = verify.random_point(rng, cfg, scale=0.8)
        rep = tf.evaluation_bound_check(cfg, coeffs, u)
        if not rep.holds:
            failures += 1
        if rep.rhs > 0:
            worst_ratio = max(worst_ratio, rep.lhs / rep.rhs)
    dt = time.time() - t0
    report(
        6,
        failures == 0 and dt < 10.0,
        f"evaluation bound |f| <= sqrt(K~) ||f|| on 100 random (f, u): "
        f"{failures} failures, worst ratio {worst_ratio:.6f}, {dt:.1f}s (<10s)",
    )


def test_criterion_7_theta_correctness():
    t0 = time.time()
    # brute-force oracle for the reference value
    brute = sum(math.exp(-math.pi * n * n) for n in range(-20, 21))
    params = tf.validate_parameters([[1j]])
    got = tf.theta_eval(params, [0.0], 1e-13).value
    ref_ok = abs(got - brute) <= 1e-12

    rng = np.random.default_rng(707)
    tol = 1e-10
    worst_qp = 0.0
    worst_shift = 0.0
    for i in range(50):
        r = int(rng.integers(1, 3))
        A = rng.standard_normal((r, r))
        # keep |theta| moderate so the 2 tol budget is truncation-dominated:
        # summation rounding scales with the value magnitude
        Y = 0.15 * (A @ A.T) + 0.5 * np.eye(r)
        X = rng.standard_normal((r, r))
        F = 0.3 * (X + X.T) + 1j * Y
        alpha = rng.uniform(0, 1, r)
        beta = rng.uniform(0, 1, r)
        p = tf.validate_parameters(F, alpha, beta)
        z = 0.25 * (rng.standard_normal(r) + 1j * rng.standard_normal(r))
        m = rng.integers(-2, 3, size=r)
        m2 = np.zeros(r, dtype=int)
        m2[rng.integers(0, r)] = rng.integers(-1, 2)
        worst_qp = max(worst_qp, tf.theta_quasiperiodicity_defect(p, z, m, m2, tol))
        p_shift = tf.validate_parameters(F, alpha + m, beta)
        worst_shift = max(
            worst_shift,
            abs(tf.theta_eval(p_shift, z, tol).value - tf.theta_eval(p, z, tol).value),
        )

    # certified bound dominates the empirical tail along a radius grid
    sound = True
    for i in range(5):
        r = int(rng.integers(1, 3))
        A = rng.standard_normal((r, r))
        F = 1j * (A @ A.T + 0.7 * np.eye(r))
        p = tf.validate_parameters(F, rng.uniform(0, 1, r))
        z = 0.5 * (rng.standard_normal(r) + 1j * rng.standard_normal(r))
        ref = tf.theta_eval(p, z, 1e-13)
        for tk in np.logspace(-2, -10, 9):
            approx = tf.theta_eval(p, z, float(tk))
            if abs(approx.value - ref.value) > approx.tail_bound + ref.tail_bound:
                sound = False
    dt = time.time() - t0
    report(
        7,
        ref_ok and worst_qp <= 2 * tol and worst_shift <= 2 * tol and sound and dt < 30.0,
        f"theta: reference defect {abs(got - brute):.2e} (<=1e-12), "
        f"quasi-periodicity {worst_qp:.2e} and characteristic shift "
        f"{worst_shift:.2e} (<=2e-10) over 50 sets, tails sound: {sound}, "
        f"{dt:.1f}s (<30s)",
    )


def test_criterion_8_degenerate_reductions():
    rng = np.random.default_rng(808)

    # r = 0: kernel must reduce bit-exactly to the Gaussian-monomial kernel
    cfg0 = make_config(np.eye(2), [], [], 2.5)
    ok0 = True
    for _ in range(10):
        u = verify.random_point(rng, cfg0)
        v = verify.random_point(rng, cfg0)
        got = tf.kernel_eval(cfg0, u, v, 1e-10)
        direct = (2.5 / math.pi) ** 2 * np.exp(2.5 * S.perp_inner(u.z_perp, v.z_perp))
        ok0 = ok0 and got == complex(direct)

    # r = g: no perpendicular factor survives
    cfgg = make_config(np.eye(2), [[1.0, 0.0], [0.0, 1.0]], [0.3, 0.1], math.pi)
    lat = cfgg.lattice
    okg = True
    for _ in range(10):
        uz = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        vz = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        u = PointCoordinates(uz, np.zeros(0))
        v = PointCoordinates(vz, np.zeros(0))
        got = tf.kernel_eval(cfgg, u, v, 1e-10)
        C = (
            math.sqrt(lat.det_b)
            * (2 * cfgg.nu / math.pi) ** (2 / 2.0)
            * (cfgg.nu / math.pi) ** 0.0
        )
        outer_log = (
            0.5 * cfgg.nu * b_form(lat, uz[None, :], uz[None, :])[0]
            + np.conj(0.5 * cfgg.nu * b_form(lat, vz[None, :], vz[None, :])[0] + 0j)
            + cfgg.nu * S.perp_inner(np.zeros(0), np.zeros(0))
            + 0j
        )
        outer = C * np.exp(outer_log)
        theta_val = tf.theta_eval(
            cfgg.theta_params, uz - np.conj(vz), 1e-10 / max(abs(outer), 1e-290)
        ).value
        okg = okg and got == complex(outer * theta_val)
    report(
        8,
        ok0 and okg,
        f"degenerate reductions bit-compare: r=0 {'ok' if ok0 else 'FAIL'}, "
        f"r=g {'ok' if okg else 'FAIL'}",
    )


def test_criterion_9_rdq_gate():
    rng = np.random.default_rng(909)
    cfg = make_config(np.eye(2), [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 2.0)
    lat = cfg.lattice
    worst = 0.0
    for _ in range(100):
        chi = Character(rng.uniform(0, 1, 2))
        rep = tf.check_rdq(lat, chi, nu=cfg.nu)
        assert rep.passed
        worst = max(worst, rep.worst_defect)

    def bad_chi(m):
        m = np.asarray(m, dtype=float)
        return np.exp(2j * np.pi * (0.3 * m[0] + 0.7 * m[1]) + 1j * m[0] * m[1])

    rep_bad = tf.check_rdq(lat, bad_chi, nu=cfg.nu)
    report(
        9,
        worst <= 1e-12 and not rep_bad.passed and rep_bad.worst_defect > 0,
        f"cocycle gate: 100 random characters pass (worst defect {worst:.2e}), "
        f"constructed non-character fails with defect {rep_bad.worst_defect:.3e} > 0",
    )
