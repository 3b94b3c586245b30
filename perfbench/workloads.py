"""The four benchmark workloads: seeded inputs, ops, references and checks.

Every input is drawn here from the workload seed, never from
``thetafock.verify``, so a change to the verification helpers cannot shift
a workload.  Lattices are real: a real symmetric positive definite H and
real generators, which are isotropic by construction (Im H(u, v) = 0).

A workload exposes ``setup()`` (input generation and set-up a user pays
once; timed as set-up), ``references()`` (values the checks compare
against; not timed) and ``ops`` / ``checks``: one pass of the closed loop.
Ops call the library through module attributes at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

import reference as ref

import thetafock
from thetafock import geometry as G
from thetafock import quadrature as Q
from thetafock import space as S
from thetafock import theta as T


def _orthogonal(rng, g: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((g, g)))
    return q * np.sign(np.diag(r))


def real_config(rng, g: int, r: int, spread: float, nu_range, alpha_max: float):
    """Config with real SPD H and real generators whose Gram matrix B is diagonal.

    Rows of P H^(-1/2), P orthogonal, are H-orthonormal; scaling row j by
    sqrt(b_j) gives B = diag(b).  A diagonal B keeps the oracle's Hermite
    directions aligned with the basis phases, as in the acceptance battery.
    """
    Q_ = _orthogonal(rng, g)
    d = rng.uniform(1.0, 1.0 + spread, g)
    H = (Q_ * d) @ Q_.T
    h_inv_sqrt = (Q_ / np.sqrt(d)) @ Q_.T
    b = rng.uniform(1.0, 1.0 + spread, r)
    gens = np.sqrt(b)[:, None] * (_orthogonal(rng, g) @ h_inv_sqrt)[:r]
    alpha = rng.uniform(0.0, alpha_max, r)
    nu = float(rng.uniform(*nu_range))
    lattice = G.build_lattice(G.validate_space(H), gens.astype(complex))
    return S.make_config(lattice, alpha, nu)


def _field(rng, config, terms: int, n_max: int, k_max: int):
    r, m = config.r, config.g - config.r
    entries = {}
    while len(entries) < terms:
        n = tuple(int(v) for v in rng.integers(-n_max, n_max + 1, r))
        k = tuple(int(v) for v in rng.integers(0, k_max + 1, m))
        if sum(k) <= k_max:
            entries[S.BasisIndex(n=n, k=k)] = complex(rng.standard_normal(), rng.standard_normal())
    return S.CoefficientField.from_dict(entries)


def _point(rng, config, scale: float, re_range=None):
    r, m = config.r, config.g - config.r
    if re_range is None:
        z = scale * (rng.standard_normal(r) + 1j * rng.standard_normal(r))
    else:
        z = rng.uniform(*re_range, r) + 1j * scale * rng.standard_normal(r)
    zp = scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return G.PointCoordinates(z=z, z_perp=zp)


class Workload:
    name = ""
    reduced = ""  # label for reduced node counts, if any

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = []
        self.checks = []
        self.known_defect = []  # per op: failure by NaN/inf/raise is a known seed defect
        self.meta = {}

    def setup(self) -> None:
        raise NotImplementedError

    def references(self) -> None:
        raise NotImplementedError

    def set_traced(self, on: bool) -> None:
        """Switch ops to their traced form where they run outside this process."""

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


class NormsOracle(Workload):
    name = "norms-oracle"
    reduced = "node counts reduced to (16,24), (16,28) for g2r2; acceptance uses (32,48)"

    BATTERY = (("g1r0", 1, 0), ("g1r1", 1, 1), ("g1r1b", 1, 1),
               ("g2r0", 2, 0), ("g2r1", 2, 1), ("g2r2", 2, 2))
    TOL = 1e-6

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        self.cases = []
        for label, g, r in self.BATTERY:
            config = real_config(rng, g, r, 0.1, (math.pi, 3.3), 0.3)
            idxs = [S.BasisIndex(n=n, k=k)
                    for n in itertools.product(range(-2, 3), repeat=r)
                    for k in itertools.product(range(3), repeat=g - r) if sum(k) <= 2]
            nodes = (16, 28) if label == "g2r2" else (16, 24)
            self.cases.append((label, config, idxs, nodes))
        self.ops = [self._battery]
        self.known_defect = [False]
        self.meta["configs"] = [c[0] for c in self.cases]
        self.meta["nodes"] = {c[0]: list(c[3]) for c in self.cases}

    def _battery(self):
        out = []
        for _label, config, idxs, (compact, unbounded) in self.cases:
            grid = Q.build_grid(config, requested_tol=self.TOL,
                                compact_nodes=compact, unbounded_nodes=unbounded)
            gram, _ = Q.gram_matrix(config, S.basis_family(config, idxs), grid)
            out.append(gram)
        return out

    def references(self):
        norms = [np.array([S.basis_norm_sq(c, i) for i in idxs]) for _, c, idxs, _ in self.cases]

        def check(grams):
            for (label, *_), gram, nrm in zip(self.cases, grams, norms):
                diag = float((np.abs(np.diag(gram).real - nrm) / nrm).max())
                off = float((np.abs(gram - np.diag(np.diag(gram))) / np.sqrt(np.outer(nrm, nrm))).max())
                if not (diag <= self.TOL and off <= self.TOL):
                    return f"{label}: diagonal defect {diag:.2e}, off-diagonal {off:.2e}"
            return ""

        self.checks = [check]


# ---------------------------------------------------------------------------


class ReproducingOracle(Workload):
    name = "reproducing-oracle"
    reduced = "node counts reduced to (16,24) for g2r1, (16,28) for g2r2; acceptance uses (24,40)"

    # Two g2r1 checks per g2r2 check: unequal shares keep the median inside
    # the g2r1 group instead of on the boundary between the two costs.
    MIX = (("g2r1", 1, (16, 24)), ("g2r1", 1, (16, 24)), ("g2r2", 2, (16, 28)))
    SECTION_TOL = 1e-10
    TOL = 1e-5

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        grids = {}
        for label, r, (compact, unbounded) in dict.fromkeys(self.MIX):
            config = real_config(rng, 2, r, 0.1, (math.pi, 3.3), 0.3)
            grids[label] = (config, Q.build_grid(config, compact_nodes=compact,
                                                 unbounded_nodes=unbounded))
        self.cases = []
        for label, _r, _nodes in self.MIX:
            config, grid = grids[label]
            coeffs = _field(rng, config, 3, 1, 1)
            v = _point(rng, config, 0.3)
            # |Im v| is fixed: it sets the batch theta index set, and with it
            # both the cost and the peak memory of the check.
            direction = rng.standard_normal(config.r)
            v = G.PointCoordinates(z=v.z.real + 0.3j * direction / np.linalg.norm(direction),
                                   z_perp=v.z_perp)
            self.cases.append((label, config, grid, coeffs, v))
        order = rng.permutation(len(self.cases))
        self.cases = [self.cases[i] for i in order]
        self.ops = [self._op(*case[1:]) for case in self.cases]
        self.known_defect = [False] * len(self.ops)
        self.meta["mix"] = [c[0] for c in self.cases]

    def _op(self, config, grid, coeffs, v):
        def check_one():
            f = S.synthesized_function(config, coeffs)
            section = S.kernel_section(config, v, self.SECTION_TOL)
            return Q.inner_product(config, f, section, grid, refine=False).value

        return check_one

    def references(self):
        def make(rhs):
            def check(lhs):
                defect = abs(lhs - rhs)
                bound = self.TOL * (1.0 + abs(rhs))
                return "" if defect <= bound else f"defect {defect:.2e} > {bound:.2e}"

            return check

        self.checks = [make(S.synthesize(c, coeffs, v)) for _, c, _, coeffs, v in self.cases]


# ---------------------------------------------------------------------------


class KernelPoints(Workload):
    name = "kernel-points"

    TOL = 1e-12
    KINDS = ("theta_eval", "kernel_eval", "kernel_diagonal", "evaluation_bound_check")
    # Ops per rank in one pass.  The 2:3:2:1 shares put the median inside the
    # rank-2 group rather than on a boundary between two ranks.
    RANK_OPS = {1: 256, 2: 384, 3: 256, 4: 128}
    CONFIGS_PER_RANK = 8  # many configs keep the median steady across seeds
    # Far-imaginary share at every rank: 1 in 128.  At r=4 such a point costs
    # ~1 s against a few ms near the domain, so a larger share would take
    # most of the run.
    FAR_EVERY = 128
    FAR_IM = (12.5, 17.5, 22.5, 27.5)

    def setup(self):
        rng = np.random.default_rng([self.seed, 4])
        configs = {}
        for r in self.RANK_OPS:
            configs[r] = []
            for i in range(self.CONFIGS_PER_RANK):
                g = r + i % (5 - r)  # every g from r to 4, the same for every seed
                config = real_config(rng, g, r, 0.2, (3.5, 4.0), 1.0)
                configs[r].append((config, _field(rng, config, 3, 1, 1)))
        # Far points run on one lattice per rank that does not depend on the
        # seed: at r=4 a far point takes ~45% of a pass, so its cost and its
        # plan's memory must not vary with the seed.
        far_rng = np.random.default_rng(0)
        far_configs = {}
        for r in self.RANK_OPS:
            config = real_config(far_rng, 4, r, 0.2, (3.5, 4.0), 1.0)
            far_configs[r] = (config, _field(far_rng, config, 3, 1, 1))
        self.cases = []
        far_slot = 0
        for r, count in self.RANK_OPS.items():
            far_ops = set(range(0, count, self.FAR_EVERY))
            for j in range(count):
                far = None
                if j in far_ops:
                    # kind and |Im z| cycle over far slots so each pass has the
                    # same far composition whatever the seed.
                    config, coeffs = far_configs[r]
                    kind = self.KINDS[far_slot % len(self.KINDS)]
                    far = self.FAR_IM[(far_slot + 2 * (far_slot // 4)) % len(self.FAR_IM)]
                    far_slot += 1
                else:
                    config, coeffs = configs[r][j % self.CONFIGS_PER_RANK]
                    kind = self.KINDS[(j // self.CONFIGS_PER_RANK) % len(self.KINDS)]
                u = _point(rng, config, 0.5, (-0.5, 1.0))
                v = _point(rng, config, 0.5, (-0.5, 1.0))
                if far is not None:
                    u = G.PointCoordinates(z=u.z.real + 1j * far / math.sqrt(r), z_perp=u.z_perp)
                self.cases.append((r, kind, far, config, coeffs, u, v))
        order = rng.permutation(len(self.cases))
        self.cases = [self.cases[i] for i in order]
        self.ops = [self._op(*case[1:]) for case in self.cases]
        self.known_defect = [case[2] is not None for case in self.cases]
        n_far = sum(self.known_defect)
        self.meta["ranks"] = {r: n for r, n in self.RANK_OPS.items()}
        self.meta["far_imaginary_share"] = n_far / len(self.cases)
        self.meta["far_imaginary_ops_per_pass"] = n_far
        self.meta["configs"] = {r: [[c.g, c.r] for c, _ in cs] for r, cs in configs.items()}

    def _op(self, kind, far, config, coeffs, u, v):
        tol = self.TOL
        if kind == "theta_eval":
            return lambda: T.theta_eval(config.theta_params, u.z, tol).value
        if kind == "kernel_eval":
            return lambda: S.kernel_eval(config, u, v, tol)
        if kind == "kernel_diagonal":
            return lambda: S.kernel_diagonal(config, u, tol)

        def bound():
            rep = S.evaluation_bound_check(config, coeffs, u, tol)
            return rep.lhs, rep.rhs, rep.holds

        return bound

    def references(self):
        self.checks = [self._check(*case[1:]) for case in self.cases]

    def _check(self, kind, far, config, coeffs, u, v):
        tol = self.TOL
        lat, alpha, nu = config.lattice, config.alpha, config.nu

        def verdict(ok, what):
            return "" if ok else f"{kind} differs from the brute-force reference ({what})"

        if kind == "theta_eval":
            p = config.theta_params
            L, m, am = ref.theta_log(p.F, p.alpha, p.beta, u.z)
            return lambda got: verdict(ref.close(got, L, m, am, tol), "theta")
        if kind == "kernel_eval":
            L, m, am = ref.kernel_log(lat.B, alpha, nu, u.z, u.z_perp, v.z, v.z_perp)
            return lambda got: verdict(ref.close(got, L, m, am, tol), "K(u,v)")
        L, m, am = ref.kernel_log(lat.B, alpha, nu, u.z, u.z_perp, u.z, u.z_perp)
        if kind == "kernel_diagonal":
            return lambda got: verdict(ref.close(got, L, m, am, tol), "K(u,u)")
        entries = [((idx.n, idx.k), a) for idx, a in coeffs.entries]
        f_u, f_abs = ref.basis_values(lat.B, alpha, nu, entries, u.z, u.z_perp)
        growth = S.growth_functional(config, coeffs)

        def check(got):
            lhs, rhs, holds = got
            if not holds:
                return "evaluation bound reported as violated"
            if abs(lhs - abs(f_u)) > ref.ROUNDING * f_abs:
                return verdict(False, "|f(u)|")
            return verdict(ref.close(rhs * rhs / growth, L, m, am, tol), "sqrt(K(u,u)) ||f||")

        return check


# ---------------------------------------------------------------------------


class CliVerbs(Workload):
    name = "cli-verbs"

    PROBLEMS = ("problems/g1_r1.json", "problems/g2_r1.json")

    def __init__(self, seed: int, out_dir: str, runner: str):
        super().__init__(seed)
        self.out_dir = out_dir
        self.runner = runner  # traced passes call this script instead of -m thetafock.cli
        self.traced = False

    def setup(self):
        from thetafock import problem as P

        rng = np.random.default_rng([self.seed, 5])
        g1, g2 = (P.load_problem(p) for p in self.PROBLEMS)

        def comps(flag, n):
            # --flag=value form: argparse would read a leading '-' as an option
            return [f"{flag}={rng.uniform(-0.5, 0.5):.6f},{rng.uniform(-0.5, 0.5):.6f}"
                    for _ in range(n)]

        seed_arg = ["--seed", str(int(rng.integers(0, 1000)))]
        a, b = self.PROBLEMS
        argv = [
            ["validate", a], ["validate", b],
            ["theta", a, *comps("--z", g1.r)], ["theta", b, *comps("--z", g2.r)],
            ["kernel", a, *comps("--u", g1.g), *comps("--v", g1.g)],
            ["kernel", b, *comps("--u", g2.g), *comps("--v", g2.g)],
            ["norms", a],
            ["verify", a, "--suite", "all", *seed_arg],
            ["verify", b, "--suite", "geometry", *seed_arg],
            ["verify", b, "--suite", "theta", *seed_arg],
            ["verify", b, "--suite", "bounds", *seed_arg],
        ]
        order = rng.permutation(len(argv))
        self.argv = [argv[i] for i in order]
        self.digests = {a: g1.digest, b: g2.digest}
        os.makedirs(self.out_dir, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.dirname(os.path.dirname(thetafock.__file__))
        self.ops = [self._op(i, args) for i, args in enumerate(self.argv)]
        self.known_defect = [False] * len(self.ops)
        self.meta["invocations"] = [" ".join(a) for a in self.argv]
        self.next_trace = 0

    def _out(self, i):
        return os.path.join(self.out_dir, f"result-{i}.json")

    def _op(self, i, args):
        def invoke():
            cmd = [sys.executable, "-m", "thetafock.cli"]
            if self.traced:
                cmd = [sys.executable, self.runner, self.trace_file(self.next_trace)]
                self.next_trace += 1
            proc = subprocess.run(cmd + args + ["--out", self._out(i)], env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=120)
            return proc.returncode

        return invoke

    def set_traced(self, on: bool) -> None:
        self.traced = on

    def trace_file(self, k):
        return os.path.join(self.out_dir, f"spans-{k}.json")

    def references(self):
        def make(i, args):
            def check(code):
                path = self._out(i)
                if code != 0:
                    return f"exit code {code}"
                try:
                    with open(path, encoding="utf-8") as fh:
                        doc = json.load(fh)
                except (OSError, json.JSONDecodeError) as exc:
                    return f"result document unreadable: {exc}"
                finally:
                    if os.path.exists(path):
                        os.remove(path)
                if doc.get("command") != args[0] or doc.get("status") != "ok":
                    return f"unexpected command/status {doc.get('command')}/{doc.get('status')}"
                if doc.get("config_digest") != self.digests[args[1]]:
                    return "config digest does not match the problem file"
                return ""

            return check

        self.checks = [make(i, args) for i, args in enumerate(self.argv)]

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (NormsOracle, ReproducingOracle, KernelPoints, CliVerbs)}
