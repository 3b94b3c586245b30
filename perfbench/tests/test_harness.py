"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

import thetafock as tf  # noqa: E402
from thetafock import quadrature as Q  # noqa: E402
from thetafock import space as S  # noqa: E402
from thetafock import theta as T  # noqa: E402


# --- percentile rule -------------------------------------------------------


@pytest.mark.parametrize("n, percentile, beyond", [
    (19, None, None),
    (20, 50.0, 10),
    (40, 75.0, 10),
    (100, 90.0, 10),
    (999, 95.0, 49),
    (1000, 99.0, 10),
    (9999, 99.0, 99),
    (10000, 99.9, 10),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile, beyond):
    samples = list(np.random.default_rng(n).permutation(n).astype(float))
    tail = harness.tail_percentile(samples)
    if percentile is None:
        assert tail is None
        return
    assert (tail["percentile"], tail["beyond"], tail["samples"]) == (percentile, beyond, n)
    assert sum(1 for s in samples if s > tail["value"]) == beyond


# --- self time -------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    root = tracer.begin("root")            # 0
    child = tracer.begin("child")          # 1
    grandchild = tracer.begin("grand")     # 2
    tracer.end(grandchild)                 # 3
    tracer.end(child)                      # 4
    second = tracer.begin("second")        # 5
    tracer.end(second)                     # 6
    tracer.end(root)                       # 10
    assert spans.self_times(tracer.spans) == [10.0 - 3.0 - 1.0, 3.0 - 1.0, 1.0, 1.0]
    assert [row[3] for row in tracer.spans] == [-1, 0, 1, 0]


def test_self_times_sum_to_root_duration():
    tracer = spans.Tracer()
    outer = tracer.wrap("outer", lambda: inner() + inner())
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer()
    root = tracer.spans[0]
    assert math.isclose(sum(spans.self_times(tracer.spans)), root[2] - root[1], rel_tol=1e-9)


# --- failure counting ------------------------------------------------------


def test_failures_are_counted_by_kind():
    def boom():
        raise ValueError("no")

    ops = [lambda: 1.0, lambda: float("nan"), lambda: (1.0, complex(math.inf, 0)), boom,
           lambda: 2.0]
    checks = [lambda v: ""] * 4 + [lambda v: "wrong value"]
    loop = harness.Loop()
    loop.run(ops, checks, passes=2)
    assert loop.attempted == 10 and loop.failed == 8
    kinds = [o.kind for _, o in loop.outcomes[:5]]
    assert kinds == ["ok", "error", "error", "error", "wrong"]
    assert loop.figures()["fail_frac"] == 0.8


# --- wrappers are transparent ----------------------------------------------


def _config():
    rng = np.random.default_rng(7)
    import workloads

    return workloads.real_config(rng, 2, 1, 0.1, (math.pi, 3.3), 0.3)


def _library_calls(config):
    u = tf.PointCoordinates(np.array([0.2 + 0.1j]), np.array([0.1 - 0.3j]))
    v = tf.PointCoordinates(np.array([-0.1 + 0.2j]), np.array([0.2 + 0.1j]))
    coeffs = S.CoefficientField.from_dict({tf.BasisIndex(n=(1,), k=(0,)): 1 + 2j,
                                           tf.BasisIndex(n=(0,), k=(1,)): -0.5j})
    grid = Q.build_grid(config, compact_nodes=8, unbounded_nodes=10)
    idxs = [tf.BasisIndex(n=(n,), k=(k,)) for n, k in itertools.product(range(-1, 2), range(2))]
    section = S.kernel_section(config, v, 1e-10)
    return [
        T.theta_eval(config.theta_params, u.z, 1e-12),
        T.theta_eval_many(config.theta_params, np.array([[0.1 + 0.2j], [0.3 - 0.1j]]), 1e-12),
        S.kernel_eval(config, u, v, 1e-12),
        S.kernel_diagonal(config, u, 1e-12),
        S.evaluation_bound_check(config, coeffs, u),
        Q.gram_matrix(config, S.basis_family(config, idxs), grid),
        Q.inner_product(config, S.synthesized_function(config, coeffs), section, grid,
                        refine=False).value,
        tf.theta_eval(config.theta_params, u.z, 1e-10),
    ]


def _same(a, b):
    if isinstance(a, tuple) and not hasattr(a, "__dataclass_fields__"):
        return all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def test_wrappers_return_results_bit_for_bit():
    config = _config()
    plain = _library_calls(config)
    tracer = spans.Tracer()
    originals = (T.truncation_plan, S.basis_eval_many, Q.gram_matrix, tf.theta_eval)
    undo = spans.install(tracer)
    try:
        assert T.truncation_plan is not originals[0] and tf.theta_eval is not originals[3]
        traced = _library_calls(config)
    finally:
        spans.uninstall(undo)
    assert (T.truncation_plan, S.basis_eval_many, Q.gram_matrix, tf.theta_eval) == originals
    assert all(_same(a, b) for a, b in zip(plain, traced))
    names = {row[0] for row in tracer.spans}
    assert {"theta.truncation_plan", "theta.eval", "theta.theta_eval_many",
            "space.kernel_section", "space.basis_eval_many", "quadrature.gram_matrix",
            "quadrature.inner_product", "quadrature.build_grid"} <= names
    assert tracer.counters[("setup", "theta.truncation_plan.calls")] > 0


def test_wrap_returns_the_same_object():
    marker = object()
    tracer = spans.Tracer()
    assert tracer.wrap("x", lambda: marker)() is marker


# --- counters and references -----------------------------------------------


def test_minimal_terms_counts_only_what_tol_needs():
    params = T.validate_parameters([[1j]])
    plan = T.truncation_plan(params, [0.0], 1e-12)
    loose = spans.minimal_terms(params, plan, 1e-2)
    tight = spans.minimal_terms(params, plan, 1e-12)
    assert 1 <= loose < tight <= plan.index_set.shape[0]


def test_references_agree_with_the_library_near_the_domain():
    config = _config()
    lat = config.lattice
    u = tf.PointCoordinates(np.array([0.3 + 0.2j]), np.array([0.1 + 0.1j]))
    v = tf.PointCoordinates(np.array([-0.2 - 0.1j]), np.array([0.3 - 0.2j]))
    p = config.theta_params
    L, m, am = reference.theta_log(p.F, p.alpha, p.beta, u.z)
    assert reference.close(T.theta_eval(p, u.z, 1e-12).value, L, m, am, 1e-12)
    L, m, am = reference.kernel_log(lat.B, config.alpha, config.nu, u.z, u.z_perp, v.z, v.z_perp)
    got = S.kernel_eval(config, u, v, 1e-12)
    assert reference.close(got, L, m, am, 1e-12)
    assert not reference.close(got * (1 + 1e-9), L, m, am, 1e-12)


def test_close_decides_beyond_the_double_range():
    assert reference.close(2.0, 800.0, 0.0, 1.0, 1e-12)  # value ~0 after cancellation
    assert not reference.close(1.0, 800.0, 1.0, 1.0, 1e-12)
    assert not reference.close(math.nan, 0.0, 1.0, 1.0, 1e-12)


# --- benchmark definition --------------------------------------------------


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["metrics"]
    assert bench["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")} for m in layers]
    import run

    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOAD_NAMES)
