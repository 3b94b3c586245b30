"""In-memory span recorder and module-boundary wrappers for the traced run.

The traced run measures thetafock from outside: it replaces public
functions in the package's module namespaces with wrappers that open a
span around the original call and return its result unchanged.  Modules
look these names up at call time, so calls between layers are captured
without touching the package source.  Counters are read only from public
return values and arguments (plan index sets, result arrays, grid shapes).

Spans are kept in memory as (name, start, end, parent, op) rows and are
written out when the run ends.  A span's self time is its duration minus
the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

# Span names whose wall time is benchmark overhead rather than library work.
COUNTER_SPAN = "bench.counters"
OP_SPAN = "bench.op"

# Factories whose returned closure is wrapped under the factory's span name,
# so the closure's self time lands in the right layer.
CLOSURE_FACTORIES = {"kernel_section", "synthesized_function", "basis_family", "basis_function"}

# Functions that share one span name: planning-free theta summation.
SPAN_ALIASES = {"theta.theta_eval": "theta.eval", "theta.eval_with_plan": "theta.eval"}

LAYERS = ("theta", "space", "quadrature", "geometry", "verify", "problem", "cli")


class Tracer:
    """Single-threaded span stack plus per-phase counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counters = defaultdict(float)  # (phase, name) -> value
        self.op = -1  # -1 while setting up, else the index of the running op
        self._stack = []

    @property
    def phase(self) -> str:
        return "setup" if self.op < 0 else "ops"

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), math.nan, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def count(self, name: str, value: float) -> None:
        self.counters[(self.phase, name)] += value

    def wrap(self, name: str, fn, counter=None):
        """Wrapper recording a span around fn; returns fn's result as is."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                index = self.begin(COUNTER_SPAN)
                try:
                    counter(self, result, args, kwargs)
                finally:
                    self.end(index)
            return result

        return traced


def self_times(spans):
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for row in spans:
        if row[3] >= 0:
            children[row[3]].append((row[1], row[2]))
    out = []
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# counters, computed from public return values and arguments


def _arg(args, kwargs, position, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def minimal_terms(params, plan, tol: float) -> int:
    """Fewest largest-magnitude plan terms whose omitted magnitudes sum to <= tol."""
    idx = np.asarray(plan.index_set, dtype=float)
    if idx.shape[0] == 0 or idx.shape[1] == 0:
        return int(idx.shape[0])
    d = (idx - plan.center) @ np.asarray(params.y_sqrt).T
    log_rel = plan.log_prefactor - math.pi * np.einsum("ij,ij->i", d, d) - math.log(tol)
    ascending = np.sort(np.exp(np.minimum(log_rel, 700.0)))
    omitted = int(np.searchsorted(np.cumsum(ascending), 1.0, side="right"))
    return int(idx.shape[0]) - omitted


def _count_plan(tracer, plan, args, kwargs):
    tracer.count("theta.truncation_plan.calls", 1)
    tracer.count("theta.terms_kept", plan.index_set.shape[0])
    tracer.count("theta.terms_minimal", minimal_terms(args[0], plan, _arg(args, kwargs, 2, "tol")))


def _count_theta_many(tracer, result, args, kwargs):
    tracer.count("theta.theta_eval_many.points", len(result[0]))


def _count_basis(tracer, result, args, kwargs):
    tracer.count("space.basis_values", result.size)


def _count_build_grid(tracer, grid, args, kwargs):
    tracer.count("quadrature.build_grid.calls", 1)


def _level_nodes(grid, refine: bool) -> int:
    nodes = int(np.prod(grid.base.shape))
    return nodes + int(np.prod(grid.fine.shape)) if refine else nodes


def _count_gram(tracer, result, args, kwargs):
    nodes = _level_nodes(_arg(args, kwargs, 2, "grid"), _arg(args, kwargs, 3, "refine", True))
    tracer.count("quadrature.nodes", nodes)
    tracer.count("quadrature.integrand_bytes", nodes * result[0].shape[0] * 16)


def _count_inner(tracer, result, args, kwargs):
    nodes = _level_nodes(_arg(args, kwargs, 3, "grid"), _arg(args, kwargs, 4, "refine", True))
    tracer.count("quadrature.nodes", nodes)
    tracer.count("quadrature.integrand_bytes", nodes * 2 * 16)


COUNTERS = {
    "theta.truncation_plan": _count_plan,
    "theta.theta_eval_many": _count_theta_many,
    "space.basis_eval_many": _count_basis,
    "quadrature.build_grid": _count_build_grid,
    "quadrature.gram_matrix": _count_gram,
    "quadrature.inner_product": _count_inner,
}


# ---------------------------------------------------------------------------
# installing the wrappers


def _public_functions(module):
    names = list(getattr(module, "__all__", ()))
    if module.__name__.endswith(".space"):
        names.append("basis_family")  # public helper used by Gram batteries
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _closure_factory(tracer, span, factory):
    @functools.wraps(factory)
    def make(*args, **kwargs):
        index = tracer.begin(span)
        try:
            inner = factory(*args, **kwargs)
        finally:
            tracer.end(index)
        return tracer.wrap(span, inner)  # wraps() copies a family's .size

    return make


def install(tracer: Tracer):
    """Wrap the public functions of every thetafock module; returns an undo list.

    Every namespace that holds the original function object (the defining
    module, the package, and modules that imported it by name) gets the
    wrapper, so the span is recorded whichever name the caller used.
    """
    from thetafock import geometry, problem, quadrature, space, theta, verify

    modules = [m for m in sys.modules.values()
               if getattr(m, "__name__", "").startswith("thetafock")]
    undo = []
    for module in (theta, space, quadrature, geometry, verify, problem):
        layer = module.__name__.rsplit(".", 1)[-1]
        for name, original in _public_functions(module):
            span = SPAN_ALIASES.get(f"{layer}.{name}", f"{layer}.{name}")
            if name in CLOSURE_FACTORIES:
                wrapper = _closure_factory(tracer, span, original)
            else:
                wrapper = tracer.wrap(span, original, COUNTERS.get(span))
            for namespace in modules:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        undo.append((namespace, attr, original))
                        setattr(namespace, attr, wrapper)
    for method in ("add", "to_json"):
        original = getattr(problem.ResultDocument, method)
        undo.append((problem.ResultDocument, method, original))
        setattr(problem.ResultDocument, method,
                tracer.wrap(f"problem.ResultDocument.{method}", original))
    return undo


def uninstall(undo) -> None:
    for namespace, attr, original in reversed(undo):
        setattr(namespace, attr, original)


# ---------------------------------------------------------------------------
# turning spans into per-layer figures


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


def summarize(spans):
    """{"setup" | "ops": {span name: self seconds}} over all spans."""
    out = defaultdict(lambda: defaultdict(float))
    for row, self_s in zip(spans, self_times(spans)):
        out["setup" if row[4] < 0 else "ops"][row[0]] += self_s
    return out
