"""Span and counter tracing of the library from outside.

``Tracer.install`` replaces public functions and methods of the library
with timing wrappers, in every ``wrvc`` module that binds them (a function
imported with ``from .geometry import curvature`` is also replaced in
``wrvc.weighted``), and ``uninstall`` puts the originals back.  Spans are
kept in memory as (name, start, end, parent, op) tuples; counters count
calls too frequent to time one by one (jet construction and products).
"""

from __future__ import annotations

import sys
import time

import stats

_perf = time.perf_counter


def _volume_name(args, kwargs):
    a = args[0] if args else kwargs["a"]
    return "rho.volume_coefficients_batched" if a.gcoeffs.ndim > 3 else "rho.volume_coefficients"


# (module, attribute, span name); a callable name picks the span per call
FUNCTION_SPANS = [
    ("wrvc.geometry", "christoffel", "geometry.christoffel"),
    ("wrvc.geometry", "curvature", "geometry.curvature"),
    ("wrvc.weighted", "weighted_invariants", "weighted.weighted_invariants"),
    ("wrvc.weighted", "sigma_k_phi", "weighted.sigma_k"),
    ("wrvc.rho", "volume_coefficients", _volume_name),
    ("wrvc.rho", "obstruction_tensors", "rho.obstruction_tensors"),
    ("wrvc.rho", "l_operator", "rho.l_operator"),
    ("wrvc.variational", "functional_F_k", "variational.functional_F_k"),
    ("wrvc.variational", "first_variation", "variational.first_variation"),
    ("wrvc.variational", "second_variation", "variational.second_variation"),
    ("wrvc.variational", "eigenvalue_bound_check", "variational.eigenvalue_bound_check"),
]

# (module, class, method, span name)
METHOD_SPANS = [
    ("wrvc.models", "ModelSpec", "structure_at", "models.structure_at"),
    ("wrvc.rho", "RhoSeries", "matrix_det", "rho.matrix_det"),
    ("wrvc.variational", "QuadratureGrid", "__init__", "variational.grid_build"),
    ("wrvc.cli", "ReportDocument", "to_json", "cli.render"),
    ("wrvc.cli", "ReportDocument", "to_text", "cli.render"),
] + [
    ("wrvc.fields", cls, meth, "fields.eval")
    for cls in ("Constant", "AmbientCoordinate", "Sum", "Product")
    for meth in ("value", "grad", "hess")
]

# (module, class, method, counter)
METHOD_COUNTERS = [
    ("wrvc.jets", "Jet", "__init__", "jets.built"),
    ("wrvc.jets", "Jet", "__mul__", "jets.products"),
    ("wrvc.jets", "Jet", "__rmul__", "jets.products"),
    ("wrvc.jets", "Jet", "apply", "jets.compositions"),
    ("wrvc.rho", "RhoSeries", "__mul__", "rho.series_products"),
    ("wrvc.rho", "RhoSeries", "__rmul__", "rho.series_products"),
]

SUITE_NAMES = ("jets", "curvature", "conformal", "ambient", "variational")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op = -1
        self._stack = []
        self._patches = []
        self._plan()

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (label, start, _perf(), parent, self.op)
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name):
        counters = self.counters
        counters.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _grid_build(self, fn):
        timed = self._span(fn, "variational.grid_build")
        counters = self.counters
        counters.setdefault("variational.grid_nodes", 0)

        def wrapper(grid, *args, **kwargs):
            timed(grid, *args, **kwargs)
            counters["variational.grid_nodes"] += grid.node_count

        return wrapper

    # -- patch plan ----------------------------------------------------------

    def _plan(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "wrvc" or k.startswith("wrvc."))]
        for mod_name, attr, name in FUNCTION_SPANS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._span(original, name)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original, wrapper))
        for mod_name, cls_name, meth, name in METHOD_SPANS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            if meth == "__init__" and cls_name == "QuadratureGrid":
                wrapper = self._grid_build(original)
            else:
                wrapper = self._span(original, name)
            self._patches.append((cls, meth, original, wrapper))
        for mod_name, cls_name, meth, name in METHOD_COUNTERS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original, self._count(original, name)))
        suites = sys.modules["wrvc.suites"].SUITES
        for name in SUITE_NAMES:
            original = suites[name]
            self._patches.append((suites, name, original,
                                  self._span(original, f"suites.{name}")))

    def install(self, op: int):
        self.op = op
        for target, attr, _, wrapper in self._patches:
            _set(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original, _ in self._patches:
            _set(target, attr, original)
        self._stack.clear()


def _set(target, attr, value):
    if isinstance(target, dict):
        target[attr] = value
    else:
        setattr(target, attr, value)


# -- per-layer metrics ---------------------------------------------------------
#
# Which end-to-end metric each layer metric should move, and on which workload:
#   jets.*_per_op, models.structure_at_ms, geometry.*, weighted.*:
#       throughput_per_s and latency_p50_ms on pointwise, and latency_p50_ms on
#       verify (weighted_invariants runs 189 times per verify op)
#   rho.volume_coefficients_ms, rho.obstruction_tensors_ms, rho.l_operator_ms,
#   rho.matrix_det_ms, rho.series_products_per_op: throughput_per_s on ambient
#   rho.volume_coefficients_batched_ms, variational.grid_build_ms,
#   variational.functional_F_k_ms, variational.second_variation_self_ms,
#   fields.eval_ms: latency_p50_ms on quadrature
#   variational.grid_nodes: peak_rss_mb on quadrature
#   variational.eigenvalue_bound_check_ms, suites.*_ms, cli.render_ms:
#       latency_p50_ms on verify
# A layer a workload never reaches reads 0 there.

# metric -> (span name, "total" over outermost spans | "self" | "calls")
SPAN_METRICS = {
    "models.structure_at_ms": ("models.structure_at", "total"),
    "geometry.christoffel_ms": ("geometry.christoffel", "total"),
    "geometry.curvature_self_ms": ("geometry.curvature", "self"),
    "weighted.weighted_invariants_self_ms": ("weighted.weighted_invariants", "self"),
    "weighted.weighted_invariants_calls_per_op": ("weighted.weighted_invariants", "calls"),
    "weighted.sigma_k_ms": ("weighted.sigma_k", "total"),
    "rho.volume_coefficients_ms": ("rho.volume_coefficients", "total"),
    "rho.volume_coefficients_batched_ms": ("rho.volume_coefficients_batched", "total"),
    "rho.obstruction_tensors_ms": ("rho.obstruction_tensors", "total"),
    "rho.l_operator_ms": ("rho.l_operator", "total"),
    "rho.matrix_det_ms": ("rho.matrix_det", "total"),
    "variational.grid_build_ms": ("variational.grid_build", "total"),
    "variational.functional_F_k_ms": ("variational.functional_F_k", "total"),
    "variational.second_variation_self_ms": ("variational.second_variation", "self"),
    "variational.eigenvalue_bound_check_ms": ("variational.eigenvalue_bound_check", "total"),
    "fields.eval_ms": ("fields.eval", "total"),
    "cli.render_ms": ("cli.render", "total"),
}
SPAN_METRICS.update({
    f"suites.{name}_ms": (f"suites.{name}", "total") for name in SUITE_NAMES
})

COUNTER_METRICS = {
    "jets.built_per_op": "jets.built",
    "jets.products_per_op": "jets.products",
    "jets.compositions_per_op": "jets.compositions",
    "rho.series_products_per_op": "rho.series_products",
    "variational.grid_nodes": "variational.grid_nodes",
}


def layer_metrics(spans, counters, ops: int) -> dict:
    """Per-op averages over ``ops`` traced operations: times in ms
    (inclusive over outermost spans, or self time), call counts and
    counter values."""
    selfs = stats.self_times(spans)
    out = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        idx = [i for i, s in enumerate(spans) if s[0] == span]
        if kind == "calls":
            value = len(idx)
        elif kind == "self":
            value = sum(selfs[i] for i in idx) * 1e3
        else:
            value = sum(spans[i][2] - spans[i][1] for i in idx
                        if stats.outermost(spans, i)) * 1e3
        out[metric] = value / ops
    for metric, counter in COUNTER_METRICS.items():
        out[metric] = counters.get(counter, 0) / ops
    return out
