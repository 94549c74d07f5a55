"""The benchmark tracer still patches the library.

``perfbench/tracing.py`` finds the functions and methods it wraps by name,
so a refactor that deletes or renames one of them breaks ``--trace 1``
runs of the benchmark.  This runs one op and its check of every workload
under the tracer and requires the spans that the per-layer metrics read.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 20240601


def _bindings():
    """Every attribute the tracer replaces, by where it lives."""
    wrvc_modules = {k: m for k, m in sys.modules.items()
                    if m is not None and (k == "wrvc" or k.startswith("wrvc."))}
    out = {}
    for _, attr, _ in tracing.FUNCTION_SPANS:
        for name, mod in wrvc_modules.items():
            out[(name, attr)] = getattr(mod, attr, None)
    for mod_name, cls, meth, _ in tracing.METHOD_SPANS + tracing.METHOD_COUNTERS:
        out[(mod_name, cls, meth)] = getattr(sys.modules[mod_name], cls).__dict__[meth]
    for name, suite in sys.modules["wrvc.suites"].SUITES.items():
        out[("suites", name)] = suite
    return out


@pytest.fixture(scope="module")
def traced_run():
    """(bindings before, bindings after, span names) of one traced op per
    workload."""
    before = _bindings()
    tracer = tracing.Tracer()
    for op, cls in enumerate((workloads.Pointwise, workloads.Ambient,
                              workloads.Quadrature, workloads.Verify)):
        workload = cls(SEED)
        tracer.install(op)
        try:
            workload.check(0, workload.op(0))
        finally:
            tracer.uninstall()
    return before, _bindings(), {span[0] for span in tracer.spans}


def test_tracer_restores_originals(traced_run):
    before, after, _ = traced_run
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("name", ["geometry.christoffel", "geometry.curvature",
                                  "weighted.weighted_invariants", "models.structure_at",
                                  "fields.eval", "variational.grid_build"] + [
    f"suites.{suite}" for suite in tracing.SUITE_NAMES
])
def test_tracer_records_span(traced_run, name):
    assert name in traced_run[2]
