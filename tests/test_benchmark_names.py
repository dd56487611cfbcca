"""Every name the benchmark's traced runs check is still an entry point it wraps.

The benchmark in ``perfbench/`` wraps sideshap's functions by name and fails
a traced run when a ``must_fire`` or ``must_be_zero`` name is not among them.
This test loads its tracer and workloads by path, so a rename fails here.
"""

import importlib.util
import os

import pytest

import sideshap

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_checked_span_names_are_traced(workload):
    w = workloads.WORKLOADS[workload]
    targets = {name for name, _, _ in tracing.Tracer(sideshap).targets()}
    checked = set(w.must_fire) | set(w.must_be_zero)
    assert checked
    assert sorted(checked - targets) == []
