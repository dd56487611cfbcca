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


# the shrunken sizes of perfbench/test_harness.py
TINY = {
    "explain-vit": {"model": {"depth": 1, "hidden": 16, "heads": 2, "num_tokens": 6,
                              "token_input_dim": 4, "num_classes": 3},
                    "reduction": 2, "n_samples": 8, "batch": 2},
    "oracle-d12": {"d": 5, "token_dim": 3, "hidden": 8, "depth": 1, "heads": 2,
                   "n_samples": 20, "kernel_samples": 512},
    "pipeline-d16": {"d": 6, "token_dim": 3, "n_samples": 120,
                     "epochs": {"classifier": 1, "surrogate": 1, "explainer": 1},
                     "masks_per_input": 4, "mask_bank": 4, "eval_samples": 3},
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_and_verifies_untraced(workload, tmp_path):
    """Set-up, cold start and one operation of a shrunken workload pass their checks.

    This reaches every method the workload calls, traced or not (``to_dict``,
    ``load_side_state``, ...).
    """
    assert sorted(TINY) == sorted(workloads.WORKLOADS)
    wl = workloads.WORKLOADS[workload](str(tmp_path), 3, **TINY[workload])
    wl.setup()
    verifies = [] if wl.cold_after_ops else [wl.cold_start()]
    verifies.append(wl.op(0))
    if wl.cold_after_ops:
        verifies.append(wl.cold_start())
    for verify in verifies:
        verify()


def test_explain_runs_the_backbone_once_under_the_benchmark_tracer(tmp_path):
    """The benchmark's own counter reads one backbone pass per ``explain``: v(x_0)
    is taken when the model is built, outside the traced operation."""
    wl = workloads.WORKLOADS["explain-vit"](str(tmp_path), 3, **TINY["explain-vit"])
    wl.setup()
    with tracing.Tracer(sideshap) as tracer:
        verify = wl.op(0)
    verify()
    metrics, notes = tracing.layer_metrics(tracing.SpanTable(tracer))
    assert "transformer.backbone_passes_per_explain" not in notes
    assert metrics["transformer.backbone_passes_per_explain"] == 1.0
    assert tracing.find_wrappers(sideshap) == []


@pytest.mark.parametrize("workload", ["explain-vit", "oracle-d12"])
def test_counted_macs_equal_the_analytic_ones(workload, tmp_path, monkeypatch):
    """The benchmark's MAC gate: a batch-1 classifier forward and one pass of each
    branch run exactly the matmul MACs that ``evaluation`` counts analytically."""
    monkeypatch.syspath_prepend(PERFBENCH)  # ``run.probe_macs`` runs ``import tracing``
    run = _load("run")
    wl = workloads.WORKLOADS[workload](str(tmp_path), 3, **TINY[workload])
    wl.setup()
    counted, analytic = run.probe_macs(sideshap, wl)
    assert len(counted) == 3
    assert counted == analytic
    assert tracing.find_wrappers(sideshap) == []


def test_checkpoint_digest_is_traced_from_save_and_load(tmp_path):
    """explain-vit's set-up saves and its cold start loads checkpoints through
    ``checkpoint.fnv1a_64``, which the benchmark times as ``checkpoint.digest_s``."""
    wl = workloads.WORKLOADS["explain-vit"](str(tmp_path), 3, **TINY["explain-vit"])
    with tracing.Tracer(sideshap) as tracer:
        wl.setup()
        verify = wl.cold_start()
    verify()
    table = tracing.SpanTable(tracer)
    digests = table.select("checkpoint.fnv1a_64")
    callers = table.nearest_ancestor(["checkpoint.save_checkpoint",
                                      "checkpoint.load_checkpoint"])[digests]
    assert digests.sum() and (callers >= 0).all()
    assert {table.names[table.name[i]] for i in callers} == {
        "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"}
    metrics, _ = tracing.layer_metrics(table)
    assert metrics["checkpoint.digest_s"] > 0
    assert tracing.find_wrappers(sideshap) == []
