"""Self-tests of the benchmark harness: span accounting, wrapper install and
removal, and the per-workload firing predictions on shrunken workloads.

    python3 -m pytest perfbench
"""

import json
import os
import time

import numpy as np
import pytest

import run
import sideshap
import tracing
import workloads
from sideshap import checkpoint, cli, shapley, sidenet, training, transformer


def _tiny_model():
    cfg = transformer.ModelConfig(depth=1, hidden=8, heads=2, num_tokens=4,
                                  token_input_dim=3, num_classes=2)
    return transformer.MaskedTransformer(cfg, seed=0)


def test_self_times_and_uncovered_time_add_up_to_wall():
    clf = _tiny_model()
    sur = sidenet.SideTunedModel(clf, sidenet.SideConfig(reduction=2), seed=1)
    x = np.random.default_rng(0).standard_normal((1, 4, 3)).astype(np.float32)
    tr = tracing.Tracer(sideshap)
    with tr:
        w0 = time.perf_counter_ns()
        clf.forward(x)
        shapley.exact_shapley(shapley.Game(4, lambda m: sur.surrogate_forward(
            np.repeat(x, len(m), axis=0), m)))
        w1 = time.perf_counter_ns()
    tab = tracing.SpanTable(tr)
    uncovered = (w1 - w0) - tab.covered_ns()
    assert uncovered >= 0
    assert tab.self_ns.min() >= 0
    assert int(tab.self_ns.sum()) + uncovered == w1 - w0
    # one span by hand: block_states minus the block ops it called
    i = int(np.flatnonzero(tab.select("transformer.MaskedTransformer.block_states"))[0])
    children = tab.parent == i
    assert children.any()
    assert tab.self_ns[i] == tab.dur[i] - tab.dur[children].sum()
    assert (tab.t0[children] >= tab.t0[i]).all() and (tab.t1[children] <= tab.t1[i]).all()


def test_wrappers_patch_names_bound_at_import_and_are_removed():
    originals = {
        "cli.train_surrogate": cli.train_surrogate,
        "cli.save_checkpoint": cli.save_checkpoint,
        "cli.load_checkpoint": cli.load_checkpoint,
        "sideshap.train_surrogate": sideshap.train_surrogate,
        "training.sample_subsets": training.sample_subsets,
        "ad.matmul": sideshap.autodiff.matmul,
    }
    tr = tracing.Tracer(sideshap)
    tr.install()
    try:
        assert tracing.is_traced(cli.train_surrogate)
        assert tracing.is_traced(cli.save_checkpoint)
        assert tracing.is_traced(cli.load_checkpoint)
        assert tracing.is_traced(sideshap.train_surrogate)
        assert tracing.is_traced(training.sample_subsets)
        assert tracing.is_traced(sideshap.autodiff.matmul)
        assert tracing.is_traced(sidenet.CombinedModel.__dict__["explain"])
        assert tracing.is_traced(sideshap.data.SyntheticDataset.__dict__["load"])
        # a call through the name cli bound reaches the span of the defining module
        shapley.sample_subsets(shapley.shapley_kernel(4), 4, True, 0)
        assert "shapley.sample_subsets" in [tr.names[s[0]] for s in tr.spans]
    finally:
        tr.uninstall()
    assert cli.train_surrogate is originals["cli.train_surrogate"]
    assert cli.save_checkpoint is originals["cli.save_checkpoint"]
    assert cli.load_checkpoint is originals["cli.load_checkpoint"]
    assert sideshap.train_surrogate is originals["sideshap.train_surrogate"]
    assert training.sample_subsets is originals["training.sample_subsets"]
    assert sideshap.autodiff.matmul is originals["ad.matmul"]
    assert tracing.find_wrappers(sideshap) == []
    recorded = len(tr.spans)
    _tiny_model().forward(np.zeros((1, 4, 3), dtype=np.float32))
    assert len(tr.spans) == recorded


def test_install_that_fails_leaves_no_wrappers(monkeypatch):
    monkeypatch.setattr(tracing, "SINGLE_TARGETS",
                        tracing.SINGLE_TARGETS + (("cli", "no_such_entry_point"),))
    with pytest.raises(AttributeError):
        tracing.Tracer(sideshap).install()
    assert tracing.find_wrappers(sideshap) == []


def test_failed_call_still_closes_its_span():
    tr = tracing.Tracer(sideshap)
    with tr:
        with pytest.raises(checkpoint.CheckpointError):
            checkpoint.load_checkpoint(__file__)
    tab = tracing.SpanTable(tr)
    assert tab.calls("checkpoint.load_checkpoint") == 1
    assert tracing.find_wrappers(sideshap) == []


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


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_on_shrunken_workload(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))
    wl = workloads.WORKLOADS[name](str(tmp_path / "work"), 3, **TINY[name])
    metrics, att, info, harness_ok = run.traced_run(sideshap, wl, 3)
    assert info["harness_failures"] == []
    assert harness_ok and att.failed == 0, att.errors
    assert list(metrics) == list(tracing.PER_LAYER) or set(metrics) == set(tracing.PER_LAYER)
    assert metrics["transformer.macs_vs_analytic"] == 1.0
    assert metrics["sidenet.side_macs_vs_analytic"] == 1.0
    assert metrics["transformer.backbone_passes_per_explain"] == 3.0
    zero_on = {"explain-vit": ["autodiff.backward_s", "autodiff.optimizer_step_s",
                               "shapley.exact_shapley_self_s", "training.value_rows"],
               "oracle-d12": ["autodiff.backward_s", "training.surrogate_steps"],
               "pipeline-d16": ["shapley.kernelshap_self_s", "shapley.memo_hit_frac"]}
    for key in zero_on[name]:
        assert metrics[key] == 0, key
    assert tracing.find_wrappers(sideshap) == []
    with open(tmp_path / "out" / f"trace-{name}-seed3.json", encoding="utf-8") as f:
        assert len(json.load(f)["spans"]) == metrics["trace.spans"]


def test_timed_run_checks_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))
    wl = workloads.WORKLOADS["oracle-d12"](str(tmp_path / "work"), 4, **TINY["oracle-d12"])
    metrics, att, info = run.timed_run(wl, 0.5)
    assert att.failed == 0, att.errors
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    # a wrong output is counted as a failed operation
    monkeypatch.setattr(workloads, "KERNELSHAP_TOL", -1.0)
    _, att, info = run.timed_run(wl, 0.5)
    assert att.failed == info["ops"] + 1  # every op and the warm-up
    assert att.attempted == info["ops"] + 1 + wl.cold_repeats


def test_metric_names_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == tracing.PER_LAYER[m["name"]]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
