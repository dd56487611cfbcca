"""Faithfulness curves, CKA, gradient geometry, cost accounting, bound report."""

import numpy as np
import pytest

from sideshap.autodiff import ContractError
from sideshap.evaluation import (
    analytic_memory_report,
    attribution_error_bound,
    cka,
    classifier_macs,
    efficiency_report,
    gradient_conflict,
    insertion_deletion,
    ranking_order,
    separate_explainer_macs,
    side_branch_macs,
)
from sideshap.shapley import Game, all_subsets, exact_shapley, sample_subsets, shapley_kernel
from sideshap.sidenet import ROLE_EXPLAINER, ROLE_SURROGATE, SideConfig
from sideshap.transformer import PRESETS, ModelConfig


# ---------------------------------------------------------------------------
# insertion / deletion


def test_ranking_order_descending_with_index_ties():
    attr = np.array([0.5, 0.9, 0.5, -1.0])
    np.testing.assert_array_equal(ranking_order(attr), [1, 0, 2, 3])
    np.testing.assert_array_equal(ranking_order(np.zeros(5)), np.arange(5))


def test_constant_predictor_auc_equals_constant():
    curve = insertion_deletion(lambda m: np.full(len(m), 0.37), np.arange(6.0))
    assert curve.insertion_auc == pytest.approx(0.37, abs=1e-12)
    assert curve.deletion_auc == pytest.approx(0.37, abs=1e-12)


def test_linear_value_curves_match_manual_trapezoid():
    d = 8
    rng = np.random.default_rng(0)
    w = rng.random(d)
    attr = w.copy()

    def value_fn(masks):
        return masks @ w

    curve = insertion_deletion(value_fn, attr)
    order = np.argsort(-w, kind="stable")
    ins = np.concatenate([[0.0], np.cumsum(w[order])])
    dele = w.sum() - ins
    frac = np.arange(d + 1) / d
    assert curve.insertion_auc == pytest.approx(np.trapezoid(ins, frac), abs=1e-12)
    assert curve.deletion_auc == pytest.approx(np.trapezoid(dele, frac), abs=1e-12)
    # a faithful ranking inserts the most valuable features first
    assert curve.insertion_auc > curve.deletion_auc


def test_good_ranking_beats_bad_ranking():
    d = 10
    w = np.linspace(1.0, 0.1, d)

    def value_fn(masks):
        return masks @ w

    good = insertion_deletion(value_fn, w)
    bad = insertion_deletion(value_fn, -w)
    assert good.insertion_auc > bad.insertion_auc
    assert good.deletion_auc < bad.deletion_auc


def test_large_d_uses_subsampled_steps():
    d = 100
    w = np.ones(d)
    curve = insertion_deletion(lambda m: m @ w, np.arange(d, dtype=float))
    assert len(curve.fractions) <= 65
    assert curve.fractions[0] == 0.0 and curve.fractions[-1] == 1.0
    assert curve.insertion_auc == pytest.approx(d / 2, rel=1e-6)


@pytest.mark.parametrize("curve", ["insertion", "deletion"])
def test_value_fn_batch_size_is_checked_on_both_curves(curve):
    """One call sees both curves' masks; a value function that drops the first
    insertion row (one row too few) or adds a deletion row (one too many) fails."""
    calls = []

    def value_fn(masks):
        calls.append(len(masks))
        vals = masks.sum(axis=1)
        return vals[1:] if curve == "insertion" else np.append(vals, 4.0)

    with pytest.raises(ContractError, match="wrong batch size"):
        insertion_deletion(value_fn, np.arange(4.0))
    assert calls == [10]


@pytest.mark.parametrize("d", [1, 5, 64, 100])
def test_one_value_call_covers_both_curves(d):
    """One ``value_fn`` call of 2(d+1) rows (65 counts above d = 64): the insertion
    masks, then the deletion masks, each the reference loop's rows."""
    attr = np.random.default_rng(d).standard_normal(d)
    calls = []

    def value_fn(masks):
        calls.append(masks.copy())
        return masks @ np.arange(1.0, d + 1)

    curve = insertion_deletion(value_fn, attr)
    (masks,) = calls
    counts = np.rint(curve.fractions * d).astype(int)
    assert len(masks) == 2 * len(counts) == (2 * (d + 1) if d <= 64 else 130)
    order = ranking_order(attr)
    ins, dele = np.zeros((len(counts), d)), np.ones((len(counts), d))
    for row, k in enumerate(counts):
        ins[row, order[:k]] = 1.0
        dele[row, order[:k]] = 0.0
    assert masks.dtype == np.float64
    assert np.array_equal(masks, np.concatenate([ins, dele]))
    np.testing.assert_array_equal(curve.insertion_values, ins @ np.arange(1.0, d + 1))
    np.testing.assert_array_equal(curve.deletion_values, dele @ np.arange(1.0, d + 1))


def test_insertion_rejects_batched_attribution():
    with pytest.raises(ContractError):
        insertion_deletion(lambda m: m.sum(axis=1), np.ones((2, 4)))


# ---------------------------------------------------------------------------
# CKA


def test_cka_self_similarity_is_one():
    x = np.random.default_rng(1).standard_normal((50, 7))
    assert cka(x, x) == pytest.approx(1.0, abs=1e-12)


def test_cka_invariances():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((60, 5))
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    assert abs(cka(x, x @ q) - 1.0) < 1e-9  # orthogonal transform
    assert abs(cka(x, 3.7 * x) - 1.0) < 1e-9  # isotropic scaling
    assert abs(cka(x, x + 5.0) - 1.0) < 1e-9  # mean shift


def test_cka_null_distribution_is_small():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 6))
    y = rng.standard_normal((200, 6))
    assert cka(x, y) < 0.25


def test_cka_zero_variance_rejected():
    x = np.ones((10, 3))
    y = np.random.default_rng(4).standard_normal((10, 3))
    with pytest.raises(ContractError):
        cka(x, y)
    with pytest.raises(ContractError):
        cka(y[:5], y)  # mismatched n


# ---------------------------------------------------------------------------
# gradient conflict


def test_gradient_conflict_cosine_values():
    g = np.array([1.0, 0.0])
    assert gradient_conflict(g, g) == pytest.approx(1.0)
    assert gradient_conflict(g, -g) == pytest.approx(-1.0)
    assert gradient_conflict(g, np.array([0.0, 2.0])) == pytest.approx(0.0)
    with pytest.raises(ContractError):
        gradient_conflict(g, np.zeros(2))


# ---------------------------------------------------------------------------
# FLOPs and memory accounting


def test_classifier_macs_additive_in_depth():
    shallow = ModelConfig(depth=1, hidden=32, heads=4, num_tokens=8,
                          token_input_dim=5, num_classes=3)
    deep = ModelConfig(depth=4, hidden=32, heads=4, num_tokens=8,
                       token_input_dim=5, num_classes=3)
    per_block = (classifier_macs(deep) - classifier_macs(shallow)) / 3
    t = 9
    assert per_block == 12 * t * 32 * 32 + 2 * t * t * 32


def test_reference_architecture_flops_bands():
    report = efficiency_report(PRESETS["vit-base"])
    assert abs(report.combined_flops - 34.67e9) / 34.67e9 < 0.10
    assert abs(report.separate_flops - 74.90e9) / 74.90e9 < 0.10
    assert report.flops_reduction >= 0.45


def test_flops_are_twice_macs():
    config = PRESETS["vit-small"]
    report = efficiency_report(config)
    side = SideConfig(reduction=8, role=ROLE_EXPLAINER)
    macs = classifier_macs(config) + side_branch_macs(config, side)
    assert report.combined_flops == 2 * macs
    assert report.separate_flops == 2 * (classifier_macs(config)
                                         + separate_explainer_macs(config))


def test_side_branch_cheaper_than_backbone():
    config = PRESETS["vit-base"]
    for role in (ROLE_SURROGATE, ROLE_EXPLAINER):
        side = SideConfig(reduction=8, role=role)
        assert side_branch_macs(config, side) < 0.1 * classifier_macs(config)


def test_memory_report_side_tuning_cheaper():
    config = PRESETS["vit-base"]
    report = analytic_memory_report(config, SideConfig(reduction=8, role=ROLE_EXPLAINER))
    assert report["side_tuning"] < report["full_finetune"]
    assert report["params_branch"] < 0.05 * report["params_backbone"]


# ---------------------------------------------------------------------------
# attribution error bound


def _bound_inputs(noise, seed=0, n=20, d=6, m=400):
    rng = np.random.default_rng(seed)
    tables = rng.standard_normal((n, 2 ** d)) * 0.3
    dist = shapley_kernel(d)
    exact = np.empty((n, d))
    masks = np.empty((n, m, d))
    values = np.empty((n, m))
    v0 = np.empty(n)
    v1 = np.empty(n)
    for i in range(n):
        game = Game(d, lambda ms, t=tables[i]: t[
            (np.asarray(ms).astype(np.int64) * (1 << np.arange(d))).sum(axis=-1)])
        exact[i] = exact_shapley(game)
        masks[i] = sample_subsets(dist, m, True, rng)
        values[i] = game.evaluate(masks[i])
        v0[i] = game.null_value()
        v1[i] = game.grand_value()
    model = exact + noise * rng.standard_normal((n, d))
    model -= (model.sum(axis=1, keepdims=True) - (v1 - v0)[:, None]) / d
    return model, exact, masks, values, v0, v1


def test_bound_holds_for_perturbed_attributions():
    report = attribution_error_bound(*_bound_inputs(noise=0.05))
    assert report.verdict == "PASS"
    assert report.lhs <= report.rhs
    assert report.loss_model >= report.loss_optimal - 1e-9


def test_bound_degenerate_zero_error():
    model, exact, masks, values, v0, v1 = _bound_inputs(noise=0.0)
    report = attribution_error_bound(model, exact, masks, values, v0, v1)
    assert report.lhs == pytest.approx(0.0, abs=1e-12)
    assert report.verdict == "PASS"


def test_bound_shape_validation():
    model, exact, masks, values, v0, v1 = _bound_inputs(noise=0.0, n=3, m=50)
    with pytest.raises(ContractError):
        attribution_error_bound(model[:, :-1], exact, masks, values, v0, v1)
