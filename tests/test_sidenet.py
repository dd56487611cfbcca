"""Side branches: isolation from the backbone, roles, parameter accounting."""

import numpy as np
import pytest

import sideshap.autodiff as ad
from sideshap.autodiff import ContractError, Optimizer, OptimizerConfig
from sideshap.sidenet import (
    ROLE_EXPLAINER,
    ROLE_SURROGATE,
    CombinedModel,
    SideConfig,
    SideTunedModel,
    count_side_params,
    make_explainer_from_surrogate,
)
from sideshap.shapley import efficiency_normalize_grid
from sideshap.transformer import (
    PRESETS,
    MaskedTransformer,
    ModelConfig,
    class_probs,
    count_params,
)

from conftest import (
    key_bias_surrogate_logits,
    mixed_masks,
    relative_error,
    three_pass_explain,
)

TOY = ModelConfig(depth=2, hidden=32, heads=4, num_tokens=8,
                  token_input_dim=5, num_classes=3)


def build_pair(seed=0):
    backbone = MaskedTransformer(TOY, seed=seed)
    surrogate = SideTunedModel(backbone, SideConfig(reduction=4, role=ROLE_SURROGATE),
                               seed=seed + 1)
    return backbone, surrogate


def test_side_config_validation():
    with pytest.raises(ContractError):
        SideConfig(role="oracle")
    with pytest.raises(ContractError):
        SideConfig(role=ROLE_EXPLAINER, explainer_head_depth=0)
    with pytest.raises(ContractError):
        SideConfig(reduction=7).side_hidden(32)


def test_surrogate_output_shape_and_distribution():
    _, sur = build_pair()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 8, 5)).astype(np.float32)
    mask = (rng.random((4, 8)) < 0.5).astype(np.float64)
    p = sur.surrogate_forward(x, mask)
    assert p.shape == (4, 3)
    np.testing.assert_allclose(p.sum(axis=-1), np.ones(4), atol=1e-6)


def test_role_mismatch_raises():
    backbone, sur = build_pair()
    explainer = make_explainer_from_surrogate(sur, seed=5)
    x = np.zeros((1, 8, 5), dtype=np.float32)
    with pytest.raises(ContractError):
        sur.explainer_raw(x)
    with pytest.raises(ContractError):
        explainer.surrogate_logits(x, None)
    with pytest.raises(ContractError):
        CombinedModel(backbone, explainer, sur)


def test_explainer_grid_shape():
    _, sur = build_pair()
    explainer = make_explainer_from_surrogate(sur, seed=2)
    x = np.random.default_rng(1).standard_normal((3, 8, 5)).astype(np.float32)
    assert explainer.explainer_raw(x).numpy().shape == (3, 8, 3)


def test_surrogate_inherits_mask_independence():
    _, sur = build_pair()
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 8, 5)).astype(np.float32)
    mask = (rng.random((5, 8)) < 0.5).astype(np.float64)
    p1 = sur.surrogate_forward(x, mask)
    x2 = x.copy()
    x2[mask == 0] = rng.standard_normal(((mask == 0).sum(), 5)) * 5
    p2 = sur.surrogate_forward(x2, mask)
    assert np.abs(p1 - p2).max() < 1e-6


def test_compacted_surrogate_matches_key_bias():
    """240 masks of mixed |s| in one batch, empty and full mask included."""
    _, sur = build_pair(seed=6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((240, 8, 5)).astype(np.float32)
    mask = mixed_masks(rng, 240, 8)
    y = sur.surrogate_logits(x, mask).numpy()
    ref = key_bias_surrogate_logits(sur, x, mask).numpy()
    assert np.abs(y - ref).max() <= 1e-5
    perm = rng.permutation(240)  # other groupings, same rows
    assert np.array_equal(sur.surrogate_logits(x[perm], mask[perm]).numpy(), y[perm])


def full_width_combined(seed=0):
    """A combined model whose branches are as wide as the backbone (reduction 1)."""
    backbone = MaskedTransformer(TOY, seed=seed)
    surrogate = SideTunedModel(backbone, SideConfig(reduction=1), seed=seed + 1)
    return CombinedModel(backbone, surrogate, make_explainer_from_surrogate(surrogate, seed + 2))


def test_masked_surrogate_rows_are_batch_independent():
    """Masks of mixed |s| in one batch: each row gets the bits of its own call."""
    sur = full_width_combined().surrogate
    rng = np.random.default_rng(9)
    x = rng.standard_normal((60, 8, 5)).astype(np.float32)
    mask = mixed_masks(rng, 60, 8)
    single = np.concatenate([sur.surrogate_logits(x[i], mask[i]).numpy() for i in range(60)])
    assert np.array_equal(sur.surrogate_logits(x, mask).numpy(), single)


def test_empty_coalition_rows_are_identical():
    """The empty mask reads no input token, so 37 inputs give 37 identical rows."""
    sur = full_width_combined().surrogate
    x = np.random.default_rng(10).standard_normal((37, 8, 5)).astype(np.float32)
    v0 = sur.surrogate_logits(x, np.zeros((37, 8))).numpy()
    assert np.all(v0 == v0[0])


def test_explain_rows_are_batch_independent():
    """Logits and attributions of a batch are its single-row calls' bits, and the
    batch residual is the largest single residual."""
    combined = full_width_combined()
    x = np.random.default_rng(11).standard_normal((20, 8, 5)).astype(np.float32)
    logits, phi, residual = combined.explain(x)
    singles = [combined.explain(row) for row in x]
    assert np.array_equal(logits, np.concatenate([s[0] for s in singles]))
    assert np.array_equal(phi, np.concatenate([s[1] for s in singles]))
    assert residual == max(s[2] for s in singles)


def test_explain_empty_coalition_pass_sees_one_row(monkeypatch):
    """Building the model runs v(x_0) on one row; ``explain`` runs no masked pass."""
    masked_rows = []
    surrogate_logits = SideTunedModel.surrogate_logits

    def recording_logits(self, tokens, mask, backbone_states=None):
        if mask is not None:
            masked_rows.append((len(tokens), np.shape(mask)))
        return surrogate_logits(self, tokens, mask, backbone_states)

    monkeypatch.setattr(SideTunedModel, "surrogate_logits", recording_logits)
    combined = full_width_combined()
    assert masked_rows == [(1, (1, 8))] and combined.v0.shape == (1, 3)
    masked_rows.clear()
    x = np.random.default_rng(12).standard_normal((5, 8, 5)).astype(np.float32)
    _, phi, residual = combined.explain(x)
    assert masked_rows == []
    assert phi.shape == (5, 8, 3) and residual < 1e-5


def test_explain_rejects_an_empty_batch():
    with pytest.raises(ContractError, match="at least one row"):
        full_width_combined().explain(np.zeros((0, 8, 5)))


def test_compacted_surrogate_gradients_match_key_bias():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((32, 8, 5)).astype(np.float32)
    mask = mixed_masks(rng, 32, 8)
    grads = []
    for logits_fn in (lambda s: s.surrogate_logits(x, mask),
                      lambda s: key_bias_surrogate_logits(s, x, mask)):
        _, sur = build_pair(seed=6)
        ad.mean(ad.square(logits_fn(sur))).backward()
        grads.append({k: p.grad for k, p in sur.named_side_parameters().items()})
    for k in grads[1]:
        assert relative_error(grads[0][k], grads[1][k]) <= 1e-5, k


@pytest.mark.parametrize("value", [0.5, np.nan])
def test_surrogate_rejects_non_binary_mask(value):
    _, sur = build_pair()
    mask = np.ones((2, 8))
    mask[0, 5] = value
    with pytest.raises(ContractError):
        sur.surrogate_logits(np.zeros((2, 8, 5), dtype=np.float32), mask)


def test_surrogate_rejects_mask_with_backbone_states():
    backbone, sur = build_pair()
    x = np.zeros((2, 8, 5), dtype=np.float32)
    states = backbone.block_states(x, None)
    with pytest.raises(ContractError):
        sur.surrogate_logits(x, np.ones((2, 8)), backbone_states=states)


def test_training_side_branch_never_touches_backbone():
    backbone, sur = build_pair(seed=3)
    before = {k: v.copy() for k, v in backbone.state_dict().items()}
    rng = np.random.default_rng(4)
    opt = Optimizer(sur.named_side_parameters().values(), OptimizerConfig(step_size=1e-2))
    for _ in range(3):
        x = rng.standard_normal((4, 8, 5)).astype(np.float32)
        mask = (rng.random((4, 8)) < 0.5).astype(np.float64)
        loss = ad.mean(ad.square(sur.surrogate_logits(x, mask)))
        opt.zero_grad()
        loss.backward()
        opt.step()
    after = backbone.state_dict()
    for k in before:
        assert before[k].tobytes() == after[k].tobytes(), k


def test_combined_prediction_bit_identical_to_classifier():
    backbone, sur = build_pair(seed=5)
    explainer = make_explainer_from_surrogate(sur, seed=6)
    combined = CombinedModel(backbone, sur, explainer)
    x = np.random.default_rng(5).standard_normal((4, 8, 5)).astype(np.float32)
    logits, phi, _ = combined.explain(x)
    assert logits.tobytes() == backbone.forward(x).numpy().tobytes()
    assert phi.shape == (4, 8, 3)


def test_combined_explain_efficiency_residual():
    backbone, sur = build_pair(seed=7)
    explainer = make_explainer_from_surrogate(sur, seed=8)
    combined = CombinedModel(backbone, sur, explainer)
    x = np.random.default_rng(6).standard_normal((3, 8, 5)).astype(np.float32)
    logits, phi, residual = combined.explain(x)
    assert residual < 1e-5
    v1 = sur.surrogate_forward(x, np.ones((3, 8)))
    v0 = sur.surrogate_forward(x, np.zeros((3, 8)))
    np.testing.assert_allclose(phi.sum(axis=1), v1 - v0, atol=1e-5)


def test_combined_refuses_branches_on_another_classifier():
    backbone, sur = build_pair(seed=9)
    explainer = make_explainer_from_surrogate(sur, seed=10)
    twin = MaskedTransformer(TOY, seed=9)  # same shape and weights, another object
    with pytest.raises(ContractError, match="classifier"):
        CombinedModel(twin, sur, explainer)
    assert sur.backbone is backbone and explainer.backbone is backbone


def build_combined(seed):
    backbone, sur = build_pair(seed=seed)
    return CombinedModel(backbone, sur, make_explainer_from_surrogate(sur, seed=seed + 1))


@pytest.mark.parametrize("batch", [1, 5])
def test_explain_bit_equal_to_three_pass_reference(batch):
    combined = build_combined(13)
    x = np.random.default_rng(batch).standard_normal((batch, 8, 5)).astype(np.float32)
    logits, phi, residual = combined.explain(x)
    want_logits, want_phi, want_residual = three_pass_explain(combined, x)
    assert logits.tobytes() == want_logits.tobytes()
    assert phi.tobytes() == want_phi.tobytes()
    assert residual == want_residual


def test_explain_runs_the_backbone_once(block_state_masks):
    combined = build_combined(15)
    # building the model runs v(x_0) over the class token alone
    assert len(block_state_masks) == 1 and not np.any(block_state_masks[0])
    block_state_masks.clear()
    combined.explain(np.random.default_rng(8).standard_normal((3, 8, 5)))
    assert block_state_masks == [None]


def test_explain_runs_in_passes_within_the_token_budget(block_state_masks, monkeypatch):
    """Rows of 9 tokens under a 27-token budget: 8 rows take passes of 3, 3 and 2,
    with the bits of one call per pass and of one whole-batch pass."""
    from sideshap import transformer

    combined = build_combined(21)
    x = np.random.default_rng(14).standard_normal((8, 8, 5)).astype(np.float32)
    whole = combined.explain(x)
    monkeypatch.setattr(transformer, "_PASS_TOKENS", 27)
    block_state_masks.clear()
    logits, phi, residual = combined.explain(x)
    assert block_state_masks == [None] * 3
    parts = [combined.explain(x[lo:lo + 3]) for lo in (0, 3, 6)]
    for got, want in ((logits, np.concatenate([p[0] for p in parts])),
                      (phi, np.concatenate([p[1] for p in parts]))):
        assert got.tobytes() == want.tobytes()
    assert residual == max(p[2] for p in parts)
    assert logits.tobytes() == whole[0].tobytes() and phi.tobytes() == whole[1].tobytes()
    assert residual == whole[2]


def test_explainer_raw_without_states_runs_planned_passes(block_state_masks, monkeypatch):
    """Without ``backbone_states`` the backbone runs in the planner's passes: 8 rows of 9
    tokens under a 27-token budget take 3 graph-free passes, with the bits of one pass on
    given states. ``explainer_raw`` is entered once, so a tracer of it sees one span."""
    from sideshap import transformer

    explainer = full_width_combined(seed=5).explainer
    x = np.random.default_rng(16).standard_normal((8, 8, 5)).astype(np.float32)
    with ad.no_grad():
        want = explainer.explainer_raw(x, backbone_states=explainer.backbone.block_states(
            x, None)).numpy()
    monkeypatch.setattr(transformer, "_PASS_TOKENS", 27)
    calls, explainer_raw = [], SideTunedModel.explainer_raw

    def counting(self, *args, **kwargs):
        calls.append(len(args[0]))
        return explainer_raw(self, *args, **kwargs)

    monkeypatch.setattr(SideTunedModel, "explainer_raw", counting)
    block_state_masks.clear()
    with ad.no_grad():
        got = explainer.explainer_raw(x).numpy()
    assert got.tobytes() == want.tobytes()
    assert block_state_masks == [None] * 3 and calls == [8]


def test_surrogate_forward_records_no_graph_and_keeps_grad_mode(monkeypatch):
    """Under grad mode it returns the float64 ``class_probs`` of the graph-recording
    expression, which passes each kept count whole, and grad mode is still on afterwards."""
    from sideshap import transformer

    sur = full_width_combined().surrogate
    rng = np.random.default_rng(15)
    x = rng.standard_normal((40, 8, 5)).astype(np.float32)
    mask = mixed_masks(rng, 40, 8)
    monkeypatch.setattr(transformer, "_PASS_TOKENS", 20)
    want = class_probs(sur.surrogate_logits(x, mask).numpy())
    modes = []
    block_states = MaskedTransformer.block_states

    def recording(self, tokens, m):
        modes.append(ad.is_grad_enabled())
        return block_states(self, tokens, m)

    monkeypatch.setattr(MaskedTransformer, "block_states", recording)
    assert sur.surrogate_forward(x, mask).tobytes() == want.tobytes()
    assert modes and not any(modes)
    assert ad.is_grad_enabled()


def _float32_value_explain(combined, tokens):
    """``CombinedModel.explain`` as it was with float32 coalition values: v(x_1) and
    v(x_0) through ``ad.softmax`` of the float32 surrogate logits, not ``class_probs``."""
    d = tokens.shape[1]
    with ad.no_grad():
        states = combined.classifier.block_states(tokens, None)
        logits = combined.classifier.logits_from_state(states[-1]).numpy()
        v1 = ad.softmax(combined.surrogate.surrogate_logits(
            tokens, None, backbone_states=states)).numpy()
        v0 = ad.softmax(combined.surrogate.surrogate_logits(
            tokens[:1], np.zeros((1, d)))).numpy()
        raw = combined.explainer.explainer_raw(tokens, backbone_states=states).numpy()
    normalized = efficiency_normalize_grid(raw, v1, v0)
    return logits, normalized, float(np.abs(normalized.sum(axis=1) - (v1 - v0)).max())


def test_explain_values_are_float64_coalition_values():
    """Logits keep their bits; attributions move by float32 noise from the float32-value
    explain; the efficiency residual measures the normalization, not a float32 rounding."""
    combined = full_width_combined(seed=23)
    x = np.random.default_rng(23).standard_normal((60, 8, 5)).astype(np.float32)
    logits, phi, residual = combined.explain(x)
    old_logits, old_phi, old_residual = _float32_value_explain(combined, x)
    assert logits.tobytes() == old_logits.tobytes()
    assert np.abs(phi - old_phi).max() < 1e-7
    assert residual < 1e-12 < old_residual
    assert combined.v0.dtype == np.float64
    v1 = combined.surrogate.surrogate_forward(x, None)
    assert np.abs(phi.sum(axis=1) - (v1 - combined.v0)).max() == residual


def test_explain_peak_memory_is_flat_in_the_batch():
    """Rows of 16 tokens fill the 2,048-token budget at 128 rows: 8x the rows hold one
    pass's activations at a time, so the peak grows by little more than the output."""
    import tracemalloc

    from sideshap import transformer

    config = ModelConfig(depth=2, hidden=64, heads=4, num_tokens=15,
                         token_input_dim=8, num_classes=3)
    backbone = MaskedTransformer(config, seed=0)
    surrogate = SideTunedModel(backbone, SideConfig(reduction=2), seed=1)
    combined = CombinedModel(backbone, surrogate, make_explainer_from_surrogate(surrogate, 2))
    rows = transformer._PASS_TOKENS // (config.num_tokens + 1)
    x = np.random.default_rng(24).standard_normal((8 * rows, 15, 8)).astype(np.float32)

    def peak(tokens):
        tracemalloc.start()
        try:
            out = combined.explain(tokens)
            return tracemalloc.get_traced_memory()[1], out[0].nbytes + out[1].nbytes
        finally:
            tracemalloc.stop()

    one, _ = peak(x[:rows])
    eight, output = peak(x)
    assert eight < 1.25 * one + 3 * output, (one, eight, output)


def test_explain_records_no_graph_and_training_still_does():
    combined = build_combined(17)
    x = np.random.default_rng(9).standard_normal((2, 8, 5)).astype(np.float32)
    combined.explain(x)
    sur = combined.surrogate
    loss = ad.mean(ad.square(sur.surrogate_logits(x, np.ones((2, 8)))))
    loss.backward()
    assert all(p.grad is not None for p in sur.named_side_parameters().values())


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_kept_token_raises_through_branches(value):
    combined = build_combined(19)
    x = np.random.default_rng(10).standard_normal((2, 8, 5)).astype(np.float32)
    x[0, 2, 1] = value
    mask = np.ones((2, 8))
    mask[:, 6] = 0
    for call in (lambda: combined.surrogate.surrogate_logits(x, None),
                 lambda: combined.surrogate.surrogate_logits(x, mask),
                 lambda: combined.explain(x)):
        with pytest.raises(ContractError, match="not finite"):
            call()
    mask[:, 2] = 0  # the bad token removed
    mask[:, 6] = 1
    assert np.all(np.isfinite(combined.surrogate.surrogate_forward(x, mask)))


def test_trunk_copy_preserves_weights_replaces_head():
    _, sur = build_pair(seed=9)
    explainer = make_explainer_from_surrogate(sur, seed=10)
    sur_named = sur.named_side_parameters()
    exp_named = explainer.named_side_parameters()
    for k in sur_named:
        if k.startswith("head."):
            continue
        np.testing.assert_array_equal(sur_named[k].data, exp_named[k].data)
    # per-token head: final layer maps side width to num_classes
    assert exp_named["head.3.weight"].shape == (8, 3)


def test_side_state_roundtrip_and_mismatch():
    backbone, sur = build_pair(seed=11)
    state = sur.side_state_dict()
    other = SideTunedModel(backbone, SideConfig(reduction=4, role=ROLE_SURROGATE),
                           seed=99)
    other.load_side_state(state)
    x = np.random.default_rng(7).standard_normal((2, 8, 5)).astype(np.float32)
    assert (sur.surrogate_forward(x, None).tobytes()
            == other.surrogate_forward(x, None).tobytes())
    state.pop("side_norm.gamma")
    with pytest.raises(ContractError):
        other.load_side_state(state)
    # same names, other widths: a reduction-2 state into a reduction-4 branch
    wide = SideTunedModel(backbone, SideConfig(reduction=2, role=ROLE_SURROGATE),
                          seed=12)
    with pytest.raises(ContractError, match="shape mismatch"):
        other.load_side_state(wide.side_state_dict())


# ---------------------------------------------------------------------------
# parameter accounting


def test_count_side_params_matches_live_models():
    _, sur = build_pair()
    explainer = make_explainer_from_surrogate(sur, seed=1)
    live_sur = sum(p.data.size for p in sur.named_side_parameters().values())
    live_exp = sum(p.data.size for p in explainer.named_side_parameters().values())
    assert live_sur == count_side_params(TOY, sur.side_config)
    assert live_exp == count_side_params(TOY, explainer.side_config)


@pytest.mark.parametrize("role", [ROLE_SURROGATE, ROLE_EXPLAINER])
def test_zero_side_mlp_width_is_refused_everywhere(role):
    """The analytic counts refuse the branch that SideTunedModel refuses to build."""
    from sideshap.evaluation import analytic_memory_report, side_branch_macs

    config = ModelConfig(depth=2, hidden=32, heads=4, num_tokens=8,
                         token_input_dim=5, num_classes=3, mlp_ratio=0.1)
    side = SideConfig(reduction=8, role=role)
    for build in (lambda: SideTunedModel(MaskedTransformer(config), side),
                  lambda: count_side_params(config, side),
                  lambda: side_branch_macs(config, side),
                  lambda: analytic_memory_report(config, side)):
        with pytest.raises(ContractError, match="mlp_ratio"):
            build()
    assert SideConfig(reduction=4, role=role).side_mlp_hidden(config) == 1


def test_counted_matmul_macs_equal_analytic(monkeypatch):
    """Every product goes through ``autodiff.matmul``, counted as the traced
    benchmark run counts it (output size times contracted length): a batch-1
    classifier forward and one pass of each branch match the analytic MACs."""
    import sys

    from sideshap.evaluation import classifier_macs, side_branch_macs

    original, counted = ad.matmul, [0]

    def counting(a, b, *args, **kwargs):
        out = original(a, b, *args, **kwargs)
        counted[0] += out.data.size * a.shape[-1]
        return out

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "sideshap":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)

    def macs(run):
        counted[0] = 0
        run()
        return counted[0]

    backbone, surrogate = build_pair()
    explainer = make_explainer_from_surrogate(surrogate, seed=1)
    x1 = np.random.default_rng(0).standard_normal((1, 8, 5)).astype(np.float32)
    assert macs(lambda: backbone.forward(x1)) == classifier_macs(TOY)
    states = backbone.block_states(x1, None)
    assert (macs(lambda: surrogate.surrogate_logits(x1, None, backbone_states=states))
            == side_branch_macs(TOY, surrogate.side_config))
    assert (macs(lambda: explainer.explainer_raw(x1, backbone_states=states))
            == side_branch_macs(TOY, explainer.side_config))


def test_reference_architecture_side_counts():
    base = PRESETS["vit-base"]
    sur = count_side_params(base, SideConfig(reduction=8, role=ROLE_SURROGATE))
    exp = count_side_params(base, SideConfig(reduction=8, role=ROLE_EXPLAINER))
    assert abs(sur - 2.23e6) / 2.23e6 < 0.10
    assert abs(exp - 2.42e6) / 2.42e6 < 0.10
    total = count_params(base)
    assert 1.0 - max(sur, exp) / total >= 0.95


def test_trainable_ratio_monotone_in_reduction():
    base = PRESETS["vit-base"]
    counts = [count_side_params(base, SideConfig(reduction=r, role=ROLE_SURROGATE))
              for r in (2, 4, 8)]
    assert counts[0] > counts[1] > counts[2]
