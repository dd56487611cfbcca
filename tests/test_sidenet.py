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
from sideshap.transformer import PRESETS, MaskedTransformer, ModelConfig, count_params

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
    assert np.abs(sur.surrogate_logits(x[perm], mask[perm]).numpy() - y[perm]).max() <= 1e-5


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
    opt = Optimizer(sur.side_parameters(), OptimizerConfig(step_size=1e-2))
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
    logits, raw = combined.forward(x)
    assert logits.tobytes() == backbone.forward(x).numpy().tobytes()
    assert raw.shape == (4, 8, 3)


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


def test_explain_runs_the_backbone_twice(monkeypatch):
    combined = build_combined(15)
    masks = []
    block_states = MaskedTransformer.block_states

    def counting(self, tokens, mask):
        masks.append(mask)
        return block_states(self, tokens, mask)

    monkeypatch.setattr(MaskedTransformer, "block_states", counting)
    combined.explain(np.random.default_rng(8).standard_normal((3, 8, 5)))
    # one unmasked pass, then v(x_0) over the class token alone
    assert len(masks) == 2
    assert masks[0] is None and not np.any(masks[1])


def test_explain_records_no_graph_and_training_still_does():
    combined = build_combined(17)
    x = np.random.default_rng(9).standard_normal((2, 8, 5)).astype(np.float32)
    combined.explain(x)
    combined.forward(x)
    sur = combined.surrogate
    loss = ad.mean(ad.square(sur.surrogate_logits(x, np.ones((2, 8)))))
    loss.backward()
    assert all(p.grad is not None for p in sur.side_parameters())


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
    live_sur = sum(p.data.size for p in sur.side_parameters())
    live_exp = sum(p.data.size for p in explainer.side_parameters())
    assert live_sur == count_side_params(TOY, sur.side_config)
    assert live_exp == count_side_params(TOY, explainer.side_config)


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
