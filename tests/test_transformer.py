"""Masked transformer: removal semantics, counting, state handling."""

import numpy as np
import pytest
from scipy.special import erf

import sideshap.autodiff as ad
from sideshap.autodiff import ContractError, Tensor
from sideshap.transformer import (
    PRESETS,
    MaskedTransformer,
    ModelConfig,
    block_param_count,
    count_params,
)

from conftest import (
    NEG_MASK_VALUE,
    key_bias_logits,
    mask_key_bias,
    mixed_masks,
    relative_error,
)

TOY = ModelConfig(depth=2, hidden=32, heads=4, num_tokens=8,
                  token_input_dim=5, num_classes=3)


@pytest.fixture(scope="module")
def toy_model():
    return MaskedTransformer(TOY, seed=42)


# ---------------------------------------------------------------------------
# removal semantics


def test_masked_content_never_leaks(toy_model):
    """Over 100 random (input, mask) pairs, replacing the content of masked
    tokens does not change the logits beyond float32 noise."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):  # batched 10 x 10
        x = rng.standard_normal((10, 8, 5)).astype(np.float32)
        mask = (rng.random((10, 8)) < 0.5).astype(np.float64)
        y1 = toy_model.forward(x, mask).numpy()
        x2 = x.copy()
        x2[mask == 0] = rng.standard_normal(((mask == 0).sum(), 5)) * 10
        y2 = toy_model.forward(x2, mask).numpy()
        worst = max(worst, float(np.abs(y1 - y2).max()))
    assert worst < 1e-6


def test_full_mask_equals_unmasked(toy_model):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 8, 5)).astype(np.float32)
    y_none = toy_model.forward(x, None).numpy()
    y_ones = toy_model.forward(x, np.ones((3, 8))).numpy()
    np.testing.assert_array_equal(y_none, y_ones)


def test_empty_mask_output_is_input_independent(toy_model):
    rng = np.random.default_rng(2)
    a = toy_model.forward(rng.standard_normal((1, 8, 5)), np.zeros((1, 8))).numpy()
    b = toy_model.forward(rng.standard_normal((1, 8, 5)), np.zeros((1, 8))).numpy()
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_compacted_forward_matches_key_bias(toy_model):
    """240 masks of mixed |s| in one batch, empty and full mask included:
    the compacted pass agrees with the key-bias reference row for row."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((240, 8, 5)).astype(np.float32)
    mask = mixed_masks(rng, 240, 8)
    assert len(np.unique(mask.sum(axis=1))) == 9
    y = toy_model.forward(x, mask).numpy()
    ref = key_bias_logits(toy_model, x, mask).numpy()
    assert np.abs(y - ref).max() <= 1e-5
    perm = rng.permutation(240)  # other groupings, same rows
    assert np.abs(toy_model.forward(x[perm], mask[perm]).numpy() - y[perm]).max() <= 1e-5


def test_compacted_forward_gradients_match_key_bias():
    """Every classifier gradient, positions (gathered rows) included."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((24, 8, 5)).astype(np.float32)
    mask = mixed_masks(rng, 24, 8)
    grads = []
    for logits_fn in (lambda m: m.forward(x, mask), lambda m: key_bias_logits(m, x, mask)):
        model = MaskedTransformer(TOY, seed=42)
        ad.mean(ad.square(logits_fn(model))).backward()
        grads.append({k: p.grad for k, p in model.named_parameters().items()})
    for k in grads[1]:
        assert relative_error(grads[0][k], grads[1][k]) <= 1e-5, k


def test_single_mask_row_broadcasts_over_batch(toy_model):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 8, 5)).astype(np.float32)
    mask = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.float32)
    np.testing.assert_array_equal(toy_model.forward(x, mask).numpy(),
                                  toy_model.forward(x, np.tile(mask, (4, 1))).numpy())
    with pytest.raises(ContractError):
        toy_model.forward(x, np.ones((3, 8)))


@pytest.mark.parametrize("value", [0.5, np.nan, 2.0, -1.0])
def test_non_binary_mask_raises(toy_model, value):
    x = np.zeros((2, 8, 5), dtype=np.float32)
    mask = np.ones((2, 8))
    mask[1, 3] = value
    with pytest.raises(ContractError):
        toy_model.forward(x, mask)


def test_block_states_rejects_uneven_kept_counts(toy_model):
    x = np.zeros((2, 8, 5), dtype=np.float32)
    mask = np.ones((2, 8))
    mask[0, 0] = 0
    with pytest.raises(ContractError):
        toy_model.block_states(x, mask)
    states = toy_model.block_states(x[:1], mask[:1])
    assert states[-1].shape == (1, 8, 32)  # class token + 7 kept


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_kept_token_raises(toy_model, value):
    x = np.random.default_rng(3).standard_normal((2, 8, 5)).astype(np.float32)
    x[1, 3, 0] = value
    mask = np.ones((2, 8))
    mask[:, 5] = 0  # token 3 stays kept
    for m in (None, mask):
        with pytest.raises(ContractError, match="not finite"):
            toy_model.forward(x, m)


def test_non_finite_removed_token_gives_finite_output(toy_model):
    x = np.random.default_rng(4).standard_normal((2, 8, 5)).astype(np.float32)
    x[1, 3, 0] = np.nan
    mask = np.ones((2, 8))
    mask[:, 3] = 0
    assert np.all(np.isfinite(toy_model.forward(x, mask).numpy()))


def test_mask_key_bias_layout():
    bias = mask_key_bias(np.array([[1, 0, 1]]), 3)
    assert bias.shape == (1, 1, 1, 4)
    assert bias[0, 0, 0, 0] == 0.0  # class token column stays visible
    np.testing.assert_array_equal(bias[0, 0, 0, 1:], [0.0, NEG_MASK_VALUE, 0.0])
    with pytest.raises(ContractError):
        mask_key_bias(np.ones((1, 5)), 3)


def test_permutation_invariance_without_positions():
    cfg = ModelConfig(depth=2, hidden=16, heads=2, num_tokens=6,
                      token_input_dim=4, num_classes=2, use_positional=False)
    model = MaskedTransformer(cfg, seed=5)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 6, 4)).astype(np.float32)
    perm = rng.permutation(6)
    y = model.forward(x).numpy()
    y_perm = model.forward(x[:, perm, :]).numpy()
    np.testing.assert_allclose(y, y_perm, atol=1e-5)


# ---------------------------------------------------------------------------
# numerics cross-checks


def test_gelu_matches_erf_reference():
    x = np.linspace(-4, 4, 101)
    got = ad.gelu(Tensor(x, dtype=np.float64)).numpy()
    want = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_layer_norm_matches_manual_reference():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 7))
    gamma = rng.standard_normal(7)
    beta = rng.standard_normal(7)
    got = ad.layer_norm(Tensor(x, dtype=np.float64), Tensor(gamma, dtype=np.float64),
                        Tensor(beta, dtype=np.float64)).numpy()
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    want = gamma * (x - mu) / np.sqrt(var + 1e-5) + beta
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_predict_proba_is_distribution(toy_model):
    rng = np.random.default_rng(5)
    p = toy_model.predict_proba(rng.standard_normal((4, 8, 5)))
    np.testing.assert_allclose(p.sum(axis=-1), np.ones(4), atol=1e-6)
    assert np.all(p >= 0)


def test_forward_rejects_wrong_token_count(toy_model):
    with pytest.raises(ContractError):
        toy_model.forward(np.zeros((1, 5, 5)))


# ---------------------------------------------------------------------------
# parameter accounting


def test_count_params_matches_live_model(toy_model):
    live = sum(p.data.size for p in toy_model.parameters())
    assert live == count_params(TOY)


def test_block_param_count_by_hand():
    h, m = 8, 32
    want = (h * 3 * h + 3 * h) + (h * h + h) + 4 * h + (h * m + m + m * h + h)
    assert block_param_count(h, m) == want


def test_vit_base_parameter_count():
    n = count_params(PRESETS["vit-base"])
    assert n == 85_806_346
    assert abs(n - 85.81e6) / 85.81e6 < 0.02


def test_count_additivity_in_depth():
    shallow = ModelConfig(depth=1, hidden=16, heads=2, num_tokens=4,
                          token_input_dim=3, num_classes=2)
    deep = ModelConfig(depth=3, hidden=16, heads=2, num_tokens=4,
                       token_input_dim=3, num_classes=2)
    per_block = block_param_count(16, shallow.mlp_hidden)
    assert count_params(deep) - count_params(shallow) == 2 * per_block


def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(depth=1, hidden=10, heads=3, num_tokens=4,
                    token_input_dim=3, num_classes=2)
    with pytest.raises(ContractError):
        ModelConfig(depth=1, hidden=8, heads=2, num_tokens=1,
                    token_input_dim=3, num_classes=2)


# ---------------------------------------------------------------------------
# state handling


def test_state_dict_roundtrip_bit_identical():
    m1 = MaskedTransformer(TOY, seed=7)
    m2 = MaskedTransformer(TOY, seed=8)
    m2.load_state(m1.state_dict())
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 8, 5)).astype(np.float32)
    assert m1.forward(x).numpy().tobytes() == m2.forward(x).numpy().tobytes()


def test_load_state_rejects_missing_and_misshaped_keys(toy_model):
    state = toy_model.state_dict()
    broken = dict(state)
    broken.pop("head.bias")
    with pytest.raises(ContractError):
        toy_model.load_state(broken)
    bad = dict(state)
    bad["head.bias"] = np.zeros(7, dtype=np.float32)
    with pytest.raises(ContractError):
        toy_model.load_state(bad)


def test_set_trainable_controls_grad_flow():
    model = MaskedTransformer(TOY, seed=9)
    model.set_trainable(False)
    x = np.random.default_rng(7).standard_normal((2, 8, 5)).astype(np.float32)
    loss = ad.mean(ad.square(model.forward(x)))
    assert loss._parents == ()  # frozen graph is never tracked
    model.set_trainable(True)
    loss = ad.mean(ad.square(model.forward(x)))
    loss.backward()
    assert model.head.weight.grad is not None


def test_same_seed_same_init():
    a = MaskedTransformer(TOY, seed=3)
    b = MaskedTransformer(TOY, seed=3)
    for ka, kb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(ka.data, kb.data)
