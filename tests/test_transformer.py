"""Masked transformer: removal semantics, counting, state handling."""

import re

import numpy as np
import pytest
from scipy.special import erf

import sideshap.autodiff as ad
from sideshap import transformer
from sideshap.autodiff import ContractError, Tensor
from sideshap.transformer import (
    PRESETS,
    MaskedTransformer,
    ModelConfig,
    MsaBlock,
    block_param_count,
    count_params,
)

from conftest import (
    NEG_MASK_VALUE,
    count_graph_nodes,
    key_bias_block,
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


def test_full_mask_equals_unmasked(toy_model, monkeypatch):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 8, 5)).astype(np.float32)
    y_none = toy_model.forward(x, None).numpy()
    y_ones = toy_model.forward(x, np.ones((3, 8))).numpy()
    np.testing.assert_array_equal(y_none, y_ones)
    # also when graph-free passes cut a batch of 300 rows (2,700 tokens)
    x = rng.standard_normal((300, 8, 5)).astype(np.float32)
    for budget in (1, 40, 2048):
        monkeypatch.setattr(transformer, "_PASS_TOKENS", budget)
        with ad.no_grad():
            y_none = toy_model.forward(x, None).numpy()
            y_ones = toy_model.forward(x, np.ones((300, 8))).numpy()
        assert y_none.tobytes() == y_ones.tobytes()


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
    assert np.array_equal(toy_model.forward(x[perm], mask[perm]).numpy(), y[perm])


def test_forward_rows_are_batch_independent(toy_model):
    """Each row of a batch gets the bits of its own single-row call."""
    x = np.random.default_rng(10).standard_normal((300, 8, 5)).astype(np.float32)
    single = np.concatenate([toy_model.forward(row).numpy() for row in x])
    assert np.array_equal(toy_model.forward(x).numpy(), single)


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


# ---------------------------------------------------------------------------
# pass planning


@pytest.fixture
def block_state_calls(monkeypatch):
    """(rows, mask) of every ``MaskedTransformer.block_states`` call, in call order."""
    calls = []
    block_states = MaskedTransformer.block_states

    def recording(self, tokens, mask):
        calls.append((len(tokens), mask))
        return block_states(self, tokens, mask)

    monkeypatch.setattr(MaskedTransformer, "block_states", recording)
    return calls


@pytest.mark.parametrize("budget", [1, 40, 2048])
@pytest.mark.parametrize("masked", [False, True])
def test_graph_free_passes_hold_one_count_within_the_budget(toy_model, block_state_calls,
                                                            monkeypatch, budget, masked):
    """Without a graph every pass keeps one token count and holds at most the
    budget's tokens (one row at least); the rows come back in input order with
    the bits of one pass per count."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((300, 8, 5)).astype(np.float32)
    mask = mixed_masks(rng, 300, 8) if masked else None
    monkeypatch.setattr(transformer, "_PASS_TOKENS", 10 ** 9)
    with ad.no_grad():
        want = toy_model.forward(x, mask).numpy()
    assert len(block_state_calls) == (9 if masked else 1)
    block_state_calls.clear()
    monkeypatch.setattr(transformer, "_PASS_TOKENS", budget)
    with ad.no_grad():
        got = toy_model.forward(x, mask).numpy()
    assert sum(rows for rows, _ in block_state_calls) == 300
    for rows, pass_mask in block_state_calls:
        kept = np.full(rows, 8) if pass_mask is None else pass_mask.sum(axis=1)
        assert (pass_mask is None) == (not masked)
        assert np.all(kept == kept[0])
        assert rows == 1 or rows * (kept[0] + 1) <= budget
    assert got.tobytes() == want.tobytes()


def test_graph_recording_passes_hold_a_whole_kept_count(block_state_calls, monkeypatch):
    """A classifier step of 256 rows at d=16 (4,352 tokens, over the budget) runs
    as one pass with the bits and gradients of a direct unmasked pass, and a
    masked step as one pass per kept count, whatever the budget."""
    config = ModelConfig(depth=1, hidden=16, heads=2, num_tokens=16,
                         token_input_dim=4, num_classes=3)
    model = MaskedTransformer(config, seed=7)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((256, 16, 4)).astype(np.float32)
    mask = mixed_masks(rng, 256, 16)
    monkeypatch.setattr(transformer, "_PASS_TOKENS", 1)

    def step(logits_fn):
        for p in model.parameters():
            p.grad = None
        out = logits_fn()
        assert out._parents
        ad.mean(ad.square(out)).backward()
        return [out.data.tobytes()] + [p.grad.tobytes() for p in model.parameters()]

    direct = step(lambda: model.logits_from_state(model.block_states(x, None)[-1]))
    block_state_calls.clear()
    assert step(lambda: model.forward(x)) == direct
    assert [rows for rows, _ in block_state_calls] == [256]
    block_state_calls.clear()
    masked = step(lambda: model.forward(x, mask))
    assert len(block_state_calls) == len(np.unique(mask.sum(axis=1)))
    monkeypatch.setattr(transformer, "_PASS_TOKENS", 10 ** 9)
    assert step(lambda: model.forward(x, mask)) == masked


def _block(dtype):
    rng = np.random.default_rng(6)
    block = MsaBlock(rng, 12, 3, 20)
    for p in block.named_parameters("b").values():
        p.data = (p.data + 0.1 * rng.standard_normal(p.shape)).astype(dtype)
    return block, rng.standard_normal((3, 5, 12)).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_block_bit_equal_to_composed_ops(dtype):
    """The fused block and the composed ops (key bias zero) agree bit for bit:
    the output, the input gradient and all 12 parameter gradients."""
    block, x_data = _block(dtype)
    params = block.named_parameters("b")
    zeros = np.zeros((3, 1, 1, 5), dtype=dtype)
    results = []
    for run in (block, lambda x: key_bias_block(block, x, zeros)):
        for p in params.values():
            p.grad = None
        x = Tensor(x_data, requires_grad=True)
        y = run(x)
        ad.tensor_sum(ad.square(y)).backward()
        results.append([y.data, x.grad] + [p.grad for p in params.values()])
    assert len(results[0]) == 14
    for fused, composed in zip(*results):
        assert fused.dtype == composed.dtype == dtype
        np.testing.assert_array_equal(fused, composed)


def test_block_records_ten_graph_nodes():
    block, x_data = _block(np.float32)
    # ln1, qkv, attention, proj, residual, ln2, fc1, gelu, fc2, residual
    assert count_graph_nodes(block(Tensor(x_data, requires_grad=True))) == 10


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


def test_forward_rejects_wrong_token_count(toy_model):
    with pytest.raises(ContractError):
        toy_model.forward(np.zeros((1, 5, 5)))
    # a wrong rank or no rows is named by its shape, with or without a mask
    for shape in [(5,), (2, 8, 1, 5), (0, 8, 5)]:
        for mask in (None, np.ones(8)):
            with pytest.raises(ContractError, match=re.escape(f"shape {shape}")):
                toy_model.forward(np.zeros(shape), mask)


def test_mask_of_wrong_rank_is_named(toy_model):
    with pytest.raises(ContractError, match="rank 3"):
        toy_model.forward(np.zeros((1, 8, 5)), np.ones((1, 1, 8)))


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
