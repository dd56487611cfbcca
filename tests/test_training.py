"""Training stages: losses, freeze discipline, checkpoint rule, determinism."""

import numpy as np
import pytest
from scipy.special import softmax as sp_softmax

from sideshap.autodiff import ContractError, OptimizerConfig
from sideshap.data import generate_dataset
from sideshap.shapley import sample_subsets, shapley_kernel
from sideshap.sidenet import ROLE_SURROGATE, SideConfig
from sideshap.training import (
    HeadExplainerModel,
    LossRecord,
    StageConfig,
    kl_divergence,
    state_digest,
    geometric_decay_experiment,
    train_classifier,
    train_duo,
    train_explainer,
    train_froyo,
    train_surrogate,
)
from sideshap.training import (
    _chunked_logits,
    _regression_targets,
    _softmax_np,
)
from sideshap.transformer import MaskedTransformer, ModelConfig

TINY_MODEL = ModelConfig(depth=1, hidden=16, heads=2, num_tokens=6,
                         token_input_dim=3, num_classes=2)


def tiny_dataset(seed=0, n=60):
    return generate_dataset("planted-patch",
                            {"d": 6, "token_dim": 3, "n_samples": n,
                             "k_signal": 2}, seed=seed)


def quick_stage(**kw):
    base = dict(epochs=1, batch_size=16, masks_per_input=4,
                inputs_per_batch=4, seed=0,
                optimizer=OptimizerConfig(step_size=1e-3))
    base.update(kw)
    return StageConfig(**base)


@pytest.fixture(scope="module")
def trained_pair():
    ds = tiny_dataset()
    clf, _ = train_classifier(ds, TINY_MODEL, quick_stage(epochs=2))
    sur, _ = train_surrogate(clf, ds, quick_stage(),
                             SideConfig(reduction=2, role=ROLE_SURROGATE))
    return ds, clf, sur


# ---------------------------------------------------------------------------
# loss primitives


def test_kl_divergence_known_value():
    p_logits = np.log(np.array([[0.7, 0.3]]))
    q_logits = np.log(np.array([[0.5, 0.5]]))
    want = 0.7 * np.log(0.7 / 0.5) + 0.3 * np.log(0.3 / 0.5)
    assert kl_divergence(p_logits, q_logits) == pytest.approx(want, rel=1e-12)


def test_kl_divergence_zero_for_identical_and_shift_invariant():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((5, 4))
    assert kl_divergence(logits, logits) == pytest.approx(0.0, abs=1e-12)
    assert kl_divergence(logits, logits + 3.0) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ContractError):
        kl_divergence(logits, logits[:, :3])


def test_kl_divergence_nonnegative_property():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.standard_normal((3, 5))
        q = rng.standard_normal((3, 5))
        assert kl_divergence(p, q) >= -1e-12


def test_stage_config_validation():
    with pytest.raises(ContractError):
        quick_stage(epochs=0)
    with pytest.raises(ContractError):
        quick_stage(masks_per_input=5)
    with pytest.raises(ContractError):
        quick_stage(mask_bank=7)  # must be even
    with pytest.raises(ContractError, match="label_mode"):
        quick_stage(label_mode="lable")


def test_loss_record_csv(tmp_path):
    rec = LossRecord(step_losses=[1.0, 0.5], val_losses=[0.7], best_epoch=0)
    path = tmp_path / "losses.csv"
    rec.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,loss"
    assert lines[1].startswith("0,1")
    assert rec.to_dict()["best_epoch"] == 0


def test_state_digest_order_independent():
    a = {"x": np.ones(3, dtype=np.float32), "y": np.zeros(2, dtype=np.float32)}
    b = dict(reversed(list(a.items())))
    assert state_digest(a) == state_digest(b)
    b["x"] = b["x"] + 1
    assert state_digest(a) != state_digest(b)


# ---------------------------------------------------------------------------
# stage behavior


def _train_stage(stage, trained_pair, epochs):
    ds, clf, sur = trained_pair
    config = quick_stage(epochs=epochs, optimizer=OptimizerConfig(step_size=3e-2))
    if stage == "classifier":
        model, rec = train_classifier(tiny_dataset(seed=1), TINY_MODEL, config)
        return model.state_dict(), rec
    if stage == "surrogate":
        model, rec = train_surrogate(clf, ds, config,
                                     SideConfig(reduction=2, role=ROLE_SURROGATE))
    else:
        model, rec = train_explainer(sur, ds, config)
    return model.side_state_dict(), rec


@pytest.mark.parametrize("stage", ["classifier", "surrogate", "explainer"])
def test_best_checkpoint_rule(trained_pair, stage):
    """Every stage ends in the state of its lowest validation loss."""
    state, rec = _train_stage(stage, trained_pair, epochs=3)
    assert len(rec.val_losses) == 3
    assert rec.best_epoch == int(np.argmin(rec.val_losses))
    assert rec.final_loss == min(rec.val_losses)
    # a run stopped after the best epoch ends in the same state
    shorter, _ = _train_stage(stage, trained_pair, epochs=rec.best_epoch + 1)
    assert state_digest(shorter) == state_digest(state)
    if stage == "classifier":
        assert 0.0 <= rec.extra["val_accuracy"] <= 1.0


def test_classifier_training_is_deterministic():
    ds = tiny_dataset(seed=2)
    a, _ = train_classifier(ds, TINY_MODEL, quick_stage())
    b, _ = train_classifier(ds, TINY_MODEL, quick_stage())
    assert state_digest(a.state_dict()) == state_digest(b.state_dict())


def test_surrogate_freezes_backbone(trained_pair):
    ds, clf, sur = trained_pair
    # train_surrogate already asserts the digest internally; double-check here
    assert sur.backbone is clf
    assert all(not p.requires_grad for p in clf.parameters())
    assert all(p.requires_grad for p in sur.side_parameters())


def test_surrogate_records_kl_losses(trained_pair):
    ds, clf, _ = trained_pair
    sur, rec = train_surrogate(clf, ds, quick_stage(epochs=2),
                               SideConfig(reduction=2, role=ROLE_SURROGATE))
    assert rec.initial_loss > 0
    assert rec.final_loss > 0
    assert len(rec.val_losses) == 2
    assert "backbone_digest" in rec.extra


def test_explainer_initialized_from_surrogate_and_freezes_backbone(trained_pair):
    ds, clf, sur = trained_pair
    digest_before = state_digest(clf.state_dict())
    exp, rec = train_explainer(sur, ds, quick_stage())
    assert state_digest(clf.state_dict()) == digest_before
    assert exp.side_config.role == "explainer"
    assert np.isfinite(rec.final_loss)


def test_explainer_mask_bank_mode(trained_pair):
    """Precomputed-target mode trains, freezes the backbone, and converges."""
    ds, clf, sur = trained_pair
    before = state_digest(clf.state_dict())
    exp, rec = train_explainer(sur, ds, quick_stage(epochs=3,
                                                    mask_bank=16))
    assert state_digest(clf.state_dict()) == before
    assert np.isfinite(rec.final_loss)
    assert len(rec.val_losses) == 3


def test_chunked_logits_records_no_graph(trained_pair):
    ds, _, sur = trained_pair
    x = ds.split("train")[0][:10]
    masks = np.ones((10, ds.d))
    masks[::2, 0] = 0
    assert sur.surrogate_logits(x, masks)._parents  # a graph outside
    returned = []

    def logits_fn(tokens, mask):
        returned.append(sur.surrogate_logits(tokens, mask))
        return returned[-1]

    _chunked_logits(logits_fn, x, masks, chunk=4)
    assert len(returned) == 3
    assert not any(t._parents for t in returned)


def test_explainer_builds_frozen_inputs_once(trained_pair, monkeypatch):
    """With a mask bank, no surrogate pass runs inside the epoch loop."""
    ds, _, sur = trained_pair
    calls = []
    surrogate_logits = sur.surrogate_logits

    def counted(*args, **kwargs):
        calls.append(1)
        return surrogate_logits(*args, **kwargs)

    monkeypatch.setattr(sur, "surrogate_logits", counted)
    counts = []
    for epochs in (1, 3):
        calls.clear()
        train_explainer(sur, ds, quick_stage(epochs=epochs, mask_bank=4))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _stacked_value_targets(logits_fn, xb, yb, masks, m, num_classes, label_mode):
    """The reference form: the all-zeros and all-ones masks stacked with each
    input's m masks in one masked pass, and the weights from a pass of their own."""
    n_in, d = len(xb), masks.shape[1]
    extremes = np.broadcast_to(np.stack([np.zeros(d), np.ones(d)]), (n_in, 2, d))
    stacked = np.concatenate([masks.reshape(n_in, m, d), extremes],
                             axis=1).reshape(n_in * (m + 2), d)
    logits = _chunked_logits(logits_fn, np.repeat(xb, m + 2, axis=0), stacked, chunk=1024)
    vals = _softmax_np(logits).reshape(n_in, m + 2, -1)
    v0, v1 = vals[:, m, :], vals[:, m + 1, :]
    targets = (vals[:, :m, :] - v0[:, None, :]).reshape(n_in * m, -1)
    if label_mode == "label":
        weights = np.eye(num_classes, dtype=np.float64)[yb]
    else:
        weights = _softmax_np(_chunked_logits(logits_fn, xb))
    return targets, v1 - v0, weights


@pytest.mark.parametrize("label_mode", ["weighted", "label"])
@pytest.mark.parametrize("value_function", ["surrogate", "classifier"])
def test_value_targets_bit_equal_to_stacked_extremes(trained_pair, label_mode,
                                                     value_function):
    ds, clf, sur = trained_pair
    x, y = ds.split("train")
    xb, yb, m = x[:5], y[:5], 4
    masks = sample_subsets(shapley_kernel(ds.d), len(xb) * m, True,
                           np.random.default_rng(11))
    if value_function == "surrogate":
        logits_fn = sur.surrogate_logits
        v1 = _softmax_np(sur.surrogate_logits(
            xb, None, backbone_states=clf.block_states(xb, None)).numpy())
    else:
        logits_fn = clf.forward
        v1 = _softmax_np(clf.forward(xb).numpy())
    targets, diffs, weights = _regression_targets(logits_fn, v1, xb, yb, masks, m,
                                                  label_mode)
    want = _stacked_value_targets(logits_fn, xb, yb, masks, m, ds.num_classes, label_mode)
    for got, ref in zip((targets, diffs, weights), want):
        assert got.tobytes() == ref.tobytes()


def test_froyo_trains_only_explanation_head(trained_pair):
    ds, clf, _ = trained_pair
    model, rec = train_froyo(clf, ds, quick_stage())
    assert state_digest(model.net.state_dict()) == state_digest(clf.state_dict())
    assert np.isfinite(rec.final_loss)


def test_duo_trains_jointly_and_records_conflict(trained_pair):
    ds, clf, _ = trained_pair
    before = state_digest(clf.state_dict())
    model, rec = train_duo(clf, ds, quick_stage())
    # the original classifier is untouched; the duo copy moves
    assert state_digest(clf.state_dict()) == before
    assert state_digest(model.net.state_dict()) != before
    trace = rec.extra["gradient_conflict_trace"]
    assert len(trace) > 0
    assert all(-1.0 - 1e-9 <= c <= 1.0 + 1e-9 for c in trace)


def test_head_explainer_model_shapes():
    model = HeadExplainerModel(TINY_MODEL, seed=0)
    x = np.random.default_rng(3).standard_normal((2, 6, 3)).astype(np.float32)
    logits, raw = model.forward_both(x)
    assert logits.shape == (2, 2)
    assert raw.shape == (2, 6, 2)
    named = model.named_parameters()
    assert any(k.startswith("expl_head.") for k in named)
    enc = set(model.encoder_parameters())
    assert not any(k.startswith(("head.", "final_norm.", "expl_head.")) for k in enc)


def test_surrogate_mimics_softmax_targets(trained_pair):
    """The surrogate on a full mask should approach f(x) as training proceeds."""
    ds, clf, sur = trained_pair
    x = ds.split("val")[0][:8]
    p_f = sp_softmax(np.asarray([clf.forward(x).numpy()]), axis=-1)[0]
    p_g = sur.surrogate_forward(x, np.ones((8, 6)))
    # same shape, valid distributions; closeness is checked in acceptance
    assert p_g.shape == p_f.shape
    np.testing.assert_allclose(p_g.sum(axis=1), 1.0, atol=1e-5)


# ---------------------------------------------------------------------------
# geometric decay experiment


def test_geometric_decay_bound_holds():
    result = geometric_decay_experiment(seed=0, steps=120)
    assert result["holds"]
    assert 0 < result["mu"] <= 0.25 * 1.1
    gaps, bound = result["gaps"], result["bound"]
    assert np.all(gaps <= 1.05 * bound + 1e-15)
    assert gaps[-1] < gaps[0]


def test_decay_gap_monotone_nonincreasing():
    result = geometric_decay_experiment(seed=3, steps=80)
    assert np.all(np.diff(result["gaps"]) <= 1e-12)
