"""Training stages: losses, freeze discipline, checkpoint rule, determinism."""

import ctypes
import os

import numpy as np
import pytest
from scipy.special import softmax as sp_softmax

import sideshap.autodiff as ad
from sideshap import training, transformer
from sideshap.autodiff import ContractError, OptimizerConfig
from sideshap.checkpoint import load_checkpoint, save_checkpoint
from sideshap.data import generate_dataset
from sideshap.shapley import sample_subsets, shapley_kernel
from sideshap.sidenet import ROLE_SURROGATE, SideConfig, SideTunedModel
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
from sideshap.training import _regression_batch
from sideshap.transformer import (
    MaskedTransformer,
    ModelConfig,
    class_probs,
    null_value,
    value_logits,
)

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


def _softmax_np_before_row_max(logits):
    logits = np.asarray(logits, dtype=np.float64)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _logsumexp_before_row_max(x):
    m = x.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("shape", [(4,), (300, 2), (7, 10), (5, 40)])
def test_float64_softmaxes_equal_their_max_reduction_formulas(shape):
    x = np.random.default_rng(33).standard_normal(shape).astype(np.float32) * 20
    assert class_probs(x).tobytes() == _softmax_np_before_row_max(x).tobytes()
    x64 = x.astype(np.float64)
    assert training._logsumexp(x64).tobytes() == _logsumexp_before_row_max(x64).tobytes()


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt")
def test_repeated_graph_free_value_pass_reuses_its_heap(monkeypatch):
    """A 4,096-row value pass at d=12 frees nearly all it allocates; the next one
    reuses that memory instead of faulting it in again (about 100k minor faults
    per pass with glibc's default trimming)."""
    import resource

    for name in [k for k in os.environ if k.startswith("MALLOC_") or k == "GLIBC_TUNABLES"]:
        monkeypatch.delenv(name)
    assert ad._keep_freed_memory()  # as at import, where the user leaves malloc alone
    config = ModelConfig(depth=2, hidden=32, heads=4, num_tokens=12,
                         token_input_dim=6, num_classes=2)
    sur = SideTunedModel(MaskedTransformer(config, seed=0), SideConfig(reduction=1), seed=1)
    rng = np.random.default_rng(34)
    x = rng.standard_normal((12, 6)).astype(np.float32)
    masks = (rng.random((4096, 12)) < 0.5).astype(np.float32)
    sur.surrogate_forward(x[None], masks)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sur.surrogate_forward(x[None], masks)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000


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
    for decay in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ContractError, match="step_decay"):
            quick_stage(step_decay=decay)


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


def _state_digest_by_copy(state: dict) -> str:
    """The copy-then-hash ``state_digest`` that the in-place one must equal."""
    import hashlib

    h = hashlib.sha256()
    for name in sorted(state):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(state[name]).tobytes())
    return h.hexdigest()


def test_state_digest_in_place_equals_copy_then_hash(trained_pair, tmp_path):
    _, clf, sur = trained_pair
    rng = np.random.default_rng(0)
    odd = {"transposed": rng.standard_normal((4, 5)).astype(np.float32).T,
           "scalar": np.float32(2.5).reshape(()),
           "float64": rng.standard_normal(3),
           "empty": np.zeros((0, 3), dtype=np.float32)}
    path = tmp_path / "clf.ckpt"
    save_checkpoint(path, "classifier", {}, clf.state_dict())
    for state in (odd, clf.state_dict(), sur.side_state_dict(), load_checkpoint(path).state):
        assert state_digest(state) == _state_digest_by_copy(state)
    assert state_digest(clf.named_parameters()) == _state_digest_by_copy(clf.state_dict())


@pytest.mark.parametrize("stage, copies", [("surrogate", 0), ("explainer", 0), ("froyo", 1)])
def test_frozen_backbone_digests_take_no_state_copy(trained_pair, monkeypatch, stage, copies):
    """The before and after digests read the parameters in place; froyo's one
    ``state_dict`` call builds its trainable copy of the classifier."""
    ds, clf, sur = trained_pair
    want = _state_digest_by_copy(clf.state_dict())
    calls = []
    state_dict = MaskedTransformer.state_dict
    monkeypatch.setattr(MaskedTransformer, "state_dict",
                        lambda self: calls.append(self) or state_dict(self))
    if stage == "surrogate":
        _, rec = train_surrogate(clf, ds, quick_stage(), SideConfig(reduction=2,
                                                                    role=ROLE_SURROGATE))
    elif stage == "explainer":
        _, rec = train_explainer(sur, ds, quick_stage())
    else:
        _, rec = train_froyo(clf, ds, quick_stage())
    assert len(calls) == copies
    assert rec.extra.get("backbone_digest", want) == want


def test_frozen_check_sees_an_in_place_change(trained_pair, monkeypatch):
    ds, clf, _ = trained_pair
    fit, bias = training._fit, clf.head.bias.data.copy()

    def fit_then_touch_the_backbone(*args, **kwargs):
        record = fit(*args, **kwargs)
        clf.head.bias.data[0] += 1.0
        return record

    monkeypatch.setattr(training, "_fit", fit_then_touch_the_backbone)
    try:
        with pytest.raises(RuntimeError, match="backbone parameters changed"):
            train_surrogate(clf, ds, quick_stage(), SideConfig(reduction=2, role=ROLE_SURROGATE))
    finally:
        clf.head.bias.data[...] = bias


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
    assert all(p.requires_grad for p in sur.named_side_parameters().values())


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


def test_value_logits_records_no_graph(trained_pair, block_state_masks, monkeypatch):
    """With no graph, the planner cuts each kept count into budget-sized passes;
    a graph-recording call runs one pass per count."""
    ds, _, sur = trained_pair
    monkeypatch.setattr(transformer, "_PASS_TOKENS", 4 * (ds.d + 1))
    x = ds.split("train")[0][:10]
    masks = np.ones((10, ds.d))
    masks[::2, 0] = 0
    assert sur.surrogate_logits(x, masks)._parents  # a graph outside
    assert len(block_state_masks) == 2
    block_state_masks.clear()
    returned = []

    def logits_fn(tokens, mask):
        returned.append(sur.surrogate_logits(tokens, mask))
        return returned[-1]

    value_logits(logits_fn, x, masks)
    assert len(block_state_masks) == 4  # 5 rows of each count, at most 4 per pass
    assert len(returned) == 1
    assert not any(t._parents for t in returned)


def test_training_is_independent_of_value_chunk(monkeypatch):
    """Regrouping the value passes' rows moves no trained byte and no validation loss.

    At hidden 32 a class head whose bits hang on the row count fails this.
    """
    ds = tiny_dataset(seed=3)
    model = ModelConfig(depth=1, hidden=32, heads=2, num_tokens=6,
                        token_input_dim=3, num_classes=2)

    def train_all():
        clf, rec = train_classifier(ds, model, quick_stage(epochs=2))
        out = [(clf.state_dict(), rec)]
        sur, rec = train_surrogate(clf, ds, quick_stage(epochs=2),
                                   SideConfig(reduction=1, role=ROLE_SURROGATE))
        out.append((sur.side_state_dict(), rec))
        for bank in (0, 4):
            exp, rec = train_explainer(sur, ds, quick_stage(epochs=2, mask_bank=bank))
            out.append((exp.side_state_dict(), rec))
        froyo, rec = train_froyo(clf, ds, quick_stage(epochs=2))
        out.append((froyo.state_dict(), rec))
        return [(state_digest(state), rec.val_losses) for state, rec in out]

    want = train_all()
    monkeypatch.setattr(transformer, "_PASS_TOKENS", 1)
    assert train_all() == want


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
    input's m masks in one masked pass, and the weights from a pass of their own.

    Every input gets its own v(x_0) row here, so bit-equal targets and diffs
    also show that the one v(x_0) row of ``_regression_batch`` is each input's.
    """
    n_in, d = len(xb), masks.shape[1]
    extremes = np.broadcast_to(np.stack([np.zeros(d), np.ones(d)]), (n_in, 2, d))
    stacked = np.concatenate([masks.reshape(n_in, m, d), extremes],
                             axis=1).reshape(n_in * (m + 2), d)
    logits = value_logits(logits_fn, np.repeat(xb, m + 2, axis=0), stacked)
    vals = class_probs(logits).reshape(n_in, m + 2, -1)
    v0, v1 = vals[:, m, :], vals[:, m + 1, :]
    targets = vals[:, :m, :] - v0[:, None, :]
    if label_mode == "label":
        weights = np.eye(num_classes, dtype=np.float64)[yb]
    else:
        weights = class_probs(value_logits(logits_fn, xb))
    return masks.reshape(n_in, m, d), targets, v1 - v0, weights


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
        v1 = class_probs(sur.surrogate_logits(
            xb, None, backbone_states=clf.block_states(xb, None)).numpy())
    else:
        logits_fn = clf.forward
        v1 = class_probs(clf.forward(xb).numpy())
    got = _regression_batch(logits_fn, v1, null_value(logits_fn, clf.config), xb, yb, masks, m,
                            label_mode)
    want = _stacked_value_targets(logits_fn, xb, yb, masks, m, ds.num_classes, label_mode)
    for a, ref in zip(got, want):
        assert a.shape == ref.shape and a.tobytes() == ref.tobytes()


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


@pytest.mark.parametrize("trainer", [train_froyo, train_duo])
def test_head_pipelines_honour_step_decay(trained_pair, trainer):
    ds, clf, _ = trained_pair
    states = [trainer(clf, ds, quick_stage(epochs=2, step_decay=decay))[0].state_dict()
              for decay in (1.0, 0.5)]
    assert state_digest(states[0]) != state_digest(states[1])


@pytest.mark.parametrize("trainer", [train_froyo, train_duo])
def test_head_pipeline_record_has_no_validation_pass(trained_pair, trainer):
    """An epoch's validation loss is its last step loss; nothing is restored."""
    ds, clf, _ = trained_pair
    _, rec = trainer(clf, ds, quick_stage(epochs=3))
    steps_per_epoch = len(rec.step_losses) // 3
    assert rec.val_losses == rec.step_losses[steps_per_epoch - 1::steps_per_epoch]
    assert np.isnan(rec.initial_loss)
    assert rec.final_loss == rec.val_losses[-1]
    assert rec.best_epoch == int(np.argmin(rec.val_losses))


@pytest.mark.parametrize("stage", ["explainer", "froyo", "duo"])
def test_null_value_is_computed_once_before_the_epoch_loop(trained_pair, monkeypatch, stage):
    """v(x_0) is one one-row empty-mask pass per stage, before ``_fit``; no step runs one."""
    ds, clf, sur = trained_pair
    fitting, empty_passes = [False], []
    fit, block_states = training._fit, MaskedTransformer.block_states

    def tracked_fit(*args, **kwargs):
        fitting[0] = True
        try:
            return fit(*args, **kwargs)
        finally:
            fitting[0] = False

    def recording(self, tokens, mask):
        if mask is not None and len(mask) == 1 and not np.any(mask):
            empty_passes.append(fitting[0])
        return block_states(self, tokens, mask)

    monkeypatch.setattr(training, "_fit", tracked_fit)
    monkeypatch.setattr(MaskedTransformer, "block_states", recording)
    run = {"explainer": lambda: train_explainer(sur, ds, quick_stage(epochs=2)),
           "froyo": lambda: train_froyo(clf, ds, quick_stage(epochs=2)),
           "duo": lambda: train_duo(clf, ds, quick_stage(epochs=2))}[stage]
    run()
    assert empty_passes == [False]


def _stage_passes(ds):
    """Passes of one graph-free value call over the unmasked training split."""
    rows = max(1, transformer._PASS_TOKENS // (ds.d + 1))
    return -(-len(ds.splits["train"]) // rows)


@pytest.mark.parametrize("trainer, unmasked", [(train_froyo, 1), (train_duo, 1)])
def test_head_pipeline_unmasked_passes_per_step(trained_pair, block_state_masks,
                                                trainer, unmasked):
    """One ``forward_both`` per step; v(x_1) comes from one classifier pass per stage."""
    ds, clf, _ = trained_pair
    _, rec = trainer(clf, ds, quick_stage(epochs=2))
    assert (sum(mask is None for mask in block_state_masks)
            == unmasked * len(rec.step_losses) + _stage_passes(ds))


@pytest.mark.parametrize("epochs", [1, 3])
def test_surrogate_stage_takes_targets_in_one_pass(trained_pair, block_state_masks,
                                                   monkeypatch, epochs):
    """The classifier runs unmasked on the 9 validation picks (one pass) and
    once over the training split, in budget-sized passes; no step runs it."""
    ds, clf, _ = trained_pair
    monkeypatch.setattr(transformer, "_PASS_TOKENS", 16 * (ds.d + 1))
    train_surrogate(clf, ds, quick_stage(epochs=epochs),
                    SideConfig(reduction=2, role=ROLE_SURROGATE))
    assert sum(mask is None for mask in block_state_masks) == 1 + _stage_passes(ds)


def test_surrogate_targets_are_the_classifier_probabilities(trained_pair, monkeypatch):
    """Each step's target rows are the bits of a float32 softmax(f(x)) over that
    step's inputs alone, m times each."""
    ds, clf, _ = trained_pair
    x_train = ds.split("train")[0]
    seen = []
    kl_loss_graph = training._kl_loss_graph

    def recording(p_probs, q_logits):
        seen.append(p_probs)
        return kl_loss_graph(p_probs, q_logits)

    monkeypatch.setattr(training, "_kl_loss_graph", recording)
    stage = quick_stage()
    train_surrogate(clf, ds, stage, SideConfig(reduction=2, role=ROLE_SURROGATE))
    batch = stage.inputs_per_batch
    order = np.random.default_rng(stage.seed).permutation(len(x_train))  # epoch 0's
    assert len(seen) == -(-len(x_train) // batch)
    for step, target in enumerate(seen):
        xb = x_train[order[step * batch:(step + 1) * batch]]
        want = np.repeat(ad.softmax(clf.forward(xb)).numpy(), stage.masks_per_input, axis=0)
        assert target.tobytes() == want.tobytes()


def test_head_explainer_model_shapes():
    model = HeadExplainerModel(MaskedTransformer(TINY_MODEL), seed=0)
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


def decay_problem(seed):
    """geometric_decay_experiment's data as (loss, grad), for the scipy reference."""
    n, p = 64, 3
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    w_ref = rng.standard_normal(p)
    t1 = np.clip(1.0 / (1.0 + np.exp(-(x @ w_ref + 0.3 * rng.standard_normal(n)))), 0.05, 0.95)

    def loss(w):
        p1 = 1.0 / (1.0 + np.exp(-(x @ w)))
        return float(np.mean(t1 * np.log(t1 / p1) + (1 - t1) * np.log((1 - t1) / (1 - p1))))

    def grad(w):
        p1 = 1.0 / (1.0 + np.exp(-(x @ w)))
        return (x * (p1 - t1)[:, None]).mean(axis=0)

    return loss, grad


def hessian_fd(grad, w, h=1e-5):
    """Central-difference Hessian of ``grad``'s function, symmetrized."""
    out = np.zeros((len(w), len(w)))
    for j in range(len(w)):
        e = np.zeros(len(w))
        e[j] = h
        out[:, j] = (grad(w + e) - grad(w - e)) / (2 * h)
    return 0.5 * (out + out.T)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_decay_optimum_and_mu_match_the_scipy_reference(seed):
    """Newton's optimum is BFGS's, and the analytic-Hessian mu is the
    finite-difference one, over the same GD iterates."""
    from scipy.optimize import minimize

    steps = 200
    result = geometric_decay_experiment(seed=seed, steps=steps)
    loss, grad = decay_problem(seed)
    w_star = result["w_star"]
    assert np.abs(grad(w_star)).max() <= 1e-15
    w = np.zeros(3)
    iterates = [w]
    for _ in range(steps):
        w = w - result["alpha"] * grad(w)
        iterates.append(w)
    bfgs = minimize(loss, w, jac=grad, method="BFGS", tol=1e-14)
    assert abs(loss(w_star) - loss(bfgs.x)) <= 1e-16
    mu_fd = min(np.linalg.eigvalsh(hessian_fd(grad, wi))[0]
                for wi in iterates[:: steps // 50] + [w_star])
    assert abs(result["mu"] - mu_fd) <= 1e-9
