"""Three-stage training recipe plus the Froyo and Duo comparison pipelines.

Stage 1 trains the masked-transformer classifier. Stage 2 side-tunes a
surrogate to mimic the classifier's full-input predictions on masked inputs.
Stage 3 side-tunes an explainer against the Shapley regression objective with
paired kernel sampling and in-graph additive efficient normalization.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Optimizer, OptimizerConfig, Tensor
from .data import SyntheticDataset
from .shapley import (
    sample_equicardinality_masks,
    sample_subsets,
    shapley_kernel,
)
from .sidenet import (
    SideConfig,
    SideTunedModel,
    make_explainer_from_surrogate,
)
from .transformer import (
    Linear,
    MaskedTransformer,
    ModelConfig,
    named_layer_parameters,
    state_snapshot,
)


@dataclass
class StageConfig:
    epochs: int
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch_size: int = 32
    masks_per_input: int = 16
    inputs_per_batch: int = 2
    seed: int = 0
    step_decay: float = 1.0  # per-epoch multiplicative step-size decay
    label_mode: str = "weighted"  # "weighted" (all classes) or "label" (ground truth only)
    mask_bank: int = 0  # explainer stage: fixed per-input mask bank (0 = resample per step)

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.inputs_per_batch) < 1:
            raise ContractError("epochs, batch_size and inputs_per_batch must be >= 1")
        if self.masks_per_input < 2 or self.masks_per_input % 2 != 0:
            raise ContractError("masks_per_input must be even and >= 2 (paired sampling)")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")
        if self.mask_bank < 0 or self.mask_bank % 2 != 0:
            raise ContractError("mask_bank must be a non-negative even number")
        if self.label_mode not in ("weighted", "label"):
            raise ContractError(f"label_mode must be 'weighted' or 'label', not {self.label_mode!r}")


@dataclass
class LossRecord:
    step_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    best_epoch: int = -1
    initial_loss: float = float("nan")
    final_loss: float = float("nan")
    extra: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "step_losses": [float(x) for x in self.step_losses],
            "val_losses": [float(x) for x in self.val_losses],
            "best_epoch": self.best_epoch,
            "initial_loss": self.initial_loss,
            "final_loss": self.final_loss,
            "extra": self.extra,
        }

    def write_csv(self, path):
        import csv

        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["step", "loss"])
            for i, loss in enumerate(self.step_losses):
                w.writerow([i, f"{loss:.10g}"])


def state_digest(state: dict) -> str:
    """Order-independent content hash of a parameter state dict."""
    h = hashlib.sha256()
    for name in sorted(state):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(state[name]).tobytes())
    return h.hexdigest()


def kl_divergence(p_logits: np.ndarray, q_logits: np.ndarray) -> float:
    """Forward KL between softmax distributions, log-sum-exp stabilized."""
    p_logits = np.asarray(p_logits, dtype=np.float64)
    q_logits = np.asarray(q_logits, dtype=np.float64)
    if p_logits.shape != q_logits.shape:
        raise ContractError("kl_divergence: shape mismatch")
    lp = p_logits - _logsumexp(p_logits)
    lq = q_logits - _logsumexp(q_logits)
    p = np.exp(lp)
    return float(np.sum(p * (lp - lq), axis=-1).mean())


def _logsumexp(x):
    m = x.max(axis=-1, keepdims=True)
    return m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


def _kl_loss_graph(p_probs: np.ndarray, q_logits: Tensor) -> Tensor:
    """Mean KL(p || softmax(q)) with p constant."""
    p = np.asarray(p_probs, dtype=np.float32)
    log_p = np.log(np.maximum(p, 1e-12))
    lq = ad.log_softmax(q_logits)
    per_row = ad.tensor_sum(Tensor(p) * (Tensor(log_p) - lq), axis=-1)
    return ad.mean(per_row)


def _mse_class_loss(logits: Tensor, labels: np.ndarray, num_classes: int) -> Tensor:
    onehot = np.eye(num_classes, dtype=np.float32)[labels]
    probs = ad.softmax(logits)
    return ad.mean(ad.tensor_sum(ad.square(probs - Tensor(onehot)), axis=-1))


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((np.argmax(logits, axis=-1) == labels).mean())


# ---------------------------------------------------------------------------
# the epoch loop shared by the three stages


def _fit(stage, config: StageConfig, rng, n_train, batch, params, step_loss,
         val_loss, snapshot, restore) -> LossRecord:
    """Train ``params`` by ``step_loss`` and keep the best-validation state.

    Each epoch shuffles the ``n_train`` rows with ``rng``, steps once per
    ``batch`` rows on ``step_loss(rows)`` and then takes ``val_loss()``. The
    state from ``snapshot()`` at the lowest validation loss (first epoch on
    a tie) is put back with ``restore`` at the end.
    """
    opt = Optimizer(params, config.optimizer)
    record = LossRecord(initial_loss=val_loss())
    best_val, best_state = np.inf, None
    for epoch in range(config.epochs):
        order = rng.permutation(n_train)
        for start in range(0, n_train, batch):
            loss = step_loss(order[start:start + batch])
            if not np.isfinite(loss.item()):
                raise FloatingPointError(f"{stage} diverged at epoch {epoch}")
            opt.zero_grad()
            loss.backward()
            opt.step()
            record.step_losses.append(loss.item())
        val = val_loss()
        record.val_losses.append(val)
        if val < best_val:
            best_val, best_state = val, snapshot()
            record.best_epoch = epoch
        opt.scale_step(config.step_decay)
    restore(best_state)
    record.final_loss = best_val
    return record


def _check_frozen(model, before: str, stage: str):
    if state_digest(model.state_dict()) != before:
        raise RuntimeError(
            f"invariant violation: backbone parameters changed during {stage} training")


def _chunked_logits(logits_fn, tokens, masks=None, chunk=256):
    """``logits_fn(tokens, masks)`` over row chunks, as one numpy array.

    ``logits_fn`` is a value function such as ``MaskedTransformer.forward``
    or ``SideTunedModel.surrogate_logits``; ``masks`` None means unmasked.
    No autodiff graph is recorded.
    """
    outs = []
    with ad.no_grad():
        for start in range(0, len(tokens), chunk):
            m = None if masks is None else masks[start:start + chunk]
            outs.append(logits_fn(tokens[start:start + chunk], m).numpy())
    return np.concatenate(outs, axis=0)


# ---------------------------------------------------------------------------
# stage 1: classifier


def train_classifier(dataset: SyntheticDataset, model_config: ModelConfig,
                     config: StageConfig):
    """Train the masked transformer on unmasked inputs; keep the best-val checkpoint."""
    rng = np.random.default_rng(config.seed)
    model = MaskedTransformer(model_config, seed=config.seed)
    x_train, y_train = dataset.split("train")
    x_val, y_val = dataset.split("val")

    def step_loss(idx):
        return _mse_class_loss(model.forward(x_train[idx]), y_train[idx],
                               model_config.num_classes)

    record = _fit("classifier", config, rng, len(x_train), config.batch_size,
                  model.parameters(), step_loss,
                  lambda: _classifier_val_loss(model, x_val, y_val),
                  model.state_dict, model.load_state)
    record.extra["val_accuracy"] = accuracy(
        _chunked_logits(model.forward, x_val), y_val)
    return model, record


def _classifier_val_loss(model, x_val, y_val):
    total, n = 0.0, 0
    c = model.config.num_classes
    with ad.no_grad():
        for start in range(0, len(x_val), 256):
            xb, yb = x_val[start:start + 256], y_val[start:start + 256]
            loss = _mse_class_loss(model.forward(xb), yb, c)
            total += loss.item() * len(xb)
            n += len(xb)
    return total / n


# ---------------------------------------------------------------------------
# stage 2: surrogate


def train_surrogate(classifier: MaskedTransformer, dataset: SyntheticDataset,
                    config: StageConfig, side: SideConfig):
    """Side-tune a surrogate branch to mimic f(x) on masked inputs.

    Backbone bytes are hash-checked before and after; a mutation is an
    invariant violation.
    """
    rng = np.random.default_rng(config.seed)
    model = SideTunedModel(classifier, side, seed=config.seed)
    backbone_before = state_digest(classifier.state_dict())
    x_train, _ = dataset.split("train")
    x_val, _ = dataset.split("val")
    d, m = dataset.d, config.masks_per_input

    # fixed validation (input, mask) pairs, and f(x) on them, for a
    # deterministic checkpoint selection: mean KL(f(x) || g(x_s))
    val_rng = np.random.default_rng(config.seed + 1)
    n_val = min(64, len(x_val))
    x_sel = x_val[val_rng.permutation(len(x_val))[:n_val]]
    val_masks = sample_equicardinality_masks(d, n_val * 4, val_rng)
    val_x = np.repeat(x_sel, 4, axis=0)
    val_p = np.repeat(_chunked_logits(classifier.forward, x_sel), 4, axis=0)

    def step_loss(idx):
        xb = x_train[idx]
        masks = sample_equicardinality_masks(d, len(idx) * m, rng)
        target = np.repeat(classifier.predict_proba(xb), m, axis=0)
        return _kl_loss_graph(target, model.surrogate_logits(np.repeat(xb, m, axis=0), masks))

    record = _fit("surrogate", config, rng, len(x_train), config.inputs_per_batch,
                  model.side_parameters(), step_loss,
                  lambda: kl_divergence(val_p, _chunked_logits(
                      model.surrogate_logits, val_x, val_masks)),
                  model.side_state_dict, model.load_side_state)
    _check_frozen(classifier, backbone_before, "surrogate")
    record.extra["backbone_digest"] = backbone_before
    return model, record


# ---------------------------------------------------------------------------
# stage 3: explainer


def surrogate_mask_values(surrogate: SideTunedModel, tokens_one: np.ndarray,
                          masks: np.ndarray) -> np.ndarray:
    """Surrogate class probabilities for one input under many masks."""
    rep = np.repeat(tokens_one[None], len(masks), axis=0)
    return _softmax_np(_chunked_logits(surrogate.surrogate_logits, rep, masks, 512))


def _softmax_np(logits):
    logits = np.asarray(logits, dtype=np.float64)
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _shapley_regression_loss(raw: Tensor, masks: np.ndarray, targets: np.ndarray,
                             diffs: np.ndarray, weights: np.ndarray) -> Tensor:
    """In-graph Shapley regression loss with additive efficient normalization.

    raw: (n_in, d, C) unconstrained attributions; masks (n_in, m, d); targets
    v(x_s)-v(x_0) per instance (n_in, m, C); diffs v(x_1)-v(x_0) per input
    (n_in, C); weights per-class weights per input (n_in, C). Masks and
    targets may also come flat, as (n_in*m, d) and (n_in*m, C).

    The per-coalition prediction s^T phi(x) is a batched matmul of each
    input's mask block against its normalized attributions.
    """
    n_in, d = raw.shape[0], raw.shape[1]
    diff = Tensor(diffs.astype(np.float32)[:, None, :])  # (n, 1, C)
    total = ad.tensor_sum(raw, axis=1, keepdims=True)
    phi = raw + (diff - total) * (1.0 / d)
    s = Tensor(masks.reshape(n_in, -1, d).astype(np.float32))
    pred = ad.matmul(s, phi)  # (n, m, C)
    t = Tensor(targets.reshape(pred.shape).astype(np.float32))
    err = ad.square(t - pred)
    w = Tensor(weights.astype(np.float32)[:, None, :])  # (n, 1, C)
    return ad.mean(ad.tensor_sum(w * err, axis=-1))


def _regression_targets(logits_fn, v1, x, y, masks, m, label_mode):
    """Targets v(x_s)-v(x_0) (n*m, C), diffs v(x_1)-v(x_0) (n, C) and class weights.

    ``v1`` is v(x_1) from the unmasked pass the caller already makes. Each
    input's m masks are evaluated together with the empty mask in one
    chunked pass of the value function ``logits_fn``. The weights are the
    one-hot label (``label_mode == "label"``) or v(x_1).
    """
    n_in, d = len(x), masks.shape[1]
    stacked = np.concatenate([masks.reshape(n_in, m, d), np.zeros((n_in, 1, d))],
                             axis=1).reshape(n_in * (m + 1), d)
    logits = _chunked_logits(logits_fn, np.repeat(x, m + 1, axis=0), stacked, chunk=1024)
    vals = _softmax_np(logits).reshape(n_in, m + 1, -1)
    v0 = vals[:, m, :]
    targets = (vals[:, :m, :] - v0[:, None, :]).reshape(n_in * m, -1)
    weights = np.eye(v1.shape[1], dtype=np.float64)[y] if label_mode == "label" else v1
    return targets, v1 - v0, weights


def _explainer_batch(surrogate: SideTunedModel, x, y, masks, m, label_mode):
    """The frozen regression inputs for x under masks (n*m, d).

    Returns the unmasked backbone states (numpy), masks (n, m, d), targets
    (n, m, C), v(x_1)-v(x_0) (n, C) and the class weights (n, C). The
    surrogate and the backbone are frozen, so no graph is recorded.
    """
    with ad.no_grad():
        states = surrogate.backbone.block_states(x, None)
        v1 = _softmax_np(
            surrogate.surrogate_logits(x, None, backbone_states=states).numpy())
    targets, diffs, weights = _regression_targets(
        surrogate.surrogate_logits, v1, x, y, masks, m, label_mode)
    return ([s.numpy() for s in states], masks.reshape(len(x), m, -1),
            targets.reshape(len(x), m, -1), diffs, weights)


def _explainer_loss(explainer: SideTunedModel, x, batch, rows) -> Tensor:
    """Shapley regression loss of the explainer on ``rows`` of an ``_explainer_batch``."""
    states, masks, targets, diffs, weights = batch
    raw = explainer.explainer_raw(x[rows], backbone_states=[Tensor(s[rows]) for s in states])
    return _shapley_regression_loss(raw, masks[rows], targets[rows], diffs[rows],
                                    weights[rows])


def train_explainer(surrogate: SideTunedModel, dataset: SyntheticDataset,
                    config: StageConfig):
    """Side-tune an explainer branch against the kernel-weighted regression loss.

    The branch trunk is initialized from the surrogate side weights with the
    head replaced. Masks are paired draws from the Shapley kernel; the
    efficiency constraint is enforced in-graph before the loss.
    """
    rng = np.random.default_rng(config.seed)
    explainer = make_explainer_from_surrogate(surrogate, seed=config.seed)
    backbone_before = state_digest(surrogate.backbone.state_dict())
    x_train, y_train = dataset.split("train")
    x_val, y_val = dataset.split("val")
    m, mode = config.masks_per_input, config.label_mode
    dist = shapley_kernel(dataset.d)

    # The surrogate and the backbone are frozen, so the validation inputs
    # are built once, and so is every training input under a mask bank.
    val_rng = np.random.default_rng(config.seed + 2)
    n_val = min(32, len(x_val))
    val_idx = val_rng.permutation(len(x_val))[:n_val]
    val_masks = sample_subsets(dist, n_val * m, True, val_rng)
    x_sel = x_val[val_idx]
    val_batch = _explainer_batch(surrogate, x_sel, y_val[val_idx], val_masks, m, mode)

    def val_loss():
        with ad.no_grad():
            return _explainer_loss(explainer, x_sel, val_batch, slice(None)).item()

    bank = config.mask_bank
    if bank:
        bank_masks = sample_subsets(dist, len(x_train) * bank, True, rng)
        bank_batch = _explainer_batch(surrogate, x_train, y_train, bank_masks, bank, mode)

    def step_loss(idx):
        if bank:
            return _explainer_loss(explainer, x_train, bank_batch, idx)
        masks = sample_subsets(dist, len(idx) * m, True, rng)
        xb = x_train[idx]
        batch = _explainer_batch(surrogate, xb, y_train[idx], masks, m, mode)
        return _explainer_loss(explainer, xb, batch, slice(None))

    record = _fit("explainer", config, rng, len(x_train), config.inputs_per_batch,
                  explainer.side_parameters(), step_loss, val_loss,
                  explainer.side_state_dict, explainer.load_side_state)
    _check_frozen(surrogate.backbone, backbone_before, "explainer")
    return explainer, record


# ---------------------------------------------------------------------------
# comparison pipelines: froyo and duo


class HeadExplainerModel:
    """Full-width transformer with an added per-token explanation head.

    Used by the froyo (head-only training) and duo (joint training) pipelines.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.net = MaskedTransformer(config, seed=seed)
        rng = np.random.default_rng(seed + 17)
        h = config.hidden
        # as deep as the side explainer's head (SideConfig.explainer_head_depth)
        self.expl_head = [Linear(rng, h, h) for _ in range(3)]
        self.expl_head.append(Linear(rng, h, config.num_classes))

    @property
    def config(self):
        return self.net.config

    def forward_both(self, tokens: np.ndarray):
        states = self.net.block_states(tokens, None)
        logits = self.net.logits_from_state(states[-1])
        seq = self.net.final_norm(states[-1])
        h = ad.narrow(seq, 1, 1, self.config.num_tokens)  # per-patch features
        for layer in self.expl_head[:-1]:
            h = ad.gelu(layer(h))
        raw = self.expl_head[-1](h)  # (batch, d, num_classes)
        return logits, raw

    def encoder_parameters(self):
        named = self.net.named_parameters()
        return {k: v for k, v in named.items()
                if not k.startswith(("head.", "final_norm."))}

    def expl_head_parameters(self):
        return named_layer_parameters("expl_head", self.expl_head)

    def named_parameters(self):
        out = dict(self.net.named_parameters())
        out.update(self.expl_head_parameters())
        return out

    def state_dict(self):
        return state_snapshot(self.named_parameters())


def _head_explainer_loss(model: HeadExplainerModel, value_model: MaskedTransformer,
                         xb, yb, masks_per_input, masks, label_mode):
    """Shapley regression loss with the frozen masked classifier as value function."""
    with ad.no_grad():
        v1 = _softmax_np(value_model.forward(xb).numpy())
    targets, diffs, weights = _regression_targets(
        value_model.forward, v1, xb, yb, masks, masks_per_input, label_mode)
    _, raw = model.forward_both(xb)
    return _shapley_regression_loss(raw, masks, targets, diffs, weights)


def train_froyo(classifier: MaskedTransformer, dataset: SyntheticDataset,
                config: StageConfig):
    """Train only the explanation head; encoder and prediction head stay frozen."""
    model = HeadExplainerModel(classifier.config, seed=config.seed)
    model.net.load_state(classifier.state_dict())
    model.net.set_trainable(False)
    frozen_before = state_digest(model.net.state_dict())

    rng = np.random.default_rng(config.seed)
    opt = Optimizer(list(model.expl_head_parameters().values()), config.optimizer)
    record = LossRecord()
    dist = shapley_kernel(dataset.d)
    x_train, y_train = dataset.split("train")

    for epoch in range(config.epochs):
        order = rng.permutation(len(x_train))
        for start in range(0, len(order), config.inputs_per_batch):
            idx = order[start:start + config.inputs_per_batch]
            masks = sample_subsets(dist, len(idx) * config.masks_per_input, True, rng)
            loss = _head_explainer_loss(model, classifier, x_train[idx], y_train[idx],
                                        config.masks_per_input, masks, config.label_mode)
            opt.zero_grad()
            loss.backward()
            opt.step()
            record.step_losses.append(loss.item())
        record.val_losses.append(record.step_losses[-1])

    _check_frozen(model.net, frozen_before, "froyo")
    record.best_epoch = int(np.argmin(record.val_losses))
    record.final_loss = record.step_losses[-1]
    return model, record


def _gradients(loss: Tensor, params) -> dict:
    """d loss / d p for every parameter, by id; zeros where the loss does not reach p."""
    for p in params:
        p.grad = None
    loss.backward()
    return {id(p): p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
            for p in params}


def train_duo(classifier: MaskedTransformer, dataset: SyntheticDataset,
              config: StageConfig):
    """Jointly train encoder plus both heads; record per-step gradient cosine.

    The value function for the explanation loss is a frozen copy of the
    original classifier, so targets do not drift as the encoder moves.
    """
    from .evaluation import gradient_conflict

    model = HeadExplainerModel(classifier.config, seed=config.seed)
    model.net.load_state(classifier.state_dict())
    value_model = MaskedTransformer(classifier.config, seed=config.seed)
    value_model.load_state(classifier.state_dict())
    value_model.set_trainable(False)

    rng = np.random.default_rng(config.seed)
    all_params = list(model.named_parameters().values())
    encoder_params = list(model.encoder_parameters().values())
    opt = Optimizer(all_params, config.optimizer)
    record = LossRecord()
    conflict_trace = []
    dist = shapley_kernel(dataset.d)
    x_train, y_train = dataset.split("train")

    for epoch in range(config.epochs):
        order = rng.permutation(len(x_train))
        for start in range(0, len(order), config.inputs_per_batch):
            idx = order[start:start + config.inputs_per_batch]
            xb, yb = x_train[idx], y_train[idx]

            logits, _ = model.forward_both(xb)
            cls_loss = _mse_class_loss(logits, yb, dataset.num_classes)
            g_cls = _gradients(cls_loss, all_params)

            masks = sample_subsets(dist, len(idx) * config.masks_per_input, True, rng)
            expl_loss = _head_explainer_loss(model, value_model, xb, yb,
                                             config.masks_per_input, masks, config.label_mode)
            g_expl = _gradients(expl_loss, all_params)

            g1 = np.concatenate([g_cls[id(p)].ravel() for p in encoder_params])
            g2 = np.concatenate([g_expl[id(p)].ravel() for p in encoder_params])
            if np.linalg.norm(g1) > 0 and np.linalg.norm(g2) > 0:
                conflict_trace.append(gradient_conflict(g1, g2))

            for p in all_params:
                p.grad = g_cls[id(p)] + g_expl[id(p)]
            opt.step()
            record.step_losses.append(cls_loss.item() + expl_loss.item())
        record.val_losses.append(record.step_losses[-1])

    record.best_epoch = int(np.argmin(record.val_losses))
    record.final_loss = record.step_losses[-1]
    record.extra["gradient_conflict_trace"] = [float(c) for c in conflict_trace]
    return model, record


# ---------------------------------------------------------------------------
# Geometric loss-decay check on a synthetic strictly convex problem


def geometric_decay_experiment(seed: int = 0, n: int = 64, p: int = 3,
                              steps: int = 200):
    """Full-batch plain GD on a strictly convex linear-softmax KL objective.

    Two-class model with logits [0, w^T x] (no softmax gauge freedom). The
    strong-convexity constant is taken as the minimum eigenvalue of the
    numerically-differentiated Hessian over all logged iterates and the
    optimum; the step size is 1 / (2 L) for the measured smoothness L.

    Returns dict with per-step loss gaps and the geometric bound.
    """
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    w_ref = rng.standard_normal(p)
    t1 = 1.0 / (1.0 + np.exp(-(x @ w_ref + 0.3 * rng.standard_normal(n))))
    t1 = np.clip(t1, 0.05, 0.95)

    def loss(w):
        z = x @ w
        p1 = 1.0 / (1.0 + np.exp(-z))
        p1 = np.clip(p1, 1e-12, 1 - 1e-12)
        return float(np.mean(t1 * np.log(t1 / p1)
                             + (1 - t1) * np.log((1 - t1) / (1 - p1))))

    def grad(w):
        p1 = 1.0 / (1.0 + np.exp(-(x @ w)))
        return (x * (p1 - t1)[:, None]).mean(axis=0)

    def hessian_fd(w, h=1e-5):
        out = np.zeros((p, p))
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            out[:, j] = (grad(w + e) - grad(w - e)) / (2 * h)
        return 0.5 * (out + out.T)

    # global smoothness bound: p1(1-p1) <= 1/4
    l_smooth = 0.25 * np.linalg.eigvalsh(x.T @ x / n)[-1]
    alpha = 1.0 / (2.0 * l_smooth)

    w = np.zeros(p)
    iterates = [w.copy()]
    losses = [loss(w)]
    for _ in range(steps):
        w = w - alpha * grad(w)
        iterates.append(w.copy())
        losses.append(loss(w))

    res = minimize(loss, w, jac=grad, method="BFGS", tol=1e-14)
    w_star = res.x
    l_star = loss(w_star)

    mu = min(np.linalg.eigvalsh(hessian_fd(wi))[0]
             for wi in iterates[:: max(1, steps // 50)] + [w_star])

    gaps = np.array(losses) - l_star
    bound = gaps[0] * (1.0 - mu * alpha) ** np.arange(len(gaps))
    return {
        "alpha": alpha,
        "mu": float(mu),
        "gaps": gaps,
        "bound": bound,
        "holds": bool(np.all(gaps <= 1.05 * bound + 1e-15)),
    }
