"""Three-stage training recipe plus the Froyo and Duo comparison pipelines.

Stage 1 trains the masked-transformer classifier. Stage 2 side-tunes a
surrogate to mimic the classifier's full-input predictions on masked inputs.
Stage 3 side-tunes an explainer against the Shapley regression objective with
paired kernel sampling and in-graph additive efficient normalization.

All five trainers run on one epoch loop, ``_fit``, and so honour
``step_decay``. Froyo and duo take no validation pass: their ``val_losses``
are each epoch's last step loss, ``initial_loss`` is NaN, ``final_loss`` is
the last epoch's loss and no best state is restored.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Optimizer, OptimizerConfig, Tensor
from .data import SyntheticDataset
from .evaluation import gradient_conflict
from .shapley import (
    sample_equicardinality_masks,
    sample_subsets,
    shapley_kernel,
)
from .sidenet import (
    SideConfig,
    SideTunedModel,
    apply_token_head,
    make_explainer_from_surrogate,
    token_head,
)
from .transformer import (
    MaskedTransformer,
    ModelConfig,
    by_kept_count,
    class_probs,
    load_named_state,
    named_layer_parameters,
    null_value,
    state_snapshot,
    value_logits,
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
        if not (np.isfinite(self.step_decay) and self.step_decay > 0):
            raise ContractError(f"step_decay must be finite and > 0, not {self.step_decay}")
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
        return asdict(self)

    def write_csv(self, path):
        import csv

        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["step", "loss"])
            for i, loss in enumerate(self.step_losses):
                w.writerow([i, f"{loss:.10g}"])


def state_digest(state: dict) -> str:
    """Order-independent content hash of a state dict or of named parameters.

    Each array is hashed through its buffer, in place; a ``Tensor`` by its
    ``data``, so a model's ``named_parameters()`` hashes as its ``state_dict()``.
    """
    h = hashlib.sha256()
    for name in sorted(state):
        value = state[name]
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(value.data if isinstance(value, Tensor) else value))
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
    m = ad.row_max(x)
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
# the epoch loop shared by every trainer


def _fit(stage, config: StageConfig, rng, n_train, batch, named, step_loss,
         val_loss=None) -> LossRecord:
    """Train the ``named`` parameters by ``step_loss``; keep the best-validation state.

    Each epoch shuffles the ``n_train`` rows with ``rng``, steps once per
    ``batch`` rows on ``step_loss(rows)`` and then takes ``val_loss()``.
    ``step_loss`` returns the loss tensor, which is back-propagated here, or
    a float once it has set every parameter's ``.grad`` itself. The state
    of ``named`` (name -> parameter) at the lowest validation loss (first
    epoch on a tie) is put back at the end. Without ``val_loss`` an epoch's
    validation loss is its last step loss, no state is put back, and the
    final loss is the last epoch's. A floating-point overflow, invalid value
    or division by zero in an epoch, or a non-finite step loss, raises
    ``FloatingPointError`` naming the epoch.
    """
    opt = Optimizer(list(named.values()), config.optimizer)
    record = LossRecord(initial_loss=val_loss() if val_loss else float("nan"))
    best_val, best_state = np.inf, None
    for epoch in range(config.epochs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                order = rng.permutation(n_train)
                for start in range(0, n_train, batch):
                    loss = step_loss(order[start:start + batch])
                    value = loss.item() if isinstance(loss, Tensor) else loss
                    if not np.isfinite(value):
                        raise FloatingPointError("non-finite loss")
                    if isinstance(loss, Tensor):
                        opt.zero_grad()
                        loss.backward()
                    opt.step()
                    record.step_losses.append(value)
                val = val_loss() if val_loss else value
        except FloatingPointError as exc:
            raise FloatingPointError(f"{stage} diverged at epoch {epoch}: {exc}") from None
        record.val_losses.append(val)
        if val < best_val:
            best_val = val
            best_state = state_snapshot(named) if val_loss else None
            record.best_epoch = epoch
        opt.scale_step(config.step_decay)
    if val_loss:
        load_named_state(named, best_state)
    record.final_loss = best_val if val_loss else val
    return record


def _check_frozen(model, before: str, stage: str):
    if state_digest(model.named_parameters()) != before:
        raise RuntimeError(
            f"invariant violation: backbone parameters changed during {stage} training")


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
                  model.named_parameters(), step_loss,
                  lambda: _classifier_val_loss(model, x_val, y_val))
    record.extra["val_accuracy"] = accuracy(
        value_logits(model.forward, x_val), y_val)
    return model, record


def _classifier_val_loss(model, x_val, y_val):
    """``_mse_class_loss`` of the classifier on the validation split, in float64."""
    logits = value_logits(model.forward, x_val).astype(np.float64)
    return _mse_class_loss(Tensor(logits), y_val, model.config.num_classes).item()


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
    backbone_before = state_digest(classifier.named_parameters())
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
    val_p = np.repeat(value_logits(classifier.forward, x_sel), 4, axis=0)
    # float32 on purpose: a KL target, not a coalition value, so not ``class_probs``
    train_p = ad.softmax(Tensor(value_logits(classifier.forward, x_train))).numpy()

    def step_loss(idx):
        xb = x_train[idx]
        masks = sample_equicardinality_masks(d, len(idx) * m, rng)
        target = np.repeat(train_p[idx], m, axis=0)
        return _kl_loss_graph(target, model.surrogate_logits(np.repeat(xb, m, axis=0), masks))

    record = _fit("surrogate", config, rng, len(x_train), config.inputs_per_batch,
                  model.named_side_parameters(), step_loss,
                  lambda: kl_divergence(val_p, value_logits(
                      model.surrogate_logits, val_x, val_masks)))
    _check_frozen(classifier, backbone_before, "surrogate")
    record.extra["backbone_digest"] = backbone_before
    return model, record


# ---------------------------------------------------------------------------
# stage 3: explainer


def _shapley_regression_loss(raw: Tensor, masks: np.ndarray, targets: np.ndarray,
                             diffs: np.ndarray, weights: np.ndarray) -> Tensor:
    """In-graph Shapley regression loss with additive efficient normalization.

    raw: (n_in, d, C) unconstrained attributions; masks (n_in, m, d); targets
    v(x_s)-v(x_0) per instance (n_in, m, C); diffs v(x_1)-v(x_0) per input
    (n_in, C); weights per-class weights per input (n_in, C).

    The per-coalition prediction s^T phi(x) is a batched matmul of each
    input's mask block against its normalized attributions.
    """
    d = raw.shape[1]
    diff = Tensor(diffs.astype(np.float32)[:, None, :])  # (n, 1, C)
    total = ad.tensor_sum(raw, axis=1, keepdims=True)
    phi = raw + (diff - total) * (1.0 / d)
    pred = ad.matmul(Tensor(masks.astype(np.float32)), phi)  # (n, m, C)
    err = ad.square(Tensor(targets.astype(np.float32)) - pred)
    w = Tensor(weights.astype(np.float32)[:, None, :])  # (n, 1, C)
    return ad.mean(ad.tensor_sum(w * err, axis=-1))


def _regression_batch(logits_fn, v1, v0, x, y, masks, m, label_mode):
    """``_shapley_regression_loss``'s masks, targets, diffs and weights for x under masks.

    ``v1`` and ``v0`` are the caller's v(x_1) and v(x_0); all m masks of every
    input take one graph-free call of ``logits_fn``. The weights are the
    one-hot label (``label_mode == "label"``) or v(x_1).
    """
    n_in, d = len(x), masks.shape[1]
    vals = class_probs(value_logits(logits_fn, np.repeat(x, m, axis=0), masks))
    weights = np.eye(v1.shape[1], dtype=np.float64)[y] if label_mode == "label" else v1
    return masks.reshape(n_in, m, d), vals.reshape(n_in, m, -1) - v0, v1 - v0, weights


def _explainer_batch(surrogate: SideTunedModel, v0, x, y, masks, m, label_mode):
    """The unmasked backbone states (numpy) of x, then its ``_regression_batch``.

    The surrogate and the backbone are frozen, so no graph is recorded.
    """
    def one_pass(t, _):  # a planned pass: every block's state, then the surrogate's logits
        states = surrogate.backbone.block_states(t, None)
        return (*states, surrogate.surrogate_logits(t, None, backbone_states=states))

    with ad.no_grad():
        *states, logits = (out.numpy() for out in by_kept_count(
            one_pass, x, None, surrogate.backbone.config.num_tokens))
    return (states, *_regression_batch(surrogate.surrogate_logits, class_probs(logits), v0,
                                       x, y, masks, m, label_mode))


def _explainer_loss(explainer: SideTunedModel, x, batch, rows) -> Tensor:
    """Shapley regression loss of the explainer on ``rows`` of an ``_explainer_batch``."""
    states, *regression = batch
    raw = explainer.explainer_raw(x[rows], backbone_states=[Tensor(s[rows]) for s in states])
    return _shapley_regression_loss(raw, *(a[rows] for a in regression))


def train_explainer(surrogate: SideTunedModel, dataset: SyntheticDataset,
                    config: StageConfig):
    """Side-tune an explainer branch against the kernel-weighted regression loss.

    The branch trunk is initialized from the surrogate side weights with the
    head replaced. Masks are paired draws from the Shapley kernel; the
    efficiency constraint is enforced in-graph before the loss.
    """
    rng = np.random.default_rng(config.seed)
    explainer = make_explainer_from_surrogate(surrogate, seed=config.seed)
    backbone_before = state_digest(surrogate.backbone.named_parameters())
    x_train, y_train = dataset.split("train")
    x_val, y_val = dataset.split("val")
    m, mode = config.masks_per_input, config.label_mode
    dist = shapley_kernel(dataset.d)

    # The surrogate and the backbone are frozen, so v(x_0) and the validation
    # inputs are built once, and so is every training input under a mask bank.
    v0 = null_value(surrogate.surrogate_logits, surrogate.backbone.config)
    val_rng = np.random.default_rng(config.seed + 2)
    n_val = min(32, len(x_val))
    val_idx = val_rng.permutation(len(x_val))[:n_val]
    val_masks = sample_subsets(dist, n_val * m, True, val_rng)
    x_sel = x_val[val_idx]
    val_batch = _explainer_batch(surrogate, v0, x_sel, y_val[val_idx], val_masks, m, mode)

    def val_loss():
        with ad.no_grad():
            return _explainer_loss(explainer, x_sel, val_batch, slice(None)).item()

    bank = config.mask_bank
    if bank:
        bank_masks = sample_subsets(dist, len(x_train) * bank, True, rng)
        bank_batch = _explainer_batch(surrogate, v0, x_train, y_train, bank_masks, bank, mode)

    def step_loss(idx):
        if bank:
            return _explainer_loss(explainer, x_train, bank_batch, idx)
        masks = sample_subsets(dist, len(idx) * m, True, rng)
        xb = x_train[idx]
        batch = _explainer_batch(surrogate, v0, xb, y_train[idx], masks, m, mode)
        return _explainer_loss(explainer, xb, batch, slice(None))

    record = _fit("explainer", config, rng, len(x_train), config.inputs_per_batch,
                  explainer.named_side_parameters(), step_loss, val_loss)
    _check_frozen(surrogate.backbone, backbone_before, "explainer")
    record.extra["backbone_digest"] = backbone_before
    return explainer, record


# ---------------------------------------------------------------------------
# comparison pipelines: froyo and duo


class HeadExplainerModel:
    """A full-width copy of ``classifier`` with an added per-token explanation head.

    Used by the froyo (head-only training) and duo (joint training) pipelines.
    """

    def __init__(self, classifier: MaskedTransformer, seed: int = 0):
        config = classifier.config
        self.net = MaskedTransformer(config, seed=seed)
        self.net.load_state(classifier.state_dict())
        # as deep as the side explainer's default head
        self.expl_head = token_head(np.random.default_rng(seed + 17), config.hidden,
                                    SideConfig.explainer_head_depth, config.num_classes)

    def forward_both(self, tokens: np.ndarray):
        states = self.net.block_states(tokens, None)
        logits = self.net.logits_from_state(states[-1])
        raw = apply_token_head(self.expl_head, self.net.final_norm(states[-1]))
        return logits, raw  # raw: (batch, d, num_classes)

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


def _head_explainer_loss(classifier: MaskedTransformer, x, y, config: StageConfig, rng):
    """``loss(raw, idx)``: Shapley regression loss of ``raw`` for rows ``idx`` of x.

    Each call draws fresh paired kernel masks. The value function is
    ``classifier``, which no head pipeline moves, so its v(x_1) and v(x_0)
    are computed once and the targets do not drift as a trained encoder moves.
    """
    m, dist = config.masks_per_input, shapley_kernel(x.shape[1])
    v1 = class_probs(value_logits(classifier.forward, x))
    v0 = null_value(classifier.forward, classifier.config)

    def loss(raw, idx):
        masks = sample_subsets(dist, len(idx) * m, True, rng)
        return _shapley_regression_loss(raw, *_regression_batch(
            classifier.forward, v1[idx], v0, x[idx], y[idx], masks, m, config.label_mode))
    return loss


def train_froyo(classifier: MaskedTransformer, dataset: SyntheticDataset,
                config: StageConfig):
    """Train only the explanation head; encoder and prediction head stay frozen."""
    model = HeadExplainerModel(classifier, seed=config.seed)
    model.net.set_trainable(False)
    frozen_before = state_digest(model.net.named_parameters())
    rng = np.random.default_rng(config.seed)
    x_train, y_train = dataset.split("train")
    explainer_loss = _head_explainer_loss(classifier, x_train, y_train, config, rng)

    def step_loss(idx):
        _, raw = model.forward_both(x_train[idx])
        return explainer_loss(raw, idx)

    record = _fit("froyo", config, rng, len(x_train), config.inputs_per_batch,
                  model.expl_head_parameters(), step_loss)
    _check_frozen(model.net, frozen_before, "froyo")
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

    Each step runs one ``forward_both``, takes the classification and the
    explanation gradient apart in two backward sweeps over that graph,
    records the cosine of their encoder parts and steps on their sum. The
    trained encoder is a copy; ``classifier`` stays the value function.
    """
    model = HeadExplainerModel(classifier, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    all_params = list(model.named_parameters().values())
    encoder_params = list(model.encoder_parameters().values())
    conflict_trace = []
    x_train, y_train = dataset.split("train")
    explainer_loss = _head_explainer_loss(classifier, x_train, y_train, config, rng)

    def step_loss(idx):
        xb, yb = x_train[idx], y_train[idx]
        logits, raw = model.forward_both(xb)
        cls_loss = _mse_class_loss(logits, yb, dataset.num_classes)
        g_cls = _gradients(cls_loss, all_params)
        expl_loss = explainer_loss(raw, idx)
        g_expl = _gradients(expl_loss, all_params)
        g1 = np.concatenate([g_cls[id(p)].ravel() for p in encoder_params])
        g2 = np.concatenate([g_expl[id(p)].ravel() for p in encoder_params])
        if np.linalg.norm(g1) > 0 and np.linalg.norm(g2) > 0:
            conflict_trace.append(gradient_conflict(g1, g2))
        for p in all_params:
            p.grad = g_cls[id(p)] + g_expl[id(p)]
        return cls_loss.item() + expl_loss.item()

    record = _fit("duo", config, rng, len(x_train), config.inputs_per_batch,
                  model.named_parameters(), step_loss)
    record.extra["gradient_conflict_trace"] = [float(c) for c in conflict_trace]
    return model, record


# ---------------------------------------------------------------------------
# Geometric loss-decay check on a synthetic strictly convex problem


def geometric_decay_experiment(seed: int = 0, steps: int = 200):
    """Full-batch plain GD on a strictly convex linear-softmax KL objective.

    Two-class model with logits [0, w^T x] (no softmax gauge freedom). Newton
    steps from the GD end point give the optimum w_star. The strong-convexity
    constant is the minimum eigenvalue of the analytic Hessian
    x^T diag(p(1-p)) x / n over the logged iterates and the optimum; the step
    size is 1 / (2 L) for the measured smoothness L.

    Returns dict with ``w_star``, per-step loss gaps and the geometric bound.
    """
    n, p = 64, 3  # samples, features
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    w_ref = rng.standard_normal(p)
    t1 = 1.0 / (1.0 + np.exp(-(x @ w_ref + 0.3 * rng.standard_normal(n))))
    t1 = np.clip(t1, 0.05, 0.95)

    def loss(w):
        p1 = np.clip(1.0 / (1.0 + np.exp(-(x @ w))), 1e-12, 1 - 1e-12)
        return float(np.mean(t1 * np.log(t1 / p1)
                             + (1 - t1) * np.log((1 - t1) / (1 - p1))))

    def grad(w):
        p1 = 1.0 / (1.0 + np.exp(-(x @ w)))
        return (x * (p1 - t1)[:, None]).mean(axis=0)

    def hessian(w):
        p1 = 1.0 / (1.0 + np.exp(-(x @ w)))
        return (x * (p1 * (1 - p1))[:, None]).T @ x / n

    # global smoothness bound: p1(1-p1) <= 1/4
    l_smooth = 0.25 * np.linalg.eigvalsh(x.T @ x / n)[-1]
    alpha = 1.0 / (2.0 * l_smooth)

    iterates = [np.zeros(p)]
    for _ in range(steps):
        iterates.append(iterates[-1] - alpha * grad(iterates[-1]))

    w_star = iterates[-1]
    for _ in range(8):  # enough for the Newton steps to converge even from w = 0
        w_star = w_star - np.linalg.solve(hessian(w_star), grad(w_star))

    mu = min(np.linalg.eigvalsh(hessian(wi))[0]
             for wi in iterates[:: max(1, steps // 50)] + [w_star])

    losses = np.array([loss(w) for w in iterates])
    gaps = losses - min(loss(w_star), losses[-1])  # w_star's loss can round an ulp above it
    bound = gaps[0] * (1.0 - mu * alpha) ** np.arange(len(gaps))
    return {
        "alpha": alpha,
        "mu": float(mu),
        "w_star": w_star,
        "gaps": gaps,
        "bound": bound,
        "holds": bool(np.all(gaps <= 1.05 * bound + 1e-15)),
    }
