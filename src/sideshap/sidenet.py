"""Ladder side branches attached to a frozen backbone.

The side branch is a 1/r-width copy of the backbone. At every block i it
reads the backbone's post-residual state through a downsampling linear map
FC^(i); information flows strictly backbone -> side, so training the branch
can never move a backbone byte. The same machinery instantiates both the
surrogate (masked-prediction mimic) and the explainer (attribution emitter).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor
from .shapley import efficiency_normalize_grid
from .transformer import (
    Linear,
    LayerNorm,
    MaskedTransformer,
    ModelConfig,
    MsaBlock,
    block_param_count,
    by_kept_count,
    class_logits,
    class_probs,
    load_named_state,
    mlp_width,
    named_layer_parameters,
    null_value,
    state_snapshot,
    value_logits,
)

ROLE_SURROGATE = "surrogate"
ROLE_EXPLAINER = "explainer"


@dataclass
class SideConfig:
    reduction: int = 8
    role: str = ROLE_SURROGATE
    explainer_head_depth: int = 3

    def __post_init__(self):
        if self.reduction < 1:
            raise ContractError("reduction must be >= 1")
        if self.role not in (ROLE_SURROGATE, ROLE_EXPLAINER):
            raise ContractError(f"unknown side role {self.role!r}")
        if self.explainer_head_depth < 1:
            raise ContractError("explainer_head_depth must be >= 1")

    def side_hidden(self, hidden: int) -> int:
        if hidden % self.reduction != 0:
            raise ContractError(
                f"hidden={hidden} not divisible by reduction={self.reduction}")
        return hidden // self.reduction

    def side_mlp_hidden(self, config: ModelConfig) -> int:
        """MLP width of the side blocks, round(mlp_ratio * side_hidden) (see ``mlp_width``)."""
        return mlp_width(config.mlp_ratio, self.side_hidden(config.hidden))

    def to_dict(self):
        return asdict(self)


def token_head(rng, width: int, depth: int, num_classes: int) -> list:
    """Per-token explanation head: ``depth`` width->width layers, then width->classes."""
    return [Linear(rng, width, width) for _ in range(depth)] + [Linear(rng, width, num_classes)]


def apply_token_head(layers, seq: Tensor) -> Tensor:
    """A ``token_head`` on each patch token of ``seq``, GELU after each hidden layer.

    Every token after the class token emits its own row: (batch, d, num_classes).
    """
    h = ad.narrow(seq, 1, 1, seq.shape[1] - 1)
    for layer in layers[:-1]:
        h = ad.gelu(layer(h))
    return layers[-1](h)


class SideTunedModel:
    """Frozen backbone plus one trainable ladder side branch."""

    def __init__(self, backbone: MaskedTransformer, side: SideConfig, seed: int = 0):
        self.backbone = backbone
        self.side_config = side
        backbone.set_trainable(False)
        c = backbone.config
        hs = side.side_hidden(c.hidden)
        rng = np.random.default_rng(seed)
        mlp_hidden = side.side_mlp_hidden(c)
        # keep the backbone head count when it divides the side width
        heads = c.heads if hs % c.heads == 0 else 1
        self.downsamplers = [Linear(rng, c.hidden, hs) for _ in range(c.depth)]
        self.side_blocks = [MsaBlock(rng, hs, heads, mlp_hidden) for _ in range(c.depth)]
        self.side_norm = LayerNorm(hs)
        if side.role == ROLE_SURROGATE:
            self.head_layers = [Linear(rng, hs, c.num_classes)]
        else:
            self.head_layers = token_head(rng, hs, side.explainer_head_depth, c.num_classes)

    # ------------------------------------------------------------------
    def _side_pass(self, states):
        z = None
        for tap_fc, block, state in zip(self.downsamplers, self.side_blocks, states):
            tap = tap_fc(state)
            inp = tap if z is None else z + tap
            z = block(inp)
        return self.side_norm(z)  # (batch, tokens in the states, side_hidden)

    def _surrogate_head(self, backbone_states) -> Tensor:
        return class_logits(self.head_layers[0], self._side_pass(backbone_states))

    def surrogate_logits(self, tokens: np.ndarray, mask: np.ndarray | None,
                         backbone_states=None) -> Tensor:
        """Surrogate logits under mask s; the side branch runs on the
        backbone's compacted states. ``backbone_states`` (unmasked only)
        reuses states that are already computed."""
        if self.side_config.role != ROLE_SURROGATE:
            raise ContractError("surrogate_logits called on a non-surrogate branch")
        if backbone_states is None:
            return by_kept_count(
                lambda t, m: self._surrogate_head(self.backbone.block_states(t, m)),
                tokens, mask, self.backbone.config.num_tokens)
        if mask is not None:
            raise ContractError("backbone_states are unmasked; they cannot be used with a mask")
        return self._surrogate_head(backbone_states)

    def surrogate_forward(self, tokens: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
        """Float64 coalition values v(x_s) of masked input x_s; no autodiff graph is recorded."""
        return class_probs(value_logits(self.surrogate_logits, tokens, mask))

    def explainer_raw(self, tokens: np.ndarray, backbone_states=None) -> Tensor:
        """Unconstrained attribution grid of shape (batch, d, num_classes)."""
        if self.side_config.role != ROLE_EXPLAINER:
            raise ContractError("explainer_raw called on a non-explainer branch")
        if backbone_states is None:
            backbone_states = self.backbone.block_states(tokens, None)
        return apply_token_head(self.head_layers, self._side_pass(backbone_states))

    # ------------------------------------------------------------------
    def named_side_parameters(self):
        out = named_layer_parameters("down", self.downsamplers)
        out.update(named_layer_parameters("side", self.side_blocks))
        out.update(self.side_norm.named_parameters("side_norm"))
        out.update(named_layer_parameters("head", self.head_layers))
        return out

    def side_state_dict(self):
        return state_snapshot(self.named_side_parameters())

    def load_side_state(self, state: dict):
        load_named_state(self.named_side_parameters(), state)


def make_explainer_from_surrogate(surrogate: SideTunedModel, seed: int = 0) -> SideTunedModel:
    """Explainer branch initialized from surrogate weights, head replaced."""
    explainer = SideTunedModel(surrogate.backbone,
                               replace(surrogate.side_config, role=ROLE_EXPLAINER), seed=seed)
    trunk = {k: p for k, p in explainer.named_side_parameters().items()
             if not k.startswith("head.")}
    source = surrogate.named_side_parameters()
    load_named_state(trunk, {k: source[k].data for k in trunk})
    return explainer


class CombinedModel:
    """Single-pass self-interpretable model.

    Shares one backbone between the original classification head, the
    surrogate branch (used as the value function for masked inputs) and the
    explainer branch. y_main is produced by the untouched classifier path,
    so it is bit-identical to the standalone classifier output. The
    classifier and both branches are frozen once wrapped: ``v0``, the
    surrogate's float64 (1, C) v(x_0), is computed here, once.
    """

    def __init__(self, classifier: MaskedTransformer, surrogate: SideTunedModel,
                 explainer: SideTunedModel):
        if surrogate.side_config.role != ROLE_SURROGATE:
            raise ContractError("surrogate slot holds a non-surrogate branch")
        if explainer.side_config.role != ROLE_EXPLAINER:
            raise ContractError("explainer slot holds a non-explainer branch")
        if surrogate.backbone is not classifier or explainer.backbone is not classifier:
            raise ContractError("both branches must be built on the classifier object itself")
        self.classifier = classifier
        self.surrogate = surrogate
        self.explainer = explainer
        self.v0 = null_value(surrogate.surrogate_logits, classifier.config)

    def explain(self, tokens: np.ndarray):
        """Prediction plus efficiency-normalized attributions for all classes.

        The backbone runs once per row: v(x_1) is ``class_probs`` of the
        surrogate's logits on the same unmasked states (an all-ones mask is
        bit-equal to no mask), and v(x_0) is ``v0``. Rows go through
        ``by_kept_count``'s graph-free passes, so the batch's states are held
        one token budget at a time.
        Returns (logits, normalized attribution (batch, d, C), residual).
        """
        c = self.classifier.config

        def one_pass(t, _):  # (rows, 2 + d, C): logits, surrogate logits, raw attributions
            states = self.classifier.block_states(t, None)
            logits = self.classifier.logits_from_state(states[-1])
            sur = self.surrogate.surrogate_logits(t, None, backbone_states=states)
            raw = self.explainer.explainer_raw(t, backbone_states=states)
            return ad.concat([ad.reshape(logits, (-1, 1, c.num_classes)),
                              ad.reshape(sur, (-1, 1, c.num_classes)), raw], axis=1)

        with ad.no_grad():
            out = by_kept_count(one_pass, tokens, None, c.num_tokens).numpy()
        logits, v1, raw = out[:, 0], class_probs(out[:, 1]), out[:, 2:]
        normalized = efficiency_normalize_grid(raw, v1, self.v0)
        residual = np.abs(normalized.sum(axis=1) - (v1 - self.v0)).max()
        return logits, normalized, float(residual)


# ---------------------------------------------------------------------------
# analytic parameter counting


def count_side_params(config: ModelConfig, side: SideConfig) -> int:
    """Trainable parameters of one side branch (downsamplers + blocks + head)."""
    hs = side.side_hidden(config.hidden)
    total = config.depth * (config.hidden * hs + hs)  # downsamplers
    total += config.depth * block_param_count(hs, side.side_mlp_hidden(config))
    total += 2 * hs  # side norm
    if side.role == ROLE_SURROGATE:
        total += hs * config.num_classes + config.num_classes
    else:
        total += side.explainer_head_depth * (hs * hs + hs)
        total += hs * config.num_classes + config.num_classes
    return total
