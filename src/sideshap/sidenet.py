"""Ladder side branches attached to a frozen backbone.

The side branch is a 1/r-width copy of the backbone. At every block i it
reads the backbone's post-residual state through a downsampling linear map
FC^(i); information flows strictly backbone -> side, so training the branch
can never move a backbone byte. The same machinery instantiates both the
surrogate (masked-prediction mimic) and the explainer (attribution emitter).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor
from .transformer import (
    Linear,
    LayerNorm,
    MaskedTransformer,
    ModelConfig,
    MsaBlock,
    block_param_count,
    by_kept_count,
    load_named_state,
    named_layer_parameters,
    state_snapshot,
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

    def to_dict(self):
        return {"reduction": self.reduction, "role": self.role,
                "explainer_head_depth": self.explainer_head_depth}


def side_heads(hidden_side: int, backbone_heads: int) -> int:
    # keep the backbone head count when it divides the side width
    return backbone_heads if hidden_side % backbone_heads == 0 else 1


class SideTunedModel:
    """Frozen backbone plus one trainable ladder side branch."""

    def __init__(self, backbone: MaskedTransformer, side: SideConfig, seed: int = 0):
        self.backbone = backbone
        self.side_config = side
        backbone.set_trainable(False)
        c = backbone.config
        hs = side.side_hidden(c.hidden)
        self.side_hidden = hs
        rng = np.random.default_rng(seed)
        mlp_hidden = int(round(c.mlp_ratio * hs))
        self.downsamplers = [Linear(rng, c.hidden, hs) for _ in range(c.depth)]
        self.side_blocks = [
            MsaBlock(rng, hs, side_heads(hs, c.heads), mlp_hidden)
            for _ in range(c.depth)
        ]
        self.side_norm = LayerNorm(hs)
        if side.role == ROLE_SURROGATE:
            self.head_layers = [Linear(rng, hs, c.num_classes)]
        else:
            # applied per patch token: each token emits its own class row
            self.head_layers = [
                Linear(rng, hs, hs) for _ in range(side.explainer_head_depth)
            ] + [Linear(rng, hs, c.num_classes)]

    # ------------------------------------------------------------------
    def _side_pass(self, states):
        z = None
        for tap_fc, block, state in zip(self.downsamplers, self.side_blocks, states):
            tap = tap_fc(state)
            inp = tap if z is None else z + tap
            z = block(inp)
        return self.side_norm(z)  # (batch, tokens in the states, side_hidden)

    def _surrogate_head(self, backbone_states) -> Tensor:
        seq = self._side_pass(backbone_states)
        cls = ad.reshape(ad.narrow(seq, 1, 0, 1),
                         (seq.shape[0], self.side_hidden))
        return self.head_layers[0](cls)

    def surrogate_logits(self, tokens: np.ndarray, mask: np.ndarray | None,
                         backbone_states=None) -> Tensor:
        """Surrogate logits under mask s; the side branch runs on the
        backbone's compacted states. ``backbone_states`` (unmasked only)
        reuses states that are already computed."""
        if self.side_config.role != ROLE_SURROGATE:
            raise ContractError("surrogate_logits called on a non-surrogate branch")
        if mask is None:
            if backbone_states is None:
                backbone_states = self.backbone.block_states(tokens, None)
            return self._surrogate_head(backbone_states)
        if backbone_states is not None:
            raise ContractError("backbone_states are unmasked; they cannot be used with a mask")
        return by_kept_count(
            lambda t, m: self._surrogate_head(self.backbone.block_states(t, m)),
            tokens, mask, self.backbone.config.num_tokens)

    def surrogate_forward(self, tokens: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
        """Class probability distribution for masked input x_s."""
        return ad.softmax(self.surrogate_logits(tokens, mask)).numpy()

    def explainer_raw(self, tokens: np.ndarray, backbone_states=None) -> Tensor:
        """Unconstrained attribution grid of shape (batch, d, num_classes)."""
        if self.side_config.role != ROLE_EXPLAINER:
            raise ContractError("explainer_raw called on a non-explainer branch")
        if backbone_states is None:
            backbone_states = self.backbone.block_states(tokens, None)
        c = self.backbone.config
        seq = self._side_pass(backbone_states)
        h = ad.narrow(seq, 1, 1, c.num_tokens)  # per-patch features
        for layer in self.head_layers[:-1]:
            h = ad.gelu(layer(h))
        return self.head_layers[-1](h)  # (batch, d, num_classes)

    # ------------------------------------------------------------------
    def named_side_parameters(self):
        out = named_layer_parameters("down", self.downsamplers)
        out.update(named_layer_parameters("side", self.side_blocks))
        out.update(self.side_norm.named_parameters("side_norm"))
        out.update(named_layer_parameters("head", self.head_layers))
        return out

    def side_parameters(self):
        return list(self.named_side_parameters().values())

    def side_state_dict(self):
        return state_snapshot(self.named_side_parameters())

    def load_side_state(self, state: dict):
        load_named_state(self.named_side_parameters(), state)

    def copy_trunk_from(self, other: "SideTunedModel"):
        """Copy downsamplers, side blocks and side norm; leave the head alone."""
        trunk = {k: p for k, p in self.named_side_parameters().items()
                 if not k.startswith("head.")}
        source = other.named_side_parameters()
        load_named_state(trunk, {k: source[k].data for k in trunk})


def make_explainer_from_surrogate(surrogate: SideTunedModel, seed: int = 0) -> SideTunedModel:
    """Explainer branch initialized from surrogate weights, head replaced."""
    cfg = SideConfig(
        reduction=surrogate.side_config.reduction,
        role=ROLE_EXPLAINER,
        explainer_head_depth=surrogate.side_config.explainer_head_depth,
    )
    explainer = SideTunedModel(surrogate.backbone, cfg, seed=seed)
    explainer.copy_trunk_from(surrogate)
    return explainer


class CombinedModel:
    """Single-pass self-interpretable model.

    Shares one backbone between the original classification head, the
    surrogate branch (used as the value function for masked inputs) and the
    explainer branch. y_main is produced by the untouched classifier path,
    so it is bit-identical to the standalone classifier output.
    """

    def __init__(self, classifier: MaskedTransformer, surrogate: SideTunedModel,
                 explainer: SideTunedModel):
        if surrogate.side_config.role != ROLE_SURROGATE:
            raise ContractError("surrogate slot holds a non-surrogate branch")
        if explainer.side_config.role != ROLE_EXPLAINER:
            raise ContractError("explainer slot holds a non-explainer branch")
        if surrogate.backbone is not classifier or explainer.backbone is not classifier:
            # re-bind branches onto the classifier backbone
            surrogate.backbone = classifier
            explainer.backbone = classifier
        self.classifier = classifier
        self.surrogate = surrogate
        self.explainer = explainer

    @property
    def config(self) -> ModelConfig:
        return self.classifier.config

    def _single_pass(self, tokens: np.ndarray):
        """One unmasked backbone pass: its states, y_main logits and raw grid."""
        states = self.classifier.block_states(tokens, None)
        logits = self.classifier.logits_from_state(states[-1]).numpy()
        raw = self.explainer.explainer_raw(tokens, backbone_states=states).numpy()
        return states, logits, raw

    def forward(self, tokens: np.ndarray):
        """One backbone pass feeding both the original head and the explainer.

        Returns (y_main logits, raw attribution grid) as numpy arrays.
        """
        with ad.no_grad():
            _, logits, raw = self._single_pass(tokens)
        return logits, raw

    def explain(self, tokens: np.ndarray):
        """Prediction plus efficiency-normalized attributions for all classes.

        The backbone runs once: v(x_1) is the surrogate on the same unmasked
        states (an all-ones mask is bit-equal to no mask), and v(x_0) is a
        pass over the class token alone. No autodiff graph is recorded.
        Returns (logits, normalized attribution (batch, d, C), residual).
        """
        from .shapley import efficiency_normalize_grid

        tokens = np.asarray(tokens, dtype=np.float32)
        if tokens.ndim == 2:
            tokens = tokens[None]
        with ad.no_grad():
            states, logits, raw = self._single_pass(tokens)
            v1 = ad.softmax(self.surrogate.surrogate_logits(
                tokens, None, backbone_states=states)).numpy()  # (b, C)
            zeros = np.zeros((tokens.shape[0], self.config.num_tokens), dtype=np.float32)
            v0 = self.surrogate.surrogate_forward(tokens, zeros)
        normalized = efficiency_normalize_grid(raw, v1, v0)
        residual = np.abs(normalized.sum(axis=1) - (v1 - v0)).max()
        return logits, normalized, float(residual)


# ---------------------------------------------------------------------------
# analytic parameter counting


def count_side_params(config: ModelConfig, side: SideConfig) -> int:
    """Trainable parameters of one side branch (downsamplers + blocks + head)."""
    hs = side.side_hidden(config.hidden)
    mlp_hidden = int(round(config.mlp_ratio * hs))
    total = config.depth * (config.hidden * hs + hs)  # downsamplers
    total += config.depth * block_param_count(hs, mlp_hidden)
    total += 2 * hs  # side norm
    if side.role == ROLE_SURROGATE:
        total += hs * config.num_classes + config.num_classes
    else:
        total += side.explainer_head_depth * (hs * hs + hs)
        total += hs * config.num_classes + config.num_classes
    return total
