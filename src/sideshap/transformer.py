"""Small transformer encoder classifier with attention-mask feature removal.

Tokens are generic vectors; a linear projection lifts them to the hidden
width, a learned class token is prepended at index 0, and learned positional
embeddings are added. Feature removal is done purely through the attention
mask: masked tokens are hidden as *keys* in every attention layer, so no
unmasked token (in particular the class token) can read their content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor

NEG_MASK_VALUE = -1e9  # finite stand-in for -inf added to attention scores


@dataclass
class ModelConfig:
    depth: int
    hidden: int
    heads: int
    num_tokens: int
    token_input_dim: int
    num_classes: int
    mlp_ratio: float = 4.0
    use_positional: bool = True

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ContractError(f"hidden={self.hidden} not divisible by heads={self.heads}")
        if self.num_tokens < 2:
            raise ContractError("num_tokens must be >= 2")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.hidden))

    def to_dict(self):
        return {
            "depth": self.depth, "hidden": self.hidden, "heads": self.heads,
            "num_tokens": self.num_tokens, "token_input_dim": self.token_input_dim,
            "num_classes": self.num_classes, "mlp_ratio": self.mlp_ratio,
            "use_positional": self.use_positional,
        }


# architecture tables for analytic count reproduction; no weights attached
PRESETS = {
    "vit-tiny": ModelConfig(depth=12, hidden=192, heads=3, num_tokens=196,
                            token_input_dim=768, num_classes=10),
    "vit-small": ModelConfig(depth=12, hidden=384, heads=6, num_tokens=196,
                             token_input_dim=768, num_classes=10),
    "vit-base": ModelConfig(depth=12, hidden=768, heads=12, num_tokens=196,
                            token_input_dim=768, num_classes=10),
    "vit-large": ModelConfig(depth=24, hidden=1024, heads=16, num_tokens=196,
                             token_input_dim=768, num_classes=10),
}


def kaiming_normal(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)


class Linear:
    def __init__(self, rng, in_dim, out_dim, trainable=True):
        self.weight = Tensor(kaiming_normal(rng, in_dim, (in_dim, out_dim)),
                             requires_grad=trainable)
        self.bias = Tensor(np.zeros(out_dim, dtype=np.float32), requires_grad=trainable)

    def __call__(self, x: Tensor) -> Tensor:
        return (x @ self.weight) + self.bias

    def named_parameters(self, prefix: str) -> dict:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class LayerNorm:
    def __init__(self, dim, trainable=True):
        self.gamma = Tensor(np.ones(dim, dtype=np.float32), requires_grad=trainable)
        self.beta = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=trainable)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta)

    def named_parameters(self, prefix: str) -> dict:
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}


class MsaBlock:
    """Pre-norm transformer block: LN -> masked MSA -> residual -> LN -> MLP -> residual."""

    def __init__(self, rng, hidden, heads, mlp_hidden, trainable=True):
        self.hidden = hidden
        self.heads = heads
        self.head_dim = hidden // heads
        self.ln1 = LayerNorm(hidden, trainable)
        self.qkv = Linear(rng, hidden, 3 * hidden, trainable)
        self.proj = Linear(rng, hidden, hidden, trainable)
        self.ln2 = LayerNorm(hidden, trainable)
        self.fc1 = Linear(rng, hidden, mlp_hidden, trainable)
        self.fc2 = Linear(rng, mlp_hidden, hidden, trainable)

    def attention(self, t: Tensor, key_bias: np.ndarray | None) -> Tensor:
        """Masked multi-head self-attention.

        key_bias: (batch, 1, 1, T) additive scores, 0 for visible keys and
        NEG_MASK_VALUE for removed ones. Masked tokens still act as queries.
        """
        b, n, h = t.shape
        k_h, d_h = self.heads, self.head_dim
        qkv = self.qkv(t)  # (b, n, 3h)
        qkv = ad.reshape(qkv, (b, n, 3, k_h, d_h))
        qkv = ad.transpose(qkv, (2, 0, 3, 1, 4))  # (3, b, heads, n, d_h)
        q = ad.narrow(qkv, 0, 0, 1)
        k = ad.narrow(qkv, 0, 1, 1)
        v = ad.narrow(qkv, 0, 2, 1)
        q = ad.reshape(q, (b, k_h, n, d_h))
        k = ad.reshape(k, (b, k_h, n, d_h))
        v = ad.reshape(v, (b, k_h, n, d_h))
        scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(d_h))
        if key_bias is not None:
            scores = scores + Tensor(key_bias.astype(np.float32))
        attn = ad.softmax(scores)  # (b, heads, n, n)
        out = ad.matmul(attn, v)  # (b, heads, n, d_h)
        out = ad.transpose(out, (0, 2, 1, 3))
        out = ad.reshape(out, (b, n, h))
        return self.proj(out)

    def __call__(self, x: Tensor, key_bias: np.ndarray | None) -> Tensor:
        x = x + self.attention(self.ln1(x), key_bias)
        x = x + self.fc2(ad.gelu(self.fc1(self.ln2(x))))
        return x

    def named_parameters(self, prefix: str) -> dict:
        out = {}
        for name in ("ln1", "qkv", "proj", "ln2", "fc1", "fc2"):
            out.update(getattr(self, name).named_parameters(f"{prefix}.{name}"))
        return out


def named_layer_parameters(prefix: str, layers) -> dict:
    """Parameters of a layer list, named ``<prefix>.<index>.<parameter>``."""
    out = {}
    for i, layer in enumerate(layers):
        out.update(layer.named_parameters(f"{prefix}.{i}"))
    return out


def state_snapshot(named: dict) -> dict:
    """Copy of every parameter array, keyed by parameter name."""
    return {k: p.data.copy() for k, p in named.items()}


def load_named_state(named: dict, state: dict):
    """Load ``state`` into the named parameters once every name and shape matches."""
    if set(state) != set(named):
        raise ContractError(f"state mismatch: {sorted(set(named) ^ set(state))}")
    for k, p in named.items():
        if np.shape(state[k]) != p.data.shape:
            raise ContractError(
                f"shape mismatch for {k}: {np.shape(state[k])} vs {p.data.shape}")
    for k, p in named.items():
        p.data = np.array(state[k], dtype=np.float32)


def mask_key_bias(mask: np.ndarray, num_tokens: int) -> np.ndarray:
    """Additive attention bias from a feature mask.

    mask: (batch, d) with 1 = retained. Returns (batch, 1, 1, d+1) where the
    class token column (index 0) is always visible.
    """
    mask = np.asarray(mask)
    if mask.ndim == 1:
        mask = mask[None, :]
    if mask.shape[-1] != num_tokens:
        raise ContractError(
            f"mask length {mask.shape[-1]} != num_tokens {num_tokens}")
    b = mask.shape[0]
    bias = np.zeros((b, 1, 1, num_tokens + 1), dtype=np.float32)
    bias[:, 0, 0, 1:] = NEG_MASK_VALUE * (1.0 - mask.astype(np.float32))
    return bias


class MaskedTransformer:
    """Transformer classifier f supporting attention-mask feature removal."""

    def __init__(self, config: ModelConfig, seed: int = 0, trainable: bool = True):
        self.config = config
        rng = np.random.default_rng(seed)
        c = config
        self.embed = Linear(rng, c.token_input_dim, c.hidden, trainable)
        self.class_token = Tensor(
            (rng.standard_normal((1, 1, c.hidden)) * 0.02).astype(np.float32),
            requires_grad=trainable)
        if c.use_positional:
            self.positions = Tensor(
                (rng.standard_normal((1, c.num_tokens + 1, c.hidden)) * 0.02).astype(np.float32),
                requires_grad=trainable)
        else:
            self.positions = None
        self.blocks = [
            MsaBlock(rng, c.hidden, c.heads, c.mlp_hidden, trainable)
            for _ in range(c.depth)
        ]
        self.final_norm = LayerNorm(c.hidden, trainable)
        self.head = Linear(rng, c.hidden, c.num_classes, trainable)

    # ------------------------------------------------------------------
    def embed_tokens(self, tokens: np.ndarray) -> Tensor:
        """tokens: (batch, d, token_input_dim) -> (batch, d+1, hidden)."""
        tokens = np.asarray(tokens, dtype=np.float32)
        if tokens.ndim == 2:
            tokens = tokens[None]
        b = tokens.shape[0]
        if tokens.shape[1] != self.config.num_tokens:
            raise ContractError(
                f"expected {self.config.num_tokens} tokens, got {tokens.shape[1]}")
        x = self.embed(Tensor(tokens))
        cls = ad.broadcast_to(self.class_token, (b, 1, self.config.hidden))
        x = ad.concat([cls, x], axis=1)
        if self.positions is not None:
            x = x + self.positions
        return x

    def block_states(self, tokens: np.ndarray, mask: np.ndarray | None):
        """Run all blocks, returning the post-residual state after each one."""
        bias = None
        if mask is not None:
            bias = mask_key_bias(mask, self.config.num_tokens)
        x = self.embed_tokens(tokens)
        states = []
        for block in self.blocks:
            x = block(x, bias)
            states.append(x)
        return states

    def logits_from_state(self, final_state: Tensor) -> Tensor:
        cls = ad.narrow(final_state, 1, 0, 1)  # (b, 1, h)
        cls = ad.reshape(cls, (final_state.shape[0], self.config.hidden))
        return self.head(self.final_norm(cls))

    def forward(self, tokens: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        """Class logits for a (batch of) token sequence(s) under mask s."""
        states = self.block_states(tokens, mask)
        return self.logits_from_state(states[-1])

    def predict_proba(self, tokens: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        return ad.softmax(self.forward(tokens, mask)).numpy()

    # ------------------------------------------------------------------
    def named_parameters(self):
        out = self.embed.named_parameters("embed")
        out["class_token"] = self.class_token
        if self.positions is not None:
            out["positions"] = self.positions
        out.update(named_layer_parameters("blocks", self.blocks))
        out.update(self.final_norm.named_parameters("final_norm"))
        out.update(self.head.named_parameters("head"))
        return out

    def parameters(self):
        return list(self.named_parameters().values())

    def set_trainable(self, trainable: bool):
        for p in self.parameters():
            p.requires_grad = trainable

    def state_dict(self):
        return state_snapshot(self.named_parameters())

    def load_state(self, state: dict):
        load_named_state(self.named_parameters(), state)


# ---------------------------------------------------------------------------
# analytic parameter counting


def block_param_count(hidden: int, mlp_hidden: int) -> int:
    qkv = hidden * 3 * hidden + 3 * hidden
    proj = hidden * hidden + hidden
    norms = 4 * hidden
    mlp = hidden * mlp_hidden + mlp_hidden + mlp_hidden * hidden + hidden
    return qkv + proj + norms + mlp


def count_params(config: ModelConfig) -> int:
    """Exact analytic parameter count of a MaskedTransformer."""
    c = config
    total = c.token_input_dim * c.hidden + c.hidden  # token embedding
    total += c.hidden  # class token
    if c.use_positional:
        total += (c.num_tokens + 1) * c.hidden
    total += c.depth * block_param_count(c.hidden, c.mlp_hidden)
    total += 2 * c.hidden  # final norm
    total += c.hidden * c.num_classes + c.num_classes  # classification head
    return total
