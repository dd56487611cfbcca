"""Small transformer encoder classifier with attention-mask feature removal.

Tokens are generic vectors; a linear projection lifts them to the hidden
width, a learned class token is prepended at index 0, and learned positional
embeddings are added. Feature removal means that no token can read a
removed token as an attention key. Since a removed token then never reaches
the class token, a masked pass runs on the class token and the kept tokens
alone (token compaction), each kept token with its own position row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor


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
        if min(self.depth, self.hidden, self.heads) < 1:
            raise ContractError("depth, hidden and heads must be >= 1")
        if self.hidden % self.heads != 0:
            raise ContractError(f"hidden={self.hidden} not divisible by heads={self.heads}")
        if self.num_tokens < 2:
            raise ContractError("num_tokens must be >= 2")

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
    def __init__(self, rng, in_dim, out_dim):
        self.weight = Tensor(kaiming_normal(rng, in_dim, (in_dim, out_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return (x @ self.weight) + self.bias

    def named_parameters(self, prefix: str) -> dict:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class LayerNorm:
    def __init__(self, dim):
        self.gamma = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta)

    def named_parameters(self, prefix: str) -> dict:
        return {f"{prefix}.gamma": self.gamma, f"{prefix}.beta": self.beta}


class MsaBlock:
    """Pre-norm transformer block: LN -> masked MSA -> residual -> LN -> MLP -> residual."""

    def __init__(self, rng, hidden, heads, mlp_hidden):
        self.hidden = hidden
        self.heads = heads
        self.head_dim = hidden // heads
        self.ln1 = LayerNorm(hidden)
        self.qkv = Linear(rng, hidden, 3 * hidden)
        self.proj = Linear(rng, hidden, hidden)
        self.ln2 = LayerNorm(hidden)
        self.fc1 = Linear(rng, hidden, mlp_hidden)
        self.fc2 = Linear(rng, mlp_hidden, hidden)

    def attention(self, t: Tensor) -> Tensor:
        """Multi-head self-attention over every token of ``t``."""
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
        attn = ad.softmax(scores)  # (b, heads, n, n)
        out = ad.matmul(attn, v)  # (b, heads, n, d_h)
        out = ad.transpose(out, (0, 2, 1, 3))
        out = ad.reshape(out, (b, n, h))
        return self.proj(out)

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attention(self.ln1(x))
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


def masked_batch(tokens: np.ndarray, mask: np.ndarray, num_tokens: int):
    """Checked (tokens, mask): (batch, d, token_input_dim) float32 and (batch, d) 0/1.

    A single token row or mask row is broadcast over the other's batch. Any
    mask value other than 0 or 1 (NaN included) is a ContractError.
    """
    tokens = np.asarray(tokens, dtype=np.float32)
    if tokens.ndim == 2:
        tokens = tokens[None]
    mask = np.asarray(mask)
    if mask.ndim == 1:
        mask = mask[None, :]
    if mask.ndim != 2 or mask.shape[-1] != num_tokens:
        raise ContractError(
            f"mask length {mask.shape[-1]} != num_tokens {num_tokens}")
    if not np.all((mask == 0) | (mask == 1)):
        raise ContractError("mask entries must be 0 or 1")
    try:
        b = np.broadcast_shapes(tokens.shape[:1], mask.shape[:1])[0]
    except ValueError:
        raise ContractError(
            f"{tokens.shape[0]} token rows and {mask.shape[0]} mask rows do not broadcast")
    return (np.broadcast_to(tokens, (b,) + tokens.shape[1:]),
            np.broadcast_to(mask, (b, num_tokens)))


def by_kept_count(run, tokens: np.ndarray, mask: np.ndarray, num_tokens: int) -> Tensor:
    """``run(tokens, mask)`` on each group of rows that keep equally many tokens.

    ``run`` returns one output row per input row; the groups' outputs come
    back in input order.
    """
    tokens, mask = masked_batch(tokens, mask, num_tokens)
    counts = mask.sum(axis=1)
    order = np.argsort(counts, kind="stable")
    starts = np.flatnonzero(np.diff(counts[order])) + 1
    if not len(starts):
        return run(tokens, mask)
    outs = [run(tokens[rows], mask[rows]) for rows in np.split(order, starts)]
    return ad.take(ad.concat(outs, axis=0), np.argsort(order))


class MaskedTransformer:
    """Transformer classifier f supporting attention-mask feature removal."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        c = config
        self.embed = Linear(rng, c.token_input_dim, c.hidden)
        self.class_token = Tensor(
            (rng.standard_normal((1, 1, c.hidden)) * 0.02).astype(np.float32),
            requires_grad=True)
        if c.use_positional:
            self.positions = Tensor(
                (rng.standard_normal((1, c.num_tokens + 1, c.hidden)) * 0.02).astype(np.float32),
                requires_grad=True)
        else:
            self.positions = None
        self.blocks = [
            MsaBlock(rng, c.hidden, c.heads, c.mlp_hidden) for _ in range(c.depth)
        ]
        self.final_norm = LayerNorm(c.hidden)
        self.head = Linear(rng, c.hidden, c.num_classes)

    # ------------------------------------------------------------------
    def embed_tokens(self, tokens: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        """tokens: (batch, d, token_input_dim) -> (batch, 1 + kept, hidden).

        Without a mask, or with one that keeps every token, all d tokens are
        embedded. Otherwise only the kept tokens are, each with its own
        position row, and every row must keep equally many. An embedded
        token that is not finite is a ContractError; a removed one is never
        read.
        """
        c = self.config
        if mask is None:
            tokens = np.asarray(tokens, dtype=np.float32)
            if tokens.ndim == 2:
                tokens = tokens[None]
        else:
            tokens, mask = masked_batch(tokens, mask, c.num_tokens)
        if tokens.shape[1] != c.num_tokens:
            raise ContractError(
                f"expected {c.num_tokens} tokens, got {tokens.shape[1]}")
        b = tokens.shape[0]
        positions = self.positions
        if mask is not None and not mask.all():
            counts = mask.sum(axis=1)
            if np.any(counts != counts[0]):
                raise ContractError("rows of a compacted batch keep different token counts")
            kept = np.nonzero(mask)[1].reshape(b, -1)
            tokens = tokens[np.arange(b)[:, None], kept]
            if positions is not None:
                index = np.concatenate([np.zeros((b, 1), dtype=np.intp), kept + 1], axis=1)
                positions = ad.take(
                    ad.reshape(positions, (c.num_tokens + 1, c.hidden)), index)
        if not np.isfinite(tokens).all():
            raise ContractError("tokens are not finite")
        x = self.embed(Tensor(tokens))
        cls = ad.broadcast_to(self.class_token, (b, 1, c.hidden))
        x = ad.concat([cls, x], axis=1)
        if positions is not None:
            x = x + positions
        return x

    def block_states(self, tokens: np.ndarray, mask: np.ndarray | None):
        """Run all blocks, returning the post-residual state after each one.

        Under a mask the states hold the class token and the kept tokens
        only (see ``embed_tokens``).
        """
        x = self.embed_tokens(tokens, mask)
        states = []
        for block in self.blocks:
            x = block(x)
            states.append(x)
        return states

    def logits_from_state(self, final_state: Tensor) -> Tensor:
        cls = ad.narrow(final_state, 1, 0, 1)  # (b, 1, h)
        cls = ad.reshape(cls, (final_state.shape[0], self.config.hidden))
        return self.head(self.final_norm(cls))

    def forward(self, tokens: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        """Class logits for a (batch of) token sequence(s) under mask s."""
        if mask is None:
            return self.logits_from_state(self.block_states(tokens, None)[-1])
        return by_kept_count(
            lambda t, m: self.logits_from_state(self.block_states(t, m)[-1]),
            tokens, mask, self.config.num_tokens)

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
