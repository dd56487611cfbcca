"""Small transformer encoder classifier with attention-mask feature removal.

Tokens are generic vectors; a linear projection lifts them to the hidden
width, a learned class token is prepended at index 0, and learned positional
embeddings are added. Feature removal means that no token can read a
removed token as an attention key. Since a removed token then never reaches
the class token, a masked pass runs on the class token and the kept tokens
alone (token compaction), each kept token with its own position row.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ContractError, Tensor, check_buildable


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
        if min(self.depth, self.hidden, self.heads, self.token_input_dim, self.num_classes) < 1:
            raise ContractError(
                "depth, hidden, heads, token_input_dim and num_classes must be >= 1")
        if self.hidden % self.heads != 0:
            raise ContractError(f"hidden={self.hidden} not divisible by heads={self.heads}")
        if self.num_tokens < 2:
            raise ContractError("num_tokens must be >= 2")
        mlp_width(self.mlp_ratio, self.hidden)  # refuses a width no array can take
        check_buildable("parameters", count_params(self))  # each is drawn as float64

    @property
    def mlp_hidden(self) -> int:
        return mlp_width(self.mlp_ratio, self.hidden)

    def to_dict(self):
        return asdict(self)


def mlp_width(ratio, width: int) -> int:
    """round(ratio * width), the MLP width of a block ``width`` wide.

    ContractError unless ``ratio * width`` is a number in (0, 2**63), below
    the largest size numpy can build, that rounds to at least 1.
    """
    if not (width < 2 ** 63 and 0 < ratio * width < 2 ** 63 and round(ratio * width) >= 1):
        raise ContractError(
            f"MLP width round(mlp_ratio={ratio} * {width}) is not an integer in [1, 2**63)")
    return int(round(ratio * width))


def kaiming_normal(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)


class Linear:
    def __init__(self, rng, in_dim, out_dim):
        self.weight = Tensor(kaiming_normal(rng, in_dim, (in_dim, out_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.weight, self.bias)

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
        return self.proj(ad.attention(self.qkv(t), self.heads))

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


def token_batch(tokens: np.ndarray) -> np.ndarray:
    """``tokens`` as a float32 (batch, d, token_input_dim) batch of at least one row.

    One (d, token_input_dim) sequence becomes a batch of 1; any other shape
    is a ContractError.
    """
    tokens = np.asarray(tokens, dtype=np.float32)
    if tokens.ndim == 2:
        tokens = tokens[None]
    if tokens.ndim != 3 or not len(tokens):
        raise ContractError(
            f"tokens of shape {tokens.shape} are not a (batch, d, token_input_dim) "
            f"batch with at least one row")
    return tokens


def class_logits(head, seq: Tensor) -> Tensor:
    """``head`` on each sequence's class token: (batch, tokens, width) -> (batch, C).

    ``head`` runs on the (batch, 1, width) slice, a stack of one-row
    products, so each row's logits are the same bits in any batch.
    """
    out = head(ad.narrow(seq, 1, 0, 1))
    return ad.reshape(out, (seq.shape[0], out.shape[2]))


def masked_batch(tokens: np.ndarray, mask: np.ndarray | None, num_tokens: int):
    """Checked (tokens, mask): (batch, d, token_input_dim) float32 and (batch, d) 0/1.

    A single token row or mask row is broadcast over the other's batch; a None mask stays
    None. Any mask value other than 0 or 1 (NaN included) is a ContractError.
    """
    tokens = token_batch(tokens)
    if mask is None:
        return tokens, None
    mask = np.asarray(mask)
    if mask.ndim == 1:
        mask = mask[None, :]
    if mask.ndim != 2:
        raise ContractError(f"mask of shape {mask.shape} has rank {mask.ndim}, not 1 or 2")
    if mask.shape[-1] != num_tokens:
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


_PASS_TOKENS = 2048  # tokens per graph-free pass; it sets memory, never a row's bits


def by_kept_count(run, tokens: np.ndarray, mask: np.ndarray | None, num_tokens: int):
    """``run(tokens, mask)`` over passes of rows that keep equally many tokens (None: all).

    The one place a batch becomes model passes: a graph-free pass holds at most ``_PASS_TOKENS``
    tokens, rows x (kept + 1), one row at least; one that records a graph holds a whole count,
    as the graph keeps every activation until backward anyway. ``run`` returns a Tensor or a
    tuple of them, and each output's rows return in input order.
    """
    tokens, mask = masked_batch(tokens, mask, num_tokens)
    kept = np.full(len(tokens), num_tokens) if mask is None else np.count_nonzero(mask, axis=1)
    order = np.argsort(kept, kind="stable")
    starts = np.flatnonzero(np.diff(kept[order], prepend=-1))
    cuts = []
    for lo, hi in zip(starts, [*starts[1:], len(order)]):
        size = hi - lo if ad.is_grad_enabled() else max(1, _PASS_TOKENS // (kept[order[lo]] + 1))
        cuts.extend(range(lo, hi, size))
    if len(cuts) <= 1:
        return run(tokens, mask)
    outs = [run(tokens[rows], None if mask is None else mask[rows])
            for rows in np.split(order, cuts[1:])]
    back = np.argsort(order)
    if isinstance(outs[0], Tensor):
        return ad.take(ad.concat(outs, axis=0), back)
    return tuple(ad.take(ad.concat(parts, axis=0), back) for parts in zip(*outs))


def value_logits(logits_fn, tokens: np.ndarray, masks: np.ndarray | None = None) -> np.ndarray:
    """Numpy logits of a frozen value function such as ``MaskedTransformer.forward``
    (``masks`` None: unmasked), recording no autodiff graph."""
    with ad.no_grad():
        return logits_fn(tokens, masks).numpy()


def class_probs(logits: np.ndarray) -> np.ndarray:
    """Float64 class probabilities of value logits: the one map from logits to v(s)."""
    return ad.softmax(Tensor(logits, dtype=np.float64)).numpy()


def null_value(logits_fn, config: ModelConfig) -> np.ndarray:
    """v(x_0), (1, C): the empty mask reads no input token, so one zero row serves all."""
    d = config.num_tokens
    return class_probs(value_logits(logits_fn, np.zeros((1, d, config.token_input_dim)),
                                    np.zeros((1, d))))


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
        return class_logits(lambda cls: self.head(self.final_norm(cls)), final_state)

    def forward(self, tokens: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        """Class logits for a (batch of) token sequence(s) under mask s."""
        return by_kept_count(
            lambda t, m: self.logits_from_state(self.block_states(t, m)[-1]),
            tokens, mask, self.config.num_tokens)

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
