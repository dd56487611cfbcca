"""Shared numerical helpers for the test suite."""

import numpy as np
import pytest

import sideshap.autodiff as ad
from sideshap.autodiff import ContractError, Tensor
from sideshap.transformer import MaskedTransformer, class_logits


def fd_gradient(build_loss, values, eps=1e-6):
    """Central finite differences of a scalar loss w.r.t. a list of arrays.

    ``build_loss(tensors)`` must construct the graph from scratch and return
    the scalar loss Tensor. Arrays are used in float64 so the truncation error
    of the stencil dominates.
    """
    values = [np.asarray(v, dtype=np.float64) for v in values]

    def run(vs):
        tensors = [Tensor(v, requires_grad=True, dtype=np.float64) for v in vs]
        return build_loss(tensors), tensors

    grads = []
    for i, v in enumerate(values):
        g = np.zeros_like(v)
        flat = v.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            bumped = [u.copy() for u in values]
            bumped[i].reshape(-1)[j] = flat[j] + eps
            hi, _ = run(bumped)
            bumped[i].reshape(-1)[j] = flat[j] - eps
            lo, _ = run(bumped)
            gflat[j] = (hi.item() - lo.item()) / (2 * eps)
        grads.append(g)
    return grads


def backward_gradient(build_loss, values):
    tensors = [Tensor(np.asarray(v, dtype=np.float64), requires_grad=True,
                      dtype=np.float64) for v in values]
    loss = build_loss(tensors)
    loss.backward()
    return [t.grad for t in tensors]


def relative_error(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return float(np.abs(a - b).max() / denom)


@pytest.fixture
def block_state_masks(monkeypatch):
    """The mask of every ``MaskedTransformer.block_states`` call, in call order.

    None marks an unmasked pass.
    """
    masks = []
    block_states = MaskedTransformer.block_states

    def recording(self, tokens, mask):
        masks.append(mask)
        return block_states(self, tokens, mask)

    monkeypatch.setattr(MaskedTransformer, "block_states", recording)
    return masks


def count_graph_nodes(out):
    """Number of recorded ops in the graph behind ``out`` (tensors with parents)."""
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t._parents:
            seen.add(id(t))
            stack.extend(parent for parent, _ in t._parents)
    return len(seen)


def write_raw_checkpoint(path, role: bytes, config: bytes, shapes=None):
    """A digest-valid checkpoint with the given raw role and config bytes.

    ``shapes`` maps tensor names to the dims written in the header, each with
    a zero payload of as many float32 values; None writes no tensors.
    """
    import math
    import struct

    from sideshap.checkpoint import FORMAT_VERSION, MAGIC, fnv1a_64

    shapes = shapes or {}
    tensors = [b"".join([struct.pack("<H", len(name)), name.encode(),
                         struct.pack(f"<B{len(shape)}Q", len(shape), *shape),
                         bytes(4 * math.prod(shape))])
               for name, shape in shapes.items()]
    body = b"".join([MAGIC, struct.pack("<I", FORMAT_VERSION),
                     struct.pack("<H", len(role)), role,
                     struct.pack("<I", len(config)), config,
                     struct.pack("<I", len(shapes)), *tensors])
    with open(path, "wb") as f:
        f.write(body + struct.pack("<Q", fnv1a_64(body)))


NEG_MASK_VALUE = -1e9  # finite stand-in for -inf added to attention scores


def mask_key_bias(mask, num_tokens):
    """Additive attention bias from a feature mask.

    mask: (batch, d) with 1 = retained. Returns (batch, 1, 1, d+1) where the
    class token column (index 0) is always visible.
    """
    mask = np.asarray(mask)
    if mask.ndim == 1:
        mask = mask[None, :]
    if mask.shape[-1] != num_tokens:
        raise ContractError(f"mask length {mask.shape[-1]} != num_tokens {num_tokens}")
    bias = np.zeros((mask.shape[0], 1, 1, num_tokens + 1), dtype=np.float32)
    bias[:, 0, 0, 1:] = NEG_MASK_VALUE * (1.0 - mask.astype(np.float32))
    return bias


def key_bias_block(block, x, bias):
    """``block(x)`` with ``bias`` added to every head's attention scores.

    Built from the block's own layers, so it runs the same weights as
    ``MsaBlock.__call__``; removed tokens stay in ``x`` but no token can
    read them as keys.
    """
    t = block.ln1(x)
    b, n, h = t.shape
    k_h, d_h = block.heads, block.head_dim
    qkv = ad.transpose(ad.reshape(block.qkv(t), (b, n, 3, k_h, d_h)), (2, 0, 3, 1, 4))
    q, k, v = (ad.reshape(ad.narrow(qkv, 0, i, 1), (b, k_h, n, d_h)) for i in range(3))
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(d_h))
    attn = ad.softmax(scores + Tensor(bias))
    out = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)), (b, n, h))
    x = x + block.proj(out)
    return x + block.fc2(ad.gelu(block.fc1(block.ln2(x))))


def key_bias_states(model, tokens, mask):
    """Backbone block states with masked tokens hidden by ``mask_key_bias``.

    The reference for the compacted pass: every token is kept, and removed
    tokens are hidden as attention keys in every block.
    """
    bias = mask_key_bias(mask, model.config.num_tokens)
    x = model.embed_tokens(tokens)
    states = []
    for block in model.blocks:
        x = key_bias_block(block, x, bias)
        states.append(x)
    return states


def key_bias_logits(model, tokens, mask):
    return model.logits_from_state(key_bias_states(model, tokens, mask)[-1])


def key_bias_surrogate_logits(surrogate, tokens, mask):
    """Surrogate logits with the side branch hidden by the same key bias."""
    bias = mask_key_bias(mask, surrogate.backbone.config.num_tokens)
    z = None
    for tap_fc, block, state in zip(surrogate.downsamplers, surrogate.side_blocks,
                                    key_bias_states(surrogate.backbone, tokens, mask)):
        tap = tap_fc(state)
        z = key_bias_block(block, tap if z is None else z + tap, bias)
    return class_logits(surrogate.head_layers[0], surrogate.side_norm(z))


def mixed_masks(rng, n, d):
    """``n`` random masks of mixed sizes, the empty and the full mask included."""
    keep = rng.random((n, d)) < rng.random((n, 1))
    keep[0], keep[1] = False, True
    return keep.astype(np.float32)


def three_pass_explain(combined, tokens):
    """``CombinedModel.explain`` in three backbone passes.

    The reference for the single-pass explain: v(x_1) from an all-ones mask
    and v(x_0) from an all-zeros mask, each a masked surrogate pass of its own.
    """
    from sideshap.shapley import efficiency_normalize_grid

    tokens = np.asarray(tokens, dtype=np.float32)
    states = combined.classifier.block_states(tokens, None)
    logits = combined.classifier.logits_from_state(states[-1]).numpy()
    raw = combined.explainer.explainer_raw(tokens, backbone_states=states).numpy()
    ones = np.ones(tokens.shape[:2], dtype=np.float32)
    v1 = combined.surrogate.surrogate_forward(tokens, ones)
    v0 = combined.surrogate.surrogate_forward(tokens, np.zeros_like(ones))
    normalized = efficiency_normalize_grid(raw, v1, v0)
    residual = np.abs(normalized.sum(axis=1) - (v1 - v0)).max()
    return logits, normalized, float(residual)
