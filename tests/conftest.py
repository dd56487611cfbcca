"""Shared numerical helpers for the test suite."""

import numpy as np

from sideshap.autodiff import Tensor


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


def key_bias_states(model, tokens, mask):
    """Backbone block states with masked tokens hidden by ``mask_key_bias``.

    The reference for the compacted pass: every token is kept, and removed
    tokens are hidden as attention keys in every block.
    """
    from sideshap.transformer import mask_key_bias

    bias = mask_key_bias(mask, model.config.num_tokens)
    x = model.embed_tokens(tokens)
    states = []
    for block in model.blocks:
        x = block(x, bias)
        states.append(x)
    return states


def key_bias_logits(model, tokens, mask):
    return model.logits_from_state(key_bias_states(model, tokens, mask)[-1])


def key_bias_surrogate_logits(surrogate, tokens, mask):
    """Surrogate logits with the side branch hidden by the same key bias."""
    import sideshap.autodiff as ad
    from sideshap.transformer import mask_key_bias

    bias = mask_key_bias(mask, surrogate.backbone.config.num_tokens)
    z = None
    for tap_fc, block, state in zip(surrogate.downsamplers, surrogate.side_blocks,
                                    key_bias_states(surrogate.backbone, tokens, mask)):
        tap = tap_fc(state)
        z = block(tap if z is None else z + tap, bias)
    seq = surrogate.side_norm(z)
    cls = ad.reshape(ad.narrow(seq, 1, 0, 1), (seq.shape[0], surrogate.side_hidden))
    return surrogate.head_layers[0](cls)


def mixed_masks(rng, n, d):
    """``n`` random masks of mixed sizes, the empty and the full mask included."""
    keep = rng.random((n, d)) < rng.random((n, 1))
    keep[0], keep[1] = False, True
    return keep.astype(np.float32)
