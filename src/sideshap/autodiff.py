"""Dense tensor arithmetic with reverse-mode automatic differentiation.

Everything is built on numpy arrays. A Tensor records the operation that
produced it, so calling ``backward()`` on a scalar loss fills ``grad`` on
every reachable tensor with ``requires_grad=True``. Parameters default to
float32; float64 graphs are supported for tight finite-difference checks.
"""

from __future__ import annotations

import ctypes
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "ContractError",
    "DimensionError",
    "OptimizerConfig",
    "Optimizer",
    "add", "sub", "mul", "matmul", "reshape", "transpose", "broadcast_to",
    "concat", "narrow", "take", "tensor_sum", "mean", "square", "gelu",
    "softmax", "log_softmax", "attention", "layer_norm", "row_max", "no_grad",
    "is_grad_enabled",
]

_SQRT_2 = np.sqrt(2.0)
_ERF = np.frompyfunc(math.erf, 1, 1)  # elementwise math.erf, object dtype out
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
# Abramowitz & Stegun 7.1.26: erf(z) ~ 1 - t P(t) exp(-z^2), t = 1/(1 + p z),
# |error| <= 1.5e-7 for z >= 0. With z = x/sqrt(2), p is prescaled by
# 1/sqrt(2); the coefficients of P (highest power first) are halved.
_AS_P = float(0.3275911 / np.sqrt(2.0))
_AS_HALF_COEFFS = tuple(0.5 * c for c in (
    1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> bool:
    """Have glibc malloc keep freed memory for reuse; True if it now does.

    A graph-free pass frees nearly all it allocated. By default glibc maps
    large blocks with mmap and returns the heap top to the OS, so the next
    pass faults every page back in. Here blocks under 32 MiB come from the
    heap and up to 128 MiB of free top stays mapped. Both are set: setting
    either one turns off glibc's dynamic thresholds, which would leave the
    other at its 128 KiB default. Nothing is done without ``mallopt``
    (macOS, musl, Windows) or where the user tunes malloc (``MALLOC_*_``
    variables, ``glibc.malloc`` in ``GLIBC_TUNABLES``).
    """
    if (any(k.startswith("MALLOC_") and k.endswith("_") for k in os.environ)
            or "glibc.malloc" in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 128 << 20)])


_keep_freed_memory()


class ContractError(ValueError):
    """A precondition of a public operation was violated."""


class DimensionError(ContractError):
    """Operand shapes do not conform."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents")

    def __init__(self, data, requires_grad=False, dtype=None, _parents=()):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents  # tuple of (Tensor, grad_fn)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(()))

    def numpy(self):
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    def backward(self):
        """Reverse-mode sweep from a scalar tensor.

        Fills ``grad`` on every tensor with ``requires_grad=True`` reachable
        from this node. Frozen tensors are never touched.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if id(parent) not in visited and _needs_grad(parent):
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {
            id(self): np.ones_like(self.data)
        }
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            for parent, grad_fn in node._parents:
                if not _needs_grad(parent):
                    continue
                pg = grad_fn(g)
                if pg.dtype != parent.data.dtype:
                    pg = pg.astype(parent.data.dtype)
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


_grad_enabled = True


@contextmanager
def no_grad():
    """Record no graph: every op inside returns a Tensor without parents."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def is_grad_enabled() -> bool:  # False inside ``no_grad``
    return _grad_enabled


def _result(data, parents) -> Tensor:
    # track gradients only when some input participates in the graph
    if not _grad_enabled:
        return Tensor(data)
    tracked = tuple((p, fn) for p, fn in parents if _needs_grad(p))
    return Tensor(data, _parents=tracked)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    ndiff = g.ndim - len(shape)
    if ndiff > 0:
        g = g.sum(axis=tuple(range(ndiff)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcast(fn, a: Tensor, b: Tensor, op: str) -> np.ndarray:
    """``fn(a.data, b.data)``; numpy's shape check becomes a DimensionError."""
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise DimensionError(
            f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast(np.add, a, b, "add")
    return _result(out, (
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(g, b.shape)),
    ))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast(np.subtract, a, b, "sub")
    return _result(out, (
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(-g, b.shape)),
    ))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast(np.multiply, a, b, "mul")
    return _result(out, (
        (a, lambda g: _unbroadcast(g * b.data, a.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.shape)),
    ))


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b``, plus ``bias`` (broadcast like ``add``) in the same node."""
    if a.data.ndim < 1 or b.data.ndim < 1 or a.shape[-1] != b.shape[-2 if b.data.ndim > 1 else 0]:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    out = np.matmul(a.data, b.data)

    def grad_a(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        return _unbroadcast(ga, a.shape)

    def grad_b(g):
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(gb, b.shape)

    parents = [(a, grad_a), (b, grad_b)]
    if bias is not None:
        try:
            out = out + bias.data
        except ValueError:
            raise DimensionError(
                f"matmul: bias shape {bias.shape} does not broadcast to {out.shape}") from None
        parents.append((bias, lambda g: _unbroadcast(g, bias.shape)))
    return _result(out, parents)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    return _result(out, ((a, lambda g: g.reshape(a.shape)),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = a.data.transpose(axes)
    return _result(out, ((a, lambda g: g.transpose(inverse)),))


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = np.broadcast_to(a.data, shape)
    return _result(np.ascontiguousarray(out), ((a, lambda g: _unbroadcast(g, a.shape)),))


def concat(tensors, axis=0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_fn(i):
        lo, hi = offsets[i], offsets[i + 1]

        def fn(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        return fn

    return _result(out, tuple((t, make_fn(i)) for i, t in enumerate(tensors)))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = a.data[index]

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return full

    return _result(np.ascontiguousarray(out), ((a, grad_fn),))


def take(a: Tensor, indices) -> Tensor:
    """Rows of ``a`` (along axis 0) at ``indices``; shape indices.shape + a.shape[1:].

    Rows may repeat; the backward pass scatter-adds into each source row.
    """
    indices = np.asarray(indices, dtype=np.intp)
    out = a.data[indices]

    def grad_fn(g):
        full = np.zeros_like(a.data)
        np.add.at(full, indices, g)
        return full

    return _result(out, ((a, grad_fn),))


# ---------------------------------------------------------------------------
# reductions and nonlinearities


def tensor_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is None:
            return np.broadcast_to(g, a.shape).copy()
        if not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.shape).copy()

    return _result(out, ((a, grad_fn),))


def mean(a: Tensor) -> Tensor:
    """Mean over every element, a scalar."""
    return tensor_sum(a) * (1.0 / a.data.size)


def square(a: Tensor) -> Tensor:
    return _result(a.data * a.data, ((a, lambda g: g * 2.0 * a.data),))


def gelu(a: Tensor) -> Tensor:
    """Erf-based GELU, x * Phi(x).

    Float64 data uses the exact ``math.erf`` elementwise. Float32 data stays in
    float32 and uses the Abramowitz & Stegun 7.1.26 erf (within 5e-7 of the
    exact GELU); its exp(-x^2/2) term is the normal density the backward
    pass needs, so it is computed once.
    """
    x = a.data
    if x.dtype != np.float32:
        cdf = 0.5 * (1.0 + np.asarray(_ERF(x / _SQRT_2), dtype=np.float64))
        out = x * cdf

        def grad_fn(g):
            pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
            return g * (cdf + x * pdf)

        return _result(out.astype(x.dtype), ((a, grad_fn),))

    # Phi(x) = 1/2 + sign(x) * (1/2 - tail(|x|)), tail = t P(t) exp(-x^2/2) / 2
    density = x * x
    density *= -0.5
    np.exp(density, out=density)  # exp(-x^2/2)
    t = np.abs(x)
    t *= _AS_P
    t += 1.0
    np.reciprocal(t, out=t)
    cdf = t * _AS_HALF_COEFFS[0]
    for c in _AS_HALF_COEFFS[1:]:
        cdf += c
        cdf *= t
    cdf *= density
    np.subtract(0.5, cdf, out=cdf)
    np.copysign(cdf, x, out=cdf)
    cdf += 0.5

    def grad_fn(g):
        return g * (cdf + x * density * _INV_SQRT_2PI)

    return _result(x * cdf, ((a, grad_fn),))


def row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``, bit-equal but for the sign of a zero maximum.

    A last axis of 2-16 entries is folded with ``np.maximum``, many times
    faster than numpy's per-row reduction on such short rows. For a row
    holding +0 and -0, numpy's own choice of sign depends on its SIMD width;
    the fold returns the first. A softmax subtracts the maximum, so that
    sign never reaches its output.
    """
    n = x.shape[-1]
    if not 2 <= n <= 16:
        return x.max(axis=-1, keepdims=True)
    out = np.maximum(x[..., 0:1], x[..., 1:2])
    for i in range(2, n):
        np.maximum(out, x[..., i:i + 1], out=out)
    return out


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, log-sum-exp stabilized."""
    shifted = a.data - row_max(a.data)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return out * (g - dot)

    return _result(out, ((a, grad_fn),))


def attention(qkv: Tensor, heads: int) -> Tensor:
    """Multi-head self-attention core: ``(b, n, 3h)`` q|k|v rows to ``(b, n, h)``.

    One node in place of the split, scaled scores, softmax, mix and merge.
    The forward makes the numpy calls of that composition in the same order,
    so its output is bit-equal to it; the two products go through
    ``matmul`` and the softmax through ``softmax``, on parentless tensors.
    The backward uses the softmax-Jacobian identity
    dS = A * (dA - rowsum(dA * A)), as in FlashAttention (Dao et al., 2022).
    """
    if qkv.data.ndim != 3 or heads < 1 or qkv.shape[-1] % (3 * heads):
        raise DimensionError(
            f"attention: qkv shape {qkv.shape} is not (b, n, 3 * {heads} * head_dim)")
    b, n, width = qkv.shape
    h = width // 3
    d_h = h // heads
    split = qkv.data.reshape(b, n, 3, heads, d_h).transpose(2, 0, 3, 1, 4)
    q, k, v = (np.ascontiguousarray(split[i]) for i in range(3))  # (b, heads, n, d_h)
    scale = np.asarray(1.0 / np.sqrt(d_h), dtype=qkv.dtype)
    with no_grad():
        scores = matmul(Tensor(q), Tensor(k.transpose(0, 1, 3, 2))).data * scale
        attn = softmax(Tensor(scores)).data
        mixed = matmul(Tensor(attn), Tensor(v)).data
    out = mixed.transpose(0, 2, 1, 3).reshape(b, n, h)

    def grad_fn(g):
        d_out = g.reshape(b, n, heads, d_h).transpose(0, 2, 1, 3)
        d_qkv = np.empty((3, b, heads, n, d_h), dtype=qkv.dtype)
        d_qkv[2] = np.matmul(np.swapaxes(attn, -1, -2), d_out)
        d_attn = np.matmul(d_out, np.swapaxes(v, -1, -2))
        d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) * scale
        d_qkv[0] = np.matmul(d_scores, k)
        d_qkv[1] = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), d_scores), -1, -2)
        return d_qkv.transpose(1, 3, 0, 2, 4).reshape(b, n, width)

    return _result(out, ((qkv, grad_fn),))


def log_softmax(a: Tensor) -> Tensor:
    shifted = a.data - row_max(a.data)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    p = np.exp(out)

    def grad_fn(g):
        return g - p * g.sum(axis=-1, keepdims=True)

    return _result(out, ((a, grad_fn),))


_LAYER_NORM_EPS = 1e-5


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Layer normalization over the last axis with affine parameters."""
    if gamma.shape != a.shape[-1:] or beta.shape != a.shape[-1:]:
        raise DimensionError(
            f"layer_norm: affine shapes {gamma.shape}/{beta.shape} "
            f"do not match feature dim of {a.shape}"
        )
    x = a.data
    n = x.shape[-1]
    # sum / n is numpy's mean without its Python wrapper (bit-equal)
    mu = x.sum(axis=-1, keepdims=True) / n
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    xhat = xc * inv
    out = xhat * gamma.data + beta.data

    def grad_x(g):
        gh = g * gamma.data
        term = (gh - gh.sum(axis=-1, keepdims=True) / n
                - xhat * ((gh * xhat).sum(axis=-1, keepdims=True) / n))
        return term * inv

    def grad_gamma(g):
        return (g * xhat).reshape(-1, n).sum(axis=0)

    def grad_beta(g):
        return g.reshape(-1, n).sum(axis=0)

    return _result(out.astype(x.dtype, copy=False),
                   ((a, grad_x), (gamma, grad_gamma), (beta, grad_beta)))


# ---------------------------------------------------------------------------
# optimization

# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015)
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8


@dataclass
class OptimizerConfig:
    """First-order optimizer settings.

    scheme "gd" applies p <- p - step_size * grad; "adam" applies the
    standard bias-corrected moment update.
    """

    step_size: float = 1e-4
    scheme: str = "adam"

    def __post_init__(self):
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ContractError(f"step_size must be finite and positive, not {self.step_size}")
        if self.scheme not in ("gd", "adam"):
            raise ContractError(f"unknown optimizer scheme {self.scheme!r}")


class Optimizer:
    """Updates a list of trainable tensors in place."""

    def __init__(self, params, config: OptimizerConfig):
        self.params = [p for p in params if p.requires_grad]
        self.config = config
        self.step_size = config.step_size
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def scale_step(self, factor: float):
        """Multiply the current step size; Adam moments are kept."""
        if factor <= 0:
            raise ContractError("step size scale factor must be positive")
        self.step_size *= factor

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ContractError("optimizer_step: trainable parameter has no gradient")
            g = p.grad
            if self.config.scheme == "gd":
                p.data = (p.data - self.step_size * g).astype(p.data.dtype, copy=False)
            else:
                self._m[i] = _BETA1 * self._m[i] + (1 - _BETA1) * g
                self._v[i] = _BETA2 * self._v[i] + (1 - _BETA2) * g * g
                mhat = self._m[i] / (1 - _BETA1 ** self.t)
                vhat = self._v[i] / (1 - _BETA2 ** self.t)
                p.data = (p.data - self.step_size * mhat / (np.sqrt(vhat) + _EPSILON)
                          ).astype(p.data.dtype, copy=False)
            if not np.all(np.isfinite(p.data)):
                raise FloatingPointError(
                    f"optimizer_step: non-finite parameter after update "
                    f"(step {self.t}, shape {p.shape})"
                )
