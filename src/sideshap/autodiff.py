"""Dense tensor arithmetic with reverse-mode automatic differentiation.

Everything is built on numpy arrays. A Tensor records the operation that
produced it, so calling ``backward()`` on a scalar loss fills ``grad`` on
every reachable tensor with ``requires_grad=True``. Parameters default to
float32; float64 graphs are supported for tight finite-difference checks.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "ContractError",
    "DimensionError",
    "OptimizerConfig",
    "Optimizer",
    "add", "sub", "mul", "div", "neg", "matmul", "reshape", "transpose",
    "broadcast_to", "concat", "narrow", "take", "tensor_sum", "mean", "square",
    "log", "exp", "sqrt", "gelu", "relu", "softmax", "log_softmax",
    "layer_norm", "no_grad",
]

_SQRT_2 = np.sqrt(2.0)
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
# Abramowitz & Stegun 7.1.26: erf(z) ~ 1 - t P(t) exp(-z^2), t = 1/(1 + p z),
# |error| <= 1.5e-7 for z >= 0. With z = x/sqrt(2), p is prescaled by
# 1/sqrt(2); the coefficients of P (highest power first) are halved.
_AS_P = float(0.3275911 / np.sqrt(2.0))
_AS_HALF_COEFFS = tuple(0.5 * c for c in (
    1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))


class ContractError(ValueError):
    """A precondition of a public operation was violated."""


class DimensionError(ContractError):
    """Operand shapes do not conform."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

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

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(()))

    def numpy(self):
        return self.data

    def detach(self):
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    def __radd__(self, other):
        return add(_as_tensor(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    def __rmul__(self, other):
        return mul(_as_tensor(other, self.dtype), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other, self.dtype))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

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


def div(a: Tensor, b: Tensor) -> Tensor:
    if np.any(b.data == 0):
        raise ContractError("div: zero denominator")
    out = _broadcast(np.divide, a, b, "div")
    return _result(out, (
        (a, lambda g: _unbroadcast(g / b.data, a.shape)),
        (b, lambda g: _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
    ))


def neg(a: Tensor) -> Tensor:
    return _result(-a.data, ((a, lambda g: -g),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 1 or b.data.ndim < 1 or a.shape[-1] != b.shape[-2 if b.data.ndim > 1 else 0]:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    out = np.matmul(a.data, b.data)

    def grad_a(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        return _unbroadcast(ga, a.shape)

    def grad_b(g):
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(gb, b.shape)

    return _result(out, ((a, grad_a), (b, grad_b)))


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


def mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        n = a.shape[axis]
    return tensor_sum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def square(a: Tensor) -> Tensor:
    return _result(a.data * a.data, ((a, lambda g: g * 2.0 * a.data),))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ContractError("log: non-positive input")
    return _result(np.log(a.data), ((a, lambda g: g / a.data),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _result(out, ((a, lambda g: g * out),))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise ContractError("sqrt: negative input")
    out = np.sqrt(a.data)
    return _result(out, ((a, lambda g: g * 0.5 / out),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _result(a.data * mask, ((a, lambda g: g * mask),))


def gelu(a: Tensor) -> Tensor:
    """Erf-based GELU, x * Phi(x).

    Float64 data uses the exact ``scipy.special.erf``. Float32 data stays in
    float32 and uses the Abramowitz & Stegun 7.1.26 erf (within 5e-7 of the
    exact GELU); its exp(-x^2/2) term is the normal density the backward
    pass needs, so it is computed once.
    """
    x = a.data
    if x.dtype != np.float32:
        cdf = 0.5 * (1.0 + erf(x / _SQRT_2))
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


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, log-sum-exp stabilized."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return out * (g - dot)

    return _result(out, ((a, grad_fn),))


def log_softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    p = np.exp(out)

    def grad_fn(g):
        return g - p * g.sum(axis=-1, keepdims=True)

    return _result(out, ((a, grad_fn),))


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine parameters."""
    if gamma.shape != a.shape[-1:] or beta.shape != a.shape[-1:]:
        raise DimensionError(
            f"layer_norm: affine shapes {gamma.shape}/{beta.shape} "
            f"do not match feature dim of {a.shape}"
        )
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma.data + beta.data
    n = x.shape[-1]

    def grad_x(g):
        gh = g * gamma.data
        term = gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
        return term * inv

    def grad_gamma(g):
        return (g * xhat).reshape(-1, n).sum(axis=0)

    def grad_beta(g):
        return g.reshape(-1, n).sum(axis=0)

    return _result(out.astype(x.dtype), ((a, grad_x), (gamma, grad_gamma), (beta, grad_beta)))


# ---------------------------------------------------------------------------
# optimization


@dataclass
class OptimizerConfig:
    """First-order optimizer settings.

    scheme "gd" applies p <- p - step_size * grad; "adam" applies the
    standard bias-corrected moment update.
    """

    step_size: float = 1e-4
    scheme: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ContractError(f"step_size must be finite and positive, not {self.step_size}")
        if self.scheme in ("plain-gd", "sgd"):
            self.scheme = "gd"
        if self.scheme in ("adam-style",):
            self.scheme = "adam"
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
        cfg = self.config
        self.t += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ContractError("optimizer_step: trainable parameter has no gradient")
            g = p.grad
            if cfg.scheme == "gd":
                p.data = (p.data - self.step_size * g).astype(p.data.dtype, copy=False)
            else:
                self._m[i] = cfg.beta1 * self._m[i] + (1 - cfg.beta1) * g
                self._v[i] = cfg.beta2 * self._v[i] + (1 - cfg.beta2) * g * g
                mhat = self._m[i] / (1 - cfg.beta1 ** self.t)
                vhat = self._v[i] / (1 - cfg.beta2 ** self.t)
                p.data = (p.data - self.step_size * mhat / (np.sqrt(vhat) + cfg.epsilon)
                          ).astype(p.data.dtype, copy=False)
            if not np.all(np.isfinite(p.data)):
                raise FloatingPointError(
                    f"optimizer_step: non-finite parameter after update "
                    f"(step {self.t}, shape {p.shape})"
                )
