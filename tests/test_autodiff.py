"""Gradient correctness against finite differences, optimizer math, graph rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sideshap.autodiff as ad
from sideshap.autodiff import ContractError, Optimizer, OptimizerConfig, Tensor

from scipy.special import erf

from conftest import backward_gradient, fd_gradient, relative_error


def _random_graph(rng, kind):
    """Return (builder, input arrays) for one of several op compositions."""
    if kind == 0:
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))

        def build(ts):
            return ad.mean(ad.square(ad.matmul(ts[0], ts[1])))
        return build, [a, b]
    if kind == 1:
        a = rng.standard_normal((2, 6)) * 0.7

        def build(ts):
            return ad.mean(ad.log_softmax(ts[0]) * ad.softmax(ts[0]))
        return build, [a]
    if kind == 2:
        a = rng.standard_normal((4, 5))
        g = rng.standard_normal(5) * 0.3 + 1.0
        b = rng.standard_normal(5) * 0.1

        def build(ts):
            return ad.mean(ad.square(ad.layer_norm(ts[0], ts[1], ts[2])))
        return build, [a, g, b]
    if kind == 3:
        a = rng.standard_normal((3, 7))

        def build(ts):
            return ad.mean(ad.gelu(ts[0]) + ad.relu(ts[0]) * 0.5)
        return build, [a]
    if kind == 4:
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 2))

        def build(ts):
            prod = ad.matmul(ts[0], ts[1])  # batched
            return ad.mean(ad.exp(prod * 0.3))
        return build, [a, b]
    if kind == 5:
        a = np.abs(rng.standard_normal((4, 4))) + 0.5

        def build(ts):
            return ad.mean(ad.log(ts[0]) + ad.sqrt(ts[0]))
        return build, [a]
    if kind == 6:
        a = rng.standard_normal((2, 5))
        b = rng.standard_normal((1, 5))

        def build(ts):
            s = ts[0] - ts[1]  # broadcast
            return ad.tensor_sum(ad.square(s)) * (1.0 / 7.0)
        return build, [a, b]
    if kind == 7:
        a = rng.standard_normal((3, 4, 5))

        def build(ts):
            t = ad.transpose(ts[0], (1, 0, 2))
            n = ad.narrow(t, 2, 1, 3)
            return ad.mean(ad.square(ad.reshape(n, (4, 9))))
        return build, [a]
    a = rng.standard_normal((2, 4))
    b = rng.standard_normal((2, 4))

    def build(ts):
        c = ad.concat([ts[0], ts[1]], axis=0)
        return ad.mean(ad.softmax(c) * c)
    return build, [a, b]


def test_finite_difference_oracle_100_graphs():
    """Backward gradients match central differences on 100 random graphs."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        build, values = _random_graph(rng, trial % 9)
        analytic = backward_gradient(build, values)
        numeric = fd_gradient(build, values)
        for g_a, g_n in zip(analytic, numeric):
            worst = max(worst, relative_error(g_a, g_n))
    assert worst < 1e-3, f"worst relative gradient error {worst}"


def test_gradient_accumulates_over_reuse():
    x = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)
    loss = ad.tensor_sum(x * x + x * 3.0)
    loss.backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        (x * 2.0).backward()


def test_log_rejects_nonpositive():
    with pytest.raises(ContractError):
        ad.log(Tensor(np.array([1.0, 0.0])))


def test_frozen_tensor_gets_no_gradient():
    w = Tensor(np.ones(3), requires_grad=True)
    frozen = Tensor(np.ones(3) * 2.0, requires_grad=False)
    loss = ad.tensor_sum(w * frozen)
    loss.backward()
    assert frozen.grad is None
    np.testing.assert_allclose(w.grad, frozen.data)


def test_frozen_subgraph_is_not_tracked():
    frozen = Tensor(np.ones((2, 2)), requires_grad=False)
    out = ad.matmul(frozen, frozen)
    assert out._parents == ()


def test_detach_cuts_graph():
    x = Tensor(np.ones(2), requires_grad=True)
    y = (x * 3.0).detach()
    loss = ad.tensor_sum(y * x)
    loss.backward()
    np.testing.assert_allclose(x.grad, [3.0, 3.0])


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_unbroadcast_shapes(n, m):
    a = Tensor(np.ones((n, m)), requires_grad=True)
    b = Tensor(np.ones((1, m)), requires_grad=True)
    loss = ad.tensor_sum(a + b)
    loss.backward()
    assert a.grad.shape == (n, m)
    assert b.grad.shape == (1, m)
    np.testing.assert_allclose(b.grad, n * np.ones((1, m)))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((5, 9)) * 20.0)
    s = ad.softmax(x).numpy()
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(5), atol=1e-6)
    assert np.all(s >= 0)


def test_mean_matches_sum_over_size():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 5))
    a = ad.mean(Tensor(x)).item()
    assert a == pytest.approx(x.mean(), rel=1e-6)


# ---------------------------------------------------------------------------
# optimizer


def test_plain_gd_geometric_decay_closed_form():
    """On L(w) = 0.5 mu w^2, the gap obeys L_t = (1 - mu*a)^(2t) L_0 exactly."""
    mu, alpha, steps = 0.8, 0.5, 20
    w = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)
    opt = Optimizer([w], OptimizerConfig(step_size=alpha, scheme="gd"))
    losses = []
    for _ in range(steps + 1):
        loss = ad.tensor_sum(ad.square(w)) * (0.5 * mu)
        losses.append(loss.item())
        opt.zero_grad()
        loss.backward()
        opt.step()
    expected = losses[0] * (1.0 - mu * alpha) ** (2 * np.arange(steps + 1))
    np.testing.assert_allclose(losses, expected, rtol=1e-9)


def test_gd_alias_names():
    assert OptimizerConfig(step_size=1.0, scheme="plain-gd").scheme == "gd"
    assert OptimizerConfig(step_size=1.0, scheme="adam-style").scheme == "adam"
    with pytest.raises(ContractError):
        OptimizerConfig(step_size=0.0)
    with pytest.raises(ContractError):
        OptimizerConfig(step_size=1.0, scheme="lion")


def test_adam_matches_reference_update():
    rng = np.random.default_rng(3)
    w0 = rng.standard_normal(4).astype(np.float32)
    w = Tensor(w0.copy(), requires_grad=True)
    cfg = OptimizerConfig(step_size=0.1, scheme="adam")
    opt = Optimizer([w], cfg)

    ref = w0.astype(np.float64).copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t in range(1, 4):
        loss = ad.tensor_sum(ad.square(w))
        opt.zero_grad()
        loss.backward()
        g = w.grad.astype(np.float64)
        opt.step()
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        ref -= cfg.step_size * (m / (1 - cfg.beta1 ** t)) / (
            np.sqrt(v / (1 - cfg.beta2 ** t)) + cfg.epsilon)
        np.testing.assert_allclose(w.data, ref.astype(np.float32), rtol=1e-6)


def test_optimizer_requires_gradients():
    w = Tensor(np.ones(2), requires_grad=True)
    opt = Optimizer([w], OptimizerConfig(step_size=0.1))
    with pytest.raises(ContractError):
        opt.step()


def test_optimizer_skips_frozen_params():
    w = Tensor(np.ones(2), requires_grad=True)
    frozen = Tensor(np.ones(2), requires_grad=False)
    opt = Optimizer([w, frozen], OptimizerConfig(step_size=0.1, scheme="gd"))
    assert opt.params == [w]


def test_scale_step():
    w = Tensor(np.ones(1), requires_grad=True)
    opt = Optimizer([w], OptimizerConfig(step_size=1.0, scheme="gd"))
    opt.scale_step(0.5)
    assert opt.step_size == 0.5
    with pytest.raises(ContractError):
        opt.scale_step(-1.0)


def test_nonfinite_update_raises():
    w = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    opt = Optimizer([w], OptimizerConfig(step_size=1e30, scheme="gd"))
    loss = ad.tensor_sum(ad.square(w)) * 1e30
    loss.backward()
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        opt.step()


def test_training_determinism_bitwise():
    """Identical seeds and data give bit-identical parameters after updates."""
    def run():
        rng = np.random.default_rng(11)
        w = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        x = Tensor(rng.standard_normal((8, 4)).astype(np.float32))
        opt = Optimizer([w], OptimizerConfig(step_size=1e-2))
        for _ in range(5):
            loss = ad.mean(ad.square(ad.matmul(x, w)))
            opt.zero_grad()
            loss.backward()
            opt.step()
        return w.data.tobytes()

    assert run() == run()


def test_take_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((5, 3))
    weights = Tensor(rng.standard_normal((2, 4, 3)), dtype=np.float64)
    index = np.array([[0, 4, 4, 2], [2, 2, 0, 1]])  # repeats, row 3 never taken

    def build(ts):
        return ad.tensor_sum(ad.take(ts[0], index) * weights)

    analytic = backward_gradient(build, [a])[0]
    assert relative_error(analytic, fd_gradient(build, [a])[0]) < 1e-8
    np.testing.assert_array_equal(analytic[3], 0.0)
    np.testing.assert_array_equal(ad.take(Tensor(a), index).data, a[index])


def test_float32_gelu_matches_erf_gelu():
    x = np.concatenate([np.linspace(-10, 10, 40001), [-1e4, 1e4]]).astype(np.float32)
    t = Tensor(x, requires_grad=True)
    y = ad.gelu(t)
    ad.tensor_sum(y).backward()
    assert y.dtype == np.float32 and t.grad.dtype == np.float32
    x64 = x.astype(np.float64)
    cdf = 0.5 * (1.0 + erf(x64 / np.sqrt(2.0)))
    assert np.abs(y.data - x64 * cdf).max() <= 1e-6
    pdf = np.exp(-0.5 * x64 * x64) / np.sqrt(2.0 * np.pi)
    assert np.abs(t.grad - (cdf + x64 * pdf)).max() <= 1e-6


def test_float64_gelu_is_erf_gelu():
    x = np.linspace(-10, 10, 2001)
    y = ad.gelu(Tensor(x, dtype=np.float64)).data
    assert y.dtype == np.float64
    assert np.abs(y - x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))).max() <= 1e-12
