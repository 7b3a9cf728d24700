"""Network and optimizer: finite-difference gradient oracles, layer
golden values, exact oracles for the fast layer and Adam paths, Adam
scalar reference, shape chain, and training loop."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import quanvaudio
from quanvaudio import harness, nn
from quanvaudio.nn import (
    Adam,
    Conv2d,
    Flatten,
    Layer,
    Linear,
    MaxPool,
    Network,
    ReLU,
    Tanh,
    TrainConfig,
    build_model,
    evaluate,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
    softmax_cross_entropy,
    train,
)
from quanvaudio.tensorio import load_tensor, save_tensor

RNG = np.random.default_rng


# ---------------------------------------------------------------------------
# Reference implementations the fast paths must match bit for bit


class WindowMaxPool(Layer):
    """The window-tensor MaxPool: argmax over a transposed window copy,
    gradient scattered with put_along_axis."""

    def __init__(self, k=3):
        super().__init__()
        self.k = k

    def forward(self, x):
        k = self.k
        b, c, h, w = x.shape
        ho, wo = h // k, w // k
        self._in_shape = x.shape
        windows = (
            x[:, :, : ho * k, : wo * k]
            .reshape(b, c, ho, k, wo, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, ho, wo, k * k)
        )
        self._argmax = windows.argmax(axis=-1)
        return np.take_along_axis(windows, self._argmax[..., None], axis=-1)[..., 0]

    def backward(self, dout):
        k = self.k
        b, c, h, w = self._in_shape
        ho, wo = h // k, w // k
        dwin = np.zeros((b, c, ho, wo, k * k))
        np.put_along_axis(dwin, self._argmax[..., None], dout[..., None], axis=-1)
        dx = np.zeros(self._in_shape)
        dx[:, :, : ho * k, : wo * k] = (
            dwin.reshape(b, c, ho, wo, k, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(b, c, ho * k, wo * k)
        )
        return dx


class CopytoMaxPool(MaxPool):
    """The strided-view MaxPool with masked copies: the first maximum's
    position written where each view equals the max, last position first,
    and the gradient copied into dx's views under that position."""

    def forward(self, x):
        k = self.k
        h, w = x.shape[2:]
        if h < k or w < k:
            raise ValueError(f"spatial dims {h}x{w} smaller than pool {k}")
        views = self._windows(x, h // k, w // k)
        out = views[0].copy(order="K")
        for view in views[1:]:
            np.maximum(out, view, out=out)
        # the last write wins, so each cell ends with its first maximum
        first = np.zeros(out.shape, dtype=np.min_scalar_type(k * k - 1))
        for p in range(k * k - 1, -1, -1):
            np.copyto(first, p, where=views[p] == out)
        self.cache = (first, x.shape)
        return out

    def backward(self, dout):
        first, in_shape = self.cache
        k = self.k
        dx = np.zeros(in_shape)
        for p, view in enumerate(self._windows(dx, in_shape[2] // k, in_shape[3] // k)):
            np.copyto(view, dout, where=first == p)
        return dx


class WindowConv2d(Conv2d):
    """The window-transpose Conv2d: im2col as a contiguous copy of the
    transposed sliding windows, the weight gradient as one GEMM over every
    row of the batch, and dx as a k*k loop of strided adds."""

    def forward(self, x):
        s, k = self.stride, self.kernel
        b = x.shape[0]
        win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        _, c, ho, wo = win.shape[:4]
        col = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(b, ho * wo, c * k * k)
        self.cache = (col, x.shape)
        f = self.params["W"].shape[0]
        out = col @ self.params["W"].reshape(f, -1).T
        out += self.params["b"]
        return out.reshape(b, ho, wo, f).transpose(0, 3, 1, 2)

    def backward(self, dout, need_dx=True):
        s, k = self.stride, self.kernel
        col, x_shape = self.cache
        dout = np.ascontiguousarray(dout)
        b, f, ho, wo = dout.shape
        c = x_shape[1]
        wmat = self.params["W"].reshape(f, -1)
        dout_mat = dout.reshape(b, f, ho * wo).transpose(0, 2, 1)
        self.grads["W"] = (
            dout_mat.reshape(-1, f).T @ col.reshape(-1, c * k * k)
        ).reshape(self.params["W"].shape)
        self.cache = None
        self.grads["b"] = dout.sum(axis=(0, 2, 3))
        if not need_dx:
            return None
        dwin = (dout_mat @ wmat).reshape(b, ho, wo, c, k, k)
        dx = np.zeros(x_shape)
        for i in range(k):
            for j in range(k):
                dx[:, :, i : i + s * ho : s, j : j + s * wo : s] += dwin[
                    ..., i, j
                ].transpose(0, 3, 1, 2)
        return dx


class UnblockedAdam(Adam):
    """Adam's 14-op in-place update over each whole parameter at once,
    through two scratch buffers the size of the largest parameter."""

    def step(self, params, grads):
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        if not self.m:
            self.m = {name: np.zeros_like(w) for name, w in params.items()}
            self.v = {name: np.zeros_like(w) for name, w in params.items()}
            size = max(w.size for w in params.values())
            self._scratch = (np.empty(size), np.empty(size))
        for name, w in params.items():
            m, v = self.m[name], self.v[name]
            g, tmp = (buf[: w.size].reshape(w.shape) for buf in self._scratch)
            np.multiply(cfg.weight_decay, w, out=g)
            np.add(grads[name], g, out=g)
            m *= self.BETA1
            np.multiply(1.0 - self.BETA1, g, out=tmp)
            m += tmp
            v *= self.BETA2
            np.square(g, out=tmp)
            np.multiply(1.0 - self.BETA2, tmp, out=tmp)
            v += tmp
            np.divide(m, bc1, out=g)
            np.multiply(cfg.lr, g, out=g)
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            np.add(tmp, self.EPS, out=tmp)
            np.divide(g, tmp, out=g)
            w -= g


def _relu_then_pool(model):
    """The same network with ReLU -> WindowMaxPool where ``build_model``
    pools first, so both share every parameter array."""
    layers = list(model.layers)
    i = next(n for n, layer in enumerate(layers) if isinstance(layer, MaxPool))
    assert isinstance(layers[i + 1], ReLU)
    layers[i : i + 2] = [ReLU(), WindowMaxPool(layers[i].k)]
    return Network(layers, model.shapes[0])


def _chain_backward(model, dout):
    """Backpropagate through every layer, layer 0 included; returns dx."""
    for layer in reversed(model.layers):
        dout = layer.backward(dout)
    return dout


def _reference_adam_step(state, params, grads, cfg, beta1=0.9, beta2=0.999, eps=1e-8):
    """The allocating Adam update expression; ``state`` holds t, m and v."""
    state["t"] += 1
    bc1 = 1.0 - beta1 ** state["t"]
    bc2 = 1.0 - beta2 ** state["t"]
    for name, w in params.items():
        g = grads[name] + cfg.weight_decay * w
        m = state["m"].setdefault(name, np.zeros_like(w))
        v = state["v"].setdefault(name, np.zeros_like(w))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g**2
        w -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def _reference_softmax_cross_entropy(logits, labels):
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(logsumexp - shifted[np.arange(n), labels]))
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    probs[np.arange(n), labels] -= 1.0
    return loss, probs / n


def _pool_input(rng, fill, shape, channel_last):
    """Pool inputs rich in ties: coarse grid values, constant arrays, or
    all-nonpositive ones; optionally a (B, C, H, W) view of channel-last
    memory, the layout Conv2d returns."""
    if fill == "grid":  # values in {-1, -0.5, 0, 0.5, 1}: ties and <=0 windows
        x = rng.integers(-2, 3, shape) * 0.5
    elif fill == "constant":
        x = np.full(shape, rng.choice([-0.25, 0.0, 0.75]))
    elif fill == "nonpositive":
        x = -rng.integers(0, 3, shape) * rng.uniform(0.1, 1.0)
    else:
        x = rng.normal(size=shape)
    if channel_last:
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return x


def _fd_param_grad(model, x, y, arr, idx, h=1e-5):
    orig = arr[idx]
    arr[idx] = orig + h
    up, _ = softmax_cross_entropy(model.forward(x), y)
    arr[idx] = orig - h
    down, _ = softmax_cross_entropy(model.forward(x), y)
    arr[idx] = orig
    return (up - down) / (2 * h)


def _check_param_grads(model, x, y, n_probes=10, tol=1e-6):
    loss, grads = loss_and_grads(model, x, y)
    rng = RNG(0)
    for name, arr in model.parameters():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in rng.choice(flat.size, size=min(n_probes, flat.size), replace=False):
            fd = _fd_param_grad(model, x, y, flat, idx)
            denom = max(abs(fd), abs(gflat[idx]), 1e-8)
            assert abs(fd - gflat[idx]) / denom < tol, f"{name}[{idx}]"


def _small_model(seed=0):
    """Tiny stack exercising every layer type."""
    rng = RNG(seed)
    layers = [
        Conv2d(2, 3, kernel=2, stride=2, rng=rng),
        ReLU(),
        Conv2d(3, 4, kernel=3, stride=1, rng=rng),
        Tanh(),
        MaxPool(3),
        Flatten(),
        Linear(4 * 2 * 2, 8, rng),
        Tanh(),
        Linear(8, 3, rng),
    ]
    return Network(layers, (2, 16, 16))


# ---------------------------------------------------------------------------
# Gradient oracles


def test_all_layer_gradients_match_finite_differences():
    model = _small_model()
    rng = RNG(1)
    x = rng.uniform(-1, 1, (4, 2, 16, 16))
    y = np.array([0, 1, 2, 1])
    _check_param_grads(model, x, y)


def test_input_gradient_matches_finite_differences():
    model = _small_model(seed=2)
    rng = RNG(3)
    x = rng.uniform(-1, 1, (2, 2, 16, 16))
    y = np.array([1, 0])
    logits = model.forward(x)
    _, dlogits = softmax_cross_entropy(logits, y)
    dx = _chain_backward(model, dlogits)
    h = 1e-5
    for idx in [tuple(rng.integers(s) for s in x.shape) for _ in range(10)]:
        orig = x[idx]
        x[idx] = orig + h
        up, _ = softmax_cross_entropy(model.forward(x), y)
        x[idx] = orig - h
        down, _ = softmax_cross_entropy(model.forward(x), y)
        x[idx] = orig
        fd = (up - down) / (2 * h)
        # absolute floor keeps near-zero gradients from inflating the ratio
        assert abs(fd - dx[idx]) / max(abs(fd), abs(dx[idx]), 1e-4) < 1e-6


# ---------------------------------------------------------------------------
# Layer golden values


def test_conv_1x1_identity():
    conv = Conv2d(1, 1, kernel=1, stride=1, rng=RNG(0))
    conv.params["W"] = np.ones((1, 1, 1, 1))
    conv.params["b"] = np.zeros(1)
    x = RNG(1).uniform(-1, 1, (2, 1, 5, 5))
    np.testing.assert_allclose(conv.forward(x), x, atol=1e-15)


def test_conv_2x2_dot_product():
    conv = Conv2d(1, 1, kernel=2, stride=2, rng=RNG(0))
    conv.params["W"] = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
    conv.params["b"] = np.zeros(1)
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    np.testing.assert_allclose(conv.forward(x), [[[[5.0]]]], atol=1e-15)


def test_conv_matches_direct_loop_oracle():
    conv = Conv2d(3, 5, kernel=3, stride=2, rng=RNG(4))
    x = RNG(5).uniform(-1, 1, (2, 3, 9, 11))
    out = conv.forward(x)
    w, b = conv.params["W"], conv.params["b"]
    for bi in range(2):
        for f in range(5):
            for i in range(out.shape[2]):
                for j in range(out.shape[3]):
                    patch = x[bi, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                    expected = np.sum(patch * w[f]) + b[f]
                    assert abs(out[bi, f, i, j] - expected) < 1e-12


def _odd(lo, hi):
    return st.integers(lo // 2, (hi - 1) // 2).map(lambda n: 2 * n + 1)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_conv_matches_window_oracle(data):
    """Conv2d's output, bias gradient and dx equal the window-transpose
    oracle's bytes, and its blocked weight gradient the oracle's one GEMM
    within the rounding bound of the sum. One layer sees input shape A,
    then B, then A again, so a gather index kept from the wrong shape
    fails."""
    k = data.draw(st.sampled_from([2, 3]), label="k")
    stride = data.draw(st.sampled_from([1, 2]), label="stride")
    c, f = data.draw(st.integers(1, 4), label="C"), data.draw(st.integers(1, 5), label="F")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    fast, oracle = Conv2d(c, f, k, stride, RNG(seed)), WindowConv2d(c, f, k, stride, RNG(seed))
    shape_a = (data.draw(st.integers(1, 21), label="batch_a"), c,
               data.draw(_odd(k, 21), label="h_a"), data.draw(_odd(k, 21), label="w_a"))
    shape_b = (data.draw(st.integers(1, 21), label="batch_b"), c,
               data.draw(_odd(k, 21).filter(lambda h: h != shape_a[2]), label="h_b"),
               data.draw(_odd(k, 21), label="w_b"))
    rng = RNG(seed)
    for shape in (shape_a, shape_b, shape_a):
        x = rng.normal(size=shape)
        if data.draw(st.booleans(), label="channel_last"):  # the layout Conv2d returns
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        out = fast.forward(x)
        _assert_same_bits(np.ascontiguousarray(out), np.ascontiguousarray(oracle.forward(x)))
        dout = rng.normal(size=out.shape)
        # each weight-gradient entry sums n products, in blocks here and in
        # one GEMM in the oracle: both lie within n*eps*sum|products| of it
        n = shape[0] * out.shape[2] * out.shape[3]
        rows = np.abs(dout).transpose(0, 2, 3, 1).reshape(n, f)
        bound = (2 * n * np.finfo(float).eps
                 * (rows.T @ np.abs(oracle.cache[0]).reshape(n, -1)).reshape(fast.params["W"].shape))
        _assert_same_bits(fast.backward(dout), oracle.backward(dout))
        _assert_same_bits(fast.grads["b"], oracle.grads["b"])
        assert np.all(np.abs(fast.grads["W"] - oracle.grads["W"]) <= bound)


def test_maxpool_constant_and_shape():
    pool = MaxPool(3)
    x = np.full((1, 2, 20, 64), 0.7)
    out = pool.forward(x)
    assert out.shape == (1, 2, 6, 21)
    np.testing.assert_array_equal(out, 0.7)
    with pytest.raises(ValueError):
        pool.forward(np.zeros((1, 1, 2, 2)))


def test_maxpool_gradient_routes_to_argmax():
    pool = MaxPool(2)
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = pool.forward(x)
    assert out[0, 0, 0, 0] == 4.0
    dx = pool.backward(np.ones((1, 1, 1, 1)))
    np.testing.assert_array_equal(dx, [[[[0, 0], [0, 1.0]]]])


def test_maxpool_ties_route_to_first_maximum_row_major():
    pool = MaxPool(3)
    x = np.zeros((1, 1, 4, 4))
    x[0, 0, 1, 0] = x[0, 0, 0, 2] = x[0, 0, 2, 1] = 5.0
    x[0, 0, 3, :] = 9.0  # leftover row: never pooled, never gets a gradient
    assert pool.forward(x)[0, 0, 0, 0] == 5.0
    dx = pool.backward(np.full((1, 1, 1, 1), 2.0))
    expected = np.zeros((1, 1, 4, 4))
    expected[0, 0, 0, 2] = 2.0
    np.testing.assert_array_equal(dx, expected)


@given(
    st.sampled_from([1, 256]),
    st.integers(1, 3),
    st.sampled_from([2, 3]),
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from(["grid", "constant", "nonpositive", "normal"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_maxpool_matches_window_oracle(batch, channels, k, extra_h, extra_w, fill,
                                       channel_last, seed):
    rng = RNG(seed)
    shape = (batch, channels, 2 * k + extra_h, 3 * k + extra_w)
    x = _pool_input(rng, fill, shape, channel_last)
    fast, oracle = MaxPool(k), WindowMaxPool(k)
    out = fast.forward(x)
    np.testing.assert_array_equal(out, oracle.forward(x))
    dout = rng.normal(size=out.shape)
    np.testing.assert_array_equal(fast.backward(dout), oracle.backward(dout))


def _assert_same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 and 0.0 differ here."""
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


# integer values (many ties) and both signed zeros
_TIED = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_maxpool_matches_masked_copy_oracle_bit_for_bit(data):
    """MaxPool's output, first-maximum index and gradient equal the
    masked-copy oracle's bytes, on tie-rich inputs whose trailing rows and
    columns the pool drops, with windows that may hold one value only."""
    k = data.draw(st.sampled_from([1, 2, 3]), label="k")
    ho, wo = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    shape = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)),
             ho * k + data.draw(st.integers(0, k - 1)), wo * k + data.draw(st.integers(0, k - 1)))
    x = data.draw(hnp.arrays(np.float64, shape, elements=_TIED), label="x")
    if data.draw(st.booleans(), label="equal_windows"):  # each window its corner's value
        corners = x[:, :, : ho * k : k, : wo * k : k]
        x[:, :, : ho * k, : wo * k] = np.repeat(np.repeat(corners, k, axis=2), k, axis=3)
    if data.draw(st.booleans(), label="channel_last"):  # the layout Conv2d returns
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    fast, oracle = MaxPool(k), CopytoMaxPool(k)
    out = fast.forward(x)
    _assert_same_bits(out, oracle.forward(x))
    _assert_same_bits(fast.cache[0], oracle.cache[0])
    dout = data.draw(hnp.arrays(np.float64, out.shape, elements=_TIED | st.floats(-1e3, 1e3)),
                     label="dout")
    _assert_same_bits(fast.backward(dout), oracle.backward(dout))


@given(
    st.sampled_from(["cnn_base", "qnn_basic"]),
    st.sampled_from([1, 3, 256]),
    st.sampled_from(["random", "constant", "negative_bias"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=12, deadline=None)
def test_pool_before_relu_matches_relu_before_pool(kind, batch, inputs, seed):
    """build_model's Conv2d -> MaxPool -> ReLU gives the logits and every
    gradient of Conv2d -> ReLU -> MaxPool, bit for bit."""
    rng = RNG(seed)
    model = build_model(kind, 3, seed=seed % 1000)
    shape = (batch,) + model.shapes[0]
    x = rng.uniform(0, 1, shape)
    if inputs == "constant":  # flat regions: tied pooling windows
        x[:, :, : shape[2] // 2] = 0.5
    elif inputs == "negative_bias":  # most windows <= 0 before the ReLU
        conv = next(layer for layer in model.layers[::-1] if isinstance(layer, Conv2d))
        conv.params["b"] -= 2.0
    y = rng.integers(0, 3, batch)
    oracle = _relu_then_pool(model)

    logits = model.forward(x)
    _, dlogits = softmax_cross_entropy(logits, y)
    model.backward(dlogits)
    grads = {name: g.copy() for name, g in model.gradients()}

    np.testing.assert_array_equal(oracle.forward(x), logits)
    _chain_backward(oracle, dlogits)
    for name, g in oracle.gradients():
        np.testing.assert_array_equal(grads[name], g, err_msg=name)


def test_network_backward_builds_no_input_gradient(monkeypatch):
    """Network.backward fills the same parameter gradients as a full chain
    but asks layer 0 for no dx."""
    model = build_model("qnn_basic", 2, seed=3)
    x = RNG(4).uniform(0, 1, (3,) + model.shapes[0])
    _, dlogits = softmax_cross_entropy(model.forward(x), np.array([0, 1, 1]))
    conv, calls = model.layers[0], []
    real_backward = conv.backward

    def spy(dout, **kwargs):
        calls.append(kwargs)
        return real_backward(dout, **kwargs)

    monkeypatch.setattr(conv, "backward", spy)
    assert model.backward(dlogits) is None
    assert calls == [{"need_dx": False}]
    grads = {name: g.copy() for name, g in model.gradients()}
    monkeypatch.undo()
    model.forward(x)
    _chain_backward(model, dlogits)
    for name, g in model.gradients():
        np.testing.assert_array_equal(grads[name], g, err_msg=name)


def test_evaluate_keeps_no_batch_sized_arrays():
    model = build_model("cnn_base", 2, seed=5)
    x = RNG(6).uniform(0, 1, (256,) + model.shapes[0])
    y = np.arange(256) % 2
    model.forward(x[:8])  # a training-style forward leaves caches behind
    assert any(layer.cache is not None for layer in model.layers)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, _, preds = evaluate(model, x, y)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert preds.shape == (256,)
    assert all(layer.cache is None for layer in model.layers)
    # the predictions (2 KB) and small bookkeeping; a kept im2col buffer
    # alone would be 82 MB
    assert held < 100_000, held


# Adam steps of cnn_base (both convs) at batch sizes whose one-GEMM 3x3
# weight gradient rounded differently at 1 and 2 OpenBLAS threads.
_THREADS_TRAINING = """
import sys
import numpy as np
from quanvaudio import nn

rng = np.random.default_rng(0)
net = nn.build_model("cnn_base", 2, 0)
params = dict(net.parameters())
opt = nn.Adam(nn.TrainConfig(lr=1e-3))
x, y = rng.uniform(size=(20,) + nn.GRAM_SHAPE), np.arange(20) % 2
for batch in (20, 11, 19, 15, 4, 2, 1):
    _, grads = nn.loss_and_grads(net, x[:batch], y[:batch])
    opt.step(params, grads)
nn.save_checkpoint(sys.argv[1], "cnn_base", 2, net.get_params())
"""


@pytest.mark.skipif(harness._usable_cores() < 2, reason="needs 2 usable cores")
def test_training_bytes_do_not_depend_on_blas_threads(tmp_path):
    package_root = str(Path(quanvaudio.__file__).resolve().parent.parent)
    checkpoints = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=package_root, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        path = tmp_path / f"threads{threads}.bin"
        subprocess.run([sys.executable, "-c", _THREADS_TRAINING, str(path)], env=env,
                       capture_output=True, text=True, check=True, timeout=120)
        checkpoints[threads] = path.read_bytes()
    assert checkpoints["1"] == checkpoints["2"]


def test_forward_zero_weights_gives_zero_logits():
    model = _small_model(seed=6)
    model.set_params({name: np.zeros_like(arr) for name, arr in model.parameters()})
    x = RNG(7).uniform(-1, 1, (3, 2, 16, 16))
    np.testing.assert_array_equal(model.forward(x), 0.0)


def test_forward_deterministic():
    model = _small_model(seed=8)
    x = RNG(9).uniform(-1, 1, (2, 2, 16, 16))
    np.testing.assert_array_equal(model.forward(x), model.forward(x))


# ---------------------------------------------------------------------------
# Loss


def test_uniform_logits_loss_is_log_n():
    for k in (2, 7):
        loss, _ = softmax_cross_entropy(np.zeros((5, k)), np.zeros(5, dtype=int))
        assert abs(loss - np.log(k)) < 1e-12


def test_loss_vanishes_with_margin():
    losses = []
    for margin in (1.0, 5.0, 20.0):
        logits = np.array([[margin, 0.0], [0.0, margin]])
        loss, _ = softmax_cross_entropy(logits, np.array([0, 1]))
        losses.append(loss)
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-8


def test_loss_gradient_rows_sum_to_zero():
    logits = RNG(10).uniform(-2, 2, (4, 3))
    _, dlogits = softmax_cross_entropy(logits, np.array([0, 1, 2, 0]))
    np.testing.assert_allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)


def test_softmax_cross_entropy_matches_reference_expression():
    rng = RNG(11)
    for n, k in ((1, 2), (20, 3), (256, 7)):
        logits = rng.normal(scale=30.0, size=(n, k))
        labels = rng.integers(0, k, n)
        loss, dlogits = softmax_cross_entropy(logits, labels)
        ref_loss, ref_dlogits = _reference_softmax_cross_entropy(logits, labels)
        assert loss == ref_loss
        np.testing.assert_array_equal(dlogits, ref_dlogits)


def test_label_validation_and_empty_batch():
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    model = _small_model()
    with pytest.raises(ValueError):
        loss_and_grads(model, np.zeros((0, 2, 16, 16)), np.zeros(0, dtype=int))


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_grad_zero_weight_unchanged():
    cfg = TrainConfig(lr=1e-3)
    opt = Adam(cfg)
    params = {"w": np.zeros(3)}
    opt.step(params, {"w": np.zeros(3)})
    np.testing.assert_array_equal(params["w"], 0.0)


def test_adam_first_step_magnitude():
    cfg = TrainConfig(lr=1e-3)
    opt = Adam(cfg)
    params = {"w": np.zeros(1)}
    opt.step(params, {"w": np.ones(1)})
    assert abs(params["w"][0] + cfg.lr) < 1e-8  # update ~= -lr for g=1, w=0


def test_adam_matches_scalar_reference():
    cfg = TrainConfig(lr=1e-2, weight_decay=1e-2)
    opt = Adam(cfg)
    params = {"w": np.array([0.5])}
    grad_seq = [np.array([0.3]), np.array([-0.7])]

    # independent scalar re-implementation
    w, m, v = 0.5, 0.0, 0.0
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t, g in enumerate([0.3, -0.7], start=1):
        g = g + cfg.weight_decay * w
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        w -= cfg.lr * mhat / (np.sqrt(vhat) + eps)

    for g in grad_seq:
        opt.step(params, {"w": g})
    assert abs(params["w"][0] - w) < 1e-15


def test_adam_matches_allocating_expression_over_steps():
    cfg = TrainConfig(lr=3e-3, weight_decay=1e-2)
    rng = RNG(12)
    shapes = {"0.W": (32, 4, 3, 3), "0.b": (32,), "4.W": (64, 96), "6.b": (2,)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    ref_params = {name: w.copy() for name, w in params.items()}
    opt, state = Adam(cfg), {"t": 0, "m": {}, "v": {}}
    for _ in range(6):
        grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=w.shape)
                 for name, w in params.items()}
        opt.step(params, grads)
        _reference_adam_step(state, ref_params, grads, cfg)
        for name in shapes:
            np.testing.assert_array_equal(params[name], ref_params[name], err_msg=name)
            np.testing.assert_array_equal(opt.m[name], state["m"][name], err_msg=name)
            np.testing.assert_array_equal(opt.v[name], state["v"][name], err_msg=name)


def _assert_adam_matches_unblocked(params, grads_of_step, cfg, n_steps):
    ref_params = {name: w.copy() for name, w in params.items()}
    opt, ref = Adam(cfg), UnblockedAdam(cfg)
    for step in range(n_steps):
        grads = grads_of_step(step)
        opt.step(params, grads)
        ref.step(ref_params, grads)
        for name in params:
            for got, want in ((params, ref_params), (opt.m, ref.m), (opt.v, ref.v)):
                _assert_same_bits(got[name], want[name])


def test_adam_blocks_match_unblocked_update_bit_for_bit():
    """Parameters of less than one block, exactly one, several whole
    blocks and several plus a remainder, over steps whose gradients span
    eight orders of magnitude."""
    cfg = TrainConfig(lr=3e-3, weight_decay=1e-2)
    rng = RNG(13)
    block = Adam.BLOCK
    shapes = {"a": (7,), "b": (block,), "c": (3, block), "d": (2 * block + 1000,),
              "e": (37, 500)}
    assert shapes["e"][0] * shapes["e"][1] % block != 0
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}

    def grads_of_step(step):
        return {name: rng.normal(scale=10.0 ** rng.integers(-6, 2), size=w.shape)
                for name, w in params.items()}

    _assert_adam_matches_unblocked(params, grads_of_step, cfg, 5)


def test_adam_blocks_match_unblocked_update_on_a_model():
    """The real qnn_basic parameter set and gradients of real batches."""
    cfg = TrainConfig(lr=1e-3, weight_decay=1e-2)
    model = build_model("qnn_basic", 2, 0)
    assert max(w.size for _, w in model.parameters()) > Adam.BLOCK
    x, y = _separable_features(8, seed=14)

    def grads_of_step(step):
        _, grads = loss_and_grads(model, x[step :: 4], y[step :: 4])
        return {name: g.copy() for name, g in grads.items()}

    _assert_adam_matches_unblocked(dict(model.parameters()), grads_of_step, cfg, 4)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=10, patience=10)


# ---------------------------------------------------------------------------
# Model builder shape chains


def test_qnn_shape_chain():
    model = build_model("qnn_basic", 7, seed=0)
    assert model.shapes[0] == (4, 20, 64)
    assert (32, 18, 62) in model.shapes
    assert (32, 6, 20) in model.shapes
    assert (3840,) in model.shapes
    assert (64,) in model.shapes
    assert model.shapes[-1] == (7,)


def test_cnn_base_shape_chain():
    model = build_model("cnn_base", 2, seed=0)
    assert model.shapes[0] == (1, 40, 128)
    assert (4, 20, 64) in model.shapes
    assert model.shapes[-1] == (2,)


@pytest.mark.parametrize(
    "make_layers, in_shape, match",
    [
        (lambda rng: [Conv2d(2, 3, 2, 2, rng), Flatten(), Linear(999, 4, rng)],
         (5, 8, 8), r"layer 0 \(Conv2d\) cannot take input of shape \(5, 8, 8\)"),
        (lambda rng: [Conv2d(5, 3, 2, 2, rng), Flatten(), Linear(999, 4, rng)],
         (5, 8, 8), r"layer 2 \(Linear\) cannot take input of shape \(48,\)"),
        (lambda rng: [MaxPool(3), Flatten()],
         (2, 2, 2), r"layer 0 \(MaxPool\) cannot take input of shape \(2, 2, 2\)"),
    ],
)
def test_inconsistent_layer_chain_fails_at_construction(make_layers, in_shape, match):
    with pytest.raises(ValueError, match=match):
        Network(make_layers(RNG(0)), in_shape)


def test_network_construction_leaves_no_cache():
    model = build_model("cnn_base", 2, seed=0)
    assert all(layer.cache is None for layer in model.layers)


def test_unknown_model_kind():
    with pytest.raises(ValueError):
        build_model("mlp", 2, seed=0)


def test_build_model_deterministic_per_seed():
    a = build_model("qnn_basic", 2, seed=5).get_params()
    b = build_model("qnn_basic", 2, seed=5).get_params()
    c = build_model("qnn_basic", 2, seed=6).get_params()
    for name in a:
        np.testing.assert_array_equal(a[name], b[name])
    assert any(not np.array_equal(a[n], c[n]) for n in a)


# ---------------------------------------------------------------------------
# Training loop


def _separable_features(n, seed, shape=nn.FEATURE_SHAPE, gap=1.0):
    """Class 0/1 distinguished by the mean of channel 0."""
    rng = RNG(seed)
    x = rng.uniform(-0.3, 0.3, (n,) + shape)
    y = rng.integers(0, 2, n)
    x[:, 0] += np.where(y == 1, gap, -gap)[:, None, None]
    return x, y


def test_toy_training_reaches_perfect_val_accuracy():
    x, y = _separable_features(60, seed=11)
    model = build_model("qnn_basic", 2, seed=12)
    cfg = TrainConfig(lr=1e-3, batch_size=20, max_epochs=200, patience=30, seed=13)
    result = train(model, x[:40], y[:40], x[40:], y[40:], cfg)
    assert any(h["val_acc"] == 1.0 for h in result.history)
    assert result.history[-1]["epoch"] < 200
    assert len(result.history) <= cfg.max_epochs


@pytest.mark.parametrize("kind,shape", [("qnn_basic", nn.FEATURE_SHAPE),
                                        ("cnn_base", nn.GRAM_SHAPE)])
def test_loss_decreases_over_first_epochs(kind, shape):
    drops = []
    for seed in range(3):
        x, y = _separable_features(40, seed=seed, shape=shape, gap=0.5)
        if kind == "cnn_base":
            x = np.clip(x, 0.0, 1.0)
        model = build_model(kind, 2, seed=seed)
        cfg = TrainConfig(lr=1e-3, batch_size=20, max_epochs=10, patience=9, seed=seed)
        result = train(model, x[:30], y[:30], x[30:], y[30:], cfg)
        drops.append(result.history[0]["train_loss"] - result.history[-1]["train_loss"])
    assert np.mean(drops) > 0


def test_checkpoint_invariant_best_val_loss():
    x, y = _separable_features(50, seed=14, gap=0.3)
    model = build_model("qnn_basic", 2, seed=15)
    cfg = TrainConfig(lr=1e-3, batch_size=25, max_epochs=30, patience=29, seed=16)
    result = train(model, x[:30], y[:30], x[30:], y[30:], cfg)
    assert result.best_val_loss == min(h["val_loss"] for h in result.history)
    # model carries the best params; re-evaluating reproduces the minimum
    val_loss, _, _ = evaluate(model, x[30:], y[30:])
    assert val_loss == result.best_val_loss


def test_patience_resets_on_improvement():
    x, y = _separable_features(40, seed=17)
    model = build_model("qnn_basic", 2, seed=18)
    cfg = TrainConfig(lr=1e-3, batch_size=20, max_epochs=100, patience=5, seed=19)
    result = train(model, x[:30], y[:30], x[30:], y[30:], cfg)
    # epochs past best never exceed patience at the stop point; the best
    # epoch is the first that reached the lowest validation loss
    best = min(result.history, key=lambda h: h["val_loss"])
    assert result.history[-1]["epoch"] - best["epoch"] <= cfg.patience


def test_train_rejects_empty_splits():
    x, y = _separable_features(10, seed=20)
    model = build_model("qnn_basic", 2, seed=21)
    with pytest.raises(ValueError):
        train(model, x, y, x[:0], y[:0], TrainConfig(lr=1e-3, max_epochs=5, patience=2))


def test_checkpoint_round_trip(tmp_path):
    model = build_model("qnn_basic", 3, seed=22)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, "qnn_basic", 3, model.get_params())
    kind, n_classes, params = load_checkpoint(path)
    assert (kind, n_classes) == ("qnn_basic", 3)
    for name, arr in model.parameters():
        np.testing.assert_array_equal(params[name], arr)
    other = build_model("qnn_basic", 3, seed=23)
    other.set_params(params)
    x = RNG(24).uniform(0, 1, (2,) + nn.FEATURE_SHAPE)
    np.testing.assert_array_equal(other.forward(x), model.forward(x))


def test_truncated_checkpoint(tmp_path):
    model = build_model("qnn_basic", 2, seed=25)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, "qnn_basic", 2, model.get_params())
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(IOError):
        load_checkpoint(path)


@pytest.mark.parametrize("resize", ["truncated", "over_long"])
def test_tensor_file_of_wrong_length_names_the_file(tmp_path, resize):
    ckpt, gram = tmp_path / "ckpt.bin", tmp_path / "g.gram"
    save_checkpoint(ckpt, "cnn_base", 2, build_model("cnn_base", 2, seed=26).get_params())
    save_tensor(gram, RNG(27).uniform(0, 1, (40, 128)), layout="HW")
    def load_gram(path):
        return load_tensor(path, expect_layout="HW")

    for path, load in ((ckpt, load_checkpoint), (gram, load_gram)):
        data = path.read_bytes()
        path.write_bytes(data[:-8] if resize == "truncated" else data + bytes(8))
        with pytest.raises(IOError, match=re.escape(str(path))):
            load(path)


def test_gram_is_not_a_checkpoint(tmp_path):
    path = tmp_path / "g.gram"
    save_tensor(path, RNG(28).uniform(0, 1, (40, 128)), layout="HW")
    with pytest.raises(ValueError, match="expected layout params, found HW"):
        load_checkpoint(path)


def test_checkpoint_header_then_sorted_params(tmp_path):
    params = build_model("cnn_base", 2, seed=29).get_params()
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, "cnn_base", 2, params)
    header, payload = path.read_bytes().split(b"\n", 1)
    names = sorted(params)
    assert json.loads(header) == {
        "dims": [sum(params[n].size for n in names)], "dtype": "f64", "layout": "params",
        "arch": "cnn_base", "n_classes": 2,
        "params": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    assert payload == b"".join(params[n].astype("<f8").tobytes() for n in names)
