"""Minimal trainable network with hand-rolled backprop and Adam.

Two fronts share one classical tail. The quantum models consume
precomputed 4x20x64 feature maps directly; the classical baseline adds a
2x2, 4-filter, stride-2 convolution so both fronts feed the tail with
identical shapes. Everything is float64 and deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensorio import load_tensor, save_tensor


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-5
    weight_decay: float = 1e-2
    batch_size: int = 20
    max_epochs: int = 10000
    patience: int = 30
    seed: int = 0

    def __post_init__(self):
        if min(self.lr, self.weight_decay, self.batch_size, self.max_epochs) <= 0:
            raise ValueError("lr, weight_decay, batch_size, max_epochs must be positive")
        if not 0 < self.patience < self.max_epochs:
            raise ValueError("patience must be in (0, max_epochs)")


class Layer:
    """Base layer; stateful only through params, grads and ``cache``, which
    holds what ``backward`` reads from the last forward pass (``Conv2d``
    also keeps a gather index that depends on the input shape alone)."""

    params: dict[str, np.ndarray]
    grads: dict[str, np.ndarray]

    def __init__(self):
        self.params = {}
        self.grads = {}
        self.cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Conv2d(Layer):
    """Valid-padding cross-correlation.

    Besides params, grads and ``cache``, the layer keeps the im2col gather
    index of the last input shape it saw: one intp offset per im2col entry
    of a single sample, ho*wo*C*k*k of them (321 KB for the 3x3 conv on a
    4x20x64 map), rebuilt when the input's (C, H, W) changes.
    """

    GRAD_ROWS = 512  # rows per GEMM of the weight gradient's reduction

    def __init__(self, in_ch, out_ch, kernel, stride, rng: np.random.Generator):
        super().__init__()
        self.stride = stride
        self.kernel = kernel
        fan_in = in_ch * kernel * kernel
        bound = 1.0 / np.sqrt(fan_in)
        self.params["W"] = rng.uniform(-bound, bound, size=(out_ch, in_ch, kernel, kernel))
        self.params["b"] = rng.uniform(-bound, bound, size=out_ch)
        self._index_key = None

    def _col_index(self, c, h, w):
        """Flat offsets into one C-ordered (C, H, W) sample, in im2col order
        (output row, output column, then the channel and the k*k window);
        also the output height and width. Built once per input shape."""
        if self._index_key != (c, h, w):
            s, k = self.stride, self.kernel
            pos = np.arange(c * h * w).reshape(1, c, h, w)
            win = sliding_window_view(pos, (k, k), axis=(2, 3))[:, :, ::s, ::s]
            self._index = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(-1)
            self._index_key, self._out_hw = (c, h, w), win.shape[2:4]
        return self._index, self._out_hw

    def forward(self, x):
        k = self.kernel
        b, c, h, w = x.shape
        index, (ho, wo) = self._col_index(c, h, w)
        # im2col: (B, ho*wo, C*k*k) contiguous so the products run as GEMMs,
        # gathered from each flattened sample in one take
        col = np.take(np.ascontiguousarray(x).reshape(b, -1), index, axis=1).reshape(
            b, ho * wo, c * k * k
        )
        self.cache = (col, x.shape)
        f = self.params["W"].shape[0]
        out = col @ self.params["W"].reshape(f, -1).T  # (B, ho*wo, F)
        out += self.params["b"]
        # (B, F, ho, wo) view of the channel-last result: no transposed copy
        return out.reshape(b, ho, wo, f).transpose(0, 3, 1, 2)

    def backward(self, dout, need_dx=True):
        """Fills ``grads``; returns dx, or None when ``need_dx`` is false."""
        s, k = self.stride, self.kernel
        col, x_shape = self.cache
        # the bias sum and the GEMMs below always read a C-ordered gradient
        dout = np.ascontiguousarray(dout)
        b, f, ho, wo = dout.shape
        c = x_shape[1]
        wmat = self.params["W"].reshape(f, -1)
        dout_rows = dout.reshape(b, f, ho * wo)
        # The weight gradient sums over all B*ho*wo rows. One GEMM over them
        # rounds differently at 1 and 2 OpenBLAS threads; a fixed-order sum
        # of per-sample GEMMs over at most GRAD_ROWS rows each does not.
        dw, part = np.zeros_like(wmat), np.empty_like(wmat)
        for i in range(b):
            for r0 in range(0, ho * wo, self.GRAD_ROWS):
                r1 = r0 + self.GRAD_ROWS
                np.matmul(dout_rows[i, :, r0:r1], col[i, r0:r1], out=part)
                dw += part
        self.grads["W"] = dw.reshape(self.params["W"].shape)
        # backward consumes the cache: freeing the im2col buffer here lets
        # dwin, of the same size, reuse its memory instead of fresh pages
        self.cache = col = None
        self.grads["b"] = dout.sum(axis=(0, 2, 3))
        if not need_dx:
            return None
        # (B, hw, F) @ (F, C*k*k)
        dwin = (dout_rows.transpose(0, 2, 1) @ wmat).reshape(b, ho, wo, c, k, k)
        dx = np.zeros(x_shape)
        for i in range(k):
            for j in range(k):
                dx[:, :, i : i + s * ho : s, j : j + s * wo : s] += dwin[
                    ..., i, j
                ].transpose(0, 3, 1, 2)
        return dx


class ReLU(Layer):
    def forward(self, x):
        self.cache = x > 0
        return np.where(self.cache, x, 0.0)

    def backward(self, dout):
        return np.where(self.cache, dout, 0.0)


class Tanh(Layer):
    def forward(self, x):
        self.cache = np.tanh(x)
        return self.cache

    def backward(self, dout):
        return dout * (1.0 - self.cache**2)


class MaxPool(Layer):
    """Non-overlapping pooling; trailing remainder rows/columns dropped.

    Gradient is routed to the first maximum of each window in row-major
    order, as ``np.argmax`` picks it; forward keeps only that position.
    """

    def __init__(self, k=3):
        super().__init__()
        self.k = k

    def _windows(self, a, ho, wo):
        """The k*k strided views of ``a``, one per window position, row-major."""
        k = self.k
        return [a[:, :, i : ho * k : k, j : wo * k : k] for i in range(k) for j in range(k)]

    def forward(self, x):
        k = self.k
        h, w = x.shape[2:]
        if h < k or w < k:
            raise ValueError(f"spatial dims {h}x{w} smaller than pool {k}")
        views = self._windows(x, h // k, w // k)
        out = views[0].copy(order="K")
        for view in views[1:]:
            np.maximum(out, view, out=out)
        # the first maximum's position is the number of leading positions
        # that are not the maximum; the last one needs no comparison
        notyet = views[0] != out
        first = notyet.astype(np.min_scalar_type(k * k - 1))
        for view in views[1:-1]:
            notyet &= view != out
            first += notyet
        self.cache = (first, x.shape)
        return out

    def backward(self, dout):
        first, in_shape = self.cache
        k = self.k
        b, c, h, w = in_shape
        ho, wo = first.shape[2:]
        # flat index into dx of each window's top-left corner, plus the
        # offset of its first maximum; windows do not overlap
        corner = (np.arange(b * c).reshape(b, c, 1, 1) * (h * w)
                  + np.arange(ho).reshape(ho, 1) * (k * w) + np.arange(wo) * k)
        offset = np.array([i * w + j for i in range(k) for j in range(k)])
        dx = np.zeros(in_shape)
        dx.reshape(-1)[corner + offset[first]] = dout
        return dx


class Flatten(Layer):
    def forward(self, x):
        self.cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self.cache)


class Linear(Layer):
    def __init__(self, in_dim, out_dim, rng: np.random.Generator):
        super().__init__()
        bound = 1.0 / np.sqrt(in_dim)
        self.params["W"] = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        self.params["b"] = rng.uniform(-bound, bound, size=out_dim)

    def forward(self, x):
        self.cache = x
        return x @ self.params["W"].T + self.params["b"]

    def backward(self, dout):
        self.grads["W"] = dout.T @ self.cache
        self.grads["b"] = dout.sum(axis=0)
        return dout @ self.params["W"]


class Network:
    """A layer chain for inputs of shape ``(batch,) + in_shape``. ``shapes``
    (input, then each layer's output, per sample) is read off one zero sample
    pushed through the chain, so a chain that does not fit fails here."""

    def __init__(self, layers: list[Layer], in_shape: tuple[int, ...]):
        self.layers = layers
        x = np.zeros((1, *in_shape))
        self.shapes = [x.shape[1:]]
        for i, layer in enumerate(layers):
            try:
                x = layer.forward(x)
            except ValueError as exc:
                raise ValueError(
                    f"layer {i} ({type(layer).__name__}) cannot take input of shape "
                    f"{x.shape[1:]}: {exc}"
                ) from exc
            layer.cache = None
            self.shapes.append(x.shape[1:])

    def forward(self, x: np.ndarray, keep_cache: bool = True) -> np.ndarray:
        """Logits for a batch. With ``keep_cache=False`` (inference) each
        layer drops its backward cache as soon as its output exists, so no
        batch-sized array outlives the call."""
        for layer in self.layers:
            x = layer.forward(x)
            if not keep_cache:
                layer.cache = None
        if not np.all(np.isfinite(x)):
            raise TrainingDiverged("non-finite activations in forward pass")
        return x

    def backward(self, dout: np.ndarray) -> None:
        """Fills every layer's ``grads``. The network input's gradient is
        never read, so layer 0 (a ``Conv2d`` in every ``build_model`` kind)
        builds no dx."""
        for layer in reversed(self.layers[1:]):
            dout = layer.backward(dout)
        self.layers[0].backward(dout, need_dx=False)

    def parameters(self):
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params.items():
                yield f"{i}.{name}", arr

    def gradients(self):
        for i, layer in enumerate(self.layers):
            for name in layer.params:
                yield f"{i}.{name}", layer.grads[name]

    def get_params(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.parameters()}

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            for name in layer.params:
                layer.params[name] = params[f"{i}.{name}"].copy()


MODEL_KINDS = ("cnn_base", "qnn_basic", "qnn_strongly", "qnn_random")

QNN_TEMPLATE = {"qnn_basic": "BEQC", "qnn_strongly": "SEQC", "qnn_random": "RQC"}

GRAM_SHAPE = (1, 40, 128)
FEATURE_SHAPE = (4, 20, 64)
EVAL_BATCH = 256  # samples per inference pass in evaluate


def build_model(kind: str, n_classes: int, seed: int) -> Network:
    """The shared tail behind either a classical conv front (cnn_base) or
    the precomputed quanvolutional features (qnn_*)."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    if kind == "cnn_base":
        layers += [Conv2d(1, 4, kernel=2, stride=2, rng=rng), ReLU()]
        in_shape = GRAM_SHAPE
    else:
        in_shape = FEATURE_SHAPE
    # Pooling before the ReLU is exact for finite inputs: max(relu(x)) ==
    # relu(max(x)); a window whose max is <= 0 gets a zero gradient either
    # way, and one whose max is > 0 has the same first maximum either way.
    # The ReLU then runs on the 9x smaller pooled map.
    layers += [Conv2d(4, 32, kernel=3, stride=1, rng=rng), MaxPool(3), ReLU(), Flatten()]
    flat = int(np.prod(Network(layers, in_shape).shapes[-1]))
    layers += [Linear(flat, 64, rng), Tanh(), Linear(64, n_classes, rng)]
    return Network(layers, in_shape)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean CE over the batch; returns (loss, dlogits)."""
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    loss = float(np.mean(np.log(total) - shifted[np.arange(n), labels]))
    probs = exp / total[:, None]
    probs[np.arange(n), labels] -= 1.0
    return loss, probs / n


def loss_and_grads(model: Network, x: np.ndarray, labels: np.ndarray):
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    logits = model.forward(x)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    model.backward(dlogits)
    return loss, dict(model.gradients())


class Adam:
    """Adam with bias correction; weight decay is coupled L2 (added to the
    gradient before the moment updates).

    Each parameter is updated in flat blocks of at most ``BLOCK`` elements
    through two block-sized scratch buffers, so the block's weights,
    gradient, moments and scratch (6 x 64 KB) stay in cache across the
    update's 14 elementwise ops. Every element sees the same ops in the
    same order as an unblocked update, so the bytes do not change.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
    BLOCK = 8192

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0
        self._scratch: tuple[np.ndarray, np.ndarray] = ()

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        if not self.m:  # the moments and two scratch buffers, allocated once
            self.m = {name: np.zeros_like(w) for name, w in params.items()}
            self.v = {name: np.zeros_like(w) for name, w in params.items()}
            size = min(self.BLOCK, max(w.size for w in params.values()))
            self._scratch = (np.empty(size), np.empty(size))
        for name, w in params.items():
            if not w.flags.c_contiguous:  # a flat copy would drop the update
                raise ValueError(f"parameter {name} is not C-contiguous")
            flat = [a.reshape(-1) for a in (w, grads[name], self.m[name], self.v[name])]
            for start in range(0, w.size, self.BLOCK):
                wb, grad, m, v = (a[start : start + self.BLOCK] for a in flat)
                g, tmp = (buf[: wb.size] for buf in self._scratch)
                # Op for op:  g = grad + wd * w;  m = b1 m + (1 - b1) g;
                # v = b2 v + (1 - b2) g**2;  w -= lr (m / bc1) / (sqrt(v / bc2) + eps)
                np.multiply(cfg.weight_decay, wb, out=g)
                np.add(grad, g, out=g)
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
                wb -= g


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_val_loss: float = np.inf


def evaluate(model: Network, x: np.ndarray, labels: np.ndarray):
    """Returns (mean loss, accuracy, predictions)."""
    losses, preds = [], []
    for start in range(0, x.shape[0], EVAL_BATCH):
        logits = model.forward(x[start : start + EVAL_BATCH], keep_cache=False)
        loss, _ = softmax_cross_entropy(logits, labels[start : start + EVAL_BATCH])
        losses.append(loss * logits.shape[0])
        preds.append(logits.argmax(axis=1))
    preds = np.concatenate(preds)
    return (
        float(np.sum(losses) / x.shape[0]),
        float(np.mean(preds == labels)),
        preds,
    )


def train(
    model: Network,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    cfg: TrainConfig,
) -> TrainResult:
    """Minibatch training with early stopping on validation loss.

    Stops after ``patience`` epochs without strict val-loss improvement.
    ``model`` is left holding the best-validation parameters and nothing
    of its last step: every layer's ``grads`` is empty and, since the last
    forward pass is ``evaluate``'s, every ``cache`` is None.
    """
    if train_x.shape[0] == 0 or val_x.shape[0] == 0:
        raise ValueError("train and validation splits must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(cfg)
    result = TrainResult()
    best = model.get_params()
    stale = 0
    params = dict(model.parameters())  # live views, updated in place
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(train_x.shape[0])
        epoch_losses = []
        for start in range(0, order.shape[0], cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = loss_and_grads(model, train_x[idx], train_y[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss} at epoch {epoch}")
            opt.step(params, grads)
            epoch_losses.append(loss)
        val_loss, val_acc, _ = evaluate(model, val_x, val_y)
        result.history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(epoch_losses)),
                "val_loss": val_loss,
                "val_acc": val_acc,
            }
        )
        if val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            best = model.get_params()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    model.set_params(best)
    for layer in model.layers:
        layer.grads.clear()
    return result


def save_checkpoint(path: str | Path, kind: str, n_classes: int,
                    params: dict[str, np.ndarray]) -> None:
    """The parameters, sorted by name, as one flat ``tensorio`` vector."""
    names = sorted(params)
    save_tensor(
        path, np.concatenate([np.ravel(params[n]) for n in names]), layout="params",
        arch=kind, n_classes=n_classes,
        params=[{"name": n, "shape": list(params[n].shape)} for n in names],
    )


def load_checkpoint(path: str | Path) -> tuple[str, int, dict[str, np.ndarray]]:
    flat, header = load_tensor(path, expect_layout="params")
    shapes = {e["name"]: tuple(e["shape"]) for e in header["params"]}
    ends = np.cumsum([int(np.prod(shape)) for shape in shapes.values()])
    if ends[-1] != flat.size:
        raise IOError(f"{path}: parameter shapes need {ends[-1]} values, found {flat.size}")
    chunks = np.split(flat, ends[:-1])
    params = {name: chunk.reshape(shape) for (name, shape), chunk in zip(shapes.items(), chunks)}
    return header["arch"], header["n_classes"], params
