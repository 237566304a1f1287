"""Minimal dense-network machinery: layers, losses, optimizers, serialization.

Everything is float64 numpy, so training runs are bit-reproducible from an
RNG seed. GAN and LSTM training and GAN sampling run under
`one_blas_thread`, which puts the OpenBLAS that numpy links against on the
calling thread for the call: their products are at most a few million
multiply-adds, where a second BLAS thread costs more in hand-off and
spinning than it saves. OpenBLAS splits a product by rows and columns,
never along the inner dimension, so the results are the same bit for bit on
one thread or more. Layers, dropout and optimizers compute in place where
they can, so that a training step allocates few temporaries; each in-place
sequence performs the float operations of the plain expression in its
comment, in the same order, so it gives the same bits.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, UsageError

ACTIVATIONS = ("identity", "relu", "tanh", "sigmoid", "softmax")

LOG_CLAMP = 1e-7

# (get, set) thread-count symbols of OpenBLAS builds, in lookup order: numpy
# wheels' scipy-openblas64, other 64-bit-integer builds, plain builds.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_controls():
    """The (get, set) thread-count functions of the OpenBLAS numpy calls, or
    None for another BLAS or layout. Looked up on first use: a dlsym on
    numpy's core extension searches the libraries it links against."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        try:
            get, put = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run numpy's matrix products on the calling thread within the block
    (or the decorated function), then restore the caller's BLAS thread
    count, also on an exception. A no-op when OpenBLAS is not found."""
    controls = _blas_thread_controls()
    if controls is None:
        yield
        return
    get, put = controls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def apply_activation(name: str, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """act(z), written into `out` when given (which may be z itself)."""
    if name not in ACTIVATIONS:
        raise UsageError(f"unknown activation {name!r}")
    if name == "identity":
        if out is None or out is z:
            return z
        np.copyto(out, z)
        return out
    if out is None:
        out = np.empty_like(z, dtype=np.float64)
    if name == "relu":
        np.maximum(z, 0.0, out=out)
    elif name == "tanh":
        np.tanh(z, out=out)
    elif name == "sigmoid":  # 1 / (1 + exp(-z))
        np.negative(z, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)
    else:  # softmax: exp(z - max(z)) / sum(exp(z - max(z)))
        np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
        np.exp(out, out=out)
        out /= out.sum(axis=-1, keepdims=True)
    return out


def activation_backward(name: str, y: np.ndarray, upstream: np.ndarray,
                        overwrite: bool = False) -> np.ndarray:
    """Gradient through an activation, given its output y and upstream dL/dy.
    With overwrite, the result may be written over upstream."""
    if name == "identity":
        return upstream
    out = upstream if overwrite else None
    if name == "relu":
        return np.multiply(upstream, y > 0.0, out=out)
    if name == "tanh":  # upstream * (1 - y * y)
        factor = np.multiply(y, y)
        np.subtract(1.0, factor, out=factor)
        return np.multiply(upstream, factor, out=factor if out is None else out)
    if name == "sigmoid":  # upstream * y * (1 - y)
        out = np.multiply(upstream, y, out=out)
        out *= 1.0 - y
        return out
    if name == "softmax":
        # Full row-wise Jacobian: dz = y * (g - sum(g * y))
        product = upstream * y
        inner = product.sum(axis=-1, keepdims=True)
        out = np.subtract(upstream, inner, out=product if out is None else out)
        out *= y
        return out
    raise UsageError(f"unknown activation {name!r}")


@dataclass
class DenseLayer:
    """Fully connected layer y = act(x W + b) with cached forward state."""

    weights: np.ndarray  # (in, out)
    bias: np.ndarray  # (out,)
    activation: str
    grad_weights: np.ndarray | None = field(default=None, repr=False)
    grad_bias: np.ndarray | None = field(default=None, repr=False)
    _x: np.ndarray | None = field(default=None, repr=False)
    _y: np.ndarray | None = field(default=None, repr=False)
    # Arrays this layer keeps for a stack's intermediate results, by role.
    _buffers: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise UsageError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ShapeError(
                f"inconsistent layer shapes {self.weights.shape} / {self.bias.shape}"
            )

    @classmethod
    def create(cls, n_in: int, n_out: int, activation: str, rng: np.random.Generator) -> "DenseLayer":
        # Glorot-style uniform init; keeps small nets in a trainable range.
        limit = np.sqrt(6.0 / (n_in + n_out))
        w = rng.uniform(-limit, limit, size=(n_in, n_out))
        return cls(weights=w, bias=np.zeros(n_out), activation=activation)

    @property
    def n_in(self) -> int:
        return self.weights.shape[0]

    @property
    def n_out(self) -> int:
        return self.weights.shape[1]

    def forward(self, x: np.ndarray, cache: bool = True,
                out: np.ndarray | None = None) -> np.ndarray:
        """act(x W + b), written into `out` when given."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.n_in:
            raise ShapeError(f"input width {x.shape[1]} != layer width {self.n_in}")
        z = np.matmul(x, self.weights, out=out)
        z += self.bias
        y = apply_activation(self.activation, z, out=z)
        if cache:
            self._x, self._y = x, y
        return y

    def backward(self, upstream: np.ndarray, input_grad: bool = True,
                 out: np.ndarray | None = None, overwrite: bool = False) -> np.ndarray | None:
        """Accumulate parameter grads from cached forward state; return dL/dx
        (written into `out` when given), or None without input_grad. With
        overwrite, upstream may be written over."""
        if self._x is None:
            raise UsageError("backward() before forward(); no cached activations")
        if upstream.shape != self._y.shape:
            raise ShapeError(f"upstream shape {upstream.shape} != output {self._y.shape}")
        dz = activation_backward(self.activation, self._y, upstream, overwrite)
        self.grad_weights = self._x.T @ dz
        self.grad_bias = dz.sum(axis=0)
        return np.matmul(dz, self.weights.T, out=out) if input_grad else None

    def _buffer(self, role: str, rows: int, cols: int) -> np.ndarray:
        """A (rows, cols) array in the buffer this layer keeps for `role`,
        grown when too small."""
        held = self._buffers.get(role)
        if held is None or held.size < rows * cols:
            held = self._buffers[role] = np.empty(rows * cols)
        return held[: rows * cols].reshape(rows, cols)


def forward(layers: list[DenseLayer], x: np.ndarray, cache: bool = True) -> np.ndarray:
    """The stack's output, a fresh array. The output of each layer but the
    last goes to a buffer that layer keeps (one for cached passes, one for
    the rest), and is overwritten by the layer's next pass of the same kind."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for index, layer in enumerate(layers):
        out = None
        if index < len(layers) - 1:
            out = layer._buffer("y" if cache else "y_uncached", x.shape[0], layer.n_out)
        x = layer.forward(x, cache=cache, out=out)
    return x


def backward(layers: list[DenseLayer], upstream: np.ndarray,
             input_grad: bool = True) -> np.ndarray | None:
    """Backpropagate through a stack; sets grads on each layer, returns dL/dx
    as a fresh array, or None without input_grad (the stack's input gradient
    is then skipped). The gradients passed between layers go to buffers the
    layers keep, and each layer's activation gradient overwrites them."""
    for index in reversed(range(len(layers))):
        layer = layers[index]
        out = layer._buffer("dx", upstream.shape[0], layer.n_in) if index else None
        upstream = layer.backward(upstream, input_grad=input_grad or index > 0, out=out,
                                  overwrite=index < len(layers) - 1)
    return upstream


def release(layers: list[DenseLayer]) -> None:
    """Drop the layers' cached activations and kept buffers, once trained."""
    for layer in layers:
        layer._x = layer._y = None
        layer._buffers.clear()


def parameters(layers: list[DenseLayer]) -> list[np.ndarray]:
    out = []
    for layer in layers:
        out.extend([layer.weights, layer.bias])
    return out


def gradients(layers: list[DenseLayer]) -> list[np.ndarray]:
    out = []
    for layer in layers:
        if layer.grad_weights is None:
            raise UsageError("gradients requested before backward()")
        out.extend([layer.grad_weights, layer.grad_bias])
    return out


# ---------------------------------------------------------------------------
# Losses


def loss_and_grad(kind: str, predicted: np.ndarray, target: np.ndarray):
    """Return (scalar loss, dL/dpredicted), mean-reduced over the batch.

    Predictions are clamped to [LOG_CLAMP, 1 - LOG_CLAMP] before any log.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if predicted.shape != target.shape:
        raise ShapeError(f"predicted {predicted.shape} != target {target.shape}")
    p = np.clip(predicted, LOG_CLAMP, 1.0 - LOG_CLAMP)
    n = predicted.shape[0] if predicted.ndim > 1 else 1
    if kind == "binary_cross_entropy":
        loss = -np.mean(target * np.log(p) + (1.0 - target) * np.log1p(-p))
        # Gradient of the unclamped objective, with the true prediction in the
        # denominator: composed with a sigmoid output it reduces to the stable
        # (p - t) pre-activation form even when the sigmoid saturates past the
        # clamp, instead of vanishing.
        denom = np.maximum(predicted * (1.0 - predicted), 1e-300)
        grad = (p - target) / denom / p.size
        return float(loss), grad
    if kind == "categorical_cross_entropy":
        # loss = -sum(target * log(p)) / n;  grad = -(target / max(predicted, 1e-300)) / n
        np.log(p, out=p)
        loss = -np.sum(np.multiply(target, p, out=p)) / n
        grad = np.maximum(predicted, 1e-300, out=p)
        np.divide(target, grad, out=grad)
        np.negative(grad, out=grad)
        grad /= n
        return float(loss), grad
    raise UsageError(f"unknown loss kind {kind!r}")


# ---------------------------------------------------------------------------
# Optimizers


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        for p, g in zip(params, grads, strict=True):
            if p.shape != g.shape:
                raise ShapeError(f"param {p.shape} != grad {g.shape}")
            p -= self.lr * g


def _scratch_pair(params: list[np.ndarray]) -> np.ndarray:
    """Two flat buffers as large as the largest parameter, for step temporaries."""
    return np.empty((2, max((p.size for p in params), default=0)))


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._scratch: np.ndarray | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
            self._scratch = _scratch_pair(params)
        self.t += 1
        for p, g, m, v in zip(params, grads, self._m, self._v, strict=True):
            if p.shape != g.shape:
                raise ShapeError(f"param {p.shape} != grad {g.shape}")
            num, den = (s[: p.size].reshape(p.shape) for s in self._scratch)
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            # p -= lr * m_hat / (sqrt(v_hat) + eps), through two scratch buffers
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=num)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=num)
            v += np.multiply(num, g, out=num)
            np.divide(m, 1.0 - self.beta1**self.t, out=num)
            num *= self.lr
            np.divide(v, 1.0 - self.beta2**self.t, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            p -= num


class RmsProp:
    def __init__(self, lr: float, rho: float = 0.9, eps: float = 1e-8):
        self.lr = lr
        self.rho = rho
        self.eps = eps
        self._acc: list[np.ndarray] | None = None
        self._scratch: np.ndarray | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if self._acc is None:
            self._acc = [np.zeros_like(p) for p in params]
            self._scratch = _scratch_pair(params)
        for p, g, a in zip(params, grads, self._acc, strict=True):
            if p.shape != g.shape:
                raise ShapeError(f"param {p.shape} != grad {g.shape}")
            num, den = (s[: p.size].reshape(p.shape) for s in self._scratch)
            # a = rho a + (1 - rho) g g;  p -= lr * g / (sqrt(a) + eps)
            a *= self.rho
            np.multiply(g, 1.0 - self.rho, out=num)
            a += np.multiply(num, g, out=num)
            np.multiply(g, self.lr, out=num)
            np.sqrt(a, out=den)
            den += self.eps
            num /= den
            p -= num


# ---------------------------------------------------------------------------
# Dropout


def dropout_forward(x: np.ndarray, rate: float, rng: np.random.Generator):
    """Inverted dropout. Returns (output, mask); mask is the applied scale."""
    if not 0.0 <= rate < 1.0:
        raise UsageError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x, np.ones_like(x)
    mask = rng.random(x.shape)  # (random >= rate) / (1 - rate)
    np.greater_equal(mask, rate, out=mask)
    mask /= 1.0 - rate
    return x * mask, mask


# ---------------------------------------------------------------------------
# Serialization: "SFNN" container, little-endian f64 payloads.

SFNN_MAGIC = b"SFNN"
SFNN_VERSION = 1
_ACT_TAGS = {name: i for i, name in enumerate(ACTIVATIONS)}
_TAG_ACTS = {i: name for name, i in _ACT_TAGS.items()}


def dump_network(layers: list[DenseLayer]) -> bytes:
    parts = [SFNN_MAGIC, struct.pack("<HH", SFNN_VERSION, len(layers))]
    for layer in layers:
        parts.append(struct.pack("<BII", _ACT_TAGS[layer.activation], layer.n_in, layer.n_out))
        parts.append(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())
    return b"".join(parts)


def load_network(blob: bytes) -> tuple[list[DenseLayer], int]:
    """Parse an SFNN container; returns (layers, bytes consumed)."""
    if blob[:4] != SFNN_MAGIC:
        raise UsageError("not an SFNN container (bad magic)")
    version, count = struct.unpack_from("<HH", blob, 4)
    if version != SFNN_VERSION:
        raise UsageError(f"unsupported SFNN version {version}")
    pos = 8
    layers = []
    for _ in range(count):
        tag, n_in, n_out = struct.unpack_from("<BII", blob, pos)
        pos += 9
        w = np.frombuffer(blob, dtype="<f8", count=n_in * n_out, offset=pos).reshape(n_in, n_out)
        pos += 8 * n_in * n_out
        b = np.frombuffer(blob, dtype="<f8", count=n_out, offset=pos)
        pos += 8 * n_out
        layers.append(DenseLayer(weights=w.copy(), bias=b.copy(), activation=_TAG_ACTS[tag]))
    return layers, pos


def assert_finite(arrays, step: str) -> None:
    """Raise TrainingError naming `step` if any array contains NaN/Inf."""
    from .errors import TrainingError

    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise TrainingError(f"non-finite values after step: {step}")
