"""Byte-level recurrent seed generator: one LSTM layer, an inner dense layer,
and a softmax projection over the 256-byte vocabulary.

Trained many-to-one (predict the byte following a sliding window of the
concatenated corpus) with categorical cross-entropy and RMSProp. Sampling
primes the recurrent state with a random corpus window, then draws bytes
autoregressively with temperature-scaled softmax.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import UsageError
from .synth import SyntheticBatch

VOCAB = 256
LSTM_TAG = 0x02
GREEDY_TEMPERATURE = 1e-4  # below this, sampling degenerates to argmax


@dataclass
class LstmConfig:
    hidden_width: int = 128
    dense_width: int = 128
    window: int = 20
    stride: int = 3
    epochs: int = 20
    batch_size: int = 64
    lr: float = 0.001
    max_gen_len: int = 40
    rng_seed: int = 0


@dataclass
class LstmModel:
    wx: np.ndarray  # (VOCAB, 4H): input-to-gates
    wh: np.ndarray  # (H, 4H): hidden-to-gates
    b: np.ndarray  # (4H,)
    dense: nn.DenseLayer  # (H -> dense_width, relu)
    proj: nn.DenseLayer  # (dense_width -> VOCAB, softmax)
    window: int
    max_gen_len: int
    rng_seed: int
    losses: list[float] = field(default_factory=list, repr=False)
    train_time: float = 0.0

    @property
    def hidden_width(self) -> int:
        return self.wh.shape[0]

    def params(self) -> list[np.ndarray]:
        return [self.wx, self.wh, self.b,
                self.dense.weights, self.dense.bias,
                self.proj.weights, self.proj.bias]


class _Steps:
    """Buffers for running a (batch, T) window batch through the recurrence.

    With keep=True (training) every step stays for BPTT. Row k of `gates`,
    `g` and `tc` belongs to step T-1-k, the order in which the dwx scatter
    adds the steps up: the activated (i, f, ., o) gates, tanh of the cell
    input and tanh(c). Rows t and t+1 of `h` and `c` are the state before and
    after step t; row 0 is the zero state. With keep=False (inference) one
    step's rows are reused for every step and `h`, `c` alternate between two.

    g, tc, h and c share one buffer. They are dead once BPTT has run, and the
    flat dwx cell of every dgates entry, which the scatter needs, is written
    over them (`cells`); so each forward pass starts by zeroing row 0.
    """

    def __init__(self, hw: int, batch: int, steps: int, keep: bool):
        self.keep = keep
        kept = steps if keep else 1
        self.gates = np.empty((kept, batch, 4 * hw))
        state = np.empty((4 * kept + 2) * batch * hw)
        ends = np.cumsum([0, kept, kept, kept + 1, kept + 1]) * batch * hw
        self.g, self.tc, self.h, self.c = (
            state[a:b].reshape(-1, batch, hw) for a, b in zip(ends, ends[1:]))
        self.cells = state.view(np.intp)[: self.gates.size].reshape(self.gates.shape)
        # Step scratch: wide[0] takes h @ wh; BPTT uses both and the rest.
        self.wide = np.empty((2 if keep else 1, batch, 4 * hw))
        if keep:
            self.narrow = np.empty((2, batch, hw))
            self.dwh_part = np.empty((hw, 4 * hw))
        self.x: np.ndarray | None = None  # (T, batch) byte indices, last step first

    def fits(self, batch: int, steps: int, keep: bool) -> bool:
        return self.keep == keep and self.h.shape[1] == batch and (
            self.gates.shape[0] == steps or not keep)


def _cell_forward(model: LstmModel, x_idx: np.ndarray, st: _Steps, k: int, p: int, q: int):
    """One LSTM step for a batch of byte indices from state (h[p], c[p]) into
    (h[q], c[q]); its gates, tanh(g) and tanh(c) go to row k."""
    hw = model.hidden_width
    gates = st.gates[k]
    # Bytes are < 256, so "clip" clips nothing; "raise" would copy via a temporary.
    np.take(model.wx, x_idx, axis=0, out=gates, mode="clip")
    gates += np.matmul(st.h[p], model.wh, out=st.wide[0])
    gates += model.b
    np.tanh(gates[:, 2 * hw : 3 * hw], out=st.g[k])
    nn.apply_activation("sigmoid", gates, out=gates)  # the g columns go unused
    c = np.multiply(gates[:, hw : 2 * hw], st.c[p], out=st.c[q])
    c += np.multiply(gates[:, :hw], st.g[k], out=st.tc[k])
    np.tanh(c, out=st.tc[k])
    np.multiply(gates[:, 3 * hw :], st.tc[k], out=st.h[q])


def _recur(model: LstmModel, windows: np.ndarray, st: _Steps) -> np.ndarray:
    """Run windows from the zero state through st; returns the final h."""
    steps = windows.shape[1]
    st.h[0] = 0.0
    st.c[0] = 0.0
    for t in range(steps):
        if st.keep:
            _cell_forward(model, windows[:, t], st, steps - 1 - t, t, t + 1)
        else:
            _cell_forward(model, windows[:, t], st, 0, t % 2, 1 - t % 2)
    return st.h[steps if st.keep else steps % 2]


def _forward_window(model: LstmModel, windows: np.ndarray, cache: bool = True,
                    steps: _Steps | None = None):
    """Run a (batch, T) window batch through the recurrence; returns (probs
    over next byte, final h, final c, step cache or None). h and c are views
    into the cache's buffers, which are reused from `steps`, a previous call's
    cache, when they fit."""
    batch, length = windows.shape
    if steps is None or not steps.fits(batch, length, cache):
        steps = _Steps(model.hidden_width, batch, length, keep=cache)
    h = _recur(model, windows, steps)
    c = steps.c[length if cache else length % 2]
    if cache:
        steps.x = windows[:, ::-1].T
    d = model.dense.forward(h, cache=cache)
    probs = model.proj.forward(d, cache=cache)
    return probs, h, c, steps if cache else None


def _backward_window(model: LstmModel, st: _Steps, grad_probs: np.ndarray):
    """BPTT for the many-to-one loss; returns grads aligned with params().
    grad_probs is overwritten.

    Each step's dgates overwrite its gates row, so after the loop `st.gates`
    holds every step's dgates, last step first. dwx is their scatter into the
    rows of the input bytes: one bincount, which adds each cell's terms in
    that order from 0.0, as a per-step np.add.at would.
    """
    grad_d = model.proj.backward(grad_probs, overwrite=True)
    dh = model.dense.backward(grad_d)
    hw = model.hidden_width
    steps = st.x.shape[0]
    dwh = np.zeros_like(model.wh)
    db = np.zeros_like(model.b)
    dc = np.zeros_like(dh)
    upstream, factor = st.wide
    tmp, decay = st.narrow
    st.gates[:, :, 2 * hw : 3 * hw] = 1.0  # (i, f, 1, o): the g columns pass dg through
    for k in range(steps):
        t = steps - 1 - k
        dgates, g, tc = st.gates[k], st.g[k], st.tc[k]
        i, f, o = dgates[:, :hw], dgates[:, hw : 2 * hw], dgates[:, 3 * hw :]
        # dc += dh * o * (1 - tc * tc)
        np.multiply(tc, tc, out=decay)
        np.subtract(1.0, decay, out=decay)
        dc += np.multiply(np.multiply(dh, o, out=tmp), decay, out=tmp)
        # dgates = (di, df, dg, do) * (i, f, 1, o) * (1 - i, 1 - f, 1 - g * g, 1 - o)
        np.multiply(dc, g, out=upstream[:, :hw])
        np.multiply(dc, st.c[t], out=upstream[:, hw : 2 * hw])
        np.multiply(dc, i, out=upstream[:, 2 * hw : 3 * hw])
        np.multiply(dh, tc, out=upstream[:, 3 * hw :])
        np.subtract(1.0, dgates, out=factor)
        np.multiply(g, g, out=factor[:, 2 * hw : 3 * hw])
        np.subtract(1.0, factor[:, 2 * hw : 3 * hw], out=factor[:, 2 * hw : 3 * hw])
        dc *= f
        dgates *= upstream
        dgates *= factor
        if t:  # h before the first step is zero: its dwh term adds nothing
            dwh += np.matmul(st.h[t].T, dgates, out=st.dwh_part)
        db += dgates.sum(axis=0)
        if t:
            np.matmul(dgates, model.wh.T, out=dh)
    cells = np.add(st.x[:, :, None] * (4 * hw), np.arange(4 * hw), out=st.cells)
    dwx = np.bincount(cells.ravel(), weights=st.gates.ravel(),
                      minlength=model.wx.size).reshape(model.wx.shape)
    return [dwx, dwh, db,
            model.dense.grad_weights, model.dense.grad_bias,
            model.proj.grad_weights, model.proj.grad_bias]


def _one_hot(indices: np.ndarray) -> np.ndarray:
    out = np.zeros((indices.size, VOCAB))
    out[np.arange(indices.size), indices] = 1.0
    return out


def init_lstm(config: LstmConfig) -> LstmModel:
    rng = np.random.Generator(np.random.PCG64(config.rng_seed))
    hw = config.hidden_width
    limit_x = np.sqrt(6.0 / (VOCAB + 4 * hw))
    limit_h = np.sqrt(6.0 / (hw + 4 * hw))
    model = LstmModel(
        wx=rng.uniform(-limit_x, limit_x, size=(VOCAB, 4 * hw)),
        wh=rng.uniform(-limit_h, limit_h, size=(hw, 4 * hw)),
        b=np.zeros(4 * hw),
        dense=nn.DenseLayer.create(hw, config.dense_width, "relu", rng),
        proj=nn.DenseLayer.create(config.dense_width, VOCAB, "softmax", rng),
        window=config.window,
        max_gen_len=config.max_gen_len,
        rng_seed=config.rng_seed,
    )
    # Forget-gate bias starts at 1: standard recipe for stable recurrence.
    model.b[hw : 2 * hw] = 1.0
    return model


@nn.one_blas_thread()
def train_lstm(corpus: list[bytes], config: LstmConfig) -> LstmModel:
    """Train on the sliding windows of a corpus, given as a list of bytes and
    read as one concatenated text."""
    text = np.frombuffer(b"".join(corpus), dtype=np.uint8)
    if text.size <= config.window:
        raise UsageError(
            f"concatenated corpus ({text.size} bytes) must exceed window ({config.window})"
        )
    start = time.perf_counter()
    starts = np.arange(0, text.size - config.window, config.stride)
    windows = np.stack([text[s : s + config.window] for s in starts]).astype(np.int64)
    targets = text[starts + config.window].astype(np.int64)

    model = init_lstm(config)
    rng = np.random.Generator(np.random.PCG64(config.rng_seed + 1))
    opt = nn.RmsProp(config.lr)
    n = windows.shape[0]
    batch = min(config.batch_size, n)
    steps = None
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch):
            sel = order[lo : lo + batch]
            probs, _, _, steps = _forward_window(model, windows[sel], steps=steps)
            loss, grad = nn.loss_and_grad(
                "categorical_cross_entropy", probs, _one_hot(targets[sel])
            )
            grads = _backward_window(model, steps, grad)
            opt.step(model.params(), grads)
            nn.assert_finite(model.params(), "lstm update")
            model.losses.append(loss)
    nn.release([model.dense, model.proj])
    model.train_time = time.perf_counter() - start
    return model


def sample_distribution(logits: np.ndarray, temperature: float,
                        out: np.ndarray | None = None) -> np.ndarray:
    """softmax(logits / temperature), written into `out` when given (which may
    be logits itself); at temperature 1 this is the raw softmax."""
    if temperature <= 0:
        raise UsageError("temperature must be > 0")
    scaled = np.divide(logits, temperature, out=out)
    return nn.apply_activation("softmax", scaled, out=scaled)


def lstm_generate(model: LstmModel, n: int, temperature: float, corpus: list[bytes],
                  rng_seed: int) -> SyntheticBatch:
    """Prime with random windows of the concatenated corpus (a list of
    bytes), then sample up to max_gen_len bytes."""
    if temperature <= 0:
        raise UsageError("temperature must be > 0")
    if n < 1:
        raise UsageError("n must be >= 1")
    text = np.frombuffer(b"".join(corpus), dtype=np.uint8)
    if text.size < model.window:
        raise UsageError("corpus shorter than the priming window")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    positions = rng.integers(0, text.size - model.window + 1, size=n)

    # The model is trained many-to-one from a zero state over fixed-length
    # windows, so each next byte is predicted by re-running the trailing
    # window of context from a fresh state — the training distribution —
    # rather than carrying recurrent state past the trained rollout length.
    # Row i of `stream` is primer i followed by its sampled bytes; the
    # context for byte t is the window ending just before it.
    window, length = model.window, model.max_gen_len
    stream = np.empty((n, window + length), dtype=np.int64)
    for row, p in zip(stream, positions):
        row[:window] = text[p : p + window]
    greedy = temperature < GREEDY_TEMPERATURE
    # One step's buffers, reused for every sampled byte.
    steps = _Steps(model.hidden_width, n, window, keep=False)
    d = np.empty((n, model.dense.n_out))
    logits = np.empty((n, VOCAB))
    cdf = np.empty((n, VOCAB))
    above = np.empty((n, VOCAB), dtype=bool)
    u = np.empty((n, 1))
    for t in range(length):
        h = _recur(model, stream[:, t : t + window], steps)
        model.dense.forward(h, cache=False, out=d)
        np.matmul(d, model.proj.weights, out=logits)  # d @ W + b
        logits += model.proj.bias
        nxt = stream[:, window + t]
        if greedy:
            logits.argmax(axis=1, out=nxt)
        else:
            probs = sample_distribution(logits, temperature, out=logits)
            np.cumsum(probs, axis=1, out=cdf)
            cdf[:, -1] = 1.0
            rng.random(out=u)
            np.greater(u, cdf, out=above)  # the byte is the number of cdf steps below u
            above.sum(axis=1, out=nxt)
    out = stream[:, window:].astype(np.uint8)
    return SyntheticBatch("lstm", [row.tobytes() for row in out])


# ---------------------------------------------------------------------------
# Persistence: tag byte + header + SFNN container holding the four weight
# blocks (input-to-gates with the gate bias, hidden-to-gates, dense, proj).


def save_lstm(model: LstmModel, path) -> None:
    header = struct.pack("<BIIQ", LSTM_TAG, model.window, model.max_gen_len, model.rng_seed)
    layers = [
        nn.DenseLayer(weights=model.wx, bias=model.b, activation="identity"),
        nn.DenseLayer(weights=model.wh, bias=np.zeros(model.wh.shape[1]), activation="identity"),
        model.dense,
        model.proj,
    ]
    with open(path, "wb") as fh:
        fh.write(header + nn.dump_network(layers))


def load_lstm(path) -> LstmModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    tag, window, max_gen_len, seed = struct.unpack_from("<BIIQ", blob, 0)
    if tag != LSTM_TAG:
        raise UsageError(f"not an LSTM model file (tag {tag})")
    layers, _ = nn.load_network(blob[struct.calcsize("<BIIQ") :])
    wx_layer, wh_layer, dense, proj = layers
    return LstmModel(wx=wx_layer.weights, wh=wh_layer.weights, b=wx_layer.bias,
                     dense=dense, proj=proj, window=window,
                     max_gen_len=max_gen_len, rng_seed=seed)
