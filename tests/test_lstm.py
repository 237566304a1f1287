"""Unit tests for the recurrent seed generator."""

import hashlib

import numpy as np
import pytest

from ganfuzz import lstm, nn
from ganfuzz.errors import UsageError
from ganfuzz.lstm import (
    LstmConfig,
    _backward_window,
    _forward_window,
    _one_hot,
    init_lstm,
    load_lstm,
    lstm_generate,
    sample_distribution,
    save_lstm,
    train_lstm,
)

from ganfuzz.targets import build_minikey_input, build_record

from oracles import FD_H

_PERIODIC = [b"abc" * 100]
_WINDOW3 = LstmConfig(hidden_width=32, dense_width=32, window=3, stride=1,
                      epochs=20, lr=0.005, rng_seed=0)


# A partial last batch (304 windows = 12 x 24 + 16), and bytes repeated within
# a window and within a batch.
_GOLDEN = LstmConfig(hidden_width=16, dense_width=12, window=6, stride=2, epochs=3,
                     batch_size=24, lr=0.005, max_gen_len=10, rng_seed=4)
# SHA-256 of the golden run's losses, every parameter and 64 sampled seeds;
# re-frozen when the LSTM moved from float64 to float32.
GOLDEN_LSTM_SHA256 = "4dbf602a6d479b416a6f56b6bc5bee6c4c1d8d5a4592787bbac492a4eb6db791"
# Products above OpenBLAS's 262,144 multiply-add cut-off for threading: 64 x
# 64 x 256 per training step, 500 x 64 x 256 per sampling step.
_GOLDEN_WIDE = LstmConfig(hidden_width=64, dense_width=64, window=8, stride=3, epochs=1,
                          batch_size=64, max_gen_len=8, rng_seed=5)
# SHA-256 of that run's losses, every parameter and 500 seeds sampled at
# temperature 1.0 and 500 greedily; re-frozen when the LSTM moved from
# float64 to float32, and the same whether training runs its products on one
# OpenBLAS thread or on the caller's.
GOLDEN_LSTM_WIDE_SHA256 = "53554f46388f5e8894a605428774cb7c0ce546c526d42f0b5dc852a8676b3bd1"


def _golden_corpus(seed=23, files=16):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [build_minikey_input(1 + k % 2, [
        build_record(int(rng.integers(1, 4)), rng.integers(0, 256, size=int(rng.integers(1, 24)),
                                                          dtype=np.uint8).tobytes())
        for _ in range(1 + k % 3)]) for k in range(files)]


def _digest(model, samples):
    """SHA-256 of a trained model's losses, parameters and sampled seeds."""
    h = hashlib.sha256()
    h.update(np.asarray(model.losses).tobytes())
    for p in model.params():
        h.update(p.tobytes())
    for batch in samples:
        for seed in batch.seeds:
            h.update(seed)
    return h.hexdigest()


@pytest.fixture(scope="module")
def periodic_model():
    return train_lstm(_PERIODIC, _WINDOW3)


class TestTrainLstm:
    def test_corpus_shorter_than_window_raises(self):
        with pytest.raises(UsageError):
            train_lstm([b"ab"], LstmConfig(window=20))

    def test_empty_corpus_raises(self):
        with pytest.raises(UsageError):
            train_lstm([], LstmConfig())

    def test_next_byte_after_ab_is_c(self, periodic_model):
        # Full trained window ending in "ab", and the raw 2-byte context.
        for ctx in (b"cab", b"ab"):
            windows = np.frombuffer(ctx, dtype=np.uint8).astype(np.int64)[None, :]
            probs, _, _, _ = _forward_window(periodic_model, windows, cache=False)
            assert probs.argmax() == ord("c")

    def test_inference_and_training_passes_agree_bitwise(self, periodic_model):
        windows = np.random.Generator(np.random.PCG64(3)).integers(0, 256, size=(5, 3))
        kept, h, c, steps = _forward_window(periodic_model, windows)
        alone, h1, c1, none = _forward_window(periodic_model, windows, cache=False)
        assert none is None
        for a, b in ((kept, alone), (h, h1), (c, c1)):
            assert np.array_equal(a, b)

    def test_loss_decreases(self, periodic_model):
        losses = periodic_model.losses
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_training_determinism(self):
        a = train_lstm(_PERIODIC, _WINDOW3)
        b = train_lstm(_PERIODIC, _WINDOW3)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_trained_model_holds_no_layer_caches(self):
        # The caches would keep the last batch's step block alive with the model.
        model = train_lstm(_PERIODIC, _WINDOW3)
        for layer in (model.dense, model.proj):
            assert layer._x is None and layer._y is None
            assert layer._buffers == {}

    def test_lstm_golden_digest(self):
        corpus = _golden_corpus()
        model = train_lstm(corpus, _GOLDEN)
        assert _digest(model, [lstm_generate(model, 64, 0.8, corpus, rng_seed=9)]) \
            == GOLDEN_LSTM_SHA256

    @pytest.mark.parametrize("blas", ["openblas found", "openblas not found"])
    def test_wide_lstm_golden_digest(self, blas, monkeypatch):
        if blas == "openblas not found":  # the products keep the caller's threads
            monkeypatch.setattr(nn, "_blas_thread_controls", lambda: None)
        corpus = _golden_corpus(seed=31, files=64)
        model = train_lstm(corpus, _GOLDEN_WIDE)
        samples = [lstm_generate(model, 500, temperature, corpus, rng_seed=13)
                   for temperature in (1.0, 1e-5)]
        assert _digest(model, samples) == GOLDEN_LSTM_WIDE_SHA256

    def test_bptt_gradients_match_finite_differences(self):
        # The model's own BPTT code, run on a float64 copy of its float32
        # parameters: central differences in float32 resolve none of the
        # tolerances below.
        model = init_lstm(LstmConfig(hidden_width=6, dense_width=5, window=4, rng_seed=11))
        model.wx, model.wh, model.b = (p.astype(np.float64) for p in (model.wx, model.wh, model.b))
        for layer in (model.dense, model.proj):
            layer.weights, layer.bias = layer.weights.astype(np.float64), layer.bias.astype(np.float64)
        rng = np.random.Generator(np.random.PCG64(1))
        windows = rng.integers(0, 256, size=(3, 4))
        targets = _one_hot(rng.integers(0, 256, size=3), np.float64)
        probs, _, _, caches = _forward_window(model, windows)
        _, grad = nn.loss_and_grad("categorical_cross_entropy", probs, targets)
        grads = _backward_window(model, caches, grad)
        assert all(g.dtype == np.float64 for g in grads)
        pick = np.random.Generator(np.random.PCG64(2))
        worst = 0.0
        for p, a in zip(model.params(), grads):
            flat, aflat = p.reshape(-1), a.reshape(-1)
            for i in pick.choice(flat.size, size=min(60, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + FD_H
                lp, _ = nn.loss_and_grad(
                    "categorical_cross_entropy",
                    _forward_window(model, windows, cache=False)[0], targets)
                flat[i] = orig - FD_H
                lm, _ = nn.loss_and_grad(
                    "categorical_cross_entropy",
                    _forward_window(model, windows, cache=False)[0], targets)
                flat[i] = orig
                num = (lp - lm) / (2 * FD_H)
                scale = max(abs(num), abs(aflat[i]))
                if scale < 1e-5:
                    # Below the central-difference cancellation floor; compare
                    # absolutely instead of relatively.
                    assert abs(num - aflat[i]) < 1e-8
                    continue
                worst = max(worst, abs(num - aflat[i]) / scale)
        assert worst < 1e-4, f"worst relative error {worst}"


class TestPrecision:
    """The LSTM runs in float32 throughout, the GAN in float64."""

    def test_lstm_trains_and_samples_in_float32(self, monkeypatch):
        seen_steps, seen_grads = [], []

        def recur(model, windows, st):
            seen_steps.append(st)
            return real_recur(model, windows, st)

        def backward(model, st, grad_probs):
            grads = real_backward(model, st, grad_probs)
            seen_grads.extend(grads)
            return grads

        real_recur, real_backward = lstm._recur, lstm._backward_window
        monkeypatch.setattr(lstm, "_recur", recur)
        monkeypatch.setattr(lstm, "_backward_window", backward)
        model = train_lstm(_PERIODIC, LstmConfig(hidden_width=8, dense_width=8, window=3,
                                                 epochs=1, rng_seed=0))
        lstm_generate(model, 4, 1.0, _PERIODIC, rng_seed=0)
        assert {st.keep for st in seen_steps} == {True, False}
        buffers = [b for st in seen_steps
                   for b in (st.gates, st.g, st.tc, st.h, st.c, st.wide,
                             *((st.narrow,) if st.keep else ()))]
        assert seen_grads
        for array in (*model.params(), *buffers, *seen_grads):
            assert array.dtype == np.float32

    def test_gan_trains_in_float64(self):
        from ganfuzz.gan import GanConfig, train_gan

        gan = train_gan([bytes(range(16))] * 8, GanConfig(latent_dim=4, output_len=16,
                                                          epochs=2, rng_seed=0))
        params = nn.parameters(gan.generator + gan.discriminator)
        assert params and all(p.dtype == np.float64 for p in params)

    def test_init_draws_the_float64_stream_then_casts(self):
        config = LstmConfig(hidden_width=8, dense_width=8, rng_seed=3)
        rng = np.random.Generator(np.random.PCG64(config.rng_seed))
        limit_x = np.sqrt(6.0 / (256 + 4 * config.hidden_width))
        wx = rng.uniform(-limit_x, limit_x, size=(256, 4 * config.hidden_width))
        assert np.array_equal(init_lstm(config).wx, wx.astype(np.float32))


class TestSampling:
    def test_temperature_one_is_raw_softmax(self):
        logits = np.array([[1.0, -2.0, 0.5, 3.0]])
        np.testing.assert_array_equal(sample_distribution(logits, 1.0),
                                      nn.apply_activation("softmax", logits))

    def test_temperature_scales_logits(self):
        logits = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(sample_distribution(logits, 0.5),
                                   nn.apply_activation("softmax", logits * 2.0))

    def test_bad_temperature_raises(self, periodic_model):
        with pytest.raises(UsageError):
            sample_distribution(np.zeros((1, 4)), 0.0)
        with pytest.raises(UsageError):
            lstm_generate(periodic_model, 1, -1.0, _PERIODIC, rng_seed=0)


class TestGenerate:
    def test_greedy_continues_period(self, periodic_model):
        batch = lstm_generate(periodic_model, 5, 1e-5, _PERIODIC, rng_seed=7)
        for s in batch.seeds:
            assert len(set(s[:3])) == 3  # genuinely periodic, not constant
            assert all(s[i] == s[i - 3] for i in range(3, len(s)))

    def test_max_length_cap(self, periodic_model):
        batch = lstm_generate(periodic_model, 8, 1.0, _PERIODIC, rng_seed=1)
        assert all(len(s) <= 40 for s in batch.seeds)

    def test_determinism(self, periodic_model):
        assert lstm_generate(periodic_model, 3, 0.8, _PERIODIC, rng_seed=5).seeds == \
               lstm_generate(periodic_model, 3, 0.8, _PERIODIC, rng_seed=5).seeds

    def test_corpus_shorter_than_window_raises(self, periodic_model):
        with pytest.raises(UsageError):
            lstm_generate(periodic_model, 1, 1.0, [b"ab"], rng_seed=0)

    def test_bad_count_raises(self, periodic_model):
        with pytest.raises(UsageError):
            lstm_generate(periodic_model, 0, 1.0, _PERIODIC, rng_seed=0)


class TestPersistence:
    def test_round_trip_bit_exact(self, periodic_model, tmp_path):
        path = tmp_path / "lstm.bin"
        save_lstm(periodic_model, path)
        loaded = load_lstm(path)
        assert loaded.window == periodic_model.window
        assert loaded.max_gen_len == periodic_model.max_gen_len
        assert loaded.rng_seed == periodic_model.rng_seed
        for a, b in zip(periodic_model.params(), loaded.params()):
            assert b.dtype == np.float32  # held exactly by the float64 payload
            assert np.array_equal(a, b)

    def test_loaded_model_generates_identically(self, periodic_model, tmp_path):
        path = tmp_path / "lstm.bin"
        save_lstm(periodic_model, path)
        loaded = load_lstm(path)
        for temperature in (1e-5, 1.0):  # greedy and sampled
            assert lstm_generate(loaded, 16, temperature, _PERIODIC, rng_seed=2).seeds == \
                   lstm_generate(periodic_model, 16, temperature, _PERIODIC, rng_seed=2).seeds

    def test_wrong_tag_rejected(self, tmp_path):
        from ganfuzz.gan import GanConfig, save_gan, train_gan

        gan = train_gan([b"x" * 16] * 8, GanConfig(latent_dim=4, output_len=16,
                                                   epochs=1, rng_seed=0))
        path = tmp_path / "gan.bin"
        save_gan(gan, path)
        with pytest.raises(UsageError, match="tag"):
            load_lstm(path)
