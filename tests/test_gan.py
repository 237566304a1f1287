"""Unit tests for the adversarial seed generator."""

import hashlib
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from ganfuzz import gan, nn
from ganfuzz.errors import UsageError
from ganfuzz.gan import GanConfig, gan_generate, load_gan, save_gan, train_gan
from ganfuzz.lstm import LstmConfig, save_lstm, train_lstm

from oracles import no_fork

_FAST = GanConfig(latent_dim=8, output_len=16, epochs=2, batch_size=16, rng_seed=0)
_CORPUS = [bytes([i % 7]) * 16 for i in range(64)]

# Dropout, the Adam/SGD pair, the gradient clip, a partial last batch (80 =
# 2 x 32 + 16), the anneal with checkpoint selection and two restarts.
_GOLDEN = GanConfig(latent_dim=8, output_len=24, epochs=8, batch_size=32,
                    anneal_after_epoch=4, anneal_factor=0.9, restarts=2, rng_seed=3)
# SHA-256 of the golden run's losses, moment score, every parameter and 64
# generated seeds; frozen before the dense layers and optimizers computed in
# place, which must not move a bit.
GOLDEN_GAN_SHA256 = "8e09fe004d1cb69a4020fd61e5a57aceac64c793afbe52d07cd0ecbd88eeaca8"


# Products above OpenBLAS's 262,144 multiply-add cut-off for threading (512 x
# 32 x 128 in the generator, 1024 x 64 x 64 in the discriminator, and a
# partial last batch of 88), so that a thread-dependent rounding would show.
_GOLDEN_WIDE = GanConfig(latent_dim=32, output_len=64, epochs=3, batch_size=512,
                         anneal_after_epoch=1, rng_seed=7)
# SHA-256 of that run's losses, moment score, every parameter and 512
# generated seeds; frozen with numpy's products on two OpenBLAS threads,
# before training ran them on one.
GOLDEN_GAN_WIDE_SHA256 = "ba567994ea6c04d6811fda13a9722943492e5a3c4de5392ac56de4a80a01db89"


def _golden_corpus():
    rng = np.random.Generator(np.random.PCG64(17))
    return [b"MKEY\x01" + rng.integers(0, 256, size=int(rng.integers(8, 40)),
                                         dtype=np.uint8).tobytes() for _ in range(80)]


def _wide_corpus():
    rng = np.random.Generator(np.random.PCG64(29))
    return [b"MKEY\x01" + rng.integers(0, 256, size=int(rng.integers(16, 96)),
                                         dtype=np.uint8).tobytes() for _ in range(600)]


def _digest(model, n, rng_seed):
    """SHA-256 of a trained model's losses, moment score, parameters and n seeds."""
    h = hashlib.sha256()
    h.update(np.asarray(model.d_losses + model.g_losses + [model.moment_score]).tobytes())
    for layer in model.generator + model.discriminator:
        h.update(layer.weights.tobytes())
        h.update(layer.bias.tobytes())
    for seed in gan_generate(model, n, rng_seed=rng_seed).seeds:
        h.update(seed)
    return h.hexdigest()


@pytest.fixture(scope="module")
def fast_model():
    return train_gan(_CORPUS, _FAST)


class TestTrainGan:
    def test_empty_corpus_raises(self):
        with pytest.raises(UsageError):
            train_gan([], _FAST)

    def test_zero_latent_dim_raises(self):
        with pytest.raises(UsageError):
            train_gan(_CORPUS, GanConfig(latent_dim=0))

    def test_zero_restarts_raises(self):
        with pytest.raises(UsageError):
            train_gan(_CORPUS, GanConfig(restarts=0))

    def test_architecture_shapes(self, fast_model):
        g, d = fast_model.generator, fast_model.discriminator
        assert [layer.activation for layer in g] == ["relu", "tanh"]
        assert [layer.activation for layer in d] == ["relu", "sigmoid"]
        assert g[0].n_in == _FAST.latent_dim and g[-1].n_out == _FAST.output_len
        assert d[0].n_in == _FAST.output_len and d[-1].n_out == 1

    def test_loss_curves_recorded(self, fast_model):
        assert fast_model.d_losses and fast_model.g_losses
        assert all(np.isfinite(fast_model.d_losses))

    def test_training_determinism(self):
        a = train_gan(_CORPUS, _FAST)
        b = train_gan(_CORPUS, _FAST)
        for pa, pb in zip(a.generator + a.discriminator, b.generator + b.discriminator):
            assert np.array_equal(pa.weights, pb.weights)
            assert np.array_equal(pa.bias, pb.bias)

    def test_gan_golden_digest(self):
        model = train_gan(_golden_corpus(), _GOLDEN)
        assert len(model.d_losses) == 3 * _GOLDEN.epochs
        assert np.isfinite(model.moment_score)
        assert _digest(model, 64, rng_seed=5) == GOLDEN_GAN_SHA256

    @pytest.mark.parametrize("blas", ["openblas found", "openblas not found"])
    def test_wide_gan_golden_digest(self, blas, monkeypatch):
        if blas == "openblas not found":  # the products keep the caller's threads
            monkeypatch.setattr(nn, "_blas_thread_controls", lambda: None)
        model = train_gan(_wide_corpus(), _GOLDEN_WIDE)
        assert len(model.d_losses) == 2 * _GOLDEN_WIDE.epochs
        assert np.isfinite(model.moment_score)
        assert _digest(model, 512, rng_seed=11) == GOLDEN_GAN_WIDE_SHA256

    def test_default_output_len_is_clamped_median(self):
        model = train_gan([b"x" * 4] * 8, GanConfig(latent_dim=4, epochs=1, rng_seed=0))
        assert model.output_len == 16  # median 4, clamped up to 16


# _GOLDEN's settings at rng_seed 0 with three restarts: restart 2 has the
# lowest moment score, so the kept model comes from a forked process.
_THREE_RESTARTS = replace(_GOLDEN, restarts=3, rng_seed=0)


class TestParallelRestarts:
    """Restarts after the first train in forked processes; the kept model is
    the one training them in order keeps, and no process outlives the call."""

    def test_forked_restarts_equal_restarts_in_order(self, monkeypatch):
        corpus = _golden_corpus()
        forked = train_gan(corpus, _THREE_RESTARTS)
        first = train_gan(corpus, replace(_THREE_RESTARTS, restarts=1))
        assert forked.moment_score < first.moment_score  # a later restart won
        no_fork(monkeypatch)
        in_order = train_gan(corpus, _THREE_RESTARTS)
        assert _digest(forked, 64, rng_seed=5) == _digest(in_order, 64, rng_seed=5)
        assert multiprocessing.active_children() == []

    def test_equal_scores_keep_the_first_restart(self):
        # Without the anneal no checkpoint is scored: every restart scores inf.
        three = train_gan(_CORPUS, replace(_FAST, restarts=3))
        assert three.moment_score == float("inf")
        assert _digest(three, 8, rng_seed=1) == _digest(train_gan(_CORPUS, _FAST), 8, rng_seed=1)

    def test_child_exception_reaches_caller_and_reaps_children(self, monkeypatch):
        train_once = gan._train_gan_once

        def fail_after_first(corpus, config, rng_seed):
            if rng_seed != config.rng_seed:  # restarts 1 and 2: in a child
                raise ValueError(f"restart seed {rng_seed} failed")
            return train_once(corpus, config, rng_seed)

        monkeypatch.setattr(gan, "_train_gan_once", fail_after_first)
        with pytest.raises(ValueError, match="restart seed 1000003 failed"):
            train_gan(_golden_corpus(), _THREE_RESTARTS)
        assert multiprocessing.active_children() == []

    def test_one_restart_starts_no_process(self, monkeypatch):
        fork = os.fork
        forks = []

        def counted_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        train_gan(_CORPUS, _FAST)
        assert forks == []
        train_gan(_CORPUS, replace(_FAST, restarts=2))
        assert forks == [1]
        assert multiprocessing.active_children() == []


class TestGanGenerate:
    def test_lengths_and_count(self, fast_model):
        batch = gan_generate(fast_model, 50, rng_seed=1)
        assert len(batch.seeds) == 50
        assert all(len(s) == fast_model.output_len for s in batch.seeds)
        assert batch.strategy == "gan"

    def test_determinism(self, fast_model):
        assert gan_generate(fast_model, 1, rng_seed=2).seeds == \
               gan_generate(fast_model, 1, rng_seed=2).seeds

    def test_bad_count_raises(self, fast_model):
        with pytest.raises(UsageError):
            gan_generate(fast_model, 0, rng_seed=0)


class TestPersistence:
    def test_round_trip_bit_exact(self, fast_model, tmp_path):
        path = tmp_path / "gan.bin"
        save_gan(fast_model, path)
        loaded = load_gan(path)
        assert loaded.latent_dim == fast_model.latent_dim
        assert loaded.output_len == fast_model.output_len
        assert loaded.dropout_rate == fast_model.dropout_rate
        assert loaded.rng_seed == fast_model.rng_seed
        for a, b in zip(fast_model.generator + fast_model.discriminator,
                        loaded.generator + loaded.discriminator):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_loaded_model_generates_identically(self, fast_model, tmp_path):
        path = tmp_path / "gan.bin"
        save_gan(fast_model, path)
        assert gan_generate(load_gan(path), 10, rng_seed=3).seeds == \
               gan_generate(fast_model, 10, rng_seed=3).seeds

    def test_wrong_tag_rejected(self, tmp_path):
        lstm = train_lstm([b"abcd" * 30], LstmConfig(hidden_width=4, dense_width=4,
                                                     window=4, epochs=1, rng_seed=0))
        path = tmp_path / "lstm.bin"
        save_lstm(lstm, path)
        with pytest.raises(UsageError, match="tag"):
            load_gan(path)
