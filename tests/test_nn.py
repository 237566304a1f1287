"""Unit tests for the dense-network substrate."""

import subprocess
import sys

import numpy as np
import pytest

from ganfuzz import nn
from ganfuzz.errors import ShapeError, TrainingError, UsageError
from ganfuzz.gan import GanConfig, gan_generate, train_gan
from ganfuzz.lstm import LstmConfig, train_lstm

from oracles import FD_REL_TOL, run_grad_suite


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestDenseForward:
    def test_identity_layer_passes_through(self):
        layer = nn.DenseLayer(weights=np.eye(2), bias=np.zeros(2), activation="identity")
        out = layer.forward(np.array([[3.0, -1.0]]))
        np.testing.assert_allclose(out, [[3.0, -1.0]])

    def test_relu_scalar_hand_case(self):
        layer = nn.DenseLayer(weights=np.array([[2.0]]), bias=np.array([1.0]), activation="relu")
        np.testing.assert_allclose(layer.forward(np.array([[3.0]])), [[7.0]])
        np.testing.assert_allclose(layer.forward(np.array([[-3.0]])), [[0.0]])

    def test_softmax_symmetry(self):
        layer = nn.DenseLayer(weights=np.eye(2), bias=np.zeros(2), activation="softmax")
        np.testing.assert_allclose(layer.forward(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_softmax_rows_sum_to_one(self):
        out = nn.apply_activation("softmax", _rng().normal(size=(50, 9)) * 10)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(50), atol=1e-9)

    def test_activation_ranges(self):
        z = _rng().normal(size=(20, 7)) * 5
        assert np.all(nn.apply_activation("tanh", z) >= -1.0)
        assert np.all(nn.apply_activation("tanh", z) <= 1.0)
        assert np.all(nn.apply_activation("relu", z) >= 0.0)

    @pytest.mark.parametrize("name", nn.ACTIVATIONS)
    def test_in_place_activation_is_bit_identical(self, name):
        z = _rng(5).normal(size=(6, 9)) * 4
        fresh = nn.apply_activation(name, z.copy())
        out = z.copy()
        assert nn.apply_activation(name, out, out=out) is out
        assert np.array_equal(out, fresh)
        if name != "identity":
            assert not np.shares_memory(nn.apply_activation(name, z), z)

    def test_shape_mismatch_raises(self):
        layer = nn.DenseLayer.create(3, 2, "relu", _rng())
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 4)))

    def test_inconsistent_layer_shapes_raise(self):
        with pytest.raises(ShapeError):
            nn.DenseLayer(weights=np.zeros((3, 2)), bias=np.zeros(3), activation="relu")

    def test_unknown_activation_raises(self):
        with pytest.raises(UsageError):
            nn.DenseLayer(weights=np.eye(2), bias=np.zeros(2), activation="gelu")


class TestLosses:
    def test_bce_perfect_prediction_near_zero(self):
        loss, _ = nn.loss_and_grad(
            "binary_cross_entropy", np.array([[1.0 - 1e-7]]), np.array([[1.0]])
        )
        assert 0.0 <= loss < 1e-6

    def test_bce_half_is_ln2(self):
        loss, _ = nn.loss_and_grad("binary_cross_entropy", np.array([[0.5]]), np.array([[1.0]]))
        np.testing.assert_allclose(loss, np.log(2.0), rtol=1e-12)

    def test_cce_one_hot_match_is_zero(self):
        pred = np.array([[0.0, 1.0, 0.0]])
        loss, _ = nn.loss_and_grad("categorical_cross_entropy", pred, pred)
        assert abs(loss) < 1e-6

    def test_loss_nonnegative(self):
        rng = _rng(3)
        pred = rng.random((10, 4))
        pred /= pred.sum(axis=1, keepdims=True)
        target = np.eye(4)[rng.integers(0, 4, size=10)]
        loss, _ = nn.loss_and_grad("categorical_cross_entropy", pred, target)
        assert loss >= 0.0

    def test_cce_is_the_plain_expression(self):
        rng = _rng(6)
        pred = nn.apply_activation("softmax", rng.normal(size=(9, 5)) * 3)
        pred[0, 1] = 0.0  # below the clamp
        target = np.eye(5)[rng.integers(0, 5, size=9)]
        loss, grad = nn.loss_and_grad("categorical_cross_entropy", pred, target)
        p = np.clip(pred, nn.LOG_CLAMP, 1.0 - nn.LOG_CLAMP)
        assert loss == float(-np.sum(target * np.log(p)) / 9)
        assert np.array_equal(grad, -(target / np.maximum(pred, 1e-300)) / 9)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            nn.loss_and_grad("binary_cross_entropy", np.zeros((2, 1)), np.zeros((3, 1)))

    def test_unknown_kind_raises(self):
        with pytest.raises(UsageError):
            nn.loss_and_grad("hinge", np.zeros((1, 1)), np.zeros((1, 1)))


class TestBackward:
    def test_identity_layer_passes_gradient_through(self):
        layer = nn.DenseLayer(weights=np.eye(3), bias=np.zeros(3), activation="identity")
        x = _rng().normal(size=(4, 3))
        layer.forward(x)
        upstream = _rng(1).normal(size=(4, 3))
        np.testing.assert_allclose(layer.backward(upstream), upstream)

    def test_zero_upstream_gives_zero_grads(self):
        layers = [nn.DenseLayer.create(4, 3, "tanh", _rng()),
                  nn.DenseLayer.create(3, 2, "sigmoid", _rng(1))]
        nn.forward(layers, _rng(2).normal(size=(5, 4)))
        nn.backward(layers, np.zeros((5, 2)))
        for g in nn.gradients(layers):
            np.testing.assert_allclose(g, 0.0)

    def test_skipping_the_input_gradient_keeps_parameter_grads(self):
        def grads(input_grad):
            layers = [nn.DenseLayer.create(4, 3, "relu", _rng()),
                      nn.DenseLayer.create(3, 2, "tanh", _rng(1))]
            nn.forward(layers, _rng(2).normal(size=(5, 4)))
            return nn.backward(layers, _rng(3).normal(size=(5, 2)), input_grad), \
                nn.gradients(layers)

        dx, full = grads(True)
        none, skipped = grads(False)
        assert dx.shape == (5, 4) and none is None
        for a, b in zip(full, skipped):
            assert np.array_equal(a, b)

    def test_uncached_pass_between_forward_and_backward_changes_nothing(self):
        # The stack keeps separate buffers for cached and uncached passes.
        def grads(interleave):
            layers = [nn.DenseLayer.create(4, 6, "relu", _rng()),
                      nn.DenseLayer.create(6, 5, "tanh", _rng(1)),
                      nn.DenseLayer.create(5, 1, "sigmoid", _rng(2))]
            probs = nn.forward(layers, _rng(3).normal(size=(8, 4)))
            if interleave:
                nn.forward(layers, _rng(4).normal(size=(8, 4)), cache=False)
            _, grad = nn.loss_and_grad("binary_cross_entropy", probs,
                                       (_rng(5).random((8, 1)) > 0.5).astype(float))
            dx = nn.backward(layers, grad)
            return [dx] + [g.copy() for g in nn.gradients(layers)]

        for a, b in zip(grads(False), grads(True)):
            assert np.array_equal(a, b)

    def test_stack_outputs_are_fresh_arrays(self):
        layers = [nn.DenseLayer.create(3, 4, "relu", _rng()),
                  nn.DenseLayer.create(4, 2, "identity", _rng(1))]
        for cache in (True, False):
            a = nn.forward(layers, _rng(2).normal(size=(5, 3)), cache=cache)
            kept = a.copy()
            b = nn.forward(layers, _rng(3).normal(size=(5, 3)), cache=cache)
            assert not np.shares_memory(a, b)
            assert np.array_equal(a, kept)

    def test_backward_before_forward_raises(self):
        layer = nn.DenseLayer.create(2, 2, "relu", _rng())
        with pytest.raises(UsageError):
            layer.backward(np.zeros((1, 2)))

    def test_gradients_before_backward_raises(self):
        with pytest.raises(UsageError):
            nn.gradients([nn.DenseLayer.create(2, 2, "relu", _rng())])

    def test_finite_difference_oracle_100_nets(self):
        worst = run_grad_suite(n_nets=100, rng_seed=42)
        assert worst < FD_REL_TOL, f"worst relative error {worst}"


class TestOptimizers:
    def test_sgd_hand_case(self):
        p = np.array([1.0])
        nn.Sgd(0.1).step([p], [np.array([2.0])])
        np.testing.assert_allclose(p, [0.8])

    def test_adam_first_step_magnitude(self):
        # With fresh moments the bias correction cancels: |step| ~ lr.
        for g in (0.003, 1.0, 250.0):
            p = np.array([0.0])
            nn.Adam(0.01).step([p], [np.array([g])])
            np.testing.assert_allclose(abs(p[0]), 0.01, rtol=1e-4)

    def test_rmsprop_rho_zero_is_sign_step(self):
        p = np.array([0.0, 0.0])
        nn.RmsProp(0.05, rho=0.0).step([p], [np.array([3.0, -7.0])])
        np.testing.assert_allclose(p, [-0.05, 0.05], rtol=1e-6)

    # The steps compute through scratch buffers; the references below are
    # the plain expressions, on parameters of several shapes.
    _SHAPES = [(5, 3), (3,), (7, 2)]

    def test_adam_matches_plain_expressions_bitwise(self):
        rng = _rng(4)
        params = [rng.normal(size=s) for s in self._SHAPES]
        ref = [p.copy() for p in params]
        m = [np.zeros(s) for s in self._SHAPES]
        v = [np.zeros(s) for s in self._SHAPES]
        opt = nn.Adam(0.01)
        for t in range(1, 5):
            grads = [rng.normal(size=s) for s in self._SHAPES]
            opt.step(params, grads)
            for p, g, mi, vi in zip(ref, grads, m, v):
                mi *= 0.9
                mi += (1.0 - 0.9) * g
                vi *= 0.999
                vi += (1.0 - 0.999) * g * g
                m_hat = mi / (1.0 - 0.9**t)
                v_hat = vi / (1.0 - 0.999**t)
                p -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            for p, r in zip(params, ref):
                assert np.array_equal(p, r)

    def test_rmsprop_matches_plain_expressions_bitwise(self):
        rng = _rng(5)
        params = [rng.normal(size=s) for s in self._SHAPES]
        ref = [p.copy() for p in params]
        acc = [np.zeros(s) for s in self._SHAPES]
        opt = nn.RmsProp(0.003)
        for _ in range(4):
            grads = [rng.normal(size=s) for s in self._SHAPES]
            opt.step(params, grads)
            for p, g, a in zip(ref, grads, acc):
                a *= 0.9
                a += (1.0 - 0.9) * g * g
                p -= 0.003 * g / (np.sqrt(a) + 1e-8)
            for p, r in zip(params, ref):
                assert np.array_equal(p, r)

    def test_shape_mismatch_raises(self):
        for opt in (nn.Sgd(0.1), nn.Adam(0.1), nn.RmsProp(0.1)):
            with pytest.raises(ShapeError):
                opt.step([np.zeros(2)], [np.zeros(3)])

    def test_training_determinism(self):
        def train(seed):
            rng = _rng(seed)
            layers = [nn.DenseLayer.create(4, 3, "tanh", rng),
                      nn.DenseLayer.create(3, 1, "sigmoid", rng)]
            opt = nn.Adam(0.01)
            for _ in range(50):
                x = rng.normal(size=(8, 4))
                t = rng.integers(0, 2, size=(8, 1)).astype(float)
                probs = nn.forward(layers, x)
                _, grad = nn.loss_and_grad("binary_cross_entropy", probs, t)
                nn.backward(layers, grad)
                opt.step(nn.parameters(layers), nn.gradients(layers))
            return nn.parameters(layers)

        for a, b in zip(train(7), train(7)):
            assert np.array_equal(a, b)


class TestPrecision:
    """Layers, losses and optimizers compute in the dtype of their arrays."""

    def test_float32_stays_float32(self):
        rng = _rng(8)
        layer = nn.DenseLayer(weights=rng.normal(size=(3, 4)).astype(np.float32),
                              bias=np.zeros(4, np.float32), activation="softmax")
        y = layer.forward(rng.normal(size=(5, 3)))  # float64 input, float32 layer
        target = np.eye(4, dtype=np.float32)[rng.integers(0, 4, size=5)]
        _, grad = nn.loss_and_grad("categorical_cross_entropy", y, target)
        dx = layer.backward(grad)
        opt = nn.RmsProp(0.01)
        opt.step(nn.parameters([layer]), nn.gradients([layer]))
        for array in (y, grad, dx, *nn.parameters([layer]), *nn.gradients([layer]),
                      *opt._acc, opt._scratch):
            assert array.dtype == np.float32

    @pytest.mark.parametrize("z", [np.arange(6).reshape(2, 3), np.ones((2, 3), np.float64)])
    def test_other_inputs_compute_in_float64(self, z):
        assert nn.apply_activation("sigmoid", z).dtype == np.float64
        _, grad = nn.loss_and_grad("binary_cross_entropy", z, np.zeros((2, 3), np.int64))
        assert grad.dtype == np.float64

    def test_float32_gradient_of_an_underflowed_prediction_is_finite(self):
        # 1e-300, the float64 floor of the divisor, is 0 in float32.
        pred = np.array([[0.0, 1.0]], np.float32)
        for target in ([[1.0, 0.0]], [[0.0, 1.0]]):
            _, grad = nn.loss_and_grad("categorical_cross_entropy", pred,
                                       np.array(target, np.float32))
            assert np.all(np.isfinite(grad))


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = _rng().normal(size=(10, 10))
        out, mask = nn.dropout_forward(x, 0.0, _rng(1))
        assert out is x
        np.testing.assert_allclose(mask, 1.0)

    def test_statistics_at_quarter_rate(self):
        rng = _rng(0)
        x = rng.random((100, 1000)) + 0.5  # strictly positive: zeros are drops
        out, _ = nn.dropout_forward(x, 0.25, rng)
        zero_fraction = float(np.mean(out == 0.0))
        assert 0.24 <= zero_fraction <= 0.26
        assert abs(out.mean() / x.mean() - 1.0) < 0.02

    def test_mask_is_the_plain_expression(self):
        x = _rng().normal(size=(7, 5))
        out, mask = nn.dropout_forward(x, 0.3, _rng(2))
        expect = (_rng(2).random(x.shape) >= 0.3) / (1.0 - 0.3)
        assert np.array_equal(mask, expect)
        assert np.array_equal(out, x * expect)

    def test_bad_rate_raises(self):
        with pytest.raises(UsageError):
            nn.dropout_forward(np.zeros((2, 2)), 1.0, _rng())


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = _rng(9)
        layers = [nn.DenseLayer.create(5, 4, "relu", rng),
                  nn.DenseLayer.create(4, 2, "softmax", rng)]
        layers[0].bias[:] = rng.normal(size=4)
        loaded, used = nn.load_network(nn.dump_network(layers))
        assert used == len(nn.dump_network(layers))
        for orig, back in zip(layers, loaded):
            assert orig.activation == back.activation
            assert np.array_equal(orig.weights, back.weights)
            assert np.array_equal(orig.bias, back.bias)

    def test_bad_magic_raises(self):
        with pytest.raises(UsageError):
            nn.load_network(b"XXXX" + b"\x00" * 16)

    def test_bad_version_raises(self):
        blob = bytearray(nn.dump_network([nn.DenseLayer.create(2, 2, "relu", _rng())]))
        blob[4] = 0xFF
        with pytest.raises(UsageError):
            nn.load_network(bytes(blob))


def test_assert_finite_raises_with_step_name():
    with pytest.raises(TrainingError, match="generator update"):
        nn.assert_finite([np.array([1.0, np.nan])], "generator update")
    nn.assert_finite([np.zeros(3)], "ok step")  # no raise


class TestOneBlasThread:
    _CORPUS = [b"MKEY\x01" + bytes(range(k, k + 12)) for k in range(24)]
    _GAN = GanConfig(latent_dim=4, output_len=16, epochs=1, batch_size=8)
    _LSTM = LstmConfig(hidden_width=4, dense_width=4, window=4, epochs=1)

    @pytest.fixture
    def blas_threads(self):
        """The OpenBLAS thread-count getter, with the caller's count set to 2
        for the test and put back after it."""
        controls = nn._blas_thread_controls()
        if controls is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS build with known symbols")
        get, put = controls
        before = get()
        put(2)
        yield get
        put(before)

    def _calls(self):
        gan_model = train_gan(self._CORPUS, self._GAN)
        return {
            "train_gan": (lambda: train_gan(self._CORPUS, self._GAN),
                          lambda: train_gan([], self._GAN)),
            "gan_generate": (lambda: gan_generate(gan_model, 4, rng_seed=0),
                             lambda: gan_generate(gan_model, 0, rng_seed=0)),
            "train_lstm": (lambda: train_lstm(self._CORPUS, self._LSTM),
                           lambda: train_lstm([b"MKEY"], self._LSTM)),
        }

    def test_block_runs_on_one_thread_then_restores(self, blas_threads):
        with nn.one_blas_thread():
            assert blas_threads() == 1
            with nn.one_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_restores_after_an_exception(self, blas_threads):
        with pytest.raises(RuntimeError):
            with nn.one_blas_thread():
                raise RuntimeError
        assert blas_threads() == 2

    @pytest.mark.parametrize("name", ["train_gan", "gan_generate", "train_lstm"])
    def test_model_functions_run_on_one_thread(self, name, blas_threads, monkeypatch):
        run, fail = self._calls()[name]
        seen = []
        forward = nn.DenseLayer.forward

        def recording(layer, *args, **kwargs):
            seen.append(blas_threads())
            return forward(layer, *args, **kwargs)

        monkeypatch.setattr(nn.DenseLayer, "forward", recording)
        run()
        assert seen and set(seen) == {1}
        assert blas_threads() == 2
        with pytest.raises(UsageError):
            fail()
        assert blas_threads() == 2

    def test_import_looks_nothing_up(self):
        code = ("import ganfuzz, ganfuzz.cli, ganfuzz.experiment, ganfuzz.nn as nn; "
                "print(nn._blas_thread_controls.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "0"
