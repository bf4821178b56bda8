import math

import numpy as np
import pytest

from buscast.errors import NonPositiveLearningRate, ShapeMismatch
from buscast.nn_core import (
    Adam,
    CHECKPOINT_VERSION,
    DenseParams,
    LstmLayerParams,
    Nadam,
    OptimizerKind,
    RmsProp,
    Sgd,
    clip_global_norm,
    dense_backward,
    dense_forward,
    glorot_uniform,
    init_dense_params,
    init_lstm_params,
    load_params,
    lstm_backward,
    lstm_forward,
    make_optimizer,
    mse_loss,
    save_params,
    sigmoid,
)


def numerical_gradient(f, arr, eps=1e-5):
    """Central finite differences of scalar f with respect to every entry."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + eps
        up = f()
        arr[idx] = old - eps
        down = f()
        arr[idx] = old
        grad[idx] = (up - down) / (2.0 * eps)
    return grad


def max_relative_error(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))


class TestLstmForward:
    def test_zero_weights_zero_hidden(self):
        params = LstmLayerParams(w=np.zeros((8, 3)), u=np.zeros((8, 2)), b=np.zeros(8))
        x = np.random.default_rng(0).normal(size=(4, 5, 3))
        hs, _ = lstm_forward(params, x)
        assert np.all(hs == 0.0)

    def test_single_cell_matches_hand_computation(self):
        # One cell (D=H=L=B=1) evaluated by hand through the gate equations:
        #   i = sigmoid(0.5*1 + 0.1)   f = sigmoid(-0.3*1 + 0.2)
        #   g = tanh(0.8*1 - 0.1)      o = sigmoid(0.2*1 + 0.3)
        #   c = i*g                    h = o*tanh(c)
        params = LstmLayerParams(
            w=np.array([[0.5], [-0.3], [0.8], [0.2]]),
            u=np.array([[0.4], [-0.7], [0.1], [0.9]]),
            b=np.array([0.1, 0.2, -0.1, 0.3]),
        )
        hs, cache = lstm_forward(params, np.array([[[1.0]]]))
        assert hs[0, 0, 0] == pytest.approx(0.23127139439235833, abs=1e-15)
        # cache.c is (L+1, n, B, H) with c[0] the initial state; c[1] is after step one.
        assert cache.c[1, 0, 0, 0] == pytest.approx(0.39021386657536267, abs=1e-15)

    def test_batch_equivariance(self):
        rng = np.random.default_rng(1)
        params = init_lstm_params(3, 4, rng)
        x = rng.normal(size=(5, 6, 3))
        hs, _ = lstm_forward(params, x)
        perm = np.array([3, 0, 4, 1, 2])
        hs_perm, _ = lstm_forward(params, x[perm])
        assert np.array_equal(hs_perm, hs[perm])

    def test_shape_mismatch(self):
        params = init_lstm_params(3, 4, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            lstm_forward(params, np.zeros((2, 5, 7)))
        with pytest.raises(ShapeMismatch):
            lstm_forward(params, np.zeros((2, 5)))


class TestDebugChecks:
    def test_nan_input_raises_when_enabled_after_import(self, monkeypatch):
        params = init_lstm_params(3, 4, np.random.default_rng(0))
        x = np.zeros((2, 5, 3))
        x[1, 2, 0] = np.nan
        monkeypatch.delenv("BUSCAST_DEBUG", raising=False)
        lstm_forward(params, x)
        monkeypatch.setenv("BUSCAST_DEBUG", "1")
        with pytest.raises(FloatingPointError, match="lstm_forward"):
            lstm_forward(params, x)


class TestLstmBackward:
    def test_zero_upstream_gradient(self):
        rng = np.random.default_rng(2)
        params = init_lstm_params(3, 4, rng)
        x = rng.normal(size=(2, 5, 3))
        hs, cache = lstm_forward(params, x)
        grads = lstm_backward(params, cache, np.zeros_like(hs))
        for g in (grads.dw, grads.du, grads.db, grads.dx):
            assert np.all(g == 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        params = init_lstm_params(3, 4, rng)
        x = rng.normal(size=(2, 5, 3))
        target = rng.normal(size=(2, 5, 4))

        def loss():
            hs, _ = lstm_forward(params, x)
            return mse_loss(hs, target)[0]

        hs, cache = lstm_forward(params, x)
        _, grad_hs = mse_loss(hs, target)
        grads = lstm_backward(params, cache, grad_hs)
        assert max_relative_error(grads.dw, numerical_gradient(loss, params.w)) < 1e-4
        assert max_relative_error(grads.du, numerical_gradient(loss, params.u)) < 1e-4
        assert max_relative_error(grads.db, numerical_gradient(loss, params.b)) < 1e-4
        assert max_relative_error(grads.dx, numerical_gradient(loss, x)) < 1e-4

    def test_duplicated_batch_doubles_sum_loss_gradient(self):
        rng = np.random.default_rng(4)
        params = init_lstm_params(2, 3, rng)
        x1 = rng.normal(size=(1, 4, 2))
        hs1, cache1 = lstm_forward(params, x1)
        upstream = rng.normal(size=hs1.shape)
        g1 = lstm_backward(params, cache1, upstream)

        x2 = np.concatenate([x1, x1])
        hs2, cache2 = lstm_forward(params, x2)
        g2 = lstm_backward(params, cache2, np.concatenate([upstream, upstream]))
        assert np.allclose(g2.dw, 2.0 * g1.dw)
        assert np.allclose(g2.db, 2.0 * g1.db)


class TestDense:
    def test_identity(self):
        params = DenseParams(w=np.eye(3), b=np.zeros(3))
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert np.array_equal(dense_forward(params, x), x)

    def test_bias_only(self):
        params = DenseParams(w=np.zeros((2, 3)), b=np.array([1.0, 2.0]))
        y = dense_forward(params, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.array_equal(y, np.tile([1.0, 2.0], (5, 1)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        params = init_dense_params(4, 3, rng)
        x = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 3))

        def loss():
            return mse_loss(dense_forward(params, x), target)[0]

        _, dpred = mse_loss(dense_forward(params, x), target)
        dw, db, dx = dense_backward(params, x, dpred)
        assert max_relative_error(dw, numerical_gradient(loss, params.w)) < 1e-6
        assert max_relative_error(db, numerical_gradient(loss, params.b)) < 1e-6
        assert max_relative_error(dx, numerical_gradient(loss, x)) < 1e-6


class TestMseLoss:
    def test_perfect_prediction(self):
        pred = np.array([1.0, 2.0])
        loss, grad = mse_loss(pred, pred.copy())
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_hand_arithmetic(self):
        loss, grad = mse_loss(np.array([2.0]), np.array([0.0]))
        assert loss == 4.0
        assert grad.tolist() == [4.0]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        pred = rng.normal(size=12)
        target = rng.normal(size=12)
        perm = rng.permutation(12)
        assert mse_loss(pred, target)[0] == pytest.approx(mse_loss(pred[perm], target[perm])[0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mse_loss(np.zeros(3), np.zeros(4))


class TestOptimizers:
    def test_sgd_step(self):
        theta = {"p": np.array([1.0])}
        opt = Sgd(0.1)
        opt.step(theta, {"p": np.array([2.0])})
        assert theta["p"][0] == pytest.approx(0.8)

    def test_adam_first_step_magnitude(self):
        # Hand evaluation at t=1 with g=1: m_hat=1, v_hat=1, so the update is
        # lr / (sqrt(1) + eps) = 0.000999999990000001
        theta = {"p": np.zeros(3)}
        opt = Adam(0.001)
        opt.step(theta, {"p": np.ones(3)})
        assert np.allclose(theta["p"], -0.000999999990000001, atol=1e-12)

    def test_rmsprop_first_step(self):
        # v = 0.1*g^2 = 0.1; update = lr*g/(sqrt(0.1)+eps)
        theta = {"p": np.array([0.0])}
        opt = RmsProp(0.01)
        opt.step(theta, {"p": np.array([1.0])})
        expected = -0.01 / (math.sqrt(0.1) + 1e-8)
        assert theta["p"][0] == pytest.approx(expected, abs=1e-12)

    def test_nadam_first_step(self):
        # At t=1 with g=1: m_hat = 1, v_hat = 1, and the Nesterov lookahead is
        # b1*m_hat + (1-b1)*g/(1-b1^1) = 0.9 + 1.0 = 1.9
        theta = {"p": np.array([0.0])}
        opt = Nadam(0.001)
        opt.step(theta, {"p": np.array([1.0])})
        m_hat = (1 - 0.9) / (1 - 0.9)
        v_hat = (1 - 0.999) / (1 - 0.999)
        expected = -0.001 * (0.9 * m_hat + 0.1 / (1 - 0.9)) / (math.sqrt(v_hat) + 1e-8)
        assert theta["p"][0] == pytest.approx(expected, rel=1e-9)

    def test_zero_gradient_leaves_parameters(self):
        for kind in (OptimizerKind.SGD, OptimizerKind.RMSPROP, OptimizerKind.ADAM, OptimizerKind.NADAM):
            theta = {"p": np.array([1.5])}
            make_optimizer(kind, 0.01).step(theta, {"p": np.array([0.0])})
            assert theta["p"][0] == pytest.approx(1.5, abs=1e-9)

    def test_nonpositive_learning_rate(self):
        with pytest.raises(NonPositiveLearningRate):
            Sgd(0.0)
        with pytest.raises(NonPositiveLearningRate):
            Adam(-1.0)

    @pytest.mark.parametrize(
        "kind",
        [OptimizerKind.ADADELTA, OptimizerKind.ADAGRAD, OptimizerKind.ADAMAX, OptimizerKind.FTRL],
    )
    def test_candidate_optimizers_not_implemented(self, kind):
        with pytest.raises(NotImplementedError, match=kind.value):
            make_optimizer(kind, 0.01)

    def test_shape_mismatch(self):
        opt = Sgd(0.1)
        with pytest.raises(ShapeMismatch):
            opt.step({"p": np.zeros(3)}, {"p": np.zeros(4)})
        with pytest.raises(ShapeMismatch):
            opt.step({"p": np.zeros(3)}, {"q": np.zeros(3)})

    def test_loss_descent_on_quadratic_fit(self):
        # Linear model under MSE is a quadratic bowl; small-step SGD must
        # descend essentially monotonically.
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 1))
        target = 2.0 * x + 1.0
        params = init_dense_params(1, 1, rng)
        opt = Sgd(0.05)
        losses = []
        for _ in range(100):
            pred = dense_forward(params, x)
            loss, dpred = mse_loss(pred, target)
            losses.append(loss)
            dw, db, _ = dense_backward(params, x, dpred)
            opt.step({"w": params.w, "b": params.b}, {"w": dw, "b": db})
        decreases = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
        assert decreases >= 95


class TestClip:
    def test_norm_reduced(self):
        grads = {"a": np.array([3.0, 4.0])}
        norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)

    def test_small_gradients_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        clip_global_norm(grads, 5.0)
        assert grads["a"].tolist() == [0.3, 0.4]


class TestInit:
    def test_deterministic(self):
        a = init_lstm_params(3, 4, np.random.default_rng(9))
        b = init_lstm_params(3, 4, np.random.default_rng(9))
        assert np.array_equal(a.w, b.w) and np.array_equal(a.u, b.u) and np.array_equal(a.b, b.b)

    def test_forget_gate_bias_is_one(self):
        params = init_lstm_params(3, 4, np.random.default_rng(0))
        assert np.all(params.b[4:8] == 1.0)
        assert np.all(params.b[:4] == 0.0) and np.all(params.b[8:] == 0.0)

    def test_glorot_bound(self):
        rng = np.random.default_rng(0)
        w = glorot_uniform(rng, 20, 12)
        limit = math.sqrt(6.0 / 32.0)
        assert np.all(np.abs(w) <= limit)


class TestSigmoid:
    def test_extremes_are_stable(self):
        z = np.array([-1e6, -50.0, 0.0, 50.0, 1e6])
        out = sigmoid(z)
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[-1] == 1.0 and out[2] == 0.5

    def test_matches_definition(self):
        z = np.linspace(-20, 20, 101)
        assert np.allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), atol=1e-12)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        named = [("w", rng.normal(size=(3, 4))), ("b", rng.normal(size=5))]
        path = tmp_path / "params.ckpt"
        save_params(path, {"seed": 1, "note": "x"}, named)
        header, params = load_params(path)
        assert header["format_version"] == CHECKPOINT_VERSION
        assert header["seed"] == 1
        for name, arr in named:
            assert params[name].tobytes() == arr.tobytes()

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"garbage")
        from buscast.errors import CheckpointError

        with pytest.raises(CheckpointError):
            load_params(path)
