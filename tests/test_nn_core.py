import contextlib
import json
import math
import os
import struct

import numpy as np
import pytest

from buscast import nn_core
from buscast.data_ingest import RouteDataset
from buscast.errors import CheckpointError, MalformedRow, NonPositiveLearningRate, ShapeMismatch
from buscast.nn_core import (
    Adam,
    CHECKPOINT_VERSION,
    DenseParams,
    LstmLayerParams,
    Nadam,
    OptimizerKind,
    RmsProp,
    Sgd,
    branched_lstm_backward,
    branched_lstm_forward,
    clip_global_norm,
    dense_backward,
    dense_forward,
    glorot_uniform,
    init_dense_params,
    init_lstm_layers,
    load_params,
    make_optimizer,
    mse_loss,
    save_params,
)
from lstm_oracle import oracle_forward


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


def one_branch_layer(input_size, hidden_size, rng):
    """A single-branch (n = 1) layer drawn as a lone layer of that size."""
    return init_lstm_layers(1, input_size, hidden_size, 1, rng)[0]


def run_layer(params, x, keep_cache=True):
    return branched_lstm_forward(params.w, params.u, params.b, x, keep_cache=keep_cache)


class TestLstmForward:
    def test_zero_weights_zero_hidden(self):
        params = LstmLayerParams(w=np.zeros((1, 8, 3)), u=np.zeros((1, 8, 2)), b=np.zeros((1, 8)))
        x = np.random.default_rng(0).normal(size=(1, 4, 5, 3))
        hs, _ = run_layer(params, x)
        assert np.all(hs == 0.0)

    def test_single_cell_matches_hand_computation(self):
        # One cell (D=H=L=B=1) evaluated by hand through the gate equations:
        #   i = sigmoid(0.5*1 + 0.1)   f = sigmoid(-0.3*1 + 0.2)
        #   g = tanh(0.8*1 - 0.1)      o = sigmoid(0.2*1 + 0.3)
        #   c = i*g                    h = o*tanh(c)
        params = LstmLayerParams(
            w=np.array([[[0.5], [-0.3], [0.8], [0.2]]]),
            u=np.array([[[0.4], [-0.7], [0.1], [0.9]]]),
            b=np.array([[0.1, 0.2, -0.1, 0.3]]),
        )
        hs, cache = run_layer(params, np.array([[[[1.0]]]]))
        assert hs[0, 0, 0, 0] == pytest.approx(0.23127139439235833, abs=1e-15)
        # cache.c is (L+1, n, B, H) with c[0] the initial state; c[1] is after step one.
        assert cache.c[1, 0, 0, 0] == pytest.approx(0.39021386657536267, abs=1e-15)

    def test_batch_equivariance(self):
        rng = np.random.default_rng(1)
        params = one_branch_layer(3, 4, rng)
        x = rng.normal(size=(1, 5, 6, 3))
        hs, _ = run_layer(params, x)
        perm = np.array([3, 0, 4, 1, 2])
        hs_perm, _ = run_layer(params, x[:, perm])
        assert np.array_equal(hs_perm, hs[:, perm])

    def test_shape_mismatch(self):
        params = one_branch_layer(3, 4, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            run_layer(params, np.zeros((1, 2, 5, 7)))
        with pytest.raises(ShapeMismatch):
            run_layer(params, np.zeros((2, 5)))
        with pytest.raises(ShapeMismatch):
            run_layer(params, np.zeros((2, 2, 5, 3)))


class TestDebugChecks:
    def test_nan_input_raises_when_enabled_after_import(self, monkeypatch):
        params = one_branch_layer(3, 4, np.random.default_rng(0))
        x = np.zeros((1, 2, 5, 3))
        x[0, 1, 2, 0] = np.nan
        # keep_cache=False is the forward-only pass of validation, evaluate and predict.
        for keep_cache in (True, False):
            monkeypatch.delenv("BUSCAST_DEBUG", raising=False)
            run_layer(params, x, keep_cache)
            monkeypatch.setenv("BUSCAST_DEBUG", "1")
            with pytest.raises(FloatingPointError, match="lstm_forward"):
                run_layer(params, x, keep_cache)


class TestLstmBackward:
    def test_zero_upstream_gradient(self):
        rng = np.random.default_rng(2)
        params = one_branch_layer(3, 4, rng)
        x = rng.normal(size=(1, 2, 5, 3))
        hs, cache = run_layer(params, x)
        grads = branched_lstm_backward(params.w, params.u, cache, np.zeros_like(hs))
        for g in (grads.dw, grads.du, grads.db, grads.dx):
            assert np.all(g == 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        params = one_branch_layer(3, 4, rng)
        x = rng.normal(size=(1, 2, 5, 3))
        target = rng.normal(size=(1, 2, 5, 4))

        def loss():
            hs, _ = run_layer(params, x)
            return mse_loss(hs, target)[0]

        hs, cache = run_layer(params, x)
        _, grad_hs = mse_loss(hs, target)
        grads = branched_lstm_backward(params.w, params.u, cache, grad_hs)
        assert max_relative_error(grads.dw, numerical_gradient(loss, params.w)) < 1e-4
        assert max_relative_error(grads.du, numerical_gradient(loss, params.u)) < 1e-4
        assert max_relative_error(grads.db, numerical_gradient(loss, params.b)) < 1e-4
        assert max_relative_error(grads.dx, numerical_gradient(loss, x)) < 1e-4

    def test_duplicated_batch_doubles_sum_loss_gradient(self):
        rng = np.random.default_rng(4)
        params = one_branch_layer(2, 3, rng)
        x1 = rng.normal(size=(1, 1, 4, 2))
        hs1, cache1 = run_layer(params, x1)
        upstream = rng.normal(size=hs1.shape)
        g1 = branched_lstm_backward(params.w, params.u, cache1, upstream)

        x2 = np.concatenate([x1, x1], axis=1)
        hs2, cache2 = run_layer(params, x2)
        g2 = branched_lstm_backward(params.w, params.u, cache2, np.concatenate([upstream, upstream], axis=1))
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
        for make, rate in ((Sgd, 0.0), (Adam, -1.0), (Sgd, math.nan), (Adam, math.inf)):
            with pytest.raises(NonPositiveLearningRate):
                make(rate)

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

    @pytest.mark.parametrize("seed", range(6))
    def test_stacked_groups_match_per_branch_arrays(self, seed):
        # A branched model's stacked gradients clip to the same bits as the
        # same arrays held one per branch, summed branch by branch.
        rng = np.random.default_rng(seed)
        n, hidden, dim, layers = (int(v) for v in rng.integers(1, [6, 130, 40, 3], endpoint=True))
        stacked = {"head/w": rng.normal(size=(n, n * hidden)), "head/b": rng.normal(size=n)}
        for l in reversed(range(layers)):
            size = dim if l == 0 else hidden
            stacked[f"layer{l}/w"] = rng.normal(size=(n, 4 * hidden, size))
            stacked[f"layer{l}/u"] = rng.normal(size=(n, 4 * hidden, hidden))
            stacked[f"layer{l}/b"] = rng.normal(size=(n, 4 * hidden))
        per_branch = {"head/w": stacked["head/w"].copy(), "head/b": stacked["head/b"].copy()}
        for l in reversed(range(layers)):
            for b in range(n):
                for k in "wub":
                    per_branch[f"branch{b}/layer{l}/{k}"] = stacked[f"layer{l}/{k}"][b].copy()
        stacks = [tuple(f"layer{l}/{k}" for k in "wub") for l in reversed(range(layers))]

        norm = clip_global_norm(stacked, 1e-3, stacks)
        assert norm == clip_global_norm(per_branch, 1e-3)
        for name, arr in per_branch.items():
            if name.startswith("branch"):
                b, l, k = name.split("/")
                got = stacked[f"{l}/{k}"][int(b[len("branch"):])]
            else:
                got = stacked[name]
            assert got.tobytes() == arr.tobytes()


class TestInit:
    def test_deterministic(self):
        a = init_lstm_layers(2, 3, 4, 2, np.random.default_rng(9))
        b = init_lstm_layers(2, 3, 4, 2, np.random.default_rng(9))
        for la, lb in zip(a, b, strict=True):
            assert np.array_equal(la.w, lb.w) and np.array_equal(la.u, lb.u) and np.array_equal(la.b, lb.b)

    def test_draws_branch_by_branch(self):
        # Branch-major draws (each branch's layers in turn, W before U) keep
        # every seeded initial weight of the per-branch layout.
        layers = init_lstm_layers(3, 5, 4, 2, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for b in range(3):
            for l, size in enumerate((5, 4)):
                assert layers[l].w[b].tobytes() == glorot_uniform(rng, 16, size).tobytes()
                assert layers[l].u[b].tobytes() == glorot_uniform(rng, 16, 4).tobytes()
        assert [layer.w.shape for layer in layers] == [(3, 16, 5), (3, 16, 4)]

    def test_forget_gate_bias_is_one(self):
        params = one_branch_layer(3, 4, np.random.default_rng(0))
        assert params.b.shape == (1, 16)
        assert np.all(params.b[:, 4:8] == 1.0)
        assert np.all(params.b[:, :4] == 0.0) and np.all(params.b[:, 8:] == 0.0)

    def test_glorot_bound(self):
        rng = np.random.default_rng(0)
        w = glorot_uniform(rng, 20, 12)
        limit = math.sqrt(6.0 / 32.0)
        assert np.all(np.abs(w) <= limit)


def gate_activations(z):
    """Run one LSTM step whose pre-activation is ``z`` in every gate; return gates (4, H) and the oracle's."""
    hidden = z.size
    w, u = np.zeros((1, 4 * hidden, 1)), np.zeros((1, 4 * hidden, hidden))
    b = np.tile(z, 4)[None]
    x = np.zeros((1, 1, 1, 1))
    hs, cache = branched_lstm_forward(w, u, b, x)
    _, (_, oracle_gates, _, _, _) = oracle_forward(w, u, b, x)
    assert np.all(np.isfinite(hs))
    return cache.gates[0, :, 0, 0], oracle_gates[0, 0, 0].reshape(4, hidden)


class TestSigmoid:
    """The core's sigmoid gates (i, f, o), computed through its fused tanh."""

    def test_extremes_are_stable(self):
        gates, oracle = gate_activations(np.array([-1e6, -50.0, 0.0, 50.0, 1e6]))
        assert np.all(np.isfinite(gates))
        for out in gates[[0, 1, 3]]:
            assert out[0] == 0.0 and out[-1] == 1.0 and out[2] == 0.5
        assert gates.tobytes() == oracle.tobytes()

    def test_matches_definition(self):
        z = np.linspace(-20, 20, 101)
        gates, _ = gate_activations(z)
        for out in gates[[0, 1, 3]]:
            assert np.allclose(out, 1.0 / (1.0 + np.exp(-z)), atol=1e-12)
        assert np.allclose(gates[2], np.tanh(z), atol=1e-12)


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

    def test_integer_and_bool_arrays_keep_their_dtype(self, tmp_path):
        named = [("w", np.ones((2, 3))), ("n", np.arange(4)), ("m", np.array([True, False]))]
        path = tmp_path / "params.ckpt"
        save_params(path, {}, named)
        header, params = load_params(path)
        assert header["params"] == [["w", [2, 3]], ["n", [4], "<i8"], ["m", [2], "|b1"]]
        for name, arr in named:
            assert params[name].dtype == arr.dtype and params[name].tobytes() == arr.tobytes()
            assert params[name].flags.writeable


def _saved_container(tmp_path) -> tuple:
    """A two-array checkpoint's path, its header and the bytes after the header."""
    path = tmp_path / "params.ckpt"
    save_params(path, {"note": "x"}, [("w", np.ones((4, 3))), ("b", np.ones(5))])
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<Q", raw, 4)
    return path, json.loads(raw[12 : 12 + length]), raw[12 + length :]


def _write_container(path, header: dict, body: bytes) -> None:
    blob = json.dumps(header).encode()
    path.write_bytes(b"BCKP" + struct.pack("<Q", len(blob)) + blob + body)


@pytest.mark.parametrize("version", [2, "1", True, None])
def test_other_container_versions_are_refused(tmp_path, version):
    path, header, body = _saved_container(tmp_path)
    _write_container(path, {**header, "format_version": version}, body)
    with pytest.raises(CheckpointError, match=f"unsupported container version {version!r}$"):
        load_params(path)


def test_bytes_after_the_last_array_are_refused(tmp_path):
    path, header, body = _saved_container(tmp_path)
    end = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"garbage!")
    with pytest.raises(CheckpointError, match=f"the arrays end at byte {end}, the file at byte {end + 8}$"):
        load_params(path)


def test_cut_short_array_is_named(tmp_path):
    path, header, body = _saved_container(tmp_path)
    _write_container(path, header, body[:-1])
    with pytest.raises(CheckpointError, match=r"truncated payload at b \(39 of 40 bytes\)$"):
        load_params(path)


def test_array_listed_twice_is_refused(tmp_path):
    path, header, body = _saved_container(tmp_path)
    _write_container(path, {**header, "params": [["w", [4, 3]], ["w", [5]]]}, body)
    with pytest.raises(CheckpointError, match="malformed parameter list$"):
        load_params(path)


class _Killed(BaseException):
    """The process dying mid-write: no ``finally`` of the writer runs."""


class _DyingFile:
    """A binary file that takes ``budget`` more bytes, then dies."""

    def __init__(self, fh, budget: int):
        self.fh, self.budget = fh, budget

    def write(self, data) -> int:
        kept = bytes(data)[: self.budget]
        self.budget -= self.fh.write(kept)
        if len(kept) < len(data):
            raise _Killed
        return len(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)


def _killed_after(budget: int):
    """A stand-in for ``write_output`` that writes over the file in place and dies after ``budget`` bytes."""

    @contextlib.contextmanager
    def write_output(path, binary=False):
        with open(os.open(path, os.O_WRONLY), "wb", buffering=0) as fh:
            yield _DyingFile(fh, budget)

    return write_output


def test_a_rewrite_killed_midway_is_no_checkpoint(tmp_path, monkeypatch):
    """A rewrite with the same shapes, killed after any byte it wrote, is refused: the new bytes over
    the old file's tail have the length the new header asks for, so only the magic, written last, tells."""
    rng = np.random.default_rng(3)
    old, new = ([("w", rng.normal(size=(4, 3))), ("b", rng.normal(size=5))] for _ in range(2))
    old, new = list(old), list(new)
    path = tmp_path / "params.ckpt"
    save_params(path, {"note": "x"}, new)
    size = path.stat().st_size
    for budget in range(1, size + 4):
        save_params(path, {"note": "x"}, old)
        with monkeypatch.context() as m, pytest.raises(_Killed):
            m.setattr(nn_core, "write_output", _killed_after(budget))
            save_params(path, {"note": "x"}, new)
        assert path.stat().st_size == size
        with pytest.raises(CheckpointError, match="not a buscast checkpoint$"):
            load_params(path)
    monkeypatch.setattr(nn_core, "write_output", _killed_after(size + 4))
    save_params(path, {"note": "x"}, new)
    assert all(arr.tobytes() == dict(new)[name].tobytes() for name, arr in load_params(path)[1].items())


def test_a_cache_rewrite_killed_before_its_magic_is_refused(tmp_path, monkeypatch, small_dataset):
    path = tmp_path / "dataset.json"
    small_dataset.save(path)
    monkeypatch.setattr(nn_core, "write_output", _killed_after(path.stat().st_size))
    with pytest.raises(_Killed):
        small_dataset.save(path)
    with pytest.raises(MalformedRow, match="malformed dataset cache"):
        RouteDataset.load(path)
