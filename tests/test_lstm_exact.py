"""The fused-gate LSTM core reproduces the reference implementation bit for bit."""

import numpy as np
import pytest

from buscast.models import MethodId, build_model, method_spec
from buscast.nn_core import (
    OptimizerKind,
    branched_lstm_backward,
    branched_lstm_forward,
    dense_backward,
    dense_forward,
    init_lstm_params,
    mse_loss,
)
from buscast.tuning import HyperParams
from lstm_oracle import oracle_backward, oracle_forward


def assert_bit_identical(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    # array_equal treats -0.0 and 0.0 as equal; the bytes do not.
    assert actual.tobytes() == expected.tobytes()


def branched_params(rng, n, dim, hidden):
    layers = [init_lstm_params(dim, hidden, rng) for _ in range(n)]
    w = np.stack([p.w for p in layers])
    u = np.stack([p.u for p in layers])
    # Random biases on top of the forget-gate ones, so every gate's bias matters.
    b = np.stack([p.b for p in layers]) + rng.normal(scale=0.5, size=(n, 4 * hidden))
    return w, u, b


@pytest.mark.parametrize(
    "n, batch, steps, dim, hidden",
    [(5, 8, 6, 37, 16), (5, 4, 6, 1, 16), (1, 8, 6, 1, 16), (2, 3, 5, 7, 64)],
)
def test_forward_and_backward_match_oracle(n, batch, steps, dim, hidden):
    rng = np.random.default_rng(n * 1000 + hidden)
    w, u, b = branched_params(rng, n, dim, hidden)
    x = rng.normal(size=(n, batch, steps, dim))
    grad_hs = rng.normal(size=(n, batch, steps, hidden))

    hs, cache = branched_lstm_forward(w, u, b, x)
    hs_ref, cache_ref = oracle_forward(w, u, b, x)
    assert_bit_identical(hs, hs_ref)

    grads = branched_lstm_backward(w, u, cache, grad_hs)
    dw, du, db, dx = oracle_backward(w, u, cache_ref, grad_hs)
    assert_bit_identical(grads.dw, dw)
    assert_bit_identical(grads.du, du)
    assert_bit_identical(grads.db, db)
    assert_bit_identical(grads.dx, dx)

    skipped = branched_lstm_backward(w, u, cache, grad_hs, need_dx=False)
    assert skipped.dx is None
    assert_bit_identical(skipped.dw, dw)
    assert_bit_identical(skipped.du, du)
    assert_bit_identical(skipped.db, db)


def test_all_zero_input_matches_oracle():
    rng = np.random.default_rng(7)
    n, batch, steps, dim, hidden = 5, 4, 6, 37, 16
    w, u, b = branched_params(rng, n, dim, hidden)
    x = np.zeros((n, batch, steps, dim))
    grad_hs = rng.normal(size=(n, batch, steps, hidden))

    hs, cache = branched_lstm_forward(w, u, b, x)
    hs_ref, cache_ref = oracle_forward(w, u, b, x)
    assert_bit_identical(hs, hs_ref)
    grads = branched_lstm_backward(w, u, cache, grad_hs)
    for got, want in zip((grads.dw, grads.du, grads.db, grads.dx), oracle_backward(w, u, cache_ref, grad_hs)):
        assert_bit_identical(got, want)


def oracle_forward_backward(model, xs, target):
    """LstmRegressor.forward_backward written out over the oracle core."""
    n, hidden = model.n_branches, model.hidden_size
    seq = np.stack(xs)
    caches = []
    for l in range(model.n_layers):
        w = np.stack([stack[l].w for stack in model.branches])
        u = np.stack([stack[l].u for stack in model.branches])
        b = np.stack([stack[l].b for stack in model.branches])
        seq, cache = oracle_forward(w, u, b, seq)
        caches.append((w, u, cache))
    batch, steps = seq.shape[1], seq.shape[2]
    concat = seq[:, :, -1].transpose(1, 0, 2).reshape(batch, n * hidden)
    loss, dpred = mse_loss(dense_forward(model.head, concat), target)
    dw_head, db_head, dconcat = dense_backward(model.head, concat, dpred)
    grads = {"head/w": dw_head, "head/b": db_head}
    grad_seq = np.zeros((n, batch, steps, hidden))
    grad_seq[:, :, -1] = dconcat.reshape(batch, n, hidden).transpose(1, 0, 2)
    for l in reversed(range(model.n_layers)):
        w, u, cache = caches[l]
        dw, du, db, grad_seq = oracle_backward(w, u, cache, grad_seq)
        for br in range(n):
            grads[f"branch{br}/layer{l}/w"] = dw[br]
            grads[f"branch{br}/layer{l}/u"] = du[br]
            grads[f"branch{br}/layer{l}/b"] = db[br]
    return loss, grads


def test_two_layer_model_gradients_match_oracle():
    hp = HyperParams(8, 6, 16, 2, 0.01, OptimizerKind.ADAM)
    model = build_model(method_spec(MethodId.D), hp, n_stops=5, seed=3)
    rng = np.random.default_rng(3)
    xs = [rng.normal(size=(8, hp.sequence_length, model.input_size)) for _ in range(model.n_branches)]
    target = rng.normal(size=(8, model.n_branches))

    loss, grads = model.forward_backward(xs, target)
    loss_ref, grads_ref = oracle_forward_backward(model, xs, target)
    assert loss == loss_ref
    assert grads.keys() == grads_ref.keys()
    for name in grads_ref:
        assert_bit_identical(grads[name], grads_ref[name])
