"""The fused-gate LSTM core reproduces the reference implementation bit for bit."""

import itertools
from datetime import date, timedelta

import numpy as np
import pytest

from buscast.features import AlignedWindows, ScalerParams, ScalerSet, subset_by_targets
from buscast.models import LstmForecaster, Member, MethodId, build_model, method_spec, predict_next_service
from buscast.nn_core import (
    _MIN_ROW_PROJECTION,
    BufferPool,
    OptimizerKind,
    branched_lstm_backward,
    branched_lstm_forward,
    branched_lstm_forward_windows,
    clip_global_norm,
    dense_backward,
    dense_forward,
    init_lstm_layers,
    mse_loss,
)
from buscast.tuning import HyperParams
from lstm_oracle import oracle_backward, oracle_forward
from window_oracle import as_windows, shared_covariates, slots_of


def assert_bit_identical(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    # array_equal treats -0.0 and 0.0 as equal; the bytes do not.
    assert actual.tobytes() == expected.tobytes()


def assert_cache_free_matches(w, u, b, x, hs_ref):
    """The forward-only mode gives the oracle's hidden sequence and no cache."""
    hs, cache = branched_lstm_forward(w, u, b, x, keep_cache=False)
    assert cache is None
    assert_bit_identical(hs, hs_ref)


def branched_params(rng, n, dim, hidden):
    layer = init_lstm_layers(n, dim, hidden, 1, rng)[0]
    # Random biases on top of the forget-gate ones, so every gate's bias matters.
    b = layer.b + rng.normal(scale=0.5, size=(n, 4 * hidden))
    return layer.w, layer.u, b


# (5, 64, 7, 37, 16) runs its backward in blocks of 3, 3 and 1 steps.
ORACLE_SHAPES = [(5, 8, 6, 37, 16), (5, 4, 6, 1, 16), (1, 8, 6, 1, 16), (2, 3, 5, 7, 64), (5, 64, 7, 37, 16)]


@pytest.mark.parametrize("n, batch, steps, dim, hidden", ORACLE_SHAPES)
def test_forward_and_backward_match_oracle(n, batch, steps, dim, hidden):
    rng = np.random.default_rng(n * 1000 + hidden)
    w, u, b = branched_params(rng, n, dim, hidden)
    x = rng.normal(size=(n, batch, steps, dim))
    grad_hs = rng.normal(size=(n, batch, steps, hidden))

    hs, cache = branched_lstm_forward(w, u, b, x)
    hs_ref, cache_ref = oracle_forward(w, u, b, x)
    assert_bit_identical(hs, hs_ref)
    assert_cache_free_matches(w, u, b, x, hs_ref)

    grads = branched_lstm_backward(w, u, cache, grad_hs)
    dw, du, db, dx = oracle_backward(w, u, cache_ref, grad_hs)
    assert_bit_identical(grads.dw, dw)
    assert_bit_identical(grads.du, du)
    assert_bit_identical(grads.db, db)
    assert_bit_identical(grads.dx, dx)

    # A backward pass spends its cache, so the second one needs a fresh forward pass.
    _, cache = branched_lstm_forward(w, u, b, x)
    skipped = branched_lstm_backward(w, u, cache, grad_hs, need_dx=False)
    assert skipped.dx is None
    assert_bit_identical(skipped.dw, dw)
    assert_bit_identical(skipped.du, du)
    assert_bit_identical(skipped.db, db)


@pytest.mark.parametrize("n, batch, steps, dim, hidden", ORACLE_SHAPES)
def test_last_step_gradient_matches_dense_one(n, batch, steps, dim, hidden):
    # An (n, B, H) gradient enters at the last step only, with the bits of
    # the zero-filled (n, B, L, H) gradient that holds it at the last step.
    rng = np.random.default_rng(n * 100 + batch)
    w, u, b = branched_params(rng, n, dim, hidden)
    x = rng.normal(size=(n, batch, steps, dim))
    last = rng.normal(size=(n, batch, hidden))
    dense = np.zeros((n, batch, steps, hidden))
    dense[:, :, -1] = last

    want = oracle_backward(w, u, oracle_forward(w, u, b, x)[1], dense)
    for grad_hs in (last, dense):
        grads = branched_lstm_backward(w, u, branched_lstm_forward(w, u, b, x)[1], grad_hs)
        for got, ref in zip((grads.dw, grads.du, grads.db, grads.dx), want):
            assert_bit_identical(got, ref)


def test_spent_cache_is_refused_until_a_forward_pass_refills_it():
    rng = np.random.default_rng(11)
    n, batch, steps, dim, hidden = 2, 4, 5, 7, 16
    w, u, b = branched_params(rng, n, dim, hidden)
    x = rng.normal(size=(n, batch, steps, dim))
    grad_hs = rng.normal(size=(n, batch, hidden))
    cache = BufferPool().lstm_cache(0, x, hidden)

    branched_lstm_forward(w, u, b, x, keep_cache=cache)
    first = branched_lstm_backward(w, u, cache, grad_hs)
    with pytest.raises(RuntimeError, match="spent by a backward pass"):
        branched_lstm_backward(w, u, cache, grad_hs)
    # The same buffers, filled again, give the same bits.
    branched_lstm_forward(w, u, b, x, keep_cache=cache)
    again = branched_lstm_backward(w, u, cache, grad_hs)
    for got, ref in zip((again.dw, again.du, again.db, again.dx), (first.dw, first.du, first.db, first.dx)):
        assert_bit_identical(got, ref)


def test_all_zero_input_matches_oracle():
    rng = np.random.default_rng(7)
    n, batch, steps, dim, hidden = 5, 4, 6, 37, 16
    w, u, b = branched_params(rng, n, dim, hidden)
    x = np.zeros((n, batch, steps, dim))
    grad_hs = rng.normal(size=(n, batch, steps, hidden))

    hs, cache = branched_lstm_forward(w, u, b, x)
    hs_ref, cache_ref = oracle_forward(w, u, b, x)
    assert_bit_identical(hs, hs_ref)
    assert_cache_free_matches(w, u, b, x, hs_ref)
    grads = branched_lstm_backward(w, u, cache, grad_hs)
    for got, want in zip((grads.dw, grads.du, grads.db, grads.dx), oracle_backward(w, u, cache_ref, grad_hs)):
        assert_bit_identical(got, want)


def oracle_forward_backward(model, xs, target):
    """LstmRegressor.forward_backward written out over the oracle core.

    Returns the head output, the loss and the gradients. The gradients come
    back one array per branch and layer, in the order the per-branch
    parameter layout produced them.
    """
    n, hidden = model.n_branches, model.hidden_size
    seq = np.stack(xs)
    caches = []
    for layer in model.layers:
        seq, cache = oracle_forward(layer.w, layer.u, layer.b, seq)
        caches.append((layer.w, layer.u, cache))
    batch, steps = seq.shape[1], seq.shape[2]
    concat = seq[:, :, -1].transpose(1, 0, 2).reshape(batch, n * hidden)
    pred = dense_forward(model.head, concat)
    loss, dpred = mse_loss(pred, target)
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
    return pred, loss, grads


def test_two_layer_model_gradients_match_oracle():
    # At B = 64 and L = 7 each backward runs blocks of 3, 3 and 1 steps.
    for batch, steps in ((8, 6), (64, 7)):
        for buffers in (None, BufferPool()):
            _assert_two_layer_model_matches_oracle(batch, steps, buffers)


def _assert_two_layer_model_matches_oracle(batch, steps, buffers):
    hp = HyperParams(batch, steps, 16, 2, 0.01, OptimizerKind.ADAM)
    model = build_model(method_spec(MethodId.D), hp, n_stops=5, seed=3)
    rng = np.random.default_rng(3)
    xs = [rng.normal(size=(batch, steps, model.layers[0].w.shape[2])) for _ in range(model.n_branches)]
    xs = shared_covariates(xs)  # the forward-only path reads windows of one route
    target = rng.normal(size=(batch, model.n_branches))

    loss, grads = model.forward_backward(np.stack(xs), target, buffers)
    pred_ref, loss_ref, grads_ref = oracle_forward_backward(model, xs, target)
    assert loss == loss_ref
    # The forward-only path, which keeps no cache, predicts the same bits.
    assert_bit_identical(model.forward(as_windows(xs)), pred_ref)

    def stacked_grad(name):
        # "branch{b}/layer{l}/{k}" is branch b of the stacked "layer{l}/{k}".
        if not name.startswith("branch"):
            return grads[name]
        branch, layer, k = name.split("/")
        return grads[f"{layer}/{k}"][int(branch[len("branch"):])]

    assert set(grads) == {"head/w", "head/b"} | {f"layer{l}/{k}" for l in range(2) for k in "wub"}
    assert len(grads_ref) == 2 + 3 * 2 * model.n_branches
    for name in grads_ref:
        assert_bit_identical(stacked_grad(name), grads_ref[name])

    # Clipping that fires scales both layouts to the same bits.
    max_norm = 1e-3
    norm = clip_global_norm(grads, max_norm, model.grad_stacks)
    assert norm > max_norm
    assert norm == clip_global_norm(grads_ref, max_norm)
    for name in grads_ref:
        assert_bit_identical(stacked_grad(name), grads_ref[name])


# ---------------------------------------------------------------------------
# forward-only passes over windows of encoded rows


def _row_shapes():
    """(n, B, L, D, H) over the benchmark's and tuning grid's sizes, within a few seconds' budget."""
    grid = itertools.product((1, 5), (1, 16, 128, 512), (26, 182), (1, 37), (16, 64, 256))
    return [shape for shape in grid if shape[0] * shape[1] * shape[2] * shape[4] <= 5 * 512 * 26 * 16]


# Below the grid: row projections so small (rows read x 4H) that OpenBLAS
# gives their rows other bits than the windowed projection's; at
# (3, 4, 6, 37, 4) the windowed one is that small too, and L = 1 reads one
# row per window.
SMALL_SHAPES = [(5, 4, 26, 37, 8), (3, 4, 6, 37, 4), (2, 40, 6, 37, 4), (5, 3, 1, 37, 4)]


def assert_window_pass_exact(w, u, b, rows, starts, look_back):
    """The window pass gives the gathered pass's and the oracle's hidden sequence, byte for byte."""
    hs = branched_lstm_forward_windows(w, u, b, rows, starts, look_back)
    x = np.take(rows, starts[:, None] + np.arange(look_back), axis=1)
    gathered, _ = branched_lstm_forward(w, u, b, x, keep_cache=False)
    assert_bit_identical(hs, gathered)
    assert_bit_identical(hs, oracle_forward(w, u, b, x)[0])


def _stride_one_case(n, batch, steps, dim, hidden):
    """Layer parameters and stride-1 windows, as training splits hold them; 3 rows before and after go unread."""
    rng = np.random.default_rng(batch * 1000 + steps + dim + hidden)
    rows = rng.normal(size=(n, batch + steps + 5, dim))
    return (*branched_params(rng, n, dim, hidden), rows, np.arange(batch) + 3, steps)


@pytest.mark.parametrize("n, batch, steps, dim, hidden", _row_shapes())
def test_window_pass_matches_oracle(n, batch, steps, dim, hidden):
    assert_window_pass_exact(*_stride_one_case(n, batch, steps, dim, hidden))


@pytest.mark.parametrize("debug", ["0", "1"], ids=["plain", "debug"])
@pytest.mark.parametrize("n, batch, steps, dim, hidden", SMALL_SHAPES)
def test_small_window_pass_matches_oracle(n, batch, steps, dim, hidden, debug, monkeypatch):
    monkeypatch.setenv("BUSCAST_DEBUG", debug)
    assert_window_pass_exact(*_stride_one_case(n, batch, steps, dim, hidden))


def _starts(layout: str, batch: int, rng) -> np.ndarray:
    """Window starts: consecutive ones, one gap, every other row, or a shuffle of consecutive rows."""
    consecutive = np.arange(batch) + 2
    return {
        "consecutive": consecutive,
        "one-gap": consecutive + (consecutive >= batch // 2 + 2),
        "every-other": 2 * consecutive,
        "shuffled": rng.permutation(consecutive),
    }[layout].astype(np.intp)


@pytest.mark.parametrize("layout", ["consecutive", "one-gap", "every-other", "shuffled"])
@pytest.mark.parametrize("n, batch, steps, dim, hidden", [(5, 512, 26, 37, 16), (5, 64, 182, 37, 16), (2, 40, 6, 37, 4)])
def test_consecutive_and_gapped_starts_match_oracle(layout, n, batch, steps, dim, hidden):
    # Consecutive, gapped and shuffled starts all gather the row projections
    # of their steps. The last shape is below the row-projection floor.
    rng = np.random.default_rng(batch + steps)
    rows = rng.normal(size=(n, 2 * batch + steps + 4, dim))
    w, u, b = branched_params(rng, n, dim, hidden)
    assert_window_pass_exact(w, u, b, rows, _starts(layout, batch, rng), steps)


@pytest.mark.parametrize("dim", [1, 37])
@pytest.mark.parametrize("hidden", [16, 64, 256, 1024])
def test_gemm_rows_do_not_depend_on_the_row_count(dim, hidden):
    # What the window pass rests on: from the floor up, a row of a GEMM has
    # the same bits in a GEMM of few rows as in one of many.
    rng = np.random.default_rng(dim + hidden)
    w = rng.normal(size=(4 * hidden, dim))
    a = rng.normal(size=(4096, dim))
    many = a @ w.T
    fewest = max(2, -(-_MIN_ROW_PROJECTION // (4 * hidden)))
    for m in (fewest, fewest + 1, 2 * fewest, 182, 537):
        assert (a[:m] @ w.T).tobytes() == many[:m].tobytes()


def _gapped_windows(rng, n, dim, look_back):
    """Stride-1 windows over two segments of 60 and 70 rows with the row between them excluded."""
    ridership, covariates = rng.normal(size=(n, 131)), rng.normal(size=(131, dim - 1))
    starts = np.concatenate([np.arange(0, 60 - look_back), np.arange(61, 131 - look_back)]).astype(np.intp)
    first = date(2022, 1, 1)
    keys = tuple((first + timedelta(days=int(s) // 26), 1 + int(s) % 26) for s in starts + look_back)
    y = np.zeros((len(starts), n))
    return AlignedWindows(ridership, covariates, starts, y, look_back, slots_of(keys, 26))


@pytest.mark.parametrize("n_layers", [1, 2])
def test_model_window_pass_skips_rows_and_spans_a_gap(n_layers):
    # Every other window of two segments: the windows skip rows, read both
    # sides of the gap, and run in chunks like the 512-window chunks.
    hp = HyperParams(16, 26, 16, n_layers, 0.01, OptimizerKind.ADAM)
    model = build_model(method_spec(MethodId.D), hp, n_stops=5, seed=11)
    rng = np.random.default_rng(11)
    windows = _gapped_windows(rng, 5, model.layers[0].w.shape[2], hp.sequence_length)
    windows = subset_by_targets(windows, windows.slots[::2])
    assert windows.starts[windows.starts < 60].size and windows.starts[windows.starts > 60].size
    n_windows = windows.n_samples
    for chunk in (slice(None), slice(0, 7), slice(n_windows - 20, n_windows), rng.permutation(n_windows)[:25]):
        x = windows.batch(chunk)
        pred = model.forward(windows, chunk)
        assert_bit_identical(pred, model.forward(as_windows(x)))
        pred_ref, _, _ = oracle_forward_backward(model, x, np.zeros_like(pred))
        assert_bit_identical(pred, pred_ref)
        layer = model.layers[0]
        rows, starts = windows.window_rows(chunk)
        assert_window_pass_exact(layer.w, layer.u, layer.b, rows, starts, hp.sequence_length)


@pytest.mark.parametrize("steps, hidden", [(26, 16), (182, 64)])
def test_one_window_prediction_matches_oracle(steps, hidden):
    # predict_next_service runs one window: every row it reads is read once.
    hp = HyperParams(16, steps, hidden, 1, 0.01, OptimizerKind.ADAM)
    model = build_model(method_spec(MethodId.D), hp, n_stops=5, seed=4)
    rng = np.random.default_rng(4)
    history = shared_covariates([rng.normal(size=(steps, model.layers[0].w.shape[2])) for _ in range(5)])
    unit = ScalerParams(0.0, 1.0)  # de-scaling by x * 1.0 + 0.0 keeps every bit
    forecaster = LstmForecaster((Member(model, hp, 4),), ScalerSet({b: unit for b in range(1, 6)}, unit))
    got = predict_next_service(forecaster, history, steps, int(slots_of([(date(2022, 1, 2), 1)], 26)[0]))
    pred_ref, _, _ = oracle_forward_backward(model, [x[None] for x in history], np.zeros((1, 5)))
    assert got == [float(v) for v in np.maximum(pred_ref[0], 0.0)]


@pytest.mark.parametrize("hidden", [16, 64])
def test_window_pass_debug_checks_the_rows_it_reads(hidden, monkeypatch):
    rng = np.random.default_rng(hidden)
    w, u, b = branched_params(rng, 2, 37, hidden)
    rows = rng.normal(size=(2, 200, 37))
    starts = np.arange(100)
    rows[1, 150, 3] = np.nan  # read by no window
    monkeypatch.setenv("BUSCAST_DEBUG", "1")
    assert_window_pass_exact(w, u, b, rows, starts, 26)
    rows[1, 110, 3] = np.nan  # read by windows 85 to 99
    with pytest.raises(FloatingPointError, match="lstm_forward"):
        branched_lstm_forward_windows(w, u, b, rows, starts, 26)
