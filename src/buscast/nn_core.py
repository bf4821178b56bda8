"""Minimal differentiable core: LSTM and dense layers, MSE, optimizers.

Everything runs on float64 numpy arrays. The LSTM uses the standard cell

    i = sigmoid(W_i x + U_i h + b_i)      f = sigmoid(W_f x + U_f h + b_f)
    g = tanh(W_g x + U_g h + b_g)         o = sigmoid(W_o x + U_o h + b_o)
    c_t = f * c_{t-1} + i * g             h_t = o * tanh(c_t)

with the four gate blocks stacked in the fixed order [i, f, g, o] inside one
(4H x D) input matrix, one (4H x H) recurrent matrix, and one 4H bias.

A layer's parameters are stacked over the n independent branches of a
branched model (one branch per bus stop): ``w`` is (n, 4H, D), ``u`` is
(n, 4H, H) and ``b`` is (n, 4H), a single-branch layer being n = 1. This is
the only in-memory layout; the gradients, the optimizer state and the global
gradient norm work on the same stacked arrays. Backward passes are exact
reverse-mode differentiation of the forward code, returning gradients for
every parameter and, on request, for the inputs.

The forward pass evaluates all four gates with a single ``tanh`` (the fused
gates of Appleyard et al. 2016, arXiv:1604.01946). Since
sigmoid(z) = 0.5 * tanh(0.5 * z) + 0.5, the i/f/o rows of W, U and b are
halved once per call; one ``tanh`` over the whole pre-activation is then
followed by a per-gate scale [.5, .5, 1, .5] and shift [.5, .5, -0.0, .5].
The result is bit-identical to computing 0.5 * (tanh(0.5 * z) + 1.0) from
unhalved weights:

* scaling by a power of two commutes with rounding (short of underflow), so
  each product, GEMM partial sum and bias add of the halved pre-activation is
  exactly half of the unhalved one;
* 0.5 * t is exact, so 0.5 * t + 0.5 rounds once, to round(t + 1) / 2,
  which is 0.5 * (t + 1.0);
* the g gate gets t * 1.0 + -0.0 == t, because -0.0 is the additive identity
  for every float, -0.0 included.

Caches are time-major: gates (L, 4, n, B, H), cell and hidden states
(L+1, n, B, H) with index 0 the zero initial state, so each step and each
gate of every branch is one contiguous (n, B, H) block. A forward pass that
no backward pass follows (validation, evaluation, prediction) keeps no
cache: it reuses one step of gates, one cell state and one tanh(cell), and
keeps only the (L+1, n, B, H) hidden states the next layer reads. Every
forward pass runs one step loop with the same operations, so they agree to
the bit.

The first layer of such a pass reads look-back windows of encoded rows
(:func:`branched_lstm_forward_windows`). Stride-1 windows share L-1 of
their L rows, so it projects each distinct row the windows read once,
(n, rows read, 4H) instead of the (n, B, L, 4H) projection of every step of
every window, and each step gathers its rows' projections. A GEMM row has
the same bits however many rows the GEMM has, except in GEMMs so small
that OpenBLAS takes another kernel; a projection that small is run over the
gathered windows instead (``_MIN_ROW_PROJECTION``).

Training reuses its buffers across the mini-batches of one epoch
(:class:`BufferPool`): the gathered batch, each layer's cache arrays, and
one (n, B, L, 4H) work array that holds each layer's input projection in the
forward pass and its dz in the backward pass, as their lifetimes never
overlap. Each batch takes a prefix of every buffer; the gradients are
always fresh arrays.

The GEMMs keep the operand shapes and layouts of a plain batch-major
implementation: the recurrent term is one (B, H) x (H, 4H) product per
branch, and the backward pass builds dz in (n, B, L, 4H) so the dW/dU/db/dx
reductions sum in the same order. Every elementwise product keeps its association order, e.g.
(g * i) * (1 - i).

Set the environment variable BUSCAST_DEBUG=1 to assert that no forward or
backward pass produces NaN/Inf. It is read on every check, not at import.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CheckpointError,
    NonPositiveLearningRate,
    ShapeMismatch,
    read_input,
)


def _debug_check(name: str, *arrays: np.ndarray | None) -> None:
    if os.environ.get("BUSCAST_DEBUG", "0") not in ("", "0"):
        for arr in arrays:
            if arr is not None and not np.all(np.isfinite(arr)):
                raise FloatingPointError(f"non-finite values in {name}")


@dataclass
class LstmLayerParams:
    """One layer of n branches. Gate order inside w/u/b is [input i, forget f, candidate g, output o]."""

    w: np.ndarray  # (n, 4H, D)
    u: np.ndarray  # (n, 4H, H)
    b: np.ndarray  # (n, 4H)


@dataclass
class DenseParams:
    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)


@dataclass
class LstmCache:
    """Per-step activations retained for exact backpropagation through time.

    Apart from the layer input, every array is time-major, so one step of all
    n branches is a single contiguous (n, B, H) block.
    """

    x: np.ndarray  # (n, B, L, D) layer input
    gates: np.ndarray  # (L, 4, n, B, H), post-activation, order [i, f, g, o]
    c: np.ndarray  # (L+1, n, B, H) cell states; c[0] is the zero initial state
    tanh_c: np.ndarray  # (L, n, B, H)
    h: np.ndarray  # (L+1, n, B, H) hidden states; h[0] is the zero initial state
    work: np.ndarray  # (n, B, L, 4H) input projection in the forward pass, dz in the backward pass


@dataclass
class LstmGrads:
    dw: np.ndarray
    du: np.ndarray
    db: np.ndarray
    dx: np.ndarray | None  # None when the caller did not ask for it


# Affine map after the shared tanh, per gate [i, f, g, o] (see the module docstring).
_GATE_SCALE = np.array([0.5, 0.5, 1.0, 0.5])
_GATE_SHIFT = np.array([0.5, 0.5, -0.0, 0.5])


class BufferPool:
    """Named float64 buffers that the passes of one training epoch reuse.

    ``take`` returns a C-contiguous prefix of a flat array allocated at the
    first request under its name, so the first request must be the largest;
    an epoch's first batch is its largest. The contents are arbitrary, and a
    taken array shares memory with every later one of its name.
    """

    def __init__(self) -> None:
        self._flat: dict[object, np.ndarray] = {}

    def take(self, name: object, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if name not in self._flat:
            self._flat[name] = np.empty(size)
        return self._flat[name][:size].reshape(shape)

    def lstm_cache(self, layer: int, x: np.ndarray, hidden: int) -> LstmCache:
        """An unfilled cache of LSTM layer ``layer`` over input x, for :func:`branched_lstm_forward` to fill.

        Every layer shares one work buffer: a layer's input projection is
        dead once its forward pass ends, and its dz once its backward pass
        ends.
        """
        n, batch, steps, _ = x.shape
        state = (steps + 1, n, batch, hidden)
        return LstmCache(
            x=x,
            gates=self.take((layer, "gates"), (steps, 4, n, batch, hidden)),
            c=self.take((layer, "c"), state),
            tanh_c=self.take((layer, "tanh_c"), (steps, n, batch, hidden)),
            h=self.take((layer, "h"), state),
            work=self.take("work", (n, batch, steps, 4 * hidden)),
        )


def _halved(w: np.ndarray, u: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W, U and b with their i/f/o rows halved (see the module docstring)."""
    row_scale = np.repeat(_GATE_SCALE, u.shape[2])
    return w * row_scale[:, None], u * row_scale[:, None], b * row_scale


def _forward_only_buffers(n: int, batch: int, steps: int, hidden: int) -> tuple[np.ndarray, ...]:
    """Gates, cell state and tanh(cell) of one step, and all hidden states: what a pass without backward holds."""
    one = (1, n, batch, hidden)
    return np.empty((1, 4, n, batch, hidden)), np.empty(one), np.empty(one), np.empty((steps + 1, n, batch, hidden))


def _lstm_steps(u_half, b_half, step_input, gates, c, tanh_c, h) -> np.ndarray:
    """The step loop of every forward pass; returns the read-only (n, B, L, H) hidden sequence.

    ``step_input(t)`` is the (n, B, 4H) input projection of step t. ``gates``,
    ``c`` and ``tanh_c`` hold every step, ``c`` with the zero state first, or
    one step that each step overwrites, ``c`` then being updated in place.
    ``h`` (L+1, n, B, H) always holds every hidden state.
    """
    steps = h.shape[0] - 1
    n, batch, hidden = h.shape[1:]
    keep = c.shape[0] > 1
    bias = np.empty((n, batch, 4 * hidden))
    bias[...] = b_half[:, None, :]
    scale = _GATE_SCALE[:, None, None, None]
    shift = _GATE_SHIFT[:, None, None, None]

    c[0] = 0.0
    h[0] = 0.0
    ut = u_half.transpose(0, 2, 1)
    hu = np.empty((n, batch, 4 * hidden))
    hu_by_gate = hu.reshape(n, batch, 4, hidden).transpose(2, 0, 1, 3)
    ig = np.empty((n, batch, hidden))

    for t in range(steps):
        # Slots of step t and of the cell state it writes: one slot without a cache.
        s, s_next = (t, t + 1) if keep else (0, 0)
        z = gates[s]
        np.matmul(h[t], ut, out=hu)
        hu += step_input(t)
        hu += bias
        np.tanh(hu_by_gate, out=z)
        z *= scale
        z += shift
        i, f, g, o = z
        # Without a cache c[s] is c[s_next]: the cell state is updated in place.
        np.multiply(f, c[s], out=c[s_next])
        np.multiply(i, g, out=ig)
        c[s_next] += ig
        np.tanh(c[s_next], out=tanh_c[s])
        np.multiply(o, tanh_c[s], out=h[t + 1])

    # Read-only, as a cache's h is still needed by the backward pass.
    hs = h[1:].transpose(1, 2, 0, 3)
    hs.flags.writeable = False
    _debug_check("lstm_forward", hs, c)
    return hs


def branched_lstm_forward(
    w: np.ndarray,  # (n, 4H, D)
    u: np.ndarray,  # (n, 4H, H)
    b: np.ndarray,  # (n, 4H)
    x: np.ndarray,  # (n, B, L, D)
    keep_cache: bool | LstmCache = True,
) -> tuple[np.ndarray, LstmCache | None]:
    """Run n independent LSTM layers over n input streams in lock-step.

    The branches share shapes but not parameters, so each time step is one
    batched matmul instead of n small ones. Returns the hidden sequence, a
    read-only (n, B, L, H) view of the hidden states, and the cache for
    :func:`branched_lstm_backward`. With ``keep_cache=False`` no backward pass
    can follow: one step of gates, one cell state and one tanh(cell) are
    overwritten every step, only the hidden states are kept, and the cache
    is None. Both modes run the same operations in the same order, so the
    hidden sequence is the same to the bit. ``keep_cache`` may also be an
    unfilled cache over x (see :meth:`BufferPool.lstm_cache`), which the
    pass fills and returns instead of allocating one.
    """
    if x.ndim != 4 or x.shape[0] != w.shape[0] or x.shape[3] != w.shape[2]:
        raise ShapeMismatch(f"input shape {x.shape} != (n={w.shape[0]}, B, L, D={w.shape[2]})")
    n, batch, steps, dim = x.shape
    hidden = u.shape[2]
    w_half, u_half, b_half = _halved(w, u, b)
    if isinstance(keep_cache, LstmCache):
        cache = keep_cache
    else:
        cache = BufferPool().lstm_cache(0, x, hidden) if keep_cache else None

    # Input contribution for every step of every branch in one batched GEMM.
    work = None if cache is None else cache.work.reshape(n, batch * steps, 4 * hidden)
    xw = np.matmul(x.reshape(n, batch * steps, dim), w_half.transpose(0, 2, 1), out=work)
    xw = xw.reshape(n, batch, steps, 4 * hidden)
    buffers = (
        _forward_only_buffers(n, batch, steps, hidden)
        if cache is None
        else (cache.gates, cache.c, cache.tanh_c, cache.h)
    )
    hs = _lstm_steps(u_half, b_half, lambda t: xw[:, :, t], *buffers)
    return hs, cache


# Fewest output elements (rows read x 4H) of a row projection. The rows of a
# GEMM come out with the same bits whatever their number, except in a GEMM of
# one row (a GEMV) and, at D >= 32, in one of at most ~1,200 output elements
# (OpenBLAS 0.3.31, Haswell kernels); the floor keeps both the row projection
# and the windowed one it replaces well above that.
_MIN_ROW_PROJECTION = 4096


def branched_lstm_forward_windows(
    w: np.ndarray,  # (n, 4H, D)
    u: np.ndarray,  # (n, 4H, H)
    b: np.ndarray,  # (n, 4H)
    rows: np.ndarray,  # (n, T, D)
    starts: np.ndarray,  # (B,)
    look_back: int,
) -> np.ndarray:
    """Forward-only pass over look-back windows of encoded rows.

    Window i of branch k is ``rows[k, starts[i] : starts[i] + look_back]``.
    Overlapping windows share rows, so the distinct rows the windows read
    are projected by the halved W once, and step t adds the (n, B, 4H) gather
    of its rows' projections where :func:`branched_lstm_forward` adds its
    slice of the windowed projection. Above ``_MIN_ROW_PROJECTION`` a GEMM
    row comes out with the same bits whatever the other rows are, so the
    returned read-only (n, B, L, H) hidden sequence equals the
    ``keep_cache=False`` pass over the gathered windows, bit for bit; a
    smaller projection is run over the gathered windows.
    """
    if rows.ndim != 3 or rows.shape[0] != w.shape[0] or rows.shape[2] != w.shape[2]:
        raise ShapeMismatch(f"rows shape {rows.shape} != (n={w.shape[0]}, T, D={w.shape[2]})")
    n, batch, hidden = rows.shape[0], len(starts), u.shape[2]
    steps = starts[:, None] + np.arange(look_back)
    read, where = np.unique(steps, return_inverse=True)
    if len(read) < 2 or len(read) * 4 * hidden < _MIN_ROW_PROJECTION:
        return branched_lstm_forward(w, u, b, np.take(rows, steps, axis=1), keep_cache=False)[0]
    w_half, u_half, b_half = _halved(w, u, b)
    where = where.reshape(batch, look_back).T.copy()  # where[t, i]: row of step t of window i in read
    proj = np.matmul(np.take(rows, read, axis=1), w_half.transpose(0, 2, 1))
    step_in = np.empty((n, batch, 4 * hidden))

    def step_input(t: int) -> np.ndarray:
        # mode="clip" gathers straight into step_in ("raise" would gather into
        # a copy first); every index in where is in range.
        return np.take(proj, where[t], axis=1, out=step_in, mode="clip")

    return _lstm_steps(u_half, b_half, step_input, *_forward_only_buffers(n, batch, look_back, hidden))


# Steps of local derivatives computed per block in the backward pass: enough
# elements to amortize numpy's per-call cost, few enough to stay in cache.
_BLOCK_ELEMENTS = 1 << 14


def _local_derivatives(
    cache: LstmCache, start: int, stop: int, dcell_dh: np.ndarray, k: np.ndarray, tmp: np.ndarray
) -> None:
    """Fill the step-independent derivative factors of steps [start, stop).

    dcell_dh[j] = o * (1 - tanh(c)^2); k[j, :3] scale dc into the i, f and g
    blocks of dz and k[j, 3] scales dh into the o block, for step start + j.
    """
    m = stop - start
    dcell_dh, k, tmp = dcell_dh[:m], k[:m], tmp[:m]
    i, f, g, o = cache.gates[start:stop].transpose(1, 0, 2, 3, 4)
    tanh_c = cache.tanh_c[start:stop]
    np.multiply(tanh_c, tanh_c, out=dcell_dh)
    np.subtract(1.0, dcell_dh, out=dcell_dh)
    dcell_dh *= o
    np.multiply(g, i, out=k[:, 0])
    k[:, 0] *= np.subtract(1.0, i, out=tmp)
    np.multiply(cache.c[start:stop], f, out=k[:, 1])
    k[:, 1] *= np.subtract(1.0, f, out=tmp)
    np.multiply(g, g, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    np.multiply(i, tmp, out=k[:, 2])
    np.multiply(tanh_c, o, out=k[:, 3])
    k[:, 3] *= np.subtract(1.0, o, out=tmp)


def branched_lstm_backward(
    w: np.ndarray,
    u: np.ndarray,
    cache: LstmCache,
    grad_hs: np.ndarray,
    need_dx: bool = True,
) -> LstmGrads:
    """Exact BPTT through :func:`branched_lstm_forward`.

    ``grad_hs`` is dLoss/d(hidden sequence), shape (n, B, L, H); gradients
    come back per branch with the same leading axis. With ``need_dx=False``
    the input gradient is skipped and ``dx`` is None.
    """
    n, batch, steps, dim = cache.x.shape
    hidden = u.shape[2]
    if grad_hs.shape != (n, batch, steps, hidden):
        raise ShapeMismatch(f"grad shape {grad_hs.shape} != {(n, batch, steps, hidden)}")

    # dz keeps the batch-major (n, B, L, 4H) layout so the parameter
    # reductions below sum in the same order as a batch-major BPTT would.
    dz = cache.work
    dz_by_gate = dz.reshape(n, batch, steps, 4, hidden).transpose(2, 3, 0, 1, 4)
    f = cache.gates[:, 1]
    span = max(1, min(steps, _BLOCK_ELEMENTS // (n * batch * hidden)))
    dcell_dh = np.empty((span, n, batch, hidden))
    k = np.empty((span, 4, n, batch, hidden))
    tmp = np.empty((span, n, batch, hidden))
    dh = np.empty((n, batch, hidden))
    dc = np.empty((n, batch, hidden))
    dh_next = np.zeros((n, batch, hidden))
    dc_next = np.zeros((n, batch, hidden))
    for stop in range(steps, 0, -span):
        start = max(0, stop - span)
        _local_derivatives(cache, start, stop, dcell_dh, k, tmp)
        for t in reversed(range(start, stop)):
            j = t - start
            np.add(grad_hs[:, :, t], dh_next, out=dh)
            np.multiply(dh, dcell_dh[j], out=dc)
            dc += dc_next
            np.multiply(dc, f[t], out=dc_next)
            np.multiply(dc, k[j, :3], out=dz_by_gate[t, :3])
            np.multiply(dh, k[j, 3], out=dz_by_gate[t, 3])
            np.matmul(dz[:, :, t], u, out=dh_next)

    flat_dz = dz.reshape(n, batch * steps, 4 * hidden)
    flat_dz_t = flat_dz.transpose(0, 2, 1)
    h_prev = cache.h[:-1].transpose(1, 2, 0, 3).reshape(n, batch * steps, hidden)
    grads = LstmGrads(
        dw=np.matmul(flat_dz_t, cache.x.reshape(n, batch * steps, dim)),
        du=np.matmul(flat_dz_t, h_prev),
        db=flat_dz.sum(axis=1),
        dx=np.matmul(flat_dz, w).reshape(n, batch, steps, dim) if need_dx else None,
    )
    _debug_check("lstm_backward", grads.dw, grads.du, grads.db, grads.dx)
    return grads


def dense_forward(params: DenseParams, x: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != params.w.shape[1]:
        raise ShapeMismatch(f"dense input shape {x.shape} != (batch, {params.w.shape[1]})")
    return x @ params.w.T + params.b


def dense_backward(
    params: DenseParams, x: np.ndarray, grad_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dW, db, dX) for y = x W^T + b."""
    if grad_y.shape != (x.shape[0], params.w.shape[0]):
        raise ShapeMismatch(f"dense grad shape {grad_y.shape} != {(x.shape[0], params.w.shape[0])}")
    return grad_y.T @ x, grad_y.sum(axis=0), grad_y @ params.w


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over all elements of squared error, and its gradient w.r.t. pred."""
    if pred.shape != target.shape:
        raise ShapeMismatch(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = (2.0 / diff.size) * diff
    return loss, grad


# ---------------------------------------------------------------------------
# initialization


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform in +-sqrt(6 / (fan_in + fan_out)) with fan_in=cols, fan_out=rows."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def init_lstm_layers(
    n_branches: int, input_size: int, hidden_size: int, n_layers: int, rng: np.random.Generator
) -> list[LstmLayerParams]:
    """Glorot-uniform weights; biases zero except the forget gate's, which start at 1.

    The generator is drawn branch by branch, and within a branch layer by
    layer, W before U; the draws are then stacked per layer. Changing that
    order would change every initial weight of a seeded model.
    """
    h4 = 4 * hidden_size
    sizes = [input_size] + [hidden_size] * (n_layers - 1)
    draws = [
        [(glorot_uniform(rng, h4, size), glorot_uniform(rng, h4, hidden_size)) for size in sizes]
        for _ in range(n_branches)
    ]
    bias = np.zeros((n_branches, h4))
    bias[:, hidden_size : 2 * hidden_size] = 1.0
    layers = []
    for per_branch in zip(*draws):  # one layer's (W, U) of every branch
        w, u = (np.stack(arrays) for arrays in zip(*per_branch))
        layers.append(LstmLayerParams(w=w, u=u, b=bias.copy()))
    return layers


def init_dense_params(input_size: int, output_size: int, rng: np.random.Generator) -> DenseParams:
    return DenseParams(w=glorot_uniform(rng, output_size, input_size), b=np.zeros(output_size))


# ---------------------------------------------------------------------------
# optimizers


class OptimizerKind(Enum):
    SGD = "sgd"
    RMSPROP = "rmsprop"
    ADAM = "adam"
    NADAM = "nadam"


class Optimizer:
    """Updates a named set of parameter arrays in place.

    Its whole state is ``step_count`` and ``slots``: one array per parameter
    name in each slot the optimizer keeps (none for SGD, ``v`` for RMSprop,
    ``m`` and ``v`` for Adam and Nadam), made at the parameter's first step.
    """

    kind: OptimizerKind
    SLOTS: tuple[str, ...] = ()

    def __init__(self, learning_rate: float):
        if not 0 < learning_rate < math.inf:
            raise NonPositiveLearningRate(f"learning rate must be a finite number > 0, got {learning_rate}")
        self.learning_rate = learning_rate
        self.step_count = 0
        self.slots: dict[str, dict[str, np.ndarray]] = {slot: {} for slot in self.SLOTS}

    def step(self, params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        if set(params) != set(grads):
            raise ShapeMismatch("parameter and gradient names differ")
        self.step_count += 1
        for name in params:
            if params[name].shape != grads[name].shape:
                raise ShapeMismatch(
                    f"{name}: parameter shape {params[name].shape} != gradient shape {grads[name].shape}"
                )
            self._update(name, params[name], grads[name])

    def _update(self, name: str, param: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError

    def _slot(self, slot: str, name: str, like: np.ndarray) -> np.ndarray:
        arrays = self.slots[slot]
        if name not in arrays:
            arrays[name] = np.zeros_like(like)
        return arrays[name]


class Sgd(Optimizer):
    kind = OptimizerKind.SGD

    def _update(self, name, param, grad):
        param -= self.learning_rate * grad


class RmsProp(Optimizer):
    kind = OptimizerKind.RMSPROP
    SLOTS = ("v",)

    def __init__(self, learning_rate: float, rho: float = 0.9, eps: float = 1e-8):
        super().__init__(learning_rate)
        self.rho = rho
        self.eps = eps

    def _update(self, name, param, grad):
        v = self._slot("v", name, param)
        v *= self.rho
        v += (1.0 - self.rho) * grad * grad
        param -= self.learning_rate * grad / (np.sqrt(v) + self.eps)


class Adam(Optimizer):
    kind = OptimizerKind.ADAM
    SLOTS = ("m", "v")

    def __init__(self, learning_rate: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def _moments(self, name, param, grad):
        m = self._slot("m", name, param)
        v = self._slot("v", name, param)
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        t = self.step_count
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        return m_hat, v_hat

    def _update(self, name, param, grad):
        m_hat, v_hat = self._moments(name, param, grad)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


class Nadam(Adam):
    """Adam with a Nesterov-style lookahead on the first moment."""

    kind = OptimizerKind.NADAM

    def _update(self, name, param, grad):
        m_hat, v_hat = self._moments(name, param, grad)
        t = self.step_count
        lookahead = self.beta1 * m_hat + (1.0 - self.beta1) * grad / (1.0 - self.beta1**t)
        param -= self.learning_rate * lookahead / (np.sqrt(v_hat) + self.eps)


_OPTIMIZER_CLASSES = {cls.kind: cls for cls in (Sgd, RmsProp, Adam, Nadam)}


def make_optimizer(kind: OptimizerKind, learning_rate: float) -> Optimizer:
    return _OPTIMIZER_CLASSES[kind](learning_rate)


def clip_global_norm(
    grads: Mapping[str, np.ndarray], max_norm: float, stacks: Sequence[Sequence[str]] = ()
) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm; return the norm.

    The squares are summed one array at a time in ``grads`` order, then over
    each group of names in ``stacks`` in turn. The arrays of a group share a
    leading branch axis and are summed branch by branch: branch 0 of each
    array in group order, then branch 1, and so on. Float addition is not
    associative, so this order is what gives a branched model the norm, to
    the bit, of the same arrays held one per branch.
    """
    stacked = {name for group in stacks for name in group}
    total = 0.0
    for name, g in grads.items():
        if name not in stacked:
            total += float(np.sum(g * g))
    for group in stacks:
        rows = [(grads[name] * grads[name]).reshape(len(grads[name]), -1).sum(axis=1) for name in group]
        for branch in zip(*rows):
            for square_sum in branch:
                total += float(square_sum)
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


# ---------------------------------------------------------------------------
# parameter checkpoints

CHECKPOINT_MAGIC = b"BCKP"
CHECKPOINT_VERSION = 1


def save_params(path: str | Path, header: dict, named_params: Iterable[tuple[str, np.ndarray]]) -> None:
    """Versioned header (JSON) followed by row-major float64 payloads.

    The payload order matches the ``params`` entry written into the header,
    so a round trip restores bit-identical arrays.
    """
    named = [(name, np.ascontiguousarray(arr, dtype=np.float64)) for name, arr in named_params]
    meta = dict(header)
    meta["format_version"] = CHECKPOINT_VERSION
    meta["params"] = [[name, list(arr.shape)] for name, arr in named]
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, arr in named:
            fh.write(arr.tobytes())


def _is_param_entry(entry) -> bool:
    """Whether a header ``params`` entry is a ``[name, shape]`` pair with a non-negative integer shape."""
    return (
        isinstance(entry, list)
        and len(entry) == 2
        and isinstance(entry[0], str)
        and isinstance(entry[1], list)
        and all(type(dim) is int and dim >= 0 for dim in entry[1])
    )


def load_params(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and named arrays of a :func:`save_params` file; a malformed file is a :class:`CheckpointError`."""
    raw = read_input(path, "checkpoint", text=False)
    if raw[:4] != CHECKPOINT_MAGIC or len(raw) < 12:
        raise CheckpointError(f"{path}: not a buscast checkpoint")
    (blob_len,) = struct.unpack_from("<Q", raw, 4)
    try:
        header = json.loads(raw[12 : 12 + blob_len].decode("utf-8"))
    except (ValueError, RecursionError):  # JSONDecodeError, UnicodeDecodeError, deep nesting
        header = None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt checkpoint header")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {header.get('format_version')}")
    entries = header.get("params")
    if not (isinstance(entries, list) and all(_is_param_entry(entry) for entry in entries)):
        raise CheckpointError(f"{path}: malformed parameter list in checkpoint header")
    offset = 12 + blob_len
    params: dict[str, np.ndarray] = {}
    for name, shape in entries:
        count = math.prod(shape)
        if offset + count * 8 > len(raw):
            raise CheckpointError(f"{path}: truncated payload at {name}")
        params[name] = np.frombuffer(raw, "<f8", count, offset).reshape(shape).copy()
        offset += count * 8
    return header, params
