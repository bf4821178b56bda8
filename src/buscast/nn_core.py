"""Minimal differentiable core: LSTM and dense layers, MSE, optimizers.

Everything runs on float64 numpy arrays. The LSTM uses the standard cell

    i = sigmoid(W_i x + U_i h + b_i)      f = sigmoid(W_f x + U_f h + b_f)
    g = tanh(W_g x + U_g h + b_g)         o = sigmoid(W_o x + U_o h + b_o)
    c_t = f * c_{t-1} + i * g             h_t = o * tanh(c_t)

with the four gate blocks stacked in the fixed order [i, f, g, o] inside one
(4H x D) input matrix, one (4H x H) recurrent matrix, and one 4H bias.
Backward passes are exact reverse-mode differentiation of the forward code,
returning gradients for every parameter and, on request, for the inputs.

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
gate of every branch is one contiguous (n, B, H) block. The GEMMs keep the
operand shapes and layouts of a plain batch-major implementation: the
recurrent term is one (B, H) x (H, 4H) product per branch, and the backward
pass builds dz in (n, B, L, 4H) so the dW/dU/db/dx reductions sum in the same
order. Every elementwise product keeps its association order, e.g.
(g * i) * (1 - i).

Set the environment variable BUSCAST_DEBUG=1 to assert that no forward or
backward pass produces NaN/Inf. It is read on every check, not at import.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    CheckpointError,
    NonPositiveLearningRate,
    ShapeMismatch,
)


def _debug_check(name: str, *arrays: np.ndarray | None) -> None:
    if os.environ.get("BUSCAST_DEBUG", "0") not in ("", "0"):
        for arr in arrays:
            if arr is not None and not np.all(np.isfinite(arr)):
                raise FloatingPointError(f"non-finite values in {name}")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid via sigmoid(z) = (tanh(z/2) + 1) / 2."""
    return 0.5 * (np.tanh(0.5 * z) + 1.0)


@dataclass
class LstmLayerParams:
    """Gate order inside w/u/b is [input i, forget f, candidate g, output o]."""

    w: np.ndarray  # (4H, D)
    u: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)

    @property
    def hidden_size(self) -> int:
        return self.u.shape[1]

    @property
    def input_size(self) -> int:
        return self.w.shape[1]

    def validate(self) -> None:
        h = self.hidden_size
        if self.w.shape[0] != 4 * h or self.u.shape != (4 * h, h) or self.b.shape != (4 * h,):
            raise ShapeMismatch(
                f"inconsistent LSTM parameter shapes w={self.w.shape} u={self.u.shape} b={self.b.shape}"
            )


@dataclass
class DenseParams:
    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)


@dataclass
class LstmCache:
    """Per-step activations retained for exact backpropagation through time.

    Apart from the layer input, every array is time-major, so one step of all
    n branches is a single contiguous (n, B, H) block. The single-branch entry
    points wrap and unwrap n = 1.
    """

    x: np.ndarray  # (n, B, L, D) layer input
    gates: np.ndarray  # (L, 4, n, B, H), post-activation, order [i, f, g, o]
    c: np.ndarray  # (L+1, n, B, H) cell states; c[0] is the zero initial state
    tanh_c: np.ndarray  # (L, n, B, H)
    h: np.ndarray  # (L+1, n, B, H) hidden states; h[0] is the zero initial state


@dataclass
class LstmGrads:
    dw: np.ndarray
    du: np.ndarray
    db: np.ndarray
    dx: np.ndarray | None  # None when the caller did not ask for it


# Affine map after the shared tanh, per gate [i, f, g, o] (see the module docstring).
_GATE_SCALE = np.array([0.5, 0.5, 1.0, 0.5])
_GATE_SHIFT = np.array([0.5, 0.5, -0.0, 0.5])


def branched_lstm_forward(
    w: np.ndarray,  # (n, 4H, D)
    u: np.ndarray,  # (n, 4H, H)
    b: np.ndarray,  # (n, 4H)
    x: np.ndarray,  # (n, B, L, D)
) -> tuple[np.ndarray, LstmCache]:
    """Run n independent LSTM layers over n input streams in lock-step.

    The branches share shapes but not parameters, so each time step is one
    batched matmul instead of n small ones. Returns the hidden sequence, a
    read-only (n, B, L, H) view of ``cache.h``, and the cache.
    """
    n, batch, steps, dim = x.shape
    hidden = u.shape[2]
    row_scale = np.repeat(_GATE_SCALE, hidden)
    w_half = w * row_scale[:, None]
    u_half = u * row_scale[:, None]
    b_half = b * row_scale

    # Input contribution for every step of every branch in one batched GEMM.
    xw = np.matmul(x.reshape(n, batch * steps, dim), w_half.transpose(0, 2, 1))
    xw = xw.reshape(n, batch, steps, 4 * hidden)
    gates = np.empty((steps, 4, n, batch, hidden))
    bias = np.empty((n, batch, 4 * hidden))
    bias[...] = b_half[:, None, :]
    scale = _GATE_SCALE[:, None, None, None]
    shift = _GATE_SHIFT[:, None, None, None]

    c = np.empty((steps + 1, n, batch, hidden))
    h = np.empty((steps + 1, n, batch, hidden))
    c[0] = 0.0
    h[0] = 0.0
    tanh_c = np.empty((steps, n, batch, hidden))
    ut = u_half.transpose(0, 2, 1)
    hu = np.empty((n, batch, 4 * hidden))
    hu_by_gate = hu.reshape(n, batch, 4, hidden).transpose(2, 0, 1, 3)
    ig = np.empty((n, batch, hidden))

    for t in range(steps):
        z = gates[t]
        np.matmul(h[t], ut, out=hu)
        hu += xw[:, :, t]
        hu += bias
        np.tanh(hu_by_gate, out=z)
        z *= scale
        z += shift
        i, f, g, o = z
        np.multiply(f, c[t], out=c[t + 1])
        np.multiply(i, g, out=ig)
        c[t + 1] += ig
        np.tanh(c[t + 1], out=tanh_c[t])
        np.multiply(o, tanh_c[t], out=h[t + 1])

    # A read-only view: the cache still needs h for the backward pass.
    hs = h[1:].transpose(1, 2, 0, 3)
    hs.flags.writeable = False
    _debug_check("lstm_forward", hs, c)
    return hs, LstmCache(x=x, gates=gates, c=c, tanh_c=tanh_c, h=h)


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
    dz = np.empty((n, batch, steps, 4 * hidden))
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


def lstm_forward(params: LstmLayerParams, x: np.ndarray) -> tuple[np.ndarray, LstmCache]:
    """Run the cell over a (B, L, D) batch; return hidden sequence and cache."""
    if x.ndim != 3:
        raise ShapeMismatch(f"expected (batch, steps, features) input, got shape {x.shape}")
    params.validate()
    if x.shape[2] != params.input_size:
        raise ShapeMismatch(f"input feature dim {x.shape[2]} != layer input size {params.input_size}")
    hs, cache = branched_lstm_forward(params.w[None], params.u[None], params.b[None], x[None])
    return hs[0], cache


def lstm_backward(params: LstmLayerParams, cache: LstmCache, grad_hs: np.ndarray) -> LstmGrads:
    """Exact BPTT for a single layer. ``grad_hs`` has shape (B, L, H)."""
    grads = branched_lstm_backward(params.w[None], params.u[None], cache, grad_hs[None])
    return LstmGrads(dw=grads.dw[0], du=grads.du[0], db=grads.db[0], dx=grads.dx[0])


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


def init_lstm_params(input_size: int, hidden_size: int, rng: np.random.Generator) -> LstmLayerParams:
    """Glorot-uniform weights; biases zero except forget gate, which starts at 1."""
    b = np.zeros(4 * hidden_size)
    b[hidden_size : 2 * hidden_size] = 1.0
    return LstmLayerParams(
        w=glorot_uniform(rng, 4 * hidden_size, input_size),
        u=glorot_uniform(rng, 4 * hidden_size, hidden_size),
        b=b,
    )


def init_dense_params(input_size: int, output_size: int, rng: np.random.Generator) -> DenseParams:
    return DenseParams(w=glorot_uniform(rng, output_size, input_size), b=np.zeros(output_size))


# ---------------------------------------------------------------------------
# optimizers


class OptimizerKind(Enum):
    SGD = "sgd"
    RMSPROP = "rmsprop"
    ADAM = "adam"
    NADAM = "nadam"
    # candidate list entries not selected by tuning; construction raises
    ADADELTA = "adadelta"
    ADAGRAD = "adagrad"
    ADAMAX = "adamax"
    FTRL = "ftrl"



class Optimizer:
    """Updates a named set of parameter arrays in place."""

    kind: OptimizerKind

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise NonPositiveLearningRate(f"learning rate must be > 0, got {learning_rate}")
        self.learning_rate = learning_rate
        self.step_count = 0

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

    def _slot(self, slots: dict[str, np.ndarray], name: str, like: np.ndarray) -> np.ndarray:
        if name not in slots:
            slots[name] = np.zeros_like(like)
        return slots[name]


class Sgd(Optimizer):
    kind = OptimizerKind.SGD

    def _update(self, name, param, grad):
        param -= self.learning_rate * grad


class RmsProp(Optimizer):
    kind = OptimizerKind.RMSPROP

    def __init__(self, learning_rate: float, rho: float = 0.9, eps: float = 1e-8):
        super().__init__(learning_rate)
        self.rho = rho
        self.eps = eps
        self._v: dict[str, np.ndarray] = {}

    def _update(self, name, param, grad):
        v = self._slot(self._v, name, param)
        v *= self.rho
        v += (1.0 - self.rho) * grad * grad
        param -= self.learning_rate * grad / (np.sqrt(v) + self.eps)


class Adam(Optimizer):
    kind = OptimizerKind.ADAM

    def __init__(self, learning_rate: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        super().__init__(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def _moments(self, name, param, grad):
        m = self._slot(self._m, name, param)
        v = self._slot(self._v, name, param)
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

#: The optimizer kinds :func:`make_optimizer` can build.
SUPPORTED_OPTIMIZERS = tuple(_OPTIMIZER_CLASSES)


def make_optimizer(kind: OptimizerKind, learning_rate: float) -> Optimizer:
    if kind not in _OPTIMIZER_CLASSES:
        raise NotImplementedError(
            f"optimizer {kind.value!r} is in the candidate list but not implemented; "
            f"use one of {', '.join(k.value for k in SUPPORTED_OPTIMIZERS)}"
        )
    return _OPTIMIZER_CLASSES[kind](learning_rate)


def clip_global_norm(grads: Mapping[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
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


def load_params(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC or len(raw) < 12:
        raise CheckpointError(f"{path}: not a buscast checkpoint")
    (blob_len,) = struct.unpack_from("<Q", raw, 4)
    try:
        header = json.loads(raw[12 : 12 + blob_len].decode("utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        header = None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt checkpoint header")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {header.get('format_version')}")
    offset = 12 + blob_len
    params: dict[str, np.ndarray] = {}
    for name, shape in header["params"]:
        count = int(np.prod(shape)) if shape else 1
        if offset + count * 8 > len(raw):
            raise CheckpointError(f"{path}: truncated payload at {name}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        params[name] = arr.reshape(shape).copy()
        offset += count * 8
    return header, params
