"""Finite-difference gradient checking helpers shared by the test modules."""

import numpy as np

from buscast.models import MethodId, build_model, method_spec
from buscast.nn_core import mse_loss
from buscast.tuning import HyperParams

from window_oracle import as_windows


def numerical_gradient(f, arr, eps=1e-5):
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


def model_gradcheck(seed: int, n_stops: int, hp: HyperParams, batch: int = 2) -> float:
    """Worst relative error between BPTT and central differences for a whole model."""
    rng = np.random.default_rng(seed)
    spec = method_spec(MethodId.A)
    model = build_model(spec, hp, n_stops, seed=seed)
    dim = spec.features.dimension
    xs = [rng.normal(size=(batch, hp.sequence_length, dim)) for _ in range(model.n_branches)]
    target = rng.normal(size=(batch, model.n_branches))

    windows = as_windows(xs)

    def loss():
        return mse_loss(model.forward(windows), target)[0]

    _, grads = model.forward_backward(np.stack(xs), target)
    worst = 0.0
    for name, arr in model.param_dict().items():
        worst = max(worst, max_relative_error(grads[name], numerical_gradient(loss, arr)))
    return worst
