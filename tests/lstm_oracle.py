"""Reference branched LSTM forward/backward, kept as an exact-equality oracle.

This is the straightforward batch-major implementation the fused-gate core in
``buscast.nn_core`` replaced: a separate sigmoid and ``tanh`` per step, caches
stored as (n, B, L, ...), and every gradient including the input's. The
optimized core must reproduce its outputs bit for bit.
"""

import numpy as np


def sigmoid(z):
    return 0.5 * (np.tanh(0.5 * z) + 1.0)


def oracle_forward(w, u, b, x):
    """Returns (hs, cache) with cache = (x, gates, tanh_c, h_prev, c_prev)."""
    n, batch, steps, dim = x.shape
    hidden = u.shape[2]
    h = np.zeros((n, batch, hidden))
    c = np.zeros((n, batch, hidden))

    wt = w.transpose(0, 2, 1)
    xw = np.matmul(x.reshape(n, batch * steps, dim), wt).reshape(n, batch, steps, 4 * hidden)
    ut = u.transpose(0, 2, 1)
    bias = b[:, None, :]

    gates = np.empty((n, batch, steps, 4 * hidden))
    tanh_cs = np.empty((n, batch, steps, hidden))
    h_prevs = np.empty((n, batch, steps, hidden))
    c_prevs = np.empty((n, batch, steps, hidden))
    hs = np.empty((n, batch, steps, hidden))

    for t in range(steps):
        z = xw[:, :, t] + np.matmul(h, ut) + bias
        act = sigmoid(z)
        act[..., 2 * hidden : 3 * hidden] = np.tanh(z[..., 2 * hidden : 3 * hidden])
        i = act[..., :hidden]
        f = act[..., hidden : 2 * hidden]
        g = act[..., 2 * hidden : 3 * hidden]
        o = act[..., 3 * hidden :]
        h_prevs[:, :, t] = h
        c_prevs[:, :, t] = c
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates[:, :, t] = act
        tanh_cs[:, :, t] = tc
        hs[:, :, t] = h
    return hs, (x, gates, tanh_cs, h_prevs, c_prevs)


def oracle_backward(w, u, cache, grad_hs):
    """Returns (dw, du, db, dx) for the cache of :func:`oracle_forward`."""
    x, gates, tanh_c, h_prev, c_prev = cache
    n, batch, steps, dim = x.shape
    hidden = u.shape[2]
    i = gates[..., :hidden]
    f = gates[..., hidden : 2 * hidden]
    g = gates[..., 2 * hidden : 3 * hidden]
    o = gates[..., 3 * hidden :]

    dcell_dh = o * (1.0 - tanh_c * tanh_c)
    k_i = g * i * (1.0 - i)
    k_f = c_prev * f * (1.0 - f)
    k_g = i * (1.0 - g * g)
    k_o = tanh_c * o * (1.0 - o)

    dz = np.empty((n, batch, steps, 4 * hidden))
    dh_next = np.zeros((n, batch, hidden))
    dc_next = np.zeros((n, batch, hidden))
    for t in reversed(range(steps)):
        dh = grad_hs[:, :, t] + dh_next
        dc = dh * dcell_dh[:, :, t] + dc_next
        dc_next = dc * f[:, :, t]
        dz[:, :, t, :hidden] = dc * k_i[:, :, t]
        dz[:, :, t, hidden : 2 * hidden] = dc * k_f[:, :, t]
        dz[:, :, t, 2 * hidden : 3 * hidden] = dc * k_g[:, :, t]
        dz[:, :, t, 3 * hidden :] = dh * k_o[:, :, t]
        dh_next = np.matmul(dz[:, :, t], u)

    flat_dz = dz.reshape(n, batch * steps, 4 * hidden)
    flat_dz_t = flat_dz.transpose(0, 2, 1)
    dw = np.matmul(flat_dz_t, x.reshape(n, batch * steps, dim))
    du = np.matmul(flat_dz_t, h_prev.reshape(n, batch * steps, hidden))
    db = flat_dz.sum(axis=1)
    dx = np.matmul(flat_dz, w).reshape(n, batch, steps, dim)
    return dw, du, db, dx
