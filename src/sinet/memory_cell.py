"""Gated recurrent memory cell, forward and hand-derived backward.

The cell fuses an incoming message x into a node state h_t, for every node of
a stack of graphs at once: x and h_t are (B, n, d) stacks, one (n, d) row
matrix per scene and one row per node, and each line below is applied row by
row with the weights shared across rows:

    r      = sigmoid(W_r [x, h_t])
    z      = sigmoid(W_z [x, h_t])
    h~     = tanh(W x + U (r * h_t))
    h_next = z * h_t + (1 - z) * h~

[x, h_t] is concatenation with x first; there are no bias terms. x and h_t
share the dimension d, so W_r and W_z are (d, 2d) while W and U are (d, d).
Each gate is one stacked matrix product: numpy runs one (n, .) product per
scene, so a scene's rows come out bitwise the same whatever else is stacked
with it. The same cell drives both the scene bank (every row of x is the
scene feature) and the edge bank (row i of x is node i's pooled message).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .numerics import ShapeError, init_param, seed_for


@dataclass
class GruParams:
    """The four learned maps, as Param entries of a ParamStore."""

    w_r: object
    w_z: object
    w: object
    u: object

    @property
    def dim(self):
        return self.w.value.shape[0]

    def entries(self):
        return (self.w_r, self.w_z, self.w, self.u)


def create_gru_params(store, prefix, d, seed):
    """Register W_r, W_z (d x 2d) and W, U (d x d) under `prefix/` and return
    the typed view. Init is keyed by (seed, full name), not creation order."""
    def make(field, shape):
        name = f"{prefix}/{field}"
        return store.create(name, init_param(shape, seed_for(seed, name)))

    return GruParams(w_r=make("W_r", (d, 2 * d)), w_z=make("W_z", (d, 2 * d)),
                     w=make("W", (d, d)), u=make("U", (d, d)))


@dataclass
class GruTape:
    """Forward intermediates of one bank call, all (B, n, .) stacks."""

    xh: np.ndarray        # (B, n, 2d) rows of [x, h_t]
    r: np.ndarray
    z: np.ndarray
    h_tilde: np.ndarray


def _check_dims(p, x, h_t):
    d = p.dim
    if x.ndim != 3 or x.shape[2] != d or x.shape != h_t.shape or 0 in x.shape:
        raise ShapeError(f"gru: expected x and h_t as (B, n, {d}) stacks, "
                         f"got {x.shape} and {h_t.shape}")
    if p.w_r.value.shape != (d, 2 * d) or p.w_z.value.shape != (d, 2 * d) \
            or p.u.value.shape != (d, d):
        raise ShapeError("gru: inconsistent parameter shapes")


def gru_forward(p, x, h_t):
    """One cell application to every row of x and h_t. Returns (h_next, tape)."""
    x = np.asarray(x, dtype=np.float64)
    h_t = np.asarray(h_t, dtype=np.float64)
    _check_dims(p, x, h_t)
    xh = np.concatenate([x, h_t], axis=2)
    a_r = xh @ p.w_r.value.T
    a_z = xh @ p.w_z.value.T
    a_x = x @ p.w.value.T
    r = expit(a_r)
    a_u = (r * h_t) @ p.u.value.T
    if not (np.isfinite(a_r).all() and np.isfinite(a_z).all()
            and np.isfinite(a_x).all() and np.isfinite(a_u).all()):
        raise FloatingPointError("gru: NaN or inf in a gate pre-activation")
    z = expit(a_z)
    h_tilde = np.tanh(a_x + a_u)
    h_next = z * h_t + (1.0 - z) * h_tilde
    return h_next, GruTape(xh=xh, r=r, z=z, h_tilde=h_tilde)


def gru_backward(p, tape, dh_next):
    """Exact gradients of h_next contracted with dh_next, row by row.

    The backward pass runs on all rows of all scenes as one (B * n, .)
    matrix: parameter gradients are summed over every row and accumulated
    additively into the Param buffers. Returns (dx, dh_t) as (B, n, d)
    stacks.
    """
    dh_next = np.asarray(dh_next, dtype=np.float64)
    d = p.dim
    shape = tape.r.shape
    if dh_next.shape != shape:
        raise ShapeError(f"gru_backward: dh_next has shape {dh_next.shape}, expected {shape}")
    xh, r, z, h_tilde, dh_next = (a.reshape(-1, a.shape[-1]) for a in
                                  (tape.xh, tape.r, tape.z, tape.h_tilde, dh_next))
    x, h_t = xh[:, :d], xh[:, d:]

    dz = dh_next * (h_t - h_tilde)
    dh_t = dh_next * z
    dh_tilde = dh_next * (1.0 - z)

    # through tanh(W x + U (r*h_t))
    da_h = dh_tilde * (1.0 - h_tilde * h_tilde)
    p.w.grad += da_h.T @ x
    dx = da_h @ p.w.value
    drh = da_h @ p.u.value
    p.u.grad += da_h.T @ (r * h_t)
    dr = drh * h_t
    dh_t += drh * r

    # through the two sigmoid gates on [x, h_t]
    da_r = dr * r * (1.0 - r)
    da_z = dz * z * (1.0 - z)
    p.w_r.grad += da_r.T @ xh
    p.w_z.grad += da_z.T @ xh
    dxh = da_r @ p.w_r.value + da_z @ p.w_z.value

    dx += dxh[:, :d]
    dh_t += dxh[:, d:]
    return dx.reshape(shape), dh_t.reshape(shape)
