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

GruParams whose maps have a leading bank axis (ParamStore.stack views, (2, d,
2d) and (2, d, d) with bank 0 the scene bank and bank 1 the edge bank) run
both banks in one call: x is a (2, B, n, d) stack, one per bank, and both
banks read the same (B, n, d) hidden state h_t. Every (bank, scene) product
keeps its one-bank shape, so each bank's numbers are bitwise those of a call
with that bank alone.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .numerics import ShapeError, init_param, seed_for

MAPS = ("W_r", "W_z", "W", "U")


@dataclass
class GruParams:
    """The four learned maps: Params of one bank, or ParamStacks of several
    banks' same-named maps."""

    w_r: object
    w_z: object
    w: object
    u: object

    @property
    def dim(self):
        return self.w.value.shape[-1]

    def entries(self):
        return (self.w_r, self.w_z, self.w, self.u)


def gru_init(prefix, d, seed):
    """Initial W_r, W_z (d x 2d) and W, U (d x d) of the bank `prefix`, as
    (name, value) pairs. Init is keyed by (seed, full name), not creation
    order."""
    shapes = ((d, 2 * d), (d, 2 * d), (d, d), (d, d))
    return [(f"{prefix}/{m}", init_param(shape, seed_for(seed, f"{prefix}/{m}")))
            for m, shape in zip(MAPS, shapes)]


def gru_params(store, *prefixes):
    """The GruParams of one bank of the store, named by its prefix, or of
    several banks stacked (ParamStore.stack) in the order given."""
    if len(prefixes) == 1:
        return GruParams(*(store[f"{prefixes[0]}/{m}"] for m in MAPS))
    return GruParams(*(store.stack([f"{prefix}/{m}" for prefix in prefixes]) for m in MAPS))


@dataclass
class GruTape:
    """Forward intermediates of one bank call, all ([bank,] B, n, .) stacks."""

    xh: np.ndarray        # rows of [x, h_t]
    r: np.ndarray
    z: np.ndarray
    h_tilde: np.ndarray


def _check_dims(p, x, h_t):
    d, banks = p.dim, p.w.value.shape[:-2]
    want = banks + (d, 2 * d)
    if x.ndim != len(banks) + 3 or x.shape[:len(banks)] != banks or x.shape[-1] != d \
            or x.shape[len(banks):] != h_t.shape or 0 in x.shape:
        raise ShapeError(f"gru: expected x as a {banks + ('B', 'n', d)} stack and h_t as "
                         f"(B, n, {d}), got {x.shape} and {h_t.shape}")
    if p.w_r.value.shape != want or p.w_z.value.shape != want \
            or p.u.value.shape != banks + (d, d):
        raise ShapeError("gru: inconsistent parameter shapes")


def _transposed(m):
    """A map's transpose, with any bank axis lined up with the stacks'."""
    t = m.value.swapaxes(-1, -2)
    return t if t.ndim == 2 else t[:, None]


def gru_forward(p, x, h_t):
    """One cell application to every row of x and h_t, in every bank.
    Returns (h_next, tape), h_next shaped as x."""
    x = np.asarray(x, dtype=np.float64)
    h_t = np.asarray(h_t, dtype=np.float64)
    _check_dims(p, x, h_t)
    d = x.shape[-1]
    xh = np.empty(x.shape[:-1] + (2 * d,))
    xh[..., :d] = x
    xh[..., d:] = h_t
    pre = np.empty((4,) + x.shape)          # a_r, a_z, a_x, a_u
    np.matmul(xh, _transposed(p.w_r), out=pre[0])
    np.matmul(xh, _transposed(p.w_z), out=pre[1])
    np.matmul(x, _transposed(p.w), out=pre[2])
    r = expit(pre[0])
    np.matmul(r * h_t, _transposed(p.u), out=pre[3])
    if not np.isfinite(pre).all():
        raise FloatingPointError("gru: NaN or inf in a gate pre-activation")
    z = expit(pre[1])
    h_tilde = np.tanh(pre[2] + pre[3])
    h_next = z * h_t + (1.0 - z) * h_tilde
    return h_next, GruTape(xh=xh, r=r, z=z, h_tilde=h_tilde)


def gru_backward(p, tape, dh_next):
    """Exact gradients of h_next contracted with dh_next, row by row.

    The backward pass runs on all rows of all scenes of each bank as one
    (B * n, .) matrix: parameter gradients are summed over every row and
    accumulated additively into the Param buffers. Returns (dx, dh_t) as
    stacks shaped as the forward call's x, dh_t per bank.
    """
    dh_next = np.asarray(dh_next, dtype=np.float64)
    d = p.dim
    shape = tape.r.shape
    if dh_next.shape != shape:
        raise ShapeError(f"gru_backward: dh_next has shape {dh_next.shape}, expected {shape}")
    rows = shape[:-3] + (-1,)
    xh, r, z, h_tilde, dh_next = (a.reshape(rows + a.shape[-1:]) for a in
                                  (tape.xh, tape.r, tape.z, tape.h_tilde, dh_next))
    x, h_t = xh[..., :d], xh[..., d:]

    dz = dh_next * (h_t - h_tilde)
    dh_t = dh_next * z
    dh_tilde = dh_next * (1.0 - z)

    # through tanh(W x + U (r*h_t))
    da_h = dh_tilde * (1.0 - h_tilde * h_tilde)
    p.w.grad += da_h.swapaxes(-1, -2) @ x
    dx = da_h @ p.w.value
    drh = da_h @ p.u.value
    p.u.grad += da_h.swapaxes(-1, -2) @ (r * h_t)
    dr = drh * h_t
    dh_t += drh * r

    # through the two sigmoid gates on [x, h_t]
    da_r = dr * r * (1.0 - r)
    da_z = dz * z * (1.0 - z)
    p.w_r.grad += da_r.swapaxes(-1, -2) @ xh
    p.w_z.grad += da_z.swapaxes(-1, -2) @ xh
    dxh = da_r @ p.w_r.value + da_z @ p.w_z.value

    dx += dxh[..., :d]
    dh_t += dxh[..., d:]
    return dx.reshape(shape), dh_t.reshape(shape)
