"""Graph update over detections: learned scalar edges, max-pooled inter-object
messages, a scene memory-cell bank and an edge memory-cell bank, fused per
node and iterated for T time steps.

For node i with feature f_i, one step computes

    e[i][j]  = relu(W_P . R(box_i, box_j)) * tanh(w_v . [f_i, f_j])   (j != i)
    m_i      = elementwise-max over j != i of e[i][j] * f_j
    h_s_i    = gru(scene bank, x=scene_feature, h=f_i)
    h_e_i    = gru(edge bank,  x=m_i,           h=f_i)
    f_i'     = fuse(h_s_i, h_e_i)        # mean (default), max, or concat

W_P is a fixed locality prior, not a learned weight, so the spatial gate
relu(W_P . R) depends on the boxes alone (spatial_gate): a graph may arrive
with it, as training builds the gates of a whole run in bulk before its
first step, and otherwise the first step that needs it computes it once for
the stack. The appearance factor, and with it the edges,
is recomputed from the current features at every step; both banks take the
fused node state of the previous step as their hidden state. Ablation arms
drop one bank and use the remaining output alone. A step makes one GRU call
in every mode, forward and back, on the stack of its mode's banks
(MODE_BANKS, memory_cell's bank axis): with both banks it pools the
messages first and runs the two stacked, scene bank first. The message mode
and the fusion are fixed when the net is built (sin_params) and every step
reads them from its SinParams.

A step runs on a stack of B scenes with n nodes each: node features are
(B, n, d), boxes (B, n, 4), the spatial gate and the edges (B, n, n) and
scene features (B, d). Messages are pooled within each scene only. Every
product keeps its per-scene shape (a stacked matmul runs one product per
scene), so a scene's numbers are bitwise the same whatever it is stacked
with; training runs stacks of one scene.

Only training runs a backward pass, so only its steps record a tape: the
intermediates of both banks and the edges, and the winning sender of each
message coordinate (_integrate_all). Detection's steps record nothing and
pool each message with a running max over the senders (_max_messages),
which needs no (B, n, n, d) product of every pair; both give the same
messages and the same step outputs.
"""

from dataclasses import dataclass

import numpy as np

from .memory_cell import GruTape, gru_backward, gru_forward, gru_init, gru_params
from .numerics import init_param, seed_for

POOLINGS = ("mean", "max", "concat")
SCENE_BANK, EDGE_BANK = "sin/scene_gru", "sin/edge_gru"
# the banks each message mode runs, stacked in this order
MODE_BANKS = {"both": (SCENE_BANK, EDGE_BANK), "scene": (SCENE_BANK,), "edge": (EDGE_BANK,)}
MODES = tuple(MODE_BANKS)

REL_DIM = 12

# The spatial gate's weights over the 12 relation features (_relation_tensor).
# The relu in the edge weight is a hard gate: if W_P . R were negative for the
# bulk of box pairs, every edge would be zero. W_P is a locality prior instead:
# open for pairs within a couple of box widths (positive pull on receiver
# width), closed at long range (negative pull on squared offsets). It stays
# fixed. Edges only pay off once the edge GRU has learned to read messages,
# and that takes longer than SGD needs to discover that closing the gate
# silences early message noise; a gate that trains, even late in the run,
# either slams shut or grows until the messages saturate the GRU. So w_v
# carries the learned part of the edge weight.
W_P = np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.4, -0.4, 0.0, 0.0])
W_P.flags.writeable = False


@dataclass
class SceneGraph:
    """A stack of B per-image graphs of n nodes each: node features, node
    boxes as (cx, cy, w, h) rows, and one scene vector per image. The boxes'
    spatial gate, unless given, is computed by the first step that needs it,
    and is passed on to the graphs that step produces; a graph a step
    produced also holds that step's edges."""

    node_features: np.ndarray      # (B, n, d)
    boxes: np.ndarray              # (B, n, 4)
    scene_feature: np.ndarray      # (B, d)
    gate: np.ndarray = None        # (B, n, n) relu(_relation_tensor(boxes) @ W_P)
    edges: np.ndarray = None       # (B, n, n) edges of the step that produced it, if any

    def __post_init__(self):
        self.node_features = np.asarray(self.node_features, dtype=np.float64)
        self.boxes = np.asarray(self.boxes, dtype=np.float64)
        self.scene_feature = np.asarray(self.scene_feature, dtype=np.float64)
        f, b, s = self.node_features.shape, self.boxes.shape, self.scene_feature.shape
        if len(f) != 3 or b != f[:2] + (4,) or s != (f[0], f[2]):
            raise ValueError(f"graph: node features {f}, boxes {b} and scene features {s} "
                             f"are not a (B, n, d), (B, n, 4), (B, d) stack")


@dataclass
class SinParams:
    """One model's inference net: its message mode (None runs no step), its
    fusion of the two banks' outputs, and the weights they read."""

    mode: str                   # a MODES entry, or None
    pooling: str                # a POOLINGS entry
    gru: object                 # GruParams of MODE_BANKS[mode], stacked; None without a mode
    w_v: object                 # (1, 2d)
    w_a: object = None          # (d, 2d), only under concat fusion


def sin_init(d, seed):
    """Initial inference-net weights as (name, value) pairs in layout order,
    split in two: the scene bank's, then the edge bank's and w_v. A model
    lays its other maps out between the two, so that dropping either bank
    leaves one span, and adds w_a under concat fusion
    (create_detector_params)."""
    # Soft start for the appearance term: early messages are noise,
    # and large ones teach the rest of the net to shut the edges off.
    rest = gru_init(EDGE_BANK, d, seed) + [
        ("sin/w_v", 0.25 * init_param((1, 2 * d), seed_for(seed, "sin/w_v")))]
    return gru_init(SCENE_BANK, d, seed), rest


def sin_params(store, mode, pooling):
    """The SinParams view of a store laid out with sin_init's pairs, run in
    message mode `mode` (None: no step) with fusion `pooling`. The store
    must hold sin/w_a exactly under concat fusion."""
    if mode is not None and mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if pooling not in POOLINGS:
        raise ValueError(f"unknown pooling {pooling!r}; expected one of {POOLINGS}")
    concat = pooling == "concat"
    if ("sin/w_a" in store) != concat:
        raise ValueError(f"{pooling} fusion {'needs' if concat else 'forbids'} sin/w_a")
    return SinParams(mode=mode, pooling=pooling,
                     gru=gru_params(store, *MODE_BANKS[mode]) if mode else None,
                     w_v=store["sin/w_v"], w_a=store["sin/w_a"] if concat else None)


def _relation_tensor(boxes):
    """All-pairs relation vectors of receiver i to sender j within each scene
    of (..., n, 4) center-size rows, R[..., i, j, :] = [w_i, h_i, s_i, w_j,
    h_j, s_j, (x_i-x_j)/w_j, (y_i-y_j)/h_j, (x_i-x_j)^2/w_j^2,
    (y_i-y_j)^2/h_j^2, log(w_i/w_j), log(h_i/h_j)]."""
    boxes = np.asarray(boxes, dtype=np.float64)
    cx, cy, w, h = boxes.reshape(-1, 4).T.copy().reshape((4,) + boxes.shape[:-1])
    s = w * h
    recv, send = (..., slice(None), None), (..., None, slice(None))
    dx = (cx[recv] - cx[send]) / w[send]
    dy = (cy[recv] - cy[send]) / h[send]
    rel = np.empty(dx.shape + (REL_DIM,), dtype=np.float64)
    rel[..., 0] = w[recv]
    rel[..., 1] = h[recv]
    rel[..., 2] = s[recv]
    rel[..., 3] = w[send]
    rel[..., 4] = h[send]
    rel[..., 5] = s[send]
    rel[..., 6] = dx
    rel[..., 7] = dy
    rel[..., 8] = dx * dx
    rel[..., 9] = dy * dy
    rel[..., 10] = np.log(w[recv] / w[send])
    rel[..., 11] = np.log(h[recv] / h[send])
    return rel


@dataclass
class EdgeCache:
    spatial: np.ndarray    # (B, n, n) the stack's spatial gate, shared by its steps
    visual: np.ndarray     # (B, n, n) tanh output
    e: np.ndarray          # (B, n, n), zero diagonal


def _diagonal(a, inner=0):
    """Writable view of the receiver == sender entries of a contiguous array
    whose (receiver, sender) axes are followed by `inner` more axes."""
    lead = a.ndim - 2 - inner
    n = a.shape[lead]
    pairs = a.reshape(a.shape[:lead] + (n * n,) + a.shape[lead + 2:])
    return pairs[(slice(None),) * lead + (slice(None, None, n + 1),)]


def _compute_edges(p, features, gate):
    """e[..., i, j] = gate[..., i, j] * tanh(w_v . [f_i, f_j]) for every
    ordered (receiver, sender) pair of each scene, so |e| <= gate; zero
    diagonal. Features are (..., n, d) and gate the (..., n, n) spatial gate
    relu(W_P . R(box_i, box_j)) of the boxes (spatial_gate)."""
    d = features.shape[-1]
    vi = features @ p.w_v.value[0, :d]
    vj = features @ p.w_v.value[0, d:]
    visual = np.tanh(vi[..., :, None] + vj[..., None, :])
    e = gate * visual
    _diagonal(e)[...] = 0.0
    return EdgeCache(spatial=gate, visual=visual, e=e)


def compute_edges(p, features, gate):
    """The (B, n, n) edge matrices over ordered (receiver, sender) pairs of
    (B, n, d) node features under the (B, n, n) spatial gate of their boxes
    (spatial_gate).

    The diagonal is never used downstream and is held at zero.
    """
    return _compute_edges(p, features, gate).e


def spatial_gate(boxes):
    """The (..., n, n) spatial gate relu(W_P . R(box_i, box_j)) of each
    scene of (..., n, 4) center-size rows. Each scene's gate is its own
    (n, n, 12) by (12,) product, so it is bitwise the same in any stack."""
    return np.maximum(_relation_tensor(boxes) @ W_P, 0.0)


def _gate(g):
    if g.gate is None:
        g.gate = spatial_gate(g.boxes)
    return g.gate


def _edges_backward(p, cache, de, features):
    """Push gradient of the (B, n, n) edge matrices back to w_v and the
    (B, n, d) features. The spatial gate is a constant of the boxes, so no
    gradient flows into it."""
    de = np.array(de, dtype=np.float64)
    _diagonal(de)[...] = 0.0
    dlin_v = de * cache.spatial * (1.0 - cache.visual * cache.visual)
    row = dlin_v.sum(axis=2)   # receiver-side sums, (B, n)
    col = dlin_v.sum(axis=1)   # sender-side sums
    d = features.shape[2]
    flat = features.reshape(-1, d)
    p.w_v.grad[0, :d] += flat.T @ row.reshape(-1)
    p.w_v.grad[0, d:] += flat.T @ col.reshape(-1)
    return row[..., None] * p.w_v.value[0, :d] + col[..., None] * p.w_v.value[0, d:]


def _integrate_all(features, e):
    """Pooled incoming message for every node of every scene: row i of a
    scene is the per-coordinate max over its senders j != i of
    e[i, j] * f_j (ties to the lowest sender index), and a single-node graph
    gets a zero message. Features are (..., n, d) and edges (..., n, n).
    Also returns the winning sender per coordinate for the backward pass;
    a step that runs no backward pass pools with _max_messages instead."""
    n = features.shape[-2]
    if n == 1:
        return np.zeros(features.shape), np.full(features.shape, -1, dtype=np.intp)
    scaled = e[..., :, :, None] * features[..., None, :, :]     # (..., n, n, d)
    _diagonal(scaled, inner=1)[...] = -np.inf
    senders = scaled.argmax(axis=-2)                              # (..., n, d)
    msgs = np.take_along_axis(scaled, senders[..., None, :], axis=-2)[..., 0, :]
    return msgs, senders


def _max_messages(features, e):
    """_integrate_all's messages without its winning senders, as a running
    max over the senders: one (..., n, d) product per sender, so no
    (..., n, n, d) temporary. The values equal _integrate_all's under ==
    and NaN propagates alike, but where the max is a zero its sign may
    differ (np.maximum need not keep the first of two equal zeros).
    Every reader of a message is a matrix product whose sum starts at +0.0,
    so a step's output does not depend on that sign."""
    n = features.shape[-2]
    if n == 1:
        return np.zeros(features.shape)
    msgs = np.full(features.shape, -np.inf)
    scaled = np.empty(features.shape)
    for j in range(n):
        np.multiply(e[..., :, j, None], features[..., None, j, :], out=scaled)
        scaled[..., j, :] = -np.inf
        np.maximum(msgs, scaled, out=msgs)
    return msgs


def _messages_backward(features, e, senders, dmsgs):
    """Subgradient of the per-coordinate max: everything routes to the
    winning sender of the same scene."""
    b, n, d = features.shape
    de = np.zeros((b, n, n))
    dfeat = np.zeros((b, n, d))
    if n == 1:
        return de, dfeat
    # flat indices of e[b, i, senders] and features[b, senders, k], taken
    # and accumulated in (b, i, k) order
    row = np.arange(b)[:, None, None] * n
    at_e = ((row + np.arange(n)[:, None]) * n + senders).reshape(-1)
    at_f = ((row + senders) * d + np.arange(d)).reshape(-1)
    dm = dmsgs.reshape(-1)
    np.add.at(de.reshape(-1), at_e, dm * features.reshape(-1)[at_f])
    np.add.at(dfeat.reshape(-1), at_f, dm * e.reshape(-1)[at_e])
    return de, dfeat


@dataclass
class StepTape:
    features_in: np.ndarray     # (B, n, d)
    gru: GruTape = None         # the step's one GRU call, on SinParams.gru
    edge_cache: EdgeCache = None
    msgs: np.ndarray = None
    senders: np.ndarray = None
    h: np.ndarray = None        # (k, B, n, d) bank outputs, in MODE_BANKS[mode] order
    fused: np.ndarray = None


def _fuse(p, h_scene, h_edge):
    if p.pooling == "mean":
        return (h_scene + h_edge) / 2.0
    if p.pooling == "max":
        # ties resolve to the scene output
        return np.where(h_scene >= h_edge, h_scene, h_edge)
    return np.concatenate([h_scene, h_edge], axis=2) @ p.w_a.value.T


def sin_step_tape(p, g, record):
    """One inference step over a stack of graphs, in p's message mode;
    returns the updated stack and, if `record` (the caller will run
    sin_backward), the tape for backward, else None. A step that records
    pools messages with _integrate_all for its winning senders; one that
    does not pools them with _max_messages and drops its intermediates on
    return. Either way the updated stack carries the step's edges. Each step
    makes one GRU call, on the stack of its mode's banks (SinParams.gru): in
    "both" mode the messages are pooled first. A "scene" step's x is a
    broadcast view of the scene features."""
    feats = g.node_features
    tape = StepTape(features_in=feats)
    if p.mode == "scene":
        x = np.broadcast_to(g.scene_feature[:, None, :], feats.shape)[None]
    else:
        tape.edge_cache = _compute_edges(p, feats, _gate(g))
        if record:
            tape.msgs, tape.senders = _integrate_all(feats, tape.edge_cache.e)
        else:
            tape.msgs = _max_messages(feats, tape.edge_cache.e)
        if p.mode == "edge":
            x = tape.msgs[None]
        else:
            x = np.empty((2,) + feats.shape)
            x[0] = g.scene_feature[:, None, :]
            x[1] = tape.msgs
    tape.h, tape.gru = gru_forward(p.gru, x, feats)
    tape.fused = tape.h[0] if p.mode != "both" else _fuse(p, tape.h[0], tape.h[1])
    out = SceneGraph(node_features=tape.fused, boxes=g.boxes, scene_feature=g.scene_feature,
                     gate=g.gate, edges=None if tape.edge_cache is None else tape.edge_cache.e)
    return out, tape if record else None


def sin_infer_tapes(p, g, steps, record):
    """Iterate sin_step_tape `steps` times; returns the final stack and the
    tapes, one per step if `record` and none otherwise. steps=0, or a net
    with no message mode (the baseline's), returns the graph unchanged."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    tapes = []
    for _ in range(steps if p.mode else 0):
        g, tape = sin_step_tape(p, g, record)
        if record:
            tapes.append(tape)
    return g, tapes


def _banks_backward(p, tape, dfeat):
    """The fusion's and the GRU call's backward pass of one step: the
    gradients on each bank's x (the scene rows, the messages) and on its
    hidden state, as lists over the banks the step ran, scene bank first."""
    b, n, d = dfeat.shape
    if p.mode != "both":
        dh_banks = dfeat[None]
    elif p.pooling == "mean":
        half = dfeat / 2.0
        dh_banks = np.array([half, half])
    elif p.pooling == "max":
        scene_won = tape.h[0] >= tape.h[1]
        dh_banks = np.array([dfeat * scene_won, dfeat * ~scene_won])
    else:
        cat = np.concatenate([tape.h[0], tape.h[1]], axis=2)
        p.w_a.grad += dfeat.reshape(-1, d).T @ cat.reshape(-1, 2 * d)
        dh_banks = (dfeat @ p.w_a.value).reshape(b, n, 2, d).transpose(2, 0, 1, 3)
    dx, dh = gru_backward(p.gru, tape.gru, dh_banks)
    return list(dx), list(dh)


def sin_backward(p, tapes, d_out_features):
    """Reverse-mode pass through all recorded steps.

    Accumulates parameter gradients, summed over the scenes of the stack,
    into the store and returns (d_input_features, d_scene_feature) as
    (B, n, d) and (B, d).
    """
    dfeat = np.array(d_out_features, dtype=np.float64)
    if tapes and dfeat.shape != tapes[-1].fused.shape:
        raise ValueError(
            f"sin_backward: upstream grad shape {dfeat.shape} does not match "
            f"final features {tapes[-1].fused.shape}")
    dscene = None
    for tape in reversed(tapes):
        b, n, d = tape.features_in.shape
        if dscene is None:
            dscene = np.zeros((b, d))
        dx, parts = _banks_backward(p, tape, dfeat)
        if p.mode != "edge":
            dscene += dx[0].sum(axis=1)
        if p.mode != "scene":
            de, dfeat_msg = _messages_backward(tape.features_in, tape.edge_cache.e,
                                               tape.senders, dx[-1])
            parts += [dfeat_msg, _edges_backward(p, tape.edge_cache, de, tape.features_in)]
        dfeat = np.zeros((b, n, d))
        for part in parts:
            dfeat += part
    if dscene is None:
        b, _n, d = dfeat.shape
        dscene = np.zeros((b, d))
    return dfeat, dscene


def relation_report(e, kept):
    """For each kept node, the sender with the strongest edge into it.

    `kept` holds node indices. Returns (node, partner, weight) triples;
    graphs with fewer than two nodes yield an empty report. Ties go to the
    lowest sender index.
    """
    e = np.asarray(e, dtype=np.float64)
    n = e.shape[0]
    if n < 2:
        return []
    report = []
    for i in map(int, kept):
        row = e[i].copy()
        row[i] = -np.inf
        j = int(np.argmax(row))
        report.append((i, j, float(e[i, j])))
    return report
