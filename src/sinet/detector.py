"""Two-stage toy detector over cell grids.

Stage one scores a fixed anchor set with a learned one-layer objectness map
over the mean of each anchor's cells, as a separable box filter of the
projected grid (score_anchors; the objectness gradient is the same filter
transposed), and keeps a fixed number of proposals: the top-scoring anchors
in detection, where no two anchors overlap enough to suppress one another;
in training, the jittered ground truth that survives NMS among itself, then
the top-scoring anchors it does not suppress. Stage two builds a detection
graph over the proposals (node features pooled from covered cells, one
scene node pooled globally), runs the structure inference steps, and reads
class probabilities and per-class box deltas off the final node states.

Anchors, proposals, regression targets and ROIs are (k, 4) center-size rows
(cx, cy, w, h). A scene's ground truth is one structured array
(synth_data.GT_DTYPE) from the sampler to the metrics; its detections are
another (DETECTION_DTYPE), from the detection tail to the metrics and the CSV
writers.
Stage two runs on a stack of B scenes at once (forward_scenes, on a (B, n, 4)
ROI array): node features are (B, n, d) with n = rois_per_image, and each
product keeps its per-scene shape, so a scene's numbers do not depend on what
it is stacked with. Training and `forward` run stacks of one scene and record
the tapes of the inference steps for the backward pass; detect_scenes runs the
proposal stage per scene and stage two, forward only, on chunks of
DETECT_CHUNK scenes. Its tail thresholds the whole chunk's (B, n, K)
probabilities at once, refines and clips every candidate in one call, and
suppresses them with one NMS grouped by (scene, class).

Everything trains end to end with hand-derived gradients, except the proposal
stage: proposals are treated as fixed inputs by the loss (standard two-stage
practice) and the objectness map learns from its own binary target instead.
Only the anchor scores depend on the weights, so a training run plans the
rest of stage one before its first step (plan_training): the scene order,
the scenes, their objectness targets, and the jittered ground truth of every
iteration with its own NMS done. Each step then scores the anchors, takes
its proposals, and runs stage two, both losses and the update.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .geometry import (_sorted_prefix, apply_deltas, centers_to_corners, clip_box,
                       encode_deltas, nms_by_group, pairwise_iou)
from .numerics import ParamStore, derive_seed, init_param, seed_for
from .structure_inference import (POOLINGS, SceneGraph, compute_edges, sin_backward,
                                  sin_infer_tapes, sin_init, sin_params)
from .synth_data import cell_window, sample_at

IOU_POS = 0.5
IOU_NEG = 0.3
PROPOSAL_NMS_THRESH = 0.7
FINAL_NMS_THRESH = 0.3
SMOOTH_L1_THRESH = 1.0
GT_JITTER = 0.25
IGNORE = -1

# No two distinct anchors of any grid overlap past PROPOSAL_NMS_THRESH: the
# largest IoU between them is 0.68990, on every grid (a test pins it). So
# proposal NMS over anchors alone suppresses nothing: detection keeps the
# top-scoring anchors without it, and a training step checks the anchors only
# against the kept injected boxes (_proposals). Scales or ratios that break
# this must bring anchor-to-anchor suppression back into _proposals.
ANCHOR_SCALES = (1.4, 2.2, 3.0)
ANCHOR_RATIOS = (1.0, 1.5)

# Each ablation arm's message mode (structure_inference.MODES); the baseline
# runs no inference step and so exercises no graph parameter.
ARM_MODES = {"baseline": None, "scene": "scene", "edge": "edge", "sin": "both"}
ARMS = tuple(ARM_MODES)

# Scenes per detection stack. Measured on 512 default-world held-out scenes
# (a 400-iteration sin model) with one BLAS thread on a shared 2-core x86
# host, stack sizes interleaved, process CPU time of 11 rounds in each of two
# runs: whole detect_scenes took medians of 0.49-0.54 / 0.42-0.47 / 0.40-0.43
# / 0.38-0.42 ms per scene in stacks of 8 / 16 / 32 / 64, and 64 was fastest
# in 7 and 8 of the 11 rounds, short of the 9 that would justify a change.
# Allocations of detect_scenes peak at 2.2 / 2.6 / 3.4 / 5.0 MB (tracemalloc,
# which counts the detections of all 512 scenes too): stage two holds about
# 50 KB per stacked scene (120 KB while detection kept every step's tape and
# built the (B, n, n, d) message products). So the stack stays at 16: 64's medians
# were 9-11% lower, but not round after round, and it holds twice the memory.
DETECT_CHUNK = 16


class TrainingDiverged(RuntimeError):
    def __init__(self, iteration):
        self.iteration = iteration
        super().__init__(f"loss became non-finite at iteration {iteration}")


@dataclass
class TrainConfig:
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    iters: int = 2000
    rois_per_image: int = 16
    T: int = 2
    pooling: str = "mean"
    seed: int = 0
    feat_dim: int = 16


def validate_config(cfg):
    if not (0.0 < cfg.lr < math.inf):
        raise ValueError("lr must be positive and finite")
    if not (0.0 <= cfg.momentum < 1.0):
        raise ValueError("momentum must be in [0, 1)")
    if not (0.0 <= cfg.weight_decay < math.inf):
        raise ValueError("weight_decay must be >= 0 and finite")
    if cfg.iters < 1:
        raise ValueError("iters must be >= 1")
    if cfg.rois_per_image < 1:
        raise ValueError("rois_per_image must be >= 1")
    if cfg.T < 0:
        raise ValueError("T must be >= 0")
    if cfg.pooling not in POOLINGS:
        raise ValueError(f"unknown pooling {cfg.pooling!r}; expected one of {POOLINGS}")
    if cfg.feat_dim < 1:
        raise ValueError("feat_dim must be >= 1")
    return cfg


def arm_plan(arm, cfg):
    """Map an ablation arm onto (message mode, inference steps). The
    baseline runs zero steps, so its mode is never read; it gets "both"."""
    if arm not in ARM_MODES:
        raise ValueError(f"unknown arm {arm!r}; expected one of {ARMS}")
    mode = ARM_MODES[arm]
    return (mode, cfg.T) if mode else ("both", 0)


# ---------------------------------------------------------------------------
# parameters

@dataclass
class DetectorParams:
    feat_proj: object        # (d, C) shared cell-feature projection
    cls_head: object         # (K+1, d)
    reg_head: object         # (4K, d)
    objectness: object       # (num anchor types, C)
    sin: object


def create_detector_params(store, channels, num_categories, d, seed, pooling="mean"):
    """Lay the whole model out in the empty `store` (ParamStore.lay_out): the
    scene bank, the det/ maps, then the edge bank, w_v and w_a, so every
    arm's active parameters (active_param_names) are one span of the
    store's buffers. Init is keyed by (seed, full name)."""
    def init(name, shape):
        return name, init_param(shape, seed_for(seed, name))

    num_types = len(ANCHOR_SCALES) * len(ANCHOR_RATIOS)
    scene, rest = sin_init(d, seed, pooling)
    store.lay_out(scene + [init("det/feat_proj", (d, channels)),
                           init("det/cls_head", (num_categories + 1, d)),
                           init("det/reg_head", (4 * num_categories, d)),
                           init("det/objectness", (num_types, channels))] + rest)
    return DetectorParams(feat_proj=store["det/feat_proj"], cls_head=store["det/cls_head"],
                          reg_head=store["det/reg_head"], objectness=store["det/objectness"],
                          sin=sin_params(store))


def active_param_names(params, arm):
    """Parameters the given arm actually exercises; everything else must see
    exactly zero gradient (including weight decay). They depend on the arm
    alone, not on T: at T = 0 a graph arm's banks still take weight decay."""
    names = [params.feat_proj.name, params.cls_head.name,
             params.reg_head.name, params.objectness.name]
    mode = ARM_MODES[arm]
    if mode in ("scene", "both"):
        names += [e.name for e in params.sin.scene_gru.entries()]
    if mode in ("edge", "both"):
        names += [e.name for e in params.sin.edge_gru.entries()]
        names.append(params.sin.w_v.name)
    if mode == "both" and params.sin.w_a is not None:
        names.append(params.sin.w_a.name)
    return sorted(names)


# ---------------------------------------------------------------------------
# anchors and proposals

@dataclass
class AnchorSet:
    centers: np.ndarray      # (A, 4) center-size rows
    corners: np.ndarray      # (A, 4) the same anchors as corner rows
    area: np.ndarray         # (A,) (x2 - x1) * (y2 - y1) of each corner row
    x_extent: np.ndarray     # (W, T, 2) x1, x2 of the anchors of each column and type
    y_extent: np.ndarray     # (H, T, 2) y1, y2 of the anchors of each row and type
    row_cover: np.ndarray    # (T, H, H) [t, r, r'] 1.0 where type t at row r covers row r'
    col_cover: np.ndarray    # (T, W, W) [t, c, c'] the same for columns
    count: np.ndarray        # (T, H, W) cells in each anchor's window, as floats


_ANCHOR_CACHE = {}


def _cover(lo, hi, n):
    """(T, k, n) 0/1 matrix of the half-open (T, k) windows [lo, hi) of n cells."""
    cells = np.arange(n)
    return ((lo[..., None] <= cells) & (cells < hi[..., None])).astype(np.float64)


def anchor_set(height, width):
    """All anchors for a grid, centered on cell centers, enumerated row-major
    by cell then by (scale, ratio). Anchors may overhang the grid edges.

    An anchor's covered cells (cell_window, the rule ROI pooling uses) are a
    row window that depends only on its row and type times a column window
    that depends only on its column and type, so they are cached per axis:
    row_cover[t, r, r'] is 1.0 when an anchor of row r and type t covers row
    r', col_cover likewise for columns, and count[t, r, c] is the cells of
    the anchor of cell (r, c) and type t. Each anchor covers at least its own
    cell center, so no count is zero. The x- and y-extents are cached per
    axis too. The cached arrays are shared by every caller, so they are
    read-only."""
    hit = _ANCHOR_CACHE.get((height, width))
    if hit is not None:
        return hit
    sizes = [(s * math.sqrt(ratio), s / math.sqrt(ratio))
             for s in ANCHOR_SCALES for ratio in ANCHOR_RATIOS]
    centers = np.array([(c + 0.5, r + 0.5, aw, ah)
                        for r in range(height) for c in range(width) for aw, ah in sizes])
    corners = centers_to_corners(centers)
    grid = corners.reshape(height, width, len(sizes), 4)
    # the row windows of column 0's anchors and the column windows of row 0's
    r0, r1 = np.array([cell_window(row, height, width)[:2]
                       for row in grid[:, 0].reshape(-1, 4).tolist()]).reshape(height, -1, 2).T
    c0, c1 = np.array([cell_window(row, height, width)[2:]
                       for row in grid[0].reshape(-1, 4).tolist()]).reshape(width, -1, 2).T
    out = AnchorSet(centers=centers, corners=corners,
                    area=(corners[:, 2] - corners[:, 0]) * (corners[:, 3] - corners[:, 1]),
                    x_extent=grid[0, :, :, 0::2].copy(), y_extent=grid[:, 0, :, 1::2].copy(),
                    row_cover=_cover(r0, r1, height), col_cover=_cover(c0, c1, width),
                    count=((r1 - r0)[:, :, None] * (c1 - c0)[:, None, :]).astype(np.float64))
    for arr in vars(out).values():
        arr.flags.writeable = False
    _ANCHOR_CACHE[height, width] = out
    return out


def score_anchors(params, sample):
    """The grid's anchor set and its (A,) objectness scores, in anchor order.

    An anchor's score is its type's row of the objectness map applied to the
    mean of the cells it covers. Projection and mean commute, so the grid is
    projected first, one (H, W) map per type, and each map is box-summed by
    its type's cover matrices, row_cover @ map @ col_cover^T, then divided by
    the cell counts: no per-anchor feature is formed. A NaN cell makes every
    anchor that covers it score NaN, and an inf cell makes them score inf or
    NaN; others may turn NaN too, where BLAS multiplies a cover matrix's
    zeros by it. Proposals and the objectness loss of one training iteration
    share one call: both read the same grid and parameters."""
    h, w, c = sample.grid.shape
    anchors = anchor_set(h, w)
    maps = (params.objectness.value @ sample.grid.reshape(-1, c).T).reshape(-1, h, w)
    sums = anchors.row_cover @ maps @ anchors.col_cover.transpose(0, 2, 1)
    sums /= anchors.count
    return anchors, sums.transpose(1, 2, 0).reshape(-1)


def propose(params, sample, cfg):
    """Detection's cfg.rois_per_image proposals, as (n, 4) center-size rows:
    the anchors ranked by the objectness map (_proposals with no injected
    box). Detection never reads the ground truth."""
    anchors, scores = score_anchors(params, sample)
    return _proposals(anchors, scores, _NO_BOXES, cfg.rois_per_image)


_NO_BOXES = (np.empty((0, 4)), np.empty((0, 4)))


def _proposals(anchors, scores, kept, n):
    """Exactly n proposals, as (n, 4) center-size rows: the m <= n injected
    boxes `kept` (a (center rows, corner rows) pair, see _injected_boxes),
    then the anchors in the stable descending order of `scores` that no
    kept box overlaps past PROPOSAL_NMS_THRESH (a NaN overlap suppresses),
    until there are n. Too few are padded by cycling through them in order.

    This is greedy NMS over the kept boxes followed by the anchors, ranked
    the same way: no two anchors overlap enough to suppress one another (see
    ANCHOR_SCALES), so only a kept box can suppress an anchor. Only a prefix
    of the score order is sorted (_sorted_prefix): n when nothing is kept,
    else 2n, widened to the full order when its survivors run short."""
    centers, corners = kept
    m = len(centers)
    neg = -scores
    order = _sorted_prefix(neg, 2 * n if m else n)
    while True:
        picks = order
        if m:
            over = pairwise_iou(corners, anchors.corners[order]) <= PROPOSAL_NMS_THRESH
            picks = order[over.all(axis=0)]
        if len(picks) >= n - m or len(order) == len(neg):
            break
        order = np.argsort(neg, kind="stable")
    rows = anchors.centers[picks[:n - m]]
    if m:
        rows = np.concatenate([centers, rows])
    return np.resize(rows, (n, 4))


# ---------------------------------------------------------------------------
# target assignment

def assign_targets(props, gt, num_categories):
    """Per-ROI class targets and regression targets for the (n, 4) center-size
    rows `props` against the GT_DTYPE rows `gt`.

    IoU >= IOU_POS against some gt makes a ROI positive for the best gt;
    IoU < IOU_NEG makes it background; in between it is ignored. Each gt also
    forces its best-overlapping ROI positive so no object goes unsupervised.
    Returns (labels, deltas): an (n,) array of categories, background (= num
    categories) or IGNORE, and the (n, 4) deltas onto each positive's gt,
    zero on every other row.
    """
    n = len(props)
    labels = np.full(n, num_categories, dtype=np.intp)
    deltas = np.zeros((n, 4))
    if len(gt) == 0:
        return labels, deltas
    gc = gt["box"]
    ious = pairwise_iou(centers_to_corners(props), centers_to_corners(gc))   # (P, G)
    best_gt = ious.argmax(axis=1)
    best_iou = ious[np.arange(n), best_gt]
    assigned = np.where(best_iou >= IOU_POS, best_gt, -1)
    labels[~(best_iou < IOU_NEG)] = IGNORE
    for g in range(len(gt)):                     # forced matches, ties to lowest ROI
        p = int(ious[:, g].argmax())
        if ious[p, g] > 0.0:
            assigned[p] = g
    pos = assigned >= 0
    labels[pos] = gt["category"][assigned[pos]]
    deltas[pos] = encode_deltas(props[pos], gc[assigned[pos]])
    return labels, deltas


# ---------------------------------------------------------------------------
# features and the forward pass

@dataclass
class ForwardState:
    """Stage two over a stack of B scenes of n ROIs each."""

    node_avg: np.ndarray        # (B, n, C) pooled cell vectors
    features0: np.ndarray       # (B, n, d) initial node features
    scene_avg: np.ndarray       # (B, C)
    scene_feature0: np.ndarray  # (B, d)
    graph_out: SceneGraph = None  # its boxes are the (B, n, 4) ROI rows
    tapes: list = field(default_factory=list)   # per-step tapes; none in detection
    logits: np.ndarray = None   # (B, n, K+1)
    probs: np.ndarray = None    # (B, n, K+1) softmax rows
    deltas: np.ndarray = None   # (B, n, K, 4) per-class refinements
    edges: np.ndarray = None    # (B, n, n) last-step edges; None when no step computed them


def _softmax_rows(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


_EDGE_SIGN = np.array([[-1.0], [1.0]])   # low and high edges of a center-size row


def _pool_rois(samples, boxes):
    """(B, n, C) ROI features: for each center-size row of the (B, n, 4)
    `boxes`, the mean of the cells of its scene whose centers it covers
    (cell_window's rule, on the scene's own grid), or of the single nearest
    cell center when it covers none (ties go row-major first; a NaN row
    pools cell (0, 0)).

    One gather for the whole stack: the scenes' (h*w, C) cell rows are
    stacked over one -0.0 pad row, and each ROI's window is laid out
    row-major in a (max rows, max cols) block of indices, padded with the pad
    row. -0.0 is the exact additive identity (s + -0.0 == s for every s), so
    each block sums to its window's cells added one by one in row-major
    order, as a slice mean adds them, and is then divided by the cell count.
    That order relies on C >= 2 (validate_world requires it): numpy then adds
    along axis 1 one cell at a time, where with C == 1 it sums pairwise."""
    n, c = boxes.shape[1], samples[0].grid.shape[2]
    rows = boxes.reshape(-1, 4)
    shapes = [sample.grid.shape for sample in samples]
    lim = np.repeat([(w, h) for h, w, _ in shapes], n, axis=0)          # (B*n, 2) w, h
    # cell_window on arrays, x first: the cell centers i + 0.5 below each
    # low and high edge (cx - w/2 == cx + -w/2 exactly); a NaN edge stays NaN,
    # so its window counts as empty
    edges = rows[:, None, :2] + _EDGE_SIGN * rows[:, None, 2:] / 2.0
    win = np.minimum(np.maximum(np.ceil(edges - 0.5), 0.0), lim[:, None])
    ext = win[:, 1] - win[:, 0]
    empty = ~(ext > 0.0).all(axis=1)
    if empty.any():
        # the nearest cell center per axis, past each grid's edge inf away
        size = lim[empty]
        span = np.arange(size.max())
        dist = np.abs(span + 0.5 - rows[empty, :2, None])
        dist[span >= size[:, :, None]] = np.inf
        win[empty, 0] = dist.argmin(axis=2)
        ext[empty] = 1.0
    lo = win[:, 0].astype(np.intp)
    ext = ext.astype(np.intp)
    width = lim[:, 0]
    # each window's first cell in the stacked (sum of h w, C) cell rows
    first = np.repeat(np.cumsum([0] + [h * w for h, w, _ in shapes[:-1]]), n)
    first += lo[:, 1] * width + lo[:, 0]
    col = np.arange(ext[:, 0].max())
    row = np.arange(ext[:, 1].max())[:, None]
    index = first[:, None, None] + row * width[:, None, None] + col
    index[(row >= ext[:, 1, None, None]) | (col >= ext[:, 0, None, None])] = -1   # the pad row
    cells = np.concatenate([sample.grid.reshape(-1, c) for sample in samples]
                           + [np.full((1, c), -0.0)])
    sums = cells.take(index.reshape(len(rows), -1), axis=0).sum(axis=1)
    sums /= (ext[:, 0] * ext[:, 1])[:, None]
    return sums.reshape(boxes.shape[:2] + (c,))


def forward_scenes(params, samples, boxes, cfg, mode, steps, record):
    """Stage two over a stack of scenes: pool each scene's ROIs (boxes is a
    (B, n, 4) array whose boxes[b] holds the center-size rows of samples[b]),
    run `steps` inference steps in `mode` and apply both heads. Returns the
    forward state; it holds the inference steps' tapes, which the backward
    pass needs, only if `record`."""
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.ndim != 3 or boxes.shape[0] != len(samples) or boxes.shape[2] != 4:
        raise ValueError(f"forward_scenes: {len(samples)} scenes need a ({len(samples)}, n, 4) "
                         f"ROI array, got shape {boxes.shape}")
    node_avg = _pool_rois(samples, boxes)
    features0 = np.tanh(node_avg @ params.feat_proj.value.T)
    scene_avg = np.array([sample.grid.mean(axis=(0, 1)) for sample in samples])
    # one (d, C) by (C,) product per scene, the same as for a lone scene
    scene0 = np.tanh(np.matmul(params.feat_proj.value, scene_avg[:, :, None])[:, :, 0])

    graph = SceneGraph(node_features=features0, boxes=boxes, scene_feature=scene0)
    graph_out, tapes = sin_infer_tapes(params.sin, graph, steps=steps,
                                       pooling=cfg.pooling, mode=mode, record=record)
    feats = graph_out.node_features
    logits = feats @ params.cls_head.value.T
    deltas = (feats @ params.reg_head.value.T).reshape(*boxes.shape[:2], -1, 4)
    return ForwardState(node_avg=node_avg, features0=features0,
                        scene_avg=scene_avg, scene_feature0=scene0,
                        graph_out=graph_out, tapes=tapes, logits=logits,
                        probs=_softmax_rows(logits), deltas=deltas, edges=graph_out.edges)


def forward(params, sample, cfg, boxes, mode, steps):
    """forward_scenes on the one-scene stack of this sample and its (n, 4)
    center-size ROI rows `boxes`, recording the tapes detector_backward
    needs."""
    return forward_scenes(params, [sample], np.asarray(boxes)[None], cfg, mode, steps,
                          record=True)


# ---------------------------------------------------------------------------
# loss

def smooth_l1(u):
    a = np.abs(u)
    return np.where(a < SMOOTH_L1_THRESH, 0.5 * u * u, a - 0.5 * SMOOTH_L1_THRESH)


def smooth_l1_grad(u):
    return np.where(np.abs(u) < SMOOTH_L1_THRESH, u, np.sign(u))


@dataclass
class LossGrads:
    dlogits: np.ndarray
    ddeltas: np.ndarray
    parts: dict


def multi_task_loss(probs, deltas, labels, target_deltas):
    """Classification cross-entropy (mean over non-ignored ROIs) plus
    smooth-L1 regression averaged over the 4 * positives components, for one
    scene's (n, K+1) probs and (n, K, 4) deltas against assign_targets'
    (n,) labels and (n, 4) target deltas. Only the target class's deltas
    receive gradient. Returns (loss, grads) with grads expressed against the
    raw logits and the delta tensor."""
    n, k1 = probs.shape
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (n,) or np.shape(target_deltas) != (n, 4):
        raise ValueError(f"{n} ROIs but {labels.shape} labels and {np.shape(target_deltas)} deltas")
    valid = np.where(labels != IGNORE)[0]
    dlogits = np.zeros_like(probs)
    cls_loss = 0.0
    if valid.size:
        p_true = probs[valid, labels[valid]]
        cls_loss = float(-np.log(p_true).sum() / valid.size)
        dlogits[valid] = probs[valid]
        dlogits[valid, labels[valid]] -= 1.0
        dlogits[valid] /= valid.size

    ddeltas = np.zeros_like(deltas)
    reg_loss = 0.0
    pos = valid[labels[valid] < k1 - 1]
    if pos.size:
        denom = 4.0 * pos.size
        u = deltas[pos, labels[pos]] - target_deltas[pos]          # (P, 4)
        # each row's four-term sum, then the rows added one at a time, in order
        acc = float(np.add.accumulate(smooth_l1(u).sum(axis=1))[-1])
        ddeltas[pos, labels[pos]] = smooth_l1_grad(u) / denom
        reg_loss = acc / denom

    loss = cls_loss + reg_loss
    return loss, LossGrads(dlogits=dlogits, ddeltas=ddeltas,
                           parts={"cls": cls_loss, "reg": reg_loss})


def detector_backward(params, state, grads):
    """Push one scene's head gradients through the inference steps and the
    feature projection, accumulating into the parameter store. `state` is
    the one-scene stack that `forward` returns. Proposal boxes are constants
    here. Returns the (n, d) gradient on the initial node features."""
    b, n = state.logits.shape[:2]
    if b != 1:
        raise ValueError(f"detector_backward: expected a one-scene stack, got {b} scenes")
    feats = state.graph_out.node_features[0]
    params.cls_head.grad += grads.dlogits.T @ feats
    dfeats = grads.dlogits @ params.cls_head.value
    dd = grads.ddeltas.reshape(n, -1)
    params.reg_head.grad += dd.T @ feats
    dfeats = dfeats + dd @ params.reg_head.value

    dfeat0, dscene = sin_backward(params.sin, state.tapes, dfeats[None])
    da = (1.0 - state.features0[0] ** 2) * dfeat0[0]
    params.feat_proj.grad += da.T @ state.node_avg[0]
    ds = (1.0 - state.scene_feature0[0] ** 2) * dscene[0]
    params.feat_proj.grad += np.outer(ds, state.scene_avg[0])
    return dfeat0[0]


def apply_weight_decay(store, names, wd):
    """L2 term 0.5 * wd * ||p||^2 per named parameter of a laid-out store,
    summed over them in the order given; adds wd * p to their gradients, one
    numpy call per span of them in the store's buffers (ParamStore.spans).
    Each ||p||^2 adds up the parameter's slice of the squared value buffer,
    in the order a sum over the contiguous parameter itself takes."""
    if wd == 0.0:
        return 0.0
    squares = store.values ** 2
    loss = 0.0
    for name in names:
        loss += 0.5 * wd * float(np.add.reduce(squares[store.span(name)]))
    for span in store.spans(names):
        store.grads[span] += wd * store.values[span]
    return loss


# ---------------------------------------------------------------------------
# objectness supervision (proposal stage)

OBJ_IOU_POS = 0.4
OBJ_IOU_NEG = 0.25
# proposal recall is the pipeline bottleneck, so the auxiliary objectness
# term gets extra weight relative to the per-ROI losses
OBJ_LOSS_WEIGHT = 4.0
# fraction of training spent with the graph disabled: messages computed from
# untrained features are pure noise, and the cheapest way for SGD to remove
# that noise is to slam the edge gate shut for good. Let the appearance
# features settle first, then switch the graph on.
GRAPH_WARMUP_FRAC = 0.25


class ObjectnessTargets(NamedTuple):
    """One scene's binary anchor labels, compactly: the positive and the
    ignored anchor indices (every other anchor is negative) and the weight
    of each positive and each negative."""

    pos: np.ndarray
    ignored: np.ndarray
    w_pos: float
    w_neg: float


def _anchor_targets(anchors, gt):
    """Binary anchor labels: 1 over OBJ_IOU_POS, 0 under OBJ_IOU_NEG, ignore
    between; every gt forces its best anchor positive (ties to the lowest
    anchor index, anchor 0 for a gt that meets none). The band is looser
    than the ROI one: anchors sit on a unit-stride grid, so demanding 0.5
    overlap would leave most objects with a single forced positive.
    Positives and negatives get half the loss each (each positive weighs
    0.5 / positives, each negative 0.5 / negatives), otherwise the handful
    of positives would drown in ~1500 negatives.

    The (G, A) IoUs come from per-axis overlaps: (G, W, T) along x times
    (G, H, T) along y, then pairwise_iou's division, so each is bitwise
    pairwise_iou's for its (anchor, gt) pair."""
    a = len(anchors.corners)
    if len(gt) == 0:
        return ObjectnessTargets(np.empty(0, np.intp), np.empty(0, np.intp), 0.0, 0.5 / a)
    gc = centers_to_corners(gt["box"])
    g = gc[:, None, None]                  # (G, 1, 1, 4) against (W or H, T) extents
    xe, ye = anchors.x_extent, anchors.y_extent
    ix = np.maximum(0.0, np.minimum(xe[..., 1], g[..., 2]) - np.maximum(xe[..., 0], g[..., 0]))
    iy = np.maximum(0.0, np.minimum(ye[..., 1], g[..., 3]) - np.maximum(ye[..., 0], g[..., 1]))
    inter = (ix[:, None] * iy[:, :, None]).reshape(len(gc), a)           # (G, H, W, T) flat
    area_g = (gc[:, 2] - gc[:, 0]) * (gc[:, 3] - gc[:, 1])
    ious = inter / (area_g[:, None] + anchors.area - inter)              # (G, A)
    best = ious.max(axis=0)
    pos = best >= OBJ_IOU_POS
    pos[ious.argmax(axis=1)] = True
    pos, ignored = np.flatnonzero(pos), np.flatnonzero((best >= OBJ_IOU_NEG) & ~pos)
    neg = a - len(pos) - len(ignored)
    return ObjectnessTargets(pos, ignored, 0.5 / len(pos), 0.5 / neg if neg else 0.0)


def objectness_loss(params, sample, scored, targets):
    """Binary cross-entropy of the anchor scores against the scene's
    objectness targets (_anchor_targets), its gradient accumulated into the
    objectness map; the only supervision the proposal scores receive.
    `scored` is score_anchors' result for this sample and params. The
    labels and weights are laid out over every anchor, and the loss sums
    all of them.

    The gradient is score_anchors' box filter transposed: each type's (H, W)
    score gradients over the cell counts, spread back onto the cells by
    row_cover^T @ . @ col_cover, then one (T, H*W) by (H*W, C) product with
    the grid. A non-finite cell makes the loss and the gradient non-finite
    (see score_anchors), which train reports as divergence."""
    anchors, s = scored
    y = np.zeros_like(s)
    y[targets.pos] = 1.0
    weights = np.full_like(s, targets.w_neg)
    weights[targets.ignored] = 0.0
    weights[targets.pos] = targets.w_pos
    bce = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    ds = OBJ_LOSS_WEIGHT * weights * (expit(s) - y)
    h, w, c = sample.grid.shape
    per_type = ds.reshape(h, w, -1).transpose(2, 0, 1) / anchors.count
    cells = anchors.row_cover.transpose(0, 2, 1) @ per_type @ anchors.col_cover
    params.objectness.grad += cells.reshape(len(cells), -1) @ sample.grid.reshape(-1, c)
    return OBJ_LOSS_WEIGHT * float((weights * bce).sum())


# ---------------------------------------------------------------------------
# training

# Training iterations per pass of _injected_boxes' bulk arithmetic, which
# bounds its temporaries on long runs.
PLAN_CHUNK = 4096


def _injected_boxes(samples, rng, n):
    """The injected ground truth of a run of training iterations, one per
    scene of `samples`, in order. Each scene's gt boxes are jittered by
    apply_deltas with GT_JITTER-scaled normal draws from `rng`, one (G, 4)
    block per iteration in turn (none for a scene without gt), and clipped
    to its grid. Then greedy NMS at PROPOSAL_NMS_THRESH runs among each
    iteration's boxes alone, in gt order (they tie above every anchor), and
    keeps at most n of them.

    Returns (centers, corners, bounds): the kept boxes of every iteration as
    (R, 4) center-size and corner rows, iteration i's being rows
    bounds[i]:bounds[i + 1]. The arithmetic runs in bulk, PLAN_CHUNK
    iterations at a time; every operation is elementwise or per group, so
    the boxes are bitwise those of one iteration at a time."""
    centers, counts = [np.empty((0, 4))], [np.zeros(1, np.intp)]
    for start in range(0, len(samples), PLAN_CHUNK):
        chunk = samples[start:start + PLAN_CHUNK]
        sizes = [len(sample.gt) for sample in chunk]
        group = np.repeat(np.arange(len(chunk)), sizes)
        hw = np.repeat([sample.grid.shape[:2] for sample in chunk], sizes, axis=0)
        boxes = np.concatenate([sample.gt["box"] for sample in chunk])
        boxes = clip_box(apply_deltas(boxes, rng.normal(0.0, GT_JITTER, size=boxes.shape)),
                         hw[:, 1], hw[:, 0])
        keep = nms_by_group(centers_to_corners(boxes), np.zeros(len(boxes)), group,
                            PROPOSAL_NMS_THRESH)
        g = group[keep]                     # keep runs by group, each in gt order
        keep = keep[np.arange(len(keep)) - np.searchsorted(g, g) < n]
        centers.append(boxes[keep])
        counts.append(np.bincount(group[keep], minlength=len(chunk)))
    centers = np.concatenate(centers)
    return centers, centers_to_corners(centers), np.cumsum(np.concatenate(counts))


@dataclass
class TrainPlan:
    """What a training run's stage one does not learn, for every iteration:
    its scene, the scene's objectness targets and the injected boxes that
    survive their own NMS (_injected_boxes' centers, corners and bounds)."""

    scenes: list             # the SceneSample of each iteration
    targets: list            # its ObjectnessTargets, one object per scene
    centers: np.ndarray
    corners: np.ndarray
    bounds: np.ndarray

    def kept(self, it):
        """Iteration it's kept injected boxes, as _proposals takes them."""
        lo, hi = self.bounds[it], self.bounds[it + 1]
        return self.centers[lo:hi], self.corners[lo:hi]


def plan_training(world, cfg, n_train, data_seed):
    """The weight-independent stage-one work of a training run, done once
    before its first step. The order draws one permutation of the n_train
    scenes from the shuffle stream per pass over them; each scene it uses
    is sampled once and labelled once (an n_train < iters run revisits
    them), and the gt-jitter stream covers every iteration's ground truth
    in iteration order (_injected_boxes). The draws are those a
    scene-by-scene loop would make, so the plan is bitwise the same."""
    shuffle_rng = np.random.default_rng(seed_for(cfg.seed, "shuffle"))
    jitter_rng = np.random.default_rng(seed_for(cfg.seed, "gt-jitter"))
    passes = -(-cfg.iters // n_train)
    order = np.concatenate([shuffle_rng.permutation(n_train) for _ in range(passes)])[:cfg.iters]
    seen = {}
    for idx in order.tolist():
        if idx not in seen:
            sample = sample_at(world, data_seed, idx)
            seen[idx] = sample, _anchor_targets(anchor_set(*sample.grid.shape[:2]), sample.gt)
    scenes, targets = zip(*(seen[idx] for idx in order.tolist()))
    return TrainPlan(list(scenes), list(targets),
                     *_injected_boxes(scenes, jitter_rng, cfg.rois_per_image))


@dataclass
class TrainResult:
    store: ParamStore
    params: DetectorParams
    losses: list
    arm: str
    config: TrainConfig


def train(world, cfg, arm="sin", n_train=None, data_seed=None, callback=None):
    """SGD with momentum over scenes drawn from the world.

    All randomness descends from cfg.seed through fixed stream labels, so a
    rerun is bitwise identical; passing the same data_seed to different arms
    shows every arm the same scenes in the same shuffled order. The plan
    (plan_training) does every weight-independent part of stage one before
    the first step; a step scores the anchors, takes its proposals
    (_proposals over the plan's kept boxes), runs stage two and both losses,
    and updates the weights.
    """
    validate_config(cfg)
    mode, steps = arm_plan(arm, cfg)
    if n_train is None:
        n_train = cfg.iters
    if data_seed is None:
        data_seed = derive_seed(cfg.seed, "data")
    init_seed = derive_seed(cfg.seed, "init")

    store = ParamStore()
    params = create_detector_params(store, world.channels, world.num_categories,
                                    cfg.feat_dim, init_seed, cfg.pooling)
    # only the active parameters see gradient, so only they are updated; the
    # rest keep zero gradient and stay bitwise at their init. They are one
    # span of the store's buffers, so each update is one numpy call over it.
    active = active_param_names(params, arm)
    (span,) = store.spans(active)
    active_values, active_grads = store.values[span], store.grads[span]
    velocity = np.zeros_like(active_values)

    plan = plan_training(world, cfg, n_train, data_seed)
    losses = []
    drop_at = int(0.7 * cfg.iters)
    warmup = int(GRAPH_WARMUP_FRAC * cfg.iters) if steps else 0
    for it in range(cfg.iters):
        sample = plan.scenes[it]
        active_grads[...] = 0.0
        scored = score_anchors(params, sample)
        props = _proposals(*scored, plan.kept(it), cfg.rois_per_image)
        labels, target_deltas = assign_targets(props, sample.gt, world.num_categories)
        state = forward(params, sample, cfg, boxes=props, mode=mode,
                        steps=steps if it >= warmup else 0)
        loss, grads = multi_task_loss(state.probs[0], state.deltas[0], labels, target_deltas)
        detector_backward(params, state, grads)
        loss += objectness_loss(params, sample, scored, plan.targets[it])
        loss += apply_weight_decay(store, active, cfg.weight_decay)
        if not np.isfinite(loss):
            raise TrainingDiverged(it)

        lr = cfg.lr * (0.1 if it >= drop_at else 1.0)
        velocity *= cfg.momentum
        velocity -= lr * active_grads
        active_values += velocity
        losses.append(loss)
        if callback is not None:
            callback(it, loss)
    return TrainResult(store=store, params=params, losses=losses, arm=arm, config=cfg)


# ---------------------------------------------------------------------------
# inference

# One row per kept detection: its refined, clipped center-size box, its class,
# its class probability and the index of the ROI (graph node) it refines.
DETECTION_DTYPE = np.dtype([("box", np.float64, (4,)), ("category", np.intp),
                            ("score", np.float64), ("roi", np.intp)])


def _detect_stack(params, samples, cfg, score_thresh, arm):
    """Proposals per scene, stage two once over the stack, then the tail on
    the whole stack: every (scene, class, ROI) score that clears the
    threshold is refined and clipped to its scene's grid, and all of them
    go through one NMS grouped by (scene, class). Returns the detections
    of each scene, a DETECTION_DTYPE array sorted by class, then score
    descending, then box, and the stack's forward state, which holds no
    tapes. A scene's detections do not depend on its stack or on ROI order
    (modulo exact score ties)."""
    mode, steps = arm_plan(arm, cfg)
    boxes = np.array([propose(params, sample, cfg) for sample in samples])
    state = forward_scenes(params, samples, boxes, cfg, mode=mode, steps=steps, record=False)
    k = state.deltas.shape[2]
    # by scene, then class, then ROI
    scene, cats, rois = np.nonzero(state.probs[:, :, :k].transpose(0, 2, 1) >= score_thresh)
    scores = state.probs[scene, rois, cats]
    hw = np.array([sample.grid.shape[:2] for sample in samples], dtype=np.float64)[scene]
    refined = clip_box(apply_deltas(boxes[scene, rois], state.deltas[scene, rois, cats]),
                       hw[:, 1], hw[:, 0])
    keep = nms_by_group(centers_to_corners(refined), scores, scene * k + cats,
                        FINAL_NMS_THRESH)
    r = refined[keep]
    keep = keep[np.lexsort((r[:, 3], r[:, 2], r[:, 1], r[:, 0], -scores[keep], cats[keep],
                            scene[keep]))]
    dets = np.empty(len(keep), DETECTION_DTYPE)
    dets["box"], dets["category"] = refined[keep], cats[keep]
    dets["score"], dets["roi"] = scores[keep], rois[keep]
    return np.split(dets, np.searchsorted(scene[keep], np.arange(1, len(samples)))), state


def detect_scenes(params, samples, cfg, score_thresh=0.05, arm="sin"):
    """Final detections for each scene, one DETECTION_DTYPE array per sample
    (see _detect_stack). Stage two runs on stacks of DETECT_CHUNK scenes; a
    scene's detections are the same in any stack, alone or not."""
    dets = []
    for start in range(0, len(samples), DETECT_CHUNK):
        dets += _detect_stack(params, samples[start:start + DETECT_CHUNK], cfg,
                              score_thresh, arm)[0]
    return dets


def detect(params, samples, cfg, score_thresh=0.05, arm="sin"):
    """Final detections of one stack of scenes, one DETECTION_DTYPE array per
    sample as detect_scenes gives them, and the stack's forward state, with
    `edges` always filled: arms whose last step computed no edges get them
    from the final node features."""
    dets, state = _detect_stack(params, samples, cfg, score_thresh, arm)
    if state.edges is None:
        state.edges = compute_edges(params.sin, state.graph_out)
    return dets, state
