"""Two-stage toy detector over cell grids.

Stage one scores a fixed anchor set with a learned one-layer objectness map
over the mean of each anchor's cells, as a separable box filter of the
projected grid (score_anchors; the objectness gradient is the same filter
transposed), and keeps a fixed number of proposals: the top-scoring anchors
in detection, where no two anchors overlap enough to suppress one another,
and NMS over the anchors and the jittered ground truth in training. Stage
two builds a detection graph over the proposals (node features pooled from
covered cells, one scene node pooled globally), runs the structure inference
steps, and reads class probabilities and per-class box deltas off the final
node states.

Anchors, proposals, regression targets and ROIs are (k, 4) center-size rows
(cx, cy, w, h); Box objects appear only for ground truth and the kept
Detections. Stage two runs on a stack of B scenes at once (forward_scenes,
on a (B, n, 4) ROI array): node features are (B, n, d) with n =
rois_per_image, and each product keeps its per-scene shape, so a scene's
numbers do not depend on what it is stacked with. Training and `forward` run
stacks of one scene and record the tapes of the inference steps for the
backward pass; detect_scenes runs the proposal stage per scene and stage two,
forward only, on chunks of DETECT_CHUNK scenes. Its tail thresholds the whole
chunk's (B, n, K) probabilities at once, refines and clips every candidate
in one call, and suppresses them with one NMS grouped by (scene, class).

Everything trains end to end with hand-derived gradients, except the proposal
stage: proposals are treated as fixed inputs by the loss (standard two-stage
practice) and the objectness map learns from its own binary target instead.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .geometry import (Box, _sorted_prefix, apply_deltas, boxes_to_array,
                       boxes_to_centers, centers_to_corners, clip_box, encode_deltas, nms,
                       nms_by_group, pairwise_iou)
from .numerics import ParamStore, derive_seed, init_param, seed_for
from .structure_inference import (POOLINGS, SceneGraph, compute_edges,
                                  create_sin_params, sin_backward,
                                  sin_infer_tapes, sin_params_from_store)
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
# proposal NMS over anchors alone suppresses nothing, and detection keeps the
# top-scoring anchors without it. Scales or ratios that break this must bring
# NMS back into propose.
ANCHOR_SCALES = (1.4, 2.2, 3.0)
ANCHOR_RATIOS = (1.0, 1.5)

ARMS = ("baseline", "scene", "edge", "sin")

# Scenes per detection stack. Measured on 512 default-world held-out scenes
# (a 400-iteration sin model) with one BLAS thread on a shared 2-core x86
# host, stack sizes interleaved, process CPU time of 11 rounds in each of two
# runs: whole detect_scenes took medians of 0.49-0.54 / 0.42-0.47 / 0.40-0.43
# / 0.38-0.42 ms per scene in stacks of 8 / 16 / 32 / 64, and 64 was fastest
# in 7 and 8 of the 11 rounds, short of the 9 that would justify a change.
# Allocations of detect_scenes peak at 2.2 / 2.6 / 3.4 / 5.0 MB (tracemalloc,
# which counts the Detections of all 512 scenes too): stage two holds about
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
    if cfg.lr <= 0:
        raise ValueError("lr must be positive")
    if not (0.0 <= cfg.momentum < 1.0):
        raise ValueError("momentum must be in [0, 1)")
    if cfg.weight_decay < 0:
        raise ValueError("weight_decay must be >= 0")
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
    """Map an ablation arm onto (message mode, inference steps)."""
    if arm == "baseline":
        return "both", 0
    if arm == "scene":
        return "scene", cfg.T
    if arm == "edge":
        return "edge", cfg.T
    if arm == "sin":
        return "both", cfg.T
    raise ValueError(f"unknown arm {arm!r}; expected one of {ARMS}")


# ---------------------------------------------------------------------------
# parameters

@dataclass
class DetectorParams:
    feat_proj: object        # (d, C) shared cell-feature projection
    cls_head: object         # (K+1, d)
    reg_head: object         # (4K, d)
    objectness: object       # (num anchor types, C)
    sin: object

    @property
    def channels(self):
        return self.feat_proj.value.shape[1]

    @property
    def num_categories(self):
        return self.cls_head.value.shape[0] - 1


def create_detector_params(store, channels, num_categories, d, seed, pooling="mean"):
    def make(name, shape):
        return store.create(name, init_param(shape, seed_for(seed, name)))

    num_types = len(ANCHOR_SCALES) * len(ANCHOR_RATIOS)
    return DetectorParams(
        feat_proj=make("det/feat_proj", (d, channels)),
        cls_head=make("det/cls_head", (num_categories + 1, d)),
        reg_head=make("det/reg_head", (4 * num_categories, d)),
        objectness=make("det/objectness", (num_types, channels)),
        sin=create_sin_params(store, d, seed, pooling),
    )


def detector_params_from_store(store):
    return DetectorParams(
        feat_proj=store["det/feat_proj"],
        cls_head=store["det/cls_head"],
        reg_head=store["det/reg_head"],
        objectness=store["det/objectness"],
        sin=sin_params_from_store(store),
    )


def active_param_names(params, arm):
    """Parameters the given arm actually exercises; everything else must see
    exactly zero gradient (including weight decay)."""
    names = [params.feat_proj.name, params.cls_head.name,
             params.reg_head.name, params.objectness.name]
    mode, steps = None, 0
    if arm != "baseline":
        mode = {"scene": "scene", "edge": "edge", "sin": "both"}[arm]
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


def propose(params, sample, cfg, rng=None, scored=None):
    """Exactly cfg.rois_per_image proposals, as (n, 4) center-size rows.

    Anchors are scored by the objectness map (or `scored`, the result of
    score_anchors for this sample and params) and pruned by NMS. In training,
    when `rng` is given, the ground-truth boxes, jittered with draws from it,
    are prepended with scores above any anchor so they survive pruning.
    Without them NMS suppresses no anchor (see ANCHOR_SCALES), so the kept
    boxes are the first of the stable descending score order. Too few
    survivors are padded by cycling through the kept boxes in order.
    """
    anchors, scores = scored or score_anchors(params, sample)
    n = cfg.rois_per_image
    if rng is None or not sample.gt:
        return anchors.centers[np.resize(_sorted_prefix(-scores, n)[:n], n)]
    h, w = sample.grid.shape[:2]
    injected = boxes_to_centers([obj.box for obj in sample.gt])
    jitter = rng.normal(0.0, GT_JITTER, size=injected.shape)
    injected = clip_box(apply_deltas(injected, jitter), w, h)
    centers = np.concatenate([injected, anchors.centers])
    corners = np.concatenate([centers_to_corners(injected), anchors.corners])
    scores = np.concatenate([np.full(len(injected), 1e9), scores])
    keep = nms(corners, scores, PROPOSAL_NMS_THRESH, max_keep=n)
    return centers[np.resize(keep, n)]


# ---------------------------------------------------------------------------
# target assignment

def assign_targets(props, gt, num_categories):
    """Per-ROI class targets and regression targets for the (n, 4) center-size
    rows `props` against the GtObject list `gt`.

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
    if not gt:
        return labels, deltas
    gc = boxes_to_centers([o.box for o in gt])
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
    labels[pos] = np.array([o.category for o in gt], dtype=np.intp)[assigned[pos]]
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


def apply_weight_decay(param_list, wd):
    """L2 term 0.5 * wd * ||p||^2 per parameter; adds wd * p to each grad."""
    if wd == 0.0:
        return 0.0
    loss = 0.0
    for p in param_list:
        loss += 0.5 * wd * float((p.value ** 2).sum())
        p.grad += wd * p.value
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


def _anchor_targets(anchors, gt):
    """Binary anchor labels: 1 over OBJ_IOU_POS, 0 under OBJ_IOU_NEG, ignore
    between; every gt forces its best anchor positive (ties to the lowest
    anchor index, anchor 0 for a gt that meets none). The band is looser
    than the ROI one: anchors sit on a unit-stride grid, so demanding 0.5
    overlap would leave most objects with a single forced positive.

    The (G, A) IoUs come from per-axis overlaps: (G, W, T) along x times
    (G, H, T) along y, then pairwise_iou's division, so each is bitwise
    pairwise_iou's for its (anchor, gt) pair."""
    a = len(anchors.corners)
    if not gt:
        return np.zeros(a), np.ones(a, dtype=bool)
    gc = boxes_to_array([o.box for o in gt])
    g = gc[:, None, None]                  # (G, 1, 1, 4) against (W or H, T) extents
    xe, ye = anchors.x_extent, anchors.y_extent
    ix = np.maximum(0.0, np.minimum(xe[..., 1], g[..., 2]) - np.maximum(xe[..., 0], g[..., 0]))
    iy = np.maximum(0.0, np.minimum(ye[..., 1], g[..., 3]) - np.maximum(ye[..., 0], g[..., 1]))
    inter = (ix[:, None] * iy[:, :, None]).reshape(len(gc), a)           # (G, H, W, T) flat
    area_g = (gc[:, 2] - gc[:, 0]) * (gc[:, 3] - gc[:, 1])
    ious = inter / (area_g[:, None] + anchors.area - inter)              # (G, A)
    best = ious.max(axis=0)
    y = np.zeros(a)
    mask = np.ones(a, dtype=bool)
    mask[(best >= OBJ_IOU_NEG) & (best < OBJ_IOU_POS)] = False
    y[best >= OBJ_IOU_POS] = 1.0
    forced = ious.argmax(axis=1)
    y[forced] = 1.0
    mask[forced] = True
    return y, mask


def objectness_loss(params, sample, scored):
    """Binary cross-entropy on anchor labels, its gradient accumulated into
    the objectness map; the only supervision the proposal scores receive.
    Positive and negative anchors contribute half the loss each, otherwise
    the handful of positives would drown in ~1500 negatives. `scored` is
    score_anchors' result for this sample and params.

    The gradient is score_anchors' box filter transposed: each type's (H, W)
    score gradients over the cell counts, spread back onto the cells by
    row_cover^T @ . @ col_cover, then one (T, H*W) by (H*W, C) product with
    the grid. A non-finite cell makes the loss and the gradient non-finite
    (see score_anchors), which train reports as divergence."""
    anchors, s = scored
    y, mask = _anchor_targets(anchors, sample.gt)
    weights = np.zeros_like(s)
    for side in (0.0, 1.0):
        pick = mask & (y == side)
        n = int(pick.sum())
        if n:
            weights[pick] = 0.5 / n
    bce = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    ds = OBJ_LOSS_WEIGHT * weights * (expit(s) - y)
    h, w, c = sample.grid.shape
    per_type = ds.reshape(h, w, -1).transpose(2, 0, 1) / anchors.count
    cells = anchors.row_cover.transpose(0, 2, 1) @ per_type @ anchors.col_cover
    params.objectness.grad += cells.reshape(len(cells), -1) @ sample.grid.reshape(-1, c)
    return OBJ_LOSS_WEIGHT * float((weights * bce).sum())


# ---------------------------------------------------------------------------
# training

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
    shows every arm the same scenes in the same shuffled order.
    """
    validate_config(cfg)
    mode, steps = arm_plan(arm, cfg)
    if n_train is None:
        n_train = cfg.iters
    if data_seed is None:
        data_seed = derive_seed(cfg.seed, "data")
    init_seed = derive_seed(cfg.seed, "init")
    jitter_rng = np.random.default_rng(seed_for(cfg.seed, "gt-jitter"))
    shuffle_rng = np.random.default_rng(seed_for(cfg.seed, "shuffle"))

    store = ParamStore()
    params = create_detector_params(store, world.channels, world.num_categories,
                                    cfg.feat_dim, init_seed, cfg.pooling)
    # only the active parameters see gradient, so only they are updated; the
    # rest keep zero gradient and velocity and stay bitwise at their init
    active = [store[name] for name in active_param_names(params, arm)]
    velocity = {p.name: np.zeros_like(p.value) for p in active}

    cache = {}
    losses = []
    perm = None
    drop_at = int(0.7 * cfg.iters)
    warmup = int(GRAPH_WARMUP_FRAC * cfg.iters) if steps else 0
    for it in range(cfg.iters):
        if it % n_train == 0:
            perm = shuffle_rng.permutation(n_train)
        idx = int(perm[it % n_train])
        sample = cache.get(idx)
        if sample is None:
            sample = cache[idx] = sample_at(world, data_seed, idx)

        for p in active:
            p.grad[...] = 0.0
        scored = score_anchors(params, sample)
        props = propose(params, sample, cfg, rng=jitter_rng, scored=scored)
        labels, target_deltas = assign_targets(props, sample.gt, world.num_categories)
        state = forward(params, sample, cfg, boxes=props, mode=mode,
                        steps=steps if it >= warmup else 0)
        loss, grads = multi_task_loss(state.probs[0], state.deltas[0], labels, target_deltas)
        detector_backward(params, state, grads)
        loss += objectness_loss(params, sample, scored=scored)
        loss += apply_weight_decay(active, cfg.weight_decay)
        if not np.isfinite(loss):
            raise TrainingDiverged(it)

        lr = cfg.lr * (0.1 if it >= drop_at else 1.0)
        for p in active:
            v = velocity[p.name]
            v *= cfg.momentum
            v -= lr * p.grad
            p.value += v
        losses.append(loss)
        if callback is not None:
            callback(it, loss)
    return TrainResult(store=store, params=params, losses=losses, arm=arm, config=cfg)


# ---------------------------------------------------------------------------
# inference

@dataclass
class Detection:
    box: Box
    category: int
    score: float
    roi_index: int


def _detect_stack(params, samples, cfg, score_thresh, arm):
    """Proposals per scene, stage two once over the stack, then the tail on
    the whole stack: every (scene, class, ROI) score that clears the
    threshold is refined and clipped to its scene's grid, and all of them
    go through one NMS grouped by (scene, class). Returns the detections
    of each scene, sorted by class, then score descending, then box, and
    the stack's forward state, which holds no tapes. A scene's detections
    do not depend on its stack or on ROI order (modulo exact score ties)."""
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
    dets = [[] for _ in samples]
    for b, box, c, score, roi in zip(scene[keep].tolist(), refined[keep].tolist(),
                                     cats[keep].tolist(), scores[keep].tolist(),
                                     rois[keep].tolist()):
        dets[b].append(Detection(box=Box(*box), category=c, score=score, roi_index=roi))
    return dets, state


def detect_scenes(params, samples, cfg, score_thresh=0.05, arm="sin"):
    """Final detections for each scene, as a list per sample. Stage two runs
    on stacks of DETECT_CHUNK scenes; a scene's detections are the same in
    any stack, alone or not."""
    dets = []
    for start in range(0, len(samples), DETECT_CHUNK):
        dets += _detect_stack(params, samples[start:start + DETECT_CHUNK], cfg,
                              score_thresh, arm)[0]
    return dets


def detect(params, sample, cfg, score_thresh=0.05, arm="sin"):
    """Final detections for one scene, detect_scenes(params, [sample], ...)[0],
    and its one-scene forward state, with `edges` always filled: arms whose
    last step computed no edges get them from the final node features."""
    (dets,), state = _detect_stack(params, [sample], cfg, score_thresh, arm)
    if state.edges is None:
        state.edges = compute_edges(params.sin, state.graph_out)
    return dets, state
