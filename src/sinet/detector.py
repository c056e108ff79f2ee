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
The proposal stage's work that spans scenes runs in stacks. A training plan
labels its scenes' anchors DETECT_CHUNK scenes at a time (anchor_targets);
anchors are scored for a (B, H, W, C) stack of grids of one shape at once
(score_anchors: a stack of one per training iteration, a detection stack's
scenes of each grid shape in detection); and proposals are taken for a
(B, A) stack of anchor scores at once (_proposals), DETECT_CHUNK training
iterations or a detection stack's scenes of one grid shape per call. Stage
two runs on a stack of B scenes at once, from their RoiInputs record
(roi_inputs: the (B, n, 4) ROI rows, the cells pooled under them, the scene
means, and in training the ROIs' targets): node features are (B, n, d) with
n = rois_per_image, and each product keeps its per-scene shape, so a
scene's numbers do not depend on what it is stacked with. Training
(roi_loss) runs stacks of one scene and records the tapes of the inference
steps for the backward pass; detect_scenes runs stacks of DETECT_STACK
scenes: it scores and proposes each grid shape's scenes, builds the stack's
record (without targets) and spatial gate as training builds them, and
runs stage two forward only. Its tail thresholds the whole stack's
(B, n, K) probabilities at once, refines and clips every candidate in one
call, and suppresses them with one NMS grouped by (scene, class). A model
records the arm and TrainConfig it is laid out for, and every stage reads
its wiring from them.

Everything trains end to end with hand-derived gradients, except the proposal
stage: proposals are treated as fixed inputs by the loss (standard two-stage
practice) and the objectness map learns from its own binary target instead.
So a training run (train) has three parts, each done for the whole run
before the next. The plan (plan_training) is the part of stage one no weight
changes: the scene order, the scenes, their objectness targets, and the
jittered ground truth of every iteration with its own NMS done. Stage one
(stage_one) learns the objectness map alone, recording each iteration's
proposals, objectness loss and decay term, then builds every iteration's
stage-two inputs in stacks (roi_inputs: pooled ROI cells, scene means, ROI
targets). Stage two (learn) trains the rest of the model on those records,
one callback per iteration, bitwise as one loop over both stages would; an
ablation learns stage one once and replays it for every arm.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .geometry import (_sorted_prefixes, apply_deltas, centers_to_corners, clip_box,
                       encode_deltas, nms_by_group, pairwise_iou)
from .memory_cell import MAPS
from .numerics import ParamStore, derive_seed, init_param, seed_for
from .structure_inference import (MODE_BANKS, POOLINGS, SceneGraph, compute_edges,
                                  sin_backward, sin_infer_tapes, sin_init, sin_params,
                                  spatial_gate)
from .synth_data import cell_window, scene_sampler

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

# Training iterations or scenes per stack of a training run: of anchor
# labelling, of stage one's proposals, and of stage-two inputs and gates.
# Labelling 400 default scenes peaks 0.9 MB above what it returns in stacks
# of 16 and 4.5 MB in stacks of 64 (tracemalloc; a test bounds it), and a
# 400-iteration baseline training peaked at 69.7 MB ru_maxrss in stacks of
# 16 and 73.3-74.0 MB in stacks of 64, against 68.8-69.0 MB before labels
# and proposals were stacked. Its stage one took 401 / 398 us per iteration
# in stacks of 16 / 32 (medians of 9 interleaved rounds, process time, one
# BLAS thread on a shared 2-core x86 host), no gain, and its tracemalloc
# peak was 9.6 / 10.7 MB, so the stacks stay at 16.
DETECT_CHUNK = 16

# Scenes per detection stack (detect_scenes, sinet relations). Measured on
# 512 default-world held-out scenes with a 600-iteration sin model, one BLAS
# thread on a shared 2-core x86 host, stack sizes interleaved, process CPU
# time of 11 rounds in each of two runs: whole detect_scenes took medians
# of 172-175 / 159-163 / 153 / 169-178 / 161-168 us per scene in stacks of
# 16 / 24 / 32 / 48 / 64, and 32 was fastest in 9 and 7 of the 11 rounds.
# Each stack costs a fixed part (the Python of each stage and its small
# products) that larger stacks share; past 32 the time per scene rose
# again. Allocations peak at 1.7 / 2.4 / 3.1 / 4.4 / 5.5 MB (tracemalloc;
# 1.4 / 2.0 / 2.7 / 4.1 / 5.2 MB above the detections of the 512 scenes,
# about 85 KB per stacked scene; a test bounds them).
DETECT_STACK = 32


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


# ---------------------------------------------------------------------------
# parameters

@dataclass
class DetectorParams:
    feat_proj: object        # (d, C) shared cell-feature projection
    cls_head: object         # (K+1, d)
    reg_head: object         # (4K, d)
    objectness: object       # (num anchor types, C)
    sin: object              # SinParams, wired for the arm
    arm: str                 # the ablation arm the model runs
    cfg: TrainConfig         # its proposal count, steps, pooling and width


def create_detector_params(store, channels, num_categories, cfg, arm, seed):
    """Lay the model of ablation arm `arm` under TrainConfig `cfg` out in the
    empty `store` (ParamStore.lay_out): the scene bank, the det/ maps, then
    the edge bank, w_v and, under concat fusion, w_a, so every arm's active
    parameters (active_param_names) are one span of the store's buffers.
    The layout depends on the pooling alone. Init is keyed by (seed, full
    name)."""
    if arm not in ARM_MODES:
        raise ValueError(f"unknown arm {arm!r}; expected one of {ARMS}")
    d = cfg.feat_dim

    def init(name, shape):
        return name, init_param(shape, seed_for(seed, name))

    num_types = len(ANCHOR_SCALES) * len(ANCHOR_RATIOS)
    scene, rest = sin_init(d, seed)
    if cfg.pooling == "concat":
        rest.append(init("sin/w_a", (d, 2 * d)))
    store.lay_out(scene + [init("det/feat_proj", (d, channels)),
                           init("det/cls_head", (num_categories + 1, d)),
                           init("det/reg_head", (4 * num_categories, d)),
                           init("det/objectness", (num_types, channels))] + rest)
    return DetectorParams(feat_proj=store["det/feat_proj"], cls_head=store["det/cls_head"],
                          reg_head=store["det/reg_head"], objectness=store["det/objectness"],
                          sin=sin_params(store, ARM_MODES[arm], cfg.pooling), arm=arm, cfg=cfg)


def active_param_names(params):
    """Parameters the model's arm actually exercises; everything else must
    see exactly zero gradient (including weight decay). They depend on the
    arm alone, not on T: at T = 0 a graph arm's banks still take weight
    decay."""
    names = [params.feat_proj.name, params.cls_head.name,
             params.reg_head.name, params.objectness.name]
    mode = params.sin.mode
    if mode is not None:
        names += [f"{bank}/{m}" for bank in MODE_BANKS[mode] for m in MAPS]
    if mode in ("edge", "both"):
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


def score_anchors(params, grids):
    """The anchor set of a (B, H, W, C) stack of grids of one shape and their
    (B, A) objectness scores, each row in anchor order.

    An anchor's score is its type's row of the objectness map applied to the
    mean of the cells it covers. Projection and mean commute, so each grid is
    projected first, one (H, W) map per type, and each map is box-summed by
    its type's cover matrices, row_cover @ map @ col_cover^T, then divided by
    the cell counts: no per-anchor feature is formed. Each product is one
    stacked matmul over the whole stack, which runs one product per scene,
    so a scene's scores are bitwise the same in any stack. A NaN cell makes
    every anchor of its scene that covers it score NaN, and an inf cell
    makes them score inf or NaN; others of that scene may turn NaN too,
    where BLAS multiplies a cover matrix's zeros by it. Proposals and the
    objectness loss of one training iteration share one call, on a stack of
    one: both read the same grid and parameters."""
    b, h, w, c = grids.shape
    anchors = anchor_set(h, w)
    maps = params.objectness.value @ grids.reshape(b, -1, c).transpose(0, 2, 1)
    sums = anchors.row_cover @ maps.reshape(b, -1, h, w) @ anchors.col_cover.transpose(0, 2, 1)
    sums /= anchors.count
    return anchors, sums.transpose(0, 2, 3, 1).reshape(b, -1)


def _proposals(anchors, scores, n, kept=None):
    """Exactly n proposals for each row of the (B, A) anchor scores `scores`,
    as a (B, n, 4) array of center-size rows: row b's kept injected boxes
    (none without `kept`; else a (centers, corners, bounds) triple of (R, 4)
    rows, row b's being rows bounds[b]:bounds[b + 1], see _injected_boxes),
    then the anchors in the stable descending order of its scores that none
    of them overlaps past PROPOSAL_NMS_THRESH (a NaN overlap suppresses),
    until there are n. Too few are padded by cycling through them in order.

    This is greedy NMS over the kept boxes followed by the anchors, ranked
    the same way: no two anchors overlap enough to suppress one another (see
    ANCHOR_SCALES), so only a kept box can suppress an anchor. Only a prefix
    of each row's score order is sorted (_sorted_prefixes): n when nothing is
    kept, else 2n; a row whose prefix holds too few survivors, or whose cut
    is NaN, takes its full stable order. The kept boxes are padded to one
    (B, M, 4) block with zero-area rows, which suppress nothing."""
    b, a = scores.shape
    neg = -scores
    centers, corners, bounds = kept or (np.empty((0, 4)), np.empty((0, 4)),
                                        np.zeros(b + 1, dtype=np.intp))
    m = np.diff(bounds)
    slot = np.arange(m.max(initial=0)) < m[:, None]                      # (B, M)
    block = np.zeros(slot.shape + (4,))
    block[slot] = corners
    need = n - m
    picks = np.zeros((b, n), dtype=np.intp)          # each row's surviving anchors, in order
    got = np.zeros(b, dtype=np.intp)
    rows = np.arange(b)
    order, real = _sorted_prefixes(neg, n if kept is None else 2 * n)
    while len(rows):
        alive = real
        if block.shape[1]:
            over = pairwise_iou(block[rows], anchors.corners[order]) <= PROPOSAL_NMS_THRESH
            alive = over.all(axis=1) & real
        rank = np.cumsum(alive, axis=1)
        r, c = np.nonzero(alive & (rank <= need[rows, None]))
        picks[rows[r], rank[r, c] - 1] = order[r, c]
        count = alive.sum(axis=1)
        got[rows] = np.minimum(count, need[rows])
        rows = rows[(count < need[rows]) & (real.sum(axis=1) < a)]
        order = np.argsort(neg[rows], axis=1, kind="stable")
        real = np.ones(order.shape, dtype=bool)
    j = np.arange(n) % (m + got)[:, None]           # each slot's place in its row's list
    k = j - m[:, None]                              # its anchor pick; < 0 for a kept box
    out = anchors.centers[np.take_along_axis(picks, np.maximum(k, 0), axis=1)]
    injected = k < 0
    out[injected] = centers[(bounds[:-1, None] + j)[injected]]
    return out


# ---------------------------------------------------------------------------
# target assignment

def assign_targets(props, gts, num_categories):
    """Per-ROI class targets and regression targets for a stack of B scenes:
    the (B, n, 4) center-size rows `props`, scene b's against the GT_DTYPE
    rows gts[b].

    IoU >= IOU_POS against some gt makes a ROI positive for the best gt (ties
    to the lowest gt); IoU < IOU_NEG makes it background; in between it is
    ignored. Each gt also forces its best-overlapping ROI (ties to the lowest
    ROI) positive, when they overlap at all, so no object goes unsupervised;
    of two gts that force one ROI, the later wins. Returns (labels, deltas):
    a (B, n) array of categories, background (= num categories) or IGNORE,
    and the (B, n, 4) deltas onto each positive's gt, zero on every other row.

    The scenes' gt are padded to the largest count with IoU -inf, which
    neither makes a ROI positive nor forces one."""
    b, n = props.shape[:2]
    labels = np.full((b, n), num_categories, dtype=np.intp)
    deltas = np.zeros((b, n, 4))
    sizes = np.array([len(gt) for gt in gts])
    g = int(sizes.max(initial=0))
    if g == 0:
        return labels, deltas
    real = np.arange(g) < sizes[:, None]                                  # (B, G)
    boxes = np.ones((b, g, 4))
    boxes[real] = np.concatenate([gt["box"] for gt in gts])
    ious = pairwise_iou(centers_to_corners(props), centers_to_corners(boxes))   # (B, n, G)
    ious[~np.broadcast_to(real[:, None, :], ious.shape)] = -np.inf
    best_gt = ious.argmax(axis=2)
    best_iou = np.take_along_axis(ious, best_gt[..., None], axis=2)[..., 0]
    assigned = np.where(best_iou >= IOU_POS, best_gt, -1)
    labels[~(best_iou < IOU_NEG)] = IGNORE
    best_roi = ious.argmax(axis=1)                                        # (B, G)
    scene, col = np.nonzero(np.take_along_axis(ious, best_roi[:, None, :], axis=1)[:, 0] > 0.0)
    forced = np.full((b, n), -1, dtype=np.intp)
    np.maximum.at(forced, (scene, best_roi[scene, col]), col)
    assigned = np.where(forced >= 0, forced, assigned)
    pos = assigned >= 0
    scene = np.nonzero(pos)[0]
    cats = np.zeros((b, g), dtype=np.intp)
    cats[real] = np.concatenate([gt["category"] for gt in gts])
    labels[pos] = cats[scene, assigned[pos]]
    deltas[pos] = encode_deltas(props[pos], boxes[scene, assigned[pos]])
    return labels, deltas


# ---------------------------------------------------------------------------
# features and the forward pass

@dataclass
class ForwardState:
    """Stage two over a stack of B scenes of n ROIs each: what the backward
    pass and the detection tail read."""

    features0: np.ndarray       # (B, n, d) initial node features
    scene_feature0: np.ndarray  # (B, d)
    graph_out: SceneGraph       # its boxes are the (B, n, 4) ROI rows
    tapes: list                 # per-step tapes; none in detection
    probs: np.ndarray           # (B, n, K+1) softmax rows
    deltas: np.ndarray          # (B, n, K, 4) per-class refinements


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


def _shape_stacks(samples):
    """The scenes of `samples` by grid shape, in order of first appearance:
    for each shape, its scenes' indices and the (b, H, W, C) stack of their
    grids."""
    shapes = [sample.grid.shape for sample in samples]
    for shape in dict.fromkeys(shapes):
        same = [i for i, other in enumerate(shapes) if other == shape]
        yield same, np.stack([samples[i].grid for i in same])


def _scene_means(samples):
    """(B, C) mean cell vector of each scene, one mean per grid shape of the
    stack. A stack only adds an outer axis to the reduction: each scene's
    channels are reduced over the same cells in the same order as alone, so
    each row is bitwise the mean of its scene alone."""
    out = np.empty((len(samples), samples[0].grid.shape[2]))
    for same, grids in _shape_stacks(samples):
        out[same] = grids.mean(axis=(1, 2))
    return out


class RoiInputs(NamedTuple):
    """What stage two reads of a stack of B scenes that no weight changes:
    their ROI rows, the cells pooled under them, the scene means, and, in
    training, the ROIs' targets (assign_targets)."""

    boxes: np.ndarray           # (B, n, 4) center-size ROI rows
    node_avg: np.ndarray        # (B, n, C) _pool_rois
    scene_avg: np.ndarray       # (B, C)
    labels: np.ndarray = None           # (B, n); None in detection
    target_deltas: np.ndarray = None    # (B, n, 4); None in detection


def roi_inputs(samples, boxes, num_categories=None):
    """The RoiInputs of the scenes `samples` and their (B, n, 4) ROI rows,
    with the ROIs' targets against the scenes' ground truth when
    `num_categories` is given."""
    targets = () if num_categories is None else \
        assign_targets(boxes, [sample.gt for sample in samples], num_categories)
    return RoiInputs(boxes, _pool_rois(samples, boxes), _scene_means(samples), *targets)


def _reads_gate(params, steps):
    """Whether `steps` inference steps of the model read the spatial gate."""
    return params.sin.mode in ("edge", "both") and steps > 0


def _forward(params, rois, steps, record, gate=None):
    """Stage two over a stack of scenes from their RoiInputs `rois` (its
    targets unread): project the pooled ROI cells and the scene means, run
    `steps` inference steps of the model's graph (none for the baseline)
    and apply both heads. `gate`, if given, is the (B, n, n) spatial gate
    of the ROIs (structure_inference.spatial_gate). Returns the forward
    state; it holds the inference steps' tapes, which the backward pass
    needs, only if `record`. Its graph_out holds the last step's edges, or
    None when no step computed them."""
    features0 = np.tanh(rois.node_avg @ params.feat_proj.value.T)
    # one (d, C) by (C,) product per scene, the same as for a lone scene
    scene0 = np.tanh(np.matmul(params.feat_proj.value, rois.scene_avg[:, :, None])[:, :, 0])

    graph = SceneGraph(node_features=features0, boxes=rois.boxes, scene_feature=scene0,
                       gate=gate)
    graph_out, tapes = sin_infer_tapes(params.sin, graph, steps, record)
    feats = graph_out.node_features
    deltas = (feats @ params.reg_head.value.T).reshape(*rois.boxes.shape[:2], -1, 4)
    return ForwardState(features0=features0, scene_feature0=scene0, graph_out=graph_out,
                        tapes=tapes, probs=_softmax_rows(feats @ params.cls_head.value.T),
                        deltas=deltas)


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


def detector_backward(params, rois, state, grads):
    """Push one scene's head gradients through the inference steps and the
    feature projection, accumulating into the parameter store. `state` is
    the one-scene stack _forward recorded from the RoiInputs `rois`.
    Proposal boxes are constants here. Returns the (n, d) gradient on the
    initial node features."""
    b, n = state.probs.shape[:2]
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
    params.feat_proj.grad += da.T @ rois.node_avg[0]
    ds = (1.0 - state.scene_feature0[0] ** 2) * dscene[0]
    params.feat_proj.grad += np.outer(ds, rois.scene_avg[0])
    return dfeat0[0]


def roi_loss(params, rois, steps, gate=None):
    """One scene's stage-two loss after `steps` inference steps, from its
    one-scene RoiInputs `rois` and, if given, the (1, n, n) spatial gate of
    its ROIs; its gradient goes into the store."""
    state = _forward(params, rois, steps, True, gate)
    loss, grads = multi_task_loss(state.probs[0], state.deltas[0], rois.labels[0],
                                  rois.target_deltas[0])
    detector_backward(params, rois, state, grads)
    return loss


def apply_weight_decay(store, names, wd, done=None):
    """L2 term 0.5 * wd * ||p||^2 per named parameter of a laid-out store,
    summed over them in the order given; adds wd * p to their gradients, one
    numpy call per span of them in the store's buffers (ParamStore.spans).
    Only those spans of the value buffer are squared, and each ||p||^2 adds
    up the parameter's slice of them, in the order a sum over the
    contiguous parameter itself takes. `done`
    maps names whose term was taken elsewhere, with its gradient, to that
    term: it is added in the name's place, and the name's gradient is left
    alone."""
    if wd == 0.0:
        return 0.0
    done = done or {}
    spans = store.spans([name for name in names if name not in done])
    squares = np.empty_like(store.values)       # filled on those spans only
    for span in spans:
        np.square(store.values[span], out=squares[span])
    loss = 0.0
    for name in names:
        loss += done[name] if name in done else \
            0.5 * wd * float(np.add.reduce(squares[store.span(name)]))
    for span in spans:
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


def anchor_targets(anchors, gts):
    """Binary anchor labels of scenes on one grid, one ObjectnessTargets per
    GT_DTYPE array of `gts`: 1 over OBJ_IOU_POS, 0 under OBJ_IOU_NEG,
    ignore between; every gt forces its best anchor positive (ties to the
    lowest anchor index, anchor 0 for a gt that meets none). The band is
    looser than the ROI one: anchors sit on a unit-stride grid, so demanding
    0.5 overlap would leave most objects with a single forced positive.
    Positives and negatives get half the loss each (each positive weighs
    0.5 / positives, each negative 0.5 / negatives), otherwise the handful
    of positives would drown in ~1500 negatives. The scenes are labelled in
    stacks of DETECT_CHUNK (_label_stack)."""
    out = []
    for start in range(0, len(gts), DETECT_CHUNK):
        out += _label_stack(anchors, gts[start:start + DETECT_CHUNK])
    return out


def _axis_overlaps(extent, lo, hi):
    """Each of R gts' overlaps along one axis with the anchors of the rows
    (or columns) it meets: `extent` holds the (n, T, 2) low and high edges
    of each row's anchors by type, lo and hi the gts' (R,) edges. Returns
    (R, k) row indices, from the first row whose anchors' hull meets the gt
    on (k the longest such span, at least 1), and the (R, k, T) overlaps
    max(0, min(x2, hi) - max(x1, lo)) of those rows. Past a gt's span the
    indices run on into rows that do not meet it, overlap zero, or repeat
    the last row: they add no anchor with a non-zero overlap, and no
    value an anchor does not already have."""
    n = len(extent)
    hit = (np.minimum(extent[..., 1].max(axis=1), hi[:, None])
           > np.maximum(extent[..., 0].min(axis=1), lo[:, None]))          # (R, n)
    first = hit.argmax(axis=1)
    size = np.where(hit.any(axis=1), n - hit[:, ::-1].argmax(axis=1) - first, 0)
    index = np.minimum(first[:, None] + np.arange(max(size.max(initial=0), 1)), n - 1)
    e = extent[index]                                                      # (R, k, T, 2)
    return index, np.maximum(0.0, np.minimum(e[..., 1], hi[:, None, None])
                             - np.maximum(e[..., 0], lo[:, None, None]))


def _label_stack(anchors, gts):
    """anchor_targets of one stack of B scenes, from windowed overlaps.

    A gt overlaps an anchor only in the rows and columns where some anchor
    type's extent overlaps it along y and along x. Each gt's per-axis
    overlaps are taken over that window alone (_axis_overlaps), into one
    (R, rows, cols, T) block for the stack's R gts, and the IoUs come from
    them with pairwise_iou's float operations, so each is bitwise
    pairwise_iou's for its (anchor, gt) pair. Every other IoU is zero. The
    IoUs are scatter-maxed into a (B, A) array of best IoUs; a gt's forced
    anchor is the argmax over its window, where each anchor first appears
    in anchor order."""
    b, a = len(gts), len(anchors.corners)
    t, _, w = anchors.count.shape
    scene = np.repeat(np.arange(b), [len(gt) for gt in gts])
    gc = centers_to_corners(np.concatenate([gt["box"] for gt in gts]).reshape(-1, 4))
    col, ix = _axis_overlaps(anchors.x_extent, gc[:, 0], gc[:, 2])        # (R, cols, T)
    row, iy = _axis_overlaps(anchors.y_extent, gc[:, 1], gc[:, 3])        # (R, rows, T)
    inter = ix[:, None] * iy[:, :, None]                                   # (R, rows, cols, T)
    cell = row[:, :, None] * w + col[:, None, :]
    area_g = (gc[:, 2] - gc[:, 0]) * (gc[:, 3] - gc[:, 1])
    ious = inter / (area_g[:, None, None, None] + anchors.area.reshape(-1, t)[cell] - inter)
    # each IoU's place in the stack's flat (B, A) best IoUs
    at = ((scene[:, None, None] * (a // t) + cell) * t)[..., None] + np.arange(t)
    size = (len(gc), math.prod(inter.shape[1:]))
    ious, at = ious.reshape(size), at.reshape(size)
    best = np.zeros((b, a))
    np.maximum.at(best.reshape(-1), at.reshape(-1), ious.reshape(-1))
    top = ious.argmax(axis=1)[:, None]
    forced = np.where(np.take_along_axis(ious, top, axis=1)[:, 0] > 0.0,
                      np.take_along_axis(at, top, axis=1)[:, 0], scene * a)
    pos = best >= OBJ_IOU_POS
    pos.reshape(-1)[forced] = True
    ignored = (best >= OBJ_IOU_NEG) & ~pos
    # each scene's anchor indices: its slice of the flat indices, less its offset
    p_at, i_at = np.flatnonzero(pos), np.flatnonzero(ignored)
    starts = np.arange(b + 1) * a
    p_end, i_end = np.searchsorted(p_at, starts).tolist(), np.searchsorted(i_at, starts).tolist()
    out = []
    for k in range(b):
        npos, nign = p_end[k + 1] - p_end[k], i_end[k + 1] - i_end[k]
        neg = a - npos - nign
        out.append(ObjectnessTargets(p_at[p_end[k]:p_end[k + 1]] - k * a,
                                     i_at[i_end[k]:i_end[k + 1]] - k * a,
                                     0.5 / npos if npos else 0.0, 0.5 / neg if neg else 0.0))
    return out


def objectness_loss(params, sample, scored, targets):
    """Binary cross-entropy of the anchor scores against the scene's
    objectness targets (anchor_targets), its gradient accumulated into the
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

    def kept(self, start, stop):
        """The kept injected boxes of iterations start..stop - 1, as
        _proposals takes them."""
        lo, hi = self.bounds[start], self.bounds[stop]
        return self.centers[lo:hi], self.corners[lo:hi], self.bounds[start:stop + 1] - lo


def plan_training(world, cfg, n_train, data_seed):
    """The weight-independent stage-one work of a training run, done once
    before its first step. The order draws one permutation of the n_train
    scenes from the shuffle stream per pass over them; each scene it uses
    is sampled once (one scene_sampler for the run) and labelled once, in
    stacks (anchor_targets; an n_train < iters run revisits them), and the
    gt-jitter stream covers every iteration's ground truth in iteration
    order (_injected_boxes). The draws are those a scene-by-scene loop
    would make, so the plan is bitwise the same."""
    shuffle_rng = np.random.default_rng(seed_for(cfg.seed, "shuffle"))
    jitter_rng = np.random.default_rng(seed_for(cfg.seed, "gt-jitter"))
    passes = -(-cfg.iters // n_train)
    order = np.concatenate([shuffle_rng.permutation(n_train) for _ in range(passes)])[:cfg.iters]
    order = order.tolist()
    sample = scene_sampler(world)
    seen = {idx: sample(data_seed, idx) for idx in dict.fromkeys(order)}
    labels = dict(zip(seen, anchor_targets(anchor_set(world.height, world.width),
                                           [scene.gt for scene in seen.values()])))
    scenes = [seen[idx] for idx in order]
    return TrainPlan(scenes, [labels[idx] for idx in order],
                     *_injected_boxes(scenes, jitter_rng, cfg.rois_per_image))


def _rate(cfg, it):
    """Iteration it's learning rate: cfg.lr, a tenth of it from 70% of the run on."""
    return cfg.lr * (0.1 if it >= int(0.7 * cfg.iters) else 1.0)


@dataclass
class StageOne:
    """A training run's stage one, learned ahead of stage two by stage_one,
    for the k iterations it ran: k = cfg.iters, or the first iteration whose
    objectness loss and decay term do not add up to a finite number, and
    the ones before it."""

    cfg: TrainConfig             # what it was learned under
    objectness: np.ndarray       # the map after the last iteration's update
    obj_loss: list               # each iteration's objectness loss, a float
    obj_decay: list              # and the map's weight-decay term
    rois: RoiInputs              # (k, ...) each iteration's stage-two inputs


def stage_one(world, cfg, n_train, data_seed):
    """Stage one of a training run, learned on its own, ahead of stage two.

    The objectness map gets gradient only from its own loss, and its decay,
    rate and momentum act elementwise on it, so it learns alone exactly as
    it does inside the full loop: each iteration scores the anchors of the
    plan's scene (plan_training), adds the objectness loss and the map's
    decay term, and takes the momentum step on the map. The map is a fresh
    model's (create_detector_params), which every arm initialises alike.
    The scores of DETECT_CHUNK iterations are held, and their proposals
    (_proposals over the plan's kept boxes) taken at once, each chunk's as
    it fills and the last, partial one after the loop. Then, in stacks of
    DETECT_CHUNK iterations, it builds every iteration's stage-two inputs
    (roi_inputs). The proposals of all cfg.iters iterations are allocated
    first, so a run too long for memory fails at once."""
    validate_config(cfg)
    n = cfg.rois_per_image
    proposals = np.empty((cfg.iters, n, 4))
    store = ParamStore()
    params = create_detector_params(store, world.channels, world.num_categories, cfg,
                                    "baseline", derive_seed(cfg.seed, "init"))
    obj = params.objectness
    velocity = np.zeros_like(obj.value)
    plan = plan_training(world, cfg, n_train, data_seed)
    anchors = anchor_set(world.height, world.width)
    scores = np.empty((DETECT_CHUNK, len(anchors.centers)))
    losses, decays = [], []
    start = 0                   # the first iteration whose proposals are not taken
    for it in range(cfg.iters):
        sample = plan.scenes[it]
        obj.grad[...] = 0.0
        row = score_anchors(params, sample.grid[None])[1][0]    # the grid, a stack of one
        scores[it - start] = row
        losses.append(objectness_loss(params, sample, (anchors, row), plan.targets[it]))
        decays.append(apply_weight_decay(store, [obj.name], cfg.weight_decay))
        if not math.isfinite(losses[-1] + decays[-1]):
            break       # the full loss diverges here too; stage two raises
        velocity *= cfg.momentum
        velocity -= _rate(cfg, it) * obj.grad
        obj.value += velocity
        if it + 1 - start == len(scores):
            proposals[start:it + 1] = _proposals(anchors, scores, n, plan.kept(start, it + 1))
            start = it + 1
    k = len(losses)
    if start < k:
        proposals[start:k] = _proposals(anchors, scores[:k - start], n, plan.kept(start, k))
    c = world.channels
    rois = RoiInputs(proposals[:k], np.empty((k, n, c)), np.empty((k, c)),
                     np.empty((k, n), dtype=np.intp), np.empty((k, n, 4)))
    for start in range(0, k, DETECT_CHUNK):
        stack = slice(start, min(start + DETECT_CHUNK, k))
        part = roi_inputs(plan.scenes[stack], rois.boxes[stack], world.num_categories)
        for whole, value in zip(rois[1:], part[1:]):      # boxes: the proposals
            whole[stack] = value
    return StageOne(cfg, obj.value.copy(), losses, decays, rois)


@dataclass
class TrainResult:
    store: ParamStore
    params: DetectorParams
    losses: list


def learn(world, cfg, arm, stage1, callback=None):
    """Stage two of a training run over its StageOne record `stage1`
    (stage_one), which any arm and any (pooling, T, feat_dim) of the same
    run config can replay: SGD with momentum on every other active
    parameter, one callback per iteration. An iteration runs features, graph, heads, loss and
    backward on its recorded inputs, then adds the recorded objectness loss
    and the weight decay, over the sorted active names with the recorded
    det/objectness term in its place: the sum the full loop adds, bitwise.
    A mode with edges builds the spatial gates of every iteration past the
    graph warm-up in bulk, before the first step. The model ends with
    stage one's map.

    Raises TrainingDiverged at the first iteration whose loss is not
    finite; where stage one stopped, that is its last iteration at the
    latest. A GRU step's FloatingPointError comes first."""
    validate_config(cfg)
    own = stage1.cfg
    if replace(cfg, pooling=own.pooling, T=own.T, feat_dim=own.feat_dim) != own:
        raise ValueError(f"stage one was learned under {own}, not {cfg}")
    store = ParamStore()
    params = create_detector_params(store, world.channels, world.num_categories, cfg, arm,
                                    derive_seed(cfg.seed, "init"))
    # only the active parameters see gradient, so only they are updated; the
    # rest keep zero gradient and stay bitwise at their init. Without the
    # map, which stage one trained, they are at most two spans of the
    # store's buffers, so each update is a numpy call or two.
    active = active_param_names(params)
    obj = params.objectness.name
    updates = [(store.values[span], store.grads[span], np.zeros(span.stop - span.start))
               for span in store.spans([name for name in active if name != obj])]
    k, n = stage1.rois.labels.shape
    warmup = int(GRAPH_WARMUP_FRAC * cfg.iters)
    gates = None
    if _reads_gate(params, cfg.T):
        gates = np.empty((k, n, n))
        for start in range(warmup, k, DETECT_CHUNK):
            gates[start:start + DETECT_CHUNK] = spatial_gate(
                stage1.rois.boxes[start:start + DETECT_CHUNK])
    losses = []
    for it in range(k):
        store.zero_grads()
        rois = RoiInputs(*(field[it:it + 1] for field in stage1.rois))
        graph_on = it >= warmup
        gate = gates[it:it + 1] if graph_on and gates is not None else None
        loss = roi_loss(params, rois, cfg.T if graph_on else 0, gate)
        loss += stage1.obj_loss[it]
        loss += apply_weight_decay(store, active, cfg.weight_decay, {obj: stage1.obj_decay[it]})
        if not np.isfinite(loss):
            raise TrainingDiverged(it)

        lr = _rate(cfg, it)
        for values, grads, velocity in updates:
            velocity *= cfg.momentum
            velocity -= lr * grads
            values += velocity
        losses.append(loss)
        if callback is not None:
            callback(it, loss)
    params.objectness.value[...] = stage1.objectness
    return TrainResult(store=store, params=params, losses=losses)


def train(world, cfg, arm="sin", n_train=None, data_seed=None, callback=None):
    """SGD with momentum over scenes drawn from the world, in three parts:
    the plan (plan_training) does the weight-independent part of stage one,
    stage one (stage_one) learns the objectness map alone and builds every
    iteration's stage-two inputs, and stage two (learn) trains the rest of
    the model, with one callback per iteration. The result is bitwise that
    of one loop that runs both stages in every iteration.

    All randomness descends from cfg.seed through fixed stream labels, so a
    rerun is bitwise identical; passing the same data_seed to different arms
    shows every arm the same scenes in the same shuffled order, and trains
    the same stage one.
    """
    if n_train is None:
        n_train = cfg.iters
    if data_seed is None:
        data_seed = derive_seed(cfg.seed, "data")
    return learn(world, cfg, arm, stage_one(world, cfg, n_train, data_seed), callback)


# ---------------------------------------------------------------------------
# inference

# One row per kept detection: its refined, clipped center-size box, its class,
# its class probability and the index of the ROI (graph node) it refines.
DETECTION_DTYPE = np.dtype([("box", np.float64, (4,)), ("category", np.intp),
                            ("score", np.float64), ("roi", np.intp)])


def _detect_stack(params, samples, score_thresh):
    """Stage one and stage two of a stack of scenes, then the tail. The
    anchors of the stack's scenes of one grid shape are scored in one call
    (score_anchors) and their proposals taken in another (_proposals with
    no injected box: detection never reads the ground truth). The stack's
    stage-two inputs are built as training builds them (roi_inputs, without
    targets), its spatial gate, when the graph reads one, by spatial_gate,
    and stage two runs once over the stack. The tail takes the whole stack:
    every (scene, class, ROI) score that clears the threshold is refined
    and clipped to its scene's grid, and all of them go through one NMS
    grouped by (scene, class). Returns the detections of each scene, a
    DETECTION_DTYPE array sorted by class, then score descending, then box,
    and the stack's forward state, which holds no tapes. A scene's
    detections do not depend on its stack or on ROI order (modulo exact
    score ties)."""
    n, steps = params.cfg.rois_per_image, params.cfg.T
    boxes = np.empty((len(samples), n, 4))
    for same, grids in _shape_stacks(samples):
        boxes[same] = _proposals(*score_anchors(params, grids), n)
    gate = spatial_gate(boxes) if _reads_gate(params, steps) else None
    state = _forward(params, roi_inputs(samples, boxes), steps, False, gate)
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


def detect_scenes(params, samples, score_thresh):
    """Final detections for each scene, one DETECTION_DTYPE array per sample
    (see _detect_stack), in stacks of DETECT_STACK scenes; a scene's
    detections are the same in any stack, alone or not."""
    dets = []
    for start in range(0, len(samples), DETECT_STACK):
        dets += _detect_stack(params, samples[start:start + DETECT_STACK], score_thresh)[0]
    return dets


def detect(params, samples, score_thresh):
    """Final detections of one stack of scenes, one DETECTION_DTYPE array per
    sample as detect_scenes gives them, and the stack's forward state, with
    graph_out.edges always filled: arms whose last step computed no edges
    get them from the final node features."""
    dets, state = _detect_stack(params, samples, score_thresh)
    if state.graph_out.edges is None:
        state.graph_out.edges = compute_edges(params.sin, state.graph_out)
    return dets, state
