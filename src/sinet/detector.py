"""Two-stage toy detector over cell grids.

Stage one scores a fixed anchor set with a learned one-layer objectness map
over the mean of each anchor's cells, as a separable box filter of the
projected grid (score_anchors; the objectness gradient is the same filter
transposed), and keeps a fixed number of proposals: the top-scoring anchors
in detection, where no two anchors overlap enough to suppress one another;
in training, the jittered ground truth that survives NMS among itself, then
the top-scoring anchors it does not suppress. Stage two builds a detection
graph over the proposals (node features pooled from covered cells, and a
scene node pooled globally if the scene bank reads one), runs the
structure inference steps, and reads class probabilities and per-class box
deltas off the final node states.
A forward that runs no inference step (every step of the baseline arm, and
every arm's steps during the graph warm-up) is the detector alone: it reads
the heads off the projected ROI cells, builds no scene node and no graph,
and its backward pass runs no graph code (_forward, detector_backward).

Anchors, proposals, regression targets and ROIs are (k, 4) center-size rows
(cx, cy, w, h). A scene's ground truth is one structured array
(synth_data.GT_DTYPE) from the sampler to the metrics; its detections are
another (DETECTION_DTYPE), from the detection tail to the metrics and the CSV
writers.
Every scene of a run comes from one world, so a stack of scenes is one
(B, H, W, C) array of grids of the world's shape, stacked once. The
proposal stage's work that spans scenes runs in stacks. Stage one of a
training labels a window of TRAIN_WINDOW scenes' anchors at a time
(anchor_targets); anchors are scored for a stack of grids at once
(score_anchors: a stack of one per training iteration, a detection stack in
detection); and proposals are taken for a (B, A) stack of anchor scores at
once (_proposals), a window of training iterations or a detection stack per
call. Stage two runs on a stack of B scenes at once, from their RoiInputs record
(roi_inputs: the (B, n, 4) ROI rows, the cells pooled under them from the
stack of grids, the scene means, and in training what the loss reads of the
ROIs' targets, gathered once per stack): node features are (B, n, d) with
n = rois_per_image, and each product keeps its per-scene shape, so a
scene's numbers do not depend on what it is stacked with. Training
(roi_loss) runs stacks of one scene and records the tapes of the inference
steps for the backward pass; detect_scenes runs stacks of DETECT_STACK
scenes: it stacks their grids, scores and proposes them in one call each,
builds the stack's record (without targets) and spatial gate as training
builds them, and runs stage two forward only. Its tail thresholds the whole
stack's (B, n, K) probabilities at once, refines and clips every candidate
to the grid in one call, and suppresses them with one NMS grouped by
(scene, class). A model records the arm and TrainConfig it is laid out for,
and every stage reads its wiring from them.

Everything trains end to end with hand-derived gradients, except the proposal
stage: proposals are treated as fixed inputs by the loss (standard two-stage
practice) and the objectness map learns from its own binary target instead.
So a training run (train) has two parts, each done for the whole run before
the next. Stage one (stage_one) learns the objectness map alone, in one
pass over windows of TRAIN_WINDOW iterations: it samples and labels a
window's scenes, learns the map over them iteration by iteration, jitters
their ground truth, takes their proposals, and keeps the window's
objectness losses, decay terms and stage-two inputs (roi_inputs: pooled ROI
cells, scene means, and each scene's non-ignored ROI rows with their labels
and positive ROI rows with their labels and target deltas, as flat rows
with per-scene bounds, so the loss reads its targets ready-made and makes
no label test); then the window's scenes are dropped. Stage two (learn)
trains the rest of the model on those windows, one callback per
iteration, bitwise as one loop over both stages would; an ablation learns
stage one once and replays it for every arm.
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
from .structure_inference import (EDGE_BANK, POOLINGS, SCENE_BANK, sin_backward,
                                  sin_infer_tapes, sin_init, sin_params, spatial_gate)
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

# Training iterations per window of stage one, and so per RoiInputs record
# that stage two replays and per spatial-gate call of stage two. Stage one
# samples, stacks, labels (anchor_targets), jitters (_injected_boxes),
# proposes and builds the stage-two inputs of one window at a time, and
# holds no scene past its window; it keeps each window's record as
# roi_inputs returns it, and no array spans the run. An edge-arm training's
# tracemalloc peak grows by those records, about 2.5 KB per iteration (a
# test bounds it). Labelling a window of 16 default scenes peaks 1.0 MB
# above what it returns (64 scenes: 3.7 MB). Each window pays a fixed cost
# in those calls: a 400-iteration baseline stage one took medians of
# 183.5 / 171.7 / 178.9 ms in windows of 16 / 32 / 64 (40 interleaved
# rounds, process time, one BLAS thread on a shared 2-core x86 host).
TRAIN_WINDOW = 16

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
    banks = params.sin.banks
    names = [params.feat_proj.name, params.cls_head.name,
             params.reg_head.name, params.objectness.name]
    names += [f"{bank}/{m}" for bank in banks for m in MAPS]
    if EDGE_BANK in banks:
        names.append(params.sin.w_v.name)
    if len(banks) > 1 and params.sin.w_a is not None:
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
    pass and the detection tail read. A forward that runs no inference step
    has no graph: its edges are None, its tapes empty, and its final node
    features are features0 itself; neither it nor a forward whose steps do
    not read the scene bank has a scene node (scene_feature0 is None)."""

    boxes: np.ndarray           # (B, n, 4) center-size ROI rows
    features0: np.ndarray       # (B, n, d) initial node features
    scene_feature0: np.ndarray  # (B, d) scene node, or None
    features: np.ndarray        # (B, n, d) final node features, which the heads read
    edges: np.ndarray           # (B, n, n) the last step's edges; None if it computed none
    tapes: list                 # per-step tapes; none in detection
    probs: np.ndarray           # (B, n, K+1) softmax rows
    deltas: np.ndarray          # (B, n, K, 4) per-class refinements


def _softmax_rows(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


_EDGE_SIGN = np.array([[-1.0], [1.0]])   # low and high edges of a center-size row


def _pool_rois(grids, boxes):
    """(B, n, C) ROI features: for each center-size row of the (B, n, 4)
    `boxes`, the mean of the cells of its scene's grid in the (B, H, W, C)
    stack `grids` whose centers it covers (cell_window's rule), or of the
    single nearest cell center when it covers none (ties go row-major first;
    a NaN row pools cell (0, 0)).

    One gather for the whole stack: each ROI's window is laid out row-major
    in a (max rows, max cols) block of indices into the stack's
    (B * H * W, C) cell rows, and the block's slots past the window are set
    to -0.0. -0.0 is the exact additive identity (s + -0.0 == s for every
    s), so each block sums to its window's cells added one by one in
    row-major order, as a slice mean adds them, and is then divided by the
    cell count. That order relies on C >= 2 (validate_world requires it):
    numpy then adds along axis 1 one cell at a time, where with C == 1 it
    sums pairwise."""
    b, h, w, c = grids.shape
    n = boxes.shape[1]
    rows = boxes.reshape(-1, 4)
    lim = np.array([w, h])
    # cell_window on arrays, x first: the cell centers i + 0.5 below each
    # low and high edge (cx - w/2 == cx + -w/2 exactly); a NaN edge stays NaN,
    # so its window counts as empty
    edges = rows[:, None, :2] + _EDGE_SIGN * rows[:, None, 2:] / 2.0
    win = np.minimum(np.maximum(np.ceil(edges - 0.5), 0.0), lim)
    ext = win[:, 1] - win[:, 0]
    empty = ~(ext > 0.0).all(axis=1)
    if empty.any():
        # the nearest cell center per axis, past the grid's edge inf away
        span = np.arange(max(h, w))
        dist = np.abs(span + 0.5 - rows[empty, :2, None])
        dist[:, span >= lim[:, None]] = np.inf
        win[empty, 0] = dist.argmin(axis=2)
        ext[empty] = 1.0
    lo = win[:, 0].astype(np.intp)
    ext = ext.astype(np.intp)
    # each window's first cell in the stack's cell rows
    first = np.repeat(np.arange(b) * (h * w), n) + lo[:, 1] * w + lo[:, 0]
    col = np.arange(ext[:, 0].max())
    row = np.arange(ext[:, 1].max())[:, None]
    index = first[:, None, None] + row * w + col
    pad = (row >= ext[:, 1, None, None]) | (col >= ext[:, 0, None, None])
    index[pad] = 0
    cells = grids.reshape(-1, c).take(index.reshape(len(rows), -1), axis=0)
    cells[pad.reshape(len(rows), -1)] = -0.0
    sums = cells.sum(axis=1)
    sums /= (ext[:, 0] * ext[:, 1])[:, None]
    return sums.reshape(b, n, c)


def _scene_means(grids):
    """(B, C) mean cell vector of each grid of the (B, H, W, C) stack
    `grids`, each row bitwise the mean of its grid alone: numpy reduces
    each grid's H*W cells in the same order in the stack as alone."""
    return grids.mean(axis=(1, 2))


class LossTargets(NamedTuple):
    """What the ROI loss reads of a stack of scenes' targets, as flat rows,
    scene by scene and each scene's in ROI order: the ROIs that are not
    ignored, with their labels, and the positive ROIs, with their labels
    and target deltas. A row's ROI index is its own scene's. A one-scene
    stack's are that scene's, which multi_task_loss reads."""

    valid: np.ndarray           # (V,) ROI indices
    labels: np.ndarray          # (V,) their categories or background
    pos: np.ndarray             # (P,) ROI indices
    pos_labels: np.ndarray      # (P,) their categories
    pos_deltas: np.ndarray      # (P, 4) their target deltas


def _loss_targets(labels, target_deltas, num_categories):
    """The LossTargets of a stack of B scenes' (B, n) labels and (B, n, 4)
    target deltas (assign_targets), and their (B + 1, 2) bounds: scene b's
    valid rows are bounds[b, 0]:bounds[b + 1, 0], its positive rows
    bounds[b, 1]:bounds[b + 1, 1]. A fixed number of numpy calls for any B."""
    if labels.ndim != 2 or target_deltas.shape != labels.shape + (4,):
        raise ValueError(f"{labels.shape} labels but {target_deltas.shape} target deltas")
    valid = labels != IGNORE
    pos = valid & (labels < num_categories)
    bounds = np.zeros((len(labels) + 1, 2), dtype=np.intp)
    np.cumsum(np.stack([valid.sum(axis=1), pos.sum(axis=1)], axis=1), axis=0, out=bounds[1:])
    targets = LossTargets(np.nonzero(valid)[1], labels[valid], np.nonzero(pos)[1], labels[pos],
                          target_deltas[pos])
    return targets, bounds


class RoiInputs(NamedTuple):
    """What stage two reads of a stack of B scenes that no weight changes:
    their ROI rows, the cells pooled under them, the scene means, and, in
    training, what the loss reads of the ROIs' targets with its per-scene
    bounds (_loss_targets)."""

    boxes: np.ndarray           # (B, n, 4) center-size ROI rows
    node_avg: np.ndarray        # (B, n, C) _pool_rois
    scene_avg: np.ndarray       # (B, C)
    targets: LossTargets = None         # None in detection
    bounds: np.ndarray = None           # (B + 1, 2); None in detection and in scene()'s

    def scene(self, b):
        """Scene b's one-scene record, of views into this one's arrays; its
        targets are the scene's alone, so it needs no bounds."""
        (v0, p0), (v1, p1) = self.bounds[b:b + 2].tolist()
        valid, labels, pos, pos_labels, pos_deltas = self.targets
        return RoiInputs(self.boxes[b:b + 1], self.node_avg[b:b + 1], self.scene_avg[b:b + 1],
                         LossTargets(valid[v0:v1], labels[v0:v1], pos[p0:p1], pos_labels[p0:p1],
                                     pos_deltas[p0:p1]))


def roi_inputs(grids, boxes, gts=None, num_categories=None):
    """The RoiInputs of a stack of scenes: their (B, H, W, C) grids (an
    array, or B grids, which must share one shape) and (B, n, 4) ROI rows,
    with the loss's targets against the scenes' ground truth `gts`, one
    GT_DTYPE array per scene, when it and `num_categories` are given
    (assign_targets, then _loss_targets, once for the stack)."""
    grids = np.asarray(grids)
    targets = () if gts is None else _loss_targets(
        *assign_targets(boxes, gts, num_categories), num_categories)
    return RoiInputs(boxes, _pool_rois(grids, boxes), _scene_means(grids), *targets)


def _reads_gate(params, steps):
    """Whether `steps` inference steps of the model read the spatial gate."""
    return steps > 0 and EDGE_BANK in params.sin.banks


def _forward(params, rois, steps, record, gate=None):
    """Stage two over a stack of scenes from their RoiInputs `rois` (its
    targets unread): project the pooled ROI cells, run `steps` inference
    steps of the model's graph on them and apply both heads. Only a forward
    whose steps read the scene bank projects the scene means into the scene
    node; one that runs no step (every step of the baseline, and every
    arm's graph warm-up) reads the heads off the projected ROI cells, as the
    detector alone would. `gate` is the (B, n, n) spatial gate of the ROIs
    (structure_inference.spatial_gate), None if no step reads it. Returns
    the forward state; it holds the inference steps' tapes, which the
    backward pass needs, only if `record`, and the last step's edges, or
    None when no step computed them."""
    features0 = np.tanh(rois.node_avg @ params.feat_proj.value.T)
    scene0 = None
    if steps and SCENE_BANK in params.sin.banks:
        # one (d, C) by (C,) product per scene, the same as for a lone scene
        scene0 = np.tanh(np.matmul(params.feat_proj.value, rois.scene_avg[:, :, None])[:, :, 0])
    feats, edges, tapes = sin_infer_tapes(params.sin, features0, scene0, gate, steps, record)
    deltas = (feats @ params.reg_head.value.T).reshape(*rois.boxes.shape[:2], -1, 4)
    return ForwardState(boxes=rois.boxes, features0=features0, scene_feature0=scene0,
                        features=feats, edges=edges, tapes=tapes,
                        probs=_softmax_rows(feats @ params.cls_head.value.T), deltas=deltas)


# ---------------------------------------------------------------------------
# loss

def smooth_l1(u):
    """Elementwise smooth L1 of u and its derivative, from one |u| and one
    threshold test."""
    a = np.abs(u)
    small = a < SMOOTH_L1_THRESH
    return (np.where(small, 0.5 * u * u, a - 0.5 * SMOOTH_L1_THRESH),
            np.where(small, u, np.sign(u)))


@dataclass
class LossGrads:
    dlogits: np.ndarray
    ddeltas: np.ndarray
    parts: dict


def multi_task_loss(probs, deltas, targets):
    """Classification cross-entropy (mean over non-ignored ROIs) plus
    smooth-L1 regression averaged over the 4 * positives components, for one
    scene's (n, K+1) probs and (n, K, 4) deltas against its LossTargets
    `targets` (a one-scene RoiInputs'). Only the target class's deltas
    receive gradient. Returns (loss, grads) with grads expressed against the
    raw logits and the delta tensor."""
    valid, labels, pos, pos_labels, target = targets
    dlogits = np.zeros(probs.shape)
    cls_loss = 0.0
    if len(valid):
        p_true = probs[valid, labels]
        cls_loss = float(-np.log(p_true).sum() / len(valid))
        rows = probs[valid]
        rows[np.arange(len(valid)), labels] = p_true - 1.0
        rows /= len(valid)
        dlogits[valid] = rows

    ddeltas = np.zeros(deltas.shape)
    reg_loss = 0.0
    if len(pos):
        denom = 4.0 * len(pos)
        terms, grad = smooth_l1(deltas[pos, pos_labels] - target)         # (P, 4)
        # each row's four-term sum, then the rows added one at a time, in order
        acc = float(np.add.accumulate(terms.sum(axis=1))[-1])
        grad /= denom
        ddeltas[pos, pos_labels] = grad
        reg_loss = acc / denom

    loss = cls_loss + reg_loss
    return loss, LossGrads(dlogits=dlogits, ddeltas=ddeltas,
                           parts={"cls": cls_loss, "reg": reg_loss})


def detector_backward(params, rois, state, grads):
    """Push one scene's head gradients through the inference steps and the
    feature projection, accumulating into the parameter store. `state` is
    the one-scene stack _forward recorded from the RoiInputs `rois`.
    Proposal boxes are constants here. A state with no tapes ran no step,
    so it has no graph to push through: the head gradient goes straight
    through the projection's tanh into det/feat_proj. Only a state with a
    scene node pushes a scene gradient into det/feat_proj."""
    b, n = state.probs.shape[:2]
    if b != 1:
        raise ValueError(f"detector_backward: expected a one-scene stack, got {b} scenes")
    feats = state.features[0]
    params.cls_head.grad += grads.dlogits.T @ feats
    dfeats = grads.dlogits @ params.cls_head.value
    dd = grads.ddeltas.reshape(n, -1)
    params.reg_head.grad += dd.T @ feats
    dfeats = dfeats + dd @ params.reg_head.value

    dscene = None
    if state.tapes:
        dfeat0, dscene = sin_backward(params.sin, state.tapes, dfeats[None])
        dfeats = dfeat0[0]
    da = (1.0 - state.features0[0] ** 2) * dfeats
    params.feat_proj.grad += da.T @ rois.node_avg[0]
    if dscene is not None:
        ds = (1.0 - state.scene_feature0[0] ** 2) * dscene[0]
        params.feat_proj.grad += np.outer(ds, rois.scene_avg[0])


def roi_loss(params, rois, steps, gate=None):
    """One scene's stage-two loss after `steps` inference steps, from its
    one-scene RoiInputs `rois` and the (1, n, n) spatial gate of its ROIs
    (None if no step reads it); its gradient goes into the store."""
    state = _forward(params, rois, steps, True, gate)
    loss, grads = multi_task_loss(state.probs[0], state.deltas[0], rois.targets)
    detector_backward(params, rois, state, grads)
    return loss


class WeightDecay:
    """The L2 term 0.5 * wd * ||p||^2 per named parameter of a laid-out
    store, summed over them in the order given, with its bookkeeping
    resolved once, ahead of a training's steps: the names' spans of the
    store's buffers, merged (ParamStore.spans), one squares buffer, and
    each name's slice of it. A call adds wd * p to their gradients, one
    numpy call per span, and returns the term. Only those spans of the
    value buffer are squared, and each ||p||^2 adds up the parameter's
    slice of them, in the order a sum over the contiguous parameter itself
    takes. The terms of the `done` names were taken elsewhere, with their
    gradients: a call is given them, in the order their names come in
    `names`, adds each in its name's place, and leaves the name's gradient
    alone."""

    def __init__(self, store, names, wd, done=()):
        self.wd, self.half = wd, 0.5 * wd
        spans = store.spans([name for name in names if name not in done])
        squares = np.empty_like(store.values)       # written on those spans only
        self.spans = [(store.values[span], store.grads[span], squares[span]) for span in spans]
        # each name's squares, or None for a done name
        self.terms = [None if name in done else squares[store.span(name)] for name in names]

    def __call__(self, *done):
        if self.wd == 0.0:
            return 0.0
        for values, _, squares in self.spans:
            np.square(values, out=squares)
        done = iter(done)
        loss = 0.0
        for squares in self.terms:
            loss += next(done) if squares is None else \
                self.half * float(np.add.reduce(squares))
        for values, grads, _ in self.spans:
            grads += self.wd * values
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
# features settle first, then switch the graph on. A warm-up step runs no
# inference step, so it runs no graph code either: no scene node, no graph
# and no graph backward, as a baseline step.
GRAPH_WARMUP_FRAC = 0.25


class ObjectnessTargets(NamedTuple):
    """One scene's binary anchor labels, compactly: the positive and the
    ignored anchor indices (every other anchor is negative) and the weight
    of each positive and each negative."""

    pos: np.ndarray
    ignored: np.ndarray
    w_pos: float
    w_neg: float


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


def anchor_targets(anchors, gts):
    """Binary anchor labels of a stack of B scenes on one grid, one
    ObjectnessTargets per GT_DTYPE array of `gts`: 1 over OBJ_IOU_POS, 0
    under OBJ_IOU_NEG, ignore between; every gt forces its best anchor
    positive (ties to the lowest anchor index, anchor 0 for a gt that meets
    none). The band is looser than the ROI one: anchors sit on a unit-stride
    grid, so demanding 0.5 overlap would leave most objects with a single
    forced positive. Positives and negatives get half the loss each (each
    positive weighs 0.5 / positives, each negative 0.5 / negatives),
    otherwise the handful of positives would drown in ~1500 negatives.

    The labels come from windowed overlaps. A gt overlaps an anchor only in
    the rows and columns where some anchor type's extent overlaps it along y
    and along x. Each gt's per-axis overlaps are taken over that window alone
    (_axis_overlaps), into one (R, rows, cols, T) block for the stack's R
    gts, and the IoUs come from them with pairwise_iou's float operations, so
    each is bitwise pairwise_iou's for its (anchor, gt) pair. Every other IoU
    is zero. The IoUs are scatter-maxed into a (B, A) array of best IoUs; a
    gt's forced anchor is the argmax over its window, where each anchor
    first appears in anchor order. A scene's labels are its own in any
    stack."""
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


def objectness_loss(params, grid, scored, targets):
    """Binary cross-entropy of the anchor scores of one scene's (H, W, C)
    `grid` against its objectness targets (anchor_targets), its gradient
    accumulated into the objectness map; the only supervision the proposal
    scores receive. `scored` is the grid's anchor set and (A,) scores under
    these params (score_anchors, one row of its stack). The
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
    h, w, c = grid.shape
    per_type = ds.reshape(h, w, -1).transpose(2, 0, 1) / anchors.count
    cells = anchors.row_cover.transpose(0, 2, 1) @ per_type @ anchors.col_cover
    params.objectness.grad += cells.reshape(len(cells), -1) @ grid.reshape(-1, c)
    return OBJ_LOSS_WEIGHT * float((weights * bce).sum())


# ---------------------------------------------------------------------------
# training

def _injected_boxes(gts, width, height, rng, n):
    """The injected ground truth of a run of training iterations, one per
    GT_DTYPE array of `gts`, in order, on a grid of `width` by `height`
    cells. Each scene's gt boxes are jittered by apply_deltas with
    GT_JITTER-scaled normal draws from `rng`, one (G, 4) block per
    iteration in turn (none for a scene without gt), and clipped to the
    grid. Then greedy NMS at PROPOSAL_NMS_THRESH runs among each
    iteration's boxes alone, in gt order (they tie above every anchor), and
    keeps at most n of them.

    Returns (centers, corners, bounds): the kept boxes of every iteration as
    (R, 4) center-size and corner rows, iteration i's being rows
    bounds[i]:bounds[i + 1]. Every operation is elementwise or per group,
    and the draws are one block per iteration in order, so calls on
    consecutive runs of iterations that share `rng` give bitwise the boxes
    of one call on all of them."""
    group = np.repeat(np.arange(len(gts)), [len(gt) for gt in gts])
    boxes = np.concatenate([gt["box"] for gt in gts])
    boxes = clip_box(apply_deltas(boxes, rng.normal(0.0, GT_JITTER, size=boxes.shape)),
                     width, height)
    corners = centers_to_corners(boxes)
    keep = nms_by_group(corners, np.zeros(len(boxes)), group, PROPOSAL_NMS_THRESH)
    g = group[keep]                         # keep runs by group, each in gt order
    keep = keep[np.arange(len(keep)) - np.searchsorted(g, g) < n]
    bounds = np.zeros(len(gts) + 1, dtype=np.intp)
    np.cumsum(np.bincount(group[keep], minlength=len(gts)), out=bounds[1:])
    return boxes[keep], corners[keep], bounds


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
    windows: list                # each window's stage-two inputs (RoiInputs), in order


def stage_one(world, cfg, n_train, data_seed):
    """Stage one of a training run, learned on its own, ahead of stage two,
    in one pass over windows of TRAIN_WINDOW iterations.

    The order draws one permutation of the n_train scenes from the shuffle
    stream per pass over them. For each window, the scenes of its
    iterations are sampled (one scene_sampler for the run; a scene that an
    n_train < iters run revisits is sampled again) and their grids stacked
    once, and they are labelled in one call (anchor_targets). Then each
    iteration scores its scene's anchors, adds the objectness loss and the
    map's decay term, and takes the momentum step on the map: the map gets
    gradient only from its own loss, and its decay, rate and momentum act
    elementwise on it, so it learns alone exactly as it does inside the
    full loop. The map is a fresh model's (create_detector_params), which
    every arm initialises alike. Then the ground truth of the window's
    iterations is jittered from the run's one gt-jitter stream
    (_injected_boxes), their proposals are taken in one call (_proposals)
    and their stage-two inputs built in another (roi_inputs), which is
    kept as the window's record (its scene(j) is the window's iteration
    j's; the window where stage one stops holds the iterations that ran),
    and the window's scenes are dropped. Scenes are index-addressed and
    every draw comes in iteration order, so the records are bitwise those
    of a scene-by-scene loop."""
    validate_config(cfg)
    if n_train < 1:
        raise ValueError("n_train must be >= 1")
    n, iters, c = cfg.rois_per_image, cfg.iters, world.channels
    store = ParamStore()
    params = create_detector_params(store, c, world.num_categories, cfg,
                                    "baseline", derive_seed(cfg.seed, "init"))
    obj = params.objectness
    velocity = np.zeros_like(obj.value)
    shuffle_rng = np.random.default_rng(seed_for(cfg.seed, "shuffle"))
    jitter_rng = np.random.default_rng(seed_for(cfg.seed, "gt-jitter"))
    passes = -(-iters // n_train)
    order = np.concatenate([shuffle_rng.permutation(n_train) for _ in range(passes)])[:iters]
    sample = scene_sampler(world)
    anchors = anchor_set(world.height, world.width)
    scores = np.empty((TRAIN_WINDOW, len(anchors.centers)))
    decay = WeightDecay(store, [obj.name], cfg.weight_decay)
    losses, decays, windows = [], [], []
    for start in range(0, iters, TRAIN_WINDOW):
        scenes = [sample(data_seed, idx) for idx in order[start:start + TRAIN_WINDOW]]
        grids = np.stack([scene.grid for scene in scenes])
        gts = [scene.gt for scene in scenes]
        targets = anchor_targets(anchors, gts)
        for j, grid in enumerate(grids):
            obj.grad[...] = 0.0
            scores[j] = score_anchors(params, grid[None])[1][0]     # a stack of one
            losses.append(objectness_loss(params, grid, (anchors, scores[j]), targets[j]))
            decays.append(decay())
            if not math.isfinite(losses[-1] + decays[-1]):
                break       # the full loss diverges here too; stage two raises
            velocity *= cfg.momentum
            velocity -= _rate(cfg, start + j) * obj.grad
            obj.value += velocity
        b = len(losses) - start             # the window's iterations that ran
        boxes = _proposals(anchors, scores[:b], n, _injected_boxes(
            gts[:b], world.width, world.height, jitter_rng, n))
        windows.append(roi_inputs(grids[:b], boxes, gts[:b], world.num_categories))
        if not math.isfinite(losses[-1] + decays[-1]):
            break
    return StageOne(cfg, obj.value.copy(), losses, decays, windows)


@dataclass
class TrainResult:
    store: ParamStore
    params: DetectorParams
    losses: list


def learn(world, cfg, arm, stage1, callback=None):
    """Stage two of a training run over its StageOne `stage1` (stage_one),
    which any arm and any (pooling, T, feat_dim) of the same run config can
    replay: SGD with momentum on every other active parameter, one callback
    per iteration. It steps through stage one's windows in order; an
    iteration runs features, graph, heads, loss and backward on its
    window's record of it, then adds the recorded objectness loss and the
    weight decay (WeightDecay, resolved once for the run), over the sorted
    active names with the recorded det/objectness term in its place: the
    sum the full loop adds, bitwise. An iteration of the graph warm-up, and
    every iteration of the baseline, runs no inference step and so no graph
    code: features, heads, loss and backward of the detector alone
    (_forward). A mode with edges builds the spatial gates of a window that
    holds an iteration past the graph warm-up in one call (spatial_gate),
    before the window's first step; a scene's gate is the same in any
    stack. The model ends with stage one's map.

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
    decay = WeightDecay(store, active, cfg.weight_decay, (obj,))
    warmup = int(GRAPH_WARMUP_FRAC * cfg.iters)
    losses = []
    for window in stage1.windows:
        first = len(losses)                 # the window's first iteration
        gates = None
        if _reads_gate(params, cfg.T) and first + len(window.boxes) > warmup:
            gates = spatial_gate(window.boxes)
        for j in range(len(window.boxes)):
            it = first + j
            store.zero_grads()
            graph_on = it >= warmup
            gate = gates[j:j + 1] if graph_on and gates is not None else None
            loss = roi_loss(params, window.scene(j), cfg.T if graph_on else 0, gate)
            loss += stage1.obj_loss[it]
            loss += decay(stage1.obj_decay[it])
            if not math.isfinite(loss):
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
    """SGD with momentum over scenes drawn from the world, in two parts:
    stage one (stage_one) learns the objectness map alone and keeps every
    iteration's stage-two inputs, window by window, and stage two (learn)
    trains the rest of the model, with one callback per iteration. The
    result is bitwise that of one loop that runs both stages in every
    iteration.

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


def detect(params, samples, score_thresh):
    """Stage one and stage two of a stack of scenes, then the tail. The
    scenes' grids, which must share one shape (else ValueError), are
    stacked once; their anchors are scored in one call (score_anchors) and
    their proposals taken in another (_proposals with no injected box:
    detection never reads the ground truth). The stack's stage-two inputs
    are built as training builds them (roi_inputs, without targets), its
    spatial gate, when the graph reads one, by spatial_gate, and stage two
    runs once over the stack. The tail takes the whole stack: every
    (scene, class, ROI) score that clears the threshold is refined and
    clipped to the grid, and all of them go through one NMS grouped by
    (scene, class). Returns the detections of each scene, a
    DETECTION_DTYPE array sorted by class, then score descending, then box,
    and the stack's forward state, which holds no tapes; its edges are
    None when no step computed them (no edge bank, or T = 0). A scene's
    detections do not depend on its stack or on ROI order (modulo exact
    score ties)."""
    n, steps = params.cfg.rois_per_image, params.cfg.T
    grids = np.stack([sample.grid for sample in samples])
    boxes = _proposals(*score_anchors(params, grids), n)
    gate = spatial_gate(boxes) if _reads_gate(params, steps) else None
    state = _forward(params, roi_inputs(grids, boxes), steps, False, gate)
    k = state.deltas.shape[2]
    # by scene, then class, then ROI
    scene, cats, rois = np.nonzero(state.probs[:, :, :k].transpose(0, 2, 1) >= score_thresh)
    scores = state.probs[scene, rois, cats]
    h, w = grids.shape[1:3]
    refined = clip_box(apply_deltas(boxes[scene, rois], state.deltas[scene, rois, cats]), w, h)
    keep = nms_by_group(centers_to_corners(refined), scores, scene * k + cats,
                        FINAL_NMS_THRESH)
    r = refined[keep]
    keep = keep[np.lexsort((r[:, 3], r[:, 2], r[:, 1], r[:, 0], -scores[keep], cats[keep],
                            scene[keep]))]
    dets = np.empty(len(keep), DETECTION_DTYPE)
    dets["box"], dets["category"] = refined[keep], cats[keep]
    dets["score"], dets["roi"] = scores[keep], rois[keep]
    ends = np.searchsorted(scene[keep], np.arange(len(samples) + 1)).tolist()
    return [dets[lo:hi] for lo, hi in zip(ends, ends[1:])], state


def detect_scenes(params, samples, score_thresh):
    """Final detections for each scene, one DETECTION_DTYPE array per sample
    (see detect), in stacks of DETECT_STACK scenes; a scene's
    detections are the same in any stack, alone or not."""
    dets = []
    for start in range(0, len(samples), DETECT_STACK):
        dets += detect(params, samples[start:start + DETECT_STACK], score_thresh)[0]
    return dets

