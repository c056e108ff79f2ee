"""Two-stage toy detector over cell grids.

Stage one scores a fixed anchor set with a learned one-layer objectness map
and keeps a fixed number of proposals via NMS. Stage two builds a detection
graph over the proposals (node features pooled from covered cells, one scene
node pooled globally), runs the structure inference steps, and reads class
probabilities and per-class box deltas off the final node states.

Everything trains end to end with hand-derived gradients, except the proposal
stage: proposals are treated as fixed inputs by the loss (standard two-stage
practice) and the objectness map learns from its own binary target instead.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .geometry import (Box, apply_deltas, boxes_to_array, clip_box, encode_deltas, nms,
                       pairwise_iou)
from .memory_cell import create_gru_params
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

ANCHOR_SCALES = (1.4, 2.2, 3.0)
ANCHOR_RATIOS = (1.0, 1.5)

ARMS = ("baseline", "scene", "edge", "sin")


class TrainingDiverged(RuntimeError):
    def __init__(self, iteration, message=None):
        self.iteration = iteration
        super().__init__(message or f"loss became non-finite at iteration {iteration}")


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
    def feat_dim(self):
        return self.feat_proj.value.shape[0]

    @property
    def channels(self):
        return self.feat_proj.value.shape[1]

    @property
    def num_categories(self):
        return self.cls_head.value.shape[0] - 1

    @property
    def background(self):
        return self.num_categories


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
        names += [params.sin.w_p.name, params.sin.w_v.name]
    if mode == "both" and params.sin.w_a is not None:
        names.append(params.sin.w_a.name)
    return sorted(names)


# ---------------------------------------------------------------------------
# anchors and proposals

@dataclass
class AnchorSet:
    boxes: list
    corners: np.ndarray      # (A, 4)
    cell_index: np.ndarray   # (A,) row-major cell of each anchor
    type_index: np.ndarray   # (A,) scale/ratio slot of each anchor
    pool_index: np.ndarray   # (4, A) integral-image rows of r1c1, r0c1, r1c0, r0c0
    pool_count: np.ndarray   # (A, 1) cells in each clipped window


def _span(side):
    """Cell offsets covered by a box side of this length centered on a cell
    center: the offsets o with -side/2 <= o < side/2 (same covered-cell rule
    as feature pooling)."""
    offs = [o for o in range(-int(math.ceil(side)), int(math.ceil(side)) + 1)
            if -side / 2.0 <= o < side / 2.0]
    return offs[0], offs[-1]


_ANCHOR_CACHE = {}


def anchor_set(height, width, scales=ANCHOR_SCALES, ratios=ANCHOR_RATIOS):
    """All anchors for a grid, centered on cell centers, enumerated row-major
    by cell then by (scale, ratio). Anchors may overhang the grid edges.
    Each anchor's covered-cell window, clipped to the grid, is cached as the
    flat (height+1)*(width+1) integral-image rows of its four corners."""
    key = (height, width, tuple(scales), tuple(ratios))
    hit = _ANCHOR_CACHE.get(key)
    if hit is not None:
        return hit
    sizes = [(s * math.sqrt(ratio), s / math.sqrt(ratio)) for s in scales for ratio in ratios]
    boxes = [Box(c + 0.5, r + 0.5, aw, ah)
             for r in range(height) for c in range(width) for aw, ah in sizes]
    dr0, dr1, dc0, dc1 = np.array([_span(ah) + _span(aw) for aw, ah in sizes]).T
    rows = np.arange(height)[:, None, None]     # broadcast over (H, W, types)
    cols = np.arange(width)[None, :, None]
    r0 = np.clip(rows + dr0, 0, height - 1)
    r1 = np.clip(rows + dr1, 0, height - 1) + 1
    c0 = np.clip(cols + dc0, 0, width - 1)
    c1 = np.clip(cols + dc1, 0, width - 1) + 1
    stride = width + 1
    out = AnchorSet(boxes=boxes, corners=boxes_to_array(boxes),
                    cell_index=np.repeat(np.arange(height * width), len(sizes)),
                    type_index=np.tile(np.arange(len(sizes)), height * width),
                    pool_index=np.stack([r1 * stride + c1, r0 * stride + c1,
                                         r1 * stride + c0, r0 * stride + c0]).reshape(4, -1),
                    pool_count=((r1 - r0) * (c1 - c0)).reshape(-1, 1))
    _ANCHOR_CACHE[key] = out
    return out


def _anchor_features(sample, anchors):
    """(A, C) average of the cells each anchor covers, clipped to the grid,
    computed with an integral image. Matches forward's ROI pooling for
    anchors that stay inside the grid."""
    h, w, c = sample.grid.shape
    integral = np.zeros((h + 1, w + 1, c))
    integral[1:, 1:] = sample.grid.cumsum(axis=0).cumsum(axis=1)
    flat = integral.reshape(-1, c)
    i11, i01, i10, i00 = anchors.pool_index
    return (flat[i11] - flat[i01] - flat[i10] + flat[i00]) / anchors.pool_count


def score_anchors(params, sample):
    """The grid's anchor set, its (A, C) pooled features and its (A,)
    objectness scores. Proposals and the objectness loss of one training
    iteration share one call: both read the same grid and parameters."""
    anchors = anchor_set(*sample.grid.shape[:2])
    feats = _anchor_features(sample, anchors)
    per_type = feats @ params.objectness.value.T          # (A, num types)
    return anchors, feats, per_type[np.arange(len(feats)), anchors.type_index]


def propose(params, sample, cfg, train=False, rng=None, scored=None):
    """Exactly cfg.rois_per_image proposal boxes.

    Anchors are scored by the objectness map (or `scored`, the result of
    score_anchors for this sample and params) and pruned by NMS; in training
    mode the ground-truth boxes (jittered when an RNG is supplied) are
    prepended with scores above any anchor so they survive pruning. Too few
    survivors are padded by repeating the top kept boxes.
    """
    anchors, _feats, scores = scored or score_anchors(params, sample)
    injected = []
    corners = anchors.corners
    if train and sample.gt:
        h, w = sample.grid.shape[:2]
        for obj in sample.gt:
            b = obj.box
            if rng is not None and GT_JITTER > 0:
                b = clip_box(apply_deltas(b, rng.normal(0.0, GT_JITTER, size=4)), w, h)
            injected.append(b)
        corners = np.concatenate([boxes_to_array(injected), corners])
        scores = np.concatenate([np.full(len(injected), 1e9), scores])
    keep = nms(corners, scores, PROPOSAL_NMS_THRESH, max_keep=cfg.rois_per_image)
    n_inj = len(injected)
    props = [injected[i] if i < n_inj else anchors.boxes[i - n_inj] for i in keep]
    short = cfg.rois_per_image - len(props)
    for j in range(short):
        props.append(props[j % len(keep)])
    return props


# ---------------------------------------------------------------------------
# target assignment

@dataclass
class RoiTarget:
    label: int               # category, background (= num categories), or IGNORE
    deltas: np.ndarray = None


def assign_targets(props, gt, num_categories, iou_pos=IOU_POS, iou_neg=IOU_NEG):
    """Per-ROI class target plus regression deltas for positives.

    IoU >= iou_pos against some gt makes a ROI positive for the best gt;
    IoU < iou_neg makes it background; in between it is ignored. Each gt also
    forces its best-overlapping ROI positive so no object goes unsupervised.
    """
    background = num_categories
    if not gt:
        return [RoiTarget(background) for _ in props]
    pc = boxes_to_array(props)
    gc = boxes_to_array([o.box for o in gt])
    ious = pairwise_iou(pc, gc)                 # (P, G)
    best_gt = ious.argmax(axis=1)
    best_iou = ious[np.arange(len(props)), best_gt]
    assigned = np.full(len(props), -1, dtype=np.intp)
    assigned[best_iou >= iou_pos] = best_gt[best_iou >= iou_pos]
    neg = best_iou < iou_neg
    for g in range(len(gt)):                     # forced matches, ties to lowest ROI
        p = int(ious[:, g].argmax())
        if ious[p, g] > 0.0:
            assigned[p] = g
            neg[p] = False
    out = []
    for i in range(len(props)):
        if assigned[i] >= 0:
            g = gt[assigned[i]]
            out.append(RoiTarget(g.category, encode_deltas(props[i], g.box)))
        elif neg[i]:
            out.append(RoiTarget(background))
        else:
            out.append(RoiTarget(IGNORE))
    return out


# ---------------------------------------------------------------------------
# features and the forward pass

def _box_cells(sample, box):
    """Cell window pooled for a box: the covered cells, or the single nearest
    cell center when the box covers none (ties go row-major first)."""
    h, w = sample.grid.shape[:2]
    r0, r1, c0, c1 = win = cell_window(box, h, w)
    if r1 == r0 or c1 == c0:
        r0 = int(np.argmin(np.abs(np.arange(h) + 0.5 - box.cy)))
        c0 = int(np.argmin(np.abs(np.arange(w) + 0.5 - box.cx)))
        return r0, r0 + 1, c0, c0 + 1
    return win


@dataclass
class ForwardState:
    boxes: list
    node_avg: np.ndarray        # (n, C) pooled cell vectors
    features0: np.ndarray       # (n, d) initial node features
    scene_avg: np.ndarray       # (C,)
    scene_feature0: np.ndarray  # (d,)
    graph_out: SceneGraph = None
    tapes: list = field(default_factory=list)
    logits: np.ndarray = None   # (n, K+1)
    probs: np.ndarray = None    # (n, K+1) softmax rows
    deltas: np.ndarray = None   # (n, K, 4) per-class refinements
    edges: np.ndarray = None    # (n, n) last-step edge matrix; None when no step computed one


def _softmax_rows(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def forward(params, sample, cfg, boxes=None, mode="both", steps=None,
            train=False, rng=None):
    """Propose (unless boxes are given), run the inference steps, and apply
    both heads. Returns the full state needed for the backward pass."""
    if boxes is None:
        boxes = propose(params, sample, cfg, train=train, rng=rng)
    if steps is None:
        steps = cfg.T
    n = len(boxes)
    node_avg = np.empty((n, params.channels))
    for i, b in enumerate(boxes):
        r0, r1, c0, c1 = _box_cells(sample, b)
        node_avg[i] = sample.grid[r0:r1, c0:c1].mean(axis=(0, 1))
    features0 = np.tanh(node_avg @ params.feat_proj.value.T)
    scene_avg = sample.grid.mean(axis=(0, 1))
    scene0 = np.tanh(params.feat_proj.value @ scene_avg)

    graph = SceneGraph(node_features=features0, boxes=boxes, scene_feature=scene0)
    graph_out, tapes = sin_infer_tapes(params.sin, graph, steps=steps,
                                       pooling=cfg.pooling, mode=mode)
    feats = graph_out.node_features
    logits = feats @ params.cls_head.value.T
    deltas = (feats @ params.reg_head.value.T).reshape(n, params.num_categories, 4)
    edges = next((t.edge_cache.e for t in reversed(tapes) if t.edge_cache is not None),
                 None)
    return ForwardState(boxes=boxes, node_avg=node_avg, features0=features0,
                        scene_avg=scene_avg, scene_feature0=scene0,
                        graph_out=graph_out, tapes=tapes, logits=logits,
                        probs=_softmax_rows(logits), deltas=deltas, edges=edges)


# ---------------------------------------------------------------------------
# loss

def smooth_l1(u):
    u = np.asarray(u, dtype=np.float64)
    a = np.abs(u)
    return np.where(a < SMOOTH_L1_THRESH, 0.5 * u * u, a - 0.5 * SMOOTH_L1_THRESH)


def smooth_l1_grad(u):
    u = np.asarray(u, dtype=np.float64)
    return np.where(np.abs(u) < SMOOTH_L1_THRESH, u, np.sign(u))


@dataclass
class LossGrads:
    dlogits: np.ndarray
    ddeltas: np.ndarray
    parts: dict


def multi_task_loss(outputs, targets, lam=1.0):
    """Classification cross-entropy (mean over non-ignored ROIs) plus lam times
    smooth-L1 regression averaged over the 4 * positives components. Only the
    target class's deltas receive gradient. Returns (loss, grads) with grads
    expressed against the raw logits and the delta tensor."""
    probs, deltas = outputs.probs, outputs.deltas
    n, k1 = probs.shape
    labels = np.array([t.label for t in targets], dtype=np.intp)
    if len(labels) != n:
        raise ValueError(f"{n} ROIs but {len(labels)} targets")
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
    positives = [i for i in valid if labels[i] < k1 - 1 and targets[i].deltas is not None]
    if positives:
        denom = 4.0 * len(positives)
        acc = 0.0
        for i in positives:
            u = deltas[i, labels[i]] - targets[i].deltas
            acc += float(smooth_l1(u).sum())
            ddeltas[i, labels[i]] = lam * smooth_l1_grad(u) / denom
        reg_loss = lam * acc / denom

    loss = cls_loss + reg_loss
    return loss, LossGrads(dlogits=dlogits, ddeltas=ddeltas,
                           parts={"cls": cls_loss, "reg": reg_loss})


def detector_backward(params, state, grads):
    """Push head gradients through the inference steps and the feature
    projection, accumulating into the parameter store. Proposal boxes are
    constants here. Returns the gradient on the initial node features."""
    n = state.logits.shape[0]
    feats = state.graph_out.node_features
    params.cls_head.grad += grads.dlogits.T @ feats
    dfeats = grads.dlogits @ params.cls_head.value
    dd = grads.ddeltas.reshape(n, -1)
    params.reg_head.grad += dd.T @ feats
    dfeats = dfeats + dd @ params.reg_head.value

    dfeat0, dscene = sin_backward(params.sin, state.tapes, dfeats)
    da = (1.0 - state.features0 ** 2) * dfeat0
    params.feat_proj.grad += da.T @ state.node_avg
    ds = (1.0 - state.scene_feature0 ** 2) * dscene
    params.feat_proj.grad += np.outer(ds, state.scene_avg)
    return dfeat0


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
    between; every gt forces its best anchor positive. The band is looser than
    the ROI one: anchors sit on a unit-stride grid, so demanding 0.5 overlap
    would leave most objects with a single forced positive."""
    a = len(anchors.boxes)
    if not gt:
        return np.zeros(a), np.ones(a, dtype=bool)
    ious = pairwise_iou(anchors.corners, boxes_to_array([o.box for o in gt]))
    best = ious.max(axis=1)
    y = np.zeros(a)
    mask = np.ones(a, dtype=bool)
    mask[(best >= OBJ_IOU_NEG) & (best < OBJ_IOU_POS)] = False
    y[best >= OBJ_IOU_POS] = 1.0
    forced = ious.argmax(axis=0)
    y[forced] = 1.0
    mask[forced] = True
    return y, mask


def objectness_loss(params, sample, accumulate=True, scored=None):
    """Binary cross-entropy on anchor labels; the only supervision the
    proposal scores receive. Positive and negative anchors contribute half the
    loss each, otherwise the handful of positives would drown in ~1500
    negatives. `scored` is score_anchors' result for this sample and params,
    computed here when not given."""
    anchors, feats, s = scored or score_anchors(params, sample)
    y, mask = _anchor_targets(anchors, sample.gt)
    weights = np.zeros_like(s)
    for side in (0.0, 1.0):
        pick = mask & (y == side)
        n = int(pick.sum())
        if n:
            weights[pick] = 0.5 / n
    bce = np.maximum(s, 0.0) - s * y + np.log1p(np.exp(-np.abs(s)))
    loss = OBJ_LOSS_WEIGHT * float((weights * bce).sum())
    if accumulate:
        ds = OBJ_LOSS_WEIGHT * weights * (expit(s) - y)
        # types cycle fastest, so axis 0 of the (cells, types, C) view runs
        # over one type's anchors; accumulate adds them one at a time, in order
        grad = params.objectness.grad
        per_cell = (ds[:, None] * feats).reshape(-1, *grad.shape)
        grad[:] = np.add.accumulate(np.concatenate([grad[None], per_cell]))[-1]
    return loss


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
    active = [store[name] for name in active_param_names(params, arm)]
    # the spatial gate w_p stays frozen at its locality prior for the whole
    # run (its gradient is computed but never applied). Edges only pay off
    # once the edge GRU has learned to read messages, and that takes longer
    # than SGD needs to discover that closing the one gate direction silences
    # early message noise; letting the gate train late in the run just
    # restarts that race (it either slams shut or grows until the messages
    # saturate the GRU), so w_v carries the learned part of the edge weight.
    trained = [p for p in store.params() if p is not params.sin.w_p]
    velocity = {p.name: np.zeros_like(p.value) for p in trained}

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

        store.zero_grads()
        scored = score_anchors(params, sample)
        props = propose(params, sample, cfg, train=True, rng=jitter_rng, scored=scored)
        targets = assign_targets(props, sample.gt, world.num_categories)
        state = forward(params, sample, cfg, boxes=props, mode=mode,
                        steps=steps if it >= warmup else 0)
        loss, grads = multi_task_loss(state, targets)
        detector_backward(params, state, grads)
        loss += objectness_loss(params, sample, scored=scored)
        loss += apply_weight_decay(active, cfg.weight_decay)
        if not np.isfinite(loss):
            raise TrainingDiverged(it)

        lr = cfg.lr * (0.1 if it >= drop_at else 1.0)
        for p in trained:
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


def detect(params, sample, cfg, score_thresh=0.05, arm="sin", return_state=False):
    """Final detections for one scene: per class, refine every ROI whose score
    clears the threshold, clip, and run NMS. Output order is deterministic and
    independent of ROI input order (modulo exact score ties).

    With return_state the forward state comes back too, its `edges` always
    filled: arms whose last step computed no edges get them from the final
    node features."""
    mode, steps = arm_plan(arm, cfg)
    h, w = sample.grid.shape[:2]
    state = forward(params, sample, cfg, mode=mode, steps=steps, train=False)
    dets = []
    for cat in range(params.num_categories):
        scores = state.probs[:, cat]
        sel = np.where(scores >= score_thresh)[0]
        if sel.size == 0:
            continue
        refined = [clip_box(apply_deltas(state.boxes[r], state.deltas[r, cat]), w, h)
                   for r in sel]
        keep = nms(boxes_to_array(refined), scores[sel], FINAL_NMS_THRESH,
                   max_keep=sel.size)
        for k in keep:
            dets.append(Detection(box=refined[k], category=cat,
                                  score=float(scores[sel[k]]), roi_index=int(sel[k])))
    dets.sort(key=lambda d: (d.category, -d.score, d.box.cx, d.box.cy, d.box.w, d.box.h))
    if return_state:
        if state.edges is None:
            state.edges = compute_edges(params.sin, state.graph_out)
        return dets, state
    return dets
