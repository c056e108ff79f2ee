"""Independent scalar-loop references for the library's numeric kernels.

Everything here is written with explicit Python loops and `math` calls on
purpose: these functions must fail differently from the vectorized library
code, or comparing the two proves nothing. Keep them slow and obvious.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """One center-size box of Python floats, the scalar oracles' box type.
    Area is available as `.area`."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")

    @property
    def area(self):
        return self.w * self.h

    def corners(self):
        """(x1, y1, x2, y2) extents."""
        return (self.cx - self.w / 2.0, self.cy - self.h / 2.0,
                self.cx + self.w / 2.0, self.cy + self.h / 2.0)


def center_rows(boxes):
    """Boxes as the library's (n, 4) array of (cx, cy, w, h) rows."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def corner_rows(boxes):
    """Boxes as an (n, 4) array of Box.corners rows."""
    return np.array([b.corners() for b in boxes], dtype=np.float64).reshape(-1, 4)


def gt_array(objects):
    """(Box, category) pairs as one scene's GT_DTYPE array."""
    from sinet.synth_data import GT_DTYPE
    return np.array([((b.cx, b.cy, b.w, b.h), cat) for b, cat in objects], dtype=GT_DTYPE)


def create_gru_params(store, prefix, d, seed):
    """A one-bank GRU laid out alone in the empty store, as GruParams: a
    stack of one bank."""
    from sinet.memory_cell import gru_init, gru_params
    store.lay_out(gru_init(prefix, d, seed))
    return gru_params(store, prefix)


def bank_maps(p, k):
    """The (W_r, W_z, W, U) matrices of bank k of the GruParams stack p."""
    return tuple(m.value[k] for m in p.entries())


def create_sin_params(store, d, seed, pooling="mean", mode="both"):
    """The inference net's weights laid out alone in the empty store (with
    w_a under concat fusion, keyed as create_detector_params keys it), as
    SinParams of message mode `mode`."""
    from sinet.numerics import init_param, seed_for
    from sinet.structure_inference import sin_init, sin_params
    scene, rest = sin_init(d, seed)
    if pooling == "concat":
        rest.append(("sin/w_a", init_param((d, 2 * d), seed_for(seed, "sin/w_a"))))
    store.lay_out(scene + rest)
    return sin_params(store, mode, pooling)


def with_arm(store, params, arm):
    """The model of `arm` under the config of `params`, in a store of its
    own, holding the values `store` holds by name, as a checkpoint loads
    for a manifest naming that arm."""
    from sinet.detector import create_detector_params
    from sinet.numerics import ParamStore
    fresh = ParamStore()
    k = len(params.cls_head.value) - 1
    out = create_detector_params(fresh, params.feat_proj.value.shape[1], k, params.cfg, arm, 0)
    for name, p in fresh.items():
        p.value[...] = store[name].value
    return out


def gt_objects(gt):
    """One scene's GT_DTYPE rows as (Box, category) pairs."""
    return [(Box(*box), cat) for box, cat in zip(gt["box"].tolist(), gt["category"].tolist())]


def sig_s(v):
    return 1.0 / (1.0 + math.exp(-v))


def dot_s(row, vec):
    acc = 0.0
    for a, b in zip(row, vec):
        acc += float(a) * float(b)
    return acc


def matvec_s(mat, vec):
    return [dot_s(row, vec) for row in mat]


def gru_forward_oracle(w_r, w_z, w, u, x, h):
    """r/z gates, candidate, convex blend -- one scalar at a time.

    Returns (h_next, r, z, h_tilde) as lists so invariant tests can look at
    the gates directly.
    """
    d = len(h)
    xh = [float(v) for v in x] + [float(v) for v in h]
    r = [sig_s(dot_s(w_r[i], xh)) for i in range(d)]
    z = [sig_s(dot_s(w_z[i], xh)) for i in range(d)]
    rh = [r[i] * float(h[i]) for i in range(d)]
    h_tilde = [math.tanh(dot_s(w[i], x) + dot_s(u[i], rh)) for i in range(d)]
    h_next = [z[i] * float(h[i]) + (1.0 - z[i]) * h_tilde[i] for i in range(d)]
    return h_next, r, z, h_tilde


def spatial_relation_oracle(bi, bj):
    dx = (bi.cx - bj.cx) / bj.w
    dy = (bi.cy - bj.cy) / bj.h
    return [bi.w, bi.h, bi.w * bi.h, bj.w, bj.h, bj.w * bj.h,
            dx, dy, dx * dx, dy * dy,
            math.log(bi.w / bj.w), math.log(bi.h / bj.h)]


def spatial_gate_oracle(w_p, box_i, box_j):
    """relu(w_p . R(box_i, box_j)) for (1, 12) gate weights w_p."""
    spatial = dot_s(w_p[0], spatial_relation_oracle(box_i, box_j))
    if spatial < 0.0:
        spatial = 0.0
    return spatial


def edge_weight_oracle(w_p, w_v, box_i, box_j, f_i, f_j):
    visual = math.tanh(dot_s(w_v[0], list(f_i) + list(f_j)))
    return spatial_gate_oracle(w_p, box_i, box_j) * visual


def integrate_messages_oracle(features, e, i):
    """Per-coordinate max over senders j != i of e[i][j] * f_j[k]; a single
    node gets the zero message. Ties go to the lowest sender index (strict >
    while scanning upward keeps the first winner)."""
    n = len(features)
    d = len(features[0])
    if n == 1:
        return [0.0] * d
    msg = []
    for k in range(d):
        best = None
        for j in range(n):
            if j == i:
                continue
            v = float(e[i][j]) * float(features[j][k])
            if best is None or v > best:
                best = v
        msg.append(best)
    return msg


def sin_step_oracle(p, w_p, features, boxes, scene_feature):
    """One inference step of the SinParams p's mode and fusion, composed
    purely from the oracles above, with the (1, 12) spatial gate weights
    w_p."""
    n = len(features)
    d = len(features[0])
    mode, pooling = p.mode, p.pooling
    # p's stack holds its mode's banks, the scene bank first
    w_r_s, w_z_s, w_s, u_s = bank_maps(p.gru, 0)
    w_r_e, w_z_e, w_e, u_e = bank_maps(p.gru, len(p.gru.w.value) - 1)
    h_scene = h_edge = None
    if mode in ("both", "scene"):
        h_scene = [gru_forward_oracle(w_r_s, w_z_s, w_s, u_s, scene_feature,
                                      features[i])[0] for i in range(n)]
    if mode in ("both", "edge"):
        e = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    e[i][j] = edge_weight_oracle(w_p, p.w_v.value,
                                                 boxes[i], boxes[j],
                                                 features[i], features[j])
        h_edge = []
        for i in range(n):
            msg = integrate_messages_oracle(features, e, i)
            h_edge.append(gru_forward_oracle(w_r_e, w_z_e, w_e, u_e, msg,
                                             features[i])[0])
    if mode == "scene":
        return h_scene
    if mode == "edge":
        return h_edge
    out = []
    for i in range(n):
        if pooling == "mean":
            out.append([(h_scene[i][k] + h_edge[i][k]) / 2.0 for k in range(d)])
        elif pooling == "max":
            out.append([h_scene[i][k] if h_scene[i][k] >= h_edge[i][k]
                        else h_edge[i][k] for k in range(d)])
        else:
            cat = h_scene[i] + h_edge[i]
            out.append(matvec_s(p.w_a.value, cat))
    return out


def iou_oracle(a, b):
    ax1, ay1, ax2, ay2 = a.cx - a.w / 2, a.cy - a.h / 2, a.cx + a.w / 2, a.cy + a.h / 2
    bx1, by1, bx2, by2 = b.cx - b.w / 2, b.cy - b.h / 2, b.cx + b.w / 2, b.cy + b.h / 2
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def _exp_s(v):
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def apply_deltas_oracle(b, d):
    """Refine one Box by (dx, dy, dw, dh), one scalar at a time; an exp
    overflow gives an infinite side."""
    dx, dy, dw, dh = (float(v) for v in d)
    return Box(b.cx + dx * b.w, b.cy + dy * b.h, b.w * _exp_s(dw), b.h * _exp_s(dh))


def encode_deltas_oracle(b, g):
    """The (dx, dy, dw, dh) that refine Box b onto Box g, one scalar at a
    time: the inverse of apply_deltas_oracle."""
    return [(g.cx - b.cx) / b.w, (g.cy - b.cy) / b.h,
            math.log(g.w / b.w), math.log(g.h / b.h)]


def clip_box_oracle(b, width, height, min_side=1e-6):
    """Clamp one Box's corners into [0, width] x [0, height] with the min and
    max builtins, keeping sides at least min_side."""
    x1, y1, x2, y2 = b.corners()
    x1, x2 = max(0.0, min(x1, width)), max(0.0, min(x2, width))
    y1, y2 = max(0.0, min(y1, height)), max(0.0, min(y2, height))
    return Box((x1 + x2) / 2.0, (y1 + y2) / 2.0,
               max(x2 - x1, min_side), max(y2 - y1, min_side))


def covered_cells_oracle(box, height, width):
    """Row/column index arrays of the cells whose centers fall inside the box
    (half-open on the high edges): one mask test per row and column, where
    the library computes the bounds of the window directly."""
    x1, y1, x2, y2 = box.corners()
    cols = np.arange(width)[(np.arange(width) + 0.5 >= x1) & (np.arange(width) + 0.5 < x2)]
    rows = np.arange(height)[(np.arange(height) + 0.5 >= y1) & (np.arange(height) + 0.5 < y2)]
    return rows, cols


def pool_rois_oracle(samples, boxes):
    """(B, n, C) ROI features one ROI at a time: the ndarray.mean of each
    center-size row's cell_window slice of its own scene's grid or, when the
    window is empty, of the single cell nearest its center (np.argmin per
    axis, so ties and NaN go to the lower cell)."""
    from sinet.geometry import centers_to_corners
    from sinet.synth_data import cell_window
    corners = centers_to_corners(boxes.reshape(-1, 4)).reshape(boxes.shape)
    node_avg = np.empty(boxes.shape[:2] + samples[0].grid.shape[2:])
    for sample, rois, cs, avg in zip(samples, boxes.tolist(), corners.tolist(), node_avg):
        h, w = sample.grid.shape[:2]
        for i, (cx, cy, _, _) in enumerate(rois):
            r0, r1, c0, c1 = cell_window(cs[i], h, w)
            if r1 == r0 or c1 == c0:
                r0 = int(np.argmin(np.abs(np.arange(h) + 0.5 - cy)))
                c0 = int(np.argmin(np.abs(np.arange(w) + 0.5 - cx)))
                r1, c1 = r0 + 1, c0 + 1
            avg[i] = sample.grid[r0:r1, c0:c1].mean(axis=(0, 1))
    return node_avg


def anchor_features_oracle(grid, anchors):
    """(A, C) anchor features from an integral image, with each anchor's
    cell_window found one anchor at a time, the four corners gathered by
    fancy indexing and divided by the integer cell count."""
    from sinet.synth_data import cell_window
    h, w, c = grid.shape
    integral = np.zeros((h + 1, w + 1, c))
    integral[1:, 1:] = grid.cumsum(axis=0).cumsum(axis=1)
    flat = integral.reshape(-1, c)
    win = np.array([cell_window(row, h, w) for row in anchors.corners.tolist()])
    r0, r1, c0, c1 = win.T
    i11, i01, i10, i00 = (r * (w + 1) + col for r, col in ((r1, c1), (r0, c1), (r1, c0), (r0, c0)))
    return (flat[i11] - flat[i01] - flat[i10] + flat[i00]) / ((r1 - r0) * (c1 - c0))[:, None]


def objectness_oracle(grid, anchors, objectness, gt):
    """(scores, loss, grad) of the objectness stage from the dense (A, C)
    anchor features: each anchor's features through its own type's row of
    the (T, C) `objectness` map, the weighted cross-entropy on
    anchor_targets_oracle's labels, and the map's gradient summed one anchor
    at a time, ds_a * feat_a into its type's row."""
    from sinet.detector import OBJ_LOSS_WEIGHT
    feats = anchor_features_oracle(grid, anchors)
    types = np.arange(len(feats)) % len(objectness)
    scores = np.array([dot_s(f, objectness[t]) for f, t in zip(feats, types)])
    y, mask = anchor_targets_oracle(anchors, gt)
    weights = np.zeros(len(feats))
    for side in (0.0, 1.0):
        pick = mask & (y == side)
        if pick.any():
            weights[pick] = 0.5 / pick.sum()
    loss = 0.0
    grad = np.zeros_like(objectness)
    for a, (s, t) in enumerate(zip(scores.tolist(), types)):
        bce = max(s, 0.0) - s * y[a] + math.log1p(math.exp(-abs(s)))
        loss += OBJ_LOSS_WEIGHT * weights[a] * bce
        grad[t] += OBJ_LOSS_WEIGHT * weights[a] * (sig_s(s) - y[a]) * feats[a]
    return scores, loss, grad


def sample_at(world, seed, index):
    """Sample `index` of the stream keyed by `seed`, drawn alone: one
    scene_sampler per scene."""
    from sinet.synth_data import scene_sampler
    return scene_sampler(world)(seed, index)


def sample_scene_oracle(world, seed, index, events=None):
    """Scene `index` of the stream keyed by `seed`, drawn the direct way:
    rng.uniform for sizes, centers and coins, rng.choice for categories,
    Box objects on every attempt, a (H, W) bool occupancy mask with cells from
    covered_cells_oracle, and one normal draw per painted region. Returns
    (grid, scene_type, [(cx, cy, w, h, category), ...]); counts "skipped"
    objects and partner "fallback"s into the `events` dict when given."""
    events = {} if events is None else events
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))

    def try_place(cat_id, occupied, center):
        cat = world.categories[cat_id]
        j = cat.size_jitter
        w = cat.size[0] * rng.uniform(1.0 - j, 1.0 + j)
        h = cat.size[1] * rng.uniform(1.0 - j, 1.0 + j)
        if w / 2.0 > world.width / 2.0 or h / 2.0 > world.height / 2.0:
            return None
        if center is None:
            cx = rng.uniform(w / 2.0, world.width - w / 2.0)
            cy = rng.uniform(h / 2.0, world.height - h / 2.0)
        else:
            cx, cy = center
            if not (w / 2.0 <= cx <= world.width - w / 2.0
                    and h / 2.0 <= cy <= world.height - h / 2.0):
                return None
        box = Box(cx, cy, w, h)
        rows, cols = covered_cells_oracle(box, world.height, world.width)
        if len(rows) == 0 or len(cols) == 0 or occupied[np.ix_(rows, cols)].any():
            return None
        return box, rows, cols

    def place(cat_id, occupied, anchor=None, rule=None):
        for _ in range(100):
            center = None
            if anchor is not None:
                sx = 1.0 if rng.uniform() < 0.5 else -1.0
                sy = 1.0 if rng.uniform() < 0.5 else -1.0
                center = (anchor.cx + sx * rule.offset[0] + rng.normal(0.0, rule.jitter),
                          anchor.cy + sy * rule.offset[1] + rng.normal(0.0, rule.jitter))
            got = try_place(cat_id, occupied, center)
            if got is not None:
                occupied[np.ix_(got[1], got[2])] = True
                return got
        if anchor is not None:
            events["fallback"] = events.get("fallback", 0) + 1
            return place(cat_id, occupied)
        events["skipped"] = events.get("skipped", 0) + 1
        return None

    scene_type = int(rng.integers(world.num_scene_types))
    weights = np.array([c.scene_affinity[scene_type] for c in world.categories], dtype=np.float64)
    if weights.sum() <= 0:
        raise ValueError(f"scene type {scene_type} has no placeable category")
    weights = weights / weights.sum()
    lo, hi = world.objects_per_scene
    occupied = np.zeros((world.height, world.width), dtype=bool)
    placed = []
    for _ in range(int(rng.integers(lo, hi + 1))):
        cat_id = int(rng.choice(world.num_categories, p=weights))
        got = place(cat_id, occupied)
        if got is not None:
            placed.append((got, cat_id))
    pending = [(got[0], cat_id, 0) for got, cat_id in placed]
    while pending:
        box, cat_id, depth = pending.pop(0)
        if depth >= 2:
            continue
        for rule in world.cooccur:
            if rule.trigger == cat_id and rng.uniform() < rule.prob:
                got = place(rule.partner, occupied, anchor=box, rule=rule)
                if got is not None:
                    placed.append((got, rule.partner))
                    pending.append((got[0], rule.partner, depth + 1))

    grid = np.asarray(world.scene_bias)[scene_type] + rng.normal(
        0.0, world.noise_sigma, size=(world.height, world.width, world.channels))
    for (box, rows, cols), cat_id in placed:
        noise = rng.normal(0.0, world.noise_sigma, size=(len(rows), len(cols), world.channels))
        grid[np.ix_(rows, cols)] = np.asarray(world.categories[cat_id].prototype) + noise
    return grid, scene_type, [(b.cx, b.cy, b.w, b.h, cat_id) for (b, _, _), cat_id in placed]


def _ranks_ahead(a, b):
    """Score a goes before score b in descending order: NaN goes after every
    number, as np.argsort puts it last."""
    return not math.isnan(a) and (math.isnan(b) or a > b)


def nms_oracle(boxes, scores, iou_thresh, max_keep, overlap=iou_oracle):
    """Greedy suppression with explicit scanning; must reproduce the library's
    exact kept-index list (ties, and NaN scores among themselves, to the lower
    index; NaN scores after all others; overlap kept while iou <= thresh, so
    a NaN overlap suppresses). `overlap(kept, other)` is the IoU of two
    boxes: iou_oracle on Boxes by default."""
    alive = list(range(len(boxes)))
    keep = []
    while alive and len(keep) < max_keep:
        best = alive[0]
        for i in alive[1:]:
            if _ranks_ahead(scores[i], scores[best]):
                best = i
        keep.append(best)
        alive = [i for i in alive
                 if i != best and overlap(boxes[best], boxes[i]) <= iou_thresh]
    return keep


def nms(boxes, scores, iou_thresh, max_keep):
    """Greedy non-maximum suppression over a (k, 4) corner array: the array
    kernel training's proposals ran once per iteration before they were
    taken in stacks. It is kept as a reference: nms_by_group's groups and detection's
    proposals are checked against it, and it against nms_oracle.

    Repeatedly keeps the highest-scoring remaining box (score ties go to the
    lower index) and discards boxes whose IoU with it exceeds iou_thresh.
    Returns kept indices in descending-score order, at most max_keep of them.

    Only the top prefix of the score order that the scan reads is sorted
    (sorted_prefix); a scan that runs past it sorts all k scores, as does
    a NaN at the cut. Both orders agree on the prefix, so the result is
    the full sort's.
    """
    from sinet.geometry import _check_nms, pairwise_iou
    _check_nms("nms", boxes, scores, iou_thresh)
    if max_keep < 1:
        raise ValueError("nms: max_keep must be >= 1")

    # stable sort on -score keeps the lower index first among ties. A box
    # survives unless a kept box ahead of it in this order overlaps it, so
    # only the prefix up to the max_keep-th survivor matters; it is scanned
    # in blocks, each checked against the boxes kept so far and itself.
    neg = -np.asarray(scores, dtype=np.float64)
    boxes = np.asarray(boxes, dtype=np.float64)
    # twice max_keep usually holds every survivor; the cap bounds the matrix
    block = min(2 * max_keep, 256)
    order = sorted_prefix(neg, block)
    kept = []                    # positions in order
    start = 0
    while start < len(neg) and len(kept) < max_keep:
        stop = min(start + block, len(neg))
        if stop > len(order):    # past the prefix: the full order keeps its positions
            order = np.argsort(neg, kind="stable")
        at = order[np.concatenate([np.array(kept, dtype=np.intp), np.arange(start, stop)])]
        # not (iou <= thresh): a NaN overlap suppresses, as a failed keep test
        over = ~(pairwise_iou(boxes[at], boxes[at[len(kept):]]) <= iou_thresh)
        dead = over[:len(kept)].any(axis=0)
        for j, row in enumerate(over[len(kept):]):
            if not dead[j]:
                kept.append(start + j)
                if len(kept) == max_keep:
                    break
                dead |= row
        start = stop
    return [int(order[i]) for i in kept]


def sorted_prefix(neg, m):
    """The first m or more positions of np.argsort(neg, kind="stable") for
    one row of scores, as proposals took them row by row: the m-th smallest
    value is found with np.partition, and every index at or below it is
    stable-sorted, so ties at the cut keep the lower index first. Falls back
    to the full sort when there are at most m values or the cut is NaN."""
    if m < len(neg):
        cut = np.partition(neg, m - 1)[m - 1]
        if not np.isnan(cut):
            head = np.flatnonzero(neg <= cut)
            return head[np.argsort(neg[head], kind="stable")]
    return np.argsort(neg, kind="stable")


NO_BOXES = (np.empty((0, 4)), np.empty((0, 4)))


def proposals_per_row(anchors, scores, kept, n):
    """One row's exactly n proposals, as the per-row path made them: the m
    kept boxes `kept` (a (center rows, corner rows) pair), then the anchors
    in the stable descending order of the (A,) `scores` that no kept box
    overlaps past PROPOSAL_NMS_THRESH, from a sorted prefix of n (nothing
    kept) or 2n, widened to the full order when its survivors run short;
    too few are cycled by np.resize."""
    from sinet.detector import PROPOSAL_NMS_THRESH
    from sinet.geometry import pairwise_iou
    centers, corners = kept
    m = len(centers)
    neg = -scores
    order = sorted_prefix(neg, 2 * n if m else n)
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


def score_anchors_per_scene(params, sample):
    """One scene's anchor set and its (A,) objectness scores, as the
    per-scene scorer made them: the grid projected to one (H, W) map per
    type, box-summed by the type's cover matrices and divided by the cell
    counts."""
    from sinet.detector import anchor_set
    h, w, c = sample.grid.shape
    anchors = anchor_set(h, w)
    maps = (params.objectness.value @ sample.grid.reshape(-1, c).T).reshape(-1, h, w)
    sums = anchors.row_cover @ maps @ anchors.col_cover.transpose(0, 2, 1)
    sums /= anchors.count
    return anchors, sums.transpose(1, 2, 0).reshape(-1)


def scene_means_per_scene(samples):
    """(B, C) mean cell vector of each scene, one mean per scene."""
    return np.array([sample.grid.mean(axis=(0, 1)) for sample in samples])


def propose(params, sample):
    """Detection's proposals for one scene, scored and ranked on their own:
    proposals_per_row with no kept box."""
    anchors, scores = score_anchors_per_scene(params, sample)
    return proposals_per_row(anchors, scores, NO_BOXES, params.cfg.rois_per_image)


def anchor_targets_per_scene(anchors, gt):
    """One scene's ObjectnessTargets as the per-scene path made them: the
    dense (G, A) IoUs from (G, W, T) overlaps along x times (G, H, T) along
    y, then pairwise_iou's division; the best IoU per anchor, each gt's
    argmax anchor forced positive."""
    from sinet.detector import OBJ_IOU_NEG, OBJ_IOU_POS, ObjectnessTargets
    from sinet.geometry import centers_to_corners
    a = len(anchors.corners)
    if len(gt) == 0:
        return ObjectnessTargets(np.empty(0, np.intp), np.empty(0, np.intp), 0.0, 0.5 / a)
    gc = centers_to_corners(gt["box"])
    g = gc[:, None, None]
    xe, ye = anchors.x_extent, anchors.y_extent
    ix = np.maximum(0.0, np.minimum(xe[..., 1], g[..., 2]) - np.maximum(xe[..., 0], g[..., 0]))
    iy = np.maximum(0.0, np.minimum(ye[..., 1], g[..., 3]) - np.maximum(ye[..., 0], g[..., 1]))
    inter = (ix[:, None] * iy[:, :, None]).reshape(len(gc), a)
    area_g = (gc[:, 2] - gc[:, 0]) * (gc[:, 3] - gc[:, 1])
    ious = inter / (area_g[:, None] + anchors.area - inter)
    best = ious.max(axis=0)
    pos = best >= OBJ_IOU_POS
    pos[ious.argmax(axis=1)] = True
    pos, ignored = np.flatnonzero(pos), np.flatnonzero((best >= OBJ_IOU_NEG) & ~pos)
    neg = a - len(pos) - len(ignored)
    return ObjectnessTargets(pos, ignored, 0.5 / len(pos), 0.5 / neg if neg else 0.0)


def train_proposals_oracle(anchors, scores, sample, rng, n):
    """One training iteration's proposals as the per-iteration path made
    them: the scene's gt boxes jittered by a (G, 4) GT_JITTER-scaled normal
    draw from rng (no draw without gt) and clipped to its grid, ahead of the
    anchors with score 1e9, then nms_oracle's greedy scan over the dense
    pairwise_iou matrix of all of them, capped at n, and the kept boxes
    cycled to n rows."""
    from sinet.detector import GT_JITTER, PROPOSAL_NMS_THRESH
    from sinet.geometry import apply_deltas, centers_to_corners, clip_box, pairwise_iou
    h, w = sample.grid.shape[:2]
    injected = sample.gt["box"]
    if len(injected):
        jitter = rng.normal(0.0, GT_JITTER, size=injected.shape)
        injected = clip_box(apply_deltas(injected, jitter), w, h)
    centers = np.concatenate([injected, anchors.centers])
    corners = centers_to_corners(centers)
    ious = pairwise_iou(corners, corners)
    keep = nms_oracle(range(len(centers)), [1e9] * len(injected) + list(scores),
                      PROPOSAL_NMS_THRESH, n, overlap=lambda i, j: ious[i, j])
    return centers[[keep[j % len(keep)] for j in range(n)]]


def anchor_targets_oracle(anchors, gt):
    """Binary anchor labels (y, mask) from the dense (A, G) pairwise_iou of
    every anchor against every gt: 1 at or over OBJ_IOU_POS, ignored
    (mask False) in [OBJ_IOU_NEG, OBJ_IOU_POS), 0 under it, and each gt's
    best anchor (ties to the lowest index) forced positive."""
    from sinet.detector import OBJ_IOU_NEG, OBJ_IOU_POS
    from sinet.geometry import pairwise_iou
    a = len(anchors.corners)
    if len(gt) == 0:
        return np.zeros(a), np.ones(a, dtype=bool)
    ious = pairwise_iou(anchors.corners, corner_rows(b for b, _ in gt_objects(gt)))
    best = ious.max(axis=1)
    y = np.zeros(a)
    mask = np.ones(a, dtype=bool)
    mask[(best >= OBJ_IOU_NEG) & (best < OBJ_IOU_POS)] = False
    y[best >= OBJ_IOU_POS] = 1.0
    forced = ious.argmax(axis=0)
    y[forced] = 1.0
    mask[forced] = True
    return y, mask


def assign_targets_oracle(props, gt, num_categories):
    """One scene's ROI targets as the per-scene path made them: the dense
    (n, G) pairwise_iou of the (n, 4) center-size rows `props` against the
    GT_DTYPE rows `gt`, each ROI's best gt (ties to the lowest) positive at
    IOU_POS or over and ignored from IOU_NEG, then a loop over the gts in
    order forcing each one's best ROI (ties to the lowest), when they
    overlap, onto it. Returns the (n,) labels and the (n, 4) deltas."""
    from sinet.detector import IGNORE, IOU_NEG, IOU_POS
    from sinet.geometry import centers_to_corners, encode_deltas, pairwise_iou
    n = len(props)
    labels = np.full(n, num_categories, dtype=np.intp)
    deltas = np.zeros((n, 4))
    if len(gt) == 0:
        return labels, deltas
    gc = gt["box"]
    ious = pairwise_iou(centers_to_corners(props), centers_to_corners(gc))
    best_gt = ious.argmax(axis=1)
    best_iou = ious[np.arange(n), best_gt]
    assigned = np.where(best_iou >= IOU_POS, best_gt, -1)
    labels[~(best_iou < IOU_NEG)] = IGNORE
    for g in range(len(gt)):
        p = int(ious[:, g].argmax())
        if ious[p, g] > 0.0:
            assigned[p] = g
    pos = assigned >= 0
    labels[pos] = gt["category"][assigned[pos]]
    deltas[pos] = encode_deltas(props[pos], gc[assigned[pos]])
    return labels, deltas


def loss_targets_per_scene(labels, target_deltas, num_categories):
    """One scene's LossTargets, gathered from its (n,) labels and (n, 4)
    target deltas on their own: the rows that are not IGNORE, then those of
    them labelled below num_categories."""
    from sinet.detector import IGNORE, LossTargets
    labels = np.asarray(labels, dtype=np.intp)
    valid = np.where(labels != IGNORE)[0]
    pos = valid[labels[valid] < num_categories]
    return LossTargets(valid, labels[valid], pos, labels[pos], target_deltas[pos])


def multi_task_loss_oracle(probs, deltas, labels, target_deltas):
    """The ROI loss as it was computed from one scene's (n,) labels and
    (n, 4) target deltas, every gather made in the loss: cross-entropy over
    the non-ignored ROIs plus smooth L1 over the positives' target-class
    deltas, each row's four-term sum added one row at a time and divided by
    4 * positives. Returns (loss, dlogits, ddeltas, parts)."""
    from sinet.detector import IGNORE, SMOOTH_L1_THRESH
    n, k1 = probs.shape
    labels = np.asarray(labels, dtype=np.intp)
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
        u = deltas[pos, labels[pos]] - target_deltas[pos]
        terms = np.where(np.abs(u) < SMOOTH_L1_THRESH, 0.5 * u * u,
                         np.abs(u) - 0.5 * SMOOTH_L1_THRESH)
        acc = float(np.add.accumulate(terms.sum(axis=1))[-1])
        ddeltas[pos, labels[pos]] = np.where(np.abs(u) < SMOOTH_L1_THRESH, u, np.sign(u)) / denom
        reg_loss = acc / denom
    return cls_loss + reg_loss, dlogits, ddeltas, {"cls": cls_loss, "reg": reg_loss}


def average_precision_oracle(dets, gts, iou_thresh=0.5):
    """Rank by score (stable), greedily match each detection to its best
    still-free gt in the same image, then integrate the monotone precision
    envelope step by step."""
    npos = 0
    for v in gts.values():
        npos += len(v)
    if npos == 0:
        return None
    order = sorted(range(len(dets)), key=lambda k: -dets[k][2])
    used = set()
    tp = 0
    fp = 0
    points = []
    for k in order:
        img, box, _ = dets[k]
        best_iou = 0.0
        best_g = -1
        for gi, g in enumerate(gts.get(img, [])):
            if (img, gi) in used:
                continue
            v = iou_oracle(box, g)
            if v >= iou_thresh and v > best_iou:
                best_iou = v
                best_g = gi
        if best_g >= 0:
            used.add((img, best_g))
            tp += 1
        else:
            fp += 1
        points.append((tp / npos, tp / (tp + fp)))
    mrec = [0.0] + [p[0] for p in points] + [1.0]
    mpre = [0.0] + [p[1] for p in points] + [0.0]
    for i in range(len(mpre) - 2, -1, -1):
        if mpre[i + 1] > mpre[i]:
            mpre[i] = mpre[i + 1]
    ap = 0.0
    for i in range(len(mrec) - 1):
        if mrec[i + 1] != mrec[i]:
            ap += (mrec[i + 1] - mrec[i]) * mpre[i + 1]
    return ap


# Pooled matching, PR points and FP buckets as the library computed them
# before matching ran on arrays: one scalar iou per (detection, gt) pair.

PR_THRESHOLDS = tuple(i / 10.0 for i in range(10))
FP_KINDS = ("Cor", "Loc", "Sim", "Oth", "BG")
FP_IOU_LOC = 0.1
FP_IOU_COR = 0.5


def _det_box(d):
    """A detection row's center-size box as a Box."""
    return Box(*d["box"].tolist())


def detection_array(rows):
    """(Box, category, score) triples as one image's DETECTION_DTYPE array,
    every detection on ROI 0."""
    from sinet.detector import DETECTION_DTYPE
    return np.array([((b.cx, b.cy, b.w, b.h), cat, score, 0) for b, cat, score in rows],
                    dtype=DETECTION_DTYPE)


def category_slices_oracle(dets_by_image, gts_by_image, category):
    """One category's detections as (image_id, box, score) triples in image
    order, and its gt as {image_id: [box]}: average_precision_oracle's
    inputs."""
    dets = [(img, _det_box(d), float(d["score"]))
            for img, dd in enumerate(dets_by_image) for d in dd if d["category"] == category]
    gts = {}
    for img, gg in enumerate(gts_by_image):
        boxes = [b for b, cat in gt_objects(gg) if cat == category]
        if boxes:
            gts[img] = boxes
    return dets, gts


def per_image_lists(dets, gts):
    """The inverse of category_slices_oracle for category 0: (image_id, box,
    score) triples and {image_id: [box]} as per-image detection and GT_DTYPE
    arrays, one per image from 0 to the largest id."""
    n_img = 1 + max([img for img, _, _ in dets] + list(gts), default=-1)
    dets_by_image = [detection_array([(box, 0, score) for i, box, score in dets if i == img])
                     for img in range(n_img)]
    gts_by_image = [gt_array((b, 0) for b in gts.get(img, [])) for img in range(n_img)]
    return dets_by_image, gts_by_image


def match_all_oracle(dets_by_image, gts_by_image, iou_thresh):
    """Greedy category-aware matching over the global score ranking.

    Returns (ranked, matched) where ranked is a list of (image_id, det) in
    descending score order and matched a parallel list of booleans.
    """
    ranked_idx = []
    for img, dd in enumerate(dets_by_image):
        for d in dd:
            ranked_idx.append((img, d))
    ranked_idx.sort(key=lambda t: -float(t[1]["score"]))
    used = set()
    matched = []
    for img, d in ranked_idx:
        best_iou, best_g = 0.0, -1
        for gi, (g, cat) in enumerate(gt_objects(gts_by_image[img])):
            if cat != d["category"] or (img, gi) in used:
                continue
            v = iou_oracle(_det_box(d), g)
            if v >= iou_thresh and v > best_iou:
                best_iou, best_g = v, gi
        if best_g >= 0:
            used.add((img, best_g))
            matched.append(True)
        else:
            matched.append(False)
    return ranked_idx, matched


def pr_curve_oracle(dets_by_image, gts_by_image, thresholds=PR_THRESHOLDS, iou_thresh=0.5):
    """Pooled precision/recall at each score threshold.

    All categories and images share one pool; a threshold keeps detections
    with score >= thr. No detections means precision 1.0 and recall 0.0 by
    convention.
    """
    ranked, matched = match_all_oracle(dets_by_image, gts_by_image, iou_thresh)
    total_gt = sum(len(g) for g in gts_by_image)
    points = []
    for thr in thresholds:
        kept = [m for (img, d), m in zip(ranked, matched) if d["score"] >= thr]
        tp = sum(kept)
        precision = tp / len(kept) if kept else 1.0
        recall = tp / total_gt if total_gt else 0.0
        points.append((thr, precision, recall))
    return points


def fp_breakdown_oracle(dets_by_image, gts_by_image, similar_pairs=()):
    """Bucket every detection: Cor (matched at 0.5), else Loc when it overlaps
    a same-class gt at 0.1 or better (this includes duplicates of an already
    matched gt), Sim / Oth for confusion with a similar / any other class, BG
    when it touches nothing."""
    sim = set()
    for a, b in similar_pairs:
        sim.add((a, b))
        sim.add((b, a))
    ranked, matched = match_all_oracle(dets_by_image, gts_by_image, FP_IOU_COR)
    counts = {k: 0 for k in FP_KINDS}
    for (img, d), m in zip(ranked, matched):
        if m:
            counts["Cor"] += 1
            continue
        best_same = best_sim = best_other = 0.0
        for g, cat in gt_objects(gts_by_image[img]):
            v = iou_oracle(_det_box(d), g)
            if cat == d["category"]:
                best_same = max(best_same, v)
            elif (int(d["category"]), cat) in sim:
                best_sim = max(best_sim, v)
            else:
                best_other = max(best_other, v)
        if best_same >= FP_IOU_LOC:
            counts["Loc"] += 1
        elif best_sim >= FP_IOU_LOC:
            counts["Sim"] += 1
        elif best_other >= FP_IOU_LOC:
            counts["Oth"] += 1
        else:
            counts["BG"] += 1
    return counts


def softmax_oracle(row):
    m = max(float(v) for v in row)
    ex = [math.exp(float(v) - m) for v in row]
    s = sum(ex)
    return [v / s for v in ex]


def smooth_l1_oracle(diff):
    total = 0.0
    for v in diff:
        a = abs(float(v))
        total += 0.5 * a * a if a < 1.0 else a - 0.5
    return total


def random_box(rng, span=10.0):
    return Box(rng.uniform(1.0, span), rng.uniform(1.0, span),
               rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))


def generic_roi_loss(params, rois, steps, gate):
    """One scene's stage-two loss, its gradient added into the store, down
    one generic path for every arm and step count: it projects the scene
    node, runs `steps` inference steps of the model's graph under the
    (1, n, n) spatial gate `gate` (none for a model with no message mode),
    runs sin_backward over their tapes, if any, and adds the outer product
    of the scene gradient, all zeros where no bank reads the scene node, to
    det/feat_proj's gradient. detector.roi_loss skips the graph of a step
    that runs none, and the scene node of one that reads none, and must
    give the same loss and the same gradient bits."""
    from sinet.detector import _softmax_rows, multi_task_loss
    from sinet.structure_inference import sin_backward, sin_infer_tapes
    features0 = np.tanh(rois.node_avg @ params.feat_proj.value.T)
    scene0 = np.tanh(np.matmul(params.feat_proj.value, rois.scene_avg[:, :, None])[:, :, 0])
    feats, _, tapes = sin_infer_tapes(params.sin, features0, scene0, gate, steps, True)
    n = feats.shape[1]
    deltas = (feats @ params.reg_head.value.T).reshape(1, n, -1, 4)
    loss, grads = multi_task_loss(_softmax_rows(feats @ params.cls_head.value.T)[0], deltas[0],
                                  rois.targets)
    params.cls_head.grad += grads.dlogits.T @ feats[0]
    dfeats = grads.dlogits @ params.cls_head.value
    dd = grads.ddeltas.reshape(n, -1)
    params.reg_head.grad += dd.T @ feats[0]
    dfeats = dfeats + dd @ params.reg_head.value
    dfeat0, dscene = dfeats[None], None
    if tapes:
        dfeat0, dscene = sin_backward(params.sin, tapes, dfeats[None])
    if dscene is None:
        dscene = np.zeros(scene0.shape)
    da = (1.0 - features0[0] ** 2) * dfeat0[0]
    params.feat_proj.grad += da.T @ rois.node_avg[0]
    ds = (1.0 - scene0[0] ** 2) * dscene[0]
    params.feat_proj.grad += np.outer(ds, rois.scene_avg[0])
    return loss


def weight_decay_oracle(store, names, wd, done):
    """The L2 term 0.5 * wd * ||p||^2 of each named parameter, each summed
    over the parameter's own array, added up one name at a time in the
    order given; a name of the mapping `done` adds its given term instead.
    Also returns the gradients the term leaves: wd * p added to each named
    parameter's that is not done, every other gradient as it was."""
    grads = store.grads.copy()
    loss = 0.0
    for name in names:
        if name in done:
            loss += done[name]
            continue
        p = store[name].value
        loss += 0.5 * wd * float((p * p).sum())
        span = store.span(name)
        grads[span] = grads[span] + wd * p.reshape(-1)
    return loss, grads
