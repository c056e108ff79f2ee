"""Axis-aligned box arithmetic in grid units: greedy NMS over corner arrays
(nms_by_group keeps every survivor of many small groups), the stable top
prefixes of a stack of score orders (_sorted_prefixes), and paired IoU,
delta encoding, refinement and clipping over center-size arrays.

Every kernel takes arrays: (k, 4) rows of corners (x1, y1, x2, y2) or of
centers (cx, cy, w, h), which centers_to_corners maps to corners. Ground
truth, proposals and detections all reach them as such rows."""

import numpy as np

# the least side clip_box leaves a box, even one wholly outside the grid
MIN_SIDE = 1e-6


def centers_to_corners(centers):
    """(..., 4) center-size rows to corner rows: (cx, cy) -/+ (w, h) / 2.0."""
    centers = np.asarray(centers, dtype=np.float64)
    half = centers[..., 2:] / 2.0
    return np.concatenate([centers[..., :2] - half, centers[..., :2] + half], axis=-1)


def pairwise_iou(corners_a, corners_b):
    """(..., A, B) IoU matrices from two stacks of corner arrays, (..., A, 4)
    and (..., B, 4)."""
    a, b = corners_a[..., :, None, :], corners_b[..., None, :, :]
    x1 = np.maximum(a[..., 0], b[..., 0])
    y1 = np.maximum(a[..., 1], b[..., 1])
    x2 = np.minimum(a[..., 2], b[..., 2])
    y2 = np.minimum(a[..., 3], b[..., 3])
    inter = np.maximum(0.0, x2 - x1) * np.maximum(0.0, y2 - y1)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return inter / (area_a + area_b - inter)


def nms_by_group(boxes, scores, groups, iou_thresh):
    """Greedy NMS within each group of a (k, 4) corner array: boxes suppress
    only boxes of their own (k,) `groups` id. Each group keeps what greedy
    NMS over it alone keeps: repeatedly its highest-scoring remaining box,
    discarding the boxes whose IoU with it exceeds iou_thresh. Returns the
    kept indices as an array ordered by group id, then by descending score
    (ties to the lower index, NaN scores last).

    Built for many small groups. A stable lexsort ranks each group's boxes;
    IoUs are computed only for pairs within a group, with pairwise_iou's
    float operations in its order (the higher-ranked box first); the greedy
    pass takes one step per rank, over all groups at once, so it runs at most
    as many steps as the largest group has boxes."""
    _check_nms("nms_by_group", boxes, scores, iou_thresh)
    if np.shape(groups) != (len(boxes),):
        raise ValueError(f"nms_by_group: {len(boxes)} boxes but groups of shape "
                         f"{np.shape(groups)}")
    groups = np.asarray(groups)
    order = np.lexsort((-np.asarray(scores, dtype=np.float64), groups))
    k = len(order)
    g = groups[order]
    first = np.flatnonzero(np.concatenate([[True], g[1:] != g[:-1]]))
    size = np.diff(np.append(first, k))
    rank = np.arange(k) - np.repeat(first, size)
    # every pair (i, j) of sorted positions in one group with i ahead of j
    behind = np.repeat(size, size) - rank - 1
    i = np.repeat(np.arange(k), behind)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(behind) - behind, behind)
    corners = np.asarray(boxes, dtype=np.float64)[order]
    a, b = corners[i], corners[j]
    x1 = np.maximum(a[:, 0], b[:, 0])
    y1 = np.maximum(a[:, 1], b[:, 1])
    x2 = np.minimum(a[:, 2], b[:, 2])
    y2 = np.minimum(a[:, 3], b[:, 3])
    inter = np.maximum(0.0, x2 - x1) * np.maximum(0.0, y2 - y1)
    area = (corners[:, 2] - corners[:, 0]) * (corners[:, 3] - corners[:, 1])
    # not (iou <= thresh): a NaN overlap suppresses, as a failed keep test
    over = ~(inter / (area[i] + area[j] - inter) <= iou_thresh)
    i, j = i[over], j[over]
    lead = rank[i]
    alive = np.ones(k, dtype=bool)
    # a box's fate is settled once those ranked ahead of it in its group
    # are: step r lets the surviving boxes of rank r suppress their pairs
    for r in range(int(lead.max()) + 1 if len(lead) else 0):
        step = lead == r
        alive[j[step & alive[i]]] = False
    return order[alive]


def _check_nms(name, boxes, scores, iou_thresh):
    """Reject what an NMS kernel does not take: boxes that are not a (k, 4)
    corner array, a score count other than k, a threshold outside (0, 1)."""
    shape = np.shape(boxes)
    if len(shape) != 2 or shape[1] != 4:
        raise ValueError(f"{name}: boxes must be a (k, 4) corner array, got shape {shape}")
    if len(boxes) != len(scores):
        raise ValueError(f"{name}: {len(boxes)} boxes but {len(scores)} scores")
    if not (0.0 < iou_thresh < 1.0):
        raise ValueError(f"{name}: iou_thresh must be in (0,1), got {iou_thresh}")


def _sorted_prefixes(neg, width):
    """The first `width` or more positions of each row's stable ascending
    order of the (B, A) `neg`, as a (B, P) index array and a (B, P) mask of
    the real positions: each row's width-th smallest value is found with one
    np.partition, and its entries at or below it are stable-sorted by one
    lexsort, so ties at the cut keep the lower index first. A row whose cut
    is NaN (fewer than width non-NaN values, which argsort puts last) gets
    no position; with width >= A, every row gets its full order."""
    b, a = neg.shape
    if width >= a:
        return np.argsort(neg, axis=1, kind="stable"), np.ones((b, a), dtype=bool)
    cut = np.partition(neg, width - 1, axis=1)[:, width - 1]
    head = np.flatnonzero(neg <= cut[:, None])
    row = head // a
    by = np.lexsort((neg.reshape(-1)[head], row))
    row, col = row[by], head[by] - row[by] * a
    size = np.bincount(row, minlength=b)
    order = np.zeros((b, size.max(initial=0)), dtype=np.intp)
    order[row, np.arange(len(row)) - np.repeat(np.cumsum(size) - size, size)] = col
    return order, np.arange(order.shape[1]) < size[:, None]


def _check_rows(name, *arrays):
    """The arrays as float64, each (k, 4) with the same k."""
    out = [np.asarray(a, dtype=np.float64) for a in arrays]
    for a in out:
        if a.ndim != 2 or a.shape[1] != 4:
            raise ValueError(f"{name}: expected a (k, 4) array, got shape {a.shape}")
    if len({len(a) for a in out}) > 1:
        raise ValueError(f"{name}: row counts differ: {[len(a) for a in out]}")
    return out


def iou(a, b):
    """(k,) IoU of paired (k, 4) center-size rows, row i of a against row i
    of b; 0 where the boxes do not overlap. Areas are w * h, so for finite
    boxes a pair's IoU is bitwise the scalar formula's on their center-size
    values."""
    a, b = _check_rows("iou", a, b)
    ca, cb = centers_to_corners(a), centers_to_corners(b)
    iw = np.minimum(ca[:, 2], cb[:, 2]) - np.maximum(ca[:, 0], cb[:, 0])
    ih = np.minimum(ca[:, 3], cb[:, 3]) - np.maximum(ca[:, 1], cb[:, 1])
    inter = iw * ih
    # divides unless iw <= 0 or ih <= 0, as the scalar test reads
    return np.divide(inter, a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter,
                     out=np.zeros_like(inter), where=~((iw <= 0) | (ih <= 0)))


def apply_deltas(boxes, deltas):
    """Refine (k, 4) center-size rows by (k, 4) rows of (dx, dy, dw, dh):
    shift each center by fractions of the size, rescale the sides by exp of
    the log-deltas. An exp overflow gives an infinite side, which clip_box
    brings back inside the grid."""
    b, d = _check_rows("apply_deltas", boxes, deltas)
    out = np.empty_like(b)
    out[:, :2] = b[:, :2] + d[:, :2] * b[:, 2:]
    out[:, 2:] = b[:, 2:] * np.exp(d[:, 2:])
    return out


def encode_deltas(boxes, targets):
    """Exact inverse of apply_deltas in its second argument: the (k, 4) delta
    rows that map each center-size row of boxes onto the same row of
    targets."""
    b, g = _check_rows("encode_deltas", boxes, targets)
    out = np.empty_like(b)
    out[:, :2] = (g[:, :2] - b[:, :2]) / b[:, 2:]
    out[:, 2:] = np.log(g[:, 2:] / b[:, 2:])
    return out


def clip_box(boxes, width, height):
    """Clamp the extents of (k, 4) center-size rows into [0, width] x
    [0, height], keeping sides at least MIN_SIDE even for a box that started
    wholly outside the grid; returns center-size rows. width and height are
    numbers (ValueError otherwise: a (4,) array would broadcast as per-edge
    bounds)."""
    if np.ndim(width) or np.ndim(height):
        raise ValueError(f"clip_box: width and height must be numbers, got shapes "
                         f"{np.shape(width)} and {np.shape(height)}")
    corners = centers_to_corners(*_check_rows("clip_box", boxes))
    # max(0.0, min(v, hi)) per corner, picking the operands the builtins
    # pick: -0.0 and NaN clamp to 0.0
    hi = np.array([width, height, width, height], dtype=np.float64)
    corners = np.where(hi < corners, hi, corners)
    corners = np.where(corners > 0.0, corners, 0.0)
    sides = corners[:, 2:] - corners[:, :2]
    return np.concatenate([(corners[:, :2] + corners[:, 2:]) / 2.0,
                           np.where(MIN_SIDE > sides, MIN_SIDE, sides)], axis=1)
