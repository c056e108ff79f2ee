"""Axis-aligned box arithmetic in grid units: IoU, greedy NMS over corner
arrays, and delta-based refinement and clipping over center-size arrays.

Box objects are the API edge. The array kernels take (k, 4) rows: corners
(x1, y1, x2, y2) from boxes_to_array, or centers (cx, cy, w, h) from
boxes_to_centers; each array kernel does the float operations of the
matching Box arithmetic, so its results are bitwise the same."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Center/size representation. Area is available as `.area`."""

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


def iou(a, b):
    """Intersection area over union area; 0 for disjoint boxes."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def boxes_to_array(boxes):
    """Stack boxes as an (n, 4) corner array for vectorized overlap tests."""
    return np.array([b.corners() for b in boxes], dtype=np.float64).reshape(-1, 4)


def boxes_to_centers(boxes):
    """Stack boxes as an (n, 4) array of (cx, cy, w, h) rows."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def centers_to_corners(centers):
    """(k, 4) center-size rows to corner rows, as Box.corners computes them."""
    centers = np.asarray(centers, dtype=np.float64)
    half = centers[:, 2:] / 2.0
    return np.concatenate([centers[:, :2] - half, centers[:, :2] + half], axis=1)


def pairwise_iou(corners_a, corners_b):
    """(A, B) IoU matrix from two corner arrays."""
    x1 = np.maximum(corners_a[:, None, 0], corners_b[None, :, 0])
    y1 = np.maximum(corners_a[:, None, 1], corners_b[None, :, 1])
    x2 = np.minimum(corners_a[:, None, 2], corners_b[None, :, 2])
    y2 = np.minimum(corners_a[:, None, 3], corners_b[None, :, 3])
    inter = np.maximum(0.0, x2 - x1) * np.maximum(0.0, y2 - y1)
    area_a = (corners_a[:, 2] - corners_a[:, 0]) * (corners_a[:, 3] - corners_a[:, 1])
    area_b = (corners_b[:, 2] - corners_b[:, 0]) * (corners_b[:, 3] - corners_b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def nms(boxes, scores, iou_thresh, max_keep):
    """Greedy non-maximum suppression over a (k, 4) corner array, as made by
    boxes_to_array.

    Repeatedly keeps the highest-scoring remaining box (score ties go to the
    lower index) and discards boxes whose IoU with it exceeds iou_thresh.
    Returns kept indices in descending-score order, at most max_keep of them.
    """
    shape = np.shape(boxes)
    if len(shape) != 2 or shape[1] != 4:
        raise ValueError(f"nms: boxes must be a (k, 4) corner array, got shape {shape}")
    if len(boxes) != len(scores):
        raise ValueError(f"nms: {len(boxes)} boxes but {len(scores)} scores")
    if not (0.0 < iou_thresh < 1.0):
        raise ValueError(f"nms: iou_thresh must be in (0,1), got {iou_thresh}")
    if max_keep < 1:
        raise ValueError("nms: max_keep must be >= 1")

    # stable sort on -score keeps the lower index first among ties. A box
    # survives unless a kept box ahead of it in this order overlaps it, so
    # only the prefix up to the max_keep-th survivor matters; it is scanned
    # in blocks, each checked against the boxes kept so far and itself.
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    corners = np.asarray(boxes, dtype=np.float64)[order]
    kept = []                    # positions in order
    # twice max_keep usually holds every survivor; the cap bounds the matrix
    start, block = 0, min(2 * max_keep, 256)
    while start < len(order) and len(kept) < max_keep:
        stop = min(start + block, len(order))
        rows = np.concatenate([np.array(kept, dtype=np.intp), np.arange(start, stop)])
        # not (iou <= thresh): a NaN overlap suppresses, as a failed keep test
        over = ~(pairwise_iou(corners[rows], corners[start:stop]) <= iou_thresh)
        dead = over[:len(kept)].any(axis=0)
        for j, row in enumerate(over[len(kept):]):
            if not dead[j]:
                kept.append(start + j)
                if len(kept) == max_keep:
                    break
                dead |= row
        start = stop
    return [int(order[i]) for i in kept]


def _check_rows(name, a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 4:
        raise ValueError(f"{name}: expected a (k, 4) array, got shape {a.shape}")
    return a


def apply_deltas(boxes, deltas):
    """Refine (k, 4) center-size rows by (k, 4) rows of (dx, dy, dw, dh):
    shift each center by fractions of the size, rescale the sides by exp of
    the log-deltas. An exp overflow gives an infinite side, which clip_box
    brings back inside the grid."""
    b = _check_rows("apply_deltas", boxes)
    d = _check_rows("apply_deltas", deltas)
    if len(b) != len(d):
        raise ValueError(f"apply_deltas: {len(b)} boxes but {len(d)} delta rows")
    out = np.empty_like(b)
    out[:, :2] = b[:, :2] + d[:, :2] * b[:, 2:]
    out[:, 2:] = b[:, 2:] * np.exp(d[:, 2:])
    return out


def encode_deltas(b, g):
    """Exact inverse of apply_deltas in its second argument: the deltas that
    map box b onto box g."""
    return np.array([
        (g.cx - b.cx) / b.w,
        (g.cy - b.cy) / b.h,
        np.log(g.w / b.w),
        np.log(g.h / b.h),
    ], dtype=np.float64)


def clip_box(boxes, width, height, min_side=1e-6):
    """Clamp the extents of (k, 4) center-size rows into [0, width] x
    [0, height], keeping sides at least min_side even for a box that started
    wholly outside the grid; returns center-size rows."""
    corners = centers_to_corners(_check_rows("clip_box", boxes))
    # max(0.0, min(v, hi)) per corner, picking the operands the builtins
    # pick: -0.0 and NaN clamp to 0.0
    hi = np.array([width, height, width, height], dtype=np.float64)
    corners = np.where(hi < corners, hi, corners)
    corners = np.where(corners > 0.0, corners, 0.0)
    sides = corners[:, 2:] - corners[:, :2]
    return np.concatenate([(corners[:, :2] + corners[:, 2:]) / 2.0,
                           np.where(min_side > sides, min_side, sides)], axis=1)
