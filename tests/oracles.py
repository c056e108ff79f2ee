"""Independent scalar-loop references for the library's numeric kernels.

Everything here is written with explicit Python loops and `math` calls on
purpose: these functions must fail differently from the vectorized library
code, or comparing the two proves nothing. Keep them slow and obvious.
"""

import math

import numpy as np


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


def edge_weight_oracle(w_p, w_v, box_i, box_j, f_i, f_j):
    rel = spatial_relation_oracle(box_i, box_j)
    spatial = dot_s(w_p[0], rel)
    if spatial < 0.0:
        spatial = 0.0
    visual = math.tanh(dot_s(w_v[0], list(f_i) + list(f_j)))
    return spatial * visual


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


def sin_step_oracle(p, features, boxes, scene_feature, pooling="mean", mode="both"):
    """One inference step composed purely from the oracles above."""
    n = len(features)
    d = len(features[0])
    w_r_s, w_z_s, w_s, u_s = (p.scene_gru.w_r.value, p.scene_gru.w_z.value,
                              p.scene_gru.w.value, p.scene_gru.u.value)
    w_r_e, w_z_e, w_e, u_e = (p.edge_gru.w_r.value, p.edge_gru.w_z.value,
                              p.edge_gru.w.value, p.edge_gru.u.value)
    h_scene = h_edge = None
    if mode in ("both", "scene"):
        h_scene = [gru_forward_oracle(w_r_s, w_z_s, w_s, u_s, scene_feature,
                                      features[i])[0] for i in range(n)]
    if mode in ("both", "edge"):
        e = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    e[i][j] = edge_weight_oracle(p.w_p.value, p.w_v.value,
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
    from sinet.geometry import Box
    dx, dy, dw, dh = (float(v) for v in d)
    return Box(b.cx + dx * b.w, b.cy + dy * b.h, b.w * _exp_s(dw), b.h * _exp_s(dh))


def clip_box_oracle(b, width, height, min_side=1e-6):
    """Clamp one Box's corners into [0, width] x [0, height] with the min and
    max builtins, keeping sides at least min_side."""
    from sinet.geometry import Box
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


def nms_oracle(boxes, scores, iou_thresh, max_keep):
    """Greedy suppression with explicit scanning; must reproduce the library's
    exact kept-index list (ties to the lower index, overlap kept while
    iou <= thresh)."""
    alive = list(range(len(boxes)))
    keep = []
    while alive and len(keep) < max_keep:
        best = alive[0]
        for i in alive[1:]:
            if scores[i] > scores[best]:
                best = i
        keep.append(best)
        alive = [i for i in alive
                 if i != best and iou_oracle(boxes[best], boxes[i]) <= iou_thresh]
    return keep


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
    from sinet.geometry import Box
    return Box(rng.uniform(1.0, span), rng.uniform(1.0, span),
               rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
