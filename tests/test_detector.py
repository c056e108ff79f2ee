import functools
import hashlib
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from sinet import detector as det_mod
from sinet.detector import (ANCHOR_RATIOS, ANCHOR_SCALES, ARMS, DETECTION_DTYPE,
                            FINAL_NMS_THRESH,
                            GT_JITTER, IGNORE, IOU_NEG, IOU_POS,
                            PROPOSAL_NMS_THRESH, TrainConfig,
                            TrainingDiverged, _forward, _injected_boxes, _pool_rois,
                            _proposals, _scene_means, _softmax_rows, active_param_names,
                            anchor_set, anchor_targets, assign_targets, create_detector_params,
                            detect, detect_scenes, multi_task_loss, objectness_loss,
                            plan_training, roi_inputs, score_anchors, smooth_l1, smooth_l1_grad,
                            train, validate_config)
from sinet.geometry import centers_to_corners, pairwise_iou
from sinet.numerics import ParamStore
from sinet.structure_inference import compute_edges
from sinet.synth_data import SceneSample, cell_window, default_world, scene_sampler

from oracles import (NO_BOXES, Box, anchor_targets_oracle, anchor_targets_per_scene,
                     apply_deltas_oracle, assign_targets_oracle, center_rows,
                     clip_box_oracle, corner_rows, covered_cells_oracle, encode_deltas_oracle,
                     gt_array, iou_oracle, nms, nms_oracle, objectness_oracle, pool_rois_oracle,
                     proposals_per_row, sample_at, scene_means_per_scene,
                     score_anchors_per_scene, train_proposals_oracle, with_arm)
from oracles import propose as propose_per_row


def make_params(channels=5, k=3, d=6, pooling="mean", seed=0, arm="sin", **cfg):
    """A fresh model of `arm` with feature width d under a TrainConfig of
    the other keywords."""
    store = ParamStore()
    cfg = validate_config(TrainConfig(feat_dim=d, pooling=pooling, **cfg))
    params = create_detector_params(store, channels, k, cfg, arm, seed)
    return store, params


def forward_one(params, sample, boxes, steps):
    """Stage two on the one-scene stack of `sample` and its (n, 4) ROI rows,
    recording tapes as training does."""
    return _forward(params, roi_inputs([sample], np.asarray(boxes)[None]), steps, True)


def make_sample(rng, h=10, w=10, c=5, gt=()):
    """A noise scene whose ground truth is the (Box, category) pairs `gt`."""
    return SceneSample(grid=rng.normal(0.0, 1.0, size=(h, w, c)),
                       scene_type=0, gt=gt_array(gt))


def score_one(params, sample):
    """score_anchors on the one-scene stack of `sample`: its anchor set and
    (A,) scores."""
    anchors, scores = score_anchors(params, sample.grid[None])
    return anchors, scores[0]


def propose(params, sample):
    """Detection's proposals for one scene: _proposals on the one-row stack
    of its scores."""
    anchors, scores = score_anchors(params, sample.grid[None])
    return _proposals(anchors, scores, params.cfg.rois_per_image)[0]


def proposals_one(anchors, scores, kept, n):
    """_proposals on the one-row stack of the (A,) `scores` and the kept
    (centers, corners) pair of its boxes."""
    centers, corners = kept
    return _proposals(anchors, scores[None], n,
                      (centers, corners, np.array([0, len(centers)])))[0]


def label_one(anchors, gt):
    """anchor_targets of the one-scene stack of `gt`."""
    return anchor_targets(anchors, [gt])[0]


def train_proposals(params, sample, n, rng):
    """One training step's proposals for a one-iteration plan of `sample`,
    its gt jittered by draws from rng."""
    anchors, scores = score_anchors(params, sample.grid[None])
    return _proposals(anchors, scores, n, _injected_boxes([sample], rng, n))[0]


def dense_targets(targets, a):
    """Compact objectness targets as the dense (y, mask) label arrays over a
    anchors: mask is False on the ignored ones."""
    y, mask = np.zeros(a), np.ones(a, dtype=bool)
    y[targets.pos] = 1.0
    mask[targets.ignored] = False
    return y, mask


# ---------------------------------------------------------------------------
# anchors

def test_anchor_set_enumeration():
    a = anchor_set(16, 16)
    assert len(a.centers) == 16 * 16 * len(ANCHOR_SCALES) * len(ANCHOR_RATIOS)
    assert len(a.centers) == 1536
    assert a.corners.shape == (1536, 4)
    # row-major by cell, types cycling fastest: anchor i is type i % T of
    # cell i // T
    num_types = len(ANCHOR_SCALES) * len(ANCHOR_RATIOS)
    assert a.centers[0, :2].tolist() == [0.5, 0.5]
    assert a.centers[num_types, :2].tolist() == [1.5, 0.5]
    assert a.centers[16 * num_types, :2].tolist() == [0.5, 1.5]
    # the same rows, bit for bit, as Boxes enumerated one at a time
    sizes = [(s * math.sqrt(r), s / math.sqrt(r)) for s in ANCHOR_SCALES for r in ANCHOR_RATIOS]
    boxes = [Box(c + 0.5, r + 0.5, aw, ah)
             for r in range(16) for c in range(16) for aw, ah in sizes]
    assert a.centers.tolist() == center_rows(boxes).tolist()
    assert np.array_equal(a.corners, corner_rows(boxes))
    # cached: same object back for the same grid
    assert anchor_set(16, 16) is a


@pytest.mark.parametrize("h,w", [(1, 1), (1, 12), (12, 1), (9, 7), (16, 16)])
def test_anchor_covers_and_counts_are_cell_window(h, w):
    anchors = anchor_set(h, w)
    num_types = len(ANCHOR_SCALES) * len(ANCHOR_RATIOS)
    assert anchors.row_cover.shape == (num_types, h, h)
    assert anchors.col_cover.shape == (num_types, w, w)
    assert anchors.count.shape == (num_types, h, w)
    for i, corners in enumerate(anchors.corners.tolist()):
        r, c, t = i // (w * num_types), i // num_types % w, i % num_types
        r0, r1, c0, c1 = cell_window(corners, h, w)
        assert anchors.row_cover[t, r].tolist() == [float(r0 <= k < r1) for k in range(h)], i
        assert anchors.col_cover[t, c].tolist() == [float(c0 <= k < c1) for k in range(w)], i
        assert anchors.count[t, r, c] == (r1 - r0) * (c1 - c0) > 0, i


def _grid(seed, h, w, c, neg_zero):
    """Normal cells, a `neg_zero` share of them replaced by -0.0."""
    rng = np.random.default_rng(seed)
    grid = rng.normal(size=(h, w, c))
    grid[rng.random((h, w, c)) < neg_zero] = -0.0
    return grid


# quarter-cell boxes tie and coincide exactly; free floats land anywhere.
# Both reach past every edge of a grid of up to 12 cells, and wholly off it.
_gt_quarter = hst.builds(Box, hst.integers(-24, 60).map(lambda v: v / 4.0),
                         hst.integers(-24, 60).map(lambda v: v / 4.0),
                         hst.integers(1, 24).map(lambda v: v / 4.0),
                         hst.integers(1, 24).map(lambda v: v / 4.0))
_gt_free = hst.builds(Box, hst.floats(-8.0, 16.0), hst.floats(-8.0, 16.0),
                      hst.floats(0.01, 12.0), hst.floats(0.01, 12.0))


@settings(max_examples=60, deadline=None)
@given(h=hst.integers(1, 12), w=hst.integers(1, 12), c=hst.integers(2, 8),
       seed=hst.integers(0, 2**32 - 1), neg_zero=hst.sampled_from((0.0, 0.3, 1.0)),
       boxes=hst.lists(hst.one_of(_gt_quarter, _gt_free), max_size=4))
@example(h=3, w=11, c=2, seed=0, neg_zero=0.3, boxes=[Box(5.5, 1.5, 2.0, 2.0)])
@example(h=12, w=1, c=8, seed=1, neg_zero=1.0, boxes=[])
def test_anchor_scores_and_objectness_gradient_match_oracle(h, w, c, seed, neg_zero, boxes):
    # the box filter adds each window in another order than the dense
    # features, so scores, loss and gradient agree to rounding
    grid = _grid(seed, h, w, c, neg_zero)
    sample = SceneSample(grid=grid, scene_type=0, gt=gt_array((b, 0) for b in boxes))
    store, params = make_params(channels=c)
    rng = np.random.default_rng(seed + 1)
    params.objectness.value[:] = rng.normal(size=params.objectness.value.shape)
    anchors = anchor_set(h, w)
    want_scores, want_loss, want_grad = objectness_oracle(grid, anchors,
                                                          params.objectness.value, sample.gt)
    got_anchors, scores = score_one(params, sample)
    assert got_anchors is anchors and scores.shape == (len(anchors.centers),)
    assert np.allclose(scores, want_scores, rtol=0.0, atol=1e-12)
    # the gradient accumulates onto what was there
    start = rng.normal(size=params.objectness.value.shape)
    params.objectness.grad[:] = start
    loss = objectness_loss(params, sample, (anchors, scores), label_one(anchors, sample.gt))
    assert loss == pytest.approx(want_loss, rel=0.0, abs=1e-12)
    assert np.allclose(params.objectness.grad - start, want_grad, rtol=0.0, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_cells_raise_nothing_and_proposals_still_come(bad):
    # the anchors covering the cell score NaN (inf or NaN for an inf cell),
    # and proposals fall back to the full stable sort, NaN scores last
    rng = np.random.default_rng(31)
    store, params = make_params()
    params.objectness.value[:] = rng.normal(size=params.objectness.value.shape)
    sample = make_sample(rng, h=6, w=7)
    sample.grid[2, 3, 1] = bad
    anchors, scores = score_one(params, sample)
    win = np.array([cell_window(row, 6, 7) for row in anchors.corners.tolist()])
    covers = (win[:, 0] <= 2) & (2 < win[:, 1]) & (win[:, 2] <= 3) & (3 < win[:, 3])
    assert covers.sum() >= 6
    if math.isnan(bad):
        assert np.isnan(scores[covers]).all()
    else:
        assert not np.isfinite(scores[covers]).any()
    props = propose(params, sample)
    order = np.argsort(-scores, kind="stable")
    assert props.tolist() == anchors.centers[order[:16]].tolist()
    loss = objectness_loss(params, sample, (anchors, scores), label_one(anchors, sample.gt))
    assert not np.isfinite(loss) and not np.isfinite(params.objectness.grad).all()


# quarter-cell rows put centers and edges on cell boundaries (nearest-cell
# ties, windows between cell centers, zero sizes); free rows land anywhere;
# both reach past every edge of a grid of up to 7 cells, and wholly off it
_roi_quarter = hst.tuples(*[hst.integers(-12, 44).map(lambda v: v / 4.0)] * 2,
                          *[hst.integers(0, 48).map(lambda v: v / 4.0)] * 2)
_roi_free = hst.tuples(hst.floats(-6.0, 16.0), hst.floats(-6.0, 16.0),
                       hst.floats(0.0, 24.0), hst.floats(0.0, 24.0))
_nan, _inf = math.nan, math.inf
_roi_odd = hst.sampled_from([(_nan, _nan, _nan, _nan), (2.0, 3.0, _nan, 1.0),
                             (_nan, 1.5, 1.0, 1.0), (2.5, 1.5, -1.0, 2.0),
                             (_inf, 2.0, 1.0, 1.0), (1.5, -_inf, 1.0, 1.0),
                             (1.5, 2.5, _inf, 2.0), (1.5, 2.5, -_inf, 2.0)])


@settings(max_examples=200, deadline=None)
@given(shapes=hst.lists(hst.tuples(hst.integers(1, 7), hst.integers(1, 7)),
                        min_size=1, max_size=4),
       c=hst.integers(2, 8), n=hst.integers(1, 6), seed=hst.integers(0, 2**32 - 1),
       neg_zero=hst.sampled_from((0.0, 0.3, 1.0)),
       rois=hst.lists(hst.one_of(_roi_quarter, _roi_free, _roi_odd), min_size=1, max_size=24))
@example(shapes=[(4, 5)], c=2, n=3, seed=0, neg_zero=0.0,
         rois=[(2.0, 3.0, 0.5, 0.5), (3.0, 2.0, 0.25, 4.0), (2.0, 2.0, 4.0, 0.0)])
@example(shapes=[(7, 7), (2, 3), (5, 1)], c=3, n=2, seed=1, neg_zero=0.0,
         rois=[(3.5, 3.5, 7.0, 7.0), (2.75, 1.25, 2.5, 2.5), (9.0, -2.0, 1.0, 1.0)])
def test_pool_rois_matches_oracle(shapes, c, n, seed, neg_zero, rois):
    # bitwise: the padded gather adds each window's cells in the oracle's
    # row-major order, on each scene's own grid, and the array fallback
    # picks the oracle's nearest cell, ties and NaN to the lower one
    samples = [SceneSample(grid=_grid(seed + b, h, w, c, neg_zero), scene_type=0, gt=[])
               for b, (h, w) in enumerate(shapes)]
    boxes = np.array([rois[i % len(rois)] for i in range(len(shapes) * n)]).reshape(-1, n, 4)
    assert _pool_rois(samples, boxes).tobytes() == pool_rois_oracle(samples, boxes).tobytes()


# ---------------------------------------------------------------------------
# proposals

def test_propose_exact_count():
    rng = np.random.default_rng(5)
    sample = make_sample(rng)
    for k in (4, 16, 200):
        _, params = make_params(rois_per_image=k)
        props = propose(params, sample)
        assert props.shape == (k, 4)


def test_propose_injects_ground_truth():
    # training's plan jitters the gt boxes with its rng's draws and the step
    # puts them ahead of every anchor, so they lead the proposals
    rng = np.random.default_rng(9)
    store, params = make_params()
    gt = [(Box(2.5, 2.5, 3.0, 2.0), 0), (Box(7.0, 7.0, 2.0, 2.8), 1)]
    sample = make_sample(rng, gt=gt)
    props = train_proposals(params, sample, 16, np.random.default_rng(3))
    assert len(props) == 16
    replay = np.random.default_rng(3)
    for got, (box, _) in zip(props.tolist(), gt):
        want = clip_box_oracle(apply_deltas_oracle(
            box, replay.normal(0.0, GT_JITTER, size=4)), 10, 10)
        assert got == pytest.approx([want.cx, want.cy, want.w, want.h], abs=1e-12)

    # detection's propose must not peek at the labels
    props_eval = propose(params, sample)
    g = sample.gt["box"][0].tolist()
    assert all(p != g for p in props_eval.tolist())


def test_propose_matches_oracle_over_injected_and_anchors():
    # the plan and step work on corner arrays; the oracle scans Box objects,
    # with the (jittered) gt boxes injected ahead of the anchors in training
    rng = np.random.default_rng(21)
    store, params = make_params()
    params.objectness.value[:] = rng.normal(0.0, 1.0, size=params.objectness.value.shape)
    gt = [(Box(2.5, 2.5, 3.0, 2.0), 0), (Box(7.0, 7.0, 2.0, 2.8), 1)]
    sample = make_sample(rng, gt=gt)
    anchors, scores = score_one(params, sample)
    for k in (16, 40):
        for train_mode in (False, True):
            if train_mode:
                props = train_proposals(params, sample, k, np.random.default_rng(4))
            else:
                # the same weights, laid out for k proposals
                props = propose(replace(params, cfg=replace(params.cfg, rois_per_image=k)),
                                sample)
            injected = []
            if train_mode:
                replay = np.random.default_rng(4)
                injected = [clip_box_oracle(apply_deltas_oracle(
                    box, replay.normal(0.0, GT_JITTER, size=4)), 10, 10) for box, _ in gt]
            boxes = injected + [Box(*row) for row in anchors.centers.tolist()]
            keep = nms_oracle(boxes, [1e9] * len(injected) + list(scores),
                              PROPOSAL_NMS_THRESH, k)
            assert len(keep) == k
            assert props.tolist() == [[boxes[i].cx, boxes[i].cy, boxes[i].w, boxes[i].h]
                                      for i in keep]


def test_propose_pads_by_cycling_the_kept_boxes():
    # a one-cell grid has 6 anchors, so NMS keeps fewer than 16 boxes: the m
    # survivors come first in the oracle's order, then props[j % m] fills
    # each remaining slot j
    rng = np.random.default_rng(22)
    store, params = make_params()
    params.objectness.value[:] = rng.normal(0.0, 1.0, size=params.objectness.value.shape)
    gt = [(Box(0.5, 0.6, 1.2, 1.6), 0)]
    sample = make_sample(rng, h=1, w=1, gt=gt)
    anchors, scores = score_one(params, sample)
    for train_mode in (False, True):
        if train_mode:
            props = train_proposals(params, sample, 16, np.random.default_rng(4))
        else:
            props = propose(params, sample)
        injected = []
        if train_mode:
            replay = np.random.default_rng(4)
            injected = [clip_box_oracle(apply_deltas_oracle(
                box, replay.normal(0.0, GT_JITTER, size=4)), 1, 1) for box, _ in gt]
        boxes = injected + [Box(*row) for row in anchors.centers.tolist()]
        keep = nms_oracle(boxes, [1e9] * len(injected) + list(scores),
                          PROPOSAL_NMS_THRESH, 16)
        m = len(keep)
        assert 1 < m <= 7, m
        assert props.shape == (16, 4)
        assert props[:m].tolist() == [[boxes[i].cx, boxes[i].cy, boxes[i].w, boxes[i].h]
                                      for i in keep]
        for j in range(m, 16):
            assert props[j].tolist() == props[j % m].tolist()


@pytest.mark.parametrize("h, w", [(1, 1), (1, 12), (12, 1), (7, 13), (16, 16)])
def test_no_two_anchors_overlap_past_the_proposal_nms_threshold(h, w):
    # why detection keeps the top-scoring anchors without running NMS: the
    # closest pair is one cell's two ratios at one scale, on every grid
    corners = anchor_set(h, w).corners
    ious = pairwise_iou(corners, corners)
    np.fill_diagonal(ious, 0.0)
    assert ious.max() < PROPOSAL_NMS_THRESH
    assert ious.max() == pytest.approx(0.68990, abs=1e-5)


_levels = hst.one_of(hst.integers(-2, 2).map(float), hst.sampled_from([0.0, -0.0, math.nan]))


@settings(max_examples=80, deadline=None)
@given(h=hst.integers(1, 5), w=hst.integers(1, 5), n=hst.integers(1, 40),
       levels=hst.lists(_levels, min_size=150, max_size=150))
def test_proposals_without_injection_are_nms_over_the_anchors(h, w, n, levels):
    # tied and NaN scores; grids of 6 to 150 anchors, some fewer than n
    anchors = anchor_set(h, w)
    scores = np.array(levels[:len(anchors.centers)])
    keep = nms(anchors.corners, scores, PROPOSAL_NMS_THRESH, n)
    want = anchors.centers[np.resize(keep, n)].tolist()
    # detection injects nothing; neither does a training iteration on a
    # scene without ground truth, which draws no jitter either
    rng = np.random.default_rng(0)
    centers, corners, bounds = _injected_boxes(
        [SceneSample(np.zeros((h, w, 5)), 0, gt_array([]))], rng, n)
    assert bounds.tolist() == [0, 0] and rng.random() == np.random.default_rng(0).random()
    for kept in (None, (centers, corners, bounds)):
        assert _proposals(anchors, scores[None], n, kept)[0].tolist() == want


# gt boxes on quarter cells of grids up to 4 x 4, reaching past their edges
_gt_box = hst.builds(Box, hst.integers(-4, 20).map(lambda v: v / 4.0),
                     hst.integers(-4, 20).map(lambda v: v / 4.0),
                     hst.integers(1, 24).map(lambda v: v / 4.0),
                     hst.integers(1, 24).map(lambda v: v / 4.0))


@settings(max_examples=60, deadline=None)
@given(shape=hst.tuples(hst.integers(1, 4), hst.integers(1, 4)), n=hst.integers(1, 20),
       scenes=hst.lists(hst.lists(_gt_box, max_size=24), min_size=1, max_size=5),
       levels=hst.lists(_levels, min_size=96, max_size=96),
       chunk=hst.sampled_from((1, 2, det_mod.PLAN_CHUNK)), seed=hst.integers(0, 2**32 - 1))
@example(shape=(1, 1), n=3, scenes=[[Box(0.5, 0.5, 1.0, 1.0)] * 5, []],
         levels=[math.nan] * 96, chunk=det_mod.PLAN_CHUNK, seed=0)
@example(shape=(1, 1), n=16, scenes=[[Box(0.5, 0.5, 1.0 + i / 4.0, 1.0) for i in range(20)]],
         levels=[0.0] * 96, chunk=2, seed=1)
def test_plan_and_step_match_the_per_iteration_oracle(shape, n, scenes, levels, chunk, seed):
    # the plan jitters every iteration's gt in one stream (chunked or not)
    # and suppresses each iteration's boxes among themselves; the step adds
    # the anchors its kept boxes leave. Per iteration, that is the old
    # per-iteration path: jitter, clip, NMS over gt and anchors, cycle to n.
    # Tied and NaN scores, 1x1 grids, and up to 24 gts, as many as n or more
    h, w = shape
    anchors = anchor_set(h, w)
    samples = [SceneSample(np.zeros((h, w, 2)), 0, gt_array((b, 0) for b in boxes))
               for boxes in scenes]
    with mock.patch.object(det_mod, "PLAN_CHUNK", chunk):
        centers, corners, bounds = _injected_boxes(samples, np.random.default_rng(seed), n)
    assert bounds[0] == 0 and len(bounds) == len(samples) + 1
    assert corners.tobytes() == centers_to_corners(centers).tobytes()
    replay = np.random.default_rng(seed)
    for i, sample in enumerate(samples):
        # a different score order each iteration, from the same levels
        scores = np.roll(np.array(levels), i)[:len(anchors.centers)]
        kept = centers[bounds[i]:bounds[i + 1]], corners[bounds[i]:bounds[i + 1]]
        assert len(kept[0]) <= min(n, len(sample.gt))
        want = train_proposals_oracle(anchors, scores, sample, replay, n)
        assert proposals_one(anchors, scores, kept, n).tobytes() == want.tobytes()


def test_proposals_widen_past_the_prefix_when_kept_boxes_suppress_it():
    # each kept box overlaps four anchors past the threshold, and those
    # eight anchors score highest: the 2n = 8 prefix has no survivor, so
    # the step widens to the full order
    anchors = anchor_set(8, 8)
    centers = np.array([[2.5, 2.5, 2.7, 2.4], [5.5, 5.5, 2.7, 2.4]])
    corners = centers_to_corners(centers)
    over = (pairwise_iou(corners, anchors.corners) > PROPOSAL_NMS_THRESH).any(axis=0)
    assert over.sum() == 8
    scores = np.where(over, 5.0, np.arange(len(over)) % 7 / 7.0)
    props = proposals_one(anchors, scores, (centers, corners), 4)
    rows = np.concatenate([centers, anchors.centers])
    ious = pairwise_iou(centers_to_corners(rows), centers_to_corners(rows))
    keep = nms_oracle(range(len(rows)), [1e9, 1e9] + list(scores), PROPOSAL_NMS_THRESH, 4,
                      overlap=lambda i, j: ious[i, j])
    assert props.tobytes() == rows[keep].tobytes()
    assert len(keep) == 4 and not over[np.array(keep[2:]) - 2].any()


def _kept_stack(boxes_per_row):
    """Kept boxes of a stack of rows, as _proposals takes them: (centers,
    corners, bounds) over the rows' center rows, in order."""
    centers = center_rows([b for boxes in boxes_per_row for b in boxes])
    bounds = np.cumsum([0] + [len(boxes) for boxes in boxes_per_row])
    return centers, centers_to_corners(centers), bounds


def assert_stack_is_per_row(anchors, scores, n, kept):
    """_proposals on the (B, A) stack, byte for byte each row's
    proposals_per_row, with its kept boxes and with none."""
    centers, corners, bounds = kept
    got, alone = _proposals(anchors, scores, n, kept), _proposals(anchors, scores, n)
    assert got.shape == alone.shape == (len(scores), n, 4)
    for b, row in enumerate(scores):
        own = centers[bounds[b]:bounds[b + 1]], corners[bounds[b]:bounds[b + 1]]
        assert got[b].tobytes() == proposals_per_row(anchors, row, own, n).tobytes()
        assert alone[b].tobytes() == proposals_per_row(anchors, row, NO_BOXES, n).tobytes()


@settings(max_examples=150, deadline=None)
@given(shape=hst.tuples(hst.integers(1, 4), hst.integers(1, 4)), n=hst.integers(1, 20),
       data=hst.data())
def test_proposal_stack_is_the_per_row_proposals(shape, n, data):
    # tied, signed-zero and NaN scores (whole NaN rows among them), grids
    # of 6 to 96 anchors, some fewer than n; 0 to n kept boxes per row
    anchors = anchor_set(*shape)
    a = len(anchors.centers)
    b = data.draw(hst.integers(1, 6))
    scores = np.array([data.draw(hst.one_of(hst.lists(_levels, min_size=a, max_size=a),
                                            hst.just([math.nan] * a))) for _ in range(b)])
    kept = _kept_stack([data.draw(hst.lists(_gt_box, max_size=n)) for _ in range(b)])
    assert_stack_is_per_row(anchors, scores, n, kept)


def test_proposal_stack_breaks_ties_at_the_cut_as_the_rows_do():
    # on a grid two cells high, the anchors of a tall type in both rows of
    # a column cover the same cells and score exactly alike, so score ties
    # straddle the 2n cut
    rng = np.random.default_rng(7)
    _, params = make_params()
    params.objectness.value[:] = rng.normal(size=params.objectness.value.shape)
    samples = [make_sample(rng, h=2, w=6) for _ in range(4)]
    anchors = anchor_set(2, 6)
    scores = score_anchors(params, np.stack([sample.grid for sample in samples]))[1]
    ranked = np.sort(-scores, axis=1)
    cuts = [n for n in range(1, 30) if (ranked[:, 2 * n - 1] == ranked[:, 2 * n]).any()]
    assert len(cuts) >= 3
    gts = [[], [Box(1.5, 1.0, 2.0, 2.0)], [Box(0.5, 0.5, 1.0, 1.0), Box(4.0, 1.0, 2.0, 1.5)],
           [Box(3.0, 1.0, 2.0, 2.0)]]
    for n in cuts:
        assert_stack_is_per_row(anchors, scores, n, _kept_stack(gts))


def test_proposal_stack_rows_take_their_own_fallbacks():
    # one stack: a row whose 2n prefix its kept boxes wholly suppress (it
    # widens to its full order), a NaN row, a row with as many kept boxes
    # as proposals, a row with none and a row with too few numbers for its
    # cut
    anchors = anchor_set(8, 8)
    centers = np.array([[2.5, 2.5, 2.7, 2.4], [5.5, 5.5, 2.7, 2.4]])
    over = (pairwise_iou(centers_to_corners(centers), anchors.corners)
            > PROPOSAL_NMS_THRESH).any(axis=0)
    a = len(over)
    suppressed = np.where(over, 5.0, np.arange(a) % 7 / 7.0)
    few = np.full(a, math.nan)
    few[[3, 90, 200]] = [1.0, 2.0, 1.0]
    scores = np.array([suppressed, np.full(a, math.nan), suppressed, suppressed, few])
    boxes = [Box(*row) for row in centers.tolist()]
    for n in (2, 4):
        kept = _kept_stack([boxes, boxes, [Box(1.0, 1.0, 2.0, 2.0)] * n, [], boxes[:1]])
        assert_stack_is_per_row(anchors, scores, n, kept)


def test_plan_is_the_scene_by_scene_draws():
    # the order is one shuffle permutation per pass over the n_train scenes;
    # each scene is sampled and labelled once; every iteration's kept boxes
    # come from its own jitter draws, in iteration order
    world = default_world()
    cfg = TrainConfig(iters=7, seed=5)
    plan = plan_training(world, cfg, 3, data_seed=8)
    shuffle = np.random.default_rng(det_mod.seed_for(5, "shuffle"))
    want = np.concatenate([shuffle.permutation(3) for _ in range(3)])[:7]
    assert len(plan.scenes) == len(plan.targets) == 7
    jitter = np.random.default_rng(det_mod.seed_for(5, "gt-jitter"))
    for it, idx in enumerate(want.tolist()):
        sample = plan.scenes[it]
        assert sample is plan.scenes[want.tolist().index(idx)]
        assert plan.targets[it] is plan.targets[want.tolist().index(idx)]
        fresh = sample_at(world, 8, idx)
        assert sample.grid.tobytes() == fresh.grid.tobytes()
        anchors = anchor_set(*sample.grid.shape[:2])
        assert all(np.array_equal(a, b) for a, b in
                   zip(plan.targets[it], anchor_targets_per_scene(anchors, sample.gt)))
        scores = np.zeros(len(anchors.centers))
        want_props = train_proposals_oracle(anchors, scores, sample, jitter, cfg.rois_per_image)
        got = _proposals(anchors, scores[None], cfg.rois_per_image, plan.kept(it, it + 1))[0]
        assert got.tobytes() == want_props.tobytes()


# ---------------------------------------------------------------------------
# target assignment

def assign_one(props, gt, num_categories):
    """assign_targets on the one-scene stack of (n, 4) rows `props`."""
    labels, deltas = assign_targets(props[None], [gt], num_categories)
    return labels[0], deltas[0]


def test_assign_targets_no_gt_is_all_background():
    props = center_rows([Box(2, 2, 2, 2), Box(5, 5, 1, 1)])
    labels, deltas = assign_one(props, gt_array([]), num_categories=3)
    assert labels.tolist() == [3, 3]
    assert deltas.shape == (2, 4) and not deltas.any()


def test_assign_targets_trivial_cases():
    g = Box(3.0, 3.0, 2.0, 2.0)
    props = [
        Box(3.0, 3.0, 2.0, 2.0),    # exact hit
        Box(9.0, 9.0, 2.0, 2.0),    # disjoint
        Box(3.7, 3.0, 2.0, 2.0),    # IoU ~0.418: in the ignore band
    ]
    labels, deltas = assign_one(center_rows(props), gt_array([(g, 1)]), num_categories=4)
    assert labels.tolist() == [1, 4, IGNORE]
    assert np.allclose(deltas[0], encode_deltas_oracle(props[0], g))
    assert np.allclose(deltas[0], 0.0)
    # rows that are not positive carry zero deltas
    assert not deltas[1:].any()


def test_assign_targets_forces_best_proposal():
    # sole gt overlaps nothing above iou_pos; its best proposal is still positive
    g = Box(3.0, 3.0, 2.0, 2.0)
    props = [Box(4.4, 3.0, 2.0, 2.0), Box(8.0, 8.0, 2.0, 2.0)]
    assert iou_oracle(props[0], g) < IOU_POS
    labels, _deltas = assign_one(center_rows(props), gt_array([(g, 2)]), num_categories=3)
    assert labels.tolist() == [2, 3]


def test_assign_targets_matches_brute_force():
    rng = np.random.default_rng(21)
    for trial in range(40):
        props = [Box(rng.uniform(1, 9), rng.uniform(1, 9),
                     rng.uniform(0.8, 3.0), rng.uniform(0.8, 3.0))
                 for _ in range(8)]
        gt = [(Box(rng.uniform(1, 9), rng.uniform(1, 9),
                   rng.uniform(0.8, 3.0), rng.uniform(0.8, 3.0)),
               int(rng.integers(0, 3)))
              for _ in range(int(rng.integers(1, 4)))]
        labels, deltas = assign_one(center_rows(props), gt_array(gt), num_categories=3)
        assert labels.shape == (8,) and deltas.shape == (8, 4)

        ious = [[iou_oracle(p, box) for box, _ in gt] for p in props]
        assigned = [-1] * len(props)
        neg = [False] * len(props)
        for i in range(len(props)):
            best, bv = 0, ious[i][0]
            for j in range(1, len(gt)):
                if ious[i][j] > bv:
                    best, bv = j, ious[i][j]
            if bv >= IOU_POS:
                assigned[i] = best
            elif bv < IOU_NEG:
                neg[i] = True
        for j in range(len(gt)):
            best, bv = 0, ious[0][j]
            for i in range(1, len(props)):
                if ious[i][j] > bv:
                    best, bv = i, ious[i][j]
            if bv > 0.0:
                assigned[best] = j
                neg[best] = False
        for i in range(len(props)):
            if assigned[i] >= 0:
                box, cat = gt[assigned[i]]
                assert labels[i] == cat, (trial, i)
                want = encode_deltas_oracle(props[i], box)
                assert np.allclose(deltas[i], want, atol=1e-12)
                continue
            assert not deltas[i].any()
            if neg[i]:
                assert labels[i] == 3
            else:
                assert labels[i] == IGNORE


# ROI rows on half cells of a 10 x 10 grid: ties between gts and between
# ROIs, exact hits, and boxes that meet nothing
_roi_box = hst.builds(Box, hst.integers(0, 20).map(lambda v: v / 2.0),
                      hst.integers(0, 20).map(lambda v: v / 2.0),
                      hst.integers(1, 8).map(lambda v: v / 2.0),
                      hst.integers(1, 8).map(lambda v: v / 2.0))


@settings(max_examples=80, deadline=None)
@given(n=hst.integers(1, 8), k=hst.integers(1, 4),
       scenes=hst.lists(hst.tuples(hst.lists(_roi_box, min_size=8, max_size=8),
                                   hst.lists(hst.tuples(_roi_box, hst.integers(0, 3)),
                                             max_size=6)),
                        min_size=1, max_size=6))
@example(n=3, k=2, scenes=[([Box(2.0, 2.0, 2.0, 2.0)] * 8, [(Box(2.0, 2.0, 2.0, 2.0), 1)] * 3),
                           ([Box(5.0, 5.0, 1.0, 1.0)] * 8, [])])
def test_assign_targets_matches_the_per_scene_oracle(n, k, scenes):
    # a ragged stack (scenes with no gt, with one, with several, forcing
    # one ROI twice) gives each scene bitwise the per-scene targets
    props = np.array([center_rows(rois[:n]) for rois, _ in scenes])
    gts = [gt_array((box, cat % k) for box, cat in objects) for _, objects in scenes]
    labels, deltas = assign_targets(props, gts, k)
    assert labels.shape == (len(scenes), n) and deltas.shape == (len(scenes), n, 4)
    for b, gt in enumerate(gts):
        want_labels, want_deltas = assign_targets_oracle(props[b], gt, k)
        assert labels[b].tolist() == want_labels.tolist()
        assert deltas[b].tobytes() == want_deltas.tobytes()


# ---------------------------------------------------------------------------
# loss

def test_smooth_l1_point_values():
    assert smooth_l1(0.0) == 0.0
    assert smooth_l1(0.5) == pytest.approx(0.125)
    assert smooth_l1(1.0) == pytest.approx(0.5)
    assert smooth_l1(-2.0) == pytest.approx(1.5)
    assert smooth_l1_grad(0.5) == pytest.approx(0.5)
    assert smooth_l1_grad(2.0) == 1.0
    assert smooth_l1_grad(-2.0) == -1.0
    # continuous at the threshold
    assert smooth_l1(1.0 - 1e-9) == pytest.approx(smooth_l1(1.0 + 1e-9), abs=1e-8)


def _loss_inputs():
    rng = np.random.default_rng(33)
    logits = rng.normal(size=(3, 3))
    probs = det_mod._softmax_rows(logits)
    deltas = rng.normal(size=(3, 2, 4))
    labels = np.array([0, 2, IGNORE])   # a positive, background (K = 2), ignored
    targets = np.zeros((3, 4))
    targets[0] = [0.1, -0.2, 0.0, 0.3]
    return logits, probs, deltas, labels, targets


def test_multi_task_loss_hand_value():
    logits, probs, deltas, labels, targets = _loss_inputs()

    loss, grads = multi_task_loss(probs, deltas, labels, targets)

    cls = -(np.log(probs[0, 0]) + np.log(probs[1, 2])) / 2.0
    u = deltas[0, 0] - targets[0]
    reg = float(smooth_l1(u).sum()) / 4.0
    assert loss == pytest.approx(cls + reg, abs=1e-12)
    assert grads.parts["cls"] == pytest.approx(cls)
    assert grads.parts["reg"] == pytest.approx(reg)
    # ignored ROI contributes nothing
    assert np.all(grads.dlogits[2] == 0.0)
    assert np.all(grads.ddeltas[2] == 0.0)
    # background ROI has no regression gradient
    assert np.all(grads.ddeltas[1] == 0.0)

    with pytest.raises(ValueError):
        multi_task_loss(probs, deltas, labels[:2], targets)
    with pytest.raises(ValueError):
        multi_task_loss(probs, deltas, labels, targets[:2])


def test_multi_task_loss_matches_per_roi_loop():
    # the regression term gathers every positive at once; the reference
    # visits them one at a time and adds each row's sum to a float, in order
    rng = np.random.default_rng(34)
    for trial in range(50):
        n, k = int(rng.integers(1, 20)), int(rng.integers(1, 5))
        probs = det_mod._softmax_rows(rng.normal(size=(n, k + 1)))
        deltas = rng.normal(0.0, 2.0, size=(n, k, 4))
        labels = rng.integers(-1, k + 1, size=n)
        targets = np.where((labels >= 0) & (labels < k), 1.0, 0.0)[:, None] \
            * rng.normal(0.0, 2.0, size=(n, 4))
        loss, grads = multi_task_loss(probs, deltas, labels, targets)

        positives = [i for i in range(n) if 0 <= labels[i] < k]
        reg, ddeltas = 0.0, np.zeros_like(deltas)
        if positives:
            denom = 4.0 * len(positives)
            acc = 0.0
            for i in positives:
                u = deltas[i, labels[i]] - targets[i]
                acc += float(smooth_l1(u).sum())
                ddeltas[i, labels[i]] = smooth_l1_grad(u) / denom
            reg = acc / denom
        assert grads.parts["reg"] == reg, trial
        assert loss == grads.parts["cls"] + reg
        assert np.array_equal(grads.ddeltas, ddeltas), trial


def test_multi_task_loss_gradients_match_finite_differences():
    logits, probs, deltas, labels, targets = _loss_inputs()

    def loss_at(lg, dl):
        return multi_task_loss(det_mod._softmax_rows(lg), dl, labels, targets)[0]

    _, grads = multi_task_loss(probs, deltas, labels, targets)

    eps = 1e-6
    for idx in np.ndindex(logits.shape):
        lp, lm = logits.copy(), logits.copy()
        lp[idx] += eps
        lm[idx] -= eps
        num = (loss_at(lp, deltas) - loss_at(lm, deltas)) / (2 * eps)
        assert grads.dlogits[idx] == pytest.approx(num, abs=1e-6)
    for idx in np.ndindex(deltas.shape):
        dp, dm = deltas.copy(), deltas.copy()
        dp[idx] += eps
        dm[idx] -= eps
        num = (loss_at(logits, dp) - loss_at(logits, dm)) / (2 * eps)
        assert grads.ddeltas[idx] == pytest.approx(num, abs=1e-6)


# ---------------------------------------------------------------------------
# forward pass

def test_forward_probs_are_softmax_rows():
    rng = np.random.default_rng(41)
    store, params = make_params(rois_per_image=6, T=2)
    sample = make_sample(rng)
    state = forward_one(params, sample, propose(params, sample), 2)
    assert state.probs.shape == (1, 6, 4)
    probs, logits = state.probs[0], state.graph_out.node_features[0] @ params.cls_head.value.T
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0.0)
    z = logits - logits.max(axis=1, keepdims=True)
    assert np.allclose(probs, np.exp(z) / np.exp(z).sum(axis=1, keepdims=True),
                       atol=1e-12)


def test_forward_node_avg_is_gather_mean_over_covered_cells():
    # ROI pooling slices each box's cell window; that must give exactly the
    # mean of an index gather over the oracle's covered cells, or over the
    # nearest cell center when the box covers none
    rng = np.random.default_rng(42)
    store, params = make_params()
    sample = make_sample(rng)
    h, w = sample.grid.shape[:2]
    boxes = [Box(rng.uniform(1.5, 8.5), rng.uniform(1.5, 8.5), rng.uniform(0.5, 3.0),
                 rng.uniform(0.5, 3.0)) for _ in range(12)]             # inside
    boxes += [Box(rng.uniform(-2.0, 12.0), rng.uniform(-2.0, 12.0), rng.uniform(3.0, 8.0),
                  rng.uniform(3.0, 8.0)) for _ in range(12)]            # overhanging
    boxes += [Box(0.5, 9.5, 2.0, 2.0), Box(5.0, 5.0, 30.0, 30.0), Box(-1.0, 5.0, 3.0, 2.5)]
    covers_none = [Box(0.2, 0.2, 0.1, 0.1), Box(4.9, 3.0, 0.05, 2.0), Box(3.0, 6.0, 2.0, 0.8),
                   Box(12.0, -3.0, 1.0, 1.0), Box(5.0, 5.0, 0.9, 0.9)]   # last: a tie
    boxes += covers_none
    node_avg = roi_inputs([sample], center_rows(boxes)[None]).node_avg
    for i, b in enumerate(boxes):
        rows, cols = covered_cells_oracle(b, h, w)
        if rows.size == 0 or cols.size == 0:
            rows = [int(np.argmin(np.abs(np.arange(h) + 0.5 - b.cy)))]
            cols = [int(np.argmin(np.abs(np.arange(w) + 0.5 - b.cx)))]
        else:
            assert b not in covers_none
        want = sample.grid[np.ix_(rows, cols)].mean(axis=(0, 1))
        assert np.array_equal(node_avg[0, i], want), f"box {i}: {b}"


def test_forward_zero_steps_reads_heads_off_raw_features():
    rng = np.random.default_rng(43)
    store, params = make_params()
    sample = make_sample(rng)
    boxes = center_rows([Box(3, 3, 2, 2), Box(6, 6, 2, 3), Box(8, 2, 1.5, 1.5)])
    state = forward_one(params, sample, boxes, 0)
    assert np.array_equal(state.graph_out.node_features, state.features0)
    assert np.array_equal(state.probs,
                          _softmax_rows(state.features0 @ params.cls_head.value.T))
    # with steps > 0 the graph must actually move the features
    moved = forward_one(params, sample, boxes, 2)
    assert not np.allclose(moved.graph_out.node_features, state.features0)


def test_forward_edges_square_and_zero_diagonal():
    rng = np.random.default_rng(44)
    store, params = make_params(rois_per_image=5, T=1)
    sample = make_sample(rng)
    props = propose(params, sample)
    edges = forward_one(params, sample, props, 1).graph_out.edges
    assert edges.shape == (1, 5, 5)
    assert np.all(np.diag(edges[0]) == 0.0)
    # without a step that computes edges, _forward leaves them to detect
    assert forward_one(params, sample, props, 0).graph_out.edges is None
    for arm in ("baseline", "scene"):
        model = with_arm(store, params, arm)
        assert forward_one(model, sample, props, 1).graph_out.edges is None
        _, state = detect(model, [sample], 0.05)
        assert np.array_equal(state.graph_out.edges,
                              compute_edges(params.sin, state.graph_out))


# ---------------------------------------------------------------------------
# objectness supervision

def test_anchor_targets_band_and_forced_positive():
    h = w = 8
    anchors = anchor_set(h, w)
    g = Box(4.0, 4.0, 2.6, 2.6)
    y, mask = dense_targets(label_one(anchors, gt_array([(g, 0)])), len(anchors.centers))
    boxes = [Box(*row) for row in anchors.centers.tolist()]
    for i, box in enumerate(boxes):
        v = iou_oracle(box, g)
        forced = i == int(np.argmax([iou_oracle(b, g) for b in boxes]))
        if forced:
            assert y[i] == 1.0 and mask[i]
        elif v >= det_mod.OBJ_IOU_POS:
            assert y[i] == 1.0 and mask[i]
        elif v >= det_mod.OBJ_IOU_NEG:
            assert not mask[i]
        else:
            assert y[i] == 0.0 and mask[i]


def test_anchor_targets_empty_gt():
    anchors = anchor_set(6, 6)
    targets = label_one(anchors, gt_array([]))
    y, mask = dense_targets(targets, len(anchors.centers))
    assert not y.any()
    assert mask.all()
    assert (targets.w_pos, targets.w_neg) == (0.0, 0.5 / len(anchors.centers))


@settings(max_examples=200, deadline=None)
@given(h=hst.integers(1, 9), w=hst.integers(1, 9),
       distinct=hst.lists(hst.one_of(_gt_quarter, _gt_free), min_size=1, max_size=5),
       picks=hst.lists(hst.integers(0, 4), min_size=1, max_size=8))
def test_anchor_targets_match_dense_oracle(h, w, distinct, picks):
    gt = gt_array((distinct[p % len(distinct)], p % 3) for p in picks)
    anchors = anchor_set(h, w)
    targets = label_one(anchors, gt)
    y, mask = dense_targets(targets, len(anchors.centers))
    want_y, want_mask = anchor_targets_oracle(anchors, gt)
    assert y.tobytes() == want_y.tobytes()
    assert mask.tobytes() == want_mask.tobytes()
    # each side weighs half the loss
    assert targets.w_pos == 0.5 / (want_y == 1.0).sum()
    negatives = (want_mask & (want_y == 0.0)).sum()
    assert targets.w_neg == (0.5 / negatives if negatives else 0.0)


# gts smaller than a cell and larger than any anchor; _gt_quarter and
# _gt_free reach past the grid and wholly off it, so some meet no anchor
_gt_tiny = hst.builds(Box, hst.floats(-1.0, 10.0), hst.floats(-1.0, 10.0),
                      hst.floats(0.01, 0.9), hst.floats(0.01, 0.9))
_gt_huge = hst.builds(Box, hst.floats(-4.0, 13.0), hst.floats(-4.0, 13.0),
                      hst.floats(4.0, 30.0), hst.floats(4.0, 30.0))


def _gt_flush(h, w):
    """Quarter-cell gts with one side exactly on an edge of an h x w grid."""
    side = hst.integers(1, 24).map(lambda v: v / 4.0)
    at = hst.integers(0, 4 * max(h, w)).map(lambda v: v / 4.0)
    return hst.builds(lambda bw, bh, edge, v: {"left": Box(bw / 2.0, v, bw, bh),
                                               "right": Box(w - bw / 2.0, v, bw, bh),
                                               "top": Box(v, bh / 2.0, bw, bh),
                                               "bottom": Box(v, h - bh / 2.0, bw, bh)}[edge],
                      side, side, hst.sampled_from(("left", "right", "top", "bottom")), at)


def assert_labels_are_per_scene(anchors, gts, chunk):
    with mock.patch.object(det_mod, "DETECT_CHUNK", chunk):
        got = anchor_targets(anchors, gts)
    assert len(got) == len(gts)
    for gt, targets in zip(gts, got):
        want = anchor_targets_per_scene(anchors, gt)
        assert targets.pos.tobytes() == want.pos.tobytes()
        assert targets.ignored.tobytes() == want.ignored.tobytes()
        assert (targets.w_pos, targets.w_neg) == (want.w_pos, want.w_neg)


@settings(max_examples=150, deadline=None)
@given(h=hst.integers(1, 9), w=hst.integers(1, 9), data=hst.data(),
       chunk=hst.sampled_from((1, 2, 3, det_mod.DETECT_CHUNK)))
@example(h=4, w=4, data=None, chunk=det_mod.DETECT_CHUNK)
def test_label_stack_is_the_per_scene_labels(h, w, data, chunk):
    # stacks of scenes with no gt, gts flush with a grid edge, smaller
    # than a cell, larger than any anchor, off the grid, a stack of one
    anchors = anchor_set(h, w)
    if data is None:
        scenes = [[]]
    else:
        box = hst.one_of(_gt_quarter, _gt_free, _gt_tiny, _gt_huge, _gt_flush(h, w))
        scenes = data.draw(hst.lists(hst.lists(box, max_size=5), min_size=1, max_size=7))
    gts = [gt_array((b, i % 3) for i, b in enumerate(boxes)) for boxes in scenes]
    assert_labels_are_per_scene(anchors, gts, chunk)


def test_label_stack_of_default_scenes_is_the_per_scene_labels():
    world = default_world()
    sample = scene_sampler(world)
    gts = [sample(17, i).gt for i in range(40)]
    assert_labels_are_per_scene(anchor_set(world.height, world.width), gts, det_mod.DETECT_CHUNK)
    assert_labels_are_per_scene(anchor_set(world.height, world.width), gts[:1], 1)


def test_labelling_temporaries_are_one_stack():
    # anchor_targets holds one stack's temporaries at a time: over 400
    # default scenes its allocations peak about 0.9 MB above what it
    # returns in stacks of 16, and 4.5 MB in stacks of 64
    world = default_world()
    sample = scene_sampler(world)
    gts = [sample(5, i).gt for i in range(400)]
    anchors = anchor_set(world.height, world.width)

    def temporaries(chunk):
        with mock.patch.object(det_mod, "DETECT_CHUNK", chunk):
            tracemalloc.start()
            try:
                out = anchor_targets(anchors, gts)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert len(out) == len(gts)
        return peak - kept

    assert temporaries(det_mod.DETECT_CHUNK) < 1_500_000 < temporaries(64)


@pytest.mark.parametrize("h,w", [(1, 1), (3, 7), (16, 16), (9, 4)])
def test_anchor_extents_and_areas_are_the_corners(h, w):
    anchors = anchor_set(h, w)
    grid = anchors.corners.reshape(h, w, -1, 4)
    assert np.array_equal(grid[..., 0::2], np.broadcast_to(anchors.x_extent, grid[..., 0::2].shape))
    assert np.array_equal(grid[..., 1::2],
                          np.broadcast_to(anchors.y_extent[:, None], grid[..., 1::2].shape))
    c = anchors.corners
    assert anchors.area.tolist() == ((c[:, 2] - c[:, 0]) * (c[:, 3] - c[:, 1])).tolist()


def test_anchor_cache_is_read_only():
    anchors = anchor_set(5, 6)
    assert {"row_cover", "col_cover", "count"} <= set(vars(anchors))
    for name, arr in vars(anchors).items():
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0
        assert not arr.flags.writeable, name


def test_objectness_loss_gradient_matches_finite_differences():
    # the loss a training step takes, on the targets its plan labelled
    rng = np.random.default_rng(51)
    store, params = make_params(channels=4, k=2, d=4)
    gt = [(Box(3.0, 3.0, 2.4, 2.4), 0), (Box(7.0, 6.0, 2.0, 2.8), 1)]
    sample = make_sample(rng, h=9, w=9, c=4, gt=gt)
    targets = label_one(anchor_set(9, 9), sample.gt)

    def loss():
        return objectness_loss(params, sample, score_one(params, sample), targets)

    store.zero_grads()
    base = loss()
    assert np.isfinite(base)
    grad = params.objectness.grad.copy()
    eps = 1e-6
    worst = 0.0
    for idx in np.ndindex(params.objectness.value.shape):
        orig = params.objectness.value[idx]
        params.objectness.value[idx] = orig + eps
        up = loss()
        params.objectness.value[idx] = orig - eps
        dn = loss()
        params.objectness.value[idx] = orig
        num = (up - dn) / (2 * eps)
        worst = max(worst, abs(num - grad[idx]) / max(1.0, abs(num)))
    assert worst < 1e-6


def test_objectness_loss_with_shared_scores_matches_own():
    rng = np.random.default_rng(52)
    store, params = make_params(channels=4, k=2, d=4)
    gt = [(Box(3.0, 3.0, 2.4, 2.4), 0), (Box(7.0, 6.0, 2.0, 2.8), 1)]
    sample = make_sample(rng, h=9, w=9, c=4, gt=gt)
    start = rng.normal(size=params.objectness.value.shape)
    targets = label_one(anchor_set(9, 9), sample.gt)

    # a training step scores the anchors once for its proposals and the
    # loss; the proposals must leave the shared result as the loss would
    # compute it
    params.objectness.grad[:] = start
    own = objectness_loss(params, sample, score_one(params, sample), targets)
    own_grad = params.objectness.grad.copy()
    scored = score_one(params, sample)
    _proposals(scored[0], scored[1][None], 16,
               _injected_boxes([sample], np.random.default_rng(0), 16))
    params.objectness.grad[:] = start
    shared = objectness_loss(params, sample, scored, targets)
    assert shared == own
    assert np.array_equal(params.objectness.grad, own_grad)

    # the scores are the mean of the cells each anchor covers through its
    # type's row, and the loss and gradient are the dense oracle's
    anchors, scores = scored
    num_types = len(params.objectness.value)
    for a, row in enumerate(anchors.centers.tolist()):
        rows, cols = covered_cells_oracle(Box(*row), 9, 9)
        want = sample.grid[np.ix_(rows, cols)].mean(axis=(0, 1)) @ params.objectness.value[
            a % num_types]
        assert scores[a] == pytest.approx(want, abs=1e-12)
    _, want_loss, want_grad = objectness_oracle(sample.grid, anchors, params.objectness.value,
                                                sample.gt)
    assert own == pytest.approx(want_loss, rel=0.0, abs=1e-12)
    assert np.allclose(own_grad - start, want_grad, rtol=0.0, atol=1e-12)
    # the gradient accumulates onto what was there
    store.zero_grads()
    objectness_loss(params, sample, scored, targets)
    assert np.allclose(own_grad, start + params.objectness.grad, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# configuration and arms

def test_arm_wiring_is_fixed_when_laid_out():
    # the model records its arm and config; its net runs the arm's message
    # mode, and the baseline's none
    for arm, mode in (("baseline", None), ("scene", "scene"), ("edge", "edge"),
                      ("sin", "both")):
        _, params = make_params(arm=arm, T=3)
        assert (params.arm, params.sin.mode, params.cfg.T) == (arm, mode, 3)
    with pytest.raises(ValueError, match="unknown arm 'fancy'"):
        make_params(arm="fancy")


@pytest.mark.parametrize("field,value", [
    ("lr", 0.0), ("lr", -1.0), ("momentum", 1.0), ("momentum", -0.1),
    ("weight_decay", -1e-4), ("iters", 0), ("rois_per_image", 0),
    ("T", -1), ("pooling", "median"), ("feat_dim", 0),
])
def test_validate_config_rejects(field, value):
    cfg = TrainConfig(**{field: value})
    with pytest.raises(ValueError):
        validate_config(cfg)


def test_active_param_names_per_arm():
    store, _ = make_params(pooling="concat")
    base, scene, edge, sin = (set(active_param_names(make_params(pooling="concat", arm=arm)[1]))
                              for arm in ARMS)

    assert base == {"det/feat_proj", "det/cls_head", "det/reg_head", "det/objectness"}
    assert base < scene and base < edge and base < sin
    assert any("scene_gru" in n for n in scene) and not any("edge_gru" in n for n in scene)
    assert "sin/w_v" in edge
    assert not any("scene_gru" in n for n in edge)
    # the sin arm with concat pooling touches every parameter in the store
    assert sin == set(store.names())
    assert scene | edge < sin  # w_a only trains under the full arm

    # mean pooling has no attention matrix anywhere
    store2, params2 = make_params(pooling="mean")
    assert "sin/w_a" not in set(active_param_names(params2))


# ---------------------------------------------------------------------------
# training and inference

def test_train_short_run_reduces_loss():
    world = default_world()
    cfg = TrainConfig(iters=120, rois_per_image=8, T=1, feat_dim=8, seed=3)
    result = train(world, cfg, arm="baseline", n_train=30)
    assert len(result.losses) == 120
    assert all(np.isfinite(l) for l in result.losses)
    head = float(np.mean(result.losses[:20]))
    tail = float(np.mean(result.losses[-20:]))
    assert tail < head, f"loss did not decrease: {head:.3f} -> {tail:.3f}"


def test_train_is_deterministic():
    world = default_world()
    cfg = TrainConfig(iters=12, rois_per_image=6, T=1, feat_dim=8, seed=7)
    a = train(world, cfg, arm="sin", n_train=6)
    b = train(world, cfg, arm="sin", n_train=6)
    assert a.losses == b.losses
    for (na, pa), (nb, pb) in zip(a.store.items(), b.store.items()):
        assert na == nb
        assert np.array_equal(pa.value, pb.value)


def test_stage_one_is_the_same_in_every_arm():
    # the objectness map learns only from its own loss, with the same decay,
    # rate and momentum in every arm, and the plan rests on the seeds alone,
    # so the four arms and the sweep's max-T2, mean-T3 and concat-T2 points
    # train bitwise the same stage one: the same map after every step and
    # the same proposals in every iteration. Sharing stage one across the
    # runs of an ablation relies on this.
    world = default_world()
    real = det_mod._proposals
    stage_one = set()
    for arm, pooling, t in [(arm, "mean", 2) for arm in ARMS] + [
            ("sin", "max", 2), ("sin", "mean", 3), ("sin", "concat", 2)]:
        props = []

        def spy(*args):
            props.append(real(*args))
            return props[-1]

        with mock.patch.object(det_mod, "_proposals", spy):
            result = train(world, TrainConfig(iters=60, seed=6, pooling=pooling, T=t), arm,
                           n_train=45)
        props = np.concatenate(props)       # one (B, n, 4) stack per chunk of iterations
        assert len(props) == 60
        stage_one.add((result.store["det/objectness"].value.tobytes(), props.tobytes()))
    assert len(stage_one) == 1


def test_single_roi_trains_and_detects_on_sin_arm():
    # n = 1: every message is the zero message and each GRU bank runs one row
    world = default_world()
    cfg = validate_config(TrainConfig(iters=5, rois_per_image=1, seed=2))
    result = train(world, cfg, arm="sin", n_train=5)
    assert len(result.losses) == 5
    assert all(np.isfinite(l) for l in result.losses)
    sample = sample_at(world, 11, 0)
    # the training path records a tape per step; detection keeps none
    props = propose(result.params, sample)
    trained = forward_one(result.params, sample, props, cfg.T)
    assert len(trained.tapes) == cfg.T
    assert trained.tapes[-1].gru.xh.shape == (2, 1, 1, 2 * cfg.feat_dim)   # both banks
    (dets,), state = detect(result.params, [sample], score_thresh=0.0)
    assert state.tapes == []
    assert state.graph_out.edges.shape == (1, 1, 1)
    assert len(dets) and (dets["roi"] == 0).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_is_reported():
    world = default_world()
    cfg = TrainConfig(lr=1e9, iters=50, rois_per_image=6, T=1, feat_dim=8)
    with pytest.raises(TrainingDiverged) as exc:
        train(world, cfg, arm="baseline", n_train=10)
    assert exc.value.iteration >= 0
    assert "non-finite" in str(exc.value)


@pytest.mark.parametrize("k", [0, 1, 17, 39])
def test_divergence_in_stage_one_is_raised_at_its_iteration(k):
    # an objectness loss of inf at iteration k stops stage one there; stage
    # two then runs iterations 0..k-1, calling back after each, and raises
    # at k, as the one loop that ran both stages did
    world = default_world()
    real = det_mod.objectness_loss
    calls, callbacks = [], []

    def obj_loss(*args):
        calls.append(real(*args))
        return math.inf if len(calls) == k + 1 else calls[-1]

    with mock.patch.object(det_mod, "objectness_loss", obj_loss):
        with pytest.raises(TrainingDiverged) as exc:
            train(world, TrainConfig(iters=40, seed=3), "sin", n_train=40,
                  callback=lambda it, loss: callbacks.append(it))
    assert exc.value.iteration == k
    assert callbacks == list(range(k))
    assert len(calls) == k + 1


def test_stack_size_does_not_change_a_training():
    # stage one builds stage two's inputs, and stage two the spatial gates,
    # in stacks of DETECT_CHUNK iterations; 37 iterations, 9 of them warm-up,
    # are no multiple of the stack
    world = default_world()
    cfg = TrainConfig(iters=37, seed=8)
    runs = []
    for chunk in (1, det_mod.DETECT_CHUNK):
        with mock.patch.object(det_mod, "DETECT_CHUNK", chunk):
            runs.append(train(world, cfg, "sin", n_train=20))
    (a, b) = runs
    assert a.losses == b.losses
    assert a.store.values.tobytes() == b.store.values.tobytes()


def test_stage_two_replays_stage_one_for_its_run_config_only():
    # a record replays for any arm, pooling, T or width of its run config,
    # and the replay is bitwise the training's; any other field is refused
    world = default_world()
    cfg = TrainConfig(iters=12, rois_per_image=6, feat_dim=8, seed=2)
    one = det_mod.stage_one(world, cfg, 6, 5)
    for arm, other in (("edge", replace(cfg, pooling="max", T=1)),
                       ("sin", replace(cfg, pooling="concat", feat_dim=4))):
        replayed = det_mod.learn(world, other, arm, one)
        trained = train(world, other, arm, n_train=6, data_seed=5)
        assert replayed.losses == trained.losses
        assert replayed.store.values.tobytes() == trained.store.values.tobytes()
    with pytest.raises(ValueError, match="stage one was learned under"):
        det_mod.learn(world, replace(cfg, lr=0.01), "sin", one)


def test_train_inactive_params_untouched():
    # an arm must leave every parameter it does not exercise (on the baseline
    # arm, every graph parameter) bitwise at its initial value
    world = default_world()
    cfg = TrainConfig(iters=10, rois_per_image=6, T=2, feat_dim=8, seed=5)
    fresh = ParamStore()
    create_detector_params(fresh, world.channels, world.num_categories, cfg, "sin",
                           det_mod.derive_seed(cfg.seed, "init"))
    for arm in ("baseline", "scene", "edge"):
        result = train(world, cfg, arm=arm, n_train=5)
        active = set(active_param_names(result.params))
        assert len(active) < len(fresh.names())
        for _, p in result.store.items():
            if p.name not in active:
                assert p.value.tobytes() == fresh[p.name].value.tobytes(), (arm, p.name)


def test_train_active_params_all_move():
    # every parameter an arm exercises is trained: after a short sin-arm run
    # past the graph warm-up none is left at its initial value
    world = default_world()
    cfg = TrainConfig(iters=12, rois_per_image=6, T=2, feat_dim=8, seed=5, pooling="concat")
    result = train(world, cfg, arm="sin", n_train=6)

    fresh = ParamStore()
    create_detector_params(fresh, world.channels, world.num_categories, cfg, "sin",
                           det_mod.derive_seed(cfg.seed, "init"))
    for name in active_param_names(result.params):
        assert not np.array_equal(result.store[name].value, fresh[name].value), name


def test_detect_output_contract():
    rng = np.random.default_rng(61)
    store, params = make_params(channels=5, k=3, d=6, rois_per_image=8, T=1)
    sample = make_sample(rng)
    (dets,), state = detect(params, [sample], score_thresh=0.05)
    assert state.probs.shape[:2] == (1, 8)
    assert dets.dtype == DETECTION_DTYPE
    keys = [(int(d["category"]), -float(d["score"]), *d["box"].tolist()) for d in dets]
    assert keys == sorted(keys)
    h, w = sample.grid.shape[:2]
    for d in dets:
        assert 0 <= d["category"] < 3
        assert d["score"] >= 0.05
        assert 0 <= d["roi"] < 8
        assert (d["box"][2:] > 0).all()
        x1, y1, x2, y2 = centers_to_corners(d["box"][None])[0]
        assert -1e-9 <= x1 and x2 <= w + 1e-9 and -1e-9 <= y1 and y2 <= h + 1e-9
    # per-class NMS: survivors of one class never overlap above the threshold,
    # which also dedupes the repeated padding proposals
    for cat in range(3):
        mine = [Box(*d["box"].tolist()) for d in dets if d["category"] == cat]
        for i in range(len(mine)):
            for j in range(i + 1, len(mine)):
                assert iou_oracle(mine[i], mine[j]) <= FINAL_NMS_THRESH


def test_detection_proposals_are_the_per_row_proposals():
    # one stack of grids of three shapes: _detect_stack takes each shape's
    # proposals in one call, and each scene's are byte for byte those of
    # ranking its own scores alone (the baseline arm: no graph step to
    # reject the NaN cell's features)
    rng = np.random.default_rng(66)
    _, params = make_params(arm="baseline", rois_per_image=12, T=0)
    params.objectness.value[:] = rng.normal(size=params.objectness.value.shape)
    samples = [make_sample(rng, h=h, w=w) for h, w in ((10, 10), (3, 2), (10, 10), (1, 1))]
    samples[2].grid[4, 4, 0] = math.nan      # a NaN cell: NaN scores rank last
    with np.errstate(invalid="ignore"):
        _, state = det_mod._detect_stack(params, samples, 0.05)
    for sample, boxes in zip(samples, state.graph_out.boxes):
        assert boxes.tobytes() == propose_per_row(params, sample).tobytes()


# ---------------------------------------------------------------------------
# stacked anchor scores and scene means

# cells that a scene may hold besides normal draws
_ODD_CELLS = (math.nan, math.inf, -math.inf, -0.0)
_odd_cells = hst.lists(hst.tuples(hst.integers(0, 1 << 20), hst.sampled_from(_ODD_CELLS)),
                       max_size=4)


def _set_cells(grids, odd):
    """Set the cells (flat index modulo the size, value) of `odd` in a grid
    stack."""
    for at, value in odd:
        grids.flat[at % grids.size] = value


@settings(max_examples=120, deadline=None)
@given(b=hst.integers(1, 6), h=hst.integers(1, 9), w=hst.integers(1, 9), c=hst.integers(1, 6),
       seed=hst.integers(0, 1 << 16), odd=_odd_cells)
@example(b=1, h=4, w=4, c=5, seed=0, odd=[])                       # a 4 x 4 grid, alone
@example(b=16, h=4, w=4, c=5, seed=1, odd=[(37, math.nan), (1500, math.inf)])
@example(b=3, h=2, w=7, c=2, seed=2, odd=[(5, -math.inf)])           # not square
@example(b=2, h=9, w=1, c=3, seed=3, odd=[(0, math.nan), (30, math.inf)])
def test_score_stack_is_the_per_scene_scores(b, h, w, c, seed, odd):
    # byte for byte, non-finite scores too: each scene's row is the one it
    # scores alone, whatever it is stacked with
    rng = np.random.default_rng(seed)
    _, params = make_params(channels=c)
    params.objectness.value[:] = rng.normal(size=params.objectness.value.shape)
    grids = rng.normal(size=(b, h, w, c))
    _set_cells(grids, odd)
    with np.errstate(invalid="ignore"):
        anchors, scores = score_anchors(params, grids)
        assert anchors is anchor_set(h, w) and scores.shape == (b, len(anchors.centers))
        for grid, row in zip(grids, scores):
            want = score_anchors_per_scene(params, SceneSample(grid, 0, gt_array([])))[1]
            assert row.tobytes() == want.tobytes()


@settings(max_examples=120, deadline=None)
@given(shapes=hst.lists(hst.sampled_from(((4, 4), (3, 5), (5, 3), (1, 1), (1, 7), (16, 16))),
                        min_size=1, max_size=8),
       c=hst.integers(1, 6), seed=hst.integers(0, 1 << 16), odd=_odd_cells)
@example(shapes=[(4, 4)], c=5, seed=0, odd=[])
@example(shapes=[(16, 16), (3, 5), (16, 16), (1, 1), (3, 5)], c=8, seed=1,
         odd=[(100, math.nan), (7, math.inf)])
def test_scene_means_are_the_per_scene_means(shapes, c, seed, odd):
    # one mean per grid shape of the stack, each row byte for byte the
    # scene's own mean
    rng = np.random.default_rng(seed)
    samples = [SceneSample(rng.normal(size=(h, w, c)), 0, gt_array([])) for h, w in shapes]
    for k, cell in enumerate(odd):
        _set_cells(samples[k % len(samples)].grid, [cell])
    with np.errstate(invalid="ignore"):
        assert _scene_means(samples).tobytes() == scene_means_per_scene(samples).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_detection_scores_each_grid_shape_once():
    # one detection stack of three grid shapes, with a NaN and an inf cell:
    # each shape's scenes are scored in one call, and each scene's scores
    # and mean are byte for byte its own; the stage-two inputs are built
    # without targets
    rng = np.random.default_rng(68)
    _, params = make_params(arm="baseline", rois_per_image=12, T=0)
    params.objectness.value[:] = rng.normal(size=params.objectness.value.shape)
    samples = [make_sample(rng, h=h, w=w) for h, w in ((10, 10), (3, 2), (10, 10), (1, 1), (3, 2))]
    samples[2].grid[4, 4, 0] = math.nan
    samples[4].grid[1, 0, 3] = math.inf
    calls, built = [], []

    def scored(p, grids):
        calls.append(score_anchors(p, grids))
        return calls[-1]

    def inputs(*args):
        built.append(roi_inputs(*args))
        return built[-1]

    with mock.patch.object(det_mod, "score_anchors", scored), \
            mock.patch.object(det_mod, "roi_inputs", inputs):
        det_mod._detect_stack(params, samples, 0.05)
    assert [(anchors.count.shape[1:], len(scores)) for anchors, scores in calls] == \
        [((10, 10), 2), ((3, 2), 2), ((1, 1), 1)]
    for (_, scores), same in zip(calls, ([0, 2], [1, 4], [3])):
        for i, row in zip(same, scores):
            assert row.tobytes() == score_anchors_per_scene(params, samples[i])[1].tobytes()
    (rois,) = built
    assert rois.labels is None and rois.target_deltas is None
    assert rois.scene_avg.tobytes() == scene_means_per_scene(samples).tobytes()


def test_detect_orders_score_ties_by_box():
    # zero heads: every class scores 1/(K+1) on every ROI and no box moves,
    # so within a class the order comes from the boxes alone
    rng = np.random.default_rng(61)
    store, params = make_params(channels=5, k=3, d=6, rois_per_image=8, T=1)
    params.cls_head.value[:] = 0.0
    params.reg_head.value[:] = 0.0
    (dets,), _ = detect(params, [make_sample(rng)], score_thresh=0.05)
    assert set(dets["score"].tolist()) == {0.25}
    for cat in range(3):
        boxes = [tuple(d["box"].tolist()) for d in dets if d["category"] == cat]
        assert len(boxes) >= 2 and boxes == sorted(boxes)


def test_detection_state_is_the_recording_path_without_tapes():
    # detection runs the steps forward only (no tapes, messages by a running
    # max, the spatial gate built ahead of them); its stack state is bitwise
    # that of the path training records
    rng = np.random.default_rng(72)
    store, params = make_params(rois_per_image=5, T=2)
    samples = [make_sample(rng) for _ in range(3)]
    boxes = np.array([propose(params, sample) for sample in samples])
    for arm in ARMS:
        model = with_arm(store, params, arm)
        taped = _forward(model, roi_inputs(samples, boxes), 2, True)
        _, state = det_mod._detect_stack(model, samples, 0.05)
        # the baseline's net runs no step, whatever the step count
        assert len(taped.tapes) == (0 if arm == "baseline" else 2) and state.tapes == []
        assert np.array_equal(state.probs, taped.probs)
        assert np.array_equal(state.deltas, taped.deltas)
        if arm in ("baseline", "scene"):
            assert state.graph_out.edges is None and taped.graph_out.edges is None
        else:
            assert np.array_equal(state.graph_out.edges, taped.graph_out.edges)


def test_detect_arms_share_proposals():
    # arms differ only in the graph wiring; the proposal stage is common, so
    # identical params must give identical ROI sets per arm
    rng = np.random.default_rng(67)
    store, params = make_params(rois_per_image=6, T=2)
    sample = make_sample(rng)
    states = {}
    for arm in ARMS:
        model = with_arm(store, params, arm)
        states[arm] = forward_one(model, sample, propose(model, sample), 2)
    ref = states["baseline"].graph_out.boxes
    assert ref.shape == (1, 6, 4)
    for arm in ARMS[1:]:
        assert np.array_equal(states[arm].graph_out.boxes, ref)


# Digests of what `sinet eval` scores: the detections of a 60-iteration model
# per arm on 40 held-out scenes, via harness.detect_dataset. Recorded before
# detection ran over stacks of scenes; any change to a detection's category,
# score or box bits moves them.
PINNED_DETECTIONS = {
    "baseline": "c4dac3a7cf9c4c99bd34d35743d57ee0eb10ff7d180de84ce5fdcf46ba4e02e1",
    "scene": "78582bca9de733a3bbc568963f0eef845841ea88158921cb4a8564e7ac5b59ea",
    "edge": "08daa946399b0fed99ab1b7657c43f3dcd86ecd4bbc12fb3c221a1bc492bb508",
    "sin": "eac5fc00878e08556d5c95263b4a5cecc320d631cec277c91842b1c337fbf5af",
}


def _detection_digest(arm):
    from sinet.harness import detect_dataset
    world = default_world()
    cfg = TrainConfig(iters=60, seed=1)
    result = train(world, cfg, arm=arm, n_train=60)
    samples = [sample_at(world, 21, i) for i in range(40)]
    digest = hashlib.sha256()
    for i, dets in enumerate(detect_dataset(result.params, samples, 0.05)):
        digest.update(f"scene {i}\n".encode())
        for d, corners in zip(dets, centers_to_corners(dets["box"])):
            key = (int(d["category"]), float(d["score"]).hex(),
                   tuple(float(v).hex() for v in corners))
            digest.update(repr(key).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("arm", ARMS)
def test_detections_are_pinned(arm):
    assert _detection_digest(arm) == PINNED_DETECTIONS[arm]


# Digests of a 60-iteration training per (arm, pooling): every loss's hex
# value, then every parameter's name and bytes; any change to a loss or
# parameter bit moves them. Re-recorded when the spatial gate weights left
# the parameter store for the constant W_P (the sin losses lost its
# weight-decay term, 1.425e-4), and again when anchor scores became a
# separable box filter of the projected grid: the scores moved by at most
# 1.1e-14 and the losses by 8.9e-16, the objectness map's low bits changed,
# and every other parameter kept its bits (no proposal changed). The sin-max,
# scene and edge entries cover the other fusion and the one-bank arms; they
# were recorded before the two GRU banks ran as one stacked call.
PINNED_TRAINING = {
    "baseline": ("baseline", "mean",
                 "579ad598b1a9a9e629fcabb818c1f8bc824dee8adcad9dccbe0b3ea9be74d966"),
    "sin-mean": ("sin", "mean",
                 "61d7be6673a13fa028d3129c875ef45f8f4525399f86a57e03518ca0bed2500e"),
    "sin-concat": ("sin", "concat",
                   "d64db6a73a7c7dbfbf5f074b0e9e8dfabfad689c7325aba3cd2ac85fa7be4c21"),
    "sin-max": ("sin", "max",
                "3c76d1fe95140588899a58012db984bf4338af8218444866df90b97192940872"),
    "scene": ("scene", "mean",
              "fedf5c8d7d78959142ed3810121d6fea4cfd29290356aa36e9e0a824f11ad73b"),
    "edge": ("edge", "mean",
             "41dae8490e174b5e7f14892a950f4a681be2da617a866e25bc298617eebb1c20"),
}


@pytest.mark.parametrize("arm", PINNED_TRAINING)
def test_training_is_pinned(arm):
    model_arm, pooling, want = PINNED_TRAINING[arm]
    cfg = TrainConfig(iters=60, seed=4, pooling=pooling)
    result = train(default_world(), cfg, arm=model_arm, n_train=60)
    digest = hashlib.sha256()
    for loss in result.losses:
        digest.update(float(loss).hex().encode())
    for name, p in result.store.items():
        digest.update(name.encode())
        digest.update(p.value.tobytes())
    assert digest.hexdigest() == want


# (pooling, rois_per_image) of the models the stack-composition test detects
# with; one ROI per scene gives single-node graphs, whose messages are zero
COMPOSITION_MODELS = (("mean", 16), ("max", 16), ("concat", 16), ("mean", 1))


@functools.lru_cache(maxsize=None)
def _composition_training(pooling, rois):
    cfg = TrainConfig(iters=100, seed=2, pooling=pooling, rois_per_image=rois)
    return train(default_world(), cfg, arm="sin", n_train=100)


def _composition_model(pooling, rois, arm):
    """The sin training's weights, wired for `arm`."""
    result = _composition_training(pooling, rois)
    return with_arm(result.store, result.params, arm)


@functools.lru_cache(maxsize=None)
def _composition_scene(i):
    return sample_at(default_world(), 5, i)


def _exact(dets):
    return [(int(d["category"]), float(d["score"]).hex(),
             tuple(float(v).hex() for v in d["box"]), int(d["roi"])) for d in dets]


@settings(max_examples=30, deadline=None)
@given(model=hst.sampled_from(COMPOSITION_MODELS), arm=hst.sampled_from(ARMS),
       first=hst.integers(0, 40), count=hst.integers(1, 40),
       chunk=hst.sampled_from((1, 2, 3, 7, det_mod.DETECT_STACK)),
       thresh=hst.sampled_from((0.05, 0.3, 0.4, 1.0)))
@example(model=("mean", 1), arm="sin", first=0, count=40, chunk=7, thresh=0.3)
@example(model=("concat", 16), arm="sin", first=3, count=37, chunk=32, thresh=0.4)
@example(model=("max", 16), arm="edge", first=0, count=40, chunk=32, thresh=0.4)
def test_detections_independent_of_stack_composition(model, arm, first, count, chunk,
                                                     thresh):
    # a scene's detections are bitwise the same alone, anywhere inside a
    # stack, and on either side of a stack boundary; thresholds leave some
    # scenes (or all, at 1.0) with no detection
    params = _composition_model(*model, arm)
    samples = [_composition_scene(i) for i in range(first, first + count)]
    with mock.patch.object(det_mod, "DETECT_STACK", chunk):
        stacked = detect_scenes(params, samples, thresh)
    assert len(stacked) == count
    for sample, dets in zip(samples, stacked):
        assert _exact(dets) == _exact(detect(params, [sample], thresh)[0][0])


def test_detection_temporaries_are_one_stack():
    # detect_scenes holds one stack's temporaries at a time: its allocations
    # peak about 3.3 MB above the detections it returns in stacks of 32,
    # for 512 scenes as for 2048, and about 6 MB in stacks of 64
    params = _composition_model("mean", 16, "sin")
    sample = scene_sampler(default_world())
    samples = [sample(6, i) for i in range(2048)]

    def temporaries(n, stack):
        with mock.patch.object(det_mod, "DETECT_STACK", stack):
            tracemalloc.start()
            try:
                out = detect_scenes(params, samples[:n], 0.05)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert len(out) == n
        return peak - kept

    stack = det_mod.DETECT_STACK
    few, many = temporaries(512, stack), temporaries(2048, stack)
    assert abs(many - few) < 500_000
    assert max(few, many) < 4_500_000 < temporaries(512, 2 * stack)


def test_detect_scenes_clips_each_scene_to_its_own_grid():
    # one stack mixing grid shapes (tall, wide, the world's own): each scene's
    # boxes are clipped to its own width and height, as when detected alone
    params = _composition_model("mean", 16, "sin")
    samples = []
    for i, (h, w) in enumerate(((16, 16), (9, 14), (13, 6), (16, 16), (7, 7))):
        s = _composition_scene(i)
        samples.append(SceneSample(grid=s.grid[:h, :w], scene_type=s.scene_type, gt=s.gt))
    for thresh in (0.0, 0.05):
        stacked = detect_scenes(params, samples, thresh)
        for sample, dets in zip(samples, stacked):
            assert _exact(dets) == _exact(detect(params, [sample], thresh)[0][0])
            h, w = sample.grid.shape[:2]
            assert (dets["box"][:, 2:] > 0).all()
            for x1, y1, x2, y2 in centers_to_corners(dets["box"]):
                assert -1e-9 <= x1 and x2 <= w + 1e-9 and -1e-9 <= y1 and y2 <= h + 1e-9
        assert sum(map(len, stacked)) > 0
