import functools
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from sinet import detector as det_mod
from sinet.detector import (ANCHOR_RATIOS, ANCHOR_SCALES, ARMS, FINAL_NMS_THRESH,
                            GT_JITTER, IGNORE, IOU_NEG, IOU_POS,
                            PROPOSAL_NMS_THRESH, DetectorParams, RoiTarget,
                            TrainConfig, TrainingDiverged, _anchor_features,
                            _anchor_targets, active_param_names, anchor_set,
                            arm_plan, assign_targets, create_detector_params,
                            detect, detect_scenes, forward, multi_task_loss, objectness_loss,
                            propose, score_anchors, smooth_l1, smooth_l1_grad,
                            train, validate_config)
from sinet.geometry import Box, encode_deltas, iou
from sinet.numerics import ParamStore
from sinet.structure_inference import compute_edges
from sinet.synth_data import GtObject, SceneSample, default_world

from oracles import (apply_deltas_oracle, clip_box_oracle, covered_cells_oracle,
                     iou_oracle, nms_oracle)


def make_params(channels=5, k=3, d=6, pooling="mean", seed=0):
    store = ParamStore()
    params = create_detector_params(store, channels, k, d, seed, pooling)
    return store, params


def make_sample(rng, h=10, w=10, c=5, gt=()):
    return SceneSample(grid=rng.normal(0.0, 1.0, size=(h, w, c)),
                       scene_type=0, gt=list(gt))


# ---------------------------------------------------------------------------
# anchors

def test_anchor_set_enumeration():
    a = anchor_set(16, 16)
    assert len(a.boxes) == 16 * 16 * len(ANCHOR_SCALES) * len(ANCHOR_RATIOS)
    assert len(a.boxes) == 1536
    assert a.corners.shape == (1536, 4)
    # row-major by cell, types cycling fastest
    num_types = len(ANCHOR_SCALES) * len(ANCHOR_RATIOS)
    assert a.type_index[:num_types].tolist() == list(range(num_types))
    assert a.cell_index[0] == 0 and a.cell_index[num_types] == 1
    b0 = a.boxes[0]
    assert (b0.cx, b0.cy) == (0.5, 0.5)
    # cached: same object back for the same grid
    assert anchor_set(16, 16) is a


def test_anchor_features_match_covered_cell_pooling():
    rng = np.random.default_rng(3)
    h, w, c = 9, 7, 4
    grid = rng.normal(size=(h, w, c))
    sample = SceneSample(grid=grid, scene_type=0, gt=[])
    anchors = anchor_set(h, w)
    feats = _anchor_features(sample, anchors)
    assert feats.shape == (len(anchors.boxes), c)
    for i, box in enumerate(anchors.boxes):
        rows, cols = covered_cells_oracle(box, h, w)
        want = grid[np.ix_(rows, cols)].mean(axis=(0, 1))
        assert np.allclose(feats[i], want, atol=1e-12), f"anchor {i}"


# ---------------------------------------------------------------------------
# proposals

def test_propose_exact_count():
    rng = np.random.default_rng(5)
    store, params = make_params()
    sample = make_sample(rng)
    for k in (4, 16, 200):
        cfg = validate_config(TrainConfig(rois_per_image=k, feat_dim=6))
        props = propose(params, sample, cfg, train=False)
        assert len(props) == k
        assert all(isinstance(b, Box) for b in props)


def test_propose_injects_ground_truth():
    # with no jitter rng the exact gt boxes are injected with top scores, so
    # every object ends up with a high-IoU proposal
    rng = np.random.default_rng(9)
    store, params = make_params()
    gt = [GtObject(Box(2.5, 2.5, 3.0, 2.0), 0), GtObject(Box(7.0, 7.0, 2.0, 2.8), 1)]
    sample = make_sample(rng, gt=gt)
    cfg = validate_config(TrainConfig(rois_per_image=16, feat_dim=6))
    props = propose(params, sample, cfg, train=True, rng=None)
    assert len(props) == 16
    for obj in gt:
        best = max(iou(p, obj.box) for p in props)
        assert best >= 0.7

    # eval mode must not peek at the labels
    props_eval = propose(params, sample, cfg, train=False)
    g = (gt[0].box.cx, gt[0].box.cy, gt[0].box.w, gt[0].box.h)
    assert all((p.cx, p.cy, p.w, p.h) != g for p in props_eval)


def test_propose_matches_oracle_over_injected_and_anchors():
    # propose runs NMS on corner arrays; the oracle scans Box objects, with
    # the (jittered) gt boxes injected ahead of anchors.boxes in train mode
    rng = np.random.default_rng(21)
    store, params = make_params()
    params.objectness.value[:] = rng.normal(0.0, 1.0, size=params.objectness.value.shape)
    gt = [GtObject(Box(2.5, 2.5, 3.0, 2.0), 0), GtObject(Box(7.0, 7.0, 2.0, 2.8), 1)]
    sample = make_sample(rng, gt=gt)
    anchors, _feats, scores = score_anchors(params, sample)
    for k in (16, 40):
        cfg = validate_config(TrainConfig(rois_per_image=k, feat_dim=6))
        for train_mode in (False, True):
            props = propose(params, sample, cfg, train=train_mode,
                            rng=np.random.default_rng(4))
            injected = []
            if train_mode:
                replay = np.random.default_rng(4)
                injected = [clip_box_oracle(apply_deltas_oracle(
                    o.box, replay.normal(0.0, GT_JITTER, size=4)), 10, 10) for o in gt]
            boxes = injected + anchors.boxes
            keep = nms_oracle(boxes, [1e9] * len(injected) + list(scores),
                              PROPOSAL_NMS_THRESH, k)
            assert len(keep) == k
            assert props == [boxes[i] for i in keep]


# ---------------------------------------------------------------------------
# target assignment

def test_assign_targets_no_gt_is_all_background():
    props = [Box(2, 2, 2, 2), Box(5, 5, 1, 1)]
    out = assign_targets(props, [], num_categories=3)
    assert [t.label for t in out] == [3, 3]


def test_assign_targets_trivial_cases():
    g = GtObject(Box(3.0, 3.0, 2.0, 2.0), 1)
    props = [
        Box(3.0, 3.0, 2.0, 2.0),    # exact hit
        Box(9.0, 9.0, 2.0, 2.0),    # disjoint
        Box(3.7, 3.0, 2.0, 2.0),    # IoU ~0.418: in the ignore band
    ]
    out = assign_targets(props, [g], num_categories=4)
    assert out[0].label == 1
    assert np.allclose(out[0].deltas, encode_deltas(props[0], g.box))
    assert np.allclose(out[0].deltas, 0.0)
    assert out[1].label == 4
    assert out[1].deltas is None
    assert out[2].label == IGNORE


def test_assign_targets_forces_best_proposal():
    # sole gt overlaps nothing above iou_pos; its best proposal is still positive
    g = GtObject(Box(3.0, 3.0, 2.0, 2.0), 2)
    props = [Box(4.4, 3.0, 2.0, 2.0), Box(8.0, 8.0, 2.0, 2.0)]
    assert iou(props[0], g.box) < IOU_POS
    out = assign_targets(props, [g], num_categories=3)
    assert out[0].label == 2
    assert out[1].label == 3


def test_assign_targets_matches_brute_force():
    rng = np.random.default_rng(21)
    for trial in range(40):
        props = [Box(rng.uniform(1, 9), rng.uniform(1, 9),
                     rng.uniform(0.8, 3.0), rng.uniform(0.8, 3.0))
                 for _ in range(8)]
        gt = [GtObject(Box(rng.uniform(1, 9), rng.uniform(1, 9),
                           rng.uniform(0.8, 3.0), rng.uniform(0.8, 3.0)),
                       int(rng.integers(0, 3)))
              for _ in range(int(rng.integers(1, 4)))]
        out = assign_targets(props, gt, num_categories=3)

        ious = [[iou_oracle(p, o.box) for o in gt] for p in props]
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
                assert out[i].label == gt[assigned[i]].category, (trial, i)
                want = encode_deltas(props[i], gt[assigned[i]].box)
                assert np.allclose(out[i].deltas, want, atol=1e-12)
            elif neg[i]:
                assert out[i].label == 3
            else:
                assert out[i].label == IGNORE


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
    targets = [RoiTarget(0, deltas=np.array([0.1, -0.2, 0.0, 0.3])),
               RoiTarget(2),            # background (K = 2)
               RoiTarget(IGNORE)]
    return logits, probs, deltas, targets


def test_multi_task_loss_hand_value():
    logits, probs, deltas, targets = _loss_inputs()

    loss, grads = multi_task_loss(probs, deltas, targets, lam=2.0)

    cls = -(np.log(probs[0, 0]) + np.log(probs[1, 2])) / 2.0
    u = deltas[0, 0] - targets[0].deltas
    reg = 2.0 * float(smooth_l1(u).sum()) / 4.0
    assert loss == pytest.approx(cls + reg, abs=1e-12)
    assert grads.parts["cls"] == pytest.approx(cls)
    assert grads.parts["reg"] == pytest.approx(reg)
    # ignored ROI contributes nothing
    assert np.all(grads.dlogits[2] == 0.0)
    assert np.all(grads.ddeltas[2] == 0.0)
    # background ROI has no regression gradient
    assert np.all(grads.ddeltas[1] == 0.0)

    with pytest.raises(ValueError):
        multi_task_loss(probs, deltas, targets[:2])


def test_multi_task_loss_gradients_match_finite_differences():
    logits, probs, deltas, targets = _loss_inputs()

    def loss_at(lg, dl):
        return multi_task_loss(det_mod._softmax_rows(lg), dl, targets, lam=2.0)[0]

    _, grads = multi_task_loss(probs, deltas, targets, lam=2.0)

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
    store, params = make_params()
    sample = make_sample(rng)
    cfg = validate_config(TrainConfig(rois_per_image=6, T=2, feat_dim=6))
    state = forward(params, sample, cfg)
    assert state.probs.shape == (1, 6, 4)
    probs, logits = state.probs[0], state.logits[0]
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
    cfg = validate_config(TrainConfig(feat_dim=6))
    state = forward(params, sample, cfg, boxes=boxes, steps=0)
    for i, b in enumerate(boxes):
        rows, cols = covered_cells_oracle(b, h, w)
        if rows.size == 0 or cols.size == 0:
            rows = [int(np.argmin(np.abs(np.arange(h) + 0.5 - b.cy)))]
            cols = [int(np.argmin(np.abs(np.arange(w) + 0.5 - b.cx)))]
        else:
            assert b not in covers_none
        want = sample.grid[np.ix_(rows, cols)].mean(axis=(0, 1))
        assert np.array_equal(state.node_avg[0, i], want), f"box {i}: {b}"


def test_forward_zero_steps_reads_heads_off_raw_features():
    rng = np.random.default_rng(43)
    store, params = make_params()
    sample = make_sample(rng)
    boxes = [Box(3, 3, 2, 2), Box(6, 6, 2, 3), Box(8, 2, 1.5, 1.5)]
    cfg = validate_config(TrainConfig(rois_per_image=3, T=3, feat_dim=6))
    state = forward(params, sample, cfg, boxes=boxes, steps=0)
    assert np.array_equal(state.graph_out.node_features, state.features0)
    assert np.allclose(state.logits, state.features0 @ params.cls_head.value.T,
                       atol=1e-12)
    # with steps > 0 the graph must actually move the features
    moved = forward(params, sample, cfg, boxes=boxes, steps=2)
    assert not np.allclose(moved.graph_out.node_features, state.features0)


def test_forward_edges_square_and_zero_diagonal():
    rng = np.random.default_rng(44)
    store, params = make_params()
    sample = make_sample(rng)
    cfg = validate_config(TrainConfig(rois_per_image=5, T=1, feat_dim=6))
    state = forward(params, sample, cfg)
    assert state.edges.shape == (1, 5, 5)
    assert np.all(np.diag(state.edges[0]) == 0.0)
    # without a step that computes edges, forward leaves them to detect
    assert forward(params, sample, cfg, steps=0).edges is None
    assert forward(params, sample, cfg, mode="scene").edges is None
    for arm in ("baseline", "scene"):
        _, state = detect(params, sample, cfg, arm=arm, return_state=True)
        assert np.array_equal(state.edges,
                              compute_edges(params.sin, state.graph_out))


# ---------------------------------------------------------------------------
# objectness supervision

def test_anchor_targets_band_and_forced_positive():
    h = w = 8
    anchors = anchor_set(h, w)
    gt = [GtObject(Box(4.0, 4.0, 2.6, 2.6), 0)]
    y, mask = _anchor_targets(anchors, gt)
    corners = anchors.corners
    from sinet.geometry import Box as B
    for i, box in enumerate(anchors.boxes):
        v = iou(box, gt[0].box)
        forced = i == int(np.argmax([iou(b, gt[0].box) for b in anchors.boxes]))
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
    y, mask = _anchor_targets(anchors, [])
    assert not y.any()
    assert mask.all()


def test_objectness_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(51)
    store, params = make_params(channels=4, k=2, d=4)
    gt = [GtObject(Box(3.0, 3.0, 2.4, 2.4), 0), GtObject(Box(7.0, 6.0, 2.0, 2.8), 1)]
    sample = make_sample(rng, h=9, w=9, c=4, gt=gt)

    store.zero_grads()
    base = objectness_loss(params, sample, accumulate=True)
    assert np.isfinite(base)
    grad = params.objectness.grad.copy()
    eps = 1e-6
    worst = 0.0
    for idx in np.ndindex(params.objectness.value.shape):
        orig = params.objectness.value[idx]
        params.objectness.value[idx] = orig + eps
        up = objectness_loss(params, sample, accumulate=False)
        params.objectness.value[idx] = orig - eps
        dn = objectness_loss(params, sample, accumulate=False)
        params.objectness.value[idx] = orig
        num = (up - dn) / (2 * eps)
        worst = max(worst, abs(num - grad[idx]) / max(1.0, abs(num)))
    assert worst < 1e-6


def test_objectness_loss_with_shared_scores_matches_own():
    rng = np.random.default_rng(52)
    store, params = make_params(channels=4, k=2, d=4)
    gt = [GtObject(Box(3.0, 3.0, 2.4, 2.4), 0), GtObject(Box(7.0, 6.0, 2.0, 2.8), 1)]
    sample = make_sample(rng, h=9, w=9, c=4, gt=gt)
    start = rng.normal(size=params.objectness.value.shape)

    params.objectness.grad[:] = start
    own = objectness_loss(params, sample)
    own_grad = params.objectness.grad.copy()
    scored = score_anchors(params, sample)
    params.objectness.grad[:] = start
    shared = objectness_loss(params, sample, scored=scored)
    assert shared == own
    assert np.array_equal(params.objectness.grad, own_grad)

    # the scores are each anchor's pooled features through its type's row
    anchors, feats, scores = scored
    for a in range(len(anchors.boxes)):
        want = feats[a] @ params.objectness.value[anchors.type_index[a]]
        assert scores[a] == pytest.approx(want, abs=1e-12)
    # the gradient accumulates onto what was there
    store.zero_grads()
    objectness_loss(params, sample, scored=scored)
    assert np.allclose(own_grad, start + params.objectness.grad, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# configuration and arms

def test_arm_plan():
    cfg = TrainConfig(T=3)
    assert arm_plan("baseline", cfg) == ("both", 0)
    assert arm_plan("scene", cfg) == ("scene", 3)
    assert arm_plan("edge", cfg) == ("edge", 3)
    assert arm_plan("sin", cfg) == ("both", 3)
    with pytest.raises(ValueError):
        arm_plan("fancy", cfg)


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
    store, params = make_params(pooling="concat")
    base = set(active_param_names(params, "baseline"))
    scene = set(active_param_names(params, "scene"))
    edge = set(active_param_names(params, "edge"))
    sin = set(active_param_names(params, "sin"))

    assert base == {"det/feat_proj", "det/cls_head", "det/reg_head", "det/objectness"}
    assert base < scene and base < edge and base < sin
    assert any("scene_gru" in n for n in scene) and not any("edge_gru" in n for n in scene)
    assert "sin/w_p" in edge and "sin/w_v" in edge
    assert not any("scene_gru" in n for n in edge)
    # the sin arm with concat pooling touches every parameter in the store
    assert sin == {p.name for p in store.params()}
    assert scene | edge < sin  # w_a only trains under the full arm

    # mean pooling has no attention matrix anywhere
    store2, params2 = make_params(pooling="mean")
    assert "sin/w_a" not in set(active_param_names(params2, "sin"))


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
    for pa, pb in zip(a.store.params(), b.store.params()):
        assert pa.name == pb.name
        assert np.array_equal(pa.value, pb.value)


def test_single_roi_trains_and_detects_on_sin_arm():
    # n = 1: every message is the zero message and each GRU bank runs one row
    world = default_world()
    cfg = validate_config(TrainConfig(iters=5, rois_per_image=1, seed=2))
    result = train(world, cfg, arm="sin", n_train=5)
    assert len(result.losses) == 5
    assert all(np.isfinite(l) for l in result.losses)
    sample = det_mod.sample_at(world, 11, 0)
    dets, state = detect(result.params, sample, cfg, score_thresh=0.0, arm="sin",
                         return_state=True)
    assert len(state.tapes) == cfg.T
    assert state.tapes[-1].edge_tape.xh.shape == (1, 1, 2 * cfg.feat_dim)
    assert state.edges.shape == (1, 1, 1)
    assert dets and all(d.roi_index == 0 for d in dets)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_is_reported():
    world = default_world()
    cfg = TrainConfig(lr=1e9, iters=50, rois_per_image=6, T=1, feat_dim=8)
    with pytest.raises(TrainingDiverged) as exc:
        train(world, cfg, arm="baseline", n_train=10)
    assert exc.value.iteration >= 0
    assert "non-finite" in str(exc.value)


def test_train_inactive_params_untouched():
    # the baseline arm must leave every graph parameter at its initial value
    world = default_world()
    cfg = TrainConfig(iters=10, rois_per_image=6, T=2, feat_dim=8, seed=5)
    result = train(world, cfg, arm="baseline", n_train=5)

    fresh = ParamStore()
    create_detector_params(fresh, world.channels, world.num_categories,
                           cfg.feat_dim, det_mod.derive_seed(cfg.seed, "init"),
                           cfg.pooling)
    active = set(active_param_names(result.params, "baseline"))
    for p in result.store.params():
        if p.name in active:
            continue
        assert np.array_equal(p.value, fresh[p.name].value), p.name


def test_detect_output_contract():
    rng = np.random.default_rng(61)
    store, params = make_params(channels=5, k=3, d=6)
    sample = make_sample(rng)
    cfg = validate_config(TrainConfig(rois_per_image=8, T=1, feat_dim=6))
    dets, state = detect(params, sample, cfg, score_thresh=0.05, arm="sin",
                         return_state=True)
    assert state.probs.shape[:2] == (1, 8)
    keys = [(d.category, -d.score, d.box.cx, d.box.cy, d.box.w, d.box.h) for d in dets]
    assert keys == sorted(keys)
    h, w = sample.grid.shape[:2]
    for d in dets:
        assert 0 <= d.category < 3
        assert d.score >= 0.05
        assert 0 <= d.roi_index < 8
        x1, y1, x2, y2 = d.box.corners()
        assert -1e-9 <= x1 and x2 <= w + 1e-9 and -1e-9 <= y1 and y2 <= h + 1e-9
    # per-class NMS: survivors of one class never overlap above the threshold,
    # which also dedupes the repeated padding proposals
    for cat in range(3):
        mine = [d.box for d in dets if d.category == cat]
        for i in range(len(mine)):
            for j in range(i + 1, len(mine)):
                assert iou(mine[i], mine[j]) <= FINAL_NMS_THRESH


def test_detect_arms_share_proposals():
    # arms differ only in the graph wiring; the proposal stage is common, so
    # identical params must give identical ROI sets per arm
    rng = np.random.default_rng(67)
    store, params = make_params()
    sample = make_sample(rng)
    cfg = validate_config(TrainConfig(rois_per_image=6, T=2, feat_dim=6))
    states = {}
    for arm in ARMS:
        mode, steps = arm_plan(arm, cfg)
        states[arm] = forward(params, sample, cfg, mode=mode, steps=steps)
    ref = [(b.cx, b.cy, b.w, b.h) for b in states["baseline"].boxes[0]]
    for arm in ARMS[1:]:
        got = [(b.cx, b.cy, b.w, b.h) for b in states[arm].boxes[0]]
        assert got == ref


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
    samples = [det_mod.sample_at(world, 21, i) for i in range(40)]
    digest = hashlib.sha256()
    for i, dets in enumerate(detect_dataset(result.store, cfg, arm, samples, 0.05)):
        digest.update(f"scene {i}\n".encode())
        for d in dets:
            key = (d.category, d.score.hex(), tuple(float(v).hex() for v in d.box.corners()))
            digest.update(repr(key).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("arm", ARMS)
def test_detections_are_pinned(arm):
    assert _detection_digest(arm) == PINNED_DETECTIONS[arm]


# (pooling, rois_per_image) of the models the stack-composition test detects
# with; one ROI per scene gives single-node graphs, whose messages are zero
COMPOSITION_MODELS = (("mean", 16), ("max", 16), ("concat", 16), ("mean", 1))


@functools.lru_cache(maxsize=None)
def _composition_model(pooling, rois):
    cfg = TrainConfig(iters=100, seed=2, pooling=pooling, rois_per_image=rois)
    return train(default_world(), cfg, arm="sin", n_train=100).params, cfg


@functools.lru_cache(maxsize=None)
def _composition_scene(i):
    return det_mod.sample_at(default_world(), 5, i)


def _exact(dets):
    return [(d.category, d.score.hex(), tuple(float(v).hex() for v in d.box.corners()),
             d.roi_index) for d in dets]


@settings(max_examples=30, deadline=None)
@given(model=hst.sampled_from(COMPOSITION_MODELS), arm=hst.sampled_from(ARMS),
       first=hst.integers(0, 40), count=hst.integers(1, 40),
       chunk=hst.sampled_from((1, 2, 3, 7, det_mod.DETECT_CHUNK)),
       thresh=hst.sampled_from((0.05, 0.3, 0.4, 1.0)))
@example(model=("mean", 1), arm="sin", first=0, count=40, chunk=7, thresh=0.3)
@example(model=("concat", 16), arm="sin", first=3, count=37, chunk=32, thresh=0.4)
@example(model=("max", 16), arm="edge", first=0, count=40, chunk=32, thresh=0.4)
def test_detections_independent_of_stack_composition(model, arm, first, count, chunk,
                                                     thresh):
    # a scene's detections are bitwise the same alone, anywhere inside a
    # stack, and on either side of a stack boundary; thresholds leave some
    # scenes (or all, at 1.0) with no detection
    params, cfg = _composition_model(*model)
    samples = [_composition_scene(i) for i in range(first, first + count)]
    with mock.patch.object(det_mod, "DETECT_CHUNK", chunk):
        stacked = detect_scenes(params, samples, cfg, thresh, arm)
    assert len(stacked) == count
    for sample, dets in zip(samples, stacked):
        assert _exact(dets) == _exact(detect(params, sample, cfg, thresh, arm))
