"""Shipping gate: the seven guarantees the package makes.

1. Gradients of the full detector loss match finite differences.
2. Every numeric kernel matches an independent scalar-loop oracle.
3. Context arms beat the baseline on the default world by the stated margins.
4. Two inference steps do not lose ground against one.
5. All three fusion modes train and land close together; mean is the default.
6. The full model reaches at least baseline precision without giving up recall.
7. Structural invariants hold and runs are bitwise reproducible.

Each test prints one verdict line and registers it with the terminal summary,
so a red run still shows the per-criterion outcome at the bottom.
"""

import os
import time

import numpy as np
import pytest

import conftest
from sinet.detector import (TrainConfig, anchor_set, anchor_targets, create_detector_params,
                            objectness_loss, score_anchors)
from sinet.evaluation import evaluate_detections, run_ablation
from sinet.geometry import nms_by_group
from sinet.harness import EvalConfig, main, run_gradcheck
from sinet.memory_cell import gru_forward
from sinet.numerics import ParamStore, load_checkpoint, save_checkpoint
from sinet.structure_inference import (SceneGraph, _compute_edges,
                                       _integrate_all, _max_messages, _relation_tensor,
                                       sin_step_tape)
from sinet.synth_data import default_world, generate, load_dataset, save_dataset, world_hash

from oracles import (Box, average_precision_oracle, bank_maps, center_rows, corner_rows,
                     create_gru_params, create_sin_params,
                     detection_array, edge_weight_oracle, gru_forward_oracle, gt_array,
                     integrate_messages_oracle, iou_oracle, nms_oracle, objectness_oracle,
                     per_image_lists, random_box, sin_step_oracle)


def record(num, label, ok, detail):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return line


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness

def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    err = run_gradcheck(d=3, n=3, steps=2, eps=1e-5)
    wall = time.perf_counter() - t0
    ok = err < 1e-4 and wall < 60.0
    line = record(1, "gradient correctness", ok,
                  f"max relative error {err:.3e} (tolerance 1e-4) in {wall:.1f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence

def _check_gru(rng, trials):
    for _ in range(trials):
        d = int(rng.integers(1, 7))
        st = ParamStore()
        p = create_gru_params(st, "cell", d, int(rng.integers(1 << 30)))
        n = int(rng.integers(1, 17))
        x, h = rng.normal(0, 2, size=(n, d)), rng.normal(0, 2, size=(n, d))
        got = gru_forward(p, x[None, None], h[None])[0][0, 0]
        for i in range(n):
            want, _, _, _ = gru_forward_oracle(*bank_maps(p, 0), x[i], h[i])
            assert np.allclose(got[i], np.array(want), atol=1e-12)


def _gate_of(boxes, w_p):
    """The spatial gate of (..., n, 4) center rows under random (1, 12) gate
    weights w_p in place of the shipped W_P."""
    return np.maximum(_relation_tensor(boxes) @ w_p[0], 0.0)


def _check_edge_weight(rng, trials):
    for _ in range(trials):
        d = int(rng.integers(1, 6))
        st = ParamStore()
        p = create_sin_params(st, d, int(rng.integers(1 << 30)))
        w_p = rng.normal(0, 0.5, size=(1, 12))
        bi, bj = random_box(rng), random_box(rng)
        fi, fj = rng.normal(size=d), rng.normal(size=d)
        e = _compute_edges(p, np.array([fi, fj]), _gate_of(center_rows([bi, bj]), w_p)).e
        want_ij = edge_weight_oracle(w_p, p.w_v.value, bi, bj, fi, fj)
        want_ji = edge_weight_oracle(w_p, p.w_v.value, bj, bi, fj, fi)
        assert e[0, 1] == pytest.approx(want_ij, abs=1e-12)
        assert e[1, 0] == pytest.approx(want_ji, abs=1e-12)


def _check_integrate(rng, trials):
    for _ in range(trials):
        n, d = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        feats = rng.normal(size=(n, d))
        e = rng.normal(size=(n, n))
        np.fill_diagonal(e, 0.0)
        msgs, _ = _integrate_all(feats, e)
        bare = _max_messages(feats, e)
        for i in range(n):
            want = integrate_messages_oracle(feats, e, i)
            assert np.allclose(msgs[i], want, atol=1e-12)
            assert np.allclose(bare[i], want, atol=1e-12)


def _check_sin_step(rng, trials):
    combos = [(pl, md) for pl in ("mean", "max", "concat")
              for md in ("both", "scene", "edge")]
    for t in range(trials):
        pooling, mode = combos[t % len(combos)]
        n, d = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        st = ParamStore()
        p = create_sin_params(st, d, int(rng.integers(1 << 30)), pooling, mode)
        w_p = rng.normal(0, 0.4, size=(1, 12))
        feats = rng.normal(size=(n, d))
        boxes = [random_box(rng, span=8.0) for _ in range(n)]
        scene = rng.normal(size=d)
        centers = center_rows(boxes)[None]
        g = SceneGraph(node_features=feats[None], boxes=centers, scene_feature=scene[None],
                       gate=_gate_of(centers, w_p))
        out, _ = sin_step_tape(p, g, record=True)
        want = sin_step_oracle(p, w_p, feats, boxes, scene)
        assert np.allclose(out.node_features[0], np.array(want), atol=1e-12)


def _check_nms(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(1, 20))
        boxes = [random_box(rng, span=6.0) for _ in range(n)]
        scores = np.round(rng.random(n), 1)     # coarse grid forces ties
        thresh = float(rng.uniform(0.2, 0.8))
        max_keep = int(rng.integers(1, n + 3))
        got = nms_by_group(corner_rows(boxes), scores, np.zeros(n), thresh)[:max_keep]
        assert got.tolist() == nms_oracle(boxes, scores, thresh, max_keep)


def _check_objectness(rng, trials):
    for _ in range(trials):
        h, w, c = (int(v) for v in rng.integers((1, 1, 2), (13, 13, 9)))
        grid = rng.normal(size=(h, w, c))
        grid[rng.random(grid.shape) < 0.2] = -0.0
        gt = gt_array((random_box(rng, span=12.0), 0) for _ in range(int(rng.integers(0, 4))))
        st = ParamStore()
        p = create_detector_params(st, c, 2, TrainConfig(feat_dim=3), "sin",
                                   int(rng.integers(1 << 30)))
        p.objectness.value[:] = rng.normal(size=p.objectness.value.shape)
        anchors = anchor_set(h, w)
        scores, loss, grad = objectness_oracle(grid, anchors, p.objectness.value, gt)
        scored = anchors, score_anchors(p, grid[None])[1][0]
        assert np.allclose(scored[1], scores, rtol=0.0, atol=1e-12)
        assert objectness_loss(p, grid, scored, anchor_targets(anchors, [gt])[0]) == pytest.approx(
            loss, abs=1e-12)
        assert np.allclose(p.objectness.grad, grad, rtol=0.0, atol=1e-12)


def _check_ap(rng, trials):
    for _ in range(trials):
        n_img = int(rng.integers(1, 4))
        gts = {}
        for img in range(n_img):
            boxes = [random_box(rng) for _ in range(int(rng.integers(0, 4)))]
            if boxes:
                gts[img] = boxes
        dets = []
        for img in range(n_img):
            for _ in range(int(rng.integers(0, 5))):
                if gts.get(img) and rng.random() < 0.6:
                    base = gts[img][int(rng.integers(0, len(gts[img])))]
                    b = Box(base.cx + rng.normal(0, 0.4),
                            base.cy + rng.normal(0, 0.4), base.w, base.h)
                else:
                    b = random_box(rng)
                dets.append((img, b, round(float(rng.random()), 2)))
        got = evaluate_detections(*per_image_lists(dets, gts), 1).per_category_ap[0]
        want = average_precision_oracle(dets, gts)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    trials = 108
    _check_gru(rng, trials)
    _check_edge_weight(rng, trials)
    _check_integrate(rng, trials)
    _check_sin_step(rng, trials)
    _check_nms(rng, trials)
    _check_objectness(rng, trials)
    _check_ap(rng, trials)
    wall = time.perf_counter() - t0
    ok = wall < 60.0
    line = record(2, "oracle equivalence", ok,
                  f"7 kernels x {trials} instances at 1e-12 in {wall:.1f}s")
    assert ok, line


# ---------------------------------------------------------------------------
# criteria 3-6 share one full ablation run

@pytest.fixture(scope="module")
def full_run():
    """The summary of the full ablation and the wall time of the whole call:
    the four arms and the sweep, 8 trainings."""
    world = default_world()
    cfg = TrainConfig()     # shipped defaults: T=2, mean pooling, seed 0
    t0 = time.perf_counter()
    summary, _models = run_ablation(world, cfg, n_train=2000, n_test=500,
                                    score_thresh=EvalConfig().score_thresh, sweep=True)
    return summary, time.perf_counter() - t0


def _arm_map(res, arm):
    entry = res["arms"][arm]
    assert not entry.get("failed"), f"arm {arm} diverged: {entry.get('error')}"
    return 100.0 * entry["map"]


def test_criterion_3_ablation_trend(full_run):
    summary, wall = full_run
    base = _arm_map(summary, "baseline")
    scene = _arm_map(summary, "scene")
    edge = _arm_map(summary, "edge")
    sin = _arm_map(summary, "sin")
    ok = (scene >= base + 2.0 and edge >= base + 2.0
          and sin >= max(scene, edge) - 0.5 and wall < 900.0)
    line = record(3, "ablation trend", ok,
                  f"mAP base {base:.2f}, scene {scene:.2f} (+{scene - base:.2f}), "
                  f"edge {edge:.2f} (+{edge - base:.2f}), sin {sin:.2f} "
                  f"(vs best arm {sin - max(scene, edge):+.2f}); "
                  f"margins needed +2.0/+2.0/-0.5; 8 trainings in {wall:.0f}s")
    assert ok, line


def _sweep_map(res, key):
    cell = res["sweep"][key]
    assert not cell.get("failed"), f"sweep {key} diverged: {cell.get('error')}"
    return 100.0 * cell["map"]


def test_criterion_4_time_step_trend(full_run):
    summary, _wall = full_run
    t1 = _sweep_map(summary, "mean-T1")
    t2 = _sweep_map(summary, "mean-T2")
    t3 = _sweep_map(summary, "mean-T3")
    ok = t2 >= t1 - 0.5
    line = record(4, "time-step trend", ok,
                  f"mAP T1 {t1:.2f}, T2 {t2:.2f} (needs >= T1 - 0.5), "
                  f"T3 {t3:.2f} (reported, unasserted)")
    assert ok, line


def test_criterion_5_fusion_modes(full_run):
    summary, _wall = full_run
    vals = {pool: _sweep_map(summary, f"{pool}-T2")
            for pool in ("mean", "max", "concat")}
    spread = max(vals.values()) - min(vals.values())
    ok = spread <= 3.0 and TrainConfig().pooling == "mean"
    line = record(5, "fusion modes", ok,
                  f"mAP mean {vals['mean']:.2f}, max {vals['max']:.2f}, "
                  f"concat {vals['concat']:.2f}; spread {spread:.2f} (limit 3.0); "
                  f"default '{TrainConfig().pooling}'")
    assert ok, line


def test_criterion_6_precision_dominance(full_run):
    summary, _wall = full_run
    base_pr = {round(thr, 1): (p, r) for thr, p, r in summary["arms"]["baseline"]["pr"]}
    sin_pr = {round(thr, 1): (p, r) for thr, p, r in summary["arms"]["sin"]["pr"]}
    checks = []
    ok = True
    for thr in (0.3, 0.4, 0.5, 0.6, 0.7):
        bp, br = base_pr[thr]
        sp, sr = sin_pr[thr]
        good = sp >= bp - 1e-12 and sr >= br - 0.03
        ok = ok and good
        checks.append(f"thr {thr:.1f}: P {100 * sp:.1f} vs {100 * bp:.1f}, "
                      f"R {100 * sr:.1f} vs {100 * br:.1f}")
    line = record(6, "precision dominance", ok,
                  "sin vs baseline, recall within 3 points; " + "; ".join(checks))
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 7: invariant suite

def _invariant_gate_ranges(rng):
    for _ in range(100):
        d = int(rng.integers(1, 7))
        st = ParamStore()
        p = create_gru_params(st, "cell", d, int(rng.integers(1 << 30)))
        x, h = rng.normal(0, 3, size=(1, 1, 1, d)), rng.normal(0, 3, size=(1, 1, d))
        h_next, tape = gru_forward(p, x, h)
        assert np.all(tape.r > 0) and np.all(tape.r < 1)
        assert np.all(tape.z > 0) and np.all(tape.z < 1)
        lo = np.minimum(h, tape.h_tilde) - 1e-12
        hi = np.maximum(h, tape.h_tilde) + 1e-12
        assert np.all(h_next >= lo) and np.all(h_next <= hi)


def _invariant_permutation_equivariance(rng):
    for trial in range(30):
        n, d = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        pooling = ("mean", "max", "concat")[trial % 3]
        st = ParamStore()
        p = create_sin_params(st, d, trial, pooling)
        w_p = rng.normal(0, 0.4, size=(1, 12))
        g = SceneGraph(node_features=rng.normal(size=(n, d))[None],
                       boxes=center_rows([random_box(rng, span=8.0)
                                               for _ in range(n)])[None],
                       scene_feature=rng.normal(size=d)[None])
        g.gate = _gate_of(g.boxes, w_p)
        perm = rng.permutation(n)
        gp = SceneGraph(node_features=g.node_features[:, perm], boxes=g.boxes[:, perm],
                        scene_feature=g.scene_feature, gate=_gate_of(g.boxes[:, perm], w_p))
        out, _ = sin_step_tape(p, g, record=True)
        outp, _ = sin_step_tape(p, gp, record=True)
        assert np.allclose(outp.node_features, out.node_features[:, perm], atol=1e-12)


def _invariant_nms_postconditions(rng):
    for _ in range(60):
        n = int(rng.integers(1, 16))
        boxes = [random_box(rng, span=6.0) for _ in range(n)]
        scores = rng.random(n)
        thresh = float(rng.uniform(0.3, 0.7))
        keep = nms_by_group(corner_rows(boxes), scores, np.zeros(n), thresh).tolist()
        kept_scores = [scores[i] for i in keep]
        assert kept_scores == sorted(kept_scores, reverse=True)
        for a in range(len(keep)):
            for b in range(a + 1, len(keep)):
                assert iou_oracle(boxes[keep[a]], boxes[keep[b]]) <= thresh
        for i in set(range(n)) - set(keep):
            assert any(iou_oracle(boxes[i], boxes[k]) > thresh and scores[k] >= scores[i]
                       for k in keep)


def _invariant_ap_range_and_monotone_recall(rng):
    for _ in range(40):
        gts = {0: [random_box(rng) for _ in range(int(rng.integers(1, 4)))]}
        dets = [(0, random_box(rng), float(rng.random()))
                for _ in range(int(rng.integers(1, 8)))]
        ap = evaluate_detections(*per_image_lists(dets, gts), 1).per_category_ap[0]
        assert 0.0 <= ap <= 1.0
        # pooled recall can only fall as the score threshold rises
        dd = [detection_array([(b, 0, s) for _, b, s in dets])]
        gg = [gt_array((b, 0) for b in gts[0])]
        recalls = [r for _, _, r in evaluate_detections(dd, gg, 1).pr]
        assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:]))


def _invariant_round_trips(tmp_path):
    store = ParamStore()
    create_detector_params(store, 8, 6, TrainConfig(feat_dim=16), "sin", seed=123)
    ckpt = os.path.join(tmp_path, "inv.bin")
    save_checkpoint(ckpt, store)
    back = load_checkpoint(ckpt)
    assert store.names() == back.names()
    for name in store.names():
        assert np.array_equal(store[name].value, back[name].value)

    world = default_world()
    scenes = generate(world, 77, 3)
    data = os.path.join(tmp_path, "inv.jsonl")
    save_dataset(data, scenes, world)
    got, header = load_dataset(data, world, world_hash(world))
    assert len(got) == 3
    for a, b in zip(scenes, got):
        assert np.array_equal(a.grid, b.grid)
        assert a.scene_type == b.scene_type
        assert a.gt["category"].tolist() == b.gt["category"].tolist()
        assert a.gt["box"].tolist() == b.gt["box"].tolist()


def _invariant_seed_determinism(tmp_path):
    outputs = []
    for tag in ("one", "two"):
        run_dir = os.path.join(tmp_path, f"run-{tag}")
        eval_dir = os.path.join(tmp_path, f"eval-{tag}")
        assert main(["train", "--world", "default", "--arm", "sin",
                     "--iters", "40", "--n-train", "10", "--seed", "5",
                     "--out", run_dir]) == 0
        assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                     "--n-test", "6", "--out", eval_dir]) == 0
        blob = {}
        for name in ("metrics.csv", "pr.csv", "fp.csv"):
            with open(os.path.join(eval_dir, name), "rb") as f:
                blob[name] = f.read()
        with open(os.path.join(run_dir, "checkpoint.bin"), "rb") as f:
            blob["checkpoint.bin"] = f.read()
        outputs.append(blob)
    assert outputs[0] == outputs[1], "identical runs must produce identical bytes"


def test_criterion_7_invariants(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    _invariant_gate_ranges(rng)
    _invariant_permutation_equivariance(rng)
    _invariant_nms_postconditions(rng)
    _invariant_ap_range_and_monotone_recall(rng)
    _invariant_round_trips(str(tmp_path))
    _invariant_seed_determinism(str(tmp_path))
    wall = time.perf_counter() - t0
    ok = wall < 120.0
    line = record(7, "invariant suite", ok,
                  f"gates, equivariance, nms/ap postconditions, round-trips, "
                  f"bitwise rerun in {wall:.1f}s")
    assert ok, line
