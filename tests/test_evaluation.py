import importlib
import json
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from sinet import evaluation
from sinet.detector import TrainConfig, create_detector_params, detect_scenes
from sinet.evaluation import (FP_KINDS, PR_THRESHOLDS, SWEEP_GRID, _voc_ap,
                              evaluate_detections, mean_ap, run_ablation)
from sinet.numerics import ParamStore
from sinet.synth_data import default_world, sample_at

from oracles import (Box, average_precision_oracle, category_slices_oracle, detection_array,
                     fp_breakdown_oracle, gt_array, per_image_lists, pr_curve_oracle,
                     random_box)


def category_ap(dets, gts):
    """AP of one category's (image_id, box, score) triples against its
    {image_id: [box]} gt, through evaluate_detections."""
    return evaluate_detections(*per_image_lists(dets, gts), num_categories=1).per_category_ap[0]


def image(*dets):
    """One image's detections, each a (Box, category, score) triple."""
    return detection_array(dets)


def det(box, cat=0, score=0.9):
    return box, cat, score


# ---------------------------------------------------------------------------
# average precision

def test_voc_ap_hand_cases():
    # perfect ranking over two gts
    assert _voc_ap([0.5, 1.0], [1.0, 1.0]) == pytest.approx(1.0)
    # one fp before the only tp: envelope lifts precision to 0.5 at recall 1
    assert _voc_ap([0.0, 1.0], [0.0, 0.5]) == pytest.approx(0.5)
    # no detections at all
    assert _voc_ap([], []) == 0.0


def test_average_precision_hand_cases():
    g = Box(3, 3, 2, 2)
    # single matching detection
    assert category_ap([(0, g, 0.9)], {0: [g]}) == pytest.approx(1.0)
    # high-scored miss ahead of the hit halves the area
    miss = Box(8, 8, 2, 2)
    ap = category_ap([(0, miss, 0.9), (0, g, 0.5)], {0: [g]})
    assert ap == pytest.approx(0.5)
    # detection in an image with no gt for the class is a plain fp
    ap = category_ap([(1, g, 0.9), (0, g, 0.5)], {0: [g]})
    assert ap == pytest.approx(0.5)
    # duplicate hits: the gt is consumed once, the second becomes fp
    ap = category_ap([(0, g, 0.9), (0, g, 0.8)], {0: [g]})
    assert ap == pytest.approx(1.0)


def test_average_precision_score_ties_keep_input_order():
    g = Box(3, 3, 2, 2)
    miss = Box(8, 8, 2, 2)
    hit_first = category_ap([(0, g, 0.7), (0, miss, 0.7)], {0: [g]})
    miss_first = category_ap([(0, miss, 0.7), (0, g, 0.7)], {0: [g]})
    assert hit_first == pytest.approx(1.0)
    assert miss_first == pytest.approx(0.5)


def test_average_precision_none_without_ground_truth():
    assert category_ap([], {}) is None
    assert category_ap([(0, Box(2, 2, 1, 1), 0.9)], {}) is None
    assert category_ap([(0, Box(2, 2, 1, 1), 0.9)], {0: []}) is None


def test_average_precision_matches_oracle_randomized():
    rng = np.random.default_rng(77)
    for trial in range(100):
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
                    b = Box(base.cx + rng.normal(0, 0.4), base.cy + rng.normal(0, 0.4),
                            base.w, base.h)
                else:
                    b = random_box(rng)
                score = round(float(rng.random()), 2)   # force some ties
                dets.append((img, b, score))
        got = category_ap(dets, gts)
        want = average_precision_oracle(dets, gts)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12), trial


def test_mean_ap_skips_absent_categories():
    assert mean_ap({0: 0.5, 1: None, 2: 1.0}) == pytest.approx(0.75)
    assert mean_ap({0: None, 1: None}) == 0.0
    assert mean_ap({}) == 0.0


def test_matching_threshold_is_one_half():
    g = Box(3, 3, 2, 2)
    near = Box(3.8, 3, 2, 2)       # IoU 1.2/2.8: misses at 0.5
    half = Box(3, 3, 2, 1)         # inside g at half its area: IoU exactly 0.5
    gts = [gt_array([(g, 0)])]
    assert evaluate_detections([image(det(near, cat=0, score=0.9))], gts, 1).map == 0.0
    assert evaluate_detections([image(det(half, cat=0, score=0.9))], gts, 1).map == 1.0


# ---------------------------------------------------------------------------
# pr curve and fp buckets

def test_pr_curve_empty_conventions():
    pts = evaluate_detections([image()], [gt_array([(Box(3, 3, 2, 2), 0)])], 1).pr
    assert len(pts) == len(PR_THRESHOLDS)
    for thr, precision, recall in pts:
        assert precision == 1.0
        assert recall == 0.0
    # no gt anywhere: recall pinned to zero, precision from the pool
    pts = evaluate_detections([image(det(Box(3, 3, 2, 2), score=0.9))], [gt_array([])], 1).pr
    assert all(r == 0.0 for _, _, r in pts)


def test_pr_curve_threshold_semantics_and_monotone_recall():
    g1, g2 = Box(2, 2, 2, 2), Box(7, 7, 2, 2)
    dets = [image(det(g1, cat=0, score=0.8), det(g2, cat=0, score=0.4),
                  det(Box(5, 2, 2, 2), cat=0, score=0.6))]
    gts = [gt_array([(g1, 0), (g2, 0)])]
    pts = evaluate_detections(dets, gts, 1).pr
    by_thr = {thr: (p, r) for thr, p, r in pts}
    # score >= threshold is kept: at 0.4 everything, at 0.8 only the first
    assert by_thr[0.4] == (pytest.approx(2 / 3), pytest.approx(1.0))
    assert by_thr[0.8] == (pytest.approx(1.0), pytest.approx(0.5))
    recalls = [r for _, _, r in pts]
    assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:]))


def test_fp_breakdown_buckets():
    gts = [gt_array([(Box(3, 3, 2, 2), 0), (Box(12, 3, 2, 2), 2)])]
    dets = [image(
        det(Box(3, 3, 2, 2), cat=0, score=0.9),       # Cor: exact match
        det(Box(3.8, 3, 2, 2), cat=0, score=0.8),     # Loc: duplicate, gt consumed
        det(Box(3.4, 3, 2, 2), cat=1, score=0.7),     # Sim: class 1 on a class-0 gt
        det(Box(12.4, 3, 2, 2), cat=0, score=0.6),    # Oth: class 0 on a class-2 gt
        det(Box(8, 8, 2, 2), cat=0, score=0.5),       # BG: overlaps nothing
    )]
    counts = evaluate_detections(dets, gts, 3, similar_pairs=((0, 1),)).fp
    assert counts == {"Cor": 1, "Loc": 1, "Sim": 1, "Oth": 1, "BG": 1}
    assert tuple(counts) == FP_KINDS

    # without the similar pair, the class-1 confusion lands in Oth
    counts2 = evaluate_detections(dets, gts, 3).fp
    assert counts2["Sim"] == 0 and counts2["Oth"] == 2


def test_fp_breakdown_similar_pairs_are_symmetric():
    gts = [gt_array([(Box(3, 3, 2, 2), 1)])]
    dets = [image(det(Box(3.2, 3, 2, 2), cat=0, score=0.9))]
    a = evaluate_detections(dets, gts, 2, similar_pairs=((0, 1),)).fp
    b = evaluate_detections(dets, gts, 2, similar_pairs=((1, 0),)).fp
    assert a["Sim"] == 1 and b["Sim"] == 1


def test_evaluate_detections_contract():
    g = Box(3, 3, 2, 2)
    dets = [image(det(g, cat=0, score=0.9)), image()]
    gts = [gt_array([(g, 0)]), gt_array([(Box(5, 5, 2, 2), 1)])]
    ev = evaluate_detections(dets, gts, num_categories=2)
    assert ev.num_images == 2
    assert ev.per_category_ap[0] == pytest.approx(1.0)
    assert ev.per_category_ap[1] == pytest.approx(0.0)
    assert ev.map == pytest.approx(mean_ap(ev.per_category_ap))
    assert len(ev.pr) == len(PR_THRESHOLDS)
    assert sum(ev.fp.values()) == 1

    with pytest.raises(ValueError):
        evaluate_detections(dets, gts[:1], num_categories=2)


# Quarter-cell boxes make exact IoU ties and coinciding boxes common; four
# score levels make score ties common. A detection either copies a gt box of
# its image (src indexes the image's gt) or brings its own.
_quarter = hst.integers(0, 40).map(lambda v: v / 4.0)
_qside = hst.integers(1, 16).map(lambda v: v / 4.0)
_qbox = hst.builds(Box, _quarter, _quarter, _qside, _qside)
_image = hst.tuples(
    hst.lists(hst.tuples(_qbox, hst.integers(0, 2)), max_size=4),
    hst.lists(hst.tuples(hst.integers(-1, 3), _qbox, hst.integers(0, 2), hst.integers(0, 3)),
              max_size=7))


@settings(max_examples=200, deadline=None)
@given(images=hst.lists(_image, max_size=5), chunk=hst.sampled_from([1, 3, 1024]))
# the first detection overlaps both gts at IoU 7/9 and must take gt 0, which
# leaves the second detection, at IoU 0.6 with gt 0 and 1/3 with gt 1, unmatched
@example(images=[([(Box(2, 2, 2, 2), 0), (Box(2.5, 2, 2, 2), 0)],
                  [(-1, Box(2.25, 2, 2, 2), 0, 3), (-1, Box(1.5, 2, 2, 2), 0, 2)])],
         chunk=1024)
def test_matching_core_equals_scalar_oracles(images, chunk):
    # images may be empty, lack gt, or hold detections but no gt; small
    # chunks split the pairs between detections and leave pairless ones
    gts = [gt_array(gg) for gg, _ in images]
    dets = [image(*[det(gg[src % len(gg)][0] if src >= 0 and gg else box, cat=cat,
                        score=level / 4.0)
                    for src, box, cat, level in dd])
            for gg, dd in images]
    similar = ((0, 1),)
    want_ap = {c: average_precision_oracle(*category_slices_oracle(dets, gts, c))
               for c in range(3)}
    with mock.patch.object(evaluation, "PAIR_CHUNK", chunk):
        ev = evaluate_detections(dets, gts, 3, similar)
    assert (ev.per_category_ap, ev.map, ev.num_images) == (want_ap, mean_ap(want_ap),
                                                           len(images))
    assert ev.pr == pr_curve_oracle(dets, gts)
    assert ev.fp == fp_breakdown_oracle(dets, gts, similar)
    assert evaluate_detections(dets, gts, 3).fp == fp_breakdown_oracle(dets, gts)


def test_benchmark_tracer_counts_detections(monkeypatch):
    # perfbench/tracer.py counts evaluate_detections' first argument as a
    # per-image sequence whose lengths are the images' detection counts
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    tracer_mod = importlib.import_module("tracer")
    world = default_world()
    store = ParamStore()
    cfg = TrainConfig(rois_per_image=6, T=1, feat_dim=8)
    params = create_detector_params(store, world.channels, world.num_categories, cfg, "sin", 17)
    samples = [sample_at(world, 5, i) for i in range(4)]
    dets = detect_scenes(params, samples, 0.05)
    tracer = tracer_mod.Tracer()
    with tracer:
        # through the module attribute, which the tracer wraps
        evaluation.evaluate_detections(dets, [s.gt for s in samples], world.num_categories)
    assert tracer.calls("evaluation.evaluate_detections") == 1
    assert tracer.counters["detections"] == sum(map(len, dets)) > 0


# ---------------------------------------------------------------------------
# ablation runner

def test_sweep_grid_contents():
    assert SWEEP_GRID == (("mean", 1), ("mean", 2), ("mean", 3),
                          ("max", 2), ("concat", 2))


@pytest.fixture(scope="module")
def tiny_ablation():
    """(summary, models, progress lines) of a two-arm run with the sweep."""
    world = default_world()
    cfg = TrainConfig(iters=10, rois_per_image=6, T=1, feat_dim=8, seed=13)
    lines = []
    summary, models = run_ablation(world, cfg, n_train=6, n_test=4, score_thresh=0.05,
                                   arms=("baseline", "sin"), sweep=True, progress=lines.append)
    return summary, models, lines


def test_run_ablation_structure(tiny_ablation):
    res, models, _lines = tiny_ablation
    assert set(res["arms"]) == set(models) == {"baseline", "sin"}
    for arm, r in res["arms"].items():
        assert r["failed"] is False
        assert 0.0 <= r["map"] <= 1.0
        assert set(r["ap"]) == set(range(6))
        assert len(r["pr"]) == len(PR_THRESHOLDS)
        assert set(r["fp"]) == set(FP_KINDS)
        assert models[arm].params.arm == arm
        assert set(r) == {"failed", "map", "ap", "pr", "fp"}
    assert res["n_train"] == 6 and res["n_test"] == 4
    json.dumps(res)     # the summary is plain data as returned


def test_run_ablation_sweep_reuses_main_arm(tiny_ablation):
    res, _models, lines = tiny_ablation
    assert set(res["sweep"]) == {"mean-T1", "mean-T2", "mean-T3", "max-T2", "concat-T2"}
    # cfg was (mean, T=1): that cell must reuse the sin arm, not retrain
    sin = res["arms"]["sin"]
    assert res["sweep"]["mean-T1"] == {"pooling": "mean", "T": 1, "failed": False,
                                       "map": sin["map"], "ap": sin["ap"]}
    assert not any(line.startswith("sweep mean-T1") for line in lines)
    assert "sweep mean-T2" in lines
    for key, cell in res["sweep"].items():
        assert cell["failed"] is False
        assert 0.0 <= cell["map"] <= 1.0


def test_run_ablation_learns_stage_one_once():
    # the four arms and the four sweep points that train all replay one
    # stage one: the anchors are scored once per iteration in all, and
    # otherwise only for the 8 models' proposals on the test scenes; the
    # proposals of stage one's 7 iterations, and of each model's 3 test
    # scenes, are one stack each
    from sinet import detector
    world = default_world()
    cfg = TrainConfig(iters=7, rois_per_image=6, feat_dim=8, seed=4)
    counts = {"score_anchors": 0, "_proposals": 0}

    def spy(name):
        real = getattr(detector, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)
        return counted

    with mock.patch.object(detector, "score_anchors", spy("score_anchors")), \
            mock.patch.object(detector, "_proposals", spy("_proposals")):
        summary, _models = run_ablation(world, cfg, n_train=5, n_test=3, score_thresh=0.05,
                                        sweep=True)
    assert not any(entry["failed"] for section in ("arms", "sweep")
                   for entry in summary[section].values())
    assert counts == {"score_anchors": 7 + 8 * 3, "_proposals": 1 + 8}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_ablation_reports_failed_arm():
    world = default_world()
    cfg = TrainConfig(lr=1e9, iters=8, rois_per_image=6, T=1, feat_dim=8, seed=1)
    res, models = run_ablation(world, cfg, n_train=4, n_test=2, score_thresh=0.05,
                               arms=("baseline",))
    assert res["arms"]["baseline"]["failed"] is True
    assert "non-finite" in res["arms"]["baseline"]["error"]
    assert models == {}
