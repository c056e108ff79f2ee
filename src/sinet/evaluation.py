"""Detection metrics and the four-arm ablation runner.

Average precision uses the all-point interpolation (area under the monotone
precision envelope). Precision/recall curves pool every category and image at
a fixed IoU of 0.5. The false-positive breakdown follows the usual diagnosis
buckets: correct, localization, similar-class confusion, other-class
confusion, background.
"""

import time
from dataclasses import dataclass, replace

from .geometry import iou
from .numerics import derive_seed
from .synth_data import sample_at, world_hash

FP_KINDS = ("Cor", "Loc", "Sim", "Oth", "BG")
PR_THRESHOLDS = tuple(i / 10.0 for i in range(10))
FP_IOU_LOC = 0.1
FP_IOU_COR = 0.5


def _voc_ap(recall, precision):
    """Area under the monotone precision envelope (all-point interpolation)."""
    mrec = [0.0] + list(recall) + [1.0]
    mpre = [0.0] + list(precision) + [0.0]
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    ap = 0.0
    for i in range(len(mrec) - 1):
        if mrec[i + 1] != mrec[i]:
            ap += (mrec[i + 1] - mrec[i]) * mpre[i + 1]
    return ap


def average_precision(dets, gts, iou_thresh=0.5):
    """AP for one category.

    dets: (image_id, box, score) triples in any order; ranking is by score
    descending with ties kept in input order. gts: mapping image_id -> list of
    gt boxes for the category. Greedy one-to-one matching at iou_thresh, best
    IoU first, gt ties to the lowest index. Returns None when no gt exists
    (the category is then excluded from means).
    """
    npos = sum(len(v) for v in gts.values())
    if npos == 0:
        return None
    order = sorted(range(len(dets)), key=lambda k: -dets[k][2])
    used = set()
    tp = fp = 0
    recall, precision = [], []
    for k in order:
        img, box, _score = dets[k]
        best_iou, best_g = 0.0, -1
        for gi, g in enumerate(gts.get(img, [])):
            if (img, gi) in used:
                continue
            v = iou(box, g)
            if v >= iou_thresh and v > best_iou:
                best_iou, best_g = v, gi
        if best_g >= 0:
            used.add((img, best_g))
            tp += 1
        else:
            fp += 1
        recall.append(tp / npos)
        precision.append(tp / (tp + fp))
    return _voc_ap(recall, precision)


def _category_slices(dets_by_image, gts_by_image, category):
    dets = [(img, d.box, d.score)
            for img, dd in enumerate(dets_by_image) for d in dd if d.category == category]
    gts = {}
    for img, gg in enumerate(gts_by_image):
        boxes = [o.box for o in gg if o.category == category]
        if boxes:
            gts[img] = boxes
    return dets, gts


def ap_by_category(dets_by_image, gts_by_image, num_categories, iou_thresh=0.5):
    out = {}
    for cat in range(num_categories):
        dets, gts = _category_slices(dets_by_image, gts_by_image, cat)
        out[cat] = average_precision(dets, gts, iou_thresh)
    return out


def mean_ap(per_category):
    vals = [v for v in per_category.values() if v is not None]
    return sum(vals) / len(vals) if vals else 0.0


def map_at(dets_by_image, gts_by_image, num_categories, iou_list):
    """mAP averaged over IoU thresholds, with the per-threshold breakdown."""
    iou_list = list(iou_list)
    if not iou_list:
        raise ValueError("map_at: need at least one IoU threshold")
    per_iou = {}
    for t in iou_list:
        per_cat = ap_by_category(dets_by_image, gts_by_image, num_categories, t)
        per_iou[t] = {"per_category": per_cat, "map": mean_ap(per_cat)}
    overall = sum(per_iou[t]["map"] for t in iou_list) / len(iou_list)
    return {"map": overall, "per_iou": per_iou}


def _match_all(dets_by_image, gts_by_image, iou_thresh):
    """Greedy category-aware matching over the global score ranking.

    Returns (ranked, matched) where ranked is a list of (image_id, det) in
    descending score order and matched a parallel list of booleans.
    """
    ranked_idx = []
    for img, dd in enumerate(dets_by_image):
        for d in dd:
            ranked_idx.append((img, d))
    ranked_idx.sort(key=lambda t: -t[1].score)
    used = set()
    matched = []
    for img, d in ranked_idx:
        best_iou, best_g = 0.0, -1
        for gi, g in enumerate(gts_by_image[img]):
            if g.category != d.category or (img, gi) in used:
                continue
            v = iou(d.box, g.box)
            if v >= iou_thresh and v > best_iou:
                best_iou, best_g = v, gi
        if best_g >= 0:
            used.add((img, best_g))
            matched.append(True)
        else:
            matched.append(False)
    return ranked_idx, matched


def pr_curve(dets_by_image, gts_by_image, thresholds=PR_THRESHOLDS, iou_thresh=0.5):
    """Pooled precision/recall at each score threshold.

    All categories and images share one pool; a threshold keeps detections
    with score >= thr. No detections means precision 1.0 and recall 0.0 by
    convention.
    """
    ranked, matched = _match_all(dets_by_image, gts_by_image, iou_thresh)
    total_gt = sum(len(g) for g in gts_by_image)
    points = []
    for thr in thresholds:
        kept = [m for (img, d), m in zip(ranked, matched) if d.score >= thr]
        tp = sum(kept)
        precision = tp / len(kept) if kept else 1.0
        recall = tp / total_gt if total_gt else 0.0
        points.append((thr, precision, recall))
    return points


def fp_breakdown(dets_by_image, gts_by_image, similar_pairs=()):
    """Bucket every detection: Cor (matched at 0.5), else Loc when it overlaps
    a same-class gt at 0.1 or better (this includes duplicates of an already
    matched gt), Sim / Oth for confusion with a similar / any other class, BG
    when it touches nothing."""
    sim = set()
    for a, b in similar_pairs:
        sim.add((a, b))
        sim.add((b, a))
    ranked, matched = _match_all(dets_by_image, gts_by_image, FP_IOU_COR)
    counts = {k: 0 for k in FP_KINDS}
    for (img, d), m in zip(ranked, matched):
        if m:
            counts["Cor"] += 1
            continue
        best_same = best_sim = best_other = 0.0
        for g in gts_by_image[img]:
            v = iou(d.box, g.box)
            if g.category == d.category:
                best_same = max(best_same, v)
            elif (d.category, g.category) in sim:
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


@dataclass
class EvalResult:
    per_category_ap: dict
    map: float
    pr: list
    fp: dict
    num_images: int


def evaluate_detections(dets_by_image, gts_by_image, num_categories,
                        similar_pairs=(), iou_thresh=0.5):
    if len(dets_by_image) != len(gts_by_image):
        raise ValueError(f"{len(dets_by_image)} detection lists vs "
                         f"{len(gts_by_image)} ground-truth lists")
    per_cat = ap_by_category(dets_by_image, gts_by_image, num_categories, iou_thresh)
    return EvalResult(per_category_ap=per_cat, map=mean_ap(per_cat),
                      pr=pr_curve(dets_by_image, gts_by_image, iou_thresh=iou_thresh),
                      fp=fp_breakdown(dets_by_image, gts_by_image, similar_pairs),
                      num_images=len(dets_by_image))


# ---------------------------------------------------------------------------
# ablation

SWEEP_GRID = (("mean", 1), ("mean", 2), ("mean", 3), ("max", 2), ("concat", 2))


def _eval_arm(tr, test_samples, world, cfg, arm, score_thresh):
    from .detector import detect_scenes

    dets = detect_scenes(tr.params, test_samples, cfg, score_thresh, arm)
    gts = [s.gt for s in test_samples]
    ev = evaluate_detections(dets, gts, world.num_categories, world.ambiguous_pairs)
    return dets, ev


def run_ablation(world, cfg, n_train, n_test, arms=None, sweep=False,
                 score_thresh=0.05, split_seed=None, progress=None):
    """Train and evaluate each arm on identical data.

    Every arm sees the same initial weights (same init seed), the same scenes
    in the same shuffled order, and the same test split; only the inference
    wiring differs. Returns a nested dict; keys starting with "_" hold live
    objects (stores, detections) and are stripped before serialization.
    """
    from .detector import ARMS, TrainingDiverged, train

    if arms is None:
        arms = ARMS
    say = progress if progress is not None else (lambda msg: None)
    train_seed = derive_seed(split_seed if split_seed is not None else cfg.seed, "train-data")
    test_seed = derive_seed(split_seed if split_seed is not None else cfg.seed, "test-data")
    test_samples = [sample_at(world, test_seed, i) for i in range(n_test)]

    results = {
        "world_hash": world_hash(world),
        "n_train": n_train, "n_test": n_test,
        "score_thresh": score_thresh,
        "arms": {}, "sweep": {}, "timings": {},
    }
    t0 = time.perf_counter()
    for arm in arms:
        t_arm = time.perf_counter()
        say(f"training arm {arm}")
        try:
            tr = train(world, cfg, arm, n_train=n_train, data_seed=train_seed)
        except TrainingDiverged as e:
            results["arms"][arm] = {"failed": True, "error": str(e)}
            continue
        dets, ev = _eval_arm(tr, test_samples, world, cfg, arm, score_thresh)
        results["arms"][arm] = {
            "failed": False,
            "map": ev.map,
            "ap": ev.per_category_ap,
            "pr": ev.pr,
            "fp": ev.fp,
            "seconds": time.perf_counter() - t_arm,
            "_train": tr,
            "_detections": dets,
        }
        say(f"arm {arm}: map {ev.map:.4f}")
    results["timings"]["arms"] = time.perf_counter() - t0

    if sweep:
        t0 = time.perf_counter()
        for pooling, t in SWEEP_GRID:
            key = f"{pooling}-T{t}"
            main = results["arms"].get("sin")
            if (pooling == cfg.pooling and t == cfg.T and main is not None
                    and not main.get("failed")):
                results["sweep"][key] = {"pooling": pooling, "T": t,
                                         "failed": False, "map": main["map"],
                                         "ap": main["ap"],
                                         "_train": main["_train"],
                                         "_detections": main["_detections"]}
                continue
            say(f"sweep {key}")
            cfg2 = replace(cfg, pooling=pooling, T=t)
            try:
                tr = train(world, cfg2, "sin", n_train=n_train, data_seed=train_seed)
            except TrainingDiverged as e:
                results["sweep"][key] = {"pooling": pooling, "T": t,
                                         "failed": True, "error": str(e)}
                continue
            dets, ev = _eval_arm(tr, test_samples, world, cfg2, "sin", score_thresh)
            results["sweep"][key] = {"pooling": pooling, "T": t, "failed": False,
                                     "map": ev.map, "ap": ev.per_category_ap,
                                     "_train": tr, "_detections": dets}
            say(f"sweep {key}: map {ev.map:.4f}")
        results["timings"]["sweep"] = time.perf_counter() - t0
    return results


def strip_objects(node):
    """Deep-copy a results tree without the underscore-keyed live objects."""
    if isinstance(node, dict):
        return {k: strip_objects(v) for k, v in node.items()
                if not (isinstance(k, str) and k.startswith("_"))}
    if isinstance(node, (list, tuple)):
        return [strip_objects(v) for v in node]
    return node
