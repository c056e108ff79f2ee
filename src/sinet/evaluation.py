"""Detection metrics and the four-arm ablation runner.

Average precision uses the all-point interpolation (area under the monotone
precision envelope). Precision/recall curves pool every category and image at
a fixed IoU of 0.5. The false-positive breakdown follows the usual diagnosis
buckets: correct, localization, similar-class confusion, other-class
confusion, background.

All of them read one matching pass (_Matching): the IoU of every same-image
(detection, gt) pair on flat arrays, and the greedy match once, at IoU 0.5,
over the global score ranking.

run_ablation trains the four arms, then the sin arm at each SWEEP_GRID point,
in one loop, each evaluated on the same test split. Stage one is the same in
every one of them, so it is learned once (detector.stage_one) and each
training replays it (detector.learn). It returns (summary,
models): the plain data that an ablation's summary.json holds, and each
trained arm's TrainResult. It measures no time, so a rerun with the same
arguments returns the same summary.
"""

from dataclasses import dataclass, replace

import numpy as np

from .detector import ARMS, DETECTION_DTYPE, TrainingDiverged, detect_scenes, learn, stage_one
from .geometry import iou
from .numerics import derive_seed
from .synth_data import GT_DTYPE, generate, world_hash

FP_KINDS = ("Cor", "Loc", "Sim", "Oth", "BG")
PR_THRESHOLDS = tuple(i / 10.0 for i in range(10))
FP_IOU_LOC = 0.1
# the one matching threshold: AP, PR and the Cor bucket all read it
MATCH_IOU = 0.5
# (detection, gt) pairs per IoU call, which bounds the call's (k, 4)
# temporaries. On the 32k pairs of 500 default-world scenes (5.3k detections)
# the tracemalloc peak of evaluate_detections was 1.7 MB with 4096 and 1.1 MB
# with 1024, at the same speed; one call over all pairs peaked 5 MB higher
PAIR_CHUNK = 1024


def _voc_ap(recall, precision):
    """Area under the monotone precision envelope (all-point interpolation),
    summed left to right."""
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.maximum.accumulate(np.concatenate([[0.0], precision, [0.0]])[::-1])[::-1]
    return float(np.add.accumulate(np.diff(mrec) * mpre[1:])[-1])


class _Matching:
    """Detections and ground truth of every image as flat arrays, and the
    greedy one-to-one match at IoU MATCH_IOU.

    dets_by_image holds one DETECTION_DTYPE array per image, and
    gts_by_image one GT_DTYPE array. Detections are
    held in rank order: score descending, ties kept in image-then-row order.
    In that order, a detection takes the still-free gt of its image and
    category with the highest IoU at or above the threshold (and above 0),
    ties to the lowest gt index.

    Of the same-image (detection, gt) pairs only those at IoU FP_IOU_LOC or
    more are kept, by detection and then gt index: every match candidate is
    one of them (MATCH_IOU >= FP_IOU_LOC), and the FP buckets read no other
    pair. Their IoUs are dropped once the match is made."""

    def __init__(self, dets_by_image, gts_by_image):
        if len(dets_by_image) != len(gts_by_image):
            raise ValueError(f"{len(dets_by_image)} detection lists vs "
                             f"{len(gts_by_image)} ground-truth lists")
        # the dtype given, so numpy need not promote the images' dtypes pair by pair
        dets = np.concatenate([np.empty(0, DETECTION_DTYPE), *dets_by_image],
                              dtype=DETECTION_DTYPE)
        rank = np.argsort(-dets["score"], kind="stable")
        dets = dets[rank]
        det_img = np.repeat(np.arange(len(dets_by_image)), [len(dd) for dd in dets_by_image])[rank]
        self.score = dets["score"]
        self.det_cat = dets["category"]
        gts = np.concatenate([np.empty(0, GT_DTYPE), *gts_by_image], dtype=GT_DTYPE)
        self.gt_cat = gts["category"]
        # pair p of detection d is gt p - shift[d], counted over all images;
        # detections go in runs of about PAIR_CHUNK pairs
        n_gt = np.array([len(gg) for gg in gts_by_image], dtype=np.intp)
        per_det = n_gt[det_img]
        first = np.cumsum(per_det) - per_det
        shift = first - (np.cumsum(n_gt) - n_gt)[det_img]
        bounds = np.unique(np.append(
            np.searchsorted(first, np.arange(0, per_det.sum(), PAIR_CHUNK)), len(dets))).tolist()
        det_box = dets["box"]
        gt_box = gts["box"]
        near_det, near_gt, near_iou = [], [], []
        for lo, hi in zip(bounds, bounds[1:]):
            pair_det = np.repeat(np.arange(lo, hi), per_det[lo:hi])
            pair_gt = np.arange(first[lo], first[lo] + len(pair_det)) - shift[pair_det]
            v = iou(det_box[pair_det], gt_box[pair_gt])
            near = v >= FP_IOU_LOC
            near_det.append(pair_det[near])
            near_gt.append(pair_gt[near])
            near_iou.append(v[near])
        small = np.min_scalar_type(max(len(dets), len(gts)))
        self.near_det = np.concatenate(near_det or [[]]).astype(small)
        self.near_gt = np.concatenate(near_gt or [[]]).astype(small)
        self.matched = self._match(np.concatenate(near_iou or [[]]))

    def _match(self, v):
        """(D,) flags of the detections matched at IoU MATCH_IOU, from the
        (near,) IoUs of the kept pairs."""
        same = self.det_cat[self.near_det] == self.gt_cat[self.near_gt]
        cand = np.flatnonzero(same & (v >= MATCH_IOU) & (v > 0.0))
        matched = np.zeros(len(self.score), dtype=bool)
        used = set()
        cur, best, best_v = -1, -1, 0.0
        # a detection's candidates are consecutive; the sentinel closes the last
        for d, g, x in [*zip(self.near_det[cand].tolist(), self.near_gt[cand].tolist(),
                             v[cand].tolist()), (-1, -1, 0.0)]:
            if d != cur:
                if best >= 0:
                    matched[cur] = True
                    used.add(best)
                cur, best, best_v = d, -1, 0.0
            if x > best_v and g not in used:
                best, best_v = g, x
        return matched

    def ap_by_category(self, num_categories):
        """{category: AP}; None for a category without gt (it is then
        excluded from means)."""
        npos = np.bincount(self.gt_cat, minlength=num_categories)
        out = {}
        for cat in range(num_categories):
            tp = np.cumsum(self.matched[self.det_cat == cat])
            out[cat] = (_voc_ap(tp / npos[cat], tp / np.arange(1, len(tp) + 1))
                        if npos[cat] else None)
        return out

    def pr_curve(self):
        """Pooled precision/recall at each of PR_THRESHOLDS.

        All categories and images share one pool; a threshold keeps
        detections with score >= thr. No detections means precision 1.0 and
        recall 0.0 by convention.
        """
        total_gt, points = len(self.gt_cat), []
        for thr in PR_THRESHOLDS:
            kept = self.score >= thr
            n, tp = int(kept.sum()), int(self.matched[kept].sum())
            points.append((thr, tp / n if n else 1.0, tp / total_gt if total_gt else 0.0))
        return points

    def fp_breakdown(self, similar_pairs):
        """Bucket every detection: Cor (matched), else Loc when it overlaps a
        same-class gt at FP_IOU_LOC or better (this includes duplicates of an
        already matched gt), Sim / Oth for confusion with a similar / any
        other class, BG when it touches nothing."""
        dc, gc = self.det_cat[self.near_det], self.gt_cat[self.near_gt]
        same = dc == gc
        sim = np.zeros(len(same), dtype=bool)
        for a, b in similar_pairs:
            sim |= ((dc == a) & (gc == b)) | ((dc == b) & (gc == a))
        left = ~self.matched
        counts = {"Cor": int((~left).sum())}
        for name, kind in (("Loc", same), ("Sim", ~same & sim), ("Oth", ~same & ~sim)):
            hit = np.bincount(self.near_det[kind], minlength=len(left)) > 0
            counts[name] = int((left & hit).sum())
            left &= ~hit
        counts["BG"] = int(left.sum())
        return counts


def mean_ap(per_category):
    vals = [v for v in per_category.values() if v is not None]
    return sum(vals) / len(vals) if vals else 0.0


@dataclass
class EvalResult:
    per_category_ap: dict
    map: float
    pr: list
    fp: dict
    num_images: int


def evaluate_detections(dets_by_image, gts_by_image, num_categories, similar_pairs=()):
    """AP per category, mAP, the pooled PR curve and the FP buckets, all at
    IoU MATCH_IOU, of one DETECTION_DTYPE array per image against its
    GT_DTYPE array."""
    m = _Matching(dets_by_image, gts_by_image)
    per_cat = m.ap_by_category(num_categories)
    return EvalResult(per_category_ap=per_cat, map=mean_ap(per_cat), pr=m.pr_curve(),
                      fp=m.fp_breakdown(similar_pairs), num_images=len(dets_by_image))


# ---------------------------------------------------------------------------
# ablation

SWEEP_GRID = (("mean", 1), ("mean", 2), ("mean", 3), ("max", 2), ("concat", 2))


def run_ablation(world, cfg, n_train, n_test, score_thresh, arms=ARMS, sweep=False,
                 split_seed=None, progress=None):
    """(summary, models) of each arm, then, with `sweep`, the sin arm at each
    SWEEP_GRID point, trained and evaluated on identical data.

    Every training sees the same initial weights (same init seed), the same
    scenes in the same shuffled order, and the same test split; only the
    inference wiring, pooling and steps differ, and each trained model
    detects with its own (TrainResult.params). So every training has the
    same stage one, which is learned once and replayed: each training is
    bitwise detector.train's. A sweep point at cfg's own (pooling, T) reads
    the sin arm's entry. A training that diverges, by a
    non-finite loss or GRU pre-activation, is a failed entry with its message.
    """
    say = progress if progress is not None else (lambda msg: None)
    root = split_seed if split_seed is not None else cfg.seed
    train_seed = derive_seed(root, "train-data")
    test_samples = generate(world, derive_seed(root, "test-data"), n_test)
    gts = [s.gt for s in test_samples]
    summary = {
        "world_hash": world_hash(world),
        "n_train": n_train, "n_test": n_test,
        "score_thresh": score_thresh,
        "arms": {}, "sweep": {},
    }
    models = {}
    stage1 = stage_one(world, cfg, n_train, train_seed)
    runs = [("arms", arm, arm, cfg) for arm in arms]
    if sweep:
        runs += [("sweep", f"{pooling}-T{t}", "sin", replace(cfg, pooling=pooling, T=t))
                 for pooling, t in SWEEP_GRID]
    for section, key, arm, run_cfg in runs:
        entry = {} if section == "arms" else {"pooling": run_cfg.pooling, "T": run_cfg.T}
        sin = summary["arms"].get("sin")
        if section == "sweep" and run_cfg == cfg and sin is not None and not sin["failed"]:
            entry.update(failed=False, map=sin["map"], ap=sin["ap"])
        else:
            label = f"arm {key}" if section == "arms" else f"sweep {key}"
            say(f"training {label}" if section == "arms" else label)
            try:
                tr = learn(world, run_cfg, arm, stage1)
            except (TrainingDiverged, FloatingPointError) as e:
                entry.update(failed=True, error=str(e))
            else:
                ev = evaluate_detections(
                    detect_scenes(tr.params, test_samples, score_thresh),
                    gts, world.num_categories, world.ambiguous_pairs)
                entry.update(failed=False, map=ev.map, ap=ev.per_category_ap)
                if section == "arms":
                    entry.update(pr=ev.pr, fp=ev.fp)
                    models[arm] = tr
                say(f"{label}: map {ev.map:.4f}")
        summary[section][key] = entry
    return summary, models
