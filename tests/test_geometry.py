import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from sinet.geometry import (Box, apply_deltas, boxes_to_array, clip_box,
                            encode_deltas, iou, nms, pairwise_iou)

from oracles import iou_oracle, nms_oracle, random_box


def test_iou_known_cases():
    a = Box(2, 2, 2, 2)
    assert iou(a, Box(2, 2, 2, 2)) == 1.0
    assert iou(a, Box(10, 10, 2, 2)) == 0.0
    # half-width shift: inter 2, union 6
    assert iou(a, Box(3, 2, 2, 2)) == pytest.approx(1.0 / 3.0)
    # touching edges only
    assert iou(a, Box(4, 2, 2, 2)) == 0.0


def test_iou_matches_oracle_randomized():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = random_box(rng), random_box(rng)
        assert iou(a, b) == pytest.approx(iou_oracle(a, b), abs=1e-12)


def test_box_invariants():
    with pytest.raises(ValueError):
        Box(0, 0, -1.0, 2.0)
    with pytest.raises(ValueError):
        Box(0, 0, 1.0, 0.0)
    b = Box(1, 2, 3, 4)
    assert b.area == 12


def test_delta_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        b, g = random_box(rng), random_box(rng)
        d = encode_deltas(b, g)
        out = apply_deltas(b, d)
        assert out.cx == pytest.approx(g.cx, abs=1e-12)
        assert out.w == pytest.approx(g.w, rel=1e-12)


def test_clip_box_stays_inside():
    # a box fully past an edge collapses to a min_side sliver at that edge
    b = clip_box(Box(-1.0, 20.0, 5.0, 8.0), 16, 16)
    eps = 1e-6
    assert b.cx - b.w / 2 >= -eps and b.cx + b.w / 2 <= 16 + eps
    assert b.cy - b.h / 2 >= -eps and b.cy + b.h / 2 <= 16 + eps
    assert b.w > 0 and b.h > 0
    inside = Box(8, 8, 4, 4)
    c = clip_box(inside, 16, 16)
    assert (c.cx, c.cy, c.w, c.h) == (8, 8, 4, 4)


def test_pairwise_iou_matches_oracle():
    rng = np.random.default_rng(13)
    a = [random_box(rng) for _ in range(7)]
    b = [random_box(rng) for _ in range(5)]
    got = pairwise_iou(boxes_to_array(a), boxes_to_array(b))
    assert got.shape == (7, 5)
    for i, bi in enumerate(a):
        for j, bj in enumerate(b):
            assert got[i, j] == pytest.approx(iou_oracle(bi, bj), abs=1e-12)


def test_nms_simple_cases():
    boxes = [Box(2, 2, 2, 2), Box(2.1, 2, 2, 2), Box(8, 8, 2, 2)]
    keep = nms(boxes_to_array(boxes), [0.9, 0.8, 0.7], 0.5, 10)
    assert keep == [0, 2]
    # identical boxes with identical scores: one survives, lower index first
    keep = nms(boxes_to_array([Box(2, 2, 2, 2), Box(2, 2, 2, 2)]), [0.5, 0.5], 0.5, 10)
    assert keep == [0]
    assert nms(boxes_to_array([]), [], 0.5, 4) == []


def test_nms_validation():
    one = boxes_to_array([Box(1, 1, 1, 1)])
    with pytest.raises(ValueError):
        nms(one, [0.5, 0.6], 0.5, 4)
    with pytest.raises(ValueError):
        nms(one, [0.5], 1.5, 4)
    with pytest.raises(ValueError):
        nms(one, [0.5], 0.5, 0)
    # a Box list or a flat corner vector is not a (k, 4) corner array
    for bad in ([Box(1, 1, 1, 1)], one.ravel(), np.zeros((1, 3))):
        with pytest.raises(ValueError, match="corner array"):
            nms(bad, [0.5], 0.5, 4)


def test_nms_matches_oracle_randomized():
    rng = np.random.default_rng(17)
    for _ in range(120):
        n = int(rng.integers(1, 12))
        boxes = [random_box(rng, span=8.0) for _ in range(n)]
        scores = rng.normal(size=n)
        if rng.uniform() < 0.3 and n > 1:
            scores[1] = scores[0]  # exercise the tie rule
        thresh = float(rng.uniform(0.2, 0.8))
        max_keep = int(rng.integers(1, n + 2))
        assert nms(boxes_to_array(boxes), list(scores), thresh, max_keep) == \
            nms_oracle(boxes, list(scores), thresh, max_keep)


def test_nms_postconditions_randomized():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 15))
        boxes = [random_box(rng, span=6.0) for _ in range(n)]
        scores = list(rng.normal(size=n))
        keep = nms(boxes_to_array(boxes), scores, 0.5, n)
        # survivors never overlap beyond the threshold
        for a in range(len(keep)):
            for b in range(a + 1, len(keep)):
                assert iou(boxes[keep[a]], boxes[keep[b]]) <= 0.5
        # kept list is sorted by descending score
        kept_scores = [scores[i] for i in keep]
        assert kept_scores == sorted(kept_scores, reverse=True)
        # every suppressed box overlaps some kept box with >= its own score
        for i in set(range(n)) - set(keep):
            assert any(iou(boxes[i], boxes[j]) > 0.5 and scores[j] >= scores[i]
                       for j in keep)


# Quarter-cell coordinates make every corner, area and overlap exact, so the
# library and the oracle see the same IoU however each computes it. Few
# distinct values make duplicate boxes and tied scores common.
_quarter = hst.integers(0, 24).map(lambda v: v / 4.0)
_side = hst.integers(1, 12).map(lambda v: v / 4.0)
_box = hst.builds(Box, _quarter, _quarter, _side, _side)


@settings(max_examples=150, deadline=None)
@given(distinct=hst.lists(_box, min_size=1, max_size=8),
       picks=hst.lists(hst.integers(0, 7), min_size=1, max_size=60),
       levels=hst.lists(hst.integers(0, 3), min_size=60, max_size=60),
       thresh=hst.sampled_from([0.1, 0.25, 0.5, 0.7, 0.9]),
       max_keep=hst.integers(1, 70))
def test_nms_property_duplicates_and_ties(distinct, picks, levels, thresh, max_keep):
    boxes = [distinct[p % len(distinct)] for p in picks]
    scores = [float(v) for v in levels[:len(boxes)]]
    keep = nms(boxes_to_array(boxes), scores, thresh, max_keep)
    assert keep == nms_oracle(boxes, scores, thresh, max_keep)
    assert len(set(keep)) == len(keep) <= max_keep
    kept_scores = [scores[i] for i in keep]
    assert kept_scores == sorted(kept_scores, reverse=True)
    for a in range(len(keep)):
        for b in range(a + 1, len(keep)):
            assert iou_oracle(boxes[keep[a]], boxes[keep[b]]) <= thresh
