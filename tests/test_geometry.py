import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from sinet.geometry import (Box, apply_deltas, boxes_to_array, boxes_to_centers,
                            centers_to_corners, clip_box, encode_deltas, iou, nms,
                            pairwise_iou)

from oracles import (apply_deltas_oracle, clip_box_oracle, iou_oracle, nms_oracle,
                     random_box)


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
        (cx, _cy, w, _h), = apply_deltas(boxes_to_centers([b]), d[None])
        assert cx == pytest.approx(g.cx, abs=1e-12)
        assert w == pytest.approx(g.w, rel=1e-12)


def test_clip_box_stays_inside():
    # a box fully past an edge collapses to a min_side sliver at that edge
    (cx, cy, w, h), = clip_box(boxes_to_centers([Box(-1.0, 20.0, 5.0, 8.0)]), 16, 16)
    eps = 1e-6
    assert cx - w / 2 >= -eps and cx + w / 2 <= 16 + eps
    assert cy - h / 2 >= -eps and cy + h / 2 <= 16 + eps
    assert w > 0 and h > 0
    inside = clip_box(boxes_to_centers([Box(8, 8, 4, 4)]), 16, 16)
    assert inside.tolist() == [[8, 8, 4, 4]]


def test_box_arrays_match_box_arithmetic():
    rng = np.random.default_rng(3)
    boxes = [random_box(rng) for _ in range(20)]
    centers = boxes_to_centers(boxes)
    assert centers.tolist() == [[b.cx, b.cy, b.w, b.h] for b in boxes]
    assert np.array_equal(centers_to_corners(centers), boxes_to_array(boxes))
    assert boxes_to_centers([]).shape == (0, 4)


def test_box_array_kernels_reject_bad_shapes():
    with pytest.raises(ValueError):
        apply_deltas(np.ones((3, 4)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        apply_deltas(np.ones(4), np.zeros(4))
    with pytest.raises(ValueError):
        clip_box(np.ones((2, 3)), 16, 16)


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_apply_deltas_and_clip_box_match_box_oracles():
    # boxes inside, overhanging and wholly outside a 16 x 12 grid; deltas
    # from small to exp-overflowing, so some sides are infinite, and clips
    # that leave no area and fall back to min_side slivers
    rng = np.random.default_rng(9)
    width, height = 16, 12
    infinite = slivers = 0
    for trial in range(200):
        k = int(rng.integers(0, 9))
        boxes = [Box(float(rng.uniform(-40, 56)), float(rng.uniform(-40, 52)),
                     float(rng.uniform(0.01, 30)), float(rng.uniform(0.01, 30)))
                 for _ in range(k)]
        scale = (0.5, 5.0, 400.0)[trial % 3]
        deltas = rng.normal(0.0, scale, size=(k, 4))
        deltas[:, 2:] = np.clip(deltas[:, 2:], -30.0, 720.0)     # no exp underflow to 0
        refined = apply_deltas(boxes_to_centers(boxes), deltas)
        assert refined.shape == (k, 4)
        want = [apply_deltas_oracle(b, d) for b, d in zip(boxes, deltas)]
        for got, w in zip(refined, want):
            assert got[0] == w.cx and got[1] == w.cy
            assert np.allclose(got[2:], [w.w, w.h], rtol=1e-15, atol=0.0)
        clipped = clip_box(refined, width, height)
        for got, row in zip(clipped, refined):
            w = clip_box_oracle(Box(*row.tolist()), width, height)
            assert got.tolist() == [w.cx, w.cy, w.w, w.h]
            assert 1e-6 <= got[2] <= width and 1e-6 <= got[3] <= height
        infinite += int(np.isinf(refined).sum())
        slivers += int((clipped[:, 2:] == 1e-6).sum())
    assert infinite > 20 and slivers > 20
    # infinite centers and sides: a corner at inf - inf is NaN, which the
    # builtins clamp to 0.0
    rows = [(np.inf, 5.0, np.inf, 2.0), (-np.inf, 5.0, np.inf, np.inf),
            (3.0, -np.inf, 1.0, np.inf), (np.inf, np.inf, 4.0, 4.0)]
    for row, got in zip(rows, clip_box(np.array(rows), width, height)):
        w = clip_box_oracle(Box(*row), width, height)
        assert got.tolist() == [w.cx, w.cy, w.w, w.h]


_coord = hst.floats(-60.0, 60.0, allow_nan=False)
_side = hst.floats(0.01, 40.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(b=hst.tuples(_coord, _coord, _side, _side), g=hst.tuples(_coord, _coord, _side, _side))
def test_apply_deltas_inverts_encode_deltas(b, g):
    b, g = Box(*b), Box(*g)
    (cx, cy, w, h), = apply_deltas(boxes_to_centers([b]), encode_deltas(b, g)[None])
    assert cx == pytest.approx(g.cx, abs=1e-12 * (1.0 + abs(g.cx) + abs(b.cx)))
    assert cy == pytest.approx(g.cy, abs=1e-12 * (1.0 + abs(g.cy) + abs(b.cy)))
    assert w == pytest.approx(g.w, rel=1e-12)
    assert h == pytest.approx(g.h, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(rows=hst.lists(hst.tuples(hst.floats(-1e6, 1e6), hst.floats(-1e6, 1e6),
                                 hst.floats(1e-9, 1e6) | hst.just(np.inf),
                                 hst.floats(1e-9, 1e6) | hst.just(np.inf)),
                      max_size=6),
       width=hst.integers(1, 32), height=hst.integers(1, 32))
def test_clip_box_stays_inside_grid(rows, width, height):
    got = clip_box(np.array(rows, dtype=np.float64).reshape(-1, 4), width, height)
    assert got.shape == (len(rows), 4)
    x1, y1, x2, y2 = centers_to_corners(got).T
    slack = 1e-6 / 2 + 1e-9
    assert np.all(got[:, 2:] >= 1e-6)
    assert np.all((x1 >= -slack) & (x2 <= width + slack))
    assert np.all((y1 >= -slack) & (y2 <= height + slack))


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
