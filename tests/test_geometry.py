import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from sinet.geometry import (_sorted_prefixes, apply_deltas, centers_to_corners, clip_box,
                            encode_deltas, iou, nms_by_group, pairwise_iou)

import oracles
from oracles import (Box, apply_deltas_oracle, center_rows, clip_box_oracle, corner_rows,
                     encode_deltas_oracle, iou_oracle, nms, nms_oracle, random_box,
                     sorted_prefix)


def _iou1(a, b):
    """iou of one Box pair, through the paired-row kernel."""
    return float(iou(center_rows([a]), center_rows([b]))[0])


def test_iou_known_cases():
    a = Box(2, 2, 2, 2)
    assert _iou1(a, Box(2, 2, 2, 2)) == 1.0
    assert _iou1(a, Box(10, 10, 2, 2)) == 0.0
    # half-width shift: inter 2, union 6
    assert _iou1(a, Box(3, 2, 2, 2)) == pytest.approx(1.0 / 3.0)
    # touching edges only
    assert _iou1(a, Box(4, 2, 2, 2)) == 0.0


def test_iou_matches_oracle_randomized():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = random_box(rng), random_box(rng)
        assert _iou1(a, b) == pytest.approx(iou_oracle(a, b), abs=1e-12)


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
        b, g = center_rows([random_box(rng)]), center_rows([random_box(rng)])
        (cx, _cy, w, _h), = apply_deltas(b, encode_deltas(b, g))
        g = Box(*g[0])
        assert cx == pytest.approx(g.cx, abs=1e-12)
        assert w == pytest.approx(g.w, rel=1e-12)


def test_clip_box_stays_inside():
    # a box fully past an edge collapses to a min_side sliver at that edge
    (cx, cy, w, h), = clip_box(center_rows([Box(-1.0, 20.0, 5.0, 8.0)]), 16, 16)
    eps = 1e-6
    assert cx - w / 2 >= -eps and cx + w / 2 <= 16 + eps
    assert cy - h / 2 >= -eps and cy + h / 2 <= 16 + eps
    assert w > 0 and h > 0
    inside = clip_box(center_rows([Box(8, 8, 4, 4)]), 16, 16)
    assert inside.tolist() == [[8, 8, 4, 4]]


def test_box_arrays_match_box_arithmetic():
    rng = np.random.default_rng(3)
    boxes = [random_box(rng) for _ in range(20)]
    centers = center_rows(boxes)
    assert centers.tolist() == [[b.cx, b.cy, b.w, b.h] for b in boxes]
    assert np.array_equal(centers_to_corners(centers), corner_rows(boxes))
    assert center_rows([]).shape == (0, 4)


def test_box_array_kernels_reject_bad_shapes():
    with pytest.raises(ValueError):
        apply_deltas(np.ones((3, 4)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        apply_deltas(np.ones(4), np.zeros(4))
    with pytest.raises(ValueError):
        encode_deltas(np.ones((3, 4)), np.ones((2, 4)))
    with pytest.raises(ValueError):
        encode_deltas(np.ones((1, 4)), np.ones(4))
    with pytest.raises(ValueError):
        clip_box(np.ones((2, 3)), 16, 16)


def test_encode_deltas_matches_box_oracle():
    # the shifts are the oracle's bits; the log sides agree to the last ulp
    rng = np.random.default_rng(8)
    for k in (0, 1, 5, 40):
        boxes = [random_box(rng, span=30.0) for _ in range(k)]
        targets = [random_box(rng, span=30.0) for _ in range(k)]
        got = encode_deltas(center_rows(boxes), center_rows(targets))
        assert got.shape == (k, 4)
        for row, b, g in zip(got, boxes, targets):
            want = encode_deltas_oracle(b, g)
            assert row[:2].tolist() == want[:2]
            assert np.allclose(row[2:], want[2:], rtol=1e-15, atol=0.0)


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
        refined = apply_deltas(center_rows(boxes), deltas)
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
    bc, gc = np.array([b]), np.array([g])
    (cx, cy, w, h), = apply_deltas(bc, encode_deltas(bc, gc))
    b, g = Box(*b), Box(*g)
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
    got = pairwise_iou(corner_rows(a), corner_rows(b))
    assert got.shape == (7, 5)
    for i, bi in enumerate(a):
        for j, bj in enumerate(b):
            assert got[i, j] == pytest.approx(iou_oracle(bi, bj), abs=1e-12)


def test_nms_simple_cases():
    boxes = [Box(2, 2, 2, 2), Box(2.1, 2, 2, 2), Box(8, 8, 2, 2)]
    keep = nms(corner_rows(boxes), [0.9, 0.8, 0.7], 0.5, 10)
    assert keep == [0, 2]
    # identical boxes with identical scores: one survives, lower index first
    keep = nms(corner_rows([Box(2, 2, 2, 2), Box(2, 2, 2, 2)]), [0.5, 0.5], 0.5, 10)
    assert keep == [0]
    assert nms(corner_rows([]), [], 0.5, 4) == []


def test_nms_validation():
    one = corner_rows([Box(1, 1, 1, 1)])
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
        assert nms(corner_rows(boxes), list(scores), thresh, max_keep) == \
            nms_oracle(boxes, list(scores), thresh, max_keep)


def test_nms_postconditions_randomized():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 15))
        boxes = [random_box(rng, span=6.0) for _ in range(n)]
        scores = list(rng.normal(size=n))
        keep = nms(corner_rows(boxes), scores, 0.5, n)
        # survivors never overlap beyond the threshold
        for a in range(len(keep)):
            for b in range(a + 1, len(keep)):
                assert iou_oracle(boxes[keep[a]], boxes[keep[b]]) <= 0.5
        # kept list is sorted by descending score
        kept_scores = [scores[i] for i in keep]
        assert kept_scores == sorted(kept_scores, reverse=True)
        # every suppressed box overlaps some kept box with >= its own score
        for i in set(range(n)) - set(keep):
            assert any(iou_oracle(boxes[i], boxes[j]) > 0.5 and scores[j] >= scores[i]
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
    keep = nms(corner_rows(boxes), scores, thresh, max_keep)
    assert keep == nms_oracle(boxes, scores, thresh, max_keep)
    assert len(set(keep)) == len(keep) <= max_keep
    kept_scores = [scores[i] for i in keep]
    assert kept_scores == sorted(kept_scores, reverse=True)
    for a in range(len(keep)):
        for b in range(a + 1, len(keep)):
            assert iou_oracle(boxes[keep[a]], boxes[keep[b]]) <= thresh


_free_box = hst.tuples(_coord, _coord, hst.floats(0.01, 40.0), hst.floats(0.01, 40.0))


@settings(max_examples=200, deadline=None)
@given(pairs=hst.lists(hst.tuples(_free_box, _free_box), max_size=8),
       quarter=hst.lists(hst.tuples(_box, _box), max_size=8))
def test_iou_is_bitwise_the_scalar_formula(pairs, quarter):
    # free floats, plus quarter-cell boxes that touch, nest and coincide
    a = [Box(*p) for p, _ in pairs] + [p for p, _ in quarter]
    b = [Box(*q) for _, q in pairs] + [q for _, q in quarter]
    got = iou(center_rows(a), center_rows(b))
    assert got.shape == (len(a),)
    assert got.tolist() == [iou_oracle(x, y) for x, y in zip(a, b)]


def test_iou_rejects_unpaired_rows():
    with pytest.raises(ValueError, match="row counts differ"):
        iou(np.ones((3, 4)), np.ones((2, 4)))
    with pytest.raises(ValueError):
        iou(np.ones(4), np.ones(4))


def _per_group_oracle(boxes, scores, groups, thresh, overlap=iou_oracle):
    """nms_oracle's survivors of each group, uncapped, in ascending group id
    order: what nms_by_group must return."""
    want = []
    for g in sorted(set(groups)):
        members = [i for i, gi in enumerate(groups) if gi == g]
        want += [members[i] for i in nms_oracle([boxes[m] for m in members],
                                                [scores[m] for m in members],
                                                thresh, len(members), overlap)]
    return want


@settings(max_examples=150, deadline=None)
@given(distinct=hst.lists(_box, min_size=1, max_size=8),
       picks=hst.lists(hst.tuples(hst.integers(0, 7), hst.integers(0, 3), hst.integers(0, 5)),
                       min_size=1, max_size=60),
       thresh=hst.sampled_from([0.1, 0.25, 0.3, 0.5, 0.7, 0.9]))
def test_grouped_nms_is_nms_per_group(distinct, picks, thresh):
    # duplicates, tied scores within and across groups, single-box groups
    boxes = [distinct[p % len(distinct)] for p, _, _ in picks]
    scores = [float(level) for _, level, _ in picks]
    groups = [g for _, _, g in picks]
    keep = nms_by_group(corner_rows(boxes), scores, np.array(groups), thresh)
    assert keep.tolist() == _per_group_oracle(boxes, scores, groups, thresh)
    # each group keeps what nms over that group alone keeps
    for g in set(groups):
        members = np.flatnonzero(np.array(groups) == g)
        alone = nms(corner_rows([boxes[m] for m in members]), [scores[m] for m in members],
                    thresh, len(members))
        assert [i for i in keep.tolist() if groups[i] == g] == members[alone].tolist()


# integer levels tie often, also across the cut; signed zeros and
# infinities rank as np.argsort ranks them
_level = hst.one_of(hst.integers(-2, 2).map(float),
                    hst.sampled_from([0.0, -0.0, math.inf, -math.inf]))


def _with_nans(data, values):
    """values with a drawn number of them, from none to all, set to NaN."""
    for i in data.draw(hst.permutations(range(len(values))))[:data.draw(
            hst.integers(0, len(values)))]:
        values[i] = math.nan
    return values


def _rank(scores):
    """Indices in descending-score order, ties to the lower index, NaN last."""
    return sorted(range(len(scores)), key=lambda i: (math.isnan(scores[i]),
                                                     0.0 if math.isnan(scores[i]) else -scores[i],
                                                     i))


@settings(max_examples=200, deadline=None)
@given(data=hst.data(), m=hst.integers(1, 40), a=hst.integers(1, 50), b=hst.integers(1, 4))
def test_sorted_prefix_is_the_full_sort_prefix(data, m, a, b):
    # each row of a stack, ties at its cut, a NaN cut, or no cut at all
    # (m >= a); the per-row reference falls back to the full sort where
    # the stack gives a row no position
    neg = np.array([_with_nans(data, data.draw(hst.lists(_level, min_size=a, max_size=a)))
                    for _ in range(b)])
    order, real = _sorted_prefixes(neg, m)
    assert order.shape == real.shape and order.shape[0] == b
    for row, head, mask in zip(neg, order, real):
        full = np.argsort(row, kind="stable")
        head = head[mask]
        assert mask.tolist() == sorted(mask.tolist(), reverse=True)
        if len(head) == 0:
            assert m < a and np.isnan(np.partition(row, m - 1)[m - 1])
        else:
            assert len(head) >= min(m, a)
        assert head.tolist() == full[:len(head)].tolist()
        want = sorted_prefix(row, m)
        assert (head if len(head) else full).tolist() == want.tolist()


@settings(max_examples=200, deadline=None)
@given(data=hst.data(), distinct=hst.lists(_box, min_size=1, max_size=8),
       max_keep=hst.integers(1, 12), extra=hst.integers(1, 40),
       thresh=hst.sampled_from([0.1, 0.3, 0.5, 0.7]), grouped=hst.booleans())
def test_nms_over_a_top_prefix_matches_oracle(data, distinct, max_keep, extra, thresh, grouped):
    # k > 2 * max_keep, so nms sorts only a top prefix unless the scan runs
    # past it or NaN reaches the cut; duplicate boxes make long scans. The
    # grouped case runs the same long, tied, NaN-scored sets through
    # nms_by_group, which keeps every survivor of each group.
    k = 2 * max_keep + extra
    picks = data.draw(hst.lists(hst.integers(0, len(distinct) - 1), min_size=k, max_size=k))
    boxes = [distinct[p] for p in picks]
    scores = _with_nans(data, data.draw(hst.lists(_level, min_size=k, max_size=k)))
    if not grouped:
        keep = nms(corner_rows(boxes), scores, thresh, max_keep)
        assert keep == nms_oracle(boxes, scores, thresh, max_keep)
        return
    groups = data.draw(hst.lists(hst.integers(0, 2), min_size=k, max_size=k))
    keep = nms_by_group(corner_rows(boxes), scores, np.array(groups), thresh)
    assert keep.tolist() == _per_group_oracle(boxes, scores, groups, thresh)
    # within a group the survivors run in descending score, NaN last
    for g in set(groups):
        mine = [i for i in keep.tolist() if groups[i] == g]
        assert mine == [i for i in _rank(scores) if i in mine]


def _pair_iou(a, b):
    """pairwise_iou of two corner rows, the higher-ranked one first."""
    return pairwise_iou(np.array([a]), np.array([b]))[0, 0]


# corner rows that a Box cannot hold: zero-area boxes and NaN corners
_corner_row = hst.one_of(
    _box.map(Box.corners),
    hst.tuples(_quarter, _quarter, _side).map(lambda t: (t[0], t[1], t[0], t[1] + t[2])),
    hst.tuples(_quarter, _quarter, _side).map(lambda t: (t[0], t[1], t[0] + t[2], t[1])),
    hst.tuples(_quarter, _quarter, _side).map(
        lambda t: (math.nan, t[1], t[0] + t[2], t[1] + t[2])),
)
# group ids far apart and negative: the kernel sorts them, never indexes by them
_group_id = hst.sampled_from([-7, 0, 3, 12, 1000])


@settings(max_examples=300, deadline=None)
@given(distinct=hst.lists(_corner_row, min_size=1, max_size=8),
       picks=hst.lists(hst.tuples(hst.integers(0, 7), _group_id,
                                  hst.one_of(_level, hst.just(math.nan))), max_size=60),
       thresh=hst.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
@example(distinct=[(0.0, 0.0, 2.0, 2.0), (0.5, 0.0, 2.5, 2.0)],
         picks=[(i % 2, 3, float(i % 3)) for i in range(20)] + [(0, -7, 1.0)],
         thresh=0.5)
# a chain in an 18-box group: A suppresses B, so B must not suppress C
@example(distinct=[(0.0, 0.0, 2.0, 2.0), (0.75, 0.0, 2.75, 2.0), (1.5, 0.0, 3.5, 2.0)],
         picks=[(i % 3, 0, float(-i)) for i in range(18)], thresh=0.3)
def test_nms_by_group_matches_oracle_per_group(distinct, picks, thresh):
    # NaN, infinite and signed-zero scores; NaN and zero-area boxes;
    # duplicates; singleton groups, empty input and groups of 17 or more
    boxes = [distinct[p % len(distinct)] for p, _, _ in picks]
    groups = [g for _, g, _ in picks]
    scores = [v for _, _, v in picks]
    with np.errstate(invalid="ignore"):
        keep = nms_by_group(np.array(boxes).reshape(-1, 4), scores, np.array(groups, dtype=int),
                            thresh)
        want = _per_group_oracle(boxes, scores, groups, thresh, overlap=_pair_iou)
    assert keep.tolist() == want


def test_nms_prefix_and_its_fallbacks(monkeypatch):
    # 40 boxes and max_keep 4 give an 8-wide first block; levels tie at the
    # cut (the 8th largest score, 2.0, is held by indices 5 to 12)
    lengths = []

    def spy(neg, m):
        head = sorted_prefix(neg, m)
        lengths.append(len(head))
        return head

    monkeypatch.setattr(oracles, "sorted_prefix", spy)
    scores = [3.0] * 5 + [2.0] * 8 + [1.0] * 27
    apart = [Box(3.0 * i + 1.0, 1.0, 1.0, 1.0) for i in range(40)]
    same = [Box(1.0, 1.0, 1.0, 1.0)] * 40
    # disjoint boxes: the scan stays inside the 13-wide prefix
    assert nms(corner_rows(apart), scores, 0.5, 4) == nms_oracle(apart, scores, 0.5, 4)
    # one box repeated: one survivor, and the scan runs past the prefix
    assert nms(corner_rows(same), scores, 0.5, 4) == [0] == nms_oracle(same, scores, 0.5, 4)
    # 35 NaN scores leave 5 numbers, fewer than the block: the cut is NaN
    nan_scores = [math.nan] * 35 + [0.5, 0.0, -0.0, 2.0, 0.5]
    assert nms(corner_rows(apart), nan_scores, 0.5, 4) == [38, 35, 39, 36]
    assert nms_oracle(apart, nan_scores, 0.5, 4) == [38, 35, 39, 36]
    assert lengths == [13, 13, 40]


def test_nms_groups_validation_and_proposal_default():
    boxes = corner_rows([Box(2, 2, 2, 2), Box(2.1, 2, 2, 2)])
    with pytest.raises(ValueError, match="groups"):
        nms_by_group(boxes, [0.9, 0.8], [0], 0.5)
    with pytest.raises(ValueError, match="groups"):
        nms_by_group(boxes, [0.9, 0.8], np.zeros((2, 1)), 0.5)
    with pytest.raises(ValueError, match="scores"):
        nms_by_group(boxes, [0.9], [0, 0], 0.5)
    with pytest.raises(ValueError, match="iou_thresh"):
        nms_by_group(boxes, [0.9, 0.8], [0, 0], 1.0)
    with pytest.raises(ValueError, match="corner array"):
        nms_by_group(boxes.ravel(), [0.9, 0.8], [0, 0], 0.5)
    # one group is plain nms; nms itself takes no groups
    assert nms_by_group(boxes, [0.9, 0.8], [0, 0], 0.5).tolist() == \
        nms(boxes, [0.9, 0.8], 0.5, 4) == [0]
    assert nms_by_group(boxes, [0.9, 0.8], [0, 1], 0.5).tolist() == [0, 1]
    assert nms_by_group(boxes, [0.8, 0.9], [5, 2], 0.5).tolist() == [1, 0]
    with pytest.raises(TypeError):
        nms(boxes, [0.9, 0.8], 0.5, 4, groups=[0, 1])


def test_clip_box_refuses_array_bounds():
    # a grid is one (width, height); a (4,) bound would broadcast over the
    # four corner columns into wrong bounds, and per-row bounds are not taken
    rows = np.array([[2.0, 2.0, 3.0, 3.0]] * 4)
    for width, height in ((np.full(4, 3.0), 3.0), (3.0, np.full(4, 3.0)),
                          (np.full(4, 3.0), np.full(4, 3.0)), ([3.0], 3.0)):
        with pytest.raises(ValueError, match="must be numbers"):
            clip_box(rows, width, height)
    assert clip_box(rows, np.float64(3.0), 3).tolist() == clip_box(rows, 3.0, 3.0).tolist()
