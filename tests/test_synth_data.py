import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as hst

from sinet.synth_data import (BOAT, CAR, LAPTOP, MOUSE, Category, CooccurRule,
                              WorldSpec, cell_window, dataset_header,
                              default_world, generate, load_dataset,
                              save_dataset, validate_world,
                              world_from_dict, world_hash, world_to_dict)

from oracles import Box, covered_cells_oracle, gt_objects, sample_at, sample_scene_oracle


def tiny_world(noise=0.0, cooccur=(), n_objects=(1, 2)):
    c = 4
    protos = np.zeros((3, c))
    protos[0, 0] = 1.0
    protos[1, 1] = 1.0
    protos[2, 2] = 1.0
    cats = [
        Category("a", protos[0], np.array([1.0, 0.1]), size=(2.0, 2.0)),
        Category("b", protos[1], np.array([0.1, 1.0]), size=(2.0, 2.0)),
        Category("c", protos[2], np.array([0.3, 0.3]), size=(1.5, 1.5)),
    ]
    bias = np.zeros((2, c))
    bias[0, 3] = 0.5
    bias[1, 3] = -0.5
    return WorldSpec(scene_names=["s0", "s1"], categories=cats,
                     cooccur=list(cooccur), ambiguous_pairs=[],
                     height=12, width=12, channels=c, noise_sigma=noise,
                     scene_bias=bias, objects_per_scene=n_objects)


def test_covered_cells_half_open_box():
    r0, r1, c0, c1 = cell_window(Box(2.0, 2.0, 2.0, 2.0).corners(), 8, 8)
    # box spans [1,3) x [1,3): cell centers 1.5 and 2.5
    assert list(range(r0, r1)) == [1, 2] and list(range(c0, c1)) == [1, 2]
    r0, r1, c0, c1 = cell_window(Box(0.2, 0.2, 0.1, 0.1).corners(), 8, 8)
    assert r1 == r0


def crowded_world():
    """A 7x6 grid asked for 3-8 objects, with chained partner rules (two
    with prob 1, one with jitter 0 and one near 1): objects are skipped and
    partners fall back to free spots in most scenes."""
    c = 3
    protos = np.eye(c)
    cats = [Category("a", protos[0], np.array([1.0, 0.2]), size=(2.0, 1.5), size_jitter=0.3),
            Category("b", protos[1], np.array([0.5, 1.0]), size=(1.2, 2.5), size_jitter=0.0),
            Category("c", protos[2], np.array([0.0, 0.7]), size=(3.0, 3.0), size_jitter=0.9)]
    rules = [CooccurRule(0, 1, 1.0, offset=(2.0, 0.5), jitter=0.0),
             CooccurRule(1, 2, 1.0, offset=(1.5, 1.5), jitter=0.99),
             CooccurRule(2, 0, 0.6, offset=(3.0, 0.0), jitter=0.4)]
    bias = np.array([[0.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
    return validate_world(WorldSpec(scene_names=["s0", "s1"], categories=cats, cooccur=rules,
                                     height=7, width=6, channels=c, noise_sigma=0.5,
                                     scene_bias=bias, objects_per_scene=(3, 9)))


def stream_digest(world, seed, n):
    """sha256 over the grid bytes, scene type, boxes and categories of the
    first n scenes of the stream keyed by seed."""
    digest = hashlib.sha256()
    for i in range(n):
        s = sample_at(world, seed, i)
        digest.update(s.grid.astype("<f8").tobytes())
        digest.update(np.array([s.scene_type], dtype="<i8").tobytes())
        for box, cat in zip(s.gt["box"], s.gt["category"]):
            digest.update(box.astype("<f8").tobytes())
            digest.update(np.array([cat], dtype="<i8").tobytes())
    return digest.hexdigest()


SCENE_DIGEST = "4afd55f6b49a0b4fb93bdf106b533ba2dfe5da92c534ff59361025de22ac9b17"
# the crowded world's first 100 scenes of seed 3, recorded with the sampler
# that drew through rng.uniform and rng.choice and built a Box per attempt
CROWDED_DIGEST = "8108e9d18a3f1cedaa9fde3fae6cc86e1cc2cc79462b345365e77efac6edb600"

# exact half-cell values, so box edges land on cell centers and cell borders
_half = hst.integers(-6, 50).map(lambda k: k / 2.0)
_side = hst.one_of(_half.filter(lambda v: v > 0),
                   hst.floats(min_value=0.0, exclude_min=True, allow_infinity=True))
_center = hst.one_of(hst.floats(allow_nan=True, allow_infinity=True), _half,
                     hst.builds(lambda edge, side: edge + side / 2.0, _half, _half))


@settings(max_examples=400, deadline=None)
@given(cx=_center, cy=_center, w=_side, h=_side,
       height=hst.integers(1, 20), width=hst.integers(1, 20))
def test_cell_window_matches_mask_oracle(cx, cy, w, h, height, width):
    box = Box(cx, cy, w, h)
    r0, r1, c0, c1 = cell_window(box.corners(), height, width)
    assert 0 <= r0 <= r1 <= height and 0 <= c0 <= c1 <= width
    rows, cols = covered_cells_oracle(box, height, width)
    got = {(r, c) for r in range(r0, r1) for c in range(c0, c1)}
    assert got == {(int(r), int(c)) for r in rows for c in cols}
    if got:
        assert list(range(r0, r1)) == rows.tolist() and list(range(c0, c1)) == cols.tolist()


def test_scene_stream_is_pinned():
    # a digest of the default world's first 200 scenes, recorded before the
    # occupancy and painting code moved to cell windows. Scenes feed every
    # loss, checkpoint and mAP, so generation code may only change this
    # digest together with the world itself (which also changes world_hash).
    assert stream_digest(default_world(), 0, 200) == SCENE_DIGEST


def test_crowded_scene_stream_is_pinned():
    # skipped objects, partner fallbacks and chained rules, pinned the same way
    assert stream_digest(crowded_world(), 3, 100) == CROWDED_DIGEST


@hst.composite
def small_worlds(draw):
    """Validated worlds on 4-8 cell grids: crowded object counts, jitter from
    0 to near 1, and rules chained category to category (prob 1 often)."""
    height, width, channels = draw(hst.integers(4, 8)), draw(hst.integers(4, 8)), 2
    n_scenes, k = draw(hst.integers(1, 2)), draw(hst.integers(1, 4))
    unit = hst.floats(0.0, 1.0)
    jitter = hst.sampled_from([0.0, 0.5, 0.999]) | hst.floats(0.0, 0.999)
    side = hst.floats(0.3, 5.0) | hst.integers(1, 8).map(float)    # whole sides can fill the grid
    cats = [Category(f"c{i}", np.array([float(i), 1.0]),
                     np.array(draw(hst.lists(unit, min_size=n_scenes, max_size=n_scenes))),
                     size=(draw(side), draw(side)),
                     size_jitter=draw(jitter))
            for i in range(k)]
    for s in range(n_scenes):
        if not any(c.scene_affinity[s] > 0 for c in cats):
            cats[0].scene_affinity[s] = 1.0
    offset = hst.floats(-3.0, 3.0)
    rules = [CooccurRule(r % k, (r + 1) % k, draw(hst.sampled_from([1.0]) | unit),
                         offset=(draw(offset), draw(offset)),
                         jitter=draw(hst.sampled_from([0.0, 0.99]) | unit))
             for r in range(draw(hst.integers(0, k + 1)))]
    lo = draw(hst.integers(0, 4))
    return validate_world(WorldSpec(
        scene_names=[f"s{i}" for i in range(n_scenes)], categories=cats, cooccur=rules,
        height=height, width=width, channels=channels,
        noise_sigma=draw(hst.sampled_from([0.0, 0.3])),
        scene_bias=np.arange(n_scenes * channels, dtype=np.float64).reshape(n_scenes, channels),
        objects_per_scene=(lo, lo + draw(hst.integers(0, 8)))))


def assert_scene_matches_oracle(world, seed, index, events):
    s = sample_at(world, seed, index)
    grid, scene_type, objects = sample_scene_oracle(world, seed, index, events)
    assert s.grid.dtype == grid.dtype and s.grid.shape == grid.shape
    assert s.grid.tobytes() == grid.tobytes()
    assert s.scene_type == scene_type
    assert s.gt["category"].tolist() == [obj[4] for obj in objects]
    assert s.gt["box"].tobytes() == np.array([obj[:4] for obj in objects]).reshape(-1, 4).tobytes()


def grid_wide_world():
    # one category exactly as wide as the 4x4 grid: it fits, at cx = 2.0 only
    cat = Category("wide", np.array([1.0, 0.0]), np.array([1.0]), size=(4.0, 2.0),
                   size_jitter=0.0)
    return validate_world(WorldSpec(scene_names=["s"], categories=[cat], height=4, width=4,
                                    channels=2, noise_sigma=0.3, scene_bias=np.zeros((1, 2)),
                                    objects_per_scene=(1, 1)))


@settings(max_examples=80, deadline=None)
@given(world=small_worlds(), seed=hst.integers(0, 2**32 - 1), index=hst.integers(0, 2**20))
@example(world=grid_wide_world(), seed=0, index=0)
def test_sample_at_matches_scalar_oracle(world, seed, index):
    # bit for bit: grid bytes, scene type, boxes and categories
    events = {}
    for i in range(index, index + 3):
        assert_scene_matches_oracle(world, seed, i, events)
    for name in events:
        event(name)


def test_oracle_comparison_meets_skips_and_fallbacks():
    world = crowded_world()
    events = {}
    for i in range(30):
        assert_scene_matches_oracle(world, 3, i, events)
    assert events.get("skipped", 0) > 0 and events.get("fallback", 0) > 0


def test_sampling_is_deterministic_per_index():
    world = tiny_world(noise=0.3)
    a = sample_at(world, 42, 7)
    b = sample_at(world, 42, 7)
    assert np.array_equal(a.grid, b.grid)
    assert a.scene_type == b.scene_type
    assert len(a.gt) == len(b.gt)
    c = sample_at(world, 42, 8)
    assert not np.array_equal(a.grid, c.grid)


def test_generate_matches_indexwise_sampling():
    world = tiny_world(noise=0.1)
    scenes = generate(world, 5, 4)
    for i, s in enumerate(scenes):
        assert np.array_equal(s.grid, sample_at(world, 5, i).grid)
    with pytest.raises(ValueError):
        generate(world, 5, 0)


def test_noise_free_rasterization_exact():
    world = tiny_world(noise=0.0)
    for i in range(10):
        s = sample_at(world, 3, i)
        covered = np.zeros((12, 12), dtype=bool)
        for box, cat in gt_objects(s.gt):
            r0, r1, c0, c1 = cell_window(box.corners(), 12, 12)
            proto = world.categories[cat].prototype
            for r in range(r0, r1):
                for c in range(c0, c1):
                    assert np.array_equal(s.grid[r, c], proto)
                    covered[r, c] = True
        bias = world.scene_bias[s.scene_type]
        for r in range(12):
            for c in range(12):
                if not covered[r, c]:
                    assert np.array_equal(s.grid[r, c], bias)


def test_objects_never_share_cells():
    world = tiny_world(noise=0.2, n_objects=(3, 6))
    for i in range(30):
        s = sample_at(world, 9, i)
        seen = set()
        for box, _ in gt_objects(s.gt):
            r0, r1, c0, c1 = cell_window(box.corners(), 12, 12)
            cells = {(r, c) for r in range(r0, r1) for c in range(c0, c1)}
            assert not (cells & seen)
            seen |= cells


def test_cooccur_prob_one_always_places_partner():
    rule = CooccurRule(trigger=0, partner=2, prob=1.0, offset=(2.0, 0.0))
    world = tiny_world(noise=0.1, cooccur=[rule])
    for i in range(120):
        s = sample_at(world, 77, i)
        cats = s.gt["category"].tolist()
        if 0 in cats:
            assert 2 in cats


def test_default_world_fixture_shape():
    world = default_world()
    assert world.scene_names == ["river", "office"]
    assert world.num_categories == 6
    assert (world.height, world.width, world.channels) == (16, 16, 8)
    assert world.objects_per_scene == (2, 5)
    assert world.categories[BOAT].scene_affinity[0] == pytest.approx(0.95)
    assert world.categories[BOAT].scene_affinity[1] == pytest.approx(0.05)
    assert world.categories[CAR].scene_affinity[0] == pytest.approx(0.05)
    assert world.categories[CAR].scene_affinity[1] == pytest.approx(0.95)
    assert (BOAT, CAR) in world.ambiguous_pairs
    rules = {(r.trigger, r.partner): r.prob for r in world.cooccur}
    assert rules[(LAPTOP, MOUSE)] == pytest.approx(0.9)
    # the ambiguous prototypes are the same vector by construction
    assert np.array_equal(world.categories[BOAT].prototype,
                          world.categories[CAR].prototype)


def test_default_world_cooccurrence_monte_carlo():
    world = default_world()
    laptops = mice = 0
    for i in range(1000):
        cats = sample_at(world, 1234, i).gt["category"].tolist()
        laptops += cats.count(LAPTOP)
        mice += cats.count(MOUSE)
    assert laptops > 0
    assert mice / laptops == pytest.approx(0.9, abs=0.03)


def test_default_world_category_balance():
    world = default_world()
    present = np.zeros(6)
    n = 1000
    for i in range(n):
        for c in set(sample_at(world, 55, i).gt["category"].tolist()):
            present[c] += 1
    assert np.all(present / n >= 0.05)


def test_scene_signal_lives_only_in_background():
    # same seed index, both scene biases: interior distributions identical
    world = default_world()
    s = sample_at(world, 8, 3)
    bias = world.scene_bias[s.scene_type]
    assert bias.max() == pytest.approx(0.4)
    covered = np.zeros((16, 16), dtype=bool)
    for box, _ in gt_objects(s.gt):
        r0, r1, c0, c1 = cell_window(box.corners(), 16, 16)
        covered[r0:r1, c0:c1] = True
    bg = s.grid[~covered]
    # background mean tracks the bias vector within noise
    assert np.allclose(bg.mean(axis=0), bias, atol=0.1)


def test_validate_world_rejects_bad_specs():
    w = tiny_world()
    w.categories[0].scene_affinity = np.array([1.5, 0.0])
    with pytest.raises(ValueError):
        validate_world(w)
    w2 = tiny_world()
    w2.ambiguous_pairs = [(0, 1)]  # prototypes differ
    with pytest.raises(ValueError):
        validate_world(w2)
    w3 = tiny_world()
    w3.height = 2
    with pytest.raises(ValueError):
        validate_world(w3)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("path, value, message", [
    (("categories", 0, "size_jitter"), -0.1, r"boat: size_jitter must be in \[0, 1\)"),
    (("categories", 0, "size_jitter"), 1.0, r"boat: size_jitter must be in \[0, 1\)"),
    (("categories", 0, "size_jitter"), NAN, r"boat: size_jitter must be in \[0, 1\)"),
    (("categories", 0, "size_jitter"), "x", "boat: size_jitter must be a number"),
    (("categories", 1, "size"), [3.0], "car: size must have exactly 2 entries"),
    (("categories", 1, "size"), [3.0, 2.0, 1.0], "car: size must have exactly 2 entries"),
    (("categories", 1, "size"), 3.0, "car: size must be a JSON array"),
    (("categories", 1, "size"), [3.0, 0.0], "car: sizes must be positive"),
    (("categories", 1, "size"), [INF, 2.0], "car: size must be finite"),
    (("categories", 1, "size"), [NAN, 2.0], "car: size must be finite"),
    (("categories", 1, "size"), [True, 2.0], "car: size must be a number"),
    (("categories", 2, "scene_affinity"), [NAN, 0.5], "laptop: scene_affinity"),
    (("categories", 2, "prototype"), {"x": 1}, "laptop: prototype must be an array of numbers"),
    (("categories", 2, "prototype"), ["x"] * 8, "laptop: prototype must be an array of numbers"),
    (("categories", 2, "prototype"), [INF] * 8, "laptop: prototype must have 8 finite"),
    (("categories", 2, "name"), 7, "category names must be strings"),
    (("noise_sigma",), -0.25, "noise_sigma must be finite and >= 0"),
    (("noise_sigma",), INF, "noise_sigma must be finite and >= 0"),
    (("noise_sigma",), NAN, "noise_sigma must be finite and >= 0"),
    (("noise_sigma",), None, "noise_sigma must be a number"),
    (("cooccur", 0, "jitter"), -0.5, "cooccur jitter must be finite and >= 0"),
    (("cooccur", 0, "jitter"), NAN, "cooccur jitter must be finite and >= 0"),
    (("cooccur", 0, "offset"), [2.5], "cooccur offset must have exactly 2 entries"),
    (("cooccur", 0, "trigger"), 1.0, "cooccur trigger must be an integer"),
    (("cooccur", 0, "prob"), NAN, r"cooccur probability out of \[0,1\]"),
    (("objects_per_scene",), [-1, 3], "objects_per_scene must have 0 <= low <= high"),
    (("objects_per_scene",), [4, 3], "objects_per_scene must have 0 <= low <= high"),
    (("objects_per_scene",), [2.0, 5], "objects_per_scene must be an integer"),
    (("height",), 16.0, "height must be an integer"),
    (("scene_names",), "ab", "world scene_names must be a JSON array"),
    (("scene_bias",), [[0.0] * 8, [NAN] * 8], "scene_bias must be a finite"),
    (("ambiguous_pairs",), [[0, 9]], "references an unknown category"),
    (("ambiguous_pairs",), [[0]], "ambiguous pair must have exactly 2 entries"),
    (("categories",), 5, "world categories must be a JSON array"),
    (("categories", 0), [1], "world category must be a JSON object"),
    (("noise_sigms",), 0.3, r"world has unknown keys \['noise_sigms'\]"),
    (("categories", 0, "size_jiter"), 0.5, r"world category has unknown keys \['size_jiter'\]"),
    (("cooccur", 1, "ofset"), [1.0, 0.0], r"world cooccur rule has unknown keys \['ofset'\]"),
])
def test_world_from_dict_rejects_malformed_worlds(path, value, message):
    # each of these used to fail only while scenes were drawn, or with a
    # TypeError, IndexError or AttributeError instead of a ValueError
    d = world_to_dict(default_world())
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValueError, match=message):
        world_from_dict(d)


@pytest.mark.parametrize("path", [("scene_names",), ("categories", 0, "prototype"),
                                  ("cooccur", 1, "prob")])
def test_world_from_dict_names_a_missing_key(path):
    d = world_to_dict(default_world())
    target = d
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    with pytest.raises(ValueError, match=f"is missing '{path[-1]}'"):
        world_from_dict(d)


def test_validate_world_rejects_a_scene_type_without_categories():
    world = tiny_world()
    for cat in world.categories:
        cat.scene_affinity = np.array([0.0, 0.5])
    with pytest.raises(ValueError, match=r"scene types \['s0'\] have no placeable category"):
        validate_world(world)


def test_world_dict_round_trip_and_hash():
    world = default_world()
    d = world_to_dict(world)
    json.dumps(d)  # serializable
    back = world_from_dict(d)
    assert world_hash(back) == world_hash(world)
    assert len(world_hash(world)) == 16
    d2 = world_to_dict(world)
    d2["noise_sigma"] = 0.3
    assert world_hash(world_from_dict(d2)) != world_hash(world)


def test_default_world_hash_is_pinned():
    # datasets carry the hash of their world; if the default world's hash
    # moved, every existing default-world dataset would need
    # --allow-world-mismatch
    assert world_hash(default_world()) == "cfb4c02e010c77d0"


@pytest.mark.parametrize("path, spellings", [
    (("categories", 0, "size"), ([2, 3], [2.0, 3.0])),
    (("categories", 0, "size_jitter"), (0, 0.0)),
    (("cooccur", 0, "prob"), (1, 1.0)),
    (("cooccur", 0, "offset"), ([3, 0], [3.0, 0.0])),
    (("cooccur", 0, "jitter"), (0, 0.0)),
    (("noise_sigma",), (0, 0.0)),
])
def test_world_hash_ignores_float_spelling(path, spellings):
    # one world, one hash: an integer spelling of a float field is the same
    # world as its float spelling
    hashes = set()
    for value in spellings:
        d = world_to_dict(default_world())
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        hashes.add(world_hash(world_from_dict(d)))
    assert len(hashes) == 1


def test_dataset_round_trip(tmp_path):
    world = tiny_world(noise=0.2)
    scenes = generate(world, 11, 6)
    path = tmp_path / "d.jsonl"
    save_dataset(path, scenes, world)
    back, header = load_dataset(path, world, world_hash(world))
    assert len(back) == 6
    for a, b in zip(scenes, back):
        assert np.allclose(a.grid, b.grid, atol=1e-12)
        assert a.scene_type == b.scene_type
        assert a.gt.dtype == b.gt.dtype and a.gt.tobytes() == b.gt.tobytes()

    assert header == dataset_header(world)


def test_dataset_hash_mismatch_handling(tmp_path):
    world = tiny_world(noise=0.2)
    other = tiny_world(noise=0.3)
    path = tmp_path / "d.jsonl"
    save_dataset(path, generate(world, 1, 2), world)
    with pytest.raises(ValueError) as err:
        load_dataset(path, world, world_hash(other))
    # the error and the warning name the file once, first
    assert str(err.value).startswith(f"{path}: dataset world hash ")
    assert str(err.value).count(str(path)) == 1
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        out, _ = load_dataset(path, world, world_hash(other), allow_mismatch=True)
    assert len(out) == 2
    assert any("hash" in str(w.message).lower() for w in rec)
    assert any(str(w.message).startswith(f"{path}: dataset world hash ") for w in rec)
