"""Synthetic contextual scenes.

Each scene is an H x W grid of C-channel cells. Object identity is painted
only into the cells a box covers (appearance prototype + noise) while every
background cell carries a per-scene-type bias vector + noise, so appearance
alone can never reveal the scene. Ambiguous category pairs share one
prototype: telling them apart requires either the scene signal or the company
they keep (co-occurrence partners).
"""

import bisect
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .inputs import VALUE, checked, decode_json, elements, members, reading

# placement attempts per object before it is skipped
PLACE_TRIES = 100

# One row per ground-truth object of a scene: its center-size box and its
# category. A scene's rows are in placement order.
GT_DTYPE = np.dtype([("box", np.float64, (4,)), ("category", np.intp)])


@dataclass
class Category:
    name: str
    prototype: np.ndarray          # (C,) appearance written into covered cells
    scene_affinity: np.ndarray     # per-scene-type placement weight, in [0, 1]
    size: tuple = (2.0, 2.0)       # mean (w, h) in grid units
    size_jitter: float = 0.15      # multiplicative, uniform in [1-j, 1+j]


@dataclass
class CooccurRule:
    """With probability `prob`, placing `trigger` also places `partner` at
    trigger center +- offset (sign drawn per axis) + gaussian jitter."""

    trigger: int
    partner: int
    prob: float
    offset: tuple = (2.5, 0.0)
    jitter: float = 0.75


@dataclass
class WorldSpec:
    scene_names: list
    categories: list
    cooccur: list = field(default_factory=list)
    ambiguous_pairs: list = field(default_factory=list)
    height: int = 16
    width: int = 16
    channels: int = 8
    noise_sigma: float = 0.25
    scene_bias: np.ndarray = None  # (num_scene_types, C) background vectors
    objects_per_scene: tuple = (2, 5)

    @property
    def num_scene_types(self):
        return len(self.scene_names)

    @property
    def num_categories(self):
        return len(self.categories)


@dataclass
class SceneSample:
    """One scene: its cell grid, scene type and ground truth. The hot loops
    (proposals, targets, objectness labels, matching) read the gt fields in
    place."""

    grid: np.ndarray       # (H, W, C)
    scene_type: int
    gt: np.ndarray         # (G,) GT_DTYPE rows


def validate_world(world):
    """Enforce the structural invariants, so that no malformed world fails
    only while its scenes are drawn; raises ValueError on violation."""
    for key in ("height", "width", "channels"):
        checked(getattr(world, key), int, key)
    if world.height < 4 or world.width < 4:
        raise ValueError("grid must be at least 4x4")
    if world.channels < 2:
        raise ValueError("need at least 2 channels")
    if len(elements(world.scene_names, str, "world scene_names")) < 1:
        raise ValueError("need at least one scene type")
    if not 0.0 <= checked(world.noise_sigma, float, "noise_sigma") < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {world.noise_sigma!r}")
    lo, hi = elements(world.objects_per_scene, int, "objects_per_scene", 2)
    if not 0 <= lo <= hi:
        raise ValueError(f"objects_per_scene must have 0 <= low <= high, got {(lo, hi)}")
    for cat in world.categories:
        if not isinstance(cat.name, str):
            raise ValueError(f"category names must be strings, got {cat.name!r}")
        proto = np.asarray(cat.prototype, dtype=np.float64)
        if proto.shape != (world.channels,) or not np.isfinite(proto).all():
            raise ValueError(f"{cat.name}: prototype must have {world.channels} finite channels")
        aff = np.asarray(cat.scene_affinity, dtype=np.float64)
        if aff.shape != (world.num_scene_types,) or not np.all((aff >= 0) & (aff <= 1)):
            raise ValueError(f"{cat.name}: scene_affinity must be per-scene-type probabilities")
        if not all(map(math.isfinite, elements(cat.size, float, f"{cat.name}: size", 2))):
            raise ValueError(f"{cat.name}: size must be finite, got {cat.size!r}")
        if min(cat.size) <= 0:
            raise ValueError(f"{cat.name}: sizes must be positive")
        if not 0.0 <= checked(cat.size_jitter, float, f"{cat.name}: size_jitter") < 1.0:
            raise ValueError(f"{cat.name}: size_jitter must be in [0, 1), got {cat.size_jitter!r}")
    empty = [name for s, name in enumerate(world.scene_names)
             if not any(c.scene_affinity[s] > 0 for c in world.categories)]
    if empty:
        raise ValueError(f"scene types {empty} have no placeable category")
    for rule in world.cooccur:
        if not (0 <= checked(rule.trigger, int, "cooccur trigger") < world.num_categories
                and 0 <= checked(rule.partner, int, "cooccur partner") < world.num_categories):
            raise ValueError("cooccur rule references an unknown category")
        if not (0.0 <= checked(rule.prob, float, "cooccur prob") <= 1.0):
            raise ValueError("cooccur probability out of [0,1]")
        if not all(map(math.isfinite, elements(rule.offset, float, "cooccur offset", 2))):
            raise ValueError(f"cooccur offset must be finite, got {rule.offset!r}")
        if not 0.0 <= checked(rule.jitter, float, "cooccur jitter") < math.inf:
            raise ValueError(f"cooccur jitter must be finite and >= 0, got {rule.jitter!r}")
    for pair in checked(world.ambiguous_pairs, list, "ambiguous_pairs"):
        a, b = elements(pair, int, "ambiguous pair", 2)
        if not (0 <= a < world.num_categories and 0 <= b < world.num_categories):
            raise ValueError(f"ambiguous pair {pair!r} references an unknown category")
        pa = np.asarray(world.categories[a].prototype)
        pb = np.asarray(world.categories[b].prototype)
        if not np.array_equal(pa, pb):
            raise ValueError(
                f"ambiguous pair ({world.categories[a].name}, {world.categories[b].name}) "
                "must share one appearance prototype")
    bias = np.asarray(world.scene_bias, dtype=np.float64)
    if bias.shape != (world.num_scene_types, world.channels) or not np.isfinite(bias).all():
        raise ValueError("scene_bias must be a finite (num_scene_types, channels) array")
    return world


def _centers_below(v, n):
    """How many of the n cell centers i + 0.5 are < v (v not NaN). Between
    the first and the last center, v - 0.5 is exact, so the ceiling is too."""
    return 0 if v <= 0.5 else n if v > n - 0.5 else math.ceil(v - 0.5)


def cell_window(corners, height, width):
    """(r0, r1, c0, c1): half-open row and column bounds of the cells whose
    centers fall inside the box with corners (x1, y1, x2, y2) (center >= low
    edge, < high edge). The window covers no cell when r1 == r0 or c1 == c0."""
    x1, y1, x2, y2 = corners
    if not (x1 <= x2 and y1 <= y2):    # a NaN corner covers no cell
        return 0, 0, 0, 0
    return (_centers_below(y1, height), _centers_below(y2, height),
            _centers_below(x1, width), _centers_below(x2, width))


class _Draws:
    """What every scene draw of one world reads, built once: each category's
    mean size and size span, the rules each category triggers, in rule
    order, the prototypes and the background biases as arrays, rows[k], the
    bitmask that repeats a row's column bits over k rows, and each scene
    type's category cdf, built at the type's first draw."""

    def __init__(self, world):
        self.world = world
        self.cdfs = {}
        self.sizes = [(cat.size[0], cat.size[1], 1.0 - cat.size_jitter,
                       (1.0 + cat.size_jitter) - (1.0 - cat.size_jitter))
                      for cat in world.categories]
        self.rules = [[rule for rule in world.cooccur if rule.trigger == cat_id]
                      for cat_id in range(world.num_categories)]
        self.prototypes = [np.asarray(cat.prototype, dtype=np.float64)
                           for cat in world.categories]
        self.bias = np.asarray(world.scene_bias)
        self.rows = [((1 << (world.width * k)) - 1) // ((1 << world.width) - 1)
                     for k in range(world.height + 1)]

    def cdf(self, scene_type):
        """The cumulative category weights of a scene type, as a list."""
        if scene_type not in self.cdfs:
            world = self.world
            weights = np.array([c.scene_affinity[scene_type] for c in world.categories],
                               dtype=np.float64)
            total = weights.sum()
            if total <= 0:
                raise ValueError(f"scene type {scene_type} has no placeable category")
            # a category as Generator.choice(K, p=weights / total) draws it: one
            # rng.random() searched (side right) in the cumsum divided by its last
            cdf = (weights / total).cumsum()
            self.cdfs[scene_type] = (cdf / cdf[-1]).tolist()
        return self.cdfs[scene_type]


def _place_object(draws, rng, cat_id, occupied, anchor=None, rule=None):
    """Rejection-sample a placement of category `cat_id`, near the placed
    `anchor` (cx, cy, ...) when given, on cells free in `occupied`, the int
    bitmask of the grid's cells (cell (r, c) is bit r * width + c):
    (cx, cy, w, h, cell window, bitmask of its cells), or None after
    PLACE_TRIES failures (skip). Runs on floats: each uniform draw is
    lo + (hi - lo) * rng.random(), the float operations of Generator.uniform."""
    height, width = draws.world.height, draws.world.width
    size_w, size_h, lo, span = draws.sizes[cat_id]
    random = rng.random
    for _ in range(PLACE_TRIES):
        if anchor is not None:
            sx = 1.0 if random() < 0.5 else -1.0
            sy = 1.0 if random() < 0.5 else -1.0
            cx = anchor[0] + sx * rule.offset[0] + rng.normal(0.0, rule.jitter)
            cy = anchor[1] + sy * rule.offset[1] + rng.normal(0.0, rule.jitter)
        w = size_w * (lo + span * random())
        h = size_h * (lo + span * random())
        half_w, half_h = w / 2.0, h / 2.0
        if half_w > width / 2.0 or half_h > height / 2.0:
            continue
        if anchor is None:
            cx = half_w + ((width - half_w) - half_w) * random()
            cy = half_h + ((height - half_h) - half_h) * random()
        elif not (half_w <= cx <= width - half_w and half_h <= cy <= height - half_h):
            continue
        # cell_window of the box, inline
        x1, y1, x2, y2 = cx - half_w, cy - half_h, cx + half_w, cy + half_h
        if not (x1 <= x2 and y1 <= y2):
            continue
        r0 = 0 if y1 <= 0.5 else height if y1 > height - 0.5 else math.ceil(y1 - 0.5)
        r1 = 0 if y2 <= 0.5 else height if y2 > height - 0.5 else math.ceil(y2 - 0.5)
        c0 = 0 if x1 <= 0.5 else width if x1 > width - 0.5 else math.ceil(x1 - 0.5)
        c1 = 0 if x2 <= 0.5 else width if x2 > width - 0.5 else math.ceil(x2 - 0.5)
        cells = ((1 << c1) - (1 << c0)) * draws.rows[r1 - r0] << (width * r0)
        if cells and not occupied & cells:
            return cx, cy, w, h, (r0, r1, c0, c1), cells
    if anchor is not None:
        # a partner that cannot fit near its trigger still has to exist
        # somewhere, or measured co-occurrence drifts below the rule's
        # probability; drop the offset and take any free spot
        return _place_object(draws, rng, cat_id, occupied)
    return None


def _sample_scene(draws, rng):
    """Draw one scene of draws.world from the per-sample RNG stream."""
    world = draws.world
    scene_type = int(rng.integers(world.num_scene_types))
    cdf = draws.cdf(scene_type)

    lo, hi = world.objects_per_scene
    count = int(rng.integers(lo, hi + 1))
    occupied = 0
    placed = []                             # ((cx, cy, w, h, cell window, cells), category)
    for _ in range(count):
        cat_id = bisect.bisect_right(cdf, rng.random())
        got = _place_object(draws, rng, cat_id, occupied)
        if got is not None:
            occupied |= got[5]
            placed.append((got, cat_id))
    # partners trigger their own rules (a chained partner gets its partner),
    # capped at depth 2 so a rule set can never loop forever
    pending = [(got, cat_id, 0) for got, cat_id in placed]
    while pending:
        anchor, cat_id, depth = pending.pop(0)
        if depth >= 2:
            continue
        for rule in draws.rules[cat_id]:
            if rng.random() >= rule.prob:
                continue
            got = _place_object(draws, rng, rule.partner, occupied, anchor=anchor, rule=rule)
            if got is not None:
                occupied |= got[5]
                placed.append((got, rule.partner))
                pending.append((got, rule.partner, depth + 1))

    # one normal draw, split in painting order: the background, then each object
    shape = (world.height, world.width, world.channels)
    windows = [got[4] for got, _ in placed]
    sizes = [(r1 - r0) * (c1 - c0) * shape[2] for r0, r1, c0, c1 in windows]
    at = math.prod(shape)
    noise = rng.normal(0.0, world.noise_sigma, size=at + sum(sizes))
    grid = draws.bias[scene_type] + noise[:at].reshape(shape)
    for (r0, r1, c0, c1), (_, cat_id), size in zip(windows, placed, sizes):
        grid[r0:r1, c0:c1] = (draws.prototypes[cat_id]
                              + noise[at:at + size].reshape(r1 - r0, c1 - c0, shape[2]))
        at += size
    gt = np.array([(got[:4], cat_id) for got, cat_id in placed], dtype=GT_DTYPE)
    return SceneSample(grid=grid, scene_type=scene_type, gt=gt)


def scene_sampler(world):
    """sample_at for one world, as a function of (seed, index) that builds
    what every draw of the world reads only once (_Draws)."""
    draws = _Draws(world)

    def sample(seed, index):
        seq = np.random.SeedSequence([int(seed), int(index)])
        return _sample_scene(draws, np.random.Generator(np.random.PCG64(seq)))
    return sample


def sample_at(world, seed, index):
    """Sample `index` of the stream keyed by `seed`; depends on nothing else,
    so generation parallelizes without changing output."""
    return scene_sampler(world)(seed, index)


def generate(world, seed, n):
    """n deterministic scenes for (world, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    validate_world(world)
    sample = scene_sampler(world)
    return [sample(seed, i) for i in range(n)]


# ---------------------------------------------------------------------------
# the default two-scene fixture

BOAT, CAR, LAPTOP, MOUSE, ROCK, PLANT = range(6)


def default_world():
    """Two scene types (river / office), six categories, one ambiguous pair
    (boat, car) split across the scenes, and laptops that attract mice.

    Boats moor next to rocks and cars park next to laptops, so the ambiguous
    pair is separable two independent ways: by the scene background, or by
    the category of the object sitting beside it. The second route is what
    object-object edges can exploit when the scene node is disabled."""
    c = 8
    proto = np.zeros((5, c))
    for k in range(5):
        proto[k, k] = 1.0
    shared = proto[0]  # boat and car are indistinguishable by appearance
    cats = [
        Category("boat", shared, np.array([0.95, 0.05]), size=(3.0, 2.0)),
        Category("car", shared, np.array([0.05, 0.95]), size=(3.0, 2.0)),
        Category("laptop", proto[1], np.array([0.05, 0.95]), size=(2.6, 2.0)),
        Category("mouse", proto[2], np.array([0.0, 0.0]), size=(1.4, 1.2)),
        Category("rock", proto[3], np.array([0.90, 0.10]), size=(2.4, 2.4)),
        Category("plant", proto[4], np.array([0.50, 0.50]), size=(2.0, 2.8)),
    ]
    bias = np.zeros((2, c))
    bias[0, 6] = 0.4   # river background
    bias[1, 7] = 0.4   # office background
    world = WorldSpec(
        scene_names=["river", "office"],
        categories=cats,
        cooccur=[CooccurRule(trigger=LAPTOP, partner=MOUSE, prob=0.9,
                             offset=(2.5, 0.0), jitter=0.75),
                 CooccurRule(trigger=BOAT, partner=ROCK, prob=0.85,
                             offset=(3.2, 0.0), jitter=0.75),
                 CooccurRule(trigger=CAR, partner=LAPTOP, prob=0.85,
                             offset=(3.2, 0.0), jitter=0.75)],
        ambiguous_pairs=[(BOAT, CAR)],
        height=16, width=16, channels=c,
        noise_sigma=0.25,
        scene_bias=bias,
        objects_per_scene=(2, 5),
    )
    return validate_world(world)


WORLD_FIXTURES = {"default": default_world}


# ---------------------------------------------------------------------------
# serialization

def world_to_dict(world):
    return {
        "scene_names": list(world.scene_names),
        "categories": [
            {
                "name": c.name,
                "prototype": np.asarray(c.prototype).tolist(),
                "scene_affinity": np.asarray(c.scene_affinity).tolist(),
                "size": [float(v) for v in c.size],
                "size_jitter": float(c.size_jitter),
            }
            for c in world.categories
        ],
        "cooccur": [
            {"trigger": r.trigger, "partner": r.partner, "prob": float(r.prob),
             "offset": [float(v) for v in r.offset], "jitter": float(r.jitter)}
            for r in world.cooccur
        ],
        "ambiguous_pairs": [list(p) for p in world.ambiguous_pairs],
        "height": world.height,
        "width": world.width,
        "channels": world.channels,
        "noise_sigma": float(world.noise_sigma),
        "scene_bias": np.asarray(world.scene_bias).tolist(),
        "objects_per_scene": list(world.objects_per_scene),
    }


def world_from_dict(d):
    """The validated WorldSpec of a JSON world; ValueError names the first
    missing, unknown or mistyped key. Its arrays of numbers become float64
    ndarrays; validate_world checks every other value."""
    members(d, "world", ("scene_names", "categories", "height", "width", "channels",
                         "noise_sigma", "scene_bias"),
            ("cooccur", "ambiguous_pairs", "objects_per_scene"))
    cats = [members(c, "world category", ("name", "prototype", "scene_affinity"),
                    ("size", "size_jitter"))
            for c in checked(d["categories"], list, "world categories")]
    rules = [members(r, "world cooccur rule", ("trigger", "partner", "prob"), ("offset", "jitter"))
             for r in checked(d.get("cooccur", []), list, "world cooccur")]

    def floats(v, what):
        try:
            return np.array(elements(v, float, what), dtype=np.float64)
        except ValueError:
            raise ValueError(f"{what} must be an array of numbers, got {v!r}") from None

    world = WorldSpec(
        scene_names=d["scene_names"],
        categories=[
            Category(c["name"], floats(c["prototype"], f"{c['name']}: prototype"),
                     floats(c["scene_affinity"], f"{c['name']}: scene_affinity"),
                     size=c.get("size", (2.0, 2.0)), size_jitter=c.get("size_jitter", 0.15))
            for c in cats
        ],
        cooccur=[CooccurRule(r["trigger"], r["partner"], r["prob"],
                             offset=r.get("offset", (2.5, 0.0)), jitter=r.get("jitter", 0.75))
                 for r in rules],
        ambiguous_pairs=d.get("ambiguous_pairs", []),
        height=d["height"], width=d["width"], channels=d["channels"],
        noise_sigma=d["noise_sigma"],
        scene_bias=np.array([floats(row, "world scene_bias")
                             for row in checked(d["scene_bias"], list, "world scene_bias")]),
        objects_per_scene=d.get("objects_per_scene", (2, 5)),
    )
    return validate_world(world)


def world_hash(world):
    blob = json.dumps(world_to_dict(world), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def dataset_header(world):
    return {
        "world_hash": world_hash(world),
        "h": world.height,
        "w": world.width,
        "c": world.channels,
        "num_categories": world.num_categories,
    }


def save_dataset(path, samples, world):
    """JSON Lines: a header line, then one scene per line. Grids are flattened
    row-major with the channel index fastest."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(dataset_header(world), sort_keys=True) + "\n")
        for s in samples:
            rec = {
                "scene_type": s.scene_type,
                "grid": s.grid.ravel(order="C").tolist(),
                "gt": [
                    {"cx": cx, "cy": cy, "w": w, "h": h, "cat": cat}
                    for (cx, cy, w, h), cat in zip(s.gt["box"].tolist(),
                                                   s.gt["category"].tolist())
                ],
            }
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def load_dataset(path, world, expected_world_hash, allow_mismatch=False):
    """Read back a dataset of scenes for `world`; returns (samples, header).

    A world-hash mismatch against `expected_world_hash` is fatal unless
    allow_mismatch is set, in which case it only warns. A header whose h, w,
    c or num_categories differs from the world's is fatal, and so is a scene
    type outside [0, num_scene_types). FileError, path first, for a file
    that cannot be read or used.
    """
    with reading(path):
        with open(path, "rb") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty dataset file")
        header = members(decode_json(lines[0], "header"), "header",
                         ("world_hash", "h", "w", "c", "num_categories"))
        if checked(header["world_hash"], str, "header world_hash") != expected_world_hash:
            msg = (f"dataset world hash {header['world_hash']} does not match "
                   f"the configured world {expected_world_hash}")
            if not allow_mismatch:
                raise ValueError(msg + " (pass the mismatch override to proceed)")
            warnings.warn(f"{path}: {msg}")
        for key, want in dataset_header(world).items():
            if key != "world_hash" and checked(header[key], int, f"header {key}") != want:
                raise ValueError(f"header {key} is {header[key]!r}, but the world has {want}")
        if len(lines) == 1:
            raise ValueError("no scenes after the header")
        samples = []
        for i, ln in enumerate(lines[1:], start=1):
            rec = decode_json(ln, f"line {i}")
            try:
                samples.append(_parse_record(rec, header, world.num_scene_types))
            except ValueError as e:
                raise ValueError(f"line {i}: {e}") from None
        return samples, header


def _parse_record(rec, header, num_scene_types):
    """One scene line as a SceneSample; ValueError names a missing field or
    a bad value."""
    members(rec, "scene", ("scene_type", "grid", "gt"), (), VALUE)
    h, w, c, k = header["h"], header["w"], header["c"], header["num_categories"]
    grid = np.array(elements(rec["grid"], float, "grid value", words=VALUE), dtype=np.float64)
    if grid.size != h * w * c:
        raise ValueError(f"grid has {grid.size} values, expected {h * w * c}")
    if not np.isfinite(grid).all():
        raise ValueError("grid has a NaN or inf cell")
    gt = []
    for o in checked(rec["gt"], list, "gt", VALUE):
        members(o, "gt box", ("cx", "cy", "w", "h", "cat"), (), VALUE)
        coords = [float(checked(o[f], float, "gt coordinate", VALUE))
                  for f in ("cx", "cy", "w", "h")]
        if not np.isfinite(coords).all():
            raise ValueError(f"gt box {coords} is not finite")
        if not (coords[2] > 0 and coords[3] > 0):
            raise ValueError(f"box sides must be positive, got w={coords[2]}, h={coords[3]}")
        if not 0 <= checked(o["cat"], int, "gt category", VALUE) < k:
            raise ValueError(f"gt category {o['cat']} is outside [0, {k})")
        gt.append((coords, o["cat"]))
    if not 0 <= checked(rec["scene_type"], int, "scene type", VALUE) < num_scene_types:
        raise ValueError(f"scene type {rec['scene_type']} is outside [0, {num_scene_types})")
    return SceneSample(grid=grid.reshape(h, w, c), gt=np.array(gt, dtype=GT_DTYPE),
                       scene_type=rec["scene_type"])
