"""Synthetic contextual scenes.

Each scene is an H x W grid of C-channel cells. Object identity is painted
only into the cells a box covers (appearance prototype + noise) while every
background cell carries a per-scene-type bias vector + noise, so appearance
alone can never reveal the scene. Ambiguous category pairs share one
prototype: telling them apart requires either the scene signal or the company
they keep (co-occurrence partners).
"""

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box

# placement attempts per object before it is skipped
PLACE_TRIES = 100


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
class GtObject:
    box: Box
    category: int


@dataclass
class SceneSample:
    grid: np.ndarray       # (H, W, C)
    scene_type: int
    gt: list               # of GtObject


def validate_world(world):
    """Enforce the structural invariants; raises ValueError on violation."""
    if world.height < 4 or world.width < 4:
        raise ValueError("grid must be at least 4x4")
    if world.channels < 2:
        raise ValueError("need at least 2 channels")
    if world.num_scene_types < 1:
        raise ValueError("need at least one scene type")
    for cat in world.categories:
        proto = np.asarray(cat.prototype, dtype=np.float64)
        if proto.shape != (world.channels,):
            raise ValueError(f"{cat.name}: prototype must have {world.channels} channels")
        aff = np.asarray(cat.scene_affinity, dtype=np.float64)
        if aff.shape != (world.num_scene_types,) or np.any(aff < 0) or np.any(aff > 1):
            raise ValueError(f"{cat.name}: scene_affinity must be per-scene-type probabilities")
        if cat.size[0] <= 0 or cat.size[1] <= 0:
            raise ValueError(f"{cat.name}: sizes must be positive")
    for rule in world.cooccur:
        if not (0.0 <= rule.prob <= 1.0):
            raise ValueError("cooccur probability out of [0,1]")
        if not (0 <= rule.trigger < world.num_categories
                and 0 <= rule.partner < world.num_categories):
            raise ValueError("cooccur rule references an unknown category")
    for a, b in world.ambiguous_pairs:
        pa = np.asarray(world.categories[a].prototype)
        pb = np.asarray(world.categories[b].prototype)
        if not np.array_equal(pa, pb):
            raise ValueError(
                f"ambiguous pair ({world.categories[a].name}, {world.categories[b].name}) "
                "must share one appearance prototype")
    bias = np.asarray(world.scene_bias, dtype=np.float64)
    if bias.shape != (world.num_scene_types, world.channels):
        raise ValueError("scene_bias must be (num_scene_types, channels)")
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


def _try_place(world, rng, cat_id, occupied, center=None):
    """One placement attempt; returns (box, cell window) or None."""
    cat = world.categories[cat_id]
    j = cat.size_jitter
    w = cat.size[0] * rng.uniform(1.0 - j, 1.0 + j)
    h = cat.size[1] * rng.uniform(1.0 - j, 1.0 + j)
    if w / 2.0 > world.width / 2.0 or h / 2.0 > world.height / 2.0:
        return None
    if center is None:
        cx = rng.uniform(w / 2.0, world.width - w / 2.0)
        cy = rng.uniform(h / 2.0, world.height - h / 2.0)
    else:
        cx, cy = center
        if not (w / 2.0 <= cx <= world.width - w / 2.0
                and h / 2.0 <= cy <= world.height - h / 2.0):
            return None
    box = Box(cx, cy, w, h)
    r0, r1, c0, c1 = win = cell_window(box.corners(), world.height, world.width)
    if r1 == r0 or c1 == c0 or occupied[r0:r1, c0:c1].any():
        return None
    return box, win


def _place_object(world, rng, cat_id, occupied, anchor=None, rule=None):
    """Rejection-sample a placement and mark its cells in the (H, W) bool
    `occupied`; (box, cell window), or None after PLACE_TRIES failures
    (skip)."""
    for _ in range(PLACE_TRIES):
        center = None
        if anchor is not None:
            sx = 1.0 if rng.uniform() < 0.5 else -1.0
            sy = 1.0 if rng.uniform() < 0.5 else -1.0
            center = (anchor.cx + sx * rule.offset[0] + rng.normal(0.0, rule.jitter),
                      anchor.cy + sy * rule.offset[1] + rng.normal(0.0, rule.jitter))
        placed = _try_place(world, rng, cat_id, occupied, center)
        if placed is not None:
            r0, r1, c0, c1 = placed[1]
            occupied[r0:r1, c0:c1] = True
            return placed
    if anchor is not None:
        # a partner that cannot fit near its trigger still has to exist
        # somewhere, or measured co-occurrence drifts below the rule's
        # probability; drop the offset and take any free spot
        return _place_object(world, rng, cat_id, occupied)
    return None


def sample_scene(world, rng):
    """Draw one scene from the per-sample RNG stream."""
    scene_type = int(rng.integers(world.num_scene_types))
    weights = np.array([c.scene_affinity[scene_type] for c in world.categories], dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise ValueError(f"scene type {scene_type} has no placeable category")
    weights = weights / total

    lo, hi = world.objects_per_scene
    count = int(rng.integers(lo, hi + 1))
    occupied = np.zeros((world.height, world.width), dtype=bool)
    placed = []                                      # (box, category, cell window)
    for _ in range(count):
        cat_id = int(rng.choice(world.num_categories, p=weights))
        got = _place_object(world, rng, cat_id, occupied)
        if got is not None:
            placed.append((got[0], cat_id, got[1]))
    # partners trigger their own rules (a chained partner gets its partner),
    # capped at depth 2 so a rule set can never loop forever
    pending = [(box, cat_id, 0) for box, cat_id, _ in placed]
    while pending:
        box, cat_id, depth = pending.pop(0)
        if depth >= 2:
            continue
        for rule in world.cooccur:
            if rule.trigger != cat_id:
                continue
            if rng.uniform() >= rule.prob:
                continue
            got = _place_object(world, rng, rule.partner, occupied, anchor=box, rule=rule)
            if got is not None:
                placed.append((got[0], rule.partner, got[1]))
                pending.append((got[0], rule.partner, depth + 1))

    grid = np.asarray(world.scene_bias)[scene_type] + \
        rng.normal(0.0, world.noise_sigma, size=(world.height, world.width, world.channels))
    for _, cat_id, (r0, r1, c0, c1) in placed:
        proto = np.asarray(world.categories[cat_id].prototype, dtype=np.float64)
        noise = rng.normal(0.0, world.noise_sigma, size=(r1 - r0, c1 - c0, world.channels))
        grid[r0:r1, c0:c1] = proto + noise
    gt = [GtObject(box=box, category=cat_id) for box, cat_id, _ in placed]
    return SceneSample(grid=grid, scene_type=scene_type, gt=gt)


def sample_at(world, seed, index):
    """Sample `index` of the stream keyed by `seed`; depends on nothing else,
    so generation parallelizes without changing output."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))
    return sample_scene(world, rng)


def generate(world, seed, n):
    """n deterministic scenes for (world, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    validate_world(world)
    return [sample_at(world, seed, i) for i in range(n)]


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
                "size": list(c.size),
                "size_jitter": c.size_jitter,
            }
            for c in world.categories
        ],
        "cooccur": [
            {"trigger": r.trigger, "partner": r.partner, "prob": r.prob,
             "offset": list(r.offset), "jitter": r.jitter}
            for r in world.cooccur
        ],
        "ambiguous_pairs": [list(p) for p in world.ambiguous_pairs],
        "height": world.height,
        "width": world.width,
        "channels": world.channels,
        "noise_sigma": world.noise_sigma,
        "scene_bias": np.asarray(world.scene_bias).tolist(),
        "objects_per_scene": list(world.objects_per_scene),
    }


def world_from_dict(d):
    world = WorldSpec(
        scene_names=list(d["scene_names"]),
        categories=[
            Category(c["name"], np.array(c["prototype"], dtype=np.float64),
                     np.array(c["scene_affinity"], dtype=np.float64),
                     size=tuple(c.get("size", (2.0, 2.0))),
                     size_jitter=c.get("size_jitter", 0.15))
            for c in d["categories"]
        ],
        cooccur=[
            CooccurRule(r["trigger"], r["partner"], r["prob"],
                        offset=tuple(r.get("offset", (2.5, 0.0))),
                        jitter=r.get("jitter", 0.75))
            for r in d.get("cooccur", [])
        ],
        ambiguous_pairs=[tuple(p) for p in d.get("ambiguous_pairs", [])],
        height=d["height"], width=d["width"], channels=d["channels"],
        noise_sigma=d["noise_sigma"],
        scene_bias=np.array(d["scene_bias"], dtype=np.float64),
        objects_per_scene=tuple(d.get("objects_per_scene", (2, 5))),
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
                    {"cx": o.box.cx, "cy": o.box.cy, "w": o.box.w, "h": o.box.h,
                     "cat": o.category}
                    for o in s.gt
                ],
            }
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def load_dataset(path, expected_world_hash=None, allow_mismatch=False, world=None):
    """Read a dataset back; returns (samples, header).

    A world-hash mismatch against `expected_world_hash` is fatal unless
    allow_mismatch is set, in which case it only warns. Given the `world`
    the scenes are for, a header whose h, w, c or num_categories differs
    from it is fatal, and so is a scene type outside [0, num_scene_types).
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    header = json.loads(lines[0])
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header must be a JSON object, got {lines[0].strip()}")
    for key in ("world_hash", "h", "w", "c", "num_categories"):
        if key not in header:
            raise ValueError(f"{path}: header is missing {key!r}")
    if expected_world_hash is not None and header["world_hash"] != expected_world_hash:
        msg = (f"{path}: dataset world hash {header['world_hash']} does not match "
               f"the configured world {expected_world_hash}")
        if not allow_mismatch:
            raise ValueError(msg + " (pass the mismatch override to proceed)")
        warnings.warn(msg)
    num_scene_types = math.inf
    if world is not None:
        for key, want in dataset_header(world).items():
            if key != "world_hash" and header[key] != want:
                raise ValueError(f"{path}: header {key} is {header[key]!r}, "
                                 f"but the world has {want}")
        num_scene_types = world.num_scene_types
    samples = []
    for i, ln in enumerate(lines[1:], start=1):
        try:
            samples.append(_parse_record(json.loads(ln), header, num_scene_types))
        except KeyError as e:
            raise ValueError(f"{path}: line {i}: missing field {e}") from None
        except (TypeError, ValueError) as e:
            raise ValueError(f"{path}: line {i}: {e}") from None
    return samples, header


def _index(v, what, n):
    """A JSON integer in [0, n); a number with a fraction, a string or a bool
    is a bad value."""
    if type(v) is not int:
        raise ValueError(f"{what} {v!r} is not an integer")
    if not 0 <= v < n:
        raise ValueError(f"{what} {v} is outside [0, {n})")
    return v


def _parse_record(rec, header, num_scene_types):
    """One scene line as a SceneSample; raises KeyError for a missing field
    and ValueError for a bad value."""
    h, w, c, k = header["h"], header["w"], header["c"], header["num_categories"]
    grid = np.array(rec["grid"], dtype=np.float64)
    if grid.size != h * w * c:
        raise ValueError(f"grid has {grid.size} values, expected {h * w * c}")
    if not np.isfinite(grid).all():
        raise ValueError("grid has a NaN or inf cell")
    gt = []
    for o in rec["gt"]:
        coords = [float(o[f]) for f in ("cx", "cy", "w", "h")]
        if not np.isfinite(coords).all():
            raise ValueError(f"gt box {coords} is not finite")
        gt.append(GtObject(Box(*coords), _index(o["cat"], "gt category", k)))
    return SceneSample(grid=grid.reshape(h, w, c), gt=gt,
                       scene_type=_index(rec["scene_type"], "scene type", num_scene_types))
