"""A tour of the synthetic world the detector trains on.

Scenes are 16x16 grids with 8 channels. Each object stamps a category
prototype onto the cells it covers; the background carries a faint
scene-type bias plus Gaussian noise. Two things make the world interesting:

* boat and car share the same prototype, so no detector can tell them apart
  from appearance alone. Context has to do it: boats live in river scenes
  (and moor next to rocks), cars live in office scenes (and park next to
  laptops).
* co-occurrence rules drag partners next to triggers: laptops attract mice.

Everything is seeded, so scene i of seed s is the same scene forever.
"""

from collections import Counter

import numpy as np

from sinet.geometry import centers_to_corners
from sinet.synth_data import cell_window, default_world, generate

world = default_world()
print("scene types :", ", ".join(world.scene_names))
print("categories  :", ", ".join(c.name for c in world.categories))
print("ambiguous   :", [(world.categories[a].name, world.categories[b].name)
                        for a, b in world.ambiguous_pairs])
print()

# ---------------------------------------------------------------------------
# render two scenes as text: one glyph per cell, strongest prototype channel
# wins. Both boat and car paint channel 0, so they share the glyph 'a'; the
# grid honestly cannot say which one it is.

GLYPH = {0: "a", 1: "l", 2: "m", 3: "r", 4: "p"}


def render(sample):
    h, w, _ = sample.grid.shape
    canvas = [["." for _ in range(w)] for _ in range(h)]
    # a scene's ground truth is one structured array: a (cx, cy, w, h) box
    # and a category per object
    corners = centers_to_corners(sample.gt["box"]).tolist()
    for box, cat in zip(corners, sample.gt["category"].tolist()):
        r0, r1, c0, c1 = cell_window(box, h, w)   # half-open bounds
        proto = int(np.argmax(world.categories[cat].prototype))
        for r in range(r0, r1):
            for c in range(c0, c1):
                canvas[r][c] = GLYPH[proto]
    return ["".join(row) for row in canvas]


scenes = generate(world, seed=4, n=60)
river = next(s for s in scenes if s.scene_type == 0)
office = next(s for s in scenes if s.scene_type == 1)

for name, sample in (("river", river), ("office", office)):
    print(f"--- a {name} scene "
          f"(background channel mean: ch6 {sample.grid[..., 6].mean():+.2f}, "
          f"ch7 {sample.grid[..., 7].mean():+.2f})")
    for line in render(sample):
        print("   ", line)
    for (cx, cy, bw, bh), cat in zip(sample.gt["box"].tolist(), sample.gt["category"].tolist()):
        print(f"    {world.categories[cat].name:<7}"
              f" at ({cx:.1f},{cy:.1f}) size {bw:.1f}x{bh:.1f}")
    print()

# ---------------------------------------------------------------------------
# the statistics that make context worth learning

counts = Counter()
pair_hits = {"laptop->mouse": [0, 0], "boat->rock": [0, 0], "car->laptop": [0, 0]}
big = generate(world, seed=11, n=400)
for s in big:
    cats = s.gt["category"].tolist()
    for c in cats:
        counts[world.categories[c].name] += 1
    for rule in world.cooccur:
        trig = world.categories[rule.trigger].name
        part = world.categories[rule.partner].name
        key = f"{trig}->{part}"
        for k, c in enumerate(cats):
            if c == rule.trigger:
                pair_hits[key][1] += 1
                if any(q == rule.partner for m, q in enumerate(cats) if m != k):
                    pair_hits[key][0] += 1

print("category counts over 400 scenes:")
for name, n in counts.most_common():
    print(f"    {name:<7} {n}")
print("co-occurrence (partner present when trigger present):")
for key, (hit, total) in pair_hits.items():
    print(f"    {key:<14} {hit}/{total} = {hit / total:.2f}")
