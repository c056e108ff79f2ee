"""Watching the learned edges between detections.

Every ordered pair of proposal boxes gets a scalar edge weight

    e_ji = relu(W_P . R_ji) * tanh(w_v . [f_i, f_j])

where R is a 12-number spatial relation (sizes, offsets, squared offsets,
log size ratios) and f are the node features. The relu factor is a spatial
gate with fixed weights W_P, a locality prior: it opens for nearby pairs and
zeroes far ones, so messages only travel between neighbors, and it is
computed once per stack of scenes from the boxes alone. The tanh factor is
the learned part: how much the sender should sway the receiver, and in
which direction.

We train a small model, then dump the strongest incoming edge for each
detection and the pair distances, to see the gate's locality at work.
"""

import numpy as np

from sinet.detector import TrainConfig, detect, train
from sinet.structure_inference import relation_report
from sinet.synth_data import default_world, scene_sampler

world = default_world()
draw = scene_sampler(world)
names = [c.name for c in world.categories] + ["bg"]

cfg = TrainConfig(iters=600, seed=0)
print("training the full model for 600 iterations over 300 scenes ...")
tr = train(world, cfg, arm="sin", n_train=300)
print(f"final loss {tr.losses[-1]:.3f}\n")

# ---------------------------------------------------------------------------
# inspect a few held-out scenes

shown = 0
for i in range(20):
    if shown >= 3:
        break
    sample = draw(9090, i)
    (dets,), state = detect(tr.params, [sample], score_thresh=0.3)
    if len(dets) < 2:
        continue
    shown += 1
    print(f"scene {i} ({world.scene_names[sample.scene_type]}), "
          f"{len(sample.gt)} objects, {len(dets)} detections:")
    boxes, edges = state.boxes[0], state.edges[0]   # the one-scene stack
    # each detection is a row of a structured array; "roi" is its graph node
    report = relation_report(edges, dets["roi"])
    for det, (node, partner, weight) in zip(dets, report):
        dist = float(np.hypot(*(boxes[node, :2] - boxes[partner, :2])))
        print(f"    node {node:<2} {names[det['category']]:<7} score {det['score']:.2f}"
              f"  <- strongest sender node {partner:<2}"
              f" (distance {dist:4.1f}, edge {weight:+.3f})")
    print()

# ---------------------------------------------------------------------------
# gate locality: edge magnitude against center distance, pooled over proposals

sample = draw(9090, 3)
_, state = detect(tr.params, [sample], score_thresh=0.3)
boxes, edges = state.boxes[0], state.edges[0]   # (n, 4) rows of (cx, cy, w, h)
n = len(boxes)
buckets = {}
for i in range(n):
    for j in range(n):
        if i == j:
            continue
        dist = float(np.hypot(*(boxes[i, :2] - boxes[j, :2])))
        buckets.setdefault(min(int(dist), 9), []).append(abs(edges[i, j]))

print("mean |edge| by center distance (one scene, all proposal pairs):")
for k in sorted(buckets):
    vals = buckets[k]
    bar = "#" * int(50 * np.mean(vals))
    print(f"    {k:>2}..{k + 1:<2} cells  {np.mean(vals):.4f}  {bar}")
print("\nthe gate keeps influence local: beyond a few cells the edges vanish,")
print("which is exactly the fixed locality prior W_P.")
