"""Does context actually help? The four-arm comparison, in miniature.

* baseline: no inference steps, heads read the raw pooled features.
* scene:    only the scene node talks to objects (global context).
* edge:     only object-object edges carry messages (local context).
* sin:      both, fused per step (mean by default).

All four arms share the init seed, the training scenes in the same order,
and the test split; the only difference is the graph wiring. The full-scale
run (2000 train / 500 test) lives in the acceptance tests; this demo uses a
quarter of the budget so it finishes in under a minute, and the margins
shrink accordingly. The direction is what to look at: both context arms
clear the baseline, because boat-vs-car is unanswerable without context.
"""

from sinet.detector import TrainConfig
from sinet.evaluation import run_ablation
from sinet.harness import EvalConfig
from sinet.synth_data import default_world

world = default_world()
cfg = TrainConfig(iters=800, seed=0)

# the summary is the plain data `sinet ablate` writes as summary.json
res, _models = run_ablation(world, cfg, n_train=500, n_test=150,
                            score_thresh=EvalConfig().score_thresh,
                            progress=lambda msg: print("  " + msg))

print()
print(f"{'arm':<10} {'mAP':>7}   per-category AP")
base = 100 * res["arms"]["baseline"]["map"]
for arm in ("baseline", "scene", "edge", "sin"):
    entry = res["arms"][arm]
    aps = " ".join(f"{world.categories[c].name}:{100 * ap:.1f}"
                   for c, ap in entry["ap"].items() if ap is not None)
    delta = 100 * entry["map"] - base
    print(f"{arm:<10} {100 * entry['map']:7.2f}   {aps}   ({delta:+.2f} vs baseline)")

print()
print("where the baseline bleeds: the ambiguous pair. Its boat/car AP is capped")
print("near coin-flip territory, while context arms recover a chunk of it.")

fp = res["arms"]["baseline"]["fp"]
fp_sin = res["arms"]["sin"]["fp"]
print(f"\nfalse-positive kinds, baseline vs sin:")
for kind in ("Cor", "Loc", "Sim", "Oth", "BG"):
    print(f"    {kind:<4} {fp[kind]:>5}  ->  {fp_sin[kind]:>5}")
print("(Sim counts confusions inside the ambiguous pair; watch that row.)")
