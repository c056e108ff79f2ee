"""The training loop, end to end, on a small budget.

One run: SGD with momentum, a step-down of the learning rate at 70% of the
schedule, gt-jittered proposals injected during training, and an auxiliary
objectness loss teaching the proposal scorer. Everything descends from one
seed, so the same command gives the same floats every time, which this
script verifies the blunt way: by running twice and comparing.
"""

import time

import numpy as np

from sinet.detector import TrainConfig, train
from sinet.evaluation import evaluate_detections
from sinet.harness import detect_dataset
from sinet.numerics import load_checkpoint, save_checkpoint
from sinet.synth_data import default_world, generate

world = default_world()
cfg = TrainConfig(iters=500, seed=2)


def sparkline(values, width=48):
    blocks = " .:-=+*#%@"
    chunk = max(1, len(values) // width)
    means = [float(np.mean(values[i:i + chunk])) for i in range(0, len(values), chunk)]
    lo, hi = min(means), max(means)
    span = (hi - lo) or 1.0
    return "".join(blocks[int((v - lo) / span * (len(blocks) - 1))] for v in means)


t0 = time.perf_counter()
tr = train(world, cfg, arm="baseline", n_train=250)
print(f"trained baseline arm: {cfg.iters} iters in {time.perf_counter() - t0:.1f}s")
print(f"loss first/last 50: {np.mean(tr.losses[:50]):.3f} -> "
      f"{np.mean(tr.losses[-50:]):.3f}")
print("loss curve:", sparkline(tr.losses))
print()

# quick held-out evaluation
test = generate(world, 31337, 120)
dets = detect_dataset(tr.params, test, score_thresh=0.05)   # the model knows its arm
ev = evaluate_detections(dets, [s.gt for s in test], world.num_categories,
                         world.ambiguous_pairs)
print(f"held-out mAP over {len(test)} scenes: {100 * ev.map:.2f}")
for cat, ap in ev.per_category_ap.items():
    shown = "  (no gt)" if ap is None else f"{100 * ap:6.2f}"
    print(f"    {world.categories[cat].name:<7} {shown}")
print("false positive kinds:", dict(ev.fp))
print()

# determinism: a second run must match to the last bit
tr2 = train(world, cfg, arm="baseline", n_train=250)
same_losses = tr.losses == tr2.losses
same_weights = np.array_equal(tr.store.values, tr2.store.values)
print(f"rerun identical: losses {same_losses}, weights {same_weights}")

# and a checkpoint survives the disk round trip unchanged
save_checkpoint("runs_demo_checkpoint.bin", tr.store)
back = load_checkpoint("runs_demo_checkpoint.bin")
ok = all(np.array_equal(back[name].value, tr.store[name].value)
         for name in tr.store.names())
print(f"checkpoint round trip exact: {ok}")

import os
os.remove("runs_demo_checkpoint.bin")
