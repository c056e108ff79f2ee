"""Trust, but differentiate: checking hand-written gradients.

Every gradient in this package is derived by hand, so every one of them is
checked against central finite differences

    dL/dw ~ (L(w + eps) - L(w - eps)) / (2 eps)

The checker perturbs every single parameter entry, which is viable exactly
because the models are small. Below: the full detector loss at a few sizes,
and a demonstration that the checker actually catches planted bugs.
"""

import time

import numpy as np

from sinet.harness import run_gradcheck
from sinet.numerics import ParamStore, grad_check, init_param

# ---------------------------------------------------------------------------
# the real thing: full loss (classification + regression + weight decay)
# through T inference steps, all parameters at once

for d, n, steps, pooling in ((2, 2, 1, "mean"), (3, 3, 2, "mean"),
                             (3, 3, 2, "concat"), (4, 5, 3, "max")):
    t0 = time.perf_counter()
    err = run_gradcheck(d=d, n=n, steps=steps, pooling=pooling)
    print(f"d={d} n={n} T={steps} pooling={pooling:<6} "
          f"max relative error {err:.2e}  ({time.perf_counter() - t0:.1f}s)")

print("\nanything under 1e-4 is a pass; these sit orders of magnitude below.")

# ---------------------------------------------------------------------------
# sabotage: the checker must light up when a gradient is wrong

store = ParamStore()
store.lay_out([("w", init_param((3, 3), 7))])
w = store["w"]


def honest():
    store.zero_grads()
    w.grad += 2.0 * w.value                  # d/dw of sum(w^2)
    return float((w.value ** 2).sum())


def sign_flip():
    store.zero_grads()
    w.grad -= 2.0 * w.value                  # classic sign error
    return float((w.value ** 2).sum())


def off_by_factor():
    store.zero_grads()
    w.grad += w.value                        # forgot the 2
    return float((w.value ** 2).sum())


def stale_entry():
    store.zero_grads()
    w.grad += 2.0 * w.value
    w.grad[1, 2] = 0.0                       # one entry never accumulated
    return float((w.value ** 2).sum())


print()
for name, fn in (("honest", honest), ("sign flip", sign_flip),
                 ("off by 2x", off_by_factor), ("stale entry", stale_entry)):
    err = grad_check(fn, store, store.names())
    verdict = "ok" if err < 1e-6 else "CAUGHT"
    print(f"{name:<12} max relative error {err:.2e}   {verdict}")
