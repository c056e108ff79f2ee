"""What the gated memory cell actually does.

Each node in the detection graph carries a state vector that is rewritten
once per inference step by a GRU: a reset gate r decides how much of the old
state feeds the candidate, an update gate z decides how much of the old state
survives at all. The new state is always a per-coordinate convex blend

    h' = z * h + (1 - z) * h_tilde

so a message can never fling the state outside the span of [old, candidate].
This script pokes the cell with hand-built weights to make the gates visible.
The cell updates every node of a graph at once, so it takes (n, d) row
matrices; here each call passes a one-node graph.
"""

import numpy as np

from sinet.memory_cell import gru_forward, gru_init, gru_params
from sinet.numerics import ParamStore

np.set_printoptions(precision=3, suppress=True)


def new_cell(prefix, d, seed):
    """A freshly initialised cell: its four maps laid out in a store of their own."""
    store = ParamStore()
    store.lay_out(gru_init(prefix, d, seed))
    return gru_params(store, prefix)


d = 4
p = new_cell("demo", d, seed=1)

h = np.array([1.0, -1.0, 0.5, 0.0])
x = np.array([0.8, 0.8, -0.3, 1.5])


def cell(params, msg, state):
    """One node through the cell, as a one-scene stack of one row: returns
    (new state, its tape)."""
    out, tape = gru_forward(params, msg[None, None, :], state[None, None, :])
    return out[0, 0], tape


print("old state h      :", h)
print("incoming message x:", x)

# ---------------------------------------------------------------------------
# 1. a neutral cell: random init keeps gates near 0.5, the state drifts

h_next, tape = cell(p, x, h)
print("\nrandom-init cell")
print("  reset gate r :", tape.r[0, 0])
print("  update gate z:", tape.z[0, 0])
print("  candidate    :", tape.h_tilde[0, 0])
print("  new state    :", h_next)

# ---------------------------------------------------------------------------
# 2. slam the update gate open (z -> 1): the cell ignores the message.
# The gate weights act on the concatenation [x, h], so a big positive bias
# direction in w_z saturates the sigmoid regardless of input.

p.w_z.value[:] = 0.0
p.w_z.value += 50.0 / (2 * d)      # crude all-ones direction, enough to saturate
h_keep, tape_keep = cell(p, np.abs(x) + 1.0, np.abs(h) + 1.0)
print("\nupdate gate forced open (z ~ 1): state is copied through")
print("  z        :", tape_keep.z[0, 0])
print("  new state:", h_keep, " (old was", np.abs(h) + 1.0, ")")

# ---------------------------------------------------------------------------
# 3. slam it shut (z -> 0): the cell overwrites with the candidate

p.w_z.value[:] = -50.0 / (2 * d)
h_over, tape_over = cell(p, np.abs(x) + 1.0, np.abs(h) + 1.0)
print("\nupdate gate forced shut (z ~ 0): state is replaced by the candidate")
print("  z        :", tape_over.z[0, 0])
print("  new state:", h_over)
print("  candidate:", tape_over.h_tilde[0, 0])

# ---------------------------------------------------------------------------
# 4. the convex bound holds for any weights, message, or state

rng = np.random.default_rng(0)
worst = 0.0
for trial in range(2000):
    q = new_cell("t", 3, seed=trial)
    hh = rng.normal(0, 3, size=3)
    xx = rng.normal(0, 3, size=3)
    out, c = cell(q, xx, hh)
    lo = np.minimum(hh, c.h_tilde[0])
    hi = np.maximum(hh, c.h_tilde[0])
    worst = max(worst, float(np.max(np.maximum(lo - out, out - hi))))
print(f"\nconvex-combination bound over 2000 random cells: "
      f"max violation {worst:.2e} (exactly zero up to rounding)")
