import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from sinet.memory_cell import GruParams, gru_backward, gru_forward, gru_init, gru_params
from sinet.numerics import ParamStore, ShapeError, grad_check

from oracles import create_gru_params, gru_forward_oracle


def make_params(d, seed=0):
    st = ParamStore()
    return st, create_gru_params(st, "cell", d, seed)


def test_created_shapes():
    st, p = make_params(5)
    assert p.w_r.value.shape == (5, 10)
    assert p.w_z.value.shape == (5, 10)
    assert p.w.value.shape == (5, 5)
    assert p.u.value.shape == (5, 5)
    assert p.dim == 5


def test_init_keyed_by_name_not_order():
    st1 = ParamStore()
    a = create_gru_params(st1, "scene", 4, 9)
    st2 = ParamStore()
    st2.lay_out(gru_init("pad", 4, 9) + gru_init("scene", 4, 9))
    b = gru_params(st2, "scene")
    assert np.array_equal(a.w_r.value, b.w_r.value)


def _oracle_rows(p, x, h):
    """The oracle applied to every row of every scene of (B, n, d) stacks."""
    return np.array([[gru_forward_oracle(p.w_r.value, p.w_z.value, p.w.value,
                                         p.u.value, xi, hi)[0]
                      for xi, hi in zip(xs, hs)] for xs, hs in zip(x, h)])


def test_forward_matches_oracle_randomized():
    rng = np.random.default_rng(4)
    for trial in range(80):
        b, n = 1 + trial % 3, (1, 16)[trial % 2]
        d = int(rng.integers(1, 7))
        _, p = make_params(d, seed=int(rng.integers(1 << 30)))
        x = rng.normal(0, 2, size=(b, n, d))
        h = rng.normal(0, 2, size=(b, n, d))
        got, _ = gru_forward(p, x, h)
        assert got.shape == (b, n, d)
        assert np.allclose(got, _oracle_rows(p, x, h), atol=1e-12)
        # each scene's rows come out bitwise as they do on their own
        for k in range(b):
            assert np.array_equal(got[k], gru_forward(p, x[k:k + 1], h[k:k + 1])[0][0])


def test_gate_ranges_and_convex_bound():
    rng = np.random.default_rng(8)
    for _ in range(60):
        d = int(rng.integers(1, 6))
        _, p = make_params(d, seed=int(rng.integers(1 << 30)))
        x = rng.normal(0, 3, size=d)
        h = rng.normal(0, 3, size=d)
        h_next, r, z, h_tilde = gru_forward_oracle(
            p.w_r.value, p.w_z.value, p.w.value, p.u.value, x, h)
        lib, tape = gru_forward(p, x[None, None, :], h[None, None, :])
        assert np.allclose(lib[0, 0], h_next, atol=1e-12)
        assert np.allclose(tape.r[0, 0], r, atol=1e-12)
        assert np.allclose(tape.z[0, 0], z, atol=1e-12)
        assert all(0.0 < v < 1.0 for v in r + z)
        # h_next is a convex blend of h and a tanh output
        for k in range(d):
            assert abs(h_next[k]) <= max(abs(h[k]), 1.0) + 1e-12
            lo, hi = min(h[k], h_tilde[k]), max(h[k], h_tilde[k])
            assert lo - 1e-12 <= h_next[k] <= hi + 1e-12


def test_forward_shape_errors():
    _, p = make_params(3)
    with pytest.raises(ShapeError):
        gru_forward(p, np.zeros((1, 2, 2)), np.zeros((1, 2, 3)))
    with pytest.raises(ShapeError):
        gru_forward(p, np.zeros(3), np.zeros(3))          # vectors, not stacks
    with pytest.raises(ShapeError):
        gru_forward(p, np.zeros((2, 3)), np.zeros((2, 3)))  # rows without a scene axis
    with pytest.raises(ShapeError):
        gru_forward(p, np.zeros((1, 2, 3)), np.zeros((1, 3, 3)))
    with pytest.raises(ShapeError):
        gru_forward(p, np.zeros((2, 2, 3)), np.zeros((1, 2, 3)))
    with pytest.raises(ShapeError):
        gru_forward(p, np.zeros((1, 0, 3)), np.zeros((1, 0, 3)))
    with pytest.raises(ShapeError):
        gru_forward(p, np.zeros((0, 2, 3)), np.zeros((0, 2, 3)))
    _, tape = gru_forward(p, np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))
    with pytest.raises(ShapeError):
        gru_backward(p, tape, np.zeros((1, 2, 4)))
    with pytest.raises(ShapeError):
        gru_backward(p, tape, np.zeros((2, 3)))


def test_forward_non_finite_raises():
    _, p = make_params(3)
    h = np.zeros((2, 4, 3))
    x = np.ones((2, 4, 3))
    x[1, 2, 1] = np.nan
    with pytest.raises(FloatingPointError):
        gru_forward(p, x, h)
    p.u.value[0, 0] = np.inf
    with pytest.raises(FloatingPointError):
        gru_forward(p, np.ones((1, 4, 3)), np.ones((1, 4, 3)))


def test_backward_against_finite_differences():
    st, p = make_params(4, seed=21)
    rng = np.random.default_rng(1)
    # two scenes: parameter gradients sum over both
    x0 = rng.normal(size=(2, 5, 4))
    h0 = rng.normal(size=(2, 5, 4))
    w_out = rng.normal(size=(2, 5, 4))  # fixed projection makes the loss scalar

    def loss_fn():
        h_next, tape = gru_forward(p, x0, h0)
        loss = float(np.sum(w_out * h_next))
        gru_backward(p, tape, w_out)
        return loss

    assert grad_check(loss_fn, st, st.names()) < 1e-6


def _numeric_grad(f, arr, eps=1e-6):
    grad = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        up = f()
        flat[k] = orig - eps
        dn = f()
        flat[k] = orig
        gflat[k] = (up - dn) / (2 * eps)
    return grad


def test_backward_input_grads_against_finite_differences():
    _, p = make_params(3, seed=5)
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(2, 4, 3))
    h0 = rng.normal(size=(2, 4, 3))
    w_out = rng.normal(size=(2, 4, 3))
    _, tape = gru_forward(p, x0, h0)
    dx, dh = gru_backward(p, tape, w_out)

    def f():
        return float(np.sum(w_out * gru_forward(p, x0, h0)[0]))

    assert np.allclose(dx, _numeric_grad(f, x0), atol=1e-7)
    assert np.allclose(dh, _numeric_grad(f, h0), atol=1e-7)


def test_backward_broadcast_x_sums_over_rows():
    # scene bank: one vector per scene broadcast to every row of it, its
    # gradient is the scene's row sum of dx
    st, p = make_params(3, seed=7)
    rng = np.random.default_rng(7)
    scene = rng.normal(size=(2, 3))
    h0 = rng.normal(size=(2, 5, 3))
    w_out = rng.normal(size=(2, 5, 3))

    def x():
        return np.broadcast_to(scene[:, None, :], h0.shape)

    def f():
        return float(np.sum(w_out * gru_forward(p, x(), h0)[0]))

    def loss_fn():
        h_next, tape = gru_forward(p, x(), h0)
        gru_backward(p, tape, w_out)
        return float(np.sum(w_out * h_next))

    assert grad_check(loss_fn, st, st.names()) < 1e-6
    _, tape = gru_forward(p, x(), h0)
    dx, dh = gru_backward(p, tape, w_out)
    assert np.allclose(dx.sum(axis=1), _numeric_grad(f, scene), atol=1e-7)
    assert np.allclose(dh, _numeric_grad(f, h0), atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(b=hst.integers(1, 3), n=hst.integers(1, 16), d=hst.integers(1, 6),
       seed=hst.integers(0, 2**31 - 1))
def test_forward_row_permutation_equivariance(b, n, d, seed):
    rng = np.random.default_rng(seed)
    _, p = make_params(d, seed=seed)
    x = rng.normal(0, 2, size=(b, n, d))
    h = rng.normal(0, 2, size=(b, n, d))
    perm, scenes = rng.permutation(n), rng.permutation(b)
    out, _ = gru_forward(p, x, h)
    out_p, _ = gru_forward(p, x[scenes][:, perm], h[scenes][:, perm])
    assert np.allclose(out[scenes][:, perm], out_p, atol=1e-12)


def test_entries_lists_all_four():
    _, p = make_params(2)
    assert isinstance(p, GruParams)
    assert [e.name for e in p.entries()] == \
        ["cell/W_r", "cell/W_z", "cell/W", "cell/U"]


def _two_banks(d, seed):
    """A laid-out store holding a scene and an edge bank with another map
    between them, as a model lays them out, and the scene bank's, the edge
    bank's and the stacked GruParams."""
    st = ParamStore()
    st.lay_out(gru_init("scene", d, seed) + [("pad", np.ones((2, 3)))]
               + gru_init("edge", d, seed + 1))
    return st, gru_params(st, "scene"), gru_params(st, "edge"), gru_params(st, "scene", "edge")


def _draw(rng, shape, zeros):
    """Normal draws, a `zeros` share of them replaced by +0.0 or -0.0."""
    a = rng.normal(0, 1.5, size=shape)
    pick = rng.random(shape) < zeros
    a[pick] = rng.choice([0.0, -0.0], size=int(pick.sum()))
    return a


@settings(max_examples=200, deadline=None)
@given(b=hst.integers(1, 4), n=hst.integers(1, 6), d=hst.integers(1, 5),
       seed=hst.integers(0, 2**31 - 2), broadcast=hst.booleans(),
       zeros=hst.sampled_from((0.0, 0.3, 1.0)))
def test_two_bank_call_is_bitwise_two_one_bank_calls(b, n, d, seed, broadcast, zeros):
    # one stacked call of both banks gives each bank's outputs, tape, input
    # gradients and accumulated weight gradients to the last bit (the sign of
    # a zero included) of a call with that bank alone; the scene bank's x
    # may be one broadcast row per scene, as an inference step passes it
    rng = np.random.default_rng(seed)
    st, scene, edge, banks = _two_banks(d, seed)
    if broadcast:
        x_scene = np.broadcast_to(_draw(rng, (b, 1, d), zeros), (b, n, d))
    else:
        x_scene = _draw(rng, (b, n, d), zeros)
    x_edge, h = _draw(rng, (b, n, d), zeros), _draw(rng, (b, n, d), zeros)
    dh_next = _draw(rng, (2, b, n, d), zeros)
    start = _draw(rng, st.grads.shape, zeros)

    st.grads[...] = start
    alone = []
    for k, (bank, x) in enumerate(((scene, x_scene), (edge, x_edge))):
        out, tape = gru_forward(bank, x, h)
        alone.append((out, tape) + gru_backward(bank, tape, dh_next[k]))
    want_grads = st.grads.tobytes()

    st.grads[...] = start
    out, tape = gru_forward(banks, np.stack([x_scene, x_edge]), h)
    dx, dh = gru_backward(banks, tape, dh_next)
    assert st.grads.tobytes() == want_grads
    assert out.shape == dx.shape == dh.shape == (2, b, n, d)
    for k, (out_k, tape_k, dx_k, dh_k) in enumerate(alone):
        for got, want in ((out[k], out_k), (tape.xh[k], tape_k.xh), (tape.r[k], tape_k.r),
                          (tape.z[k], tape_k.z), (tape.h_tilde[k], tape_k.h_tilde),
                          (dx[k], dx_k), (dh[k], dh_k)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bank", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_two_bank_call_rejects_non_finite_pre_activations_in_either_bank(bank, bad):
    st, _scene, _edge, banks = _two_banks(3, 5)
    x, h = np.ones((2, 2, 4, 3)), np.zeros((2, 4, 3))
    x[bank, 1, 2, 0] = bad
    with pytest.raises(FloatingPointError):
        gru_forward(banks, x, h)
    # a weight of one bank only; the stacked view reads the store's buffer
    banks.u.value[bank, 1, 1] = bad
    with pytest.raises(FloatingPointError):
        gru_forward(banks, np.ones((2, 2, 4, 3)), np.ones((2, 4, 3)))


def test_two_bank_shape_errors():
    _st, _scene, _edge, banks = _two_banks(3, 5)
    with pytest.raises(ShapeError):
        gru_forward(banks, np.zeros((2, 4, 3)), np.zeros((2, 4, 3)))        # no bank axis
    with pytest.raises(ShapeError):
        gru_forward(banks, np.zeros((3, 1, 4, 3)), np.zeros((1, 4, 3)))     # three banks
    with pytest.raises(ShapeError):
        gru_forward(banks, np.zeros((2, 1, 4, 3)), np.zeros((2, 1, 4, 3)))  # h_t per bank
    _, tape = gru_forward(banks, np.zeros((2, 1, 4, 3)), np.zeros((1, 4, 3)))
    with pytest.raises(ShapeError):
        gru_backward(banks, tape, np.zeros((1, 4, 3)))
