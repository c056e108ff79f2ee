import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hst

import sinet.structure_inference as si_mod
from sinet.memory_cell import gru_forward
from sinet.numerics import ParamStore, grad_check
from sinet.structure_inference import (EDGE_BANK, MODE_BANKS, MODES, SCENE_BANK, W_P,
                                       _compute_edges, _integrate_all, _max_messages,
                                       _relation_tensor, relation_report,
                                       sin_backward, sin_infer_tapes, sin_params,
                                       sin_step_tape, spatial_gate)

from oracles import (Box, center_rows, create_gru_params, create_sin_params,
                     edge_weight_oracle, integrate_messages_oracle, random_box,
                     sin_step_oracle, spatial_gate_oracle, spatial_relation_oracle)


def make_params(d, seed=0, pooling="mean", mode="both"):
    st = ParamStore()
    return st, create_sin_params(st, d, seed, pooling, mode)


def one_scene(features, boxes, scene_feature):
    """A one-scene stack from (n, d) features, n Boxes and a (d,) scene
    vector: its (1, n, d) features, (1, n, 4) boxes and (1, d) scene
    features."""
    return (np.asarray(features, dtype=np.float64)[None], center_rows(boxes)[None],
            np.asarray(scene_feature, dtype=np.float64)[None])


def random_graph(rng, n, d):
    return one_scene(rng.normal(0, 1, size=(n, d)),
                     [random_box(rng, span=8.0) for _ in range(n)],
                     rng.normal(0, 1, size=d))


def gate_of(boxes, w_p):
    """The spatial gate of (..., n, 4) center rows under the (1, 12) gate
    weights w_p in place of W_P. Random-valued weights exercise the gate
    where the shipped locality prior would leave half the random pairs at
    exactly zero."""
    return np.maximum(_relation_tensor(boxes) @ w_p[0], 0.0)


def scene_boxes(boxes, k=0):
    """Scene k's node boxes, of a (B, n, 4) stack, as Box objects."""
    return [Box(*row) for row in boxes[k].tolist()]


def test_param_layout():
    st, p = make_params(4, pooling="concat")
    assert "sin/w_p" not in st
    assert p.w_v.value.shape == (1, 8)
    assert p.w_a.value.shape == (4, 8)
    _, q = make_params(4, pooling="mean")
    assert q.w_a is None
    with pytest.raises(ValueError):
        make_params(4, pooling="median")


def test_sin_params_checks_its_wiring_when_built():
    # mode, fusion and the store's w_a are checked once, at construction
    st, p = make_params(3, pooling="concat")
    assert (p.mode, p.pooling, p.gru.w.value.shape[0]) == ("both", "concat", 2)
    mean_st, _ = make_params(3, pooling="mean")
    for store, mode, pooling, message in (
            (mean_st, "fancy", "mean", "unknown mode 'fancy'"),
            (mean_st, "both", "median", "unknown pooling 'median'"),
            (mean_st, "both", "concat", "concat fusion needs sin/w_a"),
            (st, "edge", "mean", "mean fusion forbids sin/w_a")):
        with pytest.raises(ValueError, match=message):
            sin_params(store, mode, pooling)
    assert sin_params(mean_st, None, "mean").gru is None
    assert sin_params(mean_st, "scene", "max").gru.w.value.shape[0] == 1
    # the banks a step runs are the mode's, none without a mode
    assert sin_params(mean_st, None, "mean").banks == ()
    assert all(sin_params(mean_st, mode, "mean").banks == MODE_BANKS[mode] for mode in MODES)


@pytest.mark.parametrize("record", [True, False])
def test_net_without_a_mode_runs_no_step(record):
    # the baseline's net: no step runs for any T, so no GRU call, no edges
    # and no tape, and the features come back as they went in; it reads no
    # gate and no scene features
    st, _ = make_params(3, seed=2)
    p = sin_params(st, None, "mean")
    feats, _, _ = random_graph(np.random.default_rng(39), 4, 3)
    for steps in (0, 1, 3):
        out, edges, tapes = sin_infer_tapes(p, feats, None, None, steps, record)
        assert out is feats and tapes == [] and edges is None


def test_relation_tensor_identical_boxes():
    b = Box(4.4, 1.2, 2.0, 3.0)
    got = _relation_tensor(center_rows([b, b]))
    assert got.shape == (2, 2, 12)
    for i in range(2):
        for j in range(2):
            assert np.allclose(got[i, j], [2, 3, 6, 2, 3, 6, 0, 0, 0, 0, 0, 0])


def test_relation_tensor_unit_shift():
    # receiver shifted right by exactly w_j: elements 6 and 8 become 1
    bj = Box(3.0, 3.0, 2.0, 2.0)
    bi = Box(5.0, 3.0, 2.0, 2.0)
    got = _relation_tensor(center_rows([bi, bj]))[0, 1]
    assert got[6] == pytest.approx(1.0)
    assert got[8] == pytest.approx(1.0)
    assert np.allclose(got[[7, 9, 10, 11]], 0.0)


def test_relation_tensor_log_ratio():
    bj = Box(3.0, 3.0, 2.0, 2.0)
    bi = Box(3.0, 3.0, 4.0, 2.0)
    rel = _relation_tensor(center_rows([bi, bj]))
    assert rel[0, 1, 10] == pytest.approx(math.log(2.0))
    assert rel[1, 0, 10] == pytest.approx(-math.log(2.0))


def test_relation_tensor_matches_oracle_randomized():
    rng = np.random.default_rng(5)
    for _ in range(20):
        boxes = [random_box(rng) for _ in range(int(rng.integers(1, 7)))]
        rel = _relation_tensor(center_rows(boxes))
        for i, bi in enumerate(boxes):
            for j, bj in enumerate(boxes):
                assert np.allclose(rel[i, j], spatial_relation_oracle(bi, bj),
                                   rtol=0.0, atol=1e-12)


def test_edge_weight_matches_oracle_randomized():
    rng = np.random.default_rng(31)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        _, p = make_params(d, seed=int(rng.integers(1 << 30)))
        w_p = rng.normal(0, 0.5, size=(1, 12))
        bi, bj = random_box(rng), random_box(rng)
        fi, fj = rng.normal(size=d), rng.normal(size=d)
        e = _compute_edges(p, np.array([fi, fj]), gate_of(center_rows([bi, bj]), w_p)).e
        want_ij = edge_weight_oracle(w_p, p.w_v.value, bi, bj, fi, fj)
        want_ji = edge_weight_oracle(w_p, p.w_v.value, bj, bi, fj, fi)
        assert e[0, 1] == pytest.approx(want_ij, abs=1e-12)
        assert e[1, 0] == pytest.approx(want_ji, abs=1e-12)


def test_edge_weight_bounded_by_spatial_gate():
    rng = np.random.default_rng(32)
    for _ in range(50):
        _, p = make_params(3, seed=int(rng.integers(1 << 30)))
        w_p = rng.normal(0, 0.5, size=(1, 12))
        bi, bj = random_box(rng), random_box(rng)
        fi, fj = rng.normal(size=3) * 5, rng.normal(size=3) * 5
        e = _compute_edges(p, np.array([fi, fj]), gate_of(center_rows([bi, bj]), w_p))
        assert abs(e.e[0, 1]) <= spatial_gate_oracle(w_p, bi, bj) + 1e-12


def test_compute_edges_matches_pairwise_loop():
    rng = np.random.default_rng(33)
    _, p = make_params(4, seed=2)
    w_p = rng.normal(0, 0.5, size=(1, 12))
    feats, boxes, _ = random_graph(rng, 5, 4)
    e = _compute_edges(p, feats, gate_of(boxes, w_p)).e
    assert e.shape == (1, 5, 5)
    e, boxes, feats = e[0], scene_boxes(boxes), feats[0]
    assert np.all(np.diag(e) == 0.0)
    for i in range(5):
        for j in range(5):
            if i != j:
                want = edge_weight_oracle(w_p, p.w_v.value,
                                          boxes[i], boxes[j], feats[i], feats[j])
                assert e[i, j] == pytest.approx(want, abs=1e-12)


def test_shipped_gate_is_the_locality_prior_once_per_stack():
    # the shipped gate is relu(W_P . R) of the boxes (spatial_gate), which
    # the caller computes once for the stack, and every step reads that one
    rng = np.random.default_rng(38)
    _, p = make_params(3, seed=4)
    feats, rows, scene = random_graph(rng, 6, 3)
    gate = spatial_gate(rows)
    out, edges, tapes = sin_infer_tapes(p, feats, scene, gate, steps=2, record=True)
    boxes = scene_boxes(rows)
    want = np.array([[spatial_gate_oracle(W_P[None], bi, bj) for bj in boxes]
                     for bi in boxes])
    assert 0 < np.count_nonzero(want) < want.size    # open and closed pairs
    assert gate.shape == (1, 6, 6)
    assert np.allclose(gate[0], want, rtol=0.0, atol=1e-12)
    assert all(t.edge_cache.spatial is gate for t in tapes) and out is tapes[-1].fused
    assert edges is tapes[-1].edge_cache.e
    assert not W_P.flags.writeable


def test_integrate_messages_matches_oracle():
    rng = np.random.default_rng(34)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 5))
        feats = rng.normal(size=(n, d))
        e = rng.normal(size=(n, n))
        np.fill_diagonal(e, 0.0)
        msgs, _ = _integrate_all(feats, e)
        assert msgs.shape == (n, d)
        for i in range(n):
            assert np.allclose(msgs[i], integrate_messages_oracle(feats, e, i),
                               atol=1e-12)


def test_integrate_messages_single_node_is_zero():
    msgs, senders = _integrate_all(np.ones((1, 3)), np.zeros((1, 1)))
    assert np.array_equal(msgs, np.zeros((1, 3)))
    assert np.all(senders == -1)


_SPECIAL = np.array([0.0, -0.0, math.inf, -math.inf, math.nan])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(b=hst.integers(1, 5), n=hst.integers(1, 7), d=hst.integers(1, 5),
       seed=hst.integers(0, 2**32 - 1), special=hst.sampled_from((0.0, 0.1, 0.4)),
       closed=hst.sampled_from((0.0, 0.5, 1.0)))
def test_max_messages_match_integrate_all(b, n, d, seed, special, closed):
    # values on a half-integer grid force exact ties between senders, a
    # `special` share of them are +-0, +-inf or NaN, and a `closed` share of
    # the edges are shut gates (exact zeros)
    rng = np.random.default_rng(seed)

    def draw(shape):
        a = rng.integers(-4, 5, size=shape) / 2.0
        pick = rng.random(shape) < special
        a[pick] = rng.choice(_SPECIAL, size=int(pick.sum()))
        return a

    feats = draw((b, n, d))
    e = draw((b, n, n))
    e[rng.random(e.shape) < closed] = 0.0
    want, _ = _integrate_all(feats, e)
    got = _max_messages(feats, e)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.all(got[~nan] == want[~nan])
    if n == 1:
        assert np.all(got == 0.0)
    if np.any(np.signbit(got) != np.signbit(want)):
        event("a zero message differs in sign")
    # the edge GRU reads either message array to the same bits, or rejects both
    p = create_gru_params(ParamStore(), "cell", d, seed)
    h = rng.uniform(-1.0, 1.0, size=(b, n, d))
    outs = []
    for msgs in (want, got):
        try:
            outs.append(gru_forward(p, msgs[None], h)[0].tobytes())
        except FloatingPointError:
            outs.append(None)
    assert outs[0] == outs[1]


def test_integrate_messages_tie_goes_to_lowest_sender():
    # two senders produce the identical best product on every coordinate
    feats = np.array([[1.0, 1.0], [2.0, 2.0], [2.0, 2.0]])
    e = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    msgs, senders = _integrate_all(feats, e)
    assert np.allclose(msgs[0], [1.0, 1.0])
    assert np.array_equal(senders[0], [1, 1])


@pytest.mark.parametrize("pooling", ["mean", "max", "concat"])
@pytest.mark.parametrize("mode", ["both", "scene", "edge"])
def test_sin_step_matches_composed_oracle(pooling, mode):
    rng = np.random.default_rng(35)
    for trial in range(12):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(2, 6))
        _, p = make_params(d, seed=trial, pooling=pooling, mode=mode)
        w_p = rng.normal(0, 0.4, size=(1, 12))
        feats, boxes, scene = random_graph(rng, n, d)
        gate = gate_of(boxes, w_p)
        tape = sin_step_tape(p, feats, scene, gate, record=True)
        want = sin_step_oracle(p, w_p, feats[0], scene_boxes(boxes), scene[0])
        assert np.allclose(tape.fused[0], np.array(want), atol=1e-12)
        # the forward-only step gives the same bits and records no senders
        bare = sin_step_tape(p, feats, scene, gate, record=False)
        assert bare.senders is None
        assert np.array_equal(bare.fused, tape.fused)
        if mode == "scene":
            assert bare.edge_cache is None and tape.edge_cache is None
        else:
            assert np.array_equal(bare.edge_cache.e, tape.edge_cache.e)
            assert tape.senders is not None


def test_sin_infer_t0_is_identity():
    rng = np.random.default_rng(36)
    _, p = make_params(3, seed=1)
    feats, boxes, scene = random_graph(rng, 4, 3)
    gate = spatial_gate(boxes)
    for record in (True, False):
        out, edges, tapes = sin_infer_tapes(p, feats, scene, gate, steps=0, record=record)
        assert np.array_equal(out, feats) and edges is None and tapes == []
        with pytest.raises(ValueError):
            sin_infer_tapes(p, feats, scene, gate, steps=-1, record=record)


def test_sin_infer_permutation_equivariance():
    rng = np.random.default_rng(37)
    _, p = make_params(4, seed=3)
    w_p = rng.normal(0, 0.4, size=(1, 12))
    feats, boxes, scene = random_graph(rng, 5, 4)
    perm = rng.permutation(5)
    for record in (True, False):
        out, _, _ = sin_infer_tapes(p, feats, scene, gate_of(boxes, w_p), steps=2,
                                    record=record)
        out_p, _, _ = sin_infer_tapes(p, feats[:, perm], scene, gate_of(boxes[:, perm], w_p),
                                      steps=2, record=record)
        assert np.allclose(out[:, perm], out_p, atol=1e-12)


def test_max_pool_tie_resolves_to_scene():
    # force identical scene and edge banks: with equal weights and a 1-node
    # graph the edge GRU sees x=0 and the scene GRU x=scene_feature; make
    # scene_feature zero so both banks compute the same value
    st, p = make_params(3, seed=9, pooling="max")
    for m in p.gru.entries():
        m.value[1] = m.value[0]
    feats, boxes, scene = one_scene([[0.3, -0.2, 0.8]], [Box(2, 2, 2, 2)], np.zeros(3))
    out = sin_step_tape(p, feats, scene, spatial_gate(boxes), record=False)
    scene_only = sin_step_tape(sin_params(st, "scene", "max"), feats, scene, None,
                               record=False)
    assert np.array_equal(out.fused, scene_only.fused)


def test_sin_backward_against_finite_differences():
    for pooling, mode in (("mean", "both"), ("max", "both"),
                          ("concat", "both"), ("mean", "scene"),
                          ("mean", "edge")):
        st, p = make_params(3, seed=13, pooling=pooling, mode=mode)
        rng = np.random.default_rng(14)
        w_p = rng.normal(0, 0.4, size=(1, 12))
        feats = rng.normal(size=(3, 3))
        boxes = [random_box(rng) for _ in range(3)]
        scene = rng.normal(size=3)
        w_out = rng.normal(size=(3, 3))

        def loss_fn():
            f, rows, s = one_scene(feats.copy(), boxes, scene.copy())
            out, _, tapes = sin_infer_tapes(p, f, s, gate_of(rows, w_p), steps=2, record=True)
            loss = float(np.sum(w_out * out[0]))
            sin_backward(p, tapes, w_out[None])
            return loss

        assert grad_check(loss_fn, st, st.names()) < 1e-5, (pooling, mode)


def test_sin_backward_input_grads():
    st, p = make_params(3, seed=19)
    rng = np.random.default_rng(20)
    w_p = rng.normal(0, 0.4, size=(1, 12))
    feats = rng.normal(size=(4, 3))
    boxes = [random_box(rng) for _ in range(4)]
    scene = rng.normal(size=3)
    w_out = rng.normal(size=(4, 3))

    def run(f, s):
        f, rows, s = one_scene(f, boxes, s)
        out, _, tapes = sin_infer_tapes(p, f, s, gate_of(rows, w_p), steps=2, record=True)
        return float(np.sum(w_out * out[0])), tapes

    base, tapes = run(feats, scene)
    dfeat, dscene = sin_backward(p, tapes, w_out[None])
    assert dfeat.shape == (1, 4, 3) and dscene.shape == (1, 3)
    eps = 1e-6
    for arr, grad in ((feats, dfeat), (scene, dscene)):
        flat, gflat = arr.reshape(-1), np.asarray(grad).reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up, _ = run(feats, scene)
            flat[k] = orig - eps
            dn, _ = run(feats, scene)
            flat[k] = orig
            assert gflat[k] == pytest.approx((up - dn) / (2 * eps), abs=2e-6)


def _two_scene_stack(rng, n, d):
    feats = rng.normal(size=(2, n, d))
    boxes = np.stack([center_rows([random_box(rng) for _ in range(n)])
                      for _ in range(2)])
    return feats, boxes, rng.normal(size=(2, d))


@pytest.mark.parametrize("pooling, mode", [("mean", "both"), ("max", "both"),
                                           ("concat", "both"), ("mean", "scene"),
                                           ("mean", "edge")])
def test_sin_backward_two_scene_stack(pooling, mode):
    # parameter gradients of a stack are the sum of its scenes' own, and
    # every input gradient of both scenes matches central differences
    st, p = make_params(3, seed=23, pooling=pooling, mode=mode)
    rng = np.random.default_rng(24)
    w_p = rng.normal(0, 0.4, size=(1, 12))
    feats, boxes, scene = _two_scene_stack(rng, 3, 3)
    gate = gate_of(boxes, w_p)
    w_out = rng.normal(size=(2, 3, 3))

    def run(k):
        out, _, tapes = sin_infer_tapes(p, feats[k], scene[k], gate[k], steps=2, record=True)
        return float(np.sum(w_out[k] * out)), tapes

    def loss_fn():
        loss, tapes = run(slice(None))
        sin_backward(p, tapes, w_out)
        return loss

    assert grad_check(loss_fn, st, st.names()) < 1e-5
    st.zero_grads()
    loss_fn()
    stacked = {name: q.grad.copy() for name, q in st.items()}
    st.zero_grads()
    for k in (slice(0, 1), slice(1, 2)):
        sin_backward(p, run(k)[1], w_out[k])
    for name, q in st.items():
        assert np.allclose(stacked[name], q.grad, rtol=0.0, atol=1e-12), name

    dfeat, dscene = sin_backward(p, run(slice(None))[1], w_out)
    if mode == "edge":
        # no bank reads the scene features, so no gradient reaches them,
        # and their central differences below must be zero
        assert dscene is None
        dscene = np.zeros(scene.shape)
    assert dfeat.shape == (2, 3, 3) and dscene.shape == (2, 3)
    eps = 1e-6
    for arr, grad in ((feats, dfeat), (scene, dscene)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            up, _ = run(slice(None))
            flat[k] = orig - eps
            dn, _ = run(slice(None))
            flat[k] = orig
            assert gflat[k] == pytest.approx((up - dn) / (2 * eps), abs=2e-6)


@pytest.mark.parametrize("pooling", ["mean", "max", "concat"])
def test_stacked_step_is_bitwise_per_scene(pooling):
    # a scene's features, edges and messages do not depend on the scenes
    # stacked with it, down to the last bit
    rng = np.random.default_rng(25)
    _, p = make_params(4, seed=26, pooling=pooling)
    w_p = rng.normal(0, 0.4, size=(1, 12))
    for n in (1, 2, 6):
        feats = rng.normal(size=(5, n, 4))
        boxes = np.stack([center_rows([random_box(rng) for _ in range(n)])
                          for _ in range(5)])
        scene = rng.normal(size=(5, 4))
        out, edges, tapes = sin_infer_tapes(p, feats, scene, gate_of(boxes, w_p),
                                            steps=2, record=True)
        bare, bare_edges, _ = sin_infer_tapes(p, feats, scene, gate_of(boxes, w_p),
                                              steps=2, record=False)
        assert np.array_equal(bare, out)
        assert np.array_equal(bare_edges, edges)
        for k in range(5):
            alone, _, alone_tapes = sin_infer_tapes(
                p, feats[k:k + 1], scene[k:k + 1], gate_of(boxes[k:k + 1], w_p),
                steps=2, record=True)
            assert np.array_equal(out[k], alone[0])
            for t, a in zip(tapes, alone_tapes):
                assert np.array_equal(t.edge_cache.e[k], a.edge_cache.e[0])
                assert np.array_equal(t.msgs[k], a.msgs[0])
                assert np.array_equal(t.senders[k], a.senders[0])


def test_scene_graph_rejects_unstacked_shapes():
    # the graph's one entry, sin_infer_tapes, checks that its node features,
    # scene features and gate are one (B, n, d), (B, d), (B, n, n) stack
    # before any step runs
    _, p = make_params(2)
    feats, scene, gate = np.zeros((2, 3, 2)), np.zeros((2, 2)), np.zeros((2, 3, 3))
    for f, s, g in ((np.zeros((3, 2)), np.zeros(2), np.zeros((3, 3))),
                    (feats, scene, np.zeros((1, 3, 3))),
                    (feats, scene, np.zeros((2, 3, 2))),
                    (feats, np.zeros((1, 2)), gate),
                    (feats, np.zeros((2, 3)), gate)):
        with mock.patch.object(si_mod, "sin_step_tape") as step, \
                pytest.raises(ValueError, match="graph: "):
            sin_infer_tapes(p, f, s, g, steps=1, record=True)
        assert step.call_count == 0
    assert sin_infer_tapes(p, feats, scene, gate, steps=1, record=True)[0].shape == (2, 3, 2)


@pytest.mark.parametrize("mode", MODES)
def test_graph_entry_needs_what_its_banks_read(mode):
    # a mode with the edge bank needs the spatial gate and one with the
    # scene bank the scene features: a call that runs a step without them is
    # refused at the entry, and what no bank reads may be None; a call that
    # runs no step reads neither
    _, p = make_params(3, seed=5, mode=mode)
    feats, boxes, scene = random_graph(np.random.default_rng(41), 4, 3)
    gate = spatial_gate(boxes)
    for bank, args, what in ((EDGE_BANK, (scene, None), "spatial gate"),
                             (SCENE_BANK, (None, gate), "scene features")):
        if bank in MODE_BANKS[mode]:
            with pytest.raises(ValueError, match=f"{mode} mode reads the {what}"):
                sin_infer_tapes(p, feats, *args, steps=2, record=True)
    read = (scene if SCENE_BANK in p.banks else None, gate if EDGE_BANK in p.banks else None)
    out, _, tapes = sin_infer_tapes(p, feats, *read, steps=2, record=True)
    want, _, _ = sin_infer_tapes(p, feats, scene, gate, steps=2, record=True)
    assert len(tapes) == 2 and np.array_equal(out, want)
    assert sin_infer_tapes(p, feats, None, None, steps=0, record=True)[0] is feats


def test_relation_report_contract():
    e = np.array([[0.0, 0.7, 0.2], [0.1, 0.0, 0.4], [0.9, 0.9, 0.0]])
    rep = relation_report(e, [0, 2])
    assert rep == [(0, 1, 0.7), (2, 0, 0.9)]  # row-2 tie -> lowest sender
    assert relation_report(np.zeros((1, 1)), [0]) == []
