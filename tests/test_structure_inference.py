import math

import numpy as np
import pytest

from sinet.geometry import Box
from sinet.numerics import ParamStore, grad_check, relu
from sinet.structure_inference import (SceneGraph, _compute_edges,
                                       _integrate_all, _relation_tensor,
                                       compute_edges,
                                       create_sin_params, relation_report,
                                       sin_backward, sin_infer,
                                       sin_infer_tapes, sin_params_from_store,
                                       sin_step)

from oracles import (edge_weight_oracle, integrate_messages_oracle,
                     random_box, sin_step_oracle, spatial_relation_oracle)


def make_params(d, seed=0, pooling="mean"):
    st = ParamStore()
    return st, create_sin_params(st, d, seed, pooling)


def random_graph(rng, n, d):
    return SceneGraph(node_features=rng.normal(0, 1, size=(n, d)),
                      boxes=[random_box(rng, span=8.0) for _ in range(n)],
                      scene_feature=rng.normal(0, 1, size=d))


def test_param_layout():
    st, p = make_params(4, pooling="concat")
    assert p.w_p.value.shape == (1, 12)
    assert p.w_v.value.shape == (1, 8)
    assert p.w_a.value.shape == (4, 8)
    view = sin_params_from_store(st)
    assert view.w_a is p.w_a
    _, q = make_params(4, pooling="mean")
    assert q.w_a is None
    with pytest.raises(ValueError):
        make_params(4, pooling="median")


def test_relation_tensor_identical_boxes():
    b = Box(4.4, 1.2, 2.0, 3.0)
    got = _relation_tensor([b, b])
    assert got.shape == (2, 2, 12)
    for i in range(2):
        for j in range(2):
            assert np.allclose(got[i, j], [2, 3, 6, 2, 3, 6, 0, 0, 0, 0, 0, 0])


def test_relation_tensor_unit_shift():
    # receiver shifted right by exactly w_j: elements 6 and 8 become 1
    bj = Box(3.0, 3.0, 2.0, 2.0)
    bi = Box(5.0, 3.0, 2.0, 2.0)
    got = _relation_tensor([bi, bj])[0, 1]
    assert got[6] == pytest.approx(1.0)
    assert got[8] == pytest.approx(1.0)
    assert np.allclose(got[[7, 9, 10, 11]], 0.0)


def test_relation_tensor_log_ratio():
    bj = Box(3.0, 3.0, 2.0, 2.0)
    bi = Box(3.0, 3.0, 4.0, 2.0)
    rel = _relation_tensor([bi, bj])
    assert rel[0, 1, 10] == pytest.approx(math.log(2.0))
    assert rel[1, 0, 10] == pytest.approx(-math.log(2.0))


def test_relation_tensor_matches_oracle_randomized():
    rng = np.random.default_rng(5)
    for _ in range(20):
        boxes = [random_box(rng) for _ in range(int(rng.integers(1, 7)))]
        rel = _relation_tensor(boxes)
        for i, bi in enumerate(boxes):
            for j, bj in enumerate(boxes):
                assert np.allclose(rel[i, j], spatial_relation_oracle(bi, bj),
                                   rtol=0.0, atol=1e-12)


def test_edge_weight_matches_oracle_randomized():
    rng = np.random.default_rng(31)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        _, p = make_params(d, seed=int(rng.integers(1 << 30)))
        # random-valued gate weights; the shipped locality init would leave
        # half the random pairs at exactly zero
        p.w_p.value[:] = rng.normal(0, 0.5, size=(1, 12))
        bi, bj = random_box(rng), random_box(rng)
        fi, fj = rng.normal(size=d), rng.normal(size=d)
        e = _compute_edges(p, np.array([fi, fj]), [bi, bj]).e
        want_ij = edge_weight_oracle(p.w_p.value, p.w_v.value, bi, bj, fi, fj)
        want_ji = edge_weight_oracle(p.w_p.value, p.w_v.value, bj, bi, fj, fi)
        assert e[0, 1] == pytest.approx(want_ij, abs=1e-12)
        assert e[1, 0] == pytest.approx(want_ji, abs=1e-12)


def test_edge_weight_bounded_by_spatial_gate():
    rng = np.random.default_rng(32)
    for _ in range(50):
        _, p = make_params(3, seed=int(rng.integers(1 << 30)))
        p.w_p.value[:] = rng.normal(0, 0.5, size=(1, 12))
        bi, bj = random_box(rng), random_box(rng)
        fi, fj = rng.normal(size=3) * 5, rng.normal(size=3) * 5
        e = _compute_edges(p, np.array([fi, fj]), [bi, bj]).e[0, 1]
        gate = relu(p.w_p.value @ _relation_tensor([bi, bj])[0, 1])[0]
        assert abs(e) <= gate + 1e-12


def test_compute_edges_matches_pairwise_loop():
    rng = np.random.default_rng(33)
    _, p = make_params(4, seed=2)
    p.w_p.value[:] = rng.normal(0, 0.5, size=(1, 12))
    g = random_graph(rng, 5, 4)
    e = compute_edges(p, g)
    assert e.shape == (5, 5)
    assert np.all(np.diag(e) == 0.0)
    for i in range(5):
        for j in range(5):
            if i != j:
                want = edge_weight_oracle(p.w_p.value, p.w_v.value,
                                          g.boxes[i], g.boxes[j],
                                          g.node_features[i], g.node_features[j])
                assert e[i, j] == pytest.approx(want, abs=1e-12)


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
        _, p = make_params(d, seed=trial, pooling=pooling)
        p.w_p.value[:] = rng.normal(0, 0.4, size=(1, 12))
        g = random_graph(rng, n, d)
        out = sin_step(p, g, pooling=pooling, mode=mode)
        want = sin_step_oracle(p, g.node_features, g.boxes, g.scene_feature,
                               pooling=pooling, mode=mode)
        assert np.allclose(out.node_features, np.array(want), atol=1e-12)


def test_sin_infer_t0_is_identity():
    rng = np.random.default_rng(36)
    _, p = make_params(3, seed=1)
    g = random_graph(rng, 4, 3)
    out = sin_infer(p, g, steps=0)
    assert np.array_equal(out.node_features, g.node_features)
    with pytest.raises(ValueError):
        sin_infer(p, g, steps=-1)


def test_sin_infer_permutation_equivariance():
    rng = np.random.default_rng(37)
    _, p = make_params(4, seed=3)
    p.w_p.value[:] = rng.normal(0, 0.4, size=(1, 12))
    g = random_graph(rng, 5, 4)
    perm = rng.permutation(5)
    gp = SceneGraph(node_features=g.node_features[perm],
                    boxes=[g.boxes[i] for i in perm],
                    scene_feature=g.scene_feature)
    out = sin_infer(p, g, steps=2)
    out_p = sin_infer(p, gp, steps=2)
    assert np.allclose(out.node_features[perm], out_p.node_features, atol=1e-12)


def test_max_pool_tie_resolves_to_scene():
    # force identical scene and edge banks: with equal weights and a 1-node
    # graph the edge GRU sees x=0 and the scene GRU x=scene_feature; make
    # scene_feature zero so both banks compute the same value
    st, p = make_params(3, seed=9, pooling="max")
    for a, b in zip(p.scene_gru.entries(), p.edge_gru.entries()):
        b.value[:] = a.value
    g = SceneGraph(node_features=np.array([[0.3, -0.2, 0.8]]),
                   boxes=[Box(2, 2, 2, 2)], scene_feature=np.zeros(3))
    out = sin_step(p, g, pooling="max")
    scene_only = sin_step(p, g, mode="scene")
    assert np.array_equal(out.node_features, scene_only.node_features)


def test_sin_backward_against_finite_differences():
    for pooling, mode in (("mean", "both"), ("max", "both"),
                          ("concat", "both"), ("mean", "scene"),
                          ("mean", "edge")):
        st, p = make_params(3, seed=13, pooling=pooling)
        rng = np.random.default_rng(14)
        p.w_p.value[:] = rng.normal(0, 0.4, size=(1, 12))
        feats = rng.normal(size=(3, 3))
        boxes = [random_box(rng) for _ in range(3)]
        scene = rng.normal(size=3)
        w_out = rng.normal(size=(3, 3))

        def loss_fn():
            g = SceneGraph(node_features=feats.copy(), boxes=boxes,
                           scene_feature=scene.copy())
            out, tapes = sin_infer_tapes(p, g, steps=2, pooling=pooling, mode=mode)
            loss = float(np.sum(w_out * out.node_features))
            sin_backward(p, tapes, w_out)
            return loss

        assert grad_check(loss_fn, st) < 1e-5, (pooling, mode)


def test_sin_backward_input_grads():
    st, p = make_params(3, seed=19)
    rng = np.random.default_rng(20)
    p.w_p.value[:] = rng.normal(0, 0.4, size=(1, 12))
    feats = rng.normal(size=(4, 3))
    boxes = [random_box(rng) for _ in range(4)]
    scene = rng.normal(size=3)
    w_out = rng.normal(size=(4, 3))

    def run(f, s):
        g = SceneGraph(node_features=f, boxes=boxes, scene_feature=s)
        out, tapes = sin_infer_tapes(p, g, steps=2)
        return float(np.sum(w_out * out.node_features)), tapes

    base, tapes = run(feats, scene)
    dfeat, dscene = sin_backward(p, tapes, w_out)
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


def test_relation_report_contract():
    e = np.array([[0.0, 0.7, 0.2], [0.1, 0.0, 0.4], [0.9, 0.9, 0.0]])
    rep = relation_report(e, [0, 2])
    assert rep == [(0, 1, 0.7), (2, 0, 0.9)]  # row-2 tie -> lowest sender
    assert relation_report(np.zeros((1, 1)), [0]) == []

    class Det:
        roi_index = 1

    assert relation_report(e, [Det()]) == [(1, 2, 0.4)]
