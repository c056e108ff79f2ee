import math

import numpy as np
import pytest

from sinet.inputs import FileError
from sinet.numerics import (CHECKPOINT_MAGIC, Param,
                            ParamStore, ShapeError, derive_seed,
                            grad_check, init_param,
                            load_checkpoint, save_checkpoint, seed_for)


def test_init_param_range_and_determinism():
    a = math.sqrt(6.0 / (4 + 3))
    m1 = init_param((3, 4), seed_for(7, "x"))
    m2 = init_param((3, 4), seed_for(7, "x"))
    m3 = init_param((3, 4), seed_for(7, "y"))
    assert np.array_equal(m1, m2)
    assert not np.array_equal(m1, m3)
    assert np.all(np.abs(m1) <= a)
    with pytest.raises(ShapeError):
        init_param((0, 2), 1)


def test_derive_seed_stable_and_label_separated():
    assert derive_seed(0, "data") == derive_seed(0, "data")
    assert derive_seed(0, "data") != derive_seed(0, "init")
    assert derive_seed(0, "data") != derive_seed(1, "data")


def test_param_store_sorted_iteration_and_duplicates():
    st = ParamStore()
    st.lay_out([("b/w", np.ones(2)), ("a/w", np.ones(2))])
    assert st.names() == ["a/w", "b/w"]
    assert [p.name for _, p in st.items()] == ["a/w", "b/w"]
    with pytest.raises(ValueError):
        ParamStore().lay_out([("a/w", np.ones(2)), ("a/w", np.ones(2))])
    with pytest.raises(ValueError):
        st.lay_out([("c/w", np.ones(2))])        # a store holds one model
    st["a/w"].grad += 5.0
    st["b/w"].grad -= 1.0
    st.zero_grads()
    assert np.all(st["a/w"].grad == 0.0) and np.all(st["b/w"].grad == 0.0)
    assert np.all(st.grads == 0.0)


def test_param_rejects_rank_3():
    with pytest.raises(ShapeError):
        Param("t", np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(ShapeError):
        ParamStore().lay_out([("t", np.zeros((2, 2, 2)))])


def test_grad_check_validates_a_known_gradient():
    # f = sum(v^2) has exact gradient 2v; a deliberately wrong gradient
    # must be flagged
    st = ParamStore()
    st.lay_out([("v", np.array([0.3, -1.2, 2.0]))])
    p = st["v"]

    def good():
        loss = float(np.sum(p.value ** 2))
        p.grad += 2.0 * p.value
        return loss

    assert grad_check(good, st, ["v"]) < 1e-9

    def bad():
        loss = float(np.sum(p.value ** 2))
        p.grad += 1.5 * p.value
        return loss

    assert grad_check(bad, st, ["v"]) > 1e-2


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    st = ParamStore()
    rng = np.random.default_rng(3)
    st.lay_out([("det/feat_proj", rng.normal(size=(4, 6))),
                ("sin/w_v", rng.normal(size=(1, 12))),
                ("vec", rng.normal(size=5))])
    path = tmp_path / "ck.bin"
    save_checkpoint(path, st)
    back = load_checkpoint(path)
    assert back.names() == st.names()
    for name in st.names():
        assert np.array_equal(back[name].value, st[name].value)
    # the loaded store is laid out in file order (sorted by name): each
    # Param is a view of its span of the store's buffers
    assert back.values.size == back.grads.size == 4 * 6 + 12 + 5
    for name, lo in (("det/feat_proj", 0), ("sin/w_v", 24), ("vec", 36)):
        p = back[name]
        assert p.value.base is back.values and p.grad.base is back.grads
        assert back.span(name).start == lo
        assert np.array_equal(back.values[back.span(name)], p.value.reshape(-1))
    assert not np.any(back.grads)
    # same store saved twice gives identical bytes
    path2 = tmp_path / "ck2.bin"
    save_checkpoint(path2, st)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_corruption_is_fatal(tmp_path):
    st = ParamStore()
    st.lay_out([("w", np.ones((2, 2)))])
    path = tmp_path / "ck.bin"
    save_checkpoint(path, st)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXXXXXX" + bytes(raw[8:]))
    with pytest.raises(FileError, match="magic"):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(bytes(raw[:-9]))
    with pytest.raises(FileError, match="truncated"):
        load_checkpoint(truncated)

    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(bytes(raw) + b"\x00")
    with pytest.raises(FileError, match="trailing"):
        load_checkpoint(trailing)

    assert raw[:8] == CHECKPOINT_MAGIC


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_checkpoint_non_finite_value_is_fatal(tmp_path, bad):
    value = np.zeros((2, 2))
    value[1, 0] = bad
    st = ParamStore()
    st.lay_out([("det/feat_proj", np.ones((2, 3))), ("det/cls_head", value)])
    path = tmp_path / "ck.bin"
    save_checkpoint(path, st)
    with pytest.raises(FileError, match=r"entry 'det/cls_head': NaN or inf"):
        load_checkpoint(path)
