import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import struct
import tempfile
import warnings
from dataclasses import asdict, fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as hst

from sinet.detector import (ARMS, DETECT_STACK, DETECTION_DTYPE, TrainConfig,
                            active_param_names, create_detector_params, detect, detect_scenes,
                            train)
from sinet.evaluation import evaluate_detections
from sinet.harness import (EvalConfig, RunConfig, _load_trained, _manifest_payload,
                           build_parser, detect_dataset, eval_workers, fp_rows,
                           load_run_config, main, metrics_rows, pr_rows,
                           read_manifest, resolve_world, run_config_from_dict,
                           run_gradcheck, write_csv, write_eval_csvs, write_manifest)
from sinet.inputs import FileError
from sinet.memory_cell import MAPS
from sinet.numerics import (CHECKPOINT_MAGIC, ParamStore, derive_seed, load_checkpoint,
                            save_checkpoint)
from sinet.structure_inference import MODE_BANKS, relation_report, sin_params
from sinet.synth_data import default_world, generate, save_dataset, world_hash, world_to_dict

from oracles import sample_at, with_arm


# ---------------------------------------------------------------------------
# config plumbing

def test_run_config_round_trip():
    cfg = RunConfig(world="default", arm="edge",
                    train=TrainConfig(lr=0.01, iters=50, T=3, pooling="max"),
                    eval=EvalConfig(split_seed=4, n_train=10, n_test=5),
                    output_dir="runs/x")
    back = run_config_from_dict(asdict(cfg))
    assert back == cfg


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        run_config_from_dict({"armz": "sin"})
    with pytest.raises(ValueError, match="config.train"):
        run_config_from_dict({"train": {"lr": 0.1, "warmup": 5}})
    with pytest.raises(ValueError, match="config.eval"):
        run_config_from_dict({"eval": {"n_trian": 10}})


@pytest.mark.parametrize("block, key, value", [
    ("train", "T", "2"), ("train", "iters", 2.0), ("train", "feat_dim", True),
    ("train", "lr", "0.1"), ("train", "pooling", 3), ("eval", "n_test", "5"),
    ("eval", "score_thresh", None), ("eval", "split_seed", False),
])
def test_run_config_rejects_mistyped_fields(block, key, value):
    # ints take no float or bool, floats take ints, strs take only strs
    with pytest.raises(ValueError, match=rf"config\.{block}\.{key}: expected"):
        run_config_from_dict({block: {key: value}})


def test_run_config_checks_blocks_and_scalars():
    with pytest.raises(ValueError, match="config.arm: expected str"):
        run_config_from_dict({"arm": 1})
    with pytest.raises(ValueError, match="config.train: expected a JSON object"):
        run_config_from_dict({"train": [1]})
    assert run_config_from_dict({"train": {"lr": 1}}).train.lr == 1


def test_load_run_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"arm": "scene", "train": {"iters": 7}}))
    cfg = load_run_config(path)
    assert cfg.arm == "scene"
    assert cfg.train.iters == 7
    assert cfg.eval == EvalConfig()

    path.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_run_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_run_config(path)
    with pytest.raises(OSError):
        load_run_config(tmp_path / "missing.json")


def test_resolve_world():
    w = resolve_world("default")
    assert w.num_categories == 6
    with pytest.raises(ValueError, match="unknown world fixture"):
        resolve_world("atlantis")
    # inline dict form round-trips through the serializer
    w2 = resolve_world(world_to_dict(w))
    assert w2.scene_names == w.scene_names
    # anything else is neither
    for spec in (5, None, ["default"], w):
        with pytest.raises(ValueError, match="world must be a JSON object"):
            resolve_world(spec)


# ---------------------------------------------------------------------------
# output files

def test_write_csv_formatting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c"), [(1, 0.5, None), ("x", 0.1 + 0.2, 3)])
    text = path.read_text()
    # None becomes an empty cell; floats print with full round-trip precision
    assert text == "a,b,c\n1,0.5,\nx,0.30000000000000004,3\n"


def test_row_builders():
    rows = metrics_rows("sin", {0: 0.5, 1: None}, ["cat", "dog"])
    assert rows[0] == ("sin", "cat", 0.5, 0.5)
    assert rows[1] == ("sin", "dog", 0.5, None)
    assert rows[2] == ("sin", "mean", 0.5, 0.5)

    assert pr_rows("sin", [(0.1, 0.9, 0.4)]) == [("sin", 0.1, 0.9, 0.4)]

    counts = {"Cor": 3, "Loc": 1, "Sim": 0, "Oth": 2, "BG": 4}
    rows = fp_rows("base", counts)
    assert rows[0] == ("base", "Cor", 3)
    assert len(rows) == 5


def test_manifest_round_trip(tmp_path):
    # read_manifest checks what write_manifest wrote and builds its configs
    # and world
    config, world = RunConfig(arm="edge", train=TrainConfig(iters=5)), default_world()
    payload = _manifest_payload("train", config, world)
    path = write_manifest(str(tmp_path), payload)
    manifest, cfg, ev_cfg, back = read_manifest(path)
    assert (manifest, cfg, ev_cfg) == (payload, config.train, config.eval)
    assert world_hash(back) == payload["world_hash"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"arm": "sin"}))
    with pytest.raises(FileError, match="missing"):
        read_manifest(bad)
    bad.write_text("{broken")
    with pytest.raises(FileError, match="invalid manifest"):
        read_manifest(bad)
    with pytest.raises(FileError, match="cannot read"):
        read_manifest(tmp_path / "nope.json")


# ---------------------------------------------------------------------------
# evaluation workers

def test_eval_workers_env(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.delenv("SIN_NUM_WORKERS", raising=False)
    assert eval_workers() == 1
    monkeypatch.setenv("SIN_NUM_WORKERS", "3")
    assert eval_workers() == 3
    monkeypatch.setenv("SIN_NUM_WORKERS", "zero")
    with pytest.raises(ValueError, match="integer"):
        eval_workers()
    monkeypatch.setenv("SIN_NUM_WORKERS", "0")
    with pytest.raises(ValueError, match=">= 1"):
        eval_workers()


def test_eval_workers_capped_at_usable_cpus(monkeypatch):
    # more workers than the CPUs this process may use ask for no more
    # processes than those CPUs; the count is read, no process starts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2})
    for raw, want in (("1", 1), ("2", 2), ("3", 2), ("100000", 2)):
        monkeypatch.setenv("SIN_NUM_WORKERS", raw)
        assert eval_workers() == want


def test_detect_dataset_worker_count_does_not_change_results():
    world = default_world()
    cfg = TrainConfig(rois_per_image=6, T=1, feat_dim=8)
    params = create_detector_params(ParamStore(), world.channels, world.num_categories, cfg,
                                    "sin", 17)
    samples = [sample_at(world, 5, i) for i in range(4)]

    serial = detect_dataset(params, samples, 0.05, workers=1)
    parallel = detect_dataset(params, samples, 0.05, workers=2)
    assert len(serial) == len(parallel) == 4
    assert sum(map(len, serial)) > 0
    for dd1, dd2 in zip(serial, parallel):
        assert dd1.dtype == dd2.dtype == DETECTION_DTYPE
        assert dd1.tobytes() == dd2.tobytes()


def _offset(view, buf):
    """Where a float64 view starts in the buffer it is a view of, in entries."""
    return (view.__array_interface__["data"][0] - buf.__array_interface__["data"][0]) // 8


def _assert_laid_out(params, values, grads):
    """Every Param of the sin-arm model `params` and each bank of its GRU
    stack is a view of its own span of the value and gradient buffers, and
    those spans tile the buffers."""
    sin = params.sin
    singles = [params.feat_proj, params.cls_head, params.reg_head, params.objectness, sin.w_v]
    singles += [sin.w_a] if sin.w_a is not None else []
    for p in singles:
        assert p.value.base is values and p.grad.base is grads, p.name
    views = [(p.value, p.grad) for p in singles]
    views += [(m.value[k], m.grad[k]) for m in sin.gru.entries() for k in range(2)]
    spans = []
    for value, grad in views:
        assert value.flags.c_contiguous and grad.flags.c_contiguous
        assert np.shares_memory(value, values) and np.shares_memory(grad, grads)
        lo = _offset(value, values)
        assert lo == _offset(grad, grads)
        spans.append((lo, lo + value.size))
    spans.sort()
    assert spans[0][0] == 0 and spans[-1][1] == values.size == grads.size
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


@pytest.mark.parametrize("pooling", ["mean", "concat"])
def test_model_layout_is_one_pair_of_buffers(pooling):
    # create_detector_params lays every parameter out in one value buffer and
    # one gradient buffer, and each arm's active parameters are one span
    store = ParamStore()
    params = create_detector_params(store, 8, 6, TrainConfig(feat_dim=16, pooling=pooling),
                                    "sin", 3)
    _assert_laid_out(params, store.values, store.grads)
    for name, p in store.items():
        assert p.value.base is store.values and p.grad.base is store.grads, name
    for arm in ARMS:
        assert len(store.spans(active_param_names(with_arm(store, params, arm)))) == 1, arm
    # bank k of the two-bank stack aliases the one-bank stack of
    # MODE_BANKS["both"][k] over the same store; writes through a stack
    # reach the other stacks, the Params and the buffers, and back
    assert MODE_BANKS["both"] == MODE_BANKS["scene"] + MODE_BANKS["edge"]
    grus = {mode: sin_params(store, mode, pooling).gru for mode in ("scene", "edge")}
    grus["both"] = params.sin.gru
    for stack, *banks in zip(grus["both"].entries(), grus["scene"].entries(),
                             grus["edge"].entries()):
        for k, bank in enumerate(banks):
            for view, array in ((stack.value[k], bank.value[0]), (stack.grad[k], bank.grad[0])):
                assert view.__array_interface__ == array.__array_interface__
    grus["edge"].w.value[0, 0, 1] = 7.5
    grus["both"].u.grad[0] += 1.0
    assert grus["both"].w.value[1, 0, 1] == 7.5
    assert store["sin/edge_gru/W"].value[0, 1] == 7.5
    assert (grus["scene"].u.grad[0] == 1.0).all()
    assert (store["sin/scene_gru/U"].grad == 1.0).all()
    assert store.values[store.spans(["sin/edge_gru/W"])[0]][1] == 7.5


def test_loaded_model_is_laid_out(sin_run):
    # _load_trained fills the manifest's model in place: its Params stay
    # views of the model's buffers, and they hold the checkpoint's values
    run_dir, _ = sin_run
    ckpt = os.path.join(run_dir, "checkpoint.bin")
    _manifest, params, _ev, _world = _load_trained(ckpt)
    values, grads = params.feat_proj.value.base, params.feat_proj.grad.base
    assert isinstance(values, np.ndarray) and isinstance(grads, np.ndarray)
    _assert_laid_out(params, values, grads)
    saved = load_checkpoint(ckpt)
    # the checkpoint's own store is laid out too
    assert sum(p.value.size for _, p in saved.items()) == saved.values.size
    for name, p in saved.items():
        assert p.value.base is saved.values and p.grad.base is saved.grads, name
    sin = params.sin
    for p in (params.cls_head, sin.w_v):
        assert p.value.tobytes() == saved[p.name].value.tobytes(), p.name
    for k, bank in enumerate(MODE_BANKS["both"]):
        for m, stack in zip(MAPS, sin.gru.entries()):
            assert stack.value[k].tobytes() == saved[f"{bank}/{m}"].value.tobytes(), (bank, m)


# ---------------------------------------------------------------------------
# gradient check fixture

def test_run_gradcheck_validates_arguments():
    for kwargs in ({"d": 0}, {"n": 0}, {"steps": -1}):
        with pytest.raises(ValueError):
            run_gradcheck(**kwargs)


def test_run_gradcheck_small_case_passes():
    err = run_gradcheck(d=2, n=2, steps=1)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# CLI

def test_cli_requires_subcommand(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_cli_usage_errors_exit_1(capsys):
    assert main(["train"]) == 1                       # missing --out
    assert main(["gen-data", "--n", "2"]) == 1        # missing --out
    capsys.readouterr()


@pytest.mark.parametrize("arms, message", [
    ("sin,warp", "unknown arm 'warp'; expected one of"),
    ("sin,sin", "--arms names arm 'sin' twice"),
    ("baseline,sin,baseline", "--arms names arm 'baseline' twice"),
    (",", "--arms names no arm"),
    ("", "--arms names no arm"),
], ids=["unknown", "twice", "twice-apart", "comma", "empty"])
def test_cli_bad_arms_exit_1(tmp_path, capsys, arms, message):
    # rejected before any training, with one error line and no output
    out_dir = tmp_path / "ab"
    assert main(["ablate", "--arms", arms, "--out", str(out_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"sinet: error: {message}")
    assert len(err.strip().splitlines()) == 1
    assert not out_dir.exists()


def test_train_and_ablate_share_the_run_flags():
    shared = {"config": "run.json", "world": "default", "seed": 3, "iters": 5, "T": 1,
              "pooling": "max", "split_seed": 2, "n_train": 7, "out": "o"}
    argv = ["--config", "run.json", "--world", "default", "--seed", "3", "--iters", "5",
            "--T", "1", "--pooling", "max", "--split-seed", "2", "--n-train", "7",
            "--out", "o"]
    parser = build_parser()
    for command, own in (("train", {"arm": None}),
                         ("ablate", {"n_test": None, "score_thresh": None, "arms": None,
                                     "sweep": False})):
        args = vars(parser.parse_args([command, *argv]))
        assert args.pop("func").__name__ == f"_cmd_{command}"
        assert args == {"command": command, **shared, **own}


def test_cli_missing_files_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.bin")
    assert main(["eval", "--checkpoint", missing, "--out", str(tmp_path)]) == 2
    assert main(["relations", "--checkpoint", missing, "--out",
                 str(tmp_path / "r.csv")]) == 2
    capsys.readouterr()


def test_cli_gradcheck_flags(capsys):
    parser = build_parser()
    assert parser.parse_args(["gradcheck", "--t", "1"]).T == 1
    assert parser.parse_args(["gradcheck", "--T", "3"]).T == 3

    assert main(["gradcheck", "--d", "2", "--n", "2", "--t", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    # an impossible tolerance flips the verdict and the exit code
    assert main(["gradcheck", "--d", "2", "--n", "2", "--t", "1",
                 "--tol", "1e-18"]) == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [
    ("--eps", "nan"), ("--eps", "inf"), ("--eps", "0"), ("--eps", "-0.001"),
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"), ("--tol", "-1"),
])
def test_cli_gradcheck_bad_flags_exit_1(capsys, flag, value):
    # rejected before the check runs, as a bad flag, not as a failed check
    assert main(["gradcheck", "--d", "2", "--n", "2", "--t", "1", flag, value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"sinet: error: {flag} must be positive and finite")
    assert len(err.strip().splitlines()) == 1


def test_cli_gen_data_is_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert main(["gen-data", "--world", "default", "--seed", "3", "--n", "4",
                 "--out", a]) == 0
    assert main(["gen-data", "--world", "default", "--seed", "3", "--n", "4",
                 "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert main(["gen-data", "--n", "0", "--out", a]) == 1
    capsys.readouterr()


# SHA-256 of the relations CSV below (189 rows). Recorded while each scene's
# detections were still Detection objects; any change to a row's node,
# category, score, partner or edge weight, or to how a value is written,
# moves it.
PINNED_RELATIONS = "71a5ee2eeb58624cb69578435f1bcad13fb6230d1e884e09e931969610eb2fc5"


def test_cli_train_eval_relations_pipeline(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main(["train", "--world", "default", "--arm", "sin", "--iters", "10",
                 "--n-train", "5", "--out", run_dir]) == 0
    for name in ("checkpoint.bin", "manifest.json", "loss.csv"):
        assert os.path.exists(os.path.join(run_dir, name)), name
    loss_lines = open(os.path.join(run_dir, "loss.csv")).read().splitlines()
    assert loss_lines[0] == "iter,loss"
    assert len(loss_lines) == 11

    ckpt = os.path.join(run_dir, "checkpoint.bin")
    eval_dir = str(tmp_path / "eval")
    assert main(["eval", "--checkpoint", ckpt, "--n-test", "3",
                 "--out", eval_dir]) == 0
    for name in ("metrics.csv", "pr.csv", "fp.csv"):
        assert os.path.exists(os.path.join(eval_dir, name)), name
    metrics = open(os.path.join(eval_dir, "metrics.csv")).read().splitlines()
    assert metrics[0] == "arm,category,iou,ap"
    assert metrics[-1].startswith("sin,mean,0.5,")

    rel_csv = str(tmp_path / "relations.csv")
    assert main(["relations", "--checkpoint", ckpt, "--n", "2",
                 "--out", rel_csv]) == 0
    rel_lines = open(rel_csv).read().splitlines()
    assert rel_lines[0] == "sample,node,category,score,partner,edge_weight"
    with open(rel_csv, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == PINNED_RELATIONS
    capsys.readouterr()


@pytest.mark.parametrize("arm", ["baseline", "scene"])
def test_cli_relations_in_stacks_match_scene_by_scene(tmp_path, capsys, arm):
    # `sinet relations` detects in stacks of DETECT_STACK scenes, and these
    # n scenes fill one stack and start a second. On these arms no step
    # computes edges (the baseline runs none), so detect takes them from
    # compute_edges over each whole stack; every row, those of the second
    # stack included, must be that of detecting the scene alone
    n = DETECT_STACK + 4
    assert DETECT_STACK < n
    run_dir = str(tmp_path / "run")
    assert main(["train", "--arm", arm, "--iters", "8", "--n-train", "4",
                 "--out", run_dir]) == 0
    ckpt = os.path.join(run_dir, "checkpoint.bin")
    got = tmp_path / "relations.csv"
    assert main(["relations", "--checkpoint", ckpt, "--seed", "3", "--n", str(n),
                 "--out", str(got)]) == 0
    capsys.readouterr()

    _manifest, params, _ev_cfg, world = _load_trained(ckpt)
    assert params.arm == arm
    rows = []
    for i in range(n):
        (dets,), state = detect(params, [sample_at(world, 3, i)], 0.05)
        for cat, score, (node, partner, weight) in zip(
                dets["category"].tolist(), dets["score"].tolist(),
                relation_report(state.edges[0], dets["roi"].tolist())):
            rows.append((i, node, cat, score, partner, weight))
    assert {row[0] for row in rows} & set(range(DETECT_STACK, n))     # the second stack
    want = tmp_path / "want.csv"
    write_csv(str(want), ("sample", "node", "category", "score", "partner", "edge_weight"), rows)
    assert got.read_bytes() == want.read_bytes()


def test_cli_relations_detects_in_detection_stacks(tmp_path, capsys):
    # relations detects its scenes in stacks of detection's size; over 20
    # scenes, stacks of that size, of 8 and of all 20 write the same bytes
    from sinet import harness
    run_dir = str(tmp_path / "run")
    assert main(["train", "--arm", "scene", "--iters", "8", "--n-train", "4",
                 "--out", run_dir]) == 0
    ckpt = os.path.join(run_dir, "checkpoint.bin")
    outs = []
    for stack in (harness.DETECT_STACK, 20, 8):
        path = tmp_path / f"relations-{stack}.csv"
        with mock.patch.object(harness, "DETECT_STACK", stack):
            assert main(["relations", "--checkpoint", ckpt, "--seed", "3", "--n", "20",
                         "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1] == outs[2] and outs[0].count(b"\n") > 1


def _rewritten_manifest(tmp_path, manifest, **changes):
    """A copy of a run's manifest with top-level entries replaced; its path."""
    path = str(tmp_path / "manifest.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(dict(manifest, **changes), f)
    return path


def test_cli_relations_reads_the_manifests_score_thresh(sin_run, tmp_path, capsys):
    # without --score-thresh, relations thresholds at the manifest's
    # eval.score_thresh, as eval does
    run_dir, manifest = sin_run
    ckpt = os.path.join(run_dir, "checkpoint.bin")
    path = _rewritten_manifest(tmp_path, manifest,
                               eval=dict(manifest["eval"], score_thresh=0.5))
    outs = {}
    for name, flags in (("manifest", []), ("flag", ["--score-thresh", "0.5"]),
                        ("default", ["--score-thresh", "0.05"])):
        out = tmp_path / f"{name}.csv"
        assert main(["relations", "--checkpoint", ckpt, "--manifest", path, "--n", "16",
                     *flags, "--out", str(out)]) == 0
        outs[name] = out.read_bytes()
    capsys.readouterr()
    assert outs["manifest"] == outs["flag"] != outs["default"]


def test_loaded_checkpoint_runs_its_manifests_arm(sin_run, tmp_path, capsys):
    # the manifest's arm, not the training's, wires the loaded model: a sin
    # checkpoint under a manifest naming the edge arm detects as the edge
    # arm's model over the same values, and eval reports it as that arm
    run_dir, manifest = sin_run
    ckpt = os.path.join(run_dir, "checkpoint.bin")
    path = _rewritten_manifest(tmp_path, manifest, arm="edge")
    _m, params, _ev, world = _load_trained(ckpt, path)
    assert (params.arm, params.sin.mode, len(params.sin.gru.w.value)) == ("edge", "edge", 1)
    _m, trained, _ev, _w = _load_trained(ckpt)
    assert trained.arm == "sin"
    samples = [sample_at(world, 4, i) for i in range(6)]

    def exact(model):
        return [d.tobytes() for d in detect_scenes(model, samples, 0.05)]

    assert exact(params) == exact(with_arm(load_checkpoint(ckpt), trained, "edge"))
    assert exact(params) != exact(trained)
    eval_dir = tmp_path / "eval"
    assert main(["eval", "--checkpoint", ckpt, "--manifest", path, "--n-test", "3",
                 "--out", str(eval_dir)]) == 0
    capsys.readouterr()
    assert (eval_dir / "metrics.csv").read_text().splitlines()[-1].startswith("edge,mean,")


def test_cli_eval_of_a_concat_checkpoint_matches_in_process(tmp_path, capsys):
    # concat pooling adds sin/w_a: the manifest's model holds it, the
    # checkpoint's value fills it, and `sinet eval` scores what the trained
    # parameters score in process
    run_dir, eval_dir, want_dir = (str(tmp_path / name) for name in ("run", "eval", "want"))
    assert main(["train", "--arm", "sin", "--pooling", "concat", "--iters", "30",
                 "--n-train", "30", "--out", run_dir]) == 0
    assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                 "--n-test", "40", "--out", eval_dir]) == 0
    capsys.readouterr()

    # what `sinet train` and `sinet eval` do, at the default split seed
    world, ev_cfg = default_world(), EvalConfig()
    cfg = TrainConfig(pooling="concat", iters=30)
    tr = train(world, cfg, "sin", n_train=30,
               data_seed=derive_seed(ev_cfg.split_seed, "train-data"))
    assert tr.params.sin.w_a is not None
    samples = generate(world, derive_seed(ev_cfg.split_seed, "test-data"), 40)
    ev = evaluate_detections(detect_scenes(tr.params, samples, ev_cfg.score_thresh),
                             [s.gt for s in samples], world.num_categories,
                             world.ambiguous_pairs)
    os.makedirs(want_dir)
    write_eval_csvs(want_dir, metrics_rows("sin", ev.per_category_ap,
                                           [c.name for c in world.categories]),
                    pr_rows("sin", ev.pr), fp_rows("sin", ev.fp))
    for name in ("metrics.csv", "pr.csv", "fp.csv"):
        with open(os.path.join(eval_dir, name), "rb") as got, \
                open(os.path.join(want_dir, name), "rb") as want:
            assert got.read() == want.read(), name


def test_cli_eval_reads_dataset_files(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main(["train", "--world", "default", "--arm", "baseline",
                 "--iters", "8", "--n-train", "4", "--out", run_dir]) == 0
    ckpt = os.path.join(run_dir, "checkpoint.bin")
    data = str(tmp_path / "test.jsonl")
    assert main(["gen-data", "--world", "default", "--seed", "9", "--n", "3",
                 "--out", data]) == 0
    out_dir = str(tmp_path / "eval")
    assert main(["eval", "--checkpoint", ckpt, "--data", data,
                 "--out", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "metrics.csv"))
    capsys.readouterr()


def test_cli_eval_nan_grid_exits_2(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main(["train", "--world", "default", "--arm", "sin", "--iters", "8",
                 "--n-train", "4", "--out", run_dir]) == 0
    world = default_world()
    samples = [sample_at(world, 9, i) for i in range(3)]
    samples[1].grid[2, 3, 0] = np.nan
    data = str(tmp_path / "nan.jsonl")
    save_dataset(data, samples, world)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                 "--data", data, "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sinet: error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def baseline_run(tmp_path_factory):
    """An 8-iteration baseline-arm run directory and a clean 3-scene dataset
    file, as lists of JSON records."""
    root = tmp_path_factory.mktemp("baseline")
    run_dir = str(root / "run")
    assert main(["train", "--world", "default", "--arm", "baseline", "--iters", "8",
                 "--n-train", "4", "--out", run_dir]) == 0
    world = default_world()
    data = str(root / "clean.jsonl")
    save_dataset(data, [sample_at(world, 9, i) for i in range(3)], world)
    with open(data, encoding="utf-8") as f:
        records = [json.loads(ln) for ln in f]
    return run_dir, records


HEADER = ("header",)
NO_SCENES = ("no scenes",)


@pytest.mark.parametrize("where, key, value, message", [
    ((), "grid", None, "missing field 'grid'"),
    ((), "gt", None, "missing field 'gt'"),
    ((), "scene_type", None, "missing field 'scene_type'"),
    (("gt", 0), "w", None, "missing field 'w'"),
    (("gt", 0), "cat", None, "missing field 'cat'"),
    (("grid",), 5, float("nan"), "NaN or inf"),
    (("grid",), 5, float("-inf"), "NaN or inf"),
    (("gt", 0), "cat", -1, "outside [0, 6)"),
    (("gt", 0), "cat", 6, "outside [0, 6)"),
    (("gt", 0), "cat", 1.7, "gt category 1.7 is not an integer"),
    (("gt", 0), "cat", "1", "gt category '1' is not an integer"),
    (("gt", 0), "cat", True, "gt category True is not an integer"),
    ((), "scene_type", 1.7, "scene type 1.7 is not an integer"),
    ((), "scene_type", "1", "scene type '1' is not an integer"),
    ((), "scene_type", True, "scene type True is not an integer"),
    ((), "scene_type", -1, "scene type -1 is outside [0, 2)"),
    ((), "scene_type", 99, "scene type 99 is outside [0, 2)"),
    (HEADER, "num_categories", 99, "header num_categories is 99, but the world has 6"),
    (HEADER, "c", 7, "header c is 7, but the world has 8"),
    (HEADER, "h", 8, "header h is 8, but the world has 16"),
    (HEADER, "h", 16.0, "header h must be an integer, got 16.0"),
    (("gt", 0), "w", 0.0, "box sides must be positive, got w=0.0, h="),
    (("gt", 0), "h", -1.5, "box sides must be positive, got w="),
    (("gt", 0), "cx", float("nan"), "is not finite"),
    ((), "gt", 5, "gt 5 is not a JSON array"),
    (("gt", 0), "cx", "3.5", "gt coordinate '3.5' is not a number"),
    (("gt", 0), "w", True, "gt coordinate True is not a number"),
    (("gt", 0), "cy", 10 ** 400, "int too large to convert to float"),
    (HEADER, None, "{oops", "bad.jsonl: header: Expecting property name"),
    (("grid",), 5, "1.5", "grid value '1.5' is not a number"),
    (("grid",), 5, True, "grid value True is not a number"),
    (NO_SCENES, None, None, "bad.jsonl: no scenes after the header"),
], ids=["no-grid", "no-gt", "no-scene-type", "gt-no-w", "gt-no-cat", "nan-cell",
        "inf-cell", "cat-negative", "cat-too-large", "cat-fraction", "cat-string",
        "cat-bool", "scene-type-fraction", "scene-type-string", "scene-type-bool",
        "scene-type-negative", "scene-type-too-large", "header-categories",
        "header-channels", "header-height", "header-height-float", "gt-w-zero",
        "gt-h-negative", "gt-cx-nan", "gt-not-a-list", "gt-cx-string", "gt-w-bool",
        "gt-cy-huge", "header-not-json", "grid-string", "grid-bool", "header-only"])
def test_cli_eval_malformed_dataset_exits_2(baseline_run, tmp_path, capsys,
                                            where, key, value, message):
    # the baseline arm runs no GRU, so only the loader can catch these; the
    # defect goes into scene line 2, after the header and one clean scene.
    # A header edit comes with the scene edits that make the file agree
    # with its header: 99 categories with a gt of category 50, or every
    # grid cut to the header's channel count, or an 8x32 grid of as many cells.
    # A header edit without a key replaces the header line by `value`;
    # NO_SCENES keeps the header alone.
    run_dir, records = baseline_run
    records = json.loads(json.dumps(records))
    if where == NO_SCENES:
        del records[1:]
    elif where == HEADER and key is None:
        records[0] = value
    elif where == HEADER:
        header = records[0]
        if key == "num_categories":
            records[2]["gt"][0]["cat"] = 50
        elif key == "h":
            header["w"] = 32
        else:
            for rec in records[1:]:
                rec["grid"] = np.reshape(rec["grid"], (-1, header["c"]))[:, :value].ravel().tolist()
        header[key] = value
    else:
        target = records[2]
        for step in where:
            target = target[step]
        if value is None:
            del target[key]
        else:
            target[key] = value
    data = str(tmp_path / "bad.jsonl")
    with open(data, "w", encoding="utf-8") as f:
        f.writelines((rec if isinstance(rec, str) else json.dumps(rec)) + "\n"
                     for rec in records)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                 "--data", data, "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sinet: error: ")
    assert message in err and (where in (HEADER, NO_SCENES) or "line 2: " in err)
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_cli_eval_nan_checkpoint_exits_2(baseline_run, tmp_path, capsys):
    # a NaN weight would otherwise evaluate to mAP 0.0 and exit 0
    run_dir, _ = baseline_run
    store = load_checkpoint(os.path.join(run_dir, "checkpoint.bin"))
    store["det/cls_head"].value[1, 2] = np.nan
    ckpt = str(tmp_path / "checkpoint.bin")
    save_checkpoint(ckpt, store)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--manifest",
                 os.path.join(run_dir, "manifest.json"), "--n-test", "2",
                 "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sinet: error: ")
    assert "'det/cls_head'" in err and "NaN or inf" in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_cli_eval_non_utf8_checkpoint_name_exits_2(baseline_run, tmp_path, capsys):
    # byte 16 is the first byte of the first entry's name, after the 8-byte
    # magic, the entry count and the name length
    run_dir, _ = baseline_run
    data = bytearray(open(os.path.join(run_dir, "checkpoint.bin"), "rb").read())
    data[16] = 0xFF
    ckpt = str(tmp_path / "checkpoint.bin")
    with open(ckpt, "wb") as f:
        f.write(data)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--manifest",
                 os.path.join(run_dir, "manifest.json"), "--n-test", "2",
                 "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sinet: error: ")
    assert "name of entry 0 at offset 16 is not UTF-8" in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_cli_eval_duplicate_checkpoint_name_exits_2(sin_run, tmp_path, capsys):
    # 'W' (0x57) and 'U' (0x55) differ in one bit, so one flipped bit turns
    # the entry 'sin/edge_gru/W' into a second 'sin/edge_gru/U': a corrupt
    # file, exit 2 like every other
    run_dir, _ = sin_run
    data = bytearray(open(os.path.join(run_dir, "checkpoint.bin"), "rb").read())
    name = b"sin/edge_gru/W"
    at = data.find(struct.pack("<I", len(name)) + name) + 4
    data[at + len(name) - 1] ^= 0x02
    ckpt = str(tmp_path / "checkpoint.bin")
    with open(ckpt, "wb") as f:
        f.write(data)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--manifest",
                 os.path.join(run_dir, "manifest.json"), "--n-test", "2",
                 "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sinet: error: ")
    assert f"at offset {at} repeats the name 'sin/edge_gru/U'" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_eval_overflowing_checkpoint_dims_exit_2(baseline_run, tmp_path, capsys):
    # one rank-2 entry of (2**32 - 1) x (2**32 - 1) values: the element count
    # overflows an int64, and exactly it needs far more bytes than the file has
    run_dir, _ = baseline_run
    name = b"det/cls_head"
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, len(name)) + name
                     + struct.pack("<III", 2, 2**32 - 1, 2**32 - 1) + bytes(16))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--manifest",
                 os.path.join(run_dir, "manifest.json"), "--n-test", "2",
                 "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sinet: error: {ckpt}: truncated checkpoint")
    assert "data of 'det/cls_head'" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("where, text", [
    ("data", "5"), ("data", "null"), ("data", "true"), ("data", "1.5"),
    ("manifest", "7"), ("manifest", "null"),
], ids=["header-int", "header-null", "header-bool", "header-float", "manifest-int",
        "manifest-null"])
def test_cli_eval_non_object_json_exits_2(baseline_run, tmp_path, capsys, where, text):
    # a dataset header line or a manifest that is valid JSON but no object
    run_dir, records = baseline_run
    args = ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
            "--out", str(tmp_path / "eval")]
    path = tmp_path / ("bad.jsonl" if where == "data" else "manifest.json")
    if where == "data":
        path.write_text(text + "\n" + "".join(json.dumps(rec) + "\n" for rec in records[1:]))
        args += ["--data", str(path)]
    else:
        path.write_text(text + "\n")
        args += ["--manifest", str(path)]
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("sinet: error: ")
    assert f"must be a JSON object, got {text}" in err
    assert len(err.strip().splitlines()) == 1
    assert not os.path.exists(tmp_path / "eval")


# JSON nested deeper than the interpreter's recursion limit, which the json
# decoder reports as a RecursionError rather than a JSONDecodeError
DEEP_JSON = "[" * 200_000


@pytest.mark.parametrize("where, code, message", [
    ("config", 1, "recursion"), ("manifest", 2, "recursion"), ("header", 2, "recursion"),
    ("scene", 2, "recursion"), ("manifest-bytes", 2, "can't decode byte 0xff in position"),
], ids=["config", "manifest", "dataset-header", "dataset-scene", "manifest-non-utf8"])
def test_cli_deeply_nested_json_is_a_clean_error(baseline_run, tmp_path, capsys, where, code,
                                                 message):
    # also a manifest that ends in bytes that are not UTF-8; the message
    # names the file either way
    run_dir, records = baseline_run
    path = tmp_path / "deep.json"
    if where == "config":
        path.write_text(DEEP_JSON)
        args = ["train", "--config", str(path), "--out", str(tmp_path / "run")]
    else:
        args = ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                "--out", str(tmp_path / "eval")]
        if where == "manifest":
            path.write_text(DEEP_JSON)
            args += ["--manifest", str(path)]
        elif where == "manifest-bytes":
            with open(os.path.join(run_dir, "manifest.json"), "rb") as f:
                path.write_bytes(f.read() + b"\xff\xfe")
            args += ["--manifest", str(path)]
        else:
            lines = [json.dumps(rec) for rec in records]
            lines[0 if where == "header" else 2] = DEEP_JSON
            path.write_text("\n".join(lines) + "\n")
            args += ["--data", str(path)]
    capsys.readouterr()
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith(f"sinet: error: {path}: ") and message in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def sin_run(tmp_path_factory):
    """An 8-iteration sin-arm run directory and its manifest."""
    run_dir = str(tmp_path_factory.mktemp("sin") / "run")
    assert main(["train", "--world", "default", "--arm", "sin", "--iters", "8",
                 "--n-train", "4", "--out", run_dir]) == 0
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as f:
        return run_dir, json.load(f)


def _damaged(path, data):
    """The bytes of the file at `path` truncated at a drawn offset, or with
    one drawn bit flipped."""
    with open(path, "rb") as f:
        raw = bytearray(f.read())
    if data.draw(hst.booleans(), label="truncate"):
        return raw[:data.draw(hst.integers(0, len(raw) - 1), label="length")]
    bit = data.draw(hst.integers(0, 8 * len(raw) - 1), label="bit")
    raw[bit // 8] ^= 1 << (bit % 8)
    return raw


def _exits_cleanly(args, failure):
    """Run `sinet args`; it must exit 0, or `failure` with exactly one
    error line and no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    err = err.getvalue()
    assert code in (0, failure) and "Traceback" not in err, err
    if code:
        assert err.startswith("sinet: error: ") and len(err.strip().splitlines()) == 1, err
    return code


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(data=hst.data())
@example(data=None)
def test_cli_eval_of_a_damaged_checkpoint_fails_cleanly(sin_run, data):
    # a sin checkpoint truncated at any offset, or with any one bit flipped,
    # evaluates (exit 0) or exits 2 with one error line, never a traceback; a
    # flipped exponent bit can leave a huge finite weight, whose boxes
    # overflow to inf and are evaluated like any other
    run_dir, _ = sin_run
    ckpt = os.path.join(run_dir, "checkpoint.bin")
    if data is None:
        with open(ckpt, "rb") as f:
            raw = bytearray(f.read())
        raw[11] ^= 0x80          # the entry count's high byte
    else:
        raw = _damaged(ckpt, data)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "checkpoint.bin")
        with open(ckpt, "wb") as f:
            f.write(raw)
        code = _exits_cleanly(["eval", "--checkpoint", ckpt, "--manifest",
                               os.path.join(run_dir, "manifest.json"), "--n-test", "4",
                               "--out", os.path.join(tmp, "eval")], 2)
    event(f"exit {code}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(target=hst.sampled_from(["manifest", "data"]), data=hst.data())
@example(target="manifest", data=None)
def test_cli_eval_of_a_damaged_manifest_or_dataset_fails_cleanly(sin_run, baseline_run,
                                                                 target, data):
    # a sin run's manifest.json or a 3-scene --data file, truncated at any
    # offset or with any one bit flipped, evaluates (exit 0) or exits 2 with
    # one error line, never a traceback. The example sets a high bit, so
    # the manifest is no longer UTF-8
    sin_dir, baseline_dir = sin_run[0], baseline_run[0]
    manifest = os.path.join(sin_dir, "manifest.json")
    if data is None:
        with open(manifest, "rb") as f:
            raw = bytearray(f.read())
        raw[3] ^= 0x80
    else:
        raw = _damaged(manifest if target == "manifest" else
                       os.path.join(os.path.dirname(baseline_dir), "clean.jsonl"), data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "damaged")
        with open(path, "wb") as f:
            f.write(raw)
        if target == "manifest":
            args = ["--checkpoint", os.path.join(sin_dir, "checkpoint.bin"), "--manifest", path,
                    "--n-test", "4"]
        else:
            args = ["--checkpoint", os.path.join(baseline_dir, "checkpoint.bin"), "--data", path]
        code = _exits_cleanly(["eval", *args, "--out", os.path.join(tmp, "eval")], 2)
    event(f"exit {code}")


# a value of each JSON type, put in place of a config or manifest value
RETYPED = ["x", 0, 0.25, True, None, [], {}]
RUN_FIELDS = [(block, f.name) for block, cls in (("train", TrainConfig), ("eval", EvalConfig))
              for f in fields(cls)]


def _swaps(places):
    """Every (place, value) pair of `places` and RETYPED, each with its id."""
    return pytest.mark.parametrize(
        "where, value", list(itertools.product(places, RETYPED)),
        ids=[f"{'.'.join(w)}-{type(v).__name__}" for w, v in itertools.product(places, RETYPED)])


@_swaps([("arm",), ("world",), ("output_dir",), *RUN_FIELDS])
def test_cli_train_with_a_retyped_config_value_fails_cleanly(tmp_path, where, value):
    # a 2-iteration config with one value of another JSON type trains (exit
    # 0) or exits 1 with one error line
    config = {"arm": "sin", "world": "default", "output_dir": "unused",
              "train": asdict(TrainConfig(iters=2)), "eval": asdict(EvalConfig(n_train=2))}
    target = config
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    _exits_cleanly(["train", "--config", str(path), "--out", str(tmp_path / "run")], 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@_swaps(RUN_FIELDS)
def test_cli_eval_with_a_retyped_manifest_value_fails_cleanly(sin_run, tmp_path, where, value):
    # a manifest with one train or eval value of another JSON type evaluates
    # (exit 0) or exits 2 with one error line
    run_dir, manifest = sin_run
    manifest = json.loads(json.dumps(manifest))
    manifest[where[0]][where[1]] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    _exits_cleanly(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                    "--manifest", str(path), "--n-test", "2", "--out", str(tmp_path / "eval")], 2)


@pytest.mark.parametrize("block, key, value, message", [
    ("train", "T", "2", "manifest.train.T: expected int, got '2'"),
    ("train", "rois_per_image", 0, "manifest.train: rois_per_image must be >= 1"),
    ("train", "pooling", "bogus", "manifest.train: unknown pooling 'bogus'"),
    ("train", "lr", -1, "manifest.train: lr must be positive"),
    ("train", "feat_dim", True, "manifest.train.feat_dim: expected int, got True"),
    ("eval", "n_test", "5", "manifest.eval.n_test: expected int, got '5'"),
    ("eval", "score_thresh", "x", "manifest.eval.score_thresh: expected float, got 'x'"),
    ("eval", "score_thresh", 2.0, "manifest.eval: score_thresh must be in [0, 1]"),
    ("train", "lr", 10 ** 400, "manifest.train.lr: int too large to convert to float"),
    ("world", "height", 10 ** 30, "height: int too large to fit an index-sized integer"),
    ("world", "width", 10 ** 30, "width: int too large to fit an index-sized integer"),
], ids=["T-string", "rois-zero", "pooling-bogus", "lr-negative", "feat-dim-bool",
        "n-test-string", "thresh-string", "thresh-above-one", "lr-huge", "height-huge",
        "width-huge"])
def test_cli_eval_bad_manifest_exits_2(sin_run, tmp_path, capsys, block, key, value,
                                       message):
    run_dir, manifest = sin_run
    manifest = json.loads(json.dumps(manifest))
    manifest[block][key] = value
    path = str(tmp_path / "manifest.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                 "--manifest", path, "--n-test", "2", "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sinet: error: ")
    assert message in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("name, shape, message", [
    ("det/cls_head", (7,), "'det/cls_head' has shape (7,); the manifest's model needs (7, 16)"),
    ("det/cls_head", (3, 16), "'det/cls_head' has shape (3, 16)"),
    ("det/reg_head", (24, 8), "'det/reg_head' has shape (24, 8)"),
    ("det/feat_proj", (16, 9), "'det/feat_proj' has shape (16, 9)"),
    ("det/objectness", (6,), "'det/objectness' has shape (6,)"),
    ("sin/w_v", (32, 1), "'sin/w_v' has shape (32, 1)"),
    ("sin/edge_gru/W_z", (16, 16), "'sin/edge_gru/W_z' has shape (16, 16)"),
    ("sin/scene_gru/U", None, "checkpoint lacks parameter 'sin/scene_gru/U'"),
    ("sin/w_a", (16, 32), "checkpoint holds parameter 'sin/w_a', which the manifest's model"),
], ids=["cls-rank-1", "cls-3-rows", "reg", "feat-proj", "objectness", "w-v", "edge-gru",
        "missing", "extra"])
def test_cli_checkpoint_shapes_must_match_manifest(sin_run, tmp_path, capsys, name, shape,
                                                   message):
    # a checkpoint whose parameters differ from the manifest's model, in name
    # or shape, exits 2 before any detection runs
    run_dir, _ = sin_run
    store = load_checkpoint(os.path.join(run_dir, "checkpoint.bin"))
    entries = []
    for entry in sorted(set(store.names()) | {name}):
        if entry != name:
            entries.append((entry, store[entry].value))
        elif shape is not None:
            entries.append((entry, np.ones(shape)))
    bad = ParamStore()
    bad.lay_out(entries)
    ckpt = str(tmp_path / "checkpoint.bin")
    save_checkpoint(ckpt, bad)
    for command, out in (("eval", "eval"), ("relations", "relations.csv")):
        capsys.readouterr()
        assert main([command, "--checkpoint", ckpt, "--manifest",
                     os.path.join(run_dir, "manifest.json"), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sinet: error: ") and message in err, err
        assert len(err.strip().splitlines()) == 1
        assert not os.path.exists(tmp_path / out)


@pytest.mark.parametrize("command", ["eval", "relations"])
def test_cli_unknown_manifest_arm_exits_2(sin_run, tmp_path, capsys, command):
    run_dir, manifest = sin_run
    path = str(tmp_path / "manifest.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(dict(manifest, arm="warp"), f)
    out = str(tmp_path / ("eval" if command == "eval" else "relations.csv"))
    capsys.readouterr()
    assert main([command, "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                 "--manifest", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sinet: error: ") and "unknown arm 'warp'" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("train_block", [{"T": "2"}, {"rois_per_image": 0},
                                         {"pooling": "bogus"}, {"lr": -1},
                                         {"lr": float("nan")},
                                         {"weight_decay": float("inf")},
                                         {"lr": 10 ** 400}, {"weight_decay": 10 ** 400}])
def test_cli_train_bad_config_exits_1(tmp_path, capsys, train_block):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"train": dict(train_block, iters=2)}))
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sinet: error: ")
    assert len(err.strip().splitlines()) == 1
    assert not os.path.exists(tmp_path / "run" / "checkpoint.bin")


def _world_edit(edit):
    world = world_to_dict(default_world())
    edit(world)
    return world


@pytest.mark.parametrize("world, message", [
    (5, "world must be a JSON object, got 5"),
    (_world_edit(lambda w: w.pop("scene_names")), "world is missing 'scene_names'"),
    (_world_edit(lambda w: w["categories"][0].update(size=[3.0])),
     "boat: size must have exactly 2 entries"),
    (_world_edit(lambda w: w["categories"][0].update(size_jitter="x")),
     "boat: size_jitter must be a number"),
    (_world_edit(lambda w: w["categories"][0].update(size_jitter=-0.1)),
     r"boat: size_jitter must be in \[0, 1\)"),
    (_world_edit(lambda w: w["categories"][1].update(scene_affinity=[float("nan"), 0.9])),
     "car: scene_affinity must be per-scene-type probabilities"),
    (_world_edit(lambda w: w["cooccur"][0].update(jitter=-0.5)),
     "cooccur jitter must be finite and >= 0"),
    (_world_edit(lambda w: w.update(objects_per_scene=[5, 2])),
     "objects_per_scene must have 0 <= low <= high"),
    (_world_edit(lambda w: w["categories"][0].update(size_jiter=0.5)),
     r"world category has unknown keys \['size_jiter'\]"),
    (_world_edit(lambda w: w.update(height=10 ** 30)),
     "height: int too large to fit an index-sized integer"),
    (_world_edit(lambda w: w.update(width=10 ** 30)),
     "width: int too large to fit an index-sized integer"),
], ids=["not-an-object", "no-scene-names", "one-size", "string-jitter", "negative-jitter",
        "nan-affinity", "negative-cooccur-jitter", "low-above-high", "unknown-category-key",
        "huge-height", "huge-width"])
def test_cli_train_malformed_world_exits_1(tmp_path, capsys, world, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"world": world, "train": {"iters": 2}}))
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sinet: error: ") and len(err.strip().splitlines()) == 1
    assert re.search(message, err)
    assert not os.path.exists(tmp_path / "run")


def test_cli_divergence_exits_2(tmp_path, capsys):
    # an lr of 1e300 makes the loss non-finite at iteration 1 on the default
    # world: train exits 2; ablate exits 2 too, after writing its summary.
    # With concat pooling the sin arm diverges in a GRU cell instead, and
    # ablate records that the same way. No numpy RuntimeWarning precedes the
    # one error line or the failed arms
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"train": {"iters": 4, "lr": 1e300}}))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(path), "--n-train", "4",
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "sinet: error: loss became non-finite at iteration 1\n"
        for pooling, error in (("mean", "loss became non-finite at iteration 1"),
                               ("concat", "gru: NaN or inf in a gate pre-activation")):
            out_dir = tmp_path / pooling
            assert main(["ablate", "--config", str(path), "--pooling", pooling,
                         "--arms", "baseline,sin", "--n-train", "4", "--n-test", "2",
                         "--out", str(out_dir)]) == 2
            out, err = capsys.readouterr()
            assert err == ""
            assert f"arm sin: training diverged ({error})" in out
            with open(out_dir / "summary.json", encoding="utf-8") as f:
                summary = json.load(f)
            assert all(summary["arms"][arm]["failed"] for arm in ("baseline", "sin"))
            assert summary["arms"]["sin"]["error"] == error
            for name in ("metrics.csv", "pr.csv", "fp.csv", "manifest.json"):
                assert (out_dir / name).exists(), name
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 46.6 TiB for an array with shape (100000000000, 16, 4) "
     "and data type float64",
     "sinet: error: out of memory: Unable to allocate 46.6 TiB for an array with shape "
     "(100000000000, 16, 4) and data type float64\n"),
    ("", "sinet: error: out of memory\n")])
@pytest.mark.parametrize("command, target", [("train", "harness.train"),
                                             ("ablate", "evaluation.stage_one")])
def test_cli_out_of_memory_exits_1(tmp_path, capsys, monkeypatch, command, target, message,
                                   line):
    # a run that asks for more memory than the host has (a huge grid or
    # --iters) is one error line and exit 1, not a traceback. The failing
    # allocation is simulated, never made
    def no_memory(*args, **kwargs):
        raise MemoryError(message) if message else MemoryError()

    module, name = target.split(".")
    monkeypatch.setattr(f"sinet.{module}.{name}", no_memory)
    capsys.readouterr()
    assert main([command, "--iters", "8", "--n-train", "4", "--out", str(tmp_path / "run")]) == 1
    out, err = capsys.readouterr()
    assert err == line


def test_cli_ablate_writes_summary(tmp_path, capsys):
    out_dir = str(tmp_path / "ab")
    assert main(["ablate", "--world", "default", "--iters", "8",
                 "--n-train", "4", "--n-test", "2",
                 "--arms", "baseline,sin", "--out", out_dir]) == 0
    for name in ("summary.json", "metrics.csv", "pr.csv", "fp.csv", "manifest.json",
                 *(os.path.join(arm, f) for arm in ("baseline", "sin")
                   for f in ("checkpoint.bin", "manifest.json", "loss.csv"))):
        assert os.path.exists(os.path.join(out_dir, name)), name
    assert sorted(os.listdir(out_dir)) == ["baseline", "fp.csv", "manifest.json",
                                           "metrics.csv", "pr.csv", "sin", "summary.json"]
    summary = json.load(open(os.path.join(out_dir, "summary.json")))
    assert set(summary["arms"]) == {"baseline", "sin"}
    assert not any(k.startswith("_") for k in summary["arms"]["sin"])
    capsys.readouterr()


ABLATE_PINNED = ["ablate", "--iters", "40", "--n-train", "40", "--n-test", "12", "--sweep"]


@pytest.fixture(scope="module")
def pinned_ablation(tmp_path_factory):
    """The output directory of the ABLATE_PINNED command."""
    out_dir = tmp_path_factory.mktemp("ablation") / "ab"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(ABLATE_PINNED + ["--out", str(out_dir)]) == 0
    return out_dir


def _tree(root):
    """Every file under the directory Path `root`, relative path -> bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# SHA-256 over what ABLATE_PINNED writes for 40-iteration trainings: the
# metrics.csv, pr.csv and fp.csv bytes, the four arms' checkpoints, and
# summary.json re-dumped. Recorded while the arms and the sweep points ran
# in two loops, each arm's checkpoint was <out>/checkpoint-<arm>.bin, and
# summary.json also held wall times (the timings key and each arm's
# seconds), which the digest left out; the mean-T2 point is the sin arm's
# own (pooling, T) and reads its entry.
PINNED_ABLATION = "5f495c43bd19494e6f19627ce126f5baf8a9a9941591374a3859d67438e98bef"


def test_ablation_is_pinned(pinned_ablation):
    out_dir = pinned_ablation
    digest = hashlib.sha256()
    for name in ("metrics.csv", "pr.csv", "fp.csv",
                 *(os.path.join(arm, "checkpoint.bin") for arm in ARMS)):
        digest.update((out_dir / name).read_bytes())
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    digest.update(json.dumps(summary, sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_ABLATION


def test_ablation_rerun_is_byte_identical(pinned_ablation, tmp_path, capsys):
    # no output of an ablation depends on anything but its flags: a rerun
    # writes the same files, byte for byte
    out_dir = tmp_path / "ab"
    assert main(ABLATE_PINNED + ["--out", str(out_dir)]) == 0
    capsys.readouterr()
    first, second = _tree(pinned_ablation), _tree(out_dir)
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], name


def _arm_rows(path, arm):
    """The lines of an ablation or evaluation CSV whose arm column is `arm`."""
    with open(path, encoding="utf-8") as f:
        return [ln for ln in f.read().splitlines()[1:] if ln.split(",")[0] == arm]


@pytest.mark.parametrize("arm", ARMS)
def test_ablation_arm_directory_is_a_run(pinned_ablation, tmp_path, capsys, arm):
    # each trained arm is written as a run directory of its own: its
    # manifest names the arm, `sinet eval` of its checkpoint reproduces the
    # arm's rows of the ablation's CSVs, and its checkpoint and loss.csv are
    # those of `sinet train` of that arm with the same flags
    arm_dir = pinned_ablation / arm
    with open(arm_dir / "manifest.json", encoding="utf-8") as f:
        assert json.load(f)["arm"] == arm
    eval_dir = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(arm_dir / "checkpoint.bin"),
                 "--out", str(eval_dir)]) == 0
    for name in ("metrics.csv", "pr.csv", "fp.csv"):
        want = _arm_rows(pinned_ablation / name, arm)
        assert want and _arm_rows(eval_dir / name, arm) == want, name
    run_dir = tmp_path / "run"
    assert main(["train", "--arm", arm, "--iters", "40", "--n-train", "40",
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    for name in ("checkpoint.bin", "loss.csv"):
        assert (run_dir / name).read_bytes() == (arm_dir / name).read_bytes(), name


# SHA-256 over the metrics.csv, pr.csv and fp.csv bytes that `sinet eval`
# writes for a 60-iteration sin training on 100 held-out scenes. Recorded
# before the detection tail and AP/PR/FP matching ran on arrays; any change
# to a detection, an AP, a PR point or an FP count moves it.
PINNED_EVALUATION = "a3c5ce465a97bcf671b36fa70344101a57e5b41f85c5e4d9826ef5ae41974df1"


def test_evaluation_is_pinned(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main(["train", "--world", "default", "--arm", "sin", "--iters", "60",
                 "--n-train", "60", "--out", run_dir]) == 0
    eval_dir = str(tmp_path / "eval")
    assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                 "--n-test", "100", "--out", eval_dir]) == 0
    capsys.readouterr()
    digest = hashlib.sha256()
    for name in ("metrics.csv", "pr.csv", "fp.csv"):
        with open(os.path.join(eval_dir, name), "rb") as f:
            digest.update(f.read())
    assert digest.hexdigest() == PINNED_EVALUATION


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--n-test", "0"),
    ("eval", "--n-test", "-1"),
    ("eval", "--score-thresh", "7"),
    ("relations", "--score-thresh", "-3"),
    ("eval", "--score-thresh", "nan"),
    ("relations", "--score-thresh", "nan"),
], ids=["eval-n-test-0", "eval-n-test-neg", "eval-thresh-7", "relations-thresh-neg",
        "eval-thresh-nan", "relations-thresh-nan"])
def test_cli_bad_eval_flags_exit_1(sin_run, tmp_path, capsys, command, flag, value):
    # the flags are checked after they override the manifest's eval block,
    # as the same values in a config are
    run_dir, _manifest = sin_run
    out = str(tmp_path / ("eval" if command == "eval" else "relations.csv"))
    capsys.readouterr()
    assert main([command, "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                 flag, value, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sinet: error: ")
    assert len(err.strip().splitlines()) == 1
    assert not os.path.exists(out)
