import json
import os

import numpy as np
import pytest

from sinet.detector import TrainConfig, create_detector_params
from sinet.harness import (EvalConfig, RunConfig, RunFailure, build_parser,
                           detect_dataset, eval_workers, fp_rows,
                           load_run_config, main, metrics_rows, pr_rows,
                           read_manifest, resolve_world, run_config_from_dict,
                           run_config_to_dict, run_gradcheck, write_csv,
                           write_manifest)
from sinet.numerics import ParamStore, load_checkpoint, save_checkpoint
from sinet.synth_data import default_world, sample_at, save_dataset, world_to_dict


# ---------------------------------------------------------------------------
# config plumbing

def test_run_config_round_trip():
    cfg = RunConfig(world="default", arm="edge",
                    train=TrainConfig(lr=0.01, iters=50, T=3, pooling="max"),
                    eval=EvalConfig(split_seed=4, n_train=10, n_test=5),
                    output_dir="runs/x")
    back = run_config_from_dict(run_config_to_dict(cfg))
    assert back == cfg


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        run_config_from_dict({"armz": "sin"})
    with pytest.raises(ValueError, match="config.train"):
        run_config_from_dict({"train": {"lr": 0.1, "warmup": 5}})
    with pytest.raises(ValueError, match="config.eval"):
        run_config_from_dict({"eval": {"n_trian": 10}})


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
    with pytest.raises(RunFailure):
        load_run_config(tmp_path / "missing.json")


def test_resolve_world():
    w = resolve_world("default")
    assert w.num_categories == 6
    with pytest.raises(ValueError, match="unknown world fixture"):
        resolve_world("atlantis")
    # inline dict form round-trips through the serializer
    w2 = resolve_world(world_to_dict(w))
    assert w2.scene_names == w.scene_names
    # a WorldSpec passes through (validated)
    assert resolve_world(w) is w


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
    payload = {"arm": "sin", "train": {"iters": 5}, "world": {"h": 8},
               "world_hash": "abc123", "eval": {}}
    path = write_manifest(str(tmp_path), payload)
    assert read_manifest(path) == payload

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"arm": "sin"}))
    with pytest.raises(RunFailure, match="missing"):
        read_manifest(bad)
    bad.write_text("{broken")
    with pytest.raises(RunFailure, match="invalid manifest"):
        read_manifest(bad)
    with pytest.raises(RunFailure, match="cannot read"):
        read_manifest(tmp_path / "nope.json")


# ---------------------------------------------------------------------------
# evaluation workers

def test_eval_workers_env(monkeypatch):
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


def test_detect_dataset_worker_count_does_not_change_results():
    world = default_world()
    store = ParamStore()
    create_detector_params(store, world.channels, world.num_categories, 8, 17)
    cfg = TrainConfig(rois_per_image=6, T=1, feat_dim=8)
    samples = [sample_at(world, 5, i) for i in range(4)]

    serial = detect_dataset(store, cfg, "sin", samples, 0.05, workers=1)
    parallel = detect_dataset(store, cfg, "sin", samples, 0.05, workers=2)
    assert len(serial) == len(parallel) == 4
    for dd1, dd2 in zip(serial, parallel):
        assert len(dd1) == len(dd2)
        for d1, d2 in zip(dd1, dd2):
            assert d1.category == d2.category
            assert d1.score == d2.score
            assert (d1.box.cx, d1.box.cy, d1.box.w, d1.box.h) == \
                   (d2.box.cx, d2.box.cy, d2.box.w, d2.box.h)


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
    assert main(["ablate", "--out", "x", "--arms", "sin,warp"]) == 1
    capsys.readouterr()


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


def test_cli_gen_data_is_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert main(["gen-data", "--world", "default", "--seed", "3", "--n", "4",
                 "--out", a]) == 0
    assert main(["gen-data", "--world", "default", "--seed", "3", "--n", "4",
                 "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert main(["gen-data", "--n", "0", "--out", a]) == 1
    capsys.readouterr()


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
    capsys.readouterr()


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
], ids=["no-grid", "no-gt", "no-scene-type", "gt-no-w", "gt-no-cat", "nan-cell",
        "inf-cell", "cat-negative", "cat-too-large", "cat-fraction", "cat-string",
        "cat-bool", "scene-type-fraction", "scene-type-string", "scene-type-bool",
        "scene-type-negative", "scene-type-too-large", "header-categories",
        "header-channels"])
def test_cli_eval_malformed_dataset_exits_2(baseline_run, tmp_path, capsys,
                                            where, key, value, message):
    # the baseline arm runs no GRU, so only the loader can catch these; the
    # defect goes into scene line 2, after the header and one clean scene.
    # A header edit comes with the scene edits that make the file agree
    # with its header: 99 categories with a gt of category 50, or every
    # grid cut to the header's channel count.
    run_dir, records = baseline_run
    records = json.loads(json.dumps(records))
    if where == HEADER:
        header = records[0]
        if key == "num_categories":
            records[2]["gt"][0]["cat"] = 50
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
        f.writelines(json.dumps(rec) + "\n" for rec in records)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.bin"),
                 "--data", data, "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sinet: error: ")
    assert message in err and (where == HEADER or "line 2: " in err)
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


def test_cli_ablate_writes_summary(tmp_path, capsys):
    out_dir = str(tmp_path / "ab")
    assert main(["ablate", "--world", "default", "--iters", "8",
                 "--n-train", "4", "--n-test", "2",
                 "--arms", "baseline,sin", "--out", out_dir]) == 0
    for name in ("summary.json", "metrics.csv", "pr.csv", "fp.csv",
                 "manifest.json", "checkpoint-baseline.bin", "checkpoint-sin.bin"):
        assert os.path.exists(os.path.join(out_dir, name)), name
    summary = json.load(open(os.path.join(out_dir, "summary.json")))
    assert set(summary["arms"]) == {"baseline", "sin"}
    assert not any(k.startswith("_") for k in summary["arms"]["sin"])
    capsys.readouterr()
