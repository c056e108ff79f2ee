"""Experiment harness: run configs, manifests, seed streams, and the CLI.

All randomness descends from one root seed through labelled streams (train
data, test data, init, shuffle, gt jitter), so any command rerun with the same
flags produces byte-identical outputs. The SIN_NUM_WORKERS environment
variable caps evaluation parallelism (default 1, at most the CPUs the process
may use). Each worker process detects its share of the scenes in stacks, as
a single process does, with the model the manifest's arm and config lay out.

Exit codes: 0 success; 1 for a bad flag, config or inline world (any
ValueError), or one that asks for more memory than the host has
(MemoryError); 2 for a file that cannot be read or used (a checkpoint,
manifest or --data file: FileError; any other: OSError), training
divergence, or a non-finite value met inside a GRU cell.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from itertools import repeat

import numpy as np

from .detector import (ARMS, DETECT_STACK, TrainConfig, TrainingDiverged, WeightDecay,
                       create_detector_params, detect, detect_scenes, roi_inputs, roi_loss,
                       train, validate_config)
from .evaluation import FP_KINDS, MATCH_IOU, evaluate_detections, mean_ap, run_ablation
from .inputs import PATH, FileError, checked, decode_json, members, reading
from .numerics import ParamStore, derive_seed, grad_check, load_checkpoint, save_checkpoint
from .structure_inference import EDGE_BANK, POOLINGS, relation_report, spatial_gate
from .synth_data import (GT_DTYPE, WORLD_FIXTURES, generate, load_dataset, save_dataset,
                         scene_sampler, world_from_dict, world_hash, world_to_dict)

GRADCHECK_TOL = 1e-4
# weight decay in the gradient-check loss, so its term is checked too
GRADCHECK_WD = 1e-3


@dataclass
class EvalConfig:
    split_seed: int = 0
    n_train: int = 2000
    n_test: int = 500
    score_thresh: float = 0.05


@dataclass
class RunConfig:
    world: object = "default"          # fixture name or inline world dict
    arm: str = "sin"
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    output_dir: str = "runs/latest"


def _dataclass_from_dict(cls, d, where, validate=None):
    """cls from a JSON object of its fields, each of its annotated kind (an
    object for a dataclass, anything for `object`), checked as a whole by
    `validate`."""
    members(d, where, (), [f.name for f in fields(cls)], PATH)
    kw = {}
    for f in fields(cls):
        if f.name in d:
            v, what = d[f.name], f"{where}.{f.name}"
            kw[f.name] = (_dataclass_from_dict(f.type, v, what) if is_dataclass(f.type)
                          else v if f.type is object else checked(v, f.type, what, PATH))
    out = cls(**kw)
    if validate is not None:
        try:
            validate(out)
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
    return out


def run_config_from_dict(d):
    return _dataclass_from_dict(RunConfig, d, "config")


def load_run_config(path):
    with open(path, "rb") as f:
        return run_config_from_dict(decode_json(f.read(), f"{path}: invalid JSON"))


def resolve_world(spec):
    """Fixture name or inline world dict -> validated WorldSpec."""
    if isinstance(spec, str):
        if spec not in WORLD_FIXTURES:
            raise ValueError(f"unknown world fixture {spec!r}; "
                             f"known: {sorted(WORLD_FIXTURES)}")
        return WORLD_FIXTURES[spec]()
    return world_from_dict(spec)


# ---------------------------------------------------------------------------
# output files

def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt_cell(v) for v in row) + "\n")


def metrics_rows(arm_name, per_category_ap, cat_names):
    rows = [(arm_name, cat_names[c], MATCH_IOU, ap)
            for c, ap in sorted(per_category_ap.items())]
    rows.append((arm_name, "mean", MATCH_IOU, mean_ap(per_category_ap)))
    return rows


def pr_rows(arm_name, points):
    return [(arm_name, thr, p, r) for thr, p, r in points]


def fp_rows(arm_name, counts):
    return [(arm_name, kind, counts[kind]) for kind in FP_KINDS]


def write_eval_csvs(out_dir, m_rows, p_rows, f_rows):
    """An evaluation's metrics.csv, pr.csv and fp.csv, from metrics_rows,
    pr_rows and fp_rows."""
    for name, header, rows in (("metrics.csv", ("arm", "category", "iou", "ap"), m_rows),
                               ("pr.csv", ("arm", "threshold", "precision", "recall"), p_rows),
                               ("fp.csv", ("arm", "kind", "count"), f_rows)):
        write_csv(os.path.join(out_dir, name), header, rows)


def write_manifest(out_dir, payload):
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def read_manifest(path):
    """(JSON object, TrainConfig, EvalConfig, WorldSpec) of a run's manifest,
    each checked; FileError, path first, for any defect."""
    with reading(path):
        with open(path, "rb") as f:
            manifest = members(decode_json(f.read(), "invalid manifest JSON"), "manifest",
                               ("arm", "train", "world", "world_hash"), ("command", "eval"))
        if manifest["arm"] not in ARMS:
            raise ValueError(f"manifest names unknown arm {manifest['arm']!r}")
        checked(manifest["world_hash"], str, "manifest.world_hash")
        return (manifest,
                _dataclass_from_dict(TrainConfig, manifest["train"], "manifest.train",
                                     validate_config),
                _dataclass_from_dict(EvalConfig, manifest.get("eval", {}), "manifest.eval",
                                     _validate_eval),
                world_from_dict(manifest["world"]))


# ---------------------------------------------------------------------------
# evaluation parallelism

def eval_workers():
    """SIN_NUM_WORKERS, capped at the CPUs this process may use."""
    raw = os.environ.get("SIN_NUM_WORKERS", "1")
    try:
        w = int(raw)
    except ValueError:
        raise ValueError(f"SIN_NUM_WORKERS must be an integer, got {raw!r}")
    if w < 1:
        raise ValueError(f"SIN_NUM_WORKERS must be >= 1, got {w}")
    return min(w, len(os.sched_getaffinity(0)))


def detect_dataset(params, samples, score_thresh, workers=1):
    """Detections of the model `params` (DetectorParams, as create_detector_params
    lays them out) per sample, one DETECTION_DTYPE array each, identical for
    any worker count."""
    workers = min(workers, max(1, len(samples)))
    if workers <= 1:
        return detect_scenes(params, samples, score_thresh)
    bounds = np.linspace(0, len(samples), workers + 1).astype(int)
    chunks = [samples[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    out = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for chunk in pool.map(detect_scenes, repeat(params), chunks, repeat(score_thresh)):
            out.extend(chunk)
    return out


# ---------------------------------------------------------------------------
# gradient checking fixture

def run_gradcheck(d=3, n=3, steps=2, seed=11, pooling="mean", eps=1e-5):
    """Central-difference check of the full detector loss on a small fixed
    scene: n ROIs, feature width d, `steps` inference iterations. Proposal
    boxes are fixed inputs, so the objectness map is outside the check.
    Returns the max relative error across every remaining parameter entry."""
    if d < 1 or n < 1 or steps < 0:
        raise ValueError("gradcheck needs d >= 1, n >= 1, steps >= 0")
    channels = 5
    rng = np.random.default_rng(seed)
    grid = rng.normal(0.0, 0.6, size=(8, 8, channels))
    gt = np.array([((2.5, 3.0, 2.2, 1.8), 0), ((5.8, 4.6, 1.9, 2.4), 1)], dtype=GT_DTYPE)
    boxes = [(2.4, 3.1, 2.1, 1.7), (5.7, 4.5, 2.0, 2.3), (3.9, 6.1, 2.6, 2.0)]
    while len(boxes) < n:
        boxes.append((rng.uniform(2.0, 6.0), rng.uniform(2.0, 6.0),
                      rng.uniform(1.5, 3.0), rng.uniform(1.5, 3.0)))
    boxes = np.array(boxes[:n])
    cfg = validate_config(TrainConfig(T=steps, pooling=pooling, rois_per_image=n, feat_dim=d))
    store = ParamStore()
    params = create_detector_params(store, channels, 2, cfg, "sin", derive_seed(seed, "init"))
    names = [nm for nm in store.names() if nm != "det/objectness"]
    rois = roi_inputs(grid[None], boxes[None], [gt], 2)
    decay = WeightDecay(store, names, GRADCHECK_WD)
    gate = spatial_gate(rois.boxes)

    def loss_fn():
        store.zero_grads()
        return roi_loss(params, rois, steps, gate) + decay()

    return grad_check(loss_fn, store, names, eps=eps)


# ---------------------------------------------------------------------------
# subcommand bodies

def _config_from_args(args):
    config = load_run_config(args.config) if getattr(args, "config", None) else RunConfig()
    if getattr(args, "world", None):
        config.world = args.world
    if getattr(args, "arm", None):
        config.arm = args.arm
    for flag, target in (("seed", "seed"), ("iters", "iters"),
                         ("T", "T"), ("pooling", "pooling")):
        v = getattr(args, flag, None)
        if v is not None:
            setattr(config.train, target, v)
    for flag in ("split_seed", "n_train", "n_test", "score_thresh"):
        v = getattr(args, flag, None)
        if v is not None:
            setattr(config.eval, flag, v)
    if getattr(args, "out", None):
        config.output_dir = args.out
    validate_config(config.train)
    if config.arm not in ARMS:
        raise ValueError(f"unknown arm {config.arm!r}; expected one of {ARMS}")
    _validate_eval(config.eval)
    return config


def _validate_eval(ev):
    if ev.n_train < 1 or ev.n_test < 1:
        raise ValueError("n_train and n_test must be >= 1")
    if not (0.0 <= ev.score_thresh <= 1.0):
        raise ValueError("score_thresh must be in [0, 1]")


def _manifest_payload(command, config, world):
    return {
        "command": command,
        "arm": config.arm,
        "world": world_to_dict(world),
        "world_hash": world_hash(world),
        "train": asdict(config.train),
        "eval": asdict(config.eval),
    }


def _cmd_gen_data(args):
    world = resolve_world(args.world)
    samples = generate(world, args.seed, args.n)
    save_dataset(args.out, samples, world)
    print(f"wrote {args.n} scenes to {args.out} (world {world_hash(world)})")
    return 0


def _train_progress(iters):
    marks = {max(0, (iters * k) // 5 - 1) for k in range(1, 6)}

    def cb(it, loss):
        if it in marks:
            print(f"iter {it + 1}/{iters}: loss {loss:.4f}")
    return cb


def _cmd_train(args):
    config = _config_from_args(args)
    world = resolve_world(config.world)
    out = _ensure_dir(config.output_dir)
    data_seed = derive_seed(config.eval.split_seed, "train-data")
    tr = train(world, config.train, config.arm, n_train=config.eval.n_train,
               data_seed=data_seed, callback=_train_progress(config.train.iters))
    ckpt = _write_run(out, "train", config, world, tr)
    print(f"arm {config.arm}: final loss {tr.losses[-1]:.4f}; checkpoint {ckpt}")
    return 0


def _write_run(out, command, config, world, tr):
    """A trained arm's checkpoint.bin, manifest.json (naming config.arm) and
    loss.csv, in `out`; returns the checkpoint's path."""
    ckpt = os.path.join(out, "checkpoint.bin")
    save_checkpoint(ckpt, tr.store)
    write_manifest(out, _manifest_payload(command, config, world))
    write_csv(os.path.join(out, "loss.csv"), ("iter", "loss"),
              [(i, v) for i, v in enumerate(tr.losses)])
    return ckpt


def _load_trained(checkpoint, manifest_path=None):
    """(manifest, DetectorParams, EvalConfig, world) of a checkpoint and its
    manifest, by default the manifest.json beside it. The model is the
    manifest's arm under its TrainConfig."""
    manifest, cfg, ev_cfg, world = read_manifest(manifest_path or os.path.join(
        os.path.dirname(os.path.abspath(checkpoint)), "manifest.json"))
    store = load_checkpoint(checkpoint)
    # the checkpoint must hold exactly the parameters, of the same shapes, of
    # the model the manifest describes; its values fill that model
    model = ParamStore()
    params = create_detector_params(model, world.channels, world.num_categories, cfg,
                                    manifest["arm"], 0)
    got = {name: p.value.shape for name, p in store.items()}
    for name, p in model.items():
        if name not in got:
            raise FileError(f"{checkpoint}: checkpoint lacks parameter {name!r}")
        if got.pop(name) != p.value.shape:
            raise FileError(f"{checkpoint}: parameter {name!r} has shape "
                            f"{store[name].value.shape}; the manifest's model needs "
                            f"{p.value.shape}")
        p.value[...] = store[name].value
    if got:
        raise FileError(f"{checkpoint}: checkpoint holds parameter {min(got)!r}, "
                        f"which the manifest's model lacks")
    return manifest, params, ev_cfg, world


def _cmd_eval(args):
    workers = eval_workers()
    manifest, params, ev_cfg, world = _load_trained(args.checkpoint, args.manifest)
    arm = params.arm
    n_test = args.n_test if args.n_test is not None else ev_cfg.n_test
    score_thresh = args.score_thresh if args.score_thresh is not None else ev_cfg.score_thresh
    _validate_eval(replace(ev_cfg, n_test=n_test, score_thresh=score_thresh))
    if args.data:
        samples, _header = load_dataset(args.data, world, manifest["world_hash"],
                                        allow_mismatch=args.allow_world_mismatch)
    else:
        test_seed = derive_seed(ev_cfg.split_seed, "test-data")
        samples = generate(world, test_seed, n_test)
    dets = detect_dataset(params, samples, score_thresh, workers)
    ev = evaluate_detections(dets, [s.gt for s in samples], world.num_categories,
                             world.ambiguous_pairs)
    out = _ensure_dir(args.out)
    write_eval_csvs(out, metrics_rows(arm, ev.per_category_ap,
                                      [c.name for c in world.categories]),
                    pr_rows(arm, ev.pr), fp_rows(arm, ev.fp))
    print(f"arm {arm}: map {ev.map:.4f} over {len(samples)} scenes; wrote {out}")
    return 0


def _cmd_ablate(args):
    config = _config_from_args(args)
    arms = ARMS
    if args.arms is not None:
        arms = tuple(a.strip() for a in args.arms.split(",") if a.strip())
        if not arms:
            raise ValueError("--arms names no arm")
        for i, a in enumerate(arms):
            if a not in ARMS:
                raise ValueError(f"unknown arm {a!r}; expected one of {ARMS}")
            if a in arms[:i]:
                raise ValueError(f"--arms names arm {a!r} twice")
    world = resolve_world(config.world)
    out = _ensure_dir(config.output_dir)
    summary, models = run_ablation(world, config.train, config.eval.n_train,
                                   config.eval.n_test, config.eval.score_thresh, arms=arms,
                                   sweep=args.sweep, split_seed=config.eval.split_seed,
                                   progress=print)
    cat_names = [c.name for c in world.categories]
    m_rows, p_rows, f_rows = [], [], []
    for arm, entry in summary["arms"].items():
        if entry["failed"]:
            print(f"arm {arm}: training diverged ({entry['error']})")
            continue
        m_rows += metrics_rows(arm, entry["ap"], cat_names)
        p_rows += pr_rows(arm, entry["pr"])
        f_rows += fp_rows(arm, entry["fp"])
        _write_run(_ensure_dir(os.path.join(out, arm)), "ablate",
                   replace(config, arm=arm), world, models[arm])
    for key, entry in summary["sweep"].items():
        if not entry["failed"]:
            m_rows += metrics_rows(f"sin-{key}", entry["ap"], cat_names)
    write_eval_csvs(out, m_rows, p_rows, f_rows)
    write_manifest(out, _manifest_payload("ablate", config, world))
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    for arm in models:
        print(f"arm {arm}: map {summary['arms'][arm]['map']:.4f}")
    print(f"wrote {out}")
    # a diverged arm fails the run, as a failed check fails gradcheck
    return 2 if len(models) < len(arms) else 0


def _cmd_gradcheck(args):
    for flag, v in (("--eps", args.eps), ("--tol", args.tol)):
        if not (np.isfinite(v) and v > 0.0):
            raise ValueError(f"{flag} must be positive and finite, got {v}")
    err = run_gradcheck(d=args.d, n=args.n, steps=args.T, seed=args.seed,
                        pooling=args.pooling, eps=args.eps)
    ok = err < args.tol
    print(f"max relative error {err:.3e} (tolerance {args.tol:g}): "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def _cmd_relations(args):
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    _manifest, params, ev_cfg, world = _load_trained(args.checkpoint, args.manifest)
    if EDGE_BANK not in params.sin.banks or params.cfg.T == 0:
        # its detections compute no edges, and its w_v was never trained
        raise ValueError(f"the {params.arm} arm's model at T = {params.cfg.T} learns no edges; "
                         "relations needs the edge or sin arm at T >= 1")
    score_thresh = args.score_thresh if args.score_thresh is not None else ev_cfg.score_thresh
    _validate_eval(replace(ev_cfg, score_thresh=score_thresh))
    sample = scene_sampler(world)
    rows = []
    for start in range(0, args.n, DETECT_STACK):
        ids = range(start, min(start + DETECT_STACK, args.n))
        dets, state = detect(params, [sample(args.seed, i) for i in ids], score_thresh)
        for i, d, edges in zip(ids, dets, state.edges):
            # Python scalars: _fmt_cell writes a float by its repr
            for cat, score, (node, partner, weight) in zip(
                    d["category"].tolist(), d["score"].tolist(),
                    relation_report(edges, d["roi"].tolist())):
                rows.append((i, node, cat, score, partner, weight))
    write_csv(args.out, ("sample", "node", "category", "score", "partner",
                         "edge_weight"), rows)
    print(f"wrote {len(rows)} relation rows for {args.n} scenes to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# CLI plumbing

class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def build_parser():
    p = _Parser(prog="sinet",
                description="Train and probe the structure inference detector "
                            "on synthetic contextual scenes.")
    sub = p.add_subparsers(dest="command", metavar="command")

    g = sub.add_parser("gen-data", help="write a synthetic scene dataset (JSONL)")
    g.add_argument("--world", default="default")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_data)

    # the run-config flags of train and ablate
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", help="JSON run config; flags override it")
    run.add_argument("--world")
    run.add_argument("--seed", type=int)
    run.add_argument("--iters", type=int)
    run.add_argument("--T", type=int, dest="T")
    run.add_argument("--pooling", choices=POOLINGS)
    run.add_argument("--split-seed", type=int, dest="split_seed")
    run.add_argument("--n-train", type=int, dest="n_train")
    run.add_argument("--out", required=True)

    t = sub.add_parser("train", parents=[run], help="train one arm and write a checkpoint")
    t.add_argument("--arm", choices=ARMS)
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint (mAP, PR, FP kinds)")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--manifest", help="defaults to manifest.json beside the checkpoint")
    e.add_argument("--data", help="JSONL test set; default generates the manifest's test split")
    e.add_argument("--n-test", type=int, dest="n_test")
    e.add_argument("--score-thresh", type=float, dest="score_thresh")
    e.add_argument("--allow-world-mismatch", action="store_true")
    e.add_argument("--out", required=True)
    e.set_defaults(func=_cmd_eval)

    a = sub.add_parser("ablate", parents=[run],
                       help="run the baseline/scene/edge/sin comparison")
    a.add_argument("--n-test", type=int, dest="n_test")
    a.add_argument("--score-thresh", type=float, dest="score_thresh")
    a.add_argument("--arms", help="comma list, default all four")
    a.add_argument("--sweep", action="store_true",
                   help="also sweep pooling x steps on the sin arm")
    a.set_defaults(func=_cmd_ablate)

    c = sub.add_parser("gradcheck", help="finite-difference check of the full loss")
    c.add_argument("--d", type=int, default=3)
    c.add_argument("--n", type=int, default=3)
    c.add_argument("--t", "--T", type=int, default=2, dest="T")
    c.add_argument("--seed", type=int, default=11)
    c.add_argument("--pooling", choices=POOLINGS, default="mean")
    c.add_argument("--eps", type=float, default=1e-5)
    c.add_argument("--tol", type=float, default=GRADCHECK_TOL)
    c.set_defaults(func=_cmd_gradcheck)

    r = sub.add_parser("relations", help="dump strongest-partner edges per detection")
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--manifest")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--n", type=int, default=8)
    r.add_argument("--score-thresh", type=float, dest="score_thresh")
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_relations)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as e:
        parser.print_usage(sys.stderr)
        print(f"sinet: error: {e}", file=sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        print("sinet: error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        # every non-finite value that matters is checked where it arises
        # (a loss, a GRU pre-activation, an input), so numpy's warnings
        # would only precede that check's one error line
        with np.errstate(all="ignore"):
            return args.func(args)
    except (FileError, OSError, TrainingDiverged, FloatingPointError) as e:
        print(f"sinet: error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"sinet: error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        # a config or flag within every bound can still ask for more than
        # the host has: a huge grid, scene count or --iters
        print(f"sinet: error: out of memory{f': {e}' if str(e) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
