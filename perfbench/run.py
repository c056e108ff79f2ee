#!/usr/bin/env python3
"""sinet benchmark: training and evaluation throughput on three workloads,
with a per-module trace.

    python3 perfbench/run.py --workload train_sin --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports sinet from ./src. Every run is a
train-then-evaluate session on the default world with TrainConfig defaults.
The workload picks the arm and which half is the timed operation, repeated
for --seconds; the other half runs untimed, for its quality metric and its
checks. Timings are corrected for the host's speed, which hostspeed.py
samples throughout the run. --trace 1 alternates untraced and traced
operations instead and reports per-module numbers. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. perfbench/README.md describes the workloads and metrics.
"""

import os

# One BLAS thread and one evaluation process, so the benchmark computes on
# one core. This must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SIN_NUM_WORKERS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One timed training. n_train = iters as in the acceptance ablation, so every
# iteration draws a scene it has not seen; the schedule (25% graph warm-up, lr
# drop at 70%) scales with iters.
TRAIN_ITERS = 400
# The checkpoint that eval set-up trains. At this length a sin model emits
# 8.5-9.5 detections per scene, near the ~7 of one trained for 2000
# iterations, and that count sets the work in final NMS and in evaluation.
CHECKPOINT_ITERS = 600
# A run collects at least this many iteration latencies, which leaves 10
# above the 99th percentile (logged) and 50 above the 95th (gated).
P99_SAMPLES = 1000
# Trains every code path once (graph off, then on) before timing starts.
WARMUP_ITERS = 8
# Set-up runs this many times and setup_s is the median. Train set-up takes
# tens of milliseconds, so it needs many; eval set-up trains a checkpoint,
# which takes seconds, so it runs twice.
SETUP_REPEATS = {"train": 9, "eval": 2}

# workload -> (timed operation, arm)
WORKLOADS = {
    "train_sin": ("train", "sin"),
    "train_baseline": ("train", "baseline"),
    "eval_sin": ("eval", "sin"),
}


def load_sinet():
    """Import sinet from this checkout's src/, never from site-packages."""
    if not (SRC / "sinet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sinet package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import sinet
    if Path(sinet.__file__).resolve().parent != SRC / "sinet":
        sys.exit(f"perfbench: imported sinet from {sinet.__file__}, not from {SRC}")


def commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"commit": commit(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "sin_num_workers": os.environ["SIN_NUM_WORKERS"]}


@dataclass
class TrainRun:
    start: float
    seconds: float
    marks: list = field(default_factory=list)   # clock at the start and after each iteration
    losses: list = None
    result: object = None


@dataclass
class EvalRun:
    start: float
    seconds: float
    scenes: int = 0
    map_pct: float = None


class Ledger:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def parse_metrics_csv(text):
    """mAP of a metrics.csv as written by `sinet eval`; raises ValueError if
    the file is malformed or its mean row disagrees with its categories."""
    lines = text.splitlines()
    if not lines or lines[0] != "arm,category,iou,ap":
        raise ValueError("metrics.csv has an unexpected header")
    aps = {}
    for line in lines[1:]:
        _arm, category, _iou, ap = line.split(",")
        aps[category] = float(ap) if ap else None
    mean = aps.pop("mean", None)
    values = [v for v in aps.values() if v is not None]
    if mean is None or not values or not all(0.0 <= v <= 1.0 for v in values):
        raise ValueError(f"metrics.csv lacks a mean row or has AP outside [0, 1]: {aps}")
    if abs(mean - sum(values) / len(values)) > 1e-12:
        raise ValueError(f"metrics.csv mean {mean} is not the mean of {values}")
    return mean


class Session:
    def __init__(self, workload, seed, seconds, work, clock=time.perf_counter):
        from sinet import detector, harness, numerics, synth_data
        self.detector, self.harness = detector, harness
        self.numerics, self.synth_data = numerics, synth_data
        self.kind, self.arm = WORKLOADS[workload]
        self.seed, self.seconds, self.work = seed, seconds, work
        self.clock = clock       # times every operation and set-up
        self.ledger = Ledger()
        self.world = None
        self.checkpoint = None   # what eval operations read
        self.reference = {}      # what every repeat of an operation must reproduce
        self.trainings = []      # TrainRuns behind the train_* metrics
        self.info = {}

    # -- operations -----------------------------------------------------------

    def run_config(self, iters, arm=None):
        """The RunConfig of `sinet train --arm ARM --iters N --n-train N
        --split-seed SEED`."""
        config = self.harness.RunConfig(arm=arm or self.arm)
        config.train.iters = iters
        config.eval.n_train = iters
        config.eval.split_seed = self.seed
        return config

    def train_op(self, config):
        """One call of detector.train, made as `sinet train` makes it, with a
        callback that only records a timestamp."""
        data_seed = self.numerics.derive_seed(config.eval.split_seed, "train-data")
        stamps = []
        clock = self.clock
        start = clock()
        try:
            result = self.detector.train(self.world, config.train, config.arm,
                                         n_train=config.eval.n_train, data_seed=data_seed,
                                         callback=lambda it, loss: stamps.append(clock()))
        except self.detector.TrainingDiverged as e:
            self.ledger.record([f"train {config.arm}: {e}"])
            return TrainRun(start, clock() - start)
        seconds = clock() - start
        losses = result.losses
        expected = self.reference.setdefault(("losses", config.arm, config.train.iters), losses)
        problems = []
        if len(losses) != config.train.iters or len(stamps) != config.train.iters:
            problems.append(f"train {config.arm}: {len(losses)} losses and {len(stamps)} "
                            f"callbacks for {config.train.iters} iterations")
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"train {config.arm}: non-finite loss")
        if losses != expected:
            problems.append(f"train {config.arm}: loss sequence differs from the first training")
        if not self.ledger.record(problems):
            return TrainRun(start, seconds)
        return TrainRun(start, seconds, [start] + stamps,
                        losses, result)

    def save_run(self, config, result, out):
        """Write the checkpoint and manifest that `sinet train` writes; returns
        the checkpoint path."""
        out.mkdir(parents=True, exist_ok=True)
        self.numerics.save_checkpoint(str(out / "checkpoint.bin"), result.store)
        self.harness.write_manifest(str(out), {
            "command": "train", "arm": config.arm,
            "world": self.synth_data.world_to_dict(self.world),
            "world_hash": self.synth_data.world_hash(self.world),
            "train": asdict(config.train), "eval": asdict(config.eval)})
        return out / "checkpoint.bin"

    def eval_op(self, checkpoint):
        """`sinet eval --checkpoint CHECKPOINT --out OUT`, in process."""
        out = self.work / "eval"
        text = io.StringIO()
        start = self.clock()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            code = self.harness.main(["eval", "--checkpoint", str(checkpoint), "--out", str(out)])
        seconds = self.clock() - start
        scenes = self.harness.EvalConfig().n_test
        if code != 0:
            problem = f"sinet eval exited {code}: {text.getvalue().strip()}"
        elif f"over {scenes} scenes" not in text.getvalue():
            problem = f"sinet eval did not report {scenes} scenes: {text.getvalue().strip()}"
        else:
            try:
                outputs = {name: (out / name).read_bytes()
                           for name in ("metrics.csv", "pr.csv", "fp.csv")}
                map_pct = 100.0 * parse_metrics_csv(outputs["metrics.csv"].decode())
            except (OSError, UnicodeDecodeError, ValueError) as e:
                problem = f"sinet eval output: {e}"
            else:
                same = self.reference.setdefault(("eval", str(checkpoint)), outputs) == outputs
                problem = None if same else "sinet eval outputs differ from the first evaluation"
        if not self.ledger.record([problem] if problem else []):
            return EvalRun(start, seconds)
        return EvalRun(start, seconds, scenes, map_pct)

    # -- set-up ---------------------------------------------------------------

    def setup(self, index):
        """Everything before the first timed operation; returns its start
        and seconds on the session clock. Train workloads: the world and a
        short warm-up training. Eval workloads: the world and the sin
        checkpoint the evaluations read, trained and saved as `sinet train`
        does it. Every eval set-up must write a byte-identical checkpoint."""
        start = self.clock()
        self.world = self.harness.resolve_world(self.harness.RunConfig().world)
        if self.kind == "train":
            self.train_op(self.run_config(WARMUP_ITERS))
            return start, self.clock() - start
        config = self.run_config(CHECKPOINT_ITERS)
        run = self.train_op(config)
        if run.result is not None:
            self.trainings.append(run)
            checkpoint = self.save_run(config, run.result, self.work / f"checkpoint-{index}")
            self.checkpoint = self.checkpoint or checkpoint
            same = checkpoint.read_bytes() == self.checkpoint.read_bytes()
            self.ledger.record([] if same else ["checkpoint bytes differ between set-ups"])
        return start, self.clock() - start

    def window(self, op, seconds, min_ops):
        """Run op(i) back to back for about `seconds`: another operation
        starts only while it should end within half an operation of the
        budget."""
        runs, start = [], time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(runs) >= min_ops and \
                    elapsed + statistics.median(r.seconds for r in runs) / 2 > seconds:
                return runs
            runs.append(op(len(runs)))

    def need_checkpoint(self):
        if self.checkpoint is None:
            raise RuntimeError("no checkpoint: " + "; ".join(self.ledger.problems))
        return self.checkpoint

    # -- runs -----------------------------------------------------------------

    def timed(self, sampler):
        """End-to-end metrics; nothing is traced. Only the workload's own
        operation is timed. Train workloads then evaluate their last model
        once, for map_pct; eval workloads take the train metrics from their
        set-up trainings. Every timing is divided by the host slowdown that
        `sampler` measured over it, which gives nominal-host seconds."""
        def slowdown(start, seconds):
            return sampler.factor(start, start + seconds)

        setups = [self.setup(i) for i in range(SETUP_REPEATS[self.kind])]
        if self.kind == "train":
            config = self.run_config(TRAIN_ITERS)
            self.trainings = self.window(lambda i: self.train_op(config), self.seconds,
                                         min_ops=math.ceil(P99_SAMPLES / TRAIN_ITERS))
            last = next((r for r in reversed(self.trainings) if r.result), None)
            if last is not None:
                self.checkpoint = self.save_run(config, last.result, self.work / "trained")
            evals = [self.eval_op(self.need_checkpoint())]
        else:
            checkpoint = self.need_checkpoint()
            evals = self.window(lambda i: self.eval_op(checkpoint), self.seconds, min_ops=1)
        trains = [r for r in self.trainings if r.result is not None]
        evals = [r for r in evals if r.map_pct is not None]
        if not evals or not trains:
            raise RuntimeError("no evaluation or training succeeded: "
                               + "; ".join(self.ledger.problems))
        setup_s = statistics.median(s / slowdown(t, s) for t, s in setups)
        slow = {id(r): slowdown(r.start, r.seconds) for r in trains + evals}
        # Each iteration against the rounds nearest to it, so that a burst of
        # host slowness does not read as a slow iteration.
        lat = [1e3 * (b - a) / slowdown(a, b - a)
               for r in trains for a, b in zip(r.marks, r.marks[1:])]
        percentiles = statistics.quantiles(lat, n=100, method="inclusive")
        p95, p99 = percentiles[94], percentiles[98]
        losses = trains[0].losses
        tail = losses[-(len(losses) // 10):]
        iters_per_s = len(lat) / sum(r.seconds / slow[id(r)] for r in trains)
        scenes_per_s = sum(r.scenes for r in evals) / sum(r.seconds / slow[id(r)] for r in evals)
        timed = trains if self.kind == "train" else evals
        # The untimed half's rate is logged, not gated: it rests on too little
        # work to be steady from run to run. So is the 99th percentile, which
        # moves with how often the host stalls. The wall timings are logged too.
        self.info = {"train_ops": len(trains), "train_iter_samples": len(lat),
                     "train_iter_ms_p99": p99, "samples_above_p99": sum(x > p99 for x in lat),
                     "eval_ops": len(evals),
                     "train_iters_per_s": iters_per_s, "eval_scenes_per_s": scenes_per_s,
                     "host_samples": len(sampler.rounds),
                     "timed_op_slowdown": [slow[id(r)] for r in timed],
                     "timed_op_wall_s": [r.seconds for r in timed],
                     "setup_wall_s": [s for _t, s in setups]}
        return {
            "setup_s": setup_s,
            "work_per_s": iters_per_s if self.kind == "train" else scenes_per_s,
            "train_iter_ms_p50": statistics.median(lat),
            "train_iter_ms_p95": p95,
            "train_loss_tail": sum(tail) / len(tail),
            "map_pct": evals[0].map_pct,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def traced(self, names):
        """Per-layer metrics `names`; only the workload's own operation is
        traced."""
        from tracer import Tracer, installed_wrappers
        self.trace_self_test()
        self.setup(0)
        tracer = Tracer()
        if self.kind == "train":
            config = self.run_config(TRAIN_ITERS)
            op, units = (lambda: self.train_op(config)), (lambda r: len(r.marks[1:]))
        else:
            checkpoint = self.need_checkpoint()
            op, units = (lambda: self.eval_op(checkpoint)), (lambda r: r.scenes)

        def alternate(i):
            if i % 2 == 0:
                if installed_wrappers():
                    raise RuntimeError(f"untraced operation sees wrappers: {installed_wrappers()}")
                return op()
            with tracer:
                return op()

        runs = self.window(alternate, self.seconds, min_ops=2)
        if installed_wrappers():
            raise RuntimeError(f"tracing wrappers left installed: {installed_wrappers()}")
        plain, traced = runs[0::2], runs[1::2]
        n = sum(units(r) for r in traced)
        if n == 0:
            raise RuntimeError("no traced operation succeeded: " + "; ".join(self.ledger.problems))
        overhead = 100.0 * (statistics.median(r.seconds for r in traced)
                            / statistics.median(r.seconds for r in plain) - 1.0)
        self.info = {"plain_ops": len(plain), "traced_ops": len(traced), "traced_units": n}
        return {name: layer_metric(name, tracer, n, overhead) for name in names}

    def trace_self_test(self):
        """The tracer must see the GRU bank on the sin arm, see no GRU work
        on the baseline arm, and leave nothing installed afterwards."""
        from tracer import Tracer, installed_wrappers
        self.world = self.harness.resolve_world(self.harness.RunConfig().world)
        for arm, expect_gru in (("sin", True), ("baseline", False)):
            tracer = Tracer()
            with tracer:
                self.detector.train(self.world, self.run_config(2, arm).train, arm,
                                    n_train=2, data_seed=self.seed)
            calls = tracer.calls("memory_cell.gru_forward")
            if (calls > 0) != expect_gru or installed_wrappers():
                raise RuntimeError(f"tracer self-test: a 2-iteration {arm} training recorded "
                                   f"{calls} gru_forward calls; installed after: "
                                   f"{installed_wrappers()}")


def layer_metric(name, tracer, units, overhead_pct):
    """One per-layer metric from the tracer: counts and times per unit of
    work (training iteration or evaluated scene), ratios and sizes as they
    are."""
    c = tracer.counters

    def ratio(a, b):
        return a / b if b else 0.0

    special = {
        "geometry.nms.boxes_in": lambda: c["nms_boxes_in"] / units,
        "geometry.nms.keep_ratio": lambda: ratio(c["nms_kept"], c["nms_boxes_in"]),
        "memory_cell.gru_forward.rows_per_call":
            lambda: ratio(c["gru_rows"], tracer.calls("memory_cell.gru_forward")),
        "evaluation.detections": lambda: c["detections"] / units,
        "trace.overhead_pct": lambda: overhead_pct,
    }
    if name in special:
        return special[name]()
    label, kind = name.rsplit(".", 1)
    if kind == "calls":
        return tracer.calls(label) / units
    if kind == "busy_ms":
        return 1e3 * tracer.busy_s(label) / units
    if kind == "self_ms":
        return 1e3 * tracer.self_s(label) / units
    raise KeyError(f"no rule computes per-layer metric {name!r}")


def metric_units(section):
    """name -> unit for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    load_sinet()
    from hostspeed import Sampler
    units = metric_units("per_layer" if args.trace else "end_to_end")
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=scratch))
    try:
        if args.trace:
            # No host sampling here: its rounds would land inside the spans.
            session = Session(args.workload, args.seed, args.seconds, work)
            values = session.traced(list(units))
        else:
            with Sampler() as sampler:
                session = Session(args.workload, args.seed, args.seconds, work,
                                  clock=sampler.clock)
                values = session.timed(sampler)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    for problem in session.ledger.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("perfbench:", json.dumps({"workload": args.workload, "seed": args.seed,
                                    **session.info, "environment": environment()}))
    print(json.dumps({
        "correct": session.ledger.failed == 0,
        "attempted": session.ledger.attempted,
        "failed": session.ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
