#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it as JSON.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

For each workload, it makes one untraced run per seed. It then makes one
traced run at the first seed. Each end-to-end metric gets its median,
its quartiles (statistics.quantiles, n=4) and its spread, which is the
interquartile distance over the median. Raw values are kept. Runs are
sequential, so they never compete for cores.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2].partition("perfbench: ")[2])
    return info, json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"),
                   help="inclusive range, e.g. 1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", required=True)
    args = p.parse_args()
    if len(args.seeds) < 2:
        p.error("need at least two seeds for quartiles")

    out = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            info, result = run(workload, seed, args.seconds, 0)
            runs.append(result)
            out["environment"] = info["environment"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m["name"]: {"unit": m["unit"], **summary(
                [r["metrics"][m["name"]]["value"] for r in runs])}
                for m in spec["end_to_end"]},
        }
        _info, traced = run(workload, args.seeds[0], args.seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.4g} spread {s['spread']:.3f}")
        Path(args.out).write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
