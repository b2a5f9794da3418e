#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarise its steadiness.

    python3 bench/sweep.py --seeds 1-10 --out bench/baseline.json

For each workload, one untraced run per seed, then one traced run on the
first seed. For each end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--out", type=Path, default=None, help="write the summary here")
    args = parser.parse_args(argv)

    import numpy
    summary = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "machine": platform.machine()},
        "run_seconds": args.seconds, "seeds": args.seeds, "workloads": {},
    }
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    for workload in args.workloads:
        started = time.time()
        results = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "correct": all(r["correct"] for r in results),
                 "end_to_end": {}}
        print(f"{workload}: {len(results)} runs in {time.time() - started:.0f} s")
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in results])
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            flag = "" if name == "setup_s" or stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:<22} median {stats['median']:<12.6g} spread {stats['spread']:.4f}"
                  f" (bound {bound}){flag}  [{' '.join(f'{v:.4g}' for v in stats['values'])}]")
        traced = run(workload, args.seeds[0], args.seconds, 1)
        entry["per_layer_seed"] = args.seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
