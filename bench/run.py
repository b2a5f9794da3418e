#!/usr/bin/env python3
"""Run one benchmark workload for one seed, in this one process.

    python3 bench/run.py --workload train_zero --seed 1 --seconds 30 --trace 0

The unit of work is repeated until ``--seconds`` would be exceeded. Prints a
readable table, then one JSON line: every end-to-end metric listed in
BENCHMARK.json with ``--trace 0``, every per-layer metric with ``--trace 1``.
Exit code 1 means an output check failed; 2 means the program under
``src/`` could not be loaded.
"""

import os

# One process, one thread: pin the BLAS pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7
# At least this many repetitions, and iteration times are pooled over exactly
# this many traced ones, so every per-layer count repeats between runs.
MIN_REPS = 4

# Host speed on shared machines drifts by up to 2x over minutes, which moves
# even the fastest of many repetitions by 30% between runs. Every timing is
# therefore divided by the mean time of a fixed reference loop run just
# before and just after it, and reported in seconds of the calibration host:
# REFERENCE_S is the loop's time there when the host was quiet (2-vCPU Xeon
# at 2.0 GHz, Python 3.11, numpy 2.4).
REFERENCE_S = 0.028


@dataclass(frozen=True)
class _Draw:
    index: int
    prob: float


def reference_seconds() -> float:
    """Time a fixed loop with the program's per-decision mix: a seeded
    generator, a 4x10 softmax, a weighted draw, a frozen record and a dict
    update."""
    weights, features = np.ones((4, 10)), np.arange(10.0)
    start = perf_counter()
    counts: dict[int, float] = {}
    for i in range(1000):
        rng = np.random.default_rng([i, 1])
        logits = weights @ features
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        draw = _Draw(int(rng.choice(4, p=probs)), float(probs[0]))
        counts[draw.index] = counts.get(draw.index, 0.0) + draw.prob
    return perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", type=Path, default=None,
                        help=argparse.SUPPRESS)  # internal: one set-up, then exit
    return parser.parse_args(argv)


def probe_setup(args, work: Path) -> float:
    """Seconds from starting a fresh interpreter until the workload is set
    up and ready for its first timed call, in calibration-host seconds."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--probe-setup", str(work)]
    before = reference_seconds()
    start = monotonic_clock()
    child = subprocess.run(command, capture_output=True, text=True, timeout=60, check=True)
    elapsed = float(child.stdout) - start
    return elapsed * 2 * REFERENCE_S / (before + reference_seconds())


def monotonic_clock() -> float:
    """A clock that reads the same in every process of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def repeat(workload, seconds, tracer, on_traced):
    """Timed repetitions until the next would overrun ``seconds``, each
    between two runs of the reference loop, which set ``rep.scale``. With a
    tracer, every untraced repetition is followed by a traced one, and
    ``on_traced(rep)`` runs while its spans are still held."""
    plain, traced = [], []
    refs = [reference_seconds()]

    def timed(reps, run):
        rep = run()
        refs.append(reference_seconds())
        rep.scale = 2 * REFERENCE_S / (refs[-2] + refs[-1])
        reps.append(rep)
        return rep

    def traced_run():
        tracer.reset()
        with tracer.installed():
            return workload.run()

    deadline = perf_counter() + seconds
    while True:
        begin = perf_counter()
        timed(plain, workload.run)
        if tracer is not None:
            on_traced(timed(traced, traced_run))
        cycle = perf_counter() - begin
        if len(plain) >= MIN_REPS and perf_counter() + cycle > deadline:
            return plain, traced


def layer_metrics(tracer, workloads, scale: float) -> tuple[dict, list[float]]:
    """Counts and calibration-scaled times of one traced repetition."""
    metrics = dict(tracer.counts)
    for name, total in tracer.layer_totals().items():
        metrics[f"{name}.calls"] = total["calls"]
        metrics[f"{name}.s"] = total["s"] * scale
        metrics[f"{name}.self_s"] = total["self_s"] * scale
    invoked = metrics["simenv.invoke_agent.calls"]
    metrics["simenv.invoke_agent.success_ratio"] = (
        metrics["simenv.invoke_agent.succeeded"] / invoked if invoked else 0.0)
    groups = metrics["trainer.group_advantage.calls"]
    metrics["trainer.zero_spread_group_ratio"] = (
        metrics["trainer.zero_spread_groups"] / groups if groups else 0.0)
    iterations, metrics["trainer.episodes_per_iter_max"] = workloads.iteration_stats(tracer)
    return metrics, [ms * scale for ms in iterations]


def median_scaled(reps, field: str) -> float:
    return float(np.median([getattr(rep, field) * rep.scale for rep in reps]))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "agentmesh").is_dir():
        print(f"error: no program at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import spans
        import workloads
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    if args.probe_setup is not None:
        workload.setup(args.probe_setup)
        print(monotonic_clock())
        return 0

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir()
    episodes = failures = reps_done = 0
    try:
        workload.write_inputs(args.seed, work)
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            workloads.instrument(tracer)
            scale = REFERENCE_S / reference_seconds()
            with tracer.installed():
                workload.setup(work)
            load_config_s = tracer.layer_totals()["config.load_config"]["s"] * scale
        else:
            workload.setup(work)
            setup = [probe_setup(args, work) for _ in range(SETUP_PROBES)]

        # Untimed warm-up that also counts episodes and failed episodes.
        counter = spans.Tracer()
        workloads.count_episodes(counter)
        with counter.installed():
            reference = workload.run()
        episodes = counter.counts["orchestrator.execute_episode.calls"]
        failures = counter.counts["orchestrator.episode_failures"]

        per_rep, iterations = [], []

        def on_traced(rep):
            metrics, times = layer_metrics(tracer, workloads, rep.scale)
            if len(per_rep) < MIN_REPS:
                iterations.extend(times)
            if per_rep and any(metrics[k] != per_rep[0][k] for k in metrics if k.endswith(".calls")):
                raise AssertionError("per-layer counts differ between traced repetitions")
            per_rep.append(metrics)

        plain, traced = repeat(workload, args.seconds, tracer, on_traced)
        reps_done = 1 + len(plain) + len(traced)
        for rep in plain + traced:
            if rep.output != reference.output:
                raise AssertionError("a repetition's output differs from the warm-up's"
                                     + (" (tracing perturbs the program)" if traced else ""))
        success = workload.greedy_success(reference)
        if success < workload.success_floor:
            raise AssertionError(f"greedy success {success} is below {workload.success_floor}")
        if traced and per_rep[0]["orchestrator.execute_episode.calls"] != episodes:
            raise AssertionError("traced and counted episodes differ")
    except Exception:
        traceback.print_exc()
        runs = max(reps_done, 1)
        print(json.dumps({"correct": False, "attempted": max(episodes * runs, 1),
                          "failed": failures * runs + 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = episodes * reps_done
    raw = sorted(rep.wall_s for rep in plain)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(plain)} untraced "
          f"and {len(traced)} traced repetitions of {episodes} episodes")
    print(f"  episode_failure_rate {failures * reps_done / attempted:.6g} "
          f"({failures * reps_done} of {attempted})")
    print(f"  raw wall per repetition (s): min {raw[0]:.4f} median {np.median(raw):.4f} "
          f"max {raw[-1]:.4f}; median host scale {np.median([r.scale for r in plain]):.3f}")
    if args.trace:
        # Counts repeat exactly across traced repetitions; times take the median.
        values = {key: value if isinstance(value, int) else float(np.median([m[key] for m in per_rep]))
                  for key, value in per_rep[0].items()}
        tail = spans.tail_percentile(iterations)
        values.update({
            "config.load_config.s": load_config_s,
            "trace_overhead_ratio": median_scaled(traced, "wall_s") / median_scaled(plain, "wall_s"),
            "trainer.iter_ms_samples": len(iterations),
            "trainer.iter_ms_p50": float(np.median(iterations)) if iterations else 0.0,
            "trainer.iter_ms_tail_pct": tail[0] if tail else 0.0,
            "trainer.iter_ms_tail": tail[1] if tail else 0.0,
        })
        np.savez_compressed(OUT / f"spans-{args.workload}-seed{args.seed}.npz", **tracer.arrays())
        wanted = benchmark["per_layer"]
    else:
        values = {
            "setup_s": float(np.median(setup)),
            "wall_s": median_scaled(plain, "wall_s"),
            "episodes_per_s": episodes / median_scaled(plain, "episode_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "greedy_success_rate": success,
        }
        if reference.sft_s:
            values["sft_s"] = median_scaled(plain, "sft_s")
        wanted = benchmark["end_to_end"]
    for name in sorted(values):
        print(f"  {name:<40} {values[name]:.6g}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failures * reps_done,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
