"""Operator entry point.

Commands: run (one seeded episode), sft (supervised warm-up), train (RL
optimization), eval (greedy policy evaluation). Exit codes: 0 success,
1 config/usage error, 2 episode-level failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .errors import AgentMeshError, BadCheckpoint, BadConfig, BadDataset
from .orchestrator import execute_episode, make_warmup_dataset
from .policy import (diverged, load_checkpoint, load_sft_dataset, save_checkpoint, sft_loss,
                     sft_update)
from .rewards import NoveltyLedger, episode_reward, scalarize
from .simenv import GeneratorConfig, sample_task
from .trainer import evaluate_policy, train
from .trajectory import to_log_record

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_EPISODE = 2


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--checkpoint", type=Path, default=None, help="policy checkpoint")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key (dotted path)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="agentmesh")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one seeded episode")
    _common_flags(p_run)
    p_run.add_argument("--task-class", default=None, help="force the task class")

    p_sft = sub.add_parser("sft", help="supervised warm-up from a demo dataset")
    _common_flags(p_sft)
    p_sft.add_argument("dataset", nargs="?", type=Path, default=None,
                       help="JSONL demo dataset (generated from config when omitted)")

    p_train = sub.add_parser("train", help="run RL training")
    _common_flags(p_train)

    p_eval = sub.add_parser("eval", help="greedy evaluation of a checkpoint")
    _common_flags(p_eval)
    p_eval.add_argument("--episodes", type=int, default=100)
    return parser


def _load(args) -> RunConfig:
    cfg = load_config(args.config, overrides=args.overrides, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _theta(cfg: RunConfig, checkpoint: Path | None) -> np.ndarray:
    if checkpoint is None:
        return cfg.policy_spec.zero_params()
    return load_checkpoint(checkpoint, cfg.policy_spec)


def _out_dir(cfg: RunConfig) -> Path:
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise BadConfig(f"out_dir: cannot create {cfg.out_dir}: {exc}") from None
    return cfg.out_dir


def cmd_run(args) -> int:
    cfg = _load(args)
    theta = _theta(cfg, args.checkpoint)
    generator = cfg.world.generator
    if args.task_class is not None:
        matched = [c for c in generator.classes if c.name == args.task_class]
        if not matched:
            raise BadConfig(f"unknown task class {args.task_class!r}")
        forced = tuple(replace(c, probability=1.0 if c.name == args.task_class else 0.0)
                       for c in generator.classes)
        generator = GeneratorConfig(classes=forced)

    task = sample_task(generator, np.random.default_rng([cfg.seed, 2]))
    registry = cfg.world.build_registry()
    env = cfg.world.build_env([cfg.seed, 3, 0])
    rng = np.random.default_rng([cfg.seed, 3, 1])
    traj, outcome, _ = execute_episode(
        task, theta, cfg.policy_spec, registry, cfg.router_weights, env, rng,
        generator=cfg.world.generator,
    )
    vector = episode_reward(traj, outcome, task, cfg.max_steps, NoveltyLedger())
    scalar = scalarize(vector, cfg.reward_weights)
    terminal = outcome.terminal
    record = to_log_record(
        traj, terminal, episode_id=task.task_id,
        reward_vector=vector.as_dict(), scalar_reward=scalar,
    )
    out = _out_dir(cfg)
    with open(out / "episodes.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"task: {task.task_id} (ground truth {task.ground_truth!r})")
    for seg in traj.segments:
        origin = seg.source if seg.card_id is None else f"{seg.source}:{seg.card_id}"
        print(f"  [{origin}] {' '.join(seg.tokens)}")
    print(f"terminal: {terminal['kind']}"
          + (f" answer={terminal['answer']!r}" if "answer" in terminal else "")
          + (f" reason={terminal['reason']}" if "reason" in terminal else ""))
    print(f"outcome: latency={outcome.total_latency_ms:.1f}ms "
          f"invocations={outcome.invocation_count} sla_met={outcome.sla_met}")
    print(f"reward: {vector.as_dict()} scalar={scalar:.4f}")

    # the format reward is 1 exactly when the trajectory is well formed
    if outcome.failure is not None or vector.format != 1.0:
        return EXIT_EPISODE
    return EXIT_OK


def cmd_sft(args) -> int:
    cfg = _load(args)
    if args.dataset is not None:
        samples = load_sft_dataset(args.dataset, cfg.policy_spec)
    else:
        samples = make_warmup_dataset(cfg.world.generator, cfg.policy_spec, 200,
                                      np.random.default_rng([cfg.seed, 4]))
    if not samples:
        raise BadDataset(0, "dataset is empty")
    theta = _theta(cfg, args.checkpoint)
    for step in range(cfg.sft.steps):
        with np.errstate(over="ignore"):  # reported just below, as an error
            theta = sft_update(theta, cfg.policy_spec, samples, cfg.sft.learning_rate)
        if diverged(theta):
            raise BadConfig(f"sft.learning_rate: {cfg.sft.learning_rate!r} made the policy "
                            f"parameters overflow at step {step}")
    loss = sft_loss(theta, cfg.policy_spec, samples)
    out = _out_dir(cfg)
    ckpt = out / "checkpoint.json"
    save_checkpoint(theta, ckpt)
    print(f"samples: {len(samples)}  steps: {cfg.sft.steps}  final_loss: {loss:.6f}")
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load(args)
    initial = _theta(cfg, args.checkpoint)
    out = _out_dir(cfg)

    def checkpoint_callback(iteration: int, theta: np.ndarray) -> None:
        save_checkpoint(theta, out / f"checkpoint_{iteration:05d}.json")

    theta, report = train(
        cfg.world, cfg.policy_spec, cfg.trainer, cfg.reward_weights,
        cfg.router_weights, cfg.seed, initial_theta=initial,
        checkpoint_callback=checkpoint_callback,
    )
    (out / "report.csv").write_text(report.to_csv())
    save_checkpoint(theta, out / "checkpoint.json")
    last = report.rows[-1]
    print(f"iterations: {len(report.rows)}  "
          f"final mean_reward: {last.mean_reward:.4f}  "
          f"final success_rate: {last.success_rate:.4f}  "
          f"collapse_warnings: {report.collapse_warnings}")
    print(f"report: {out / 'report.csv'}")
    print(f"checkpoint: {out / 'checkpoint.json'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load(args)
    if args.checkpoint is None:
        raise BadCheckpoint("eval requires --checkpoint")
    theta = load_checkpoint(args.checkpoint, cfg.policy_spec)
    summary = evaluate_policy(
        cfg.world, cfg.policy_spec, theta, cfg.router_weights,
        n_episodes=args.episodes, seed=cfg.seed,
    )
    print(json.dumps(summary.as_dict(), indent=2))
    return EXIT_OK


_COMMANDS = {"run": cmd_run, "sft": cmd_sft, "train": cmd_train, "eval": cmd_eval}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (BadConfig, BadDataset, BadCheckpoint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AgentMeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EPISODE


if __name__ == "__main__":
    sys.exit(main())
