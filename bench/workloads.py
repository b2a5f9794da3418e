"""The three workloads and the layer boundaries the traced run wraps.

Every workload calls the program only through the public entry points the
CLI uses, looked up on their modules at call time so that the tracer's
wrappers see each call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from agentmesh import config, orchestrator, policy, registry, rewards, router, simenv, trainer, trajectory

import inputs

# Greedy success of a trained policy is measured on this fixed task seed,
# which no workload trains on.
HOLDOUT_SEED = 606
HOLDOUT_EPISODES = 1000
SFT_DEMOS = 200
SUCCESS_FLOOR = 0.95  # the floor of acceptance criterion 5


@dataclass
class Rep:
    """One timed repetition of a workload's unit of work."""

    wall_s: float
    episode_s: float          # the phase that runs the episodes
    sft_s: float              # 0 where the workload has no warm-up
    output: bytes             # everything the unit produced, for comparison
    theta: np.ndarray | None  # final parameters of a training unit
    scale: float = 1.0        # calibration-host seconds per second measured


class TrainZero:
    """RL ``train`` from zero parameters on the case-study preset."""

    name = "train_zero"
    # Up to ~30 iterations every seed runs the same episodes; by 75 they
    # differ by 25%, and at 500 they run 10k to 147k episodes.
    settings = {"trainer": {"iterations": 30}}
    # Trained policies get no floor: RL from the README warm-up ends below
    # 0.95 on some seeds (0.939 on seed 9 at 300 and 500 iterations), so
    # their greedy success is a gated metric instead.
    success_floor = 0.0

    def write_inputs(self, seed: int, work: Path) -> None:
        inputs.write_json(work / inputs.CONFIG_FILE, {"seed": seed, **self.settings})

    def setup(self, work: Path):
        self.work = work
        self.cfg = config.load_config(work / inputs.CONFIG_FILE)

    def initial_theta(self) -> tuple[np.ndarray, float]:
        return self.cfg.policy_spec.zero_params(), 0.0

    def run(self) -> Rep:
        cfg = self.cfg
        start = perf_counter()
        initial, sft_s = self.initial_theta()
        mid = perf_counter()
        theta, report = trainer.train(
            cfg.world, cfg.policy_spec, cfg.trainer, cfg.reward_weights,
            cfg.router_weights, cfg.seed, initial_theta=initial,
        )
        end = perf_counter()
        check_theta(theta, cfg.policy_spec)
        if len(report.rows) != cfg.trainer.iterations:
            raise AssertionError(f"{len(report.rows)} report rows for "
                                 f"{cfg.trainer.iterations} iterations")
        path = self.work / "checkpoint.json"
        policy.save_checkpoint(theta, path)
        output = path.read_bytes() + report.to_csv().encode()
        return Rep(end - start, end - mid, sft_s, output, theta)

    def greedy_success(self, rep: Rep) -> float:
        cfg = self.cfg
        return trainer.evaluate_policy(
            cfg.world, cfg.policy_spec, rep.theta, cfg.router_weights,
            n_episodes=HOLDOUT_EPISODES, seed=HOLDOUT_SEED, max_steps=cfg.max_steps,
        ).success_rate


class TrainSft(TrainZero):
    """The two-phase pipeline: SFT warm-up, checkpoint, then RL ``train``."""

    name = "train_sft"
    # A warm-up short enough to repeat, yet confident enough that RL never
    # branches (8 episodes per iteration); RL learns to relay by ~100.
    settings = {"trainer": {"iterations": 300}, "sft": {"steps": 100, "learning_rate": 0.5}}

    def initial_theta(self) -> tuple[np.ndarray, float]:
        cfg = self.cfg
        start = perf_counter()
        samples = orchestrator.make_warmup_dataset(
            cfg.world.generator, cfg.policy_spec, SFT_DEMOS, np.random.default_rng([cfg.seed, 4]))
        theta = cfg.policy_spec.zero_params()
        for _ in range(cfg.sft.steps):
            theta = policy.sft_update(theta, cfg.policy_spec, samples, cfg.sft.learning_rate)
        path = self.work / "sft_checkpoint.json"
        policy.save_checkpoint(theta, path)
        sft_s = perf_counter() - start
        return policy.load_checkpoint(path, cfg.policy_spec), sft_s


class EvalWide:
    """Greedy ``evaluate_policy`` of a fixed relay policy over 2,000 cards."""

    name = "eval_wide"
    episodes = 500
    success_floor = SUCCESS_FLOOR

    def write_inputs(self, seed: int, work: Path) -> None:
        world = inputs.wide_world_config(seed)
        inputs.write_json(work / inputs.CONFIG_FILE, world)
        spec = config.load_config(work / inputs.CONFIG_FILE).policy_spec
        inputs.write_checkpoint(work / inputs.POLICY_FILE, inputs.relay_policy(spec, world))

    def setup(self, work: Path):
        self.cfg = config.load_config(work / inputs.CONFIG_FILE)
        self.theta = policy.load_checkpoint(work / inputs.POLICY_FILE, self.cfg.policy_spec)

    def run(self) -> Rep:
        cfg = self.cfg
        start = perf_counter()
        summary = trainer.evaluate_policy(
            cfg.world, cfg.policy_spec, self.theta, cfg.router_weights,
            n_episodes=self.episodes, seed=cfg.seed, max_steps=cfg.max_steps,
        )
        end = perf_counter()
        if summary.n_episodes != self.episodes or summary.failure_modes:
            raise AssertionError(f"unexpected summary {summary.as_dict()}")
        output = json.dumps(summary.as_dict(), sort_keys=True).encode()
        return Rep(end - start, end - start, 0.0, output, None)

    def greedy_success(self, rep: Rep) -> float:
        return json.loads(rep.output)["success_rate"]



WORKLOADS = {w.name: w for w in (TrainZero, TrainSft, EvalWide)}


def check_theta(theta: np.ndarray, spec) -> None:
    if theta.shape != (spec.num_actions, spec.encoded_dim):
        raise AssertionError(f"theta shape {theta.shape} does not match the spec")
    if not np.all(np.isfinite(theta)):
        raise AssertionError("theta has non-finite entries")


# --- layer boundaries -------------------------------------------------------

def _episode_done(tracer, result) -> None:
    _, outcome, _ = result
    if outcome.failure is not None:
        tracer.add("orchestrator.episode_failures")


def _candidates(tracer, result) -> None:
    # route() is discover()'s only caller and scores every candidate it gets.
    tracer.add("router.candidates_scored", len(result))


def _invoked(tracer, result) -> None:
    if result.succeeded:
        tracer.add("simenv.invoke_agent.succeeded")


def _advantages(tracer, result) -> None:
    if not np.any(result):
        tracer.add("trainer.zero_spread_groups")


def count_episodes(tracer) -> None:
    """Count episodes and failed episodes only; cheap enough for warm-up."""
    tracer.add("orchestrator.episode_failures", 0)
    tracer.count("orchestrator.execute_episode",
                 [(orchestrator, "execute_episode"), (trainer, "execute_episode")],
                 observe=_episode_done)


def instrument(tracer) -> None:
    """Register a wrapper at every measured layer boundary."""
    for tally in ("orchestrator.episode_failures", "router.candidates_scored",
                  "simenv.invoke_agent.succeeded", "trainer.zero_spread_groups"):
        tracer.add(tally, 0)
    tracer.count("policy.action_distribution",
                 [(policy, "action_distribution"), (orchestrator, "action_distribution")])
    tracer.count("policy.encode", [(policy.PolicySpec, "encode")])
    tracer.count("policy.entropy", [(policy, "entropy"), (orchestrator, "policy_entropy")])
    span = tracer.span
    span("policy.log_prob_and_grad", [(policy, "log_prob_and_grad"), (trainer, "log_prob_and_grad")])
    span("policy.sft_update", [(policy, "sft_update")])
    span("orchestrator.execute_episode",
         [(orchestrator, "execute_episode"), (trainer, "execute_episode")],
         observe=_episode_done, episode=True)
    span("orchestrator.decide", [(orchestrator, "decide")])
    span("router.route", [(router, "route"), (orchestrator, "route")])
    span("registry.discover", [(registry.Registry, "discover")], observe=_candidates)
    span("registry.update_metrics", [(registry.Registry, "update_metrics")])
    span("simenv.build_env", [(simenv.WorldConfig, "build_env")])
    span("simenv.invoke_agent", [(simenv.SimEnv, "invoke_agent")], observe=_invoked)
    span("simenv.sample_task",
         [(simenv, "sample_task"), (trainer, "sample_task"), (orchestrator, "sample_task")])
    span("trajectory.validate", [(trajectory, "validate"), (rewards, "validate")])
    span("rewards.episode_reward", [(rewards, "episode_reward"), (trainer, "episode_reward")])
    span("trainer.rollout_group", [(trainer, "rollout_group")])
    span("trainer.group_advantage", [(trainer, "group_advantage")], observe=_advantages)
    span("trainer.entropy_control", [(trainer, "entropy_control")])
    span("trainer.masked_policy_update", [(trainer, "masked_policy_update")])
    span("trainer.train", [(trainer, "train")])
    span("trainer.evaluate_policy", [(trainer, "evaluate_policy")])
    span("config.load_config", [(config, "load_config")])


def iteration_stats(tracer) -> tuple[list[float], int]:
    """Iteration durations (ms) and the most episodes in one iteration.

    ``train`` runs one ``masked_policy_update`` per iteration, so iteration k
    ends when the k-th update returns; the first starts with ``train``.
    """
    train_start, _ = tracer.spans_of("trainer.train")
    _, update_end = tracer.spans_of("trainer.masked_policy_update")
    if not len(train_start) or not len(update_end):
        return [], 0
    bounds = np.concatenate([train_start[:1], update_end])
    episode_start, _ = tracer.spans_of("orchestrator.execute_episode")
    per_iteration = np.diff(np.searchsorted(episode_start, bounds))
    return list(np.diff(bounds) * 1000.0), int(per_iteration.max())
