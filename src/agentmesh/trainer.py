"""Group-relative policy optimization over grouped episode rollouts.

Each iteration rolls a group of episodes for the same task, normalizes their
scalar rewards against the group's own statistics, applies an entropy-based
correction per decision step, and takes one masked policy-gradient step.
Only core decision steps contribute gradient terms, so agent-produced content
can never influence the update. High decision entropy schedules extra rollouts
of the same task in the next iteration; persistently low entropy increments a
collapse-warning counter.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .errors import BadConfig
from .orchestrator import DecisionTable, EpisodeOutcome, StepRecord, execute_episode
from .policy import Observation, PolicySpec, diverged, log_prob_and_grad
from .registry import Registry
from .rewards import (NoveltyLedger, RewardVector, RewardWeights, accuracy_reward,
                      episode_reward, scalarize)
from .router import RoutingWeights
from .simenv import TaskSpec, WorldConfig, sample_task
from .trajectory import Trajectory

ADVANTAGE_EPS = 1e-8


@dataclass(frozen=True)
class ExplorationConfig:
    entropy_high_threshold: float
    entropy_floor: float
    branch_factor: int = 2
    entropy_bonus: float = 0.1

    def __post_init__(self):
        if self.entropy_floor >= self.entropy_high_threshold:
            raise BadConfig("entropy_floor must be < entropy_high_threshold")
        if self.branch_factor < 2:
            raise BadConfig("branch_factor must be >= 2")
        if self.entropy_bonus < 0:
            raise BadConfig("entropy_bonus must be >= 0")

    @staticmethod
    def defaults(num_actions: int) -> "ExplorationConfig":
        max_h = math.log(num_actions)
        return ExplorationConfig(entropy_high_threshold=0.8 * max_h, entropy_floor=0.05 * max_h)


@dataclass(frozen=True)
class EpisodeResult:
    trajectory: Trajectory
    outcome: EpisodeOutcome
    steps: list[StepRecord]
    reward_vector: RewardVector
    scalar_reward: float


@dataclass(frozen=True)
class RolloutGroup:
    episodes: list[EpisodeResult]

    @property
    def scalar_rewards(self) -> np.ndarray:
        return np.array([ep.scalar_reward for ep in self.episodes])


@dataclass(frozen=True)
class TrainerConfig:
    group_size: int = 8
    learning_rate: float = 0.05
    iterations: int = 500
    exploration: ExplorationConfig | None = None
    checkpoint_every: int = 0

    def __post_init__(self):
        if self.group_size < 2:
            raise BadConfig("group_size must be >= 2")
        if self.learning_rate < 0:
            raise BadConfig("learning_rate must be >= 0")
        if self.iterations < 1:
            raise BadConfig("iterations must be >= 1")


@dataclass
class IterationStats:
    iteration: int
    mean_reward: float
    success_rate: float
    mean_entropy: float
    triggers: int


@dataclass
class TrainingReport:
    rows: list[IterationStats] = field(default_factory=list)
    collapse_warnings: int = 0

    def to_csv(self) -> str:
        lines = [",".join(f.name for f in fields(IterationStats))]
        lines += [",".join(map(repr, astuple(r))) for r in self.rows]
        return "\n".join(lines) + "\n"


def rollout_group(
    task: TaskSpec,
    theta: np.ndarray,
    spec: PolicySpec,
    registry: Registry,
    router_weights: RoutingWeights,
    group_size: int,
    world: WorldConfig,
    base_seed: list[int],
    reward_weights: RewardWeights,
    max_steps: int,
    ledger: NoveltyLedger,
) -> RolloutGroup:
    """G independent episodes of one task over derived seed streams.

    Rollout i uses env stream (base_seed, i, 0) and policy stream
    (base_seed, i, 1); ledger updates apply in rollout-index order. The
    rollouts share one decision table, since they share ``theta``.
    """
    if group_size < 2:
        raise BadConfig("group_size must be >= 2")
    table = DecisionTable(theta, spec)
    episodes = []
    for i in range(group_size):
        env = world.build_env(base_seed + [i, 0])
        rng = np.random.default_rng(base_seed + [i, 1])
        traj, outcome, steps = execute_episode(
            task, theta, spec, registry, router_weights, env, rng,
            max_steps=max_steps, generator=world.generator, table=table,
        )
        vector = episode_reward(traj, outcome, task, max_steps, ledger)
        episodes.append(EpisodeResult(
            trajectory=traj,
            outcome=outcome,
            steps=steps,
            reward_vector=vector,
            scalar_reward=scalarize(vector, reward_weights),
        ))
    return RolloutGroup(episodes=episodes)


def group_advantage(scalar_rewards) -> np.ndarray:
    """Group-relative advantages: (r - mean) / (population std + eps).

    A zero-spread group yields identically zero advantages rather than
    amplifying numerical noise.
    """
    rewards = np.asarray(scalar_rewards, dtype=float)
    if rewards.size < 2:
        raise BadConfig("advantage normalization needs a group of >= 2 rewards")
    std = float(rewards.std())
    if std == 0.0:
        return np.zeros_like(rewards)
    return (rewards - rewards.mean()) / (std + ADVANTAGE_EPS)


def entropy_control(steps: list[StepRecord], advantage: float,
                    config: ExplorationConfig) -> tuple[bool, np.ndarray]:
    """Per-step corrected advantages plus the exploration trigger flag.

    Each step gets A + beta * (H_t - mean H); the trigger fires when any
    decision entropy exceeds the high threshold.
    """
    if not steps:
        return False, np.zeros(0)
    entropies = np.array([s.entropy for s in steps])
    triggered = bool(np.any(entropies > config.entropy_high_threshold))
    corrected = advantage + config.entropy_bonus * (entropies - entropies.mean())
    return triggered, corrected


def masked_policy_update(
    theta: np.ndarray,
    spec: PolicySpec,
    episodes: list[tuple[list[StepRecord], np.ndarray]],
    learning_rate: float,
) -> np.ndarray:
    """One ascent step on mean per-episode sum of A'_t * grad log pi.

    The gradient depends only on recorded decision steps; agent and system
    trajectory content carries no log-prob terms, so the update is invariant
    to any mutation of masked segments. Each distinct (observation, action)
    gradient is computed once.
    """
    if learning_rate < 0:
        raise ValueError("learning_rate must be >= 0")
    if not episodes:
        return theta
    grad = np.zeros_like(theta)
    grads: dict[tuple[Observation, int], np.ndarray] = {}
    for steps, advantages in episodes:
        for step, adv in zip(steps, advantages):
            if adv == 0.0:
                continue
            key = (step.obs, step.action_index)
            g = grads.get(key)
            if g is None:
                g = grads[key] = log_prob_and_grad(theta, spec, *key)[1]
            grad += adv * g
    if not np.any(grad):
        return theta
    return theta + learning_rate * grad / len(episodes)


def train(
    world: WorldConfig,
    spec: PolicySpec,
    trainer_config: TrainerConfig,
    reward_weights: RewardWeights,
    router_weights: RoutingWeights,
    seed: int,
    initial_theta: np.ndarray | None = None,
    checkpoint_callback=None,
) -> tuple[np.ndarray, TrainingReport]:
    """Full optimization loop; returns final parameters and the report.

    ``checkpoint_callback(iteration, theta)`` is invoked every
    ``checkpoint_every`` iterations when configured.
    """
    cfg = trainer_config
    exploration = cfg.exploration or ExplorationConfig.defaults(spec.num_actions)
    theta = spec.zero_params() if initial_theta is None else np.array(initial_theta, dtype=float)
    registry = world.build_registry()
    ledger = NoveltyLedger()
    task_rng = np.random.default_rng([seed, 0])
    report = TrainingReport()
    pending_tasks: list[TaskSpec] = []

    for iteration in range(cfg.iterations):
        plans: list[tuple[TaskSpec, int]] = [(sample_task(world.generator, task_rng),
                                              cfg.group_size)]
        for t in pending_tasks:
            plans.append((t, exploration.branch_factor))
        pending_tasks = []

        groups: list[RolloutGroup] = []
        updates: list[tuple[list[StepRecord], np.ndarray]] = []
        triggers = 0
        for gi, (task, size) in enumerate(plans):
            group = rollout_group(
                task, theta, spec, registry, router_weights, size, world,
                [seed, iteration + 1, gi], reward_weights, spec.max_steps, ledger,
            )
            groups.append(group)
            advantages = group_advantage(group.scalar_rewards)
            group_triggered = False
            for ep, adv in zip(group.episodes, advantages):
                triggered, corrected = entropy_control(ep.steps, float(adv), exploration)
                if triggered:
                    triggers += 1
                    group_triggered = True
                updates.append((ep.steps, corrected))
            if group_triggered:
                pending_tasks.append(task)

        with np.errstate(over="ignore"):  # reported just below, as an error
            theta = masked_policy_update(theta, spec, updates, cfg.learning_rate)
        if diverged(theta):
            raise BadConfig(f"trainer.learning_rate: {cfg.learning_rate!r} made the policy "
                            f"parameters overflow at iteration {iteration}")

        all_eps = [ep for g in groups for ep in g.episodes]
        all_steps = [s for ep in all_eps for s in ep.steps]
        mean_entropy = float(np.mean([s.entropy for s in all_steps])) if all_steps else 0.0
        report.rows.append(IterationStats(
            iteration=iteration,
            mean_reward=float(np.mean([ep.scalar_reward for ep in all_eps])),
            success_rate=float(np.mean([ep.reward_vector.accuracy for ep in all_eps])),
            mean_entropy=mean_entropy,
            triggers=triggers,
        ))
        if mean_entropy < exploration.entropy_floor:
            report.collapse_warnings += 1
        if (checkpoint_callback is not None and cfg.checkpoint_every > 0
                and (iteration + 1) % cfg.checkpoint_every == 0):
            checkpoint_callback(iteration + 1, theta)

    return theta, report


@dataclass
class EvalSummary:
    n_episodes: int
    success_rate: float
    mean_latency_ms: float
    sla_violation_rate: float
    mean_invocations: float
    failure_modes: dict[str, int]

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate_policy(
    world: WorldConfig,
    spec: PolicySpec,
    theta: np.ndarray,
    router_weights: RoutingWeights,
    n_episodes: int,
    seed: int,
    max_steps: int | None = None,
    greedy: bool = True,
) -> EvalSummary:
    """Seeded evaluation over freshly sampled tasks.

    Greedy (argmax) decisions by default; the same seed always yields the
    same task sequence, so summaries from different policies are directly
    comparable. ``max_steps`` defaults to the spec's step budget.
    """
    if n_episodes < 1:
        raise BadConfig("n_episodes must be >= 1")
    registry = world.build_registry()
    task_rng = np.random.default_rng([seed, 2])
    correct = 0
    latencies = []
    sla_violations = 0
    invocations = 0
    failure_modes: dict[str, int] = {}
    table = DecisionTable(theta, spec)
    for i in range(n_episodes):
        task = sample_task(world.generator, task_rng)
        env = world.build_env([seed, 3, i, 0])
        # a greedy episode draws nothing from its policy stream
        rng = None if greedy else np.random.default_rng([seed, 3, i, 1])
        traj, outcome, _ = execute_episode(
            task, theta, spec, registry, router_weights, env, rng,
            max_steps=max_steps, generator=world.generator, greedy=greedy, table=table,
        )
        correct += accuracy_reward(outcome, task)
        latencies.append(outcome.total_latency_ms)
        if not outcome.sla_met:
            sla_violations += 1
        invocations += outcome.invocation_count
        if outcome.failure is not None:
            kind = outcome.failure.kind
            failure_modes[kind] = failure_modes.get(kind, 0) + 1
    return EvalSummary(
        n_episodes=n_episodes,
        success_rate=correct / n_episodes,
        mean_latency_ms=float(np.mean(latencies)),
        sla_violation_rate=sla_violations / n_episodes,
        mean_invocations=invocations / n_episodes,
        failure_modes=failure_modes,
    )
