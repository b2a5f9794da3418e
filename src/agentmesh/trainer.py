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
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import BadConfig
from .orchestrator import DecisionTable, EpisodeOutcome, StepRecord, execute_episode
# log_prob_and_grad is bound here only for bench/workloads.py, which wraps this binding
from .policy import Observation, PolicySpec, distinct, diverged, grad_log_prob, log_prob_and_grad
from .registry import Registry
from .rewards import (NoveltyLedger, RewardVector, RewardWeights, accuracy_reward,
                      episode_reward, scalarize)
from .router import RoutingWeights
from .simenv import TaskSpec, WorldConfig, episode_seeds, sample_task
from .trajectory import Trajectory

ADVANTAGE_EPS = 1e-8
# evaluate_policy seeds this many episodes per hash pass, and train the first
# groups of SEED_BLOCK // group_size iterations (at least one): a pass costs
# about 60 array operations whatever its row count, and the seeds held stay
# small however long the run
SEED_BLOCK = 1024
# evaluate_policy keeps 8 bytes per episode; past this a typo would ask for
# gigabytes, and the run for hours
MAX_EVAL_EPISODES = 10_000_000
# an iteration holds its groups' episodes until its update: tracemalloc over
# one 2,000-episode rollout_group of the preset world at zero theta reads
# 1.05 KB held and 1.44 KB peak per episode, so one group this size takes
# about 15 MB and 0.5 s, where a typo could ask for more memory than the host has
MAX_GROUP_SIZE = 10_000
# iteration k's streams carry the seed word k + 1, which must fit in 32 bits
# for a block of iterations to be hashed in one pass
MAX_ITERATIONS = 2**32 - 2


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
        if self.branch_factor > MAX_GROUP_SIZE:
            raise BadConfig(f"branch_factor must be <= {MAX_GROUP_SIZE}")
        if self.entropy_bonus < 0:
            raise BadConfig("entropy_bonus must be >= 0")

    @staticmethod
    def defaults(num_actions: int) -> "ExplorationConfig":
        max_h = math.log(num_actions)
        return ExplorationConfig(entropy_high_threshold=0.8 * max_h, entropy_floor=0.05 * max_h)


class EpisodeResult(NamedTuple):
    trajectory: Trajectory
    outcome: EpisodeOutcome
    steps: list[StepRecord]
    reward_vector: RewardVector
    scalar_reward: float


@dataclass(frozen=True)
class RolloutGroup:
    episodes: list[EpisodeResult]

    @property
    def scalar_rewards(self) -> list[float]:
        return [ep.scalar_reward for ep in self.episodes]


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
        if self.group_size > MAX_GROUP_SIZE:
            raise BadConfig(f"group_size must be <= {MAX_GROUP_SIZE}")
        if self.learning_rate < 0:
            raise BadConfig("learning_rate must be >= 0")
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise BadConfig(f"iterations must be in [1, {MAX_ITERATIONS}]")
        if self.checkpoint_every < 0:
            raise BadConfig("checkpoint_every must be >= 0")


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
        names = [f.name for f in fields(IterationStats)]
        lines = [",".join(names)]
        lines += [",".join(repr(getattr(r, name)) for name in names) for r in self.rows]
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
    seeds: np.ndarray | None = None,
    table: DecisionTable | None = None,
) -> RolloutGroup:
    """G episodes of one task over derived seed streams, in rollout-index order.

    Rollout i uses env stream (base_seed, i, 0) and policy stream
    (base_seed, i, 1): seeds ``seeds[i, 0]`` and ``seeds[i, 1]``, which
    ``episode_seeds`` hashes from those words. ``train`` hashes them ahead
    for the first group of a block of iterations and once per iteration for
    its branch groups, and this function for its group when they are not
    given. The episodes are not independent: each routes on
    the metrics the earlier ones left in the shared ``registry`` and sees
    their ``ledger`` updates. They decide from one ``DecisionTable`` of
    ``theta``: ``table``, which ``train`` shares between all groups of an
    iteration, or a table of this group's own when it is not given.
    """
    if group_size < 2:
        raise BadConfig("group_size must be >= 2")
    if seeds is None:
        seeds = episode_seeds(base_seed, range(group_size), range(2))
    table = DecisionTable.serving(theta, spec, table)
    episodes = []
    for i in range(group_size):
        env = world.build_env(seeds[i, 0])
        rng = np.random.default_rng(seeds[i, 1])
        traj, outcome, steps = execute_episode(
            task, theta, spec, registry, router_weights, env, rng,
            max_steps=max_steps, table=table,
        )
        vector = episode_reward(traj, outcome, task, max_steps, ledger)
        episodes.append(EpisodeResult(traj, outcome, steps, vector,
                                      scalarize(vector, reward_weights)))
    return RolloutGroup(episodes=episodes)


def group_advantage(scalar_rewards) -> np.ndarray:
    """Group-relative advantages: (r - mean) / (population std + eps).

    A group of equal rewards yields exactly zero advantages, at any size,
    rather than amplifying the rounding of its mean. The mean and the spread
    are sums that ``math.fsum`` rounds once; ``rewards.MAX_WEIGHT_SUM``
    keeps them finite, so fsum never meets an overflow.
    """
    rewards = [float(r) for r in scalar_rewards]
    n = len(rewards)
    if n < 2:
        raise BadConfig("advantage normalization needs a group of >= 2 rewards")
    if min(rewards) == max(rewards):
        return np.zeros(n)
    mean = math.fsum(rewards) / n
    centred = [r - mean for r in rewards]
    scale = math.sqrt(math.fsum([c * c for c in centred]) / n) + ADVANTAGE_EPS
    return np.array([c / scale for c in centred])


def entropy_control(steps: list[StepRecord], advantage: float,
                    config: ExplorationConfig) -> tuple[bool, list[float]]:
    """Per-step corrected advantages plus the exploration trigger flag.

    Each step gets A + beta * (H_t - mean H); the trigger fires when any
    decision entropy exceeds the high threshold.
    """
    if not steps:
        return False, []
    entropies = [s.entropy for s in steps]
    triggered = any(h > config.entropy_high_threshold for h in entropies)
    mean = math.fsum(entropies) / len(entropies)
    bonus = config.entropy_bonus
    return triggered, [advantage + bonus * (h - mean) for h in entropies]


def masked_policy_update(
    theta: np.ndarray,
    spec: PolicySpec,
    episodes: list[tuple[list[StepRecord], list[float] | np.ndarray]],
    learning_rate: float,
    table: DecisionTable | None = None,
) -> np.ndarray:
    """One ascent step on mean per-episode sum of A'_t * grad log pi.

    The gradient depends only on recorded decision steps; agent and system
    trajectory content carries no log-prob terms, so the update is invariant
    to any mutation of masked segments. Each distinct (observation, action)
    gradient is computed once, from the distribution of its observation's
    row in ``table`` (``train`` passes the iteration's, whose rows its
    rollouts filled; without one, a table of ``theta`` is built), and the
    terms are added in step order.
    """
    if learning_rate < 0:
        raise ValueError("learning_rate must be >= 0")
    pairs: list[tuple[Observation, int]] = []
    coefs: list[float] = []
    for steps, advantages in episodes:
        for step, adv in zip(steps, advantages):
            if adv != 0.0:
                pairs.append((step.obs, step.action_index))
                coefs.append(adv)
    if not coefs:
        return theta
    table = DecisionTable.serving(theta, spec, table)
    keys, picked = distinct(pairs)
    observations, actions = zip(*keys)
    probs = np.array([table.row(obs).probs for obs in observations])
    encoded = np.array([spec.encode(obs) for obs in observations])
    grads = grad_log_prob(spec, list(actions), probs, encoded)
    # A gradient has more than one entry (encoded_dim > 1), so numpy adds
    # whole terms over the first axis one after another, as a running sum
    # from zeros would, rather than summing each entry pairwise.
    grad = np.add.reduce(np.array(coefs)[:, None, None] * grads[picked], axis=0)
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
    ``checkpoint_every`` iterations when configured. Rollout i of group gi
    at iteration k draws from streams (seed, k + 1, gi, i, 0 and 1). The
    first group's size is fixed, so one ``episode_seeds`` pass seeds it for
    ``SEED_BLOCK // group_size`` iterations (at least 1), one iteration per
    row; branch groups exist only after a trigger, so theirs are hashed
    once per iteration that has them, one group per row.
    """
    cfg = trainer_config
    exploration = cfg.exploration or ExplorationConfig.defaults(spec.num_actions)
    theta = spec.zero_params() if initial_theta is None else np.array(initial_theta, dtype=float)
    registry = world.build_registry()
    ledger = NoveltyLedger()
    task_rng = np.random.default_rng([seed, 0])
    report = TrainingReport()
    pending_tasks: list[TaskSpec] = []
    size, branch = cfg.group_size, exploration.branch_factor
    per_block = max(SEED_BLOCK // size, 1)

    for iteration in range(cfg.iterations):
        at = iteration % per_block
        if at == 0:  # the first group's words (k + 1, 0, i, s) for the block's iterations k
            ks = range(iteration + 1, min(iteration + per_block, cfg.iterations) + 1)
            first = episode_seeds([seed], ks, [0], range(size), range(2))
        task = sample_task(world.generator, task_rng)
        plans: list[tuple[TaskSpec, np.ndarray]] = [(task, first[at, 0])]
        if pending_tasks:  # branch group gi = 1, 2, ...: words (k + 1, gi, i, s)
            branches = episode_seeds([seed, iteration + 1], range(1, len(pending_tasks) + 1),
                                     range(branch), range(2))
            plans += zip(pending_tasks, branches)
        pending_tasks = []
        table = DecisionTable(theta, spec)  # every group of the iteration decides under theta

        groups: list[RolloutGroup] = []
        updates: list[tuple[list[StepRecord], list[float]]] = []
        triggers = 0
        for gi, (task, seeds) in enumerate(plans):
            group = rollout_group(
                task, theta, spec, registry, router_weights, len(seeds), world,
                [seed, iteration + 1, gi], reward_weights, spec.max_steps, ledger,
                seeds=seeds, table=table,
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
            theta = masked_policy_update(theta, spec, updates, cfg.learning_rate, table)
        if diverged(theta):
            raise BadConfig(f"trainer.learning_rate: {cfg.learning_rate!r} made the policy "
                            f"parameters overflow at iteration {iteration}")

        all_eps = [ep for g in groups for ep in g.episodes]
        entropies = [s.entropy for ep in all_eps for s in ep.steps]
        mean_entropy = math.fsum(entropies) / len(entropies) if entropies else 0.0
        report.rows.append(IterationStats(
            iteration=iteration,
            mean_reward=math.fsum(ep.scalar_reward for ep in all_eps) / len(all_eps),
            success_rate=math.fsum(ep.reward_vector.accuracy for ep in all_eps) / len(all_eps),
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
    if not 1 <= n_episodes <= MAX_EVAL_EPISODES:
        raise BadConfig(f"n_episodes must be in [1, {MAX_EVAL_EPISODES}]")
    registry = world.build_registry()
    task_rng = np.random.default_rng([seed, 2])
    correct = 0
    latencies = np.empty(n_episodes)
    sla_violations = 0
    invocations = 0
    failure_modes: dict[str, int] = {}
    table = DecisionTable(theta, spec)
    # env stream (seed, 3, i, 0) and, unless greedy, policy stream (seed, 3, i, 1):
    # a greedy episode draws nothing from its policy stream
    for i in range(n_episodes):
        at = i % SEED_BLOCK
        if at == 0:
            block = range(i, min(i + SEED_BLOCK, n_episodes))
            seeds = episode_seeds([seed, 3], block, range(1 if greedy else 2))
        task = sample_task(world.generator, task_rng)
        env = world.build_env(seeds[at, 0])
        rng = None if greedy else np.random.default_rng(seeds[at, 1])
        traj, outcome, _ = execute_episode(
            task, theta, spec, registry, router_weights, env, rng,
            max_steps=max_steps, greedy=greedy, table=table,
        )
        correct += accuracy_reward(outcome, task)
        latencies[i] = outcome.total_latency_ms
        if not outcome.sla_met:
            sla_violations += 1
        invocations += outcome.invocation_count
        if outcome.failure is not None:
            kind = outcome.failure.kind
            failure_modes[kind] = failure_modes.get(kind, 0) + 1
    return EvalSummary(
        n_episodes=n_episodes,
        success_rate=correct / n_episodes,
        mean_latency_ms=math.fsum(latencies) / n_episodes,
        sla_violation_rate=sla_violations / n_episodes,
        mean_invocations=invocations / n_episodes,
        failure_modes=failure_modes,
    )
