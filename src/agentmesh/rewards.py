"""Multi-objective episode rewards and scalarization.

Five components: binary accuracy and format, bounded efficiency, a linear
latency penalty against the task's SLA deadline, and a count-based novelty
bonus over delegation signatures. The format weight is required to stay below
the accuracy weight so a formatting-only shortcut can never outscore a
correct, well-formed episode.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidWeights
from .orchestrator import EpisodeOutcome
from .simenv import TaskSpec
from .trajectory import Trajectory, validate

# Every component lies in [-1, 1], so a scalar reward lies in [-W, W] for the
# weight sum W, and a group's squared deviations from its mean add up to at
# most len(group) * W**2. No group is longer than sys.maxsize, so up to this
# sum every reward statistic stays finite.
MAX_WEIGHT_SUM = math.sqrt(sys.float_info.max / sys.maxsize)


class RewardVector(NamedTuple):
    """One episode's reward components; a ``NamedTuple``, so immutable and
    compared as a tuple."""

    accuracy: float
    format: float
    efficiency: float
    qos: float
    exploration: float

    def as_dict(self) -> dict[str, float]:
        return self._asdict()


@dataclass(frozen=True)
class RewardWeights:
    lambda_acc: float = 1.0
    lambda_fmt: float = 0.2
    lambda_eff: float = 0.2
    lambda_qos: float = 0.2
    lambda_exp: float = 0.1

    def __post_init__(self):
        if min(self.lambda_acc, self.lambda_fmt, self.lambda_eff,
               self.lambda_qos, self.lambda_exp) < 0:
            raise InvalidWeights("reward weights must be nonnegative")
        if self.lambda_acc <= 0:
            raise InvalidWeights("lambda_acc must be positive")
        if self.lambda_fmt >= self.lambda_acc:
            raise InvalidWeights("lambda_fmt must be < lambda_acc")
        if (self.lambda_acc + self.lambda_fmt + self.lambda_eff
                + self.lambda_qos + self.lambda_exp) > MAX_WEIGHT_SUM:
            raise InvalidWeights(f"reward weights must sum to at most {MAX_WEIGHT_SUM:.3g}")


class NoveltyLedger:
    """Visit counts per delegation signature; counts never decrease."""

    def __init__(self):
        self._counts: dict[tuple[str, ...], int] = {}

    def record(self, signature: tuple[str, ...]) -> int:
        """Increment and return the count prior to this visit."""
        prior = self._counts.get(signature, 0)
        self._counts[signature] = prior + 1
        return prior


def accuracy_reward(outcome: EpisodeOutcome, task: TaskSpec) -> float:
    """1 only for the right answer on a failure-free episode."""
    if outcome.failure is not None:
        return 0.0
    return 1.0 if outcome.final_answer == task.ground_truth else 0.0


def format_reward(traj: Trajectory) -> float:
    return 1.0 if validate(traj) is None else 0.0


def efficiency_reward(outcome: EpisodeOutcome, max_steps: int) -> float:
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    return min(1.0, max(0.0, 1.0 - outcome.invocation_count / max_steps))


def qos_reward(outcome: EpisodeOutcome, task: TaskSpec) -> float:
    """1 within the deadline, then a linear penalty clamped at -1."""
    deadline = task.task_class.sla_deadline_ms
    if outcome.total_latency_ms <= deadline:
        return 1.0
    return max(-1.0, 1.0 - 2.0 * (outcome.total_latency_ms - deadline) / deadline)


def exploration_reward(ledger: NoveltyLedger, signature: tuple[str, ...]) -> float:
    """Inverse-square-root novelty bonus; records the visit."""
    prior = ledger.record(signature)
    return 1.0 / (1.0 + prior) ** 0.5


def scalarize(vector: RewardVector, weights: RewardWeights) -> float:
    return (
        weights.lambda_acc * vector.accuracy
        + weights.lambda_fmt * vector.format
        + weights.lambda_eff * vector.efficiency
        + weights.lambda_qos * vector.qos
        + weights.lambda_exp * vector.exploration
    )


def episode_reward(traj: Trajectory, outcome: EpisodeOutcome, task: TaskSpec,
                   max_steps: int, ledger: NoveltyLedger) -> RewardVector:
    """Full reward vector for one finished episode (records its signature)."""
    return tuple.__new__(RewardVector, (
        accuracy_reward(outcome, task), format_reward(traj),
        efficiency_reward(outcome, max_steps), qos_reward(outcome, task),
        exploration_reward(ledger, outcome.delegations)))
