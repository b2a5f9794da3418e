"""Deterministic rule-based agent selection.

Candidates are discovered by action type and ranked by a weighted combination
of load headroom, historical accuracy, and normalized latency. Ties break on
the lexicographically smallest card id, so identical inputs always select the
same agent. A wide candidate set is scored in one numpy pass over its metric
columns, with the same expression and so the same bits per candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoAgentForAction
from .registry import AgentMetrics, MetricColumns, Registry

DEFAULT_LATENCY_REF_MS = 100.0


@dataclass(frozen=True)
class RoutingWeights:
    w_load: float = 1.0
    w_accuracy: float = 1.0
    w_latency: float = 1.0
    latency_ref_ms: float = DEFAULT_LATENCY_REF_MS
    # Invocation-cost term, disabled by default; enable via config.
    w_cost: float = 0.0

    def __post_init__(self):
        # a finite sum (so finite weights) keeps every score from being NaN
        if not math.isfinite(self.w_load + self.w_accuracy + self.w_latency
                             + self.w_cost + self.latency_ref_ms):
            raise ValueError("routing weights and their sum must be finite")
        if min(self.w_load, self.w_accuracy, self.w_latency, self.w_cost) < 0:
            raise ValueError("routing weights must be nonnegative")
        if self.w_load + self.w_accuracy + self.w_latency <= 0:
            raise ValueError("at least one routing weight must be positive")
        if self.latency_ref_ms <= 0:
            raise ValueError("latency_ref_ms must be positive")


def score(metrics: AgentMetrics | MetricColumns, weights: RoutingWeights,
          cost: float | np.ndarray = 0.0) -> float | np.ndarray:
    """Candidate score; higher is better. On ``MetricColumns`` and an array
    of costs, the array of every candidate's score.

    Latency maps through ref/(ref + latency) so the term stays in (0, 1] and
    decreases monotonically without ever dividing by zero.
    """
    latency_term = weights.latency_ref_ms / (weights.latency_ref_ms + metrics.avg_latency_ms)
    return (
        weights.w_load * (1.0 - metrics.load)
        + weights.w_accuracy * metrics.historical_accuracy
        + weights.w_latency * latency_term
        - weights.w_cost * cost
    )


def route(action_type: str, registry: Registry, weights: RoutingWeights) -> str:
    """Pick the best-scoring card supporting ``action_type``."""
    candidates = registry.discover(action_type)
    if not candidates:
        raise NoAgentForAction(action_type)
    # discover() is sorted ascending by card_id, and both max() and argmax
    # keep the first maximal candidate, so ties go to the smallest id.
    columns = candidates.columns
    if columns is None:
        card, _ = max(candidates, key=lambda entry: score(entry[1], weights, cost=entry[0].cost))
    else:
        with np.errstate(over="ignore"):  # w_cost * cost may overflow to inf, as in Python
            scores = score(columns, weights, cost=columns.cost)
        card, _ = candidates[int(np.argmax(scores))]
    return card.card_id

