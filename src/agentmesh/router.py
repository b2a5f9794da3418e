"""Deterministic rule-based agent selection.

Candidates are discovered by action type and ranked by a weighted combination
of load headroom, historical accuracy, and normalized latency. Ties break on
the lexicographically smallest card id, so identical inputs always select the
same agent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoAgentForAction
from .registry import AgentMetrics, Registry

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
        if min(self.w_load, self.w_accuracy, self.w_latency, self.w_cost) < 0:
            raise ValueError("routing weights must be nonnegative")
        if self.w_load + self.w_accuracy + self.w_latency <= 0:
            raise ValueError("at least one routing weight must be positive")
        if self.latency_ref_ms <= 0:
            raise ValueError("latency_ref_ms must be positive")


def score(metrics: AgentMetrics, weights: RoutingWeights, cost: float = 0.0) -> float:
    """Candidate score; higher is better.

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
    # discover() is sorted ascending by card_id and max() keeps the first
    # maximal candidate, so ties go to the lexicographically-smallest id.
    card, _ = max(candidates, key=lambda entry: score(entry[1], weights, cost=entry[0].cost))
    return card.card_id

