"""Deterministic rule-based agent selection.

Candidates are discovered by action type and ranked by a weighted combination
of load headroom, historical accuracy, and normalized latency. Ties break on
the lexicographically smallest card id, so identical inputs always select the
same agent. The candidates are the registry's live list, not a copy, and
come with their scores, which the registry computes the first time it is
asked with these weights and then rescores card by card, at the card's row,
as metrics change. Like the registry, routing is not safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoAgentForAction
# score lives with the scores the registry keeps; callers import it from here
from .registry import Registry, score

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


def route(action_type: str, registry: Registry, weights: RoutingWeights) -> str:
    """Pick the best-scoring card supporting ``action_type``."""
    candidates = registry.discover(action_type, weights)
    if not candidates:
        raise NoAgentForAction(action_type)
    # discover() is sorted ascending by card_id and argmax keeps the first
    # maximum, so ties go to the smallest id.
    return candidates[int(candidates.scores.argmax())][0].card_id
