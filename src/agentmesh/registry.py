"""Protocol-agnostic agent registry.

Agents are described by unified cards regardless of which interoperability
protocol they were announced on; the config loader reads each protocol's
spelling of a card (``config.CARD_SPELLINGS``). Discovery is by action type,
never by identity, and returns the registry's live list of that type's
cards, built on the first ``discover`` after a card supporting it is
registered. The list stays valid, and current, until the next
``register_card`` of its action type; callers must not mutate it. Once
routed, it also keeps every card's routing score under the weights it was
last routed with. Nothing is locked: a registry is not safe to share across
threads.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DuplicateId, EmptyActions, UnknownCard

if TYPE_CHECKING:
    from .router import RoutingWeights

EWMA_ALPHA = 0.3


@dataclass(frozen=True)
class AgentCard:
    """Unified agent record: identity, capabilities, and locator."""

    card_id: str
    protocol_tag: str
    supported_actions: frozenset[str]
    endpoint: str = ""
    cost: float = 0.0

    def __post_init__(self):
        if not self.card_id:
            raise ValueError("card_id must be nonempty")
        object.__setattr__(self, "supported_actions", frozenset(self.supported_actions))
        if not 0.0 <= self.cost < math.inf:
            raise ValueError("cost must be finite and >= 0")


@dataclass(frozen=True)
class AgentMetrics:
    """Network-aware metadata tracked per card."""

    load: float = 0.0
    historical_accuracy: float = 1.0
    avg_latency_ms: float = 0.0
    sample_count: int = 0

    def __post_init__(self):
        if not 0.0 <= self.load <= 1.0:
            raise ValueError("load must be in [0, 1]")
        if not 0.0 <= self.historical_accuracy <= 1.0:
            raise ValueError("historical_accuracy must be in [0, 1]")
        if not (self.avg_latency_ms >= 0 and self.sample_count >= 0):
            raise ValueError("latency and sample_count must be >= 0")


# The metrics of a card registered without priors; frozen, so shared.
_NO_METRICS = AgentMetrics()


def score(metrics: AgentMetrics, weights: RoutingWeights, cost: float = 0.0) -> float:
    """Candidate score; higher is better.

    Latency maps through ref/(ref + latency) so the term stays in (0, 1] and
    decreases monotonically without ever dividing by zero. A float product
    that overflows is ``inf``, so a huge ``w_cost`` scores ``-inf``.
    """
    latency_term = weights.latency_ref_ms / (weights.latency_ref_ms + metrics.avg_latency_ms)
    return (
        weights.w_load * (1.0 - metrics.load)
        + weights.w_accuracy * metrics.historical_accuracy
        + weights.w_latency * latency_term
        - weights.w_cost * cost
    )


def _card_id(entry: tuple[AgentCard, AgentMetrics]) -> str:
    return entry[0].card_id


class Candidates(list):
    """What ``discover`` returns: the registry's live list of one action
    type's ``(card, metrics)`` pairs, ascending by card id. Callers must not
    mutate it, nor share it across threads.

    ``update_metrics`` writes a card's new pair, and its new score, at its
    row ``rows[card_id]``. A ``register_card`` of the type retires the list,
    which keeps its pairs, and the next ``discover`` builds a new one. Once
    ``discover`` is asked with weights, ``scores`` holds each pair's
    ``score`` under ``weights``, those of the last scored ``discover`` (kept
    by identity), as a float64 array in the same order.
    """

    def __init__(self, entries: Iterable[tuple[AgentCard, AgentMetrics]]):
        super().__init__(sorted(entries, key=_card_id))
        self.rows = {card.card_id: row for row, (card, _) in enumerate(self)}
        self.weights = self.scores = None


class Registry:
    """Card store with action-type discovery and EWMA metric tracking.

    ``_entries`` owns each card's entry; ``_indexes`` holds the live
    ``Candidates`` of each action type, which ``discover`` returns and
    callers must not mutate. A list is dropped when a card of its type is
    registered and built again by the next ``discover`` of the type. It
    keeps its cards' scores under the weights of its last scored
    ``discover``; only the same ``RoutingWeights`` object reuses them, and
    ``update_metrics`` rescores just the card it changed. Nothing is locked,
    so a registry is not safe to share across threads.
    """

    def __init__(self):
        self._entries: dict[str, tuple[AgentCard, AgentMetrics]] = {}
        self._indexes: dict[str, Candidates] = {}

    def register_card(self, card: AgentCard, initial_metrics: AgentMetrics | None = None) -> str:
        if not card.supported_actions:
            raise EmptyActions(f"card {card.card_id!r} declares no supported actions")
        if card.card_id in self._entries:
            raise DuplicateId(f"card id {card.card_id!r} already registered")
        self._entries[card.card_id] = (card, initial_metrics or _NO_METRICS)
        for action_type in card.supported_actions:
            self._indexes.pop(action_type, None)
        return card.card_id

    def discover(self, action_type: str, weights: RoutingWeights | None = None) -> Candidates:
        """All cards supporting ``action_type``, ascending by card_id: the
        registry's live list, which callers must not mutate, valid until the
        next ``register_card`` of the type. Given ``weights``, its ``scores``
        hold every card's ``score`` under them, and follow the weights of the
        last scored ``discover`` after that. Not safe to share across
        threads."""
        found = self._indexes.get(action_type)
        if found is None:
            found = self._indexes[action_type] = Candidates(
                entry for entry in self._entries.values()
                if action_type in entry[0].supported_actions)
        if weights is not None and weights is not found.weights:
            found.scores = np.array([score(m, weights, c.cost) for c, m in found])
            found.weights = weights
        return found

    def update_metrics(self, card_id: str, latency_ms: float, success: bool,
                       load_now: float) -> AgentMetrics:
        """Fold one observation into the card's metrics.

        Latency and accuracy follow an EWMA with factor ``EWMA_ALPHA``; the
        first observation overwrites the configured prior entirely. Load is a
        point measurement and is replaced, not smoothed. The new pair, and its
        score, go to the card's row of each live list that holds it.
        """
        try:
            card, prev = self._entries[card_id]
        except KeyError:
            raise UnknownCard(f"card id {card_id!r} is not registered") from None
        a = 1.0 if prev.sample_count == 0 else EWMA_ALPHA
        observed_acc = 1.0 if success else 0.0
        updated = AgentMetrics(min(max(load_now, 0.0), 1.0),
                               (1 - a) * prev.historical_accuracy + a * observed_acc,
                               (1 - a) * prev.avg_latency_ms + a * latency_ms,
                               prev.sample_count + 1)
        entry = self._entries[card_id] = (card, updated)
        for action_type in card.supported_actions:
            found = self._indexes.get(action_type)
            if found is not None:
                row = found.rows[card_id]
                found[row] = entry
                if found.scores is not None:
                    found.scores[row] = score(updated, found.weights, card.cost)
        return updated
