"""Protocol-agnostic agent registry.

Agents are described by unified cards regardless of which interoperability
protocol they were announced on; the config loader reads each protocol's
spelling of a card (``config.CARD_SPELLINGS``). Discovery is by action type,
never by identity, through an index per action type that is rebuilt after a
card supporting it is registered. Once routed, an index also keeps every
card's routing score for the weights it was last routed with.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
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


class Candidates(list):
    """What ``discover`` returns: the ``(card, metrics)`` pairs, ascending by
    card id, and when asked with weights each pair's ``score`` as ``scores``,
    a float64 array in the same order."""

    scores: np.ndarray | None = None


def _card_id(entry: tuple[AgentCard, AgentMetrics]) -> str:
    return entry[0].card_id


class _ActionIndex:
    """The entries of one action type's cards, ascending by card id, and
    once routed the score of each card under ``weights``, the weights of the
    last scored ``discover`` (one slot, kept by identity: other weights score the set afresh)."""

    def __init__(self, entries: list[tuple[AgentCard, AgentMetrics]]):
        entries.sort(key=_card_id)
        self.entries = entries
        self.weights = self.scores = None

    def put(self, entry: tuple[AgentCard, AgentMetrics]) -> None:
        """Replace the entry of a card the index holds, and its score."""
        row = bisect_left(self.entries, entry[0].card_id, key=_card_id)
        self.entries[row] = entry
        if self.scores is not None:
            card, m = entry
            self.scores[row] = score(m, self.weights, cost=card.cost)

    def candidates(self, weights: RoutingWeights | None) -> Candidates:
        found = Candidates(self.entries)
        if weights is not None:
            if weights is not self.weights:
                self.scores = np.array([score(m, weights, cost=c.cost) for c, m in self.entries])
                self.weights = weights
            found.scores = self.scores.copy()
        return found


class Registry:
    """Card store with action-type discovery and EWMA metric tracking.

    Every operation, reads included, holds one lock, so operations from
    several threads are serialized and no read sees a half-done mutation.
    ``_entries`` owns each card's entry; ``_indexes`` holds an index of them
    per action type, dropped when a card of that type is registered and
    built again by the next ``discover`` of the type. An index keeps its
    cards' scores under the weights of its last scored ``discover``, and
    ``update_metrics`` rescores just the card it changed. The kept scores
    are reused only when the same ``RoutingWeights`` object is passed
    again; an equal but distinct object scores the whole set afresh.
    """

    def __init__(self):
        self._entries: dict[str, tuple[AgentCard, AgentMetrics]] = {}
        self._indexes: dict[str, _ActionIndex] = {}
        self._lock = threading.Lock()

    def register_card(self, card: AgentCard, initial_metrics: AgentMetrics | None = None) -> str:
        if not card.supported_actions:
            raise EmptyActions(f"card {card.card_id!r} declares no supported actions")
        with self._lock:
            if card.card_id in self._entries:
                raise DuplicateId(f"card id {card.card_id!r} already registered")
            self._entries[card.card_id] = (card, initial_metrics or _NO_METRICS)
            for action_type in card.supported_actions:
                self._indexes.pop(action_type, None)
        return card.card_id

    def discover(self, action_type: str, weights: RoutingWeights | None = None) -> Candidates:
        """All cards supporting ``action_type``, ascending by card_id; a
        snapshot that later changes to the registry leave as it is. Given
        ``weights``, it also carries every card's ``score``."""
        with self._lock:
            index = self._indexes.get(action_type)
            if index is None:
                index = self._indexes[action_type] = _ActionIndex(
                    [entry for entry in self._entries.values()
                     if action_type in entry[0].supported_actions])
            return index.candidates(weights)

    def update_metrics(self, card_id: str, latency_ms: float, success: bool,
                       load_now: float) -> AgentMetrics:
        """Fold one observation into the card's metrics.

        Latency and accuracy follow an EWMA with factor ``EWMA_ALPHA``; the
        first observation overwrites the configured prior entirely. Load is a
        point measurement and is replaced, not smoothed.
        """
        with self._lock:
            try:
                card, prev = self._entries[card_id]
            except KeyError:
                raise UnknownCard(f"card id {card_id!r} is not registered") from None
            a = 1.0 if prev.sample_count == 0 else EWMA_ALPHA
            observed_acc = 1.0 if success else 0.0
            updated = AgentMetrics(
                load=min(max(load_now, 0.0), 1.0),
                historical_accuracy=(1 - a) * prev.historical_accuracy + a * observed_acc,
                avg_latency_ms=(1 - a) * prev.avg_latency_ms + a * latency_ms,
                sample_count=prev.sample_count + 1,
            )
            self._entries[card_id] = (card, updated)
            for action_type in card.supported_actions:
                if action_type in self._indexes:
                    self._indexes[action_type].put((card, updated))
            return updated
