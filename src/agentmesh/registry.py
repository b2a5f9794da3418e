"""Protocol-agnostic agent registry.

Agents are described by unified cards regardless of which interoperability
protocol they were announced on; the config loader reads each protocol's
spelling of a card (``config.CARD_SPELLINGS``). Discovery is by action type,
never by identity.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

from .errors import DuplicateId, EmptyActions, UnknownCard

DEFAULT_EWMA_ALPHA = 0.3


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
        if self.avg_latency_ms < 0 or self.sample_count < 0:
            raise ValueError("latency and sample_count must be >= 0")


class Registry:
    """Card store with action-type discovery and EWMA metric tracking.

    Every operation, reads included, holds one lock, so operations from
    several threads are serialized and no read sees a half-done mutation.
    """

    def __init__(self, ewma_alpha: float = DEFAULT_EWMA_ALPHA):
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.ewma_alpha = ewma_alpha
        self._entries: dict[str, tuple[AgentCard, AgentMetrics]] = {}
        self._lock = threading.Lock()

    def register_card(self, card: AgentCard, initial_metrics: AgentMetrics | None = None) -> str:
        if not card.supported_actions:
            raise EmptyActions(f"card {card.card_id!r} declares no supported actions")
        with self._lock:
            if card.card_id in self._entries:
                raise DuplicateId(f"card id {card.card_id!r} already registered")
            self._entries[card.card_id] = (card, initial_metrics or AgentMetrics())
        return card.card_id

    def _entry(self, card_id: str) -> tuple[AgentCard, AgentMetrics]:
        try:
            return self._entries[card_id]
        except KeyError:
            raise UnknownCard(f"card id {card_id!r} is not registered") from None

    def deregister(self, card_id: str) -> AgentCard:
        with self._lock:
            card, _ = self._entry(card_id)
            del self._entries[card_id]
        return card

    def discover(self, action_type: str) -> list[tuple[AgentCard, AgentMetrics]]:
        """All cards supporting ``action_type``, ascending by card_id."""
        with self._lock:
            snapshot = [entry for entry in self._entries.values()
                        if action_type in entry[0].supported_actions]
        snapshot.sort(key=lambda pair: pair[0].card_id)
        return snapshot

    def get(self, card_id: str) -> tuple[AgentCard, AgentMetrics]:
        with self._lock:
            return self._entry(card_id)

    def update_metrics(self, card_id: str, latency_ms: float, success: bool,
                       load_now: float) -> AgentMetrics:
        """Fold one observation into the card's metrics.

        Latency and accuracy follow an EWMA with factor alpha; the first
        observation overwrites the configured prior entirely. Load is a point
        measurement and is replaced, not smoothed.
        """
        with self._lock:
            card, prev = self._entry(card_id)
            a = 1.0 if prev.sample_count == 0 else self.ewma_alpha
            observed_acc = 1.0 if success else 0.0
            updated = replace(
                prev,
                load=min(max(load_now, 0.0), 1.0),
                historical_accuracy=(1 - a) * prev.historical_accuracy + a * observed_acc,
                avg_latency_ms=(1 - a) * prev.avg_latency_ms + a * latency_ms,
                sample_count=prev.sample_count + 1,
            )
            self._entries[card_id] = (card, updated)
            return updated
