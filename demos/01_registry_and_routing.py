"""Registry and routing walkthrough.

Reads agents announced under four descriptor protocols from a card file, as
the CLI does, registers them, shows capability discovery, scores the
candidates, routes a task, and folds observed calls into the chosen card's
metrics.
"""

from pathlib import Path

from agentmesh.config import load_cards
from agentmesh.registry import Registry
from agentmesh.router import RoutingWeights, route, score

# Four cards, one per announcement protocol, each in that protocol's
# spelling and with metric priors.
CARD_FILE = Path(__file__).with_name("cards.json")


def main():
    registry = Registry()
    for card, metrics in load_cards(CARD_FILE):
        registry.register_card(card, metrics)
        print(f"registered {card.card_id!r} via {card.protocol_tag} "
              f"(actions: {sorted(card.supported_actions)})")

    weights = RoutingWeights()
    print("\ncandidates for 'network_analysis':")
    for card, metrics in registry.discover("network_analysis"):
        print(f"  {card.card_id:<12} load={metrics.load:.2f} "
              f"acc={metrics.historical_accuracy:.2f} "
              f"lat={metrics.avg_latency_ms:.0f}ms "
              f"score={score(metrics, weights, card.cost):.4f}")
    chosen = route("network_analysis", registry, weights)
    print(f"router picks: {chosen!r}")

    print("\nfeeding three observations into the chosen card's metrics:")
    for latency, ok in [(45.0, True), (200.0, False), (50.0, True)]:
        m = registry.update_metrics(chosen, latency_ms=latency, success=ok,
                                    load_now=0.3)
        print(f"  observed {latency:.0f}ms success={ok} -> "
              f"acc={m.historical_accuracy:.3f} lat={m.avg_latency_ms:.1f}ms")


if __name__ == "__main__":
    main()
