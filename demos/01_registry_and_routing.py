"""Registry and routing walkthrough.

Registers agents arriving under different descriptor protocols, shows
capability discovery, scores the candidates, routes a task, and folds
observed calls into the chosen card's metrics.
"""

from agentmesh.registry import AgentMetrics, RawDescriptor, Registry, adapt_descriptor
from agentmesh.router import RoutingWeights, route, score

DESCRIPTORS = [
    RawDescriptor("native", {"id": "na-fast",
                             "actions": ["network_analysis"],
                             "endpoint": "local://na-fast"}),
    RawDescriptor("a2a", {"agent_id": "na-accurate",
                          "capabilities": ["network_analysis"],
                          "url": "grpc://na-accurate"}),
    RawDescriptor("acp", {"name": "pq-main",
                          "supported_ops": ["protocol_query"],
                          "address": "http://pq-main"}),
    RawDescriptor("anp", {"identifier": "generalist",
                          "action_types": ["network_analysis", "protocol_query"],
                          "locator": "http://generalist"}),
]

METRICS = {
    "na-fast": AgentMetrics(load=0.2, historical_accuracy=0.80, avg_latency_ms=40.0),
    "na-accurate": AgentMetrics(load=0.5, historical_accuracy=0.97, avg_latency_ms=120.0),
    "pq-main": AgentMetrics(load=0.1, historical_accuracy=0.90, avg_latency_ms=60.0),
    "generalist": AgentMetrics(load=0.7, historical_accuracy=0.85, avg_latency_ms=90.0),
}


def main():
    registry = Registry()
    for raw in DESCRIPTORS:
        card = adapt_descriptor(raw)
        registry.register_card(card, METRICS[card.card_id])
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
