from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from agentmesh.errors import NoAgentForAction
from agentmesh.registry import AgentCard, AgentMetrics, Registry
from agentmesh.router import RoutingWeights, route, score


def registry_with(metrics_by_id, action="network_analysis"):
    reg = Registry()
    for cid, m in metrics_by_id.items():
        reg.register_card(AgentCard(cid, "native", frozenset({action})), m)
    return reg


class TestScore:
    def test_load_only(self):
        w = RoutingWeights(w_load=1, w_accuracy=0, w_latency=0)
        assert score(AgentMetrics(load=0.2), w) == pytest.approx(0.8)

    def test_accuracy_only(self):
        w = RoutingWeights(w_load=0, w_accuracy=1, w_latency=0)
        assert score(AgentMetrics(historical_accuracy=0.9), w) == pytest.approx(0.9)

    def test_latency_only_at_reference(self):
        w = RoutingWeights(w_load=0, w_accuracy=0, w_latency=1, latency_ref_ms=100)
        assert score(AgentMetrics(avg_latency_ms=100.0), w) == pytest.approx(0.5)

    @given(
        load=st.floats(0, 1),
        acc=st.floats(0, 1),
        lat=st.floats(0, 1e5),
        w=st.tuples(st.floats(0, 10), st.floats(0, 10), st.floats(0.01, 10)),
    )
    def test_score_bounded_by_weight_sum(self, load, acc, lat, w):
        weights = RoutingWeights(w_load=w[0], w_accuracy=w[1], w_latency=w[2])
        m = AgentMetrics(load=load, historical_accuracy=acc, avg_latency_ms=lat)
        s = score(m, weights)
        assert 0.0 <= s <= w[0] + w[1] + w[2] + 1e-12

    def test_cost_term_disabled_by_default(self):
        w = RoutingWeights()
        m = AgentMetrics()
        assert score(m, w, cost=100.0) == score(m, w, cost=0.0)

    def test_cost_term_when_enabled(self):
        w = RoutingWeights(w_cost=0.5)
        m = AgentMetrics()
        assert score(m, w, cost=1.0) == pytest.approx(score(m, w, cost=0.0) - 0.5)


class TestRoute:
    def test_single_candidate(self):
        reg = registry_with({"only": AgentMetrics()})
        assert route("network_analysis", reg, RoutingWeights()) == "only"

    def test_tie_breaks_to_smallest_id(self):
        reg = registry_with({"b": AgentMetrics(), "a": AgentMetrics()})
        assert route("network_analysis", reg, RoutingWeights()) == "a"

    def test_no_agent_for_action(self):
        reg = registry_with({"na": AgentMetrics()})
        with pytest.raises(NoAgentForAction) as exc:
            route("slicing", reg, RoutingWeights())
        assert exc.value.action_type == "slicing"

    def test_higher_accuracy_wins(self):
        reg = registry_with({
            "worse": AgentMetrics(historical_accuracy=0.5),
            "better": AgentMetrics(historical_accuracy=0.9),
        })
        assert route("network_analysis", reg, RoutingWeights()) == "better"

    def test_all_scores_minus_infinity_route_to_smallest_id(self):
        reg = Registry()
        for cid in ("b", "a", "c"):
            reg.register_card(AgentCard(cid, "native", frozenset({"network_analysis"}), cost=2.0))
        weights = RoutingWeights(w_cost=1e308)
        assert score(AgentMetrics(), weights, cost=2.0) == float("-inf")
        assert route("network_analysis", reg, weights) == "a"


def random_registry(rng, n_cards):
    reg = Registry()
    for i in range(n_cards):
        reg.register_card(
            AgentCard(f"agent-{i:03d}", "native", frozenset({"act"})),
            AgentMetrics(
                load=float(rng.uniform(0, 1)),
                historical_accuracy=float(rng.uniform(0, 1)),
                avg_latency_ms=float(rng.uniform(0, 500)),
            ),
        )
    return reg


class TestRouteProperties:
    def test_determinism_and_scale_invariance_over_random_registries(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            reg = random_registry(rng, int(rng.integers(1, 6)))
            w = RoutingWeights(
                w_load=float(rng.uniform(0.1, 2)),
                w_accuracy=float(rng.uniform(0.1, 2)),
                w_latency=float(rng.uniform(0.1, 2)),
            )
            chosen = route("act", reg, w)
            assert route("act", reg, w) == chosen
            k = float(rng.uniform(0.1, 10))
            scaled = RoutingWeights(w_load=w.w_load * k, w_accuracy=w.w_accuracy * k,
                                    w_latency=w.w_latency * k)
            assert route("act", reg, scaled) == chosen
            with pytest.raises(NoAgentForAction):
                route("unsupported", reg, w)

    def test_accuracy_monotonicity(self):
        # once selected, raising the winner's accuracy never deselects it
        rng = np.random.default_rng(7)
        w = RoutingWeights()
        for _ in range(200):
            reg = random_registry(rng, 4)
            winner = route("act", reg, w)
            boosted = Registry()
            for card, m in reg.discover("act"):
                if card.card_id == winner:
                    m = replace(m, historical_accuracy=min(1.0, m.historical_accuracy + 0.3))
                boosted.register_card(card, m)
            assert route("act", boosted, w) == winner


def reference_route(action_type, registry, weights):
    """route() without the scores the registry keeps: one Python score per
    (card, metrics) pair, computed afresh, the first maximum winning."""
    candidates = registry.discover(action_type)
    if not candidates:
        raise NoAgentForAction(action_type)
    card, _ = max(candidates, key=lambda entry: score(entry[1], weights, cost=entry[0].cost))
    return card.card_id


def test_route_matches_reference_while_the_registry_changes():
    # Registries of 1 card (every fourth trial) or of 2 to 135 cards drawn
    # from 1 to 3 metric rows, so that scores tie; route() must agree with
    # the reference through interleaved metric updates and registrations.
    rng = np.random.default_rng(11)
    all_minus_inf = RoutingWeights(w_cost=1e308)  # every card below costs >= 2
    one_card_routes = wide_routes = 0
    for trial in range(80):
        rows = [AgentMetrics(load=float(rng.choice([0.0, 0.5, 1.0])),
                             historical_accuracy=float(rng.choice([0.25, 1.0])),
                             avg_latency_ms=float(rng.choice([0.0, 40.0])))
                for _ in range(int(rng.integers(1, 4)))]
        weights = [RoutingWeights(), RoutingWeights(w_cost=0.5), all_minus_inf][trial % 3]
        reg = Registry()
        serial = iter(range(10_000))

        def register(n):
            for _ in range(n):
                cid = f"c{int(rng.integers(1000)):03d}-{next(serial)}"
                cost = float(rng.choice([2.0, 3.0, 4.0]))
                reg.register_card(AgentCard(cid, "native", frozenset({"act"}), cost=cost),
                                  rows[int(rng.integers(len(rows)))])

        register(1 if trial % 4 == 0 else int(rng.integers(2, 136)))
        for _ in range(40):
            chosen = route("act", reg, weights)
            assert chosen == reference_route("act", reg, weights)
            n_cards = len(reg.discover("act"))
            one_card_routes += n_cards == 1
            wide_routes += n_cards >= 90
            if weights is all_minus_inf:
                assert chosen == min(c.card_id for c, _ in reg.discover("act"))
            ids = [c.card_id for c, _ in reg.discover("act")]
            if rng.integers(3) < 2:
                reg.update_metrics(ids[int(rng.integers(len(ids)))],
                                   latency_ms=float(rng.choice([0.0, 40.0, 400.0])),
                                   success=bool(rng.integers(2)),
                                   load_now=float(rng.choice([0.0, 0.5])))
            else:
                register(int(rng.integers(1, 3)))
    assert one_card_routes >= 20 and wide_routes >= 500


def test_invalid_weights_rejected():
    with pytest.raises(ValueError):
        RoutingWeights(w_load=0, w_accuracy=0, w_latency=0)
    with pytest.raises(ValueError):
        RoutingWeights(w_load=float("inf"))
    with pytest.raises(ValueError):
        RoutingWeights(w_load=1e308, w_accuracy=1e308)
    with pytest.raises(ValueError):
        RoutingWeights(latency_ref_ms=0)
    with pytest.raises(ValueError):
        RoutingWeights(w_load=-1)


def test_kept_scores_equal_a_fresh_scoring_while_the_registry_changes():
    # An index keeps its scores between routes and rescores only the card
    # whose metrics changed; the kept array must hold the bits of scoring each
    # current pair afresh in Python (ties and -inf included), through
    # interleaved metric updates and registrations, on sets that start at 1
    # to 3 cards or at 45 to 134. The kept weights are matched by identity,
    # so every fifth discover passes an equal but distinct weights object,
    # which scores the set afresh; the discovers between read the kept array.
    rng = np.random.default_rng(12)
    sizes_checked = set()
    all_minus_inf = RoutingWeights(w_cost=1e308)  # every card below costs >= 2
    for trial in range(30):
        rows = [AgentMetrics(load=float(rng.choice([0.0, 0.5, 1.0])),
                             historical_accuracy=float(rng.choice([0.25, 1.0])),
                             avg_latency_ms=float(rng.choice([0.0, 40.0])))
                for _ in range(int(rng.integers(1, 4)))]
        weights = [RoutingWeights(), RoutingWeights(w_cost=0.5), all_minus_inf][trial % 3]
        reg = Registry()
        serial = iter(range(10_000))

        def register(n):
            for _ in range(n):
                cid = f"c{int(rng.integers(1000)):03d}-{next(serial)}"
                cost = float(rng.choice([2.0, 3.0, 4.0]))
                reg.register_card(AgentCard(cid, "native", frozenset({"act"}), cost=cost),
                                  rows[int(rng.integers(len(rows)))])

        register(int(rng.integers(1, 4)) if trial % 2 == 0 else int(rng.integers(45, 135)))
        for step in range(40):
            found = reg.discover("act", replace(weights) if step % 5 == 4 else weights)
            sizes_checked.add(len(found))
            one_by_one = np.array([score(m, weights, cost=c.cost) for c, m in found])
            assert np.array_equal(found.scores.view(np.uint64), one_by_one.view(np.uint64))
            if weights is all_minus_inf:
                assert np.all(found.scores == -np.inf)
            if rng.integers(4) < 3:
                card, _ = found[int(rng.integers(len(found)))]
                reg.update_metrics(card.card_id, latency_ms=float(rng.choice([0.0, 40.0, 400.0])),
                                   success=bool(rng.integers(2)),
                                   load_now=float(rng.choice([0.0, 0.5])))
            else:
                register(1)
    assert 1 in sizes_checked and max(sizes_checked) >= 90


def test_route_matches_reference_when_the_weights_alternate():
    # One score slot per action type: routing with other weights must score
    # the set afresh, not reuse the scores of the weights before.
    rng = np.random.default_rng(13)
    reg = random_registry(rng, 90)
    ids = [c.card_id for c, _ in reg.discover("act")]
    pair = (RoutingWeights(w_load=1.0, w_accuracy=0.01, w_latency=0.01),
            RoutingWeights(w_load=0.01, w_accuracy=1.0, w_latency=0.01))
    disagreements = 0
    for _ in range(200):
        chosen = [route("act", reg, w) for w in pair]
        assert chosen == [reference_route("act", reg, w) for w in pair]
        disagreements += chosen[0] != chosen[1]
        reg.update_metrics(ids[int(rng.integers(len(ids)))], latency_ms=float(rng.uniform(0, 500)),
                           success=bool(rng.integers(2)), load_now=float(rng.uniform(0, 1)))
    assert disagreements > 100
