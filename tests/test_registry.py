import numpy as np
import pytest
from hypothesis import given, strategies as st

from agentmesh.errors import DuplicateId, EmptyActions, UnknownCard
from agentmesh.registry import EWMA_ALPHA, AgentCard, AgentMetrics, Registry, score
from agentmesh.router import RoutingWeights


def card(card_id="na-1", actions=("network_analysis",), protocol="native"):
    return AgentCard(card_id=card_id, protocol_tag=protocol,
                     supported_actions=frozenset(actions))


class TestRegisterCard:
    def test_registered_card_is_discoverable(self):
        reg = Registry()
        assert reg.register_card(card()) == "na-1"
        found = reg.discover("network_analysis")
        assert [c.card_id for c, _ in found] == ["na-1"]

    def test_duplicate_id_rejected(self):
        reg = Registry()
        reg.register_card(card())
        with pytest.raises(DuplicateId):
            reg.register_card(card())

    def test_duplicate_id_rejected_across_protocols(self):
        reg = Registry()
        reg.register_card(card(protocol="native"))
        with pytest.raises(DuplicateId):
            reg.register_card(card(protocol="a2a"))

    def test_empty_actions_rejected(self):
        reg = Registry()
        with pytest.raises(EmptyActions):
            reg.register_card(card(actions=()))


class TestDiscover:
    def test_empty_registry(self):
        assert Registry().discover("x") == []

    def test_sorted_by_card_id(self):
        reg = Registry()
        reg.register_card(card("b"))
        reg.register_card(card("a"))
        assert [c.card_id for c, _ in reg.discover("network_analysis")] == ["a", "b"]

    def test_membership_is_exact(self):
        reg = Registry()
        reg.register_card(card("pq-1", actions=("protocol_query",)))
        assert reg.discover("network_analysis") == []

    @pytest.mark.parametrize("n_cards", [2, 45])
    def test_card_registered_after_discover_is_in_the_next_discover(self, n_cards):
        reg = Registry()
        for i in range(n_cards):
            reg.register_card(card(f"na-{i:03d}"))
        reg.register_card(card("pq-1", actions=("protocol_query",)))
        for action in ("network_analysis", "protocol_query"):
            reg.discover(action)
        # an id in the middle of the order, for both action types
        reg.register_card(card("na-000x", actions=("network_analysis", "protocol_query")),
                          AgentMetrics(load=0.5, avg_latency_ms=7.0))
        assert [c.card_id for c, _ in reg.discover("protocol_query")] == ["na-000x", "pq-1"]
        found = reg.discover("network_analysis")
        ids = [f"na-{i:03d}" for i in range(n_cards)]
        assert [c.card_id for c, _ in found] == [ids[0], "na-000x", *ids[1:]]
        weights = RoutingWeights()
        scored = reg.discover("network_analysis", weights)
        assert scored == found
        assert scored.scores.tolist() == [score(m, weights, cost=c.cost) for c, m in found]

    def test_discover_returns_the_same_list_until_a_registration(self):
        reg = Registry()
        reg.register_card(card("na-1"))
        weights = RoutingWeights()
        found = reg.discover("network_analysis")
        assert reg.discover("network_analysis", weights) is found
        reg.update_metrics("na-1", latency_ms=30.0, success=True, load_now=0.5)
        assert reg.discover("network_analysis", weights) is found
        reg.register_card(card("pq-1", actions=("protocol_query",)))
        assert reg.discover("network_analysis") is found

    @pytest.mark.parametrize("n_cards", [1, 100])
    def test_a_held_list_shows_each_update_at_its_row(self, n_cards):
        reg = Registry()
        for i in range(n_cards):
            reg.register_card(card(f"na-{i:03d}"))
        weights = RoutingWeights(w_cost=0.5)
        found = reg.discover("network_analysis", weights)
        row = n_cards // 2
        cid = found[row][0].card_id
        got = reg.update_metrics(cid, latency_ms=300.0, success=False, load_now=0.9)
        assert found[row] == (card(cid), got)
        assert float(found.scores[row]).hex() == score(got, weights).hex()
        assert found.scores.tolist() == [score(m, weights, cost=c.cost) for c, m in found]

    def test_a_card_of_two_action_types_is_rescored_at_its_row_in_each(self):
        reg = Registry()
        for cid in ("a-1", "a-2", "a-3"):
            reg.register_card(card(cid, actions=("network_analysis",)))
        reg.register_card(card("z-1", actions=("protocol_query",)))
        both = card("m-1", actions=("network_analysis", "protocol_query"))
        reg.register_card(both)
        weights = RoutingWeights()
        lists = [reg.discover(action, weights) for action in ("network_analysis", "protocol_query")]
        assert [lst.rows["m-1"] for lst in lists] == [3, 0]
        before = [(list(lst), lst.scores.copy()) for lst in lists]
        got = reg.update_metrics("m-1", latency_ms=250.0, success=False, load_now=0.7)
        for lst, (pairs, scores) in zip(lists, before):
            row = lst.rows["m-1"]
            assert lst[row] == (both, got)
            assert float(lst.scores[row]).hex() == score(got, weights).hex()
            others = [i for i in range(len(lst)) if i != row]
            assert [lst[i] for i in others] == [pairs[i] for i in others]
            assert np.array_equal(lst.scores[others].view(np.uint64),
                                  scores[others].view(np.uint64))

    def test_a_registration_retires_a_held_list(self):
        reg = Registry()
        for cid in ("na-1", "na-3"):
            reg.register_card(card(cid))
        weights = RoutingWeights()
        held = reg.discover("network_analysis", weights)
        pairs, scores = list(held), held.scores.copy()
        reg.register_card(card("na-2"))
        reg.update_metrics("na-1", latency_ms=300.0, success=False, load_now=0.9)
        assert list(held) == pairs and np.array_equal(held.scores, scores)
        found = reg.discover("network_analysis", weights)
        assert found is not held
        assert [c.card_id for c, _ in found] == ["na-1", "na-2", "na-3"]
        assert found[0][1].sample_count == 1
        assert found.scores.tolist() == [score(m, weights) for _, m in found]


class TestUpdateMetrics:
    def test_latency_ewma(self):
        reg = Registry()
        reg.register_card(card(), AgentMetrics(avg_latency_ms=100.0, sample_count=1))
        got = reg.update_metrics("na-1", latency_ms=200.0, success=True, load_now=0.0)
        assert got.avg_latency_ms == pytest.approx(130.0)

    def test_accuracy_ewma_on_failure(self):
        reg = Registry()
        reg.register_card(card(), AgentMetrics(historical_accuracy=1.0, sample_count=1))
        got = reg.update_metrics("na-1", latency_ms=10.0, success=False, load_now=0.0)
        assert got.historical_accuracy == pytest.approx(0.7)

    def test_first_observation_overwrites_prior(self):
        reg = Registry()
        reg.register_card(card(), AgentMetrics(avg_latency_ms=999.0, historical_accuracy=0.0))
        got = reg.update_metrics("na-1", latency_ms=40.0, success=True, load_now=0.2)
        assert got.avg_latency_ms == pytest.approx(40.0)
        assert got.historical_accuracy == pytest.approx(1.0)
        assert got.sample_count == 1

    def test_unknown_card(self):
        with pytest.raises(UnknownCard):
            Registry().update_metrics("ghost", latency_ms=1.0, success=True, load_now=0.0)

    @given(
        initial=st.floats(0, 1000),
        target=st.floats(0, 1000),
        k=st.integers(1, 30),
    )
    def test_ewma_geometric_convergence(self, initial, target, k):
        reg = Registry()
        reg.register_card(card(), AgentMetrics(avg_latency_ms=initial, sample_count=1))
        for _ in range(k):
            got = reg.update_metrics("na-1", latency_ms=target, success=True, load_now=0.0)
        bound = (1 - EWMA_ALPHA) ** k * abs(initial - target)
        assert abs(got.avg_latency_ms - target) <= bound + 1e-9


@given(st.lists(st.tuples(st.text(min_size=1, max_size=4),
                          st.sets(st.sampled_from(["a", "b", "c"]), min_size=1)),
                unique_by=lambda t: t[0]))
def test_discover_always_sorted_without_duplicates(entries):
    reg = Registry()
    for cid, actions in entries:
        reg.register_card(AgentCard(cid, "native", frozenset(actions)))
    for action in ("a", "b", "c"):
        ids = [c.card_id for c, _ in reg.discover(action)]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
