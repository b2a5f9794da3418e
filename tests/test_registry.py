import sys
import threading
import time

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

    @pytest.mark.parametrize("n_cards", [1, 100])
    def test_scores_are_a_snapshot(self, n_cards):
        reg = Registry()
        for i in range(n_cards):
            reg.register_card(card(f"na-{i:03d}"))
        weights = RoutingWeights()
        found = reg.discover("network_analysis", weights)
        kept = found.scores.copy()
        reg.update_metrics("na-000", latency_ms=300.0, success=False, load_now=0.9)
        reg.register_card(card("na-000x"))
        assert np.array_equal(found.scores.view(np.uint64), kept.view(np.uint64))
        # the update did move the registry's score of na-000
        assert reg.discover("network_analysis", weights).scores[0] < kept[0]


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


# Fresh ids that a writer thread registers in this order; they sort after
# the "na-" ids that a test registers first.
TEMPS = [f"temp-{i:05d}" for i in range(1000)]


def register_temps(reg, stop, errors):
    try:
        for cid in TEMPS:
            if stop.is_set():
                return
            reg.register_card(card(cid))
    except Exception as exc:
        errors.append(exc)


def assert_stable_then_temps(found, stable):
    """``found`` holds the ``stable`` ids and then an in-order prefix of TEMPS."""
    ids = [c.card_id for c, _ in found]
    assert ids[:len(stable)] == stable
    assert ids[len(stable):] == TEMPS[:len(ids) - len(stable)]


def test_discover_while_another_thread_registers():
    reg = Registry()
    stable = [f"na-{i:02d}" for i in range(20)]
    for cid in stable:
        reg.register_card(card(cid))
    stop = threading.Event()
    writer_errors = []
    writer = threading.Thread(target=register_temps, args=(reg, stop, writer_errors))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads often
    try:
        writer.start()
        deadline = time.monotonic() + 60
        while writer.is_alive() and time.monotonic() < deadline:
            assert_stable_then_temps(reg.discover("network_analysis"), stable)
    finally:
        stop.set()
        writer.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not writer.is_alive()
    assert writer_errors == []
    assert [c.card_id for c, _ in reg.discover("network_analysis")] == stable + TEMPS


def test_wide_discover_while_other_threads_churn_and_update_metrics():
    # Each scored discover() result's scores must be those of its own pairs,
    # whatever a registering and a metric-updating thread do meanwhile.
    reg = Registry()
    weights = RoutingWeights()
    stable = [f"na-{i:03d}" for i in range(90)]
    for cid in stable:
        reg.register_card(card(cid))
    stop = threading.Event()
    errors = []

    def update():
        try:
            for i in range(20_000):
                if stop.is_set():
                    return
                reg.update_metrics(stable[i % len(stable)], latency_ms=float(i % 97),
                                   success=i % 3 > 0, load_now=(i % 11) / 10)
        except Exception as exc:
            errors.append(exc)

    writers = [threading.Thread(target=register_temps, args=(reg, stop, errors)),
               threading.Thread(target=update)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads often
    try:
        for writer in writers:
            writer.start()
        deadline = time.monotonic() + 60
        while any(w.is_alive() for w in writers) and time.monotonic() < deadline:
            found = reg.discover("network_analysis", weights)
            assert_stable_then_temps(found, stable)
            assert found.scores.tolist() == [score(m, weights, cost=c.cost) for c, m in found]
    finally:
        stop.set()
        for writer in writers:
            writer.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in writers)
    assert errors == []
    assert [c.card_id for c, _ in reg.discover("network_analysis")] == stable + TEMPS
