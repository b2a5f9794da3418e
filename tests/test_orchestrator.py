import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentmesh import orchestrator
from agentmesh.config import default_policy_spec
from agentmesh.orchestrator import (
    DecisionRow,
    DecisionTable,
    StepRecord,
    decide,
    execute_episode,
    make_warmup_dataset,
)
from agentmesh.policy import ActionSpace, Decision, Observation, PolicySpec
from agentmesh.registry import AgentCard
from agentmesh.router import RoutingWeights, route
from agentmesh.simenv import (AgentResponse, SimAgentConfig, goal_token, preset_case_study,
                              sample_task)
from agentmesh.trainer import masked_policy_update
from agentmesh.trajectory import validate
from agentmesh.vocab import (
    ACTION_CLOSE,
    ACTION_OPEN,
    ANS_CLOSE,
    ANS_OPEN,
    CONTROL_TAGS,
    RELAY_ANSWER,
    SYS_AGENT_FAILURE,
    SYS_AGENT_SUCCESS,
)
from oracles import exact_entropy

WEIGHTS = RoutingWeights()


def forced(spec, action_index, strength=60.0):
    """Parameters that pick one action with probability ~1 everywhere."""
    theta = spec.zero_params()
    theta[action_index, :] = strength
    return theta


def task_of_class(world, name, seed=0):
    rng = np.random.default_rng(seed)
    while True:
        task = sample_task(world.generator, rng)
        if task.task_class.name == name:
            return task


def stubbed_episode(world, spec, replies, max_steps=4, registry=None):
    """An always-delegate network-analysis episode whose agent calls return
    ``replies`` in order."""
    task = task_of_class(world, "network_analysis")
    idx = spec.actions.index_of(Decision.delegate("network_analysis"))
    env = world.build_env([0, 0])
    pending = iter(replies)
    env.invoke_agent = lambda card_id, action_type, task: next(pending)
    return execute_episode(
        task, forced(spec, idx), spec, registry or world.build_registry(), WEIGHTS, env,
        np.random.default_rng(1), max_steps=max_steps)


NA_DELEGATION = ("core", (ACTION_OPEN, "network_analysis", goal_token("network_analysis"),
                          ACTION_CLOSE))
MALFORMED = AgentResponse(("no", "span"), 10.0, True)


class TestDecide:
    def test_deterministic_policy(self, spec, rng):
        idx = spec.actions.index_of(Decision.delegate("network_analysis"))
        decision, got_idx, row = decide(
            Observation((0, 1.0, 0)), forced(spec, idx), spec, rng)
        assert decision == Decision.delegate("network_analysis")
        assert got_idx == idx
        assert abs(np.log(row.probs[idx])) <= 1e-6

    def test_uniform_sampling_frequencies(self, spec):
        rng = np.random.default_rng(77)
        theta = spec.zero_params()
        obs = Observation((1.0, 0, 0))
        n = 8000
        counts = np.zeros(spec.num_actions)
        for _ in range(n):
            _, idx, _ = decide(obs, theta, spec, rng)
            counts[idx] += 1
        p = 1 / spec.num_actions
        sigma = math.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(counts / n - p) <= 3 * sigma)

    def test_log_prob_matches_distribution(self, spec, rng):
        theta = np.random.default_rng(5).normal(size=(spec.num_actions, spec.encoded_dim))
        from agentmesh.policy import action_distribution, log_prob_and_grad
        obs = Observation((0, 0, 1.0), 2, "agent_failure")
        _, idx, row = decide(obs, theta, spec, rng)
        assert np.array_equal(row.probs, action_distribution(theta, spec, obs))
        assert float(np.log(row.probs[idx])) == log_prob_and_grad(theta, spec, obs, idx)[0]

    def test_greedy_takes_argmax(self, spec, rng):
        theta = np.random.default_rng(6).normal(size=(spec.num_actions, spec.encoded_dim))
        from agentmesh.policy import action_distribution
        obs = Observation((1.0, 0, 0))
        _, idx, _ = decide(obs, theta, spec, rng, greedy=True)
        assert idx == int(np.argmax(action_distribution(theta, spec, obs)))


class FixedDouble:
    """A stream whose next double is ``u``, such as a cdf step."""

    def __init__(self, u):
        self.random = lambda: u


# Unnormalized action weights: exact zeros and exact ties are common.
action_weights = st.lists(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 1e6),
                          min_size=1, max_size=8).filter(lambda w: sum(w) > 0)


class TestDecisionTable:
    @settings(max_examples=300, deadline=None)
    @given(action_weights, st.integers(0, 2**63))
    def test_draw_equals_generator_choice(self, weights, seed):
        probs = np.array(weights) / sum(weights)
        row = DecisionRow.of(probs)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert row.sample(ours) == int(theirs.choice(len(probs), p=probs))
        assert ours.random() == theirs.random()  # both streams at the same place

    def test_a_zero_probability_action_is_never_drawn(self):
        row = DecisionRow.of(np.array([0.0, 0.5, 0.0, 0.5, 0.0]))
        assert [row.sample(FixedDouble(u)) for u in (0.0, 0.25, 0.5, np.nextafter(1.0, 0.0))] == [
            1, 1, 3, 3]

    def test_each_observation_is_computed_once(self, spec, monkeypatch):
        calls = []
        real = orchestrator.action_distribution
        monkeypatch.setattr(orchestrator, "action_distribution",
                            lambda *args: calls.append(args) or real(*args))
        table = DecisionTable(spec.zero_params(), spec)
        row = table.row(Observation((1.0, 0, 0)))
        assert table.row(Observation((1.0, 0.0, 0.0))) is row
        assert table.row(Observation((1.0, 0, 0), 1)) is not row
        assert len(calls) == 2

    @given(action_weights)
    def test_greedy_is_the_argmax(self, weights):
        probs = np.array(weights) / sum(weights)
        assert DecisionRow.of(probs).greedy == np.argmax(probs)

    @pytest.mark.parametrize("probs", [[0.5, 0.5], [0.2, 0.4, 0.4], [np.nan] * 4,
                                       [0.2, np.nan, 0.9, np.nan]])
    def test_greedy_is_the_argmax_on_ties_and_nan(self, probs):
        # np.argmax takes the first of tied entries, and the first NaN
        assert DecisionRow.of(np.array(probs)).greedy == np.argmax(probs)

    def test_sampling_a_nan_distribution_raises(self, spec, rng):
        theta = np.full((spec.num_actions, spec.encoded_dim), np.nan)
        obs = Observation((1.0, 0, 0))
        with pytest.raises(ValueError, match="NaN"):
            decide(obs, theta, spec, rng)
        # greedy decisions take np.argmax, NaN or not
        assert decide(obs, theta, spec, None, greedy=True)[1] == 0

    def test_shared_table_changes_no_episode(self, world, spec):
        theta = np.random.default_rng(3).normal(size=(spec.num_actions, spec.encoded_dim))
        table = DecisionTable(theta, spec)
        registries = world.build_registry(), world.build_registry()
        for seed in range(20):
            task = sample_task(world.generator, np.random.default_rng(seed))
            runs = [execute_episode(task, theta, spec, registry, WEIGHTS,
                                    world.build_env([seed, 0]), np.random.default_rng([seed, 1]),
                                    table=shared)
                    for registry, shared in zip(registries, (None, table))]
            (traj_a, outcome_a, steps_a), (traj_b, outcome_b, steps_b) = runs
            assert traj_a.segments == traj_b.segments
            assert (outcome_a, steps_a) == (outcome_b, steps_b)

    def test_execute_episode_rejects_a_table_of_another_theta_or_spec(self, world, spec):
        theta = spec.zero_params()
        task = task_of_class(world, "direct")
        for table in (DecisionTable(theta.copy(), spec),
                      DecisionTable(theta, default_policy_spec(world, max_steps=3))):
            with pytest.raises(ValueError, match="another theta or spec"):
                execute_episode(task, theta, spec, world.build_registry(), WEIGHTS,
                                world.build_env([0]), np.random.default_rng(0),
                                table=table)

    def test_an_update_rejects_a_table_of_another_theta_or_spec(self, world, spec):
        theta = spec.zero_params()
        steps = [StepRecord(Observation((1.0, 0.0, 0.0)), 0, 0.5)]
        for table in (DecisionTable(theta.copy(), spec),
                      DecisionTable(theta, default_policy_spec(world, max_steps=3))):
            with pytest.raises(ValueError, match="another theta or spec"):
                masked_policy_update(theta, spec, [(steps, [1.0])], 0.05, table)


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def row_weights(n):
    """n unnormalized action weights, with exact zeros and exact ties."""
    return st.lists(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 1e6),
                    min_size=n, max_size=n).filter(lambda w: sum(w) > 0)


# a softmax has a positive entry, so an all-zero row never occurs
nonfinite_weights = st.lists(st.sampled_from([0.0, 0.5, math.nan, math.inf]) | st.floats(0.0, 1.0),
                             min_size=1, max_size=300).filter(lambda w: any(x != 0 for x in w))


class TestDecisionRowMath:
    """``DecisionRow.of`` in Python floats: the exact entropy, and the bits of
    the numpy formulas for the draw."""

    def check(self, probs):
        row = DecisionRow.of(probs)
        assert bits(row.entropy) == bits(exact_entropy(probs))
        assert row.greedy == np.argmax(probs)
        finite = bool(np.all(np.isfinite(probs)))
        assert (row.cdf is None) == (not finite)
        if finite:
            cdf = np.cumsum(probs)  # as Generator.choice builds it
            cdf /= cdf[-1]
            assert np.array(row.cdf).tobytes() == cdf.tobytes()
            us = [0.0, *(float(c) for c in cdf), *np.nextafter(cdf, 0.0)]
            us = [u for u in us if 0.0 <= u < 1.0]
            assert ([row.sample(FixedDouble(u)) for u in us]
                    == [int(cdf.searchsorted(u, side="right")) for u in us])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 300).flatmap(row_weights))
    def test_rows_of_any_size(self, weights):
        self.check(np.array(weights) / sum(weights))

    @settings(max_examples=100, deadline=None)
    @given(nonfinite_weights)
    def test_rows_with_nan_or_inf(self, weights):
        with np.errstate(invalid="ignore"):  # inf * log(inf) and the like
            self.check(np.array(weights))


class TestInterning:
    """A table keys its rows by an observation's value, and checks each one
    it computes a row for."""

    @pytest.mark.parametrize("step, outcome, message", [
        (-1, "none", "step_index must be nonnegative"),
        (4, "none", "step_index must be < max_steps"),  # the spec's max_steps
        (0, "maybe", "unknown outcome flag 'maybe'"),
    ])
    def test_decide_rejects_an_observation_the_encoding_cannot_hold(self, spec, step, outcome,
                                                                     message):
        obs = Observation((1.0, 0.0, 0.0), step, outcome)
        table = DecisionTable(spec.zero_params(), spec)
        for _ in range(2):  # a rejected observation leaves no row behind
            with pytest.raises(ValueError, match=f"^{message}$"):
                decide(obs, table.theta, spec, np.random.default_rng(0), table=table)

    def test_an_equal_but_distinct_observation_gets_the_same_row(self, spec):
        table = DecisionTable(spec.zero_params(), spec)
        row = table.row(Observation((1, 0, 0), 0, "none"))
        assert table.row(Observation((1.0, 0.0, 0.0))) is row

    def test_decide_is_still_called_once_per_step(self, world, spec, monkeypatch):
        calls = []
        real = orchestrator.decide

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(orchestrator, "decide", counting)
        theta = np.random.default_rng(5).normal(size=(spec.num_actions, spec.encoded_dim))
        for seed in range(20):
            calls.clear()
            task = sample_task(world.generator, np.random.default_rng(seed))
            _, _, records = execute_episode(task, theta, spec, world.build_registry(), WEIGHTS,
                                            world.build_env([seed, 0]),
                                            np.random.default_rng([seed, 1]))
            assert calls == [r.obs for r in records]
            assert all(c is r.obs for c, r in zip(calls, records))


class TestIntegrate:
    """How the episode loop integrates an agent's reply into the trajectory."""

    def test_well_formed_adds_agent_and_system_segments(self, world, spec):
        reply = AgentResponse(("x", ANS_OPEN, "congestion", ANS_CLOSE), 10.0, True)
        traj, _, _ = stubbed_episode(world, spec, [reply], max_steps=1)
        assert [(s.source, s.tokens) for s in traj.segments] == [
            NA_DELEGATION, ("agent", ("congestion",)), ("system", (SYS_AGENT_SUCCESS,))]
        assert traj.segments[1].card_id == "na-agent"

    def test_failure_flag_token(self, world, spec):
        reply = AgentResponse((ANS_OPEN, "wrong", ANS_CLOSE), 10.0, False)
        traj, _, _ = stubbed_episode(world, spec, [reply], max_steps=1)
        assert traj.segments[2].tokens == (SYS_AGENT_FAILURE,)

    def test_malformed_is_atomic(self, world, spec):
        # a malformed second reply adds nothing after its delegation
        good = AgentResponse((ANS_OPEN, "congestion", ANS_CLOSE), 10.0, True)
        traj, _, _ = stubbed_episode(world, spec, [good, MALFORMED])
        assert [(s.source, s.tokens) for s in traj.segments] == [
            NA_DELEGATION, ("agent", ("congestion",)), ("system", (SYS_AGENT_SUCCESS,)),
            NA_DELEGATION]


class TestExecuteEpisode:
    def run(self, world, spec, theta, task, seed=0, max_steps=4):
        registry = world.build_registry()
        env = world.build_env([seed, 0])
        rng = np.random.default_rng([seed, 1])
        return execute_episode(task, theta, spec, registry, WEIGHTS, env, rng,
                               max_steps=max_steps)

    def test_direct_answer_episode(self, world, spec):
        task = task_of_class(world, "direct")
        idx = spec.actions.index_of(Decision.answer("ack"))
        traj, outcome, records = self.run(world, spec, forced(spec, idx), task)
        assert outcome.invocation_count == 0
        assert outcome.final_answer == "ack"
        assert outcome.failure is None
        assert len(records) == 1
        assert not any(t in CONTROL_TAGS for s in traj.segments for t in s.tokens)

    def test_only_an_agent_call_builds_the_env_stream(self, world, spec, streams_built):
        task = task_of_class(world, "network_analysis")
        answer = spec.actions.index_of(Decision.answer("ack"))
        delegate = spec.actions.index_of(Decision.delegate("network_analysis"))
        for index, called in ((answer, False), (delegate, True)):
            rng = np.random.default_rng(1)
            streams_built.clear()
            env = world.build_env([0, 0])
            _, outcome, _ = execute_episode(task, forced(spec, index), spec,
                                            world.build_registry(), WEIGHTS, env, rng)
            # the delegating episode calls an agent at every step, from one stream
            assert outcome.invocation_count == (spec.max_steps if called else 0)
            assert streams_built == ([env.seed] if called else [])

    def test_unroutable_delegation_fails_without_invocations(self, world):
        wide = PolicySpec(
            feature_dim=3, max_steps=4,
            actions=ActionSpace(("ack", RELAY_ANSWER),
                                ("network_analysis", "protocol_query", "slicing")),
        )
        task = task_of_class(world, "direct")
        idx = wide.actions.index_of(Decision.delegate("slicing"))
        _, outcome, _ = self.run(world, wide, forced(wide, idx), task)
        assert outcome.failure is not None
        assert outcome.failure.kind == "no_agent_for_action"
        assert outcome.invocation_count == 0
        assert outcome.delegations == ("slicing",)
        assert outcome.terminal == {"kind": "failed", "reason": "no_agent_for_action"}

    def test_malformed_response_fails_after_one_invocation(self, world, spec):
        traj, outcome, _ = stubbed_episode(world, spec, [MALFORMED])
        assert outcome.failure.kind == "malformed_agent_response"
        assert outcome.invocation_count == 1
        assert outcome.delegations == ("network_analysis",)
        # the one core delegation span: no agent segment, no system segment
        assert [(s.source, s.tokens) for s in traj.segments] == [NA_DELEGATION]

    def test_malformed_reply_counts_as_a_failed_call(self, world, spec):
        registry = world.build_registry()
        ((_, prior),) = registry.discover("network_analysis")
        # a twin that ties with na-agent and loses the tie on its id
        registry.register_card(AgentCard("na-twin", "native", frozenset({"network_analysis"})),
                               prior)
        assert route("network_analysis", registry, WEIGHTS) == "na-agent"
        _, outcome, _ = stubbed_episode(world, spec, [MALFORMED], registry=registry)
        assert outcome.failure.kind == "malformed_agent_response"
        metrics = {c.card_id: m for c, m in registry.discover("network_analysis")}["na-agent"]
        assert metrics.sample_count == 1
        assert metrics.historical_accuracy == 0.0
        assert route("network_analysis", registry, WEIGHTS) == "na-twin"

    def test_stale_card_fails_its_call_and_loses_the_next_route(self, world, spec):
        # a-stale advertises network_analysis, which its simulator does not
        # serve, and wins the tie with na-agent on its smaller id
        card = AgentCard("a-stale", "native", frozenset({"network_analysis", "protocol_query"}))
        world = replace(world, agents=(SimAgentConfig(card, {"protocol_query": 1.0}),
                                       *world.agents))
        registry = world.build_registry()
        assert route("network_analysis", registry, WEIGHTS) == "a-stale"
        task = task_of_class(world, "network_analysis")
        idx = spec.actions.index_of(Decision.delegate("network_analysis"))
        traj, outcome, _ = execute_episode(
            task, forced(spec, idx), spec, registry, WEIGHTS, world.build_env([0, 0]),
            np.random.default_rng(1), max_steps=2)
        assert outcome.failure is None
        assert outcome.invocation_count == 2
        called = [seg.card_id for seg in traj.segments if seg.source == "agent"]
        assert called == ["a-stale", "na-agent"]
        assert traj.segments[2].tokens == (SYS_AGENT_FAILURE,)

    def test_always_delegate_truncates_at_cap(self, world, spec):
        task = task_of_class(world, "network_analysis")
        idx = spec.actions.index_of(Decision.delegate("network_analysis"))
        _, outcome, records = self.run(world, spec, forced(spec, idx), task,
                                       max_steps=3)
        assert outcome.terminal == {"kind": "truncated"}
        assert outcome.invocation_count == 3
        assert len(records) == 3
        assert outcome.final_answer is None

    def test_invocation_count_matches_agent_segments(self, world, spec):
        task = task_of_class(world, "protocol_query")
        theta = np.random.default_rng(8).normal(size=(spec.num_actions, spec.encoded_dim))
        traj, outcome, _ = self.run(world, spec, theta, task)
        assert outcome.invocation_count == sum(seg.source == "agent" for seg in traj.segments)

    def test_relay_reports_ground_truth_after_success(self, world, spec):
        world_sure = preset_case_study(agent_success=1.0, latency_jitter_ms=0.0)
        task = task_of_class(world_sure, "network_analysis")
        # delegate once, then relay: encode "delegate at step 0, relay later"
        theta = spec.zero_params()
        delegate = spec.actions.index_of(Decision.delegate("network_analysis"))
        relay = spec.actions.index_of(Decision.answer(RELAY_ANSWER))
        theta[delegate, spec.feature_dim + 0] = 60.0     # step 0
        theta[relay, spec.feature_dim + 1] = 60.0        # step 1
        traj, outcome, _ = self.run(world_sure, spec, theta, task)
        assert outcome.final_answer == task.ground_truth
        assert outcome.invocation_count == 1
        assert validate(traj) is None
        assert outcome.delegations == ("network_analysis",)

    def test_episode_determinism(self, world, spec):
        task = task_of_class(world, "network_analysis")
        theta = np.random.default_rng(9).normal(size=(spec.num_actions, spec.encoded_dim))
        results = []
        for _ in range(2):
            traj, outcome, records = self.run(world, spec, theta, task, seed=33)
            results.append((
                [(s.source, s.tokens) for s in traj.segments],
                outcome,
                [(r.action_index, r.entropy) for r in records],
            ))
        assert results[0] == results[1]

    def test_sla_flag_consistent_with_latency(self, world, spec):
        task = task_of_class(world, "network_analysis")
        theta = np.random.default_rng(10).normal(size=(spec.num_actions, spec.encoded_dim))
        _, outcome, _ = self.run(world, spec, theta, task)
        assert outcome.sla_met == (outcome.total_latency_ms <= task.task_class.sla_deadline_ms)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_latency_is_the_sum_of_the_call_latencies(self, seed):
        # jittered calls to one agent whose load grows with each of 4 calls
        world = preset_case_study(latency_jitter_ms=5.0, load_per_call=0.2)
        spec = default_policy_spec(world, max_steps=4)
        task = sample_task(world.generator, np.random.default_rng([seed, 2]))
        env = world.build_env([seed, 0])
        latencies = []
        invoke = env.invoke_agent

        def recording(*args):
            response = invoke(*args)
            latencies.append(response.latency_ms)
            return response

        env.invoke_agent = recording
        theta = forced(spec, spec.actions.index_of(Decision.delegate("network_analysis")))
        _, outcome, _ = execute_episode(task, theta, spec, world.build_registry(), WEIGHTS, env,
                                        np.random.default_rng([seed, 1]))
        assert outcome.invocation_count == len(latencies) == 4
        assert outcome.total_latency_ms == sum(latencies)
        assert outcome.sla_met == (sum(latencies) <= task.task_class.sla_deadline_ms)

    def test_trajectories_always_well_formed_under_random_policies(self, world, spec):
        rng = np.random.default_rng(11)
        registry = world.build_registry()
        for i in range(50):
            theta = rng.normal(size=(spec.num_actions, spec.encoded_dim))
            task = sample_task(world.generator, rng)
            env = world.build_env([50, i, 0])
            ep_rng = np.random.default_rng([50, i, 1])
            traj, outcome, _ = execute_episode(
                task, theta, spec, registry, WEIGHTS, env, ep_rng,
                max_steps=4)
            assert validate(traj) is None
            assert outcome.failure is None
            assert outcome.delegations == tuple(
                seg.tokens[1] for seg in traj.segments
                if seg.source == "core" and seg.tokens[0] == ACTION_OPEN)


class TestWarmupDataset:
    def test_two_demo_kinds_at_step_zero(self, world, spec):
        samples = make_warmup_dataset(world.generator, spec, 100,
                                      np.random.default_rng(0))
        assert len(samples) == 100
        answers = spec.actions
        for s in samples:
            assert s.obs.step_index == 0
            decision = answers.decision_of(s.demo_action_index)
            cls = world.generator.classes[s.obs.features.index(1.0)]
            if cls.required_action is None:
                assert decision.token in cls.answer_pool
            else:
                assert decision == Decision.delegate(cls.required_action)

    def test_samples_of_one_class_share_one_observation(self, world, spec):
        samples = make_warmup_dataset(world.generator, spec, 200, np.random.default_rng(1))
        assert all(s.obs == Observation(s.obs.features) for s in samples)  # step 0, no outcome
        assert len({s.obs for s in samples}) == len(world.generator.classes)
