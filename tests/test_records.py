"""The per-episode records are immutable values, each holds all its fields,
and equal core and system segments of different episodes are one object."""

import numpy as np
import pytest

from agentmesh import trainer
from agentmesh.orchestrator import EpisodeOutcome, StepRecord
from agentmesh.policy import Decision, Observation, SftSample
from agentmesh.registry import Registry
from agentmesh.rewards import NoveltyLedger, RewardVector, RewardWeights
from agentmesh.router import RoutingWeights
from agentmesh.simenv import AgentResponse, SimEnv, sample_task
from agentmesh.trainer import EpisodeResult, evaluate_policy, rollout_group
from agentmesh.trajectory import SOURCE_AGENT, SOURCE_CORE, SOURCE_SYSTEM


def forced_theta(spec, decision):
    """Parameters that take ``decision`` with probability ~1 everywhere."""
    theta = spec.zero_params()
    theta[spec.actions.index_of(decision), :] = 60.0
    return theta


def forced_group(world, spec, decision, class_name, registry=None, group_size=2):
    """A group of episodes of one task of ``class_name`` that always take
    ``decision``, routed over ``registry`` (the world's by default)."""
    rng = np.random.default_rng(0)
    task = sample_task(world.generator, rng)
    while task.task_class.name != class_name:
        task = sample_task(world.generator, rng)
    group = rollout_group(task, forced_theta(spec, decision), spec,
                          world.build_registry() if registry is None else registry,
                          RoutingWeights(), group_size, world, [7], RewardWeights(),
                          spec.max_steps, NoveltyLedger())
    return task, group.episodes


def delegating_group(world, spec, group_size=2):
    """A group of always-delegate episodes of one network-analysis task."""
    return forced_group(world, spec, Decision.delegate("network_analysis"), "network_analysis",
                        group_size=group_size)


def test_every_record_refuses_a_field_assignment(world, spec):
    task, episodes = delegating_group(world, spec)
    ep = episodes[0]
    response = world.build_env([0, 0]).invoke_agent("na-agent", "network_analysis", task)
    demo = SftSample(ep.steps[0].obs, ep.steps[0].action_index)
    for record, name in [(ep, "scalar_reward"), (ep.outcome, "final_answer"),
                         (ep.steps[0], "entropy"), (ep.reward_vector, "accuracy"),
                         (task, "ground_truth"), (response, "succeeded"),
                         (demo, "demo_action_index")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def recording(monkeypatch, owner, name):
    """The return value of each call of ``owner.name`` from here on."""
    returned = []
    real = getattr(owner, name)

    def record(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(owner, name, record)
    return returned


def test_every_hot_record_holds_all_its_fields(world, spec, monkeypatch):
    # the per-step and per-episode sites build these records with
    # tuple.__new__, which checks no arity: a field dropped or added at a site
    # shows as a record of the wrong length, or one its own constructor rebuilds
    # differently
    replies = recording(monkeypatch, SimEnv, "invoke_agent")
    played = recording(monkeypatch, trainer, "execute_episode")
    delegate = Decision.delegate("network_analysis")
    _, delegating = delegating_group(world, spec)
    _, direct = forced_group(world, spec, Decision.answer("ack"), "direct")
    _, unroutable = forced_group(world, spec, delegate, "network_analysis", Registry())
    evaluate_policy(world, spec, forced_theta(spec, delegate), RoutingWeights(),
                    n_episodes=20, seed=5)
    assert direct[0].outcome.final_answer == "ack"
    assert unroutable[0].outcome.failure.kind == "no_agent_for_action"
    assert len(played) == 2 + 2 + 2 + 20  # the greedy evaluation's episodes too

    records = [(AgentResponse, r) for r in replies]
    for ep in delegating + direct + unroutable:
        records += [(EpisodeResult, ep), (RewardVector, ep.reward_vector)]
    for _, outcome, steps in played:
        records.append((EpisodeOutcome, outcome))
        records += [(StepRecord, step) for step in steps]
        records += [(Observation, step.obs) for step in steps]
    assert {cls for cls, _ in records} == {AgentResponse, EpisodeResult, RewardVector,
                                           EpisodeOutcome, StepRecord, Observation}
    for cls, record in records:
        assert type(record) is cls
        assert len(record) == len(cls._fields)
        assert record == cls(*record)


def test_a_reward_vector_lists_its_components_in_order(world, spec):
    _, episodes = delegating_group(world, spec)
    assert list(episodes[0].reward_vector.as_dict()) == [
        "accuracy", "format", "efficiency", "qos", "exploration"]


def test_equal_core_and_system_segments_of_two_episodes_are_one_object(world, spec):
    _, (first, second) = delegating_group(world, spec)
    shared = set()
    for a in first.trajectory.segments:
        for b in second.trajectory.segments:
            if a == b and a.source != SOURCE_AGENT:
                assert a is b
                shared.add(a.source)
    assert shared == {SOURCE_CORE, SOURCE_SYSTEM}
