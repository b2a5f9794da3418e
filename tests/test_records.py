"""The per-episode records are immutable values, and equal core and system
segments of different episodes are one object."""

import numpy as np
import pytest

from agentmesh.policy import Decision
from agentmesh.rewards import NoveltyLedger, RewardWeights
from agentmesh.router import RoutingWeights
from agentmesh.simenv import sample_task
from agentmesh.trainer import rollout_group
from agentmesh.trajectory import SOURCE_AGENT, SOURCE_CORE, SOURCE_SYSTEM


def delegating_group(world, spec, group_size=2):
    """A group of always-delegate episodes of one network-analysis task."""
    theta = spec.zero_params()
    theta[spec.actions.index_of(Decision.delegate("network_analysis")), :] = 60.0
    rng = np.random.default_rng(0)
    task = sample_task(world.generator, rng)
    while task.task_class.name != "network_analysis":
        task = sample_task(world.generator, rng)
    group = rollout_group(task, theta, spec, world.build_registry(), RoutingWeights(),
                          group_size, world, [7], RewardWeights(), spec.max_steps,
                          NoveltyLedger())
    return task, group.episodes


def test_every_record_refuses_a_field_assignment(world, spec):
    task, episodes = delegating_group(world, spec)
    ep = episodes[0]
    response = world.build_env([0, 0]).invoke_agent("na-agent", "network_analysis", task)
    for record, name in [(ep, "scalar_reward"), (ep.outcome, "final_answer"),
                         (ep.steps[0], "entropy"), (ep.reward_vector, "accuracy"),
                         (task, "ground_truth"), (response, "succeeded")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


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
