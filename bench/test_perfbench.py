"""Tests of the benchmark's own logic: span accounting, the tail rule, the
seeded input generator and the per-layer episode counts it relies on."""

from types import SimpleNamespace

import numpy as np
import pytest

import inputs
import spans
import workloads
from agentmesh import config, orchestrator, policy
from agentmesh.policy import OUTCOME_AGENT_FAILURE, OUTCOME_AGENT_SUCCESS, Observation


def test_self_time_over_nested_span_tree():
    #  0 root [0, 10]
    #  1   a  [1, 4]      3 c [2, 3]
    #  2   b  [5, 9]      4 d [6, 7]   5 e [7.5, 8.5]
    start = [0.0, 1.0, 5.0, 2.0, 6.0, 7.5]
    end = [10.0, 4.0, 9.0, 3.0, 7.0, 8.5]
    parent = [-1, 0, 0, 1, 2, 2]
    assert spans.self_times(start, end, parent).tolist() == [3.0, 2.0, 2.0, 1.0, 1.0, 1.0]


def test_tracer_records_nesting_and_restores_bindings():
    module = SimpleNamespace()
    module.leaf = lambda x: x + 1
    module.outer = lambda x: module.leaf(x) + module.leaf(x)
    leaf, outer = module.leaf, module.outer
    tracer = spans.Tracer()
    tracer.span("leaf", [(module, "leaf")])
    tracer.span("outer", [(module, "outer")], episode=True)
    with tracer.installed():
        assert module.outer(1) == 4
        assert module.leaf(1) == 2
    assert (module.leaf, module.outer) == (leaf, outer)
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["outer", "leaf", "leaf", "leaf"]
    assert list(tracer.parent) == [-1, 0, 0, -1]
    assert list(tracer.episode) == [0, 0, 0, -1]
    totals = tracer.layer_totals()
    assert totals["leaf"]["calls"] == 3
    own = spans.self_times(tracer.start, tracer.end, tracer.parent)
    root = tracer.end[0] - tracer.start[0]
    assert own[:3].sum() == pytest.approx(root)


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10000, 99.9), (100000, 99.99),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = np.arange(n, dtype=float)
    tail = spans.tail_percentile(samples)
    if expected is None:
        assert tail is None
    else:
        assert tail == (expected, float(np.percentile(samples, expected)))


def test_generator_is_a_pure_function_of_the_seed(tmp_path):
    files = {}
    for name, seed in (("first", 11), ("again", 11), ("other", 12)):
        work = tmp_path / name
        work.mkdir()
        workloads.EvalWide().write_inputs(seed, work)
        files[name] = [(work / f).read_bytes() for f in (inputs.CONFIG_FILE, inputs.POLICY_FILE)]
    assert files["first"] == files["again"]
    assert files["first"][0] != files["other"][0]


def test_relay_policy_answers_delegates_relays_and_retries(tmp_path):
    world = inputs.wide_world_config(5, cards_per_action=3)
    inputs.write_json(tmp_path / "world.json", world)
    spec = config.load_config(tmp_path / "world.json").policy_spec
    inputs.write_checkpoint(tmp_path / "policy.json", inputs.relay_policy(spec, world))
    theta = policy.load_checkpoint(tmp_path / "policy.json", spec)
    rng = np.random.default_rng(0)

    def choice(k, outcome="none", step=0):
        features = tuple(1.0 if i == k else 0.0 for i in range(spec.feature_dim))
        decision, _, _ = orchestrator.decide(Observation(features, step, outcome), theta, spec,
                                             rng, greedy=True)
        return decision

    classes = world["task_classes"]
    assert choice(0).token == classes[0]["answer_pool"][0]
    for k in (1, 2):
        assert choice(k).action_type == classes[k]["required_action"]
        assert choice(k, OUTCOME_AGENT_FAILURE, 1).action_type == classes[k]["required_action"]
        assert choice(k, OUTCOME_AGENT_SUCCESS, 1).token == "relay_answer"


@pytest.mark.parametrize("workload, episodes", [
    (workloads.TrainZero, 13762), (workloads.TrainSft, 4000),
])
def test_episode_counts_at_seed_42_and_500_iterations(tmp_path, workload, episodes):
    unit = workload()
    unit.settings = {"trainer": {"iterations": 500}}  # the README defaults otherwise
    unit.write_inputs(42, tmp_path)
    unit.setup(tmp_path)
    counter = spans.Tracer()
    workloads.count_episodes(counter)
    with counter.installed():
        unit.run()
    assert counter.counts["orchestrator.execute_episode.calls"] == episodes
    assert counter.counts.get("orchestrator.episode_failures", 0) == 0
