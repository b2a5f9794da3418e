import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentmesh import orchestrator, simenv, trainer
from agentmesh.config import default_policy_spec, load_config
from agentmesh.errors import BadConfig
from agentmesh.orchestrator import DecisionTable, StepRecord, execute_episode
from agentmesh.policy import (OUTCOMES, Decision, Observation, action_distribution,
                              log_prob_and_grad)
from agentmesh.rewards import NoveltyLedger, RewardWeights, episode_reward, scalarize
from agentmesh.router import RoutingWeights
from agentmesh.simenv import episode_seeds, preset_case_study, sample_task
from agentmesh.trainer import (
    ADVANTAGE_EPS,
    MAX_EVAL_EPISODES,
    MAX_GROUP_SIZE,
    MAX_ITERATIONS,
    ExplorationConfig,
    TrainerConfig,
    entropy_control,
    evaluate_policy,
    group_advantage,
    masked_policy_update,
    rollout_group,
    train,
)
from agentmesh.trajectory import agent_segment
from oracles import (exact_sum, greedy_policy, greedy_scores, optimal_action_sets,
                     optimal_expected_reward)

WEIGHTS = RoutingWeights()
REWARDS = RewardWeights()


def bits(values) -> bytes:
    """The float64 bytes of ``values``, which tell -0.0 from 0.0."""
    return np.asarray(values, dtype=np.float64).tobytes()


# Floats whose sums round differently in different orders: 1e16 + 1.0 is
# 1e16, and -0.0 + -0.0 is -0.0.
summed_floats = st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0, 1.0, 1e16, -1e16])


def order_sensitive(seed: int, size: int) -> list[float]:
    """Values of magnitudes 1e-4 to 1e4 whose float sum depends on the order
    of addition, with zeros of both signs among them."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-4, 5, size)
    values[rng.random(size) < 0.1] = 0.0
    values[rng.random(size) < 0.1] = -0.0
    return values.tolist()


def exact_advantage(rewards) -> list[float]:
    """``group_advantage``'s formula, with its sums taken exactly."""
    n = len(rewards)
    if min(rewards) == max(rewards):
        return [0.0] * n
    mean = exact_sum(rewards) / n
    centred = [r - mean for r in rewards]
    scale = math.sqrt(exact_sum([c * c for c in centred]) / n) + ADVANTAGE_EPS
    return [c / scale for c in centred]


class TestExactStatistics:
    """The trainer's statistics round each sum once, as exact arithmetic would."""

    @settings(max_examples=100, deadline=None)
    @given(rewards=st.lists(summed_floats, min_size=2, max_size=300))
    def test_group_advantage_sums_exactly(self, rewards):
        assert bits(group_advantage(rewards)) == bits(exact_advantage(rewards))

    @settings(max_examples=100, deadline=None)
    @given(entropies=st.lists(summed_floats, min_size=1, max_size=300),
           advantage=st.floats(-10.0, 10.0), bonus=st.floats(0.0, 10.0))
    def test_entropy_correction_sums_exactly(self, entropies, advantage, bonus):
        cfg = ExplorationConfig(1.0, 0.05, 2, entropy_bonus=bonus)
        _, corrected = entropy_control(records_with_entropies(entropies), advantage, cfg)
        mean = exact_sum(entropies) / len(entropies)
        assert bits(corrected) == bits([advantage + bonus * (h - mean) for h in entropies])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 300))
    def test_statistics_sum_exactly_on_order_sensitive_values(self, seed, size):
        values = order_sensitive(seed, size)
        assert bits(group_advantage(values)) == bits(exact_advantage(values))
        cfg = ExplorationConfig(1.0, 0.05, 2, entropy_bonus=2.0)
        _, corrected = entropy_control(records_with_entropies(values), 0.5, cfg)
        mean = exact_sum(values) / size
        assert bits(corrected) == bits([0.5 + 2.0 * (h - mean) for h in values])

    @settings(max_examples=100, deadline=None)
    @given(rewards=st.lists(summed_floats, min_size=2, max_size=300),
           seed=st.integers(0, 2**32 - 1))
    @example(rewards=[1.0, 1e16, -1e16], seed=3)  # in order, 0.0 one way and 1.0 the other
    def test_group_advantage_does_not_depend_on_order(self, rewards, seed):
        order = np.random.default_rng(seed).permutation(len(rewards))
        advantages = group_advantage(rewards)
        assert bits(group_advantage([rewards[i] for i in order])) == bits(advantages[order])

    @settings(max_examples=100, deadline=None)
    @given(entropies=st.lists(summed_floats, min_size=1, max_size=300),
           seed=st.integers(0, 2**32 - 1))
    @example(entropies=[1.0, 1e16, -1e16], seed=3)
    def test_entropy_correction_does_not_depend_on_order(self, entropies, seed):
        order = np.random.default_rng(seed).permutation(len(entropies))
        cfg = ExplorationConfig(1.0, 0.05, 2, entropy_bonus=1.5)
        _, corrected = entropy_control(records_with_entropies(entropies), 0.25, cfg)
        _, permuted = entropy_control(records_with_entropies([entropies[i] for i in order]),
                                      0.25, cfg)
        assert bits(permuted) == bits([corrected[i] for i in order])

    @settings(max_examples=50, deadline=None)
    @given(negative=st.lists(st.booleans(), min_size=2, max_size=300))
    def test_zeros_of_both_signs_give_positive_zero_advantages(self, negative):
        # 0.0 == -0.0: the group's rewards are equal though their bits differ
        rewards = [-0.0 if n else 0.0 for n in negative]
        assert bits(group_advantage(rewards)) == bits(np.zeros(len(rewards)))

    def test_report_means_sum_exactly(self, world, spec, monkeypatch):
        episodes: dict[int, list] = {}

        def recording(*args, **kwargs):
            group = rollout_group(*args, **kwargs)
            iteration = args[7][1] - 1  # the group's seed path [seed, iteration + 1, gi]
            episodes.setdefault(iteration, []).extend(group.episodes)
            return group

        monkeypatch.setattr(trainer, "rollout_group", recording)
        _, report = train(world, spec, TrainerConfig(iterations=4), REWARDS, WEIGHTS, seed=2)
        assert len(episodes) == len(report.rows) == 4
        for row in report.rows:
            eps = episodes[row.iteration]
            entropies = [s.entropy for ep in eps for s in ep.steps]
            assert bits([row.mean_reward, row.success_rate, row.mean_entropy]) == bits([
                exact_sum(ep.scalar_reward for ep in eps) / len(eps),
                exact_sum(ep.reward_vector.accuracy for ep in eps) / len(eps),
                exact_sum(entropies) / len(entropies)])

    def test_cancelling_values_keep_the_small_one(self):
        # the exact sum is 1.0; in order, 1e16 + 1.0 rounds to 1e16 and the sum to 0.0
        _, corrected = entropy_control(records_with_entropies([1e16, 1.0, -1e16]), 0.0,
                                       ExplorationConfig(1.0, 0.05, 2, entropy_bonus=3.0))
        assert corrected == [3.0 * (1e16 - 1.0 / 3), 3.0 * (1.0 - 1.0 / 3),
                             3.0 * (-1e16 - 1.0 / 3)]

    @pytest.mark.parametrize("size", [1, 2, 8, 300])
    def test_negative_zeros_average_to_positive_zero(self, size):
        # -0.0 + (h - mean) keeps its sign only when the mean is +0.0
        steps = records_with_entropies([-0.0] * size)
        _, corrected = entropy_control(steps, -0.0, ExplorationConfig(1.0, 0.05, 2, 1.0))
        assert bits(corrected) == bits([-0.0] * size)

    def test_sure_decisions_report_a_mean_entropy_of_positive_zero(self, world, spec):
        # a sure decision's entropy is -0.0, the negated sum of 1 * log 1
        theta = spec.zero_params()
        theta[0, :] = 300.0  # every other action's probability underflows to 0
        _, report = train(world, spec, TrainerConfig(iterations=1), REWARDS, WEIGHTS, seed=1,
                          initial_theta=theta)
        assert bits(report.rows[0].mean_entropy) == bits(0.0)


class TestGroupAdvantage:
    def test_alternating_rewards(self):
        adv = group_advantage([1.0, 0.0, 1.0, 0.0])
        assert np.allclose(adv, [1, -1, 1, -1], atol=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(reward=st.floats(-1e100, 1e100), size=st.integers(2, 300))
    @example(reward=0.7, size=5)
    @example(reward=-1.4410168601332844, size=3)  # its rounded mean is not the reward
    def test_all_equal_rewards(self, reward, size):
        assert bits(group_advantage([reward] * size)) == bits(np.zeros(size))

    def test_zero_mean_when_spread(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            rewards = rng.uniform(0, 2, size=int(rng.integers(2, 12)))
            adv = group_advantage(rewards)
            if rewards.std() > 0:
                assert abs(adv.mean()) <= 1e-9

    def test_group_of_one_rejected(self):
        with pytest.raises(BadConfig):
            group_advantage([1.0])


def records_with_entropies(entropies):
    obs = Observation((1.0, 0.0, 0.0))
    return [StepRecord(obs, 0, h) for h in entropies]


class TestEntropyControl:
    CFG = ExplorationConfig(entropy_high_threshold=1.0, entropy_floor=0.05,
                            branch_factor=2, entropy_bonus=0.1)

    def test_zero_bonus_leaves_advantage(self):
        cfg = ExplorationConfig(1.0, 0.05, 2, entropy_bonus=0.0)
        _, corrected = entropy_control(records_with_entropies([0.3, 0.9]), 0.5, cfg)
        assert np.array_equal(corrected, [0.5, 0.5])

    def test_uniform_entropies_no_correction(self):
        _, corrected = entropy_control(records_with_entropies([0.4, 0.4, 0.4]),
                                       -0.2, self.CFG)
        assert np.allclose(corrected, -0.2)

    def test_correction_formula(self):
        steps = records_with_entropies([0.5, 1.5])  # mean 1.0
        _, corrected = entropy_control(steps, 0.5,
                                       ExplorationConfig(2.0, 0.05, 2, 0.1))
        assert corrected[1] == pytest.approx(0.5 + 0.1 * 0.5)

    def test_trigger_on_high_entropy(self):
        triggered, _ = entropy_control(records_with_entropies([0.2, 1.2]), 0.0, self.CFG)
        assert triggered
        triggered, _ = entropy_control(records_with_entropies([0.2, 0.9]), 0.0, self.CFG)
        assert not triggered

    def test_no_steps_no_trigger(self):
        assert entropy_control([], 0.5, self.CFG) == (False, [])

    def test_floor_below_threshold_enforced(self):
        with pytest.raises(BadConfig):
            ExplorationConfig(entropy_high_threshold=0.1, entropy_floor=0.2)


def reference_update(theta, spec, episodes, learning_rate):
    """The update as a running sum of one gradient term per decision step."""
    grad = np.zeros_like(theta)
    for steps, advantages in episodes:
        for step, adv in zip(steps, advantages):
            if adv != 0.0:
                grad += adv * log_prob_and_grad(theta, spec, step.obs, step.action_index)[1]
    if not np.any(grad):
        return theta
    return theta + learning_rate * grad / len(episodes)


def tables(theta, spec, episodes):
    """The ``table`` inputs of an update: none, a fresh table of ``theta``,
    and one whose rows the episodes' observations already filled."""
    filled = DecisionTable(theta, spec)
    for steps, _ in episodes:
        for step in steps:
            filled.row(step.obs)
    return [None, DecisionTable(theta, spec), filled]


def random_episodes(spec, rng, n_episodes, zero_share):
    """Episodes of 1 to 4 steps over 6 observations, so that (observation,
    action) keys repeat, with about ``zero_share`` of the advantages 0."""
    pool = [Observation(tuple(float(i == c) for i in range(spec.feature_dim)), k, outcome)
            for c, k, outcome in [(0, 0, OUTCOMES[0]), (1, 0, OUTCOMES[0]),
                                  (1, 1, OUTCOMES[1]), (2, 1, OUTCOMES[2]),
                                  (0, 2, OUTCOMES[2]), (2, 3, OUTCOMES[1])]]
    episodes = []
    for _ in range(n_episodes):
        n = int(rng.integers(1, 5))
        steps = [StepRecord(pool[int(rng.integers(len(pool)))],
                            int(rng.integers(spec.num_actions)), 0.5) for _ in range(n)]
        advantages = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6, size=n)
        advantages[rng.random(n) < zero_share] = 0.0
        episodes.append((steps, list(advantages)))
    return episodes


class TestMaskedPolicyUpdate:
    def test_zero_advantages_exact_noop(self, spec):
        theta = np.random.default_rng(0).normal(size=(spec.num_actions, spec.encoded_dim))
        steps = records_with_entropies([0.5, 0.5])
        updated = masked_policy_update(theta, spec, [(steps, np.zeros(2))], 0.1)
        assert updated is theta
        episodes = random_episodes(spec, np.random.default_rng(8), 50, 1.0)
        assert masked_policy_update(theta, spec, episodes, 0.1) is theta

    def test_negative_learning_rate_rejected(self, spec):
        steps = records_with_entropies([0.5])
        with pytest.raises(ValueError, match="^learning_rate must be >= 0$"):
            masked_policy_update(spec.zero_params(), spec, [(steps, [1.0])], -1)

    def test_single_step_matches_gradient(self, spec):
        theta = np.random.default_rng(1).normal(size=(spec.num_actions, spec.encoded_dim))
        obs = Observation((0.0, 1.0, 0.0), 1, "agent_success")
        step = StepRecord(obs, 2, 0.5)
        updated = masked_policy_update(theta, spec, [([step], np.array([1.0]))], 0.05)
        _, grad = log_prob_and_grad(theta, spec, obs, 2)
        assert np.allclose(updated, theta + 0.05 * grad, atol=1e-12)

    def test_equals_the_per_step_gradient_sum(self, world, spec):
        theta = np.random.default_rng(4).normal(size=(spec.num_actions, spec.encoded_dim))
        episodes = []
        for seed in range(12):  # rollouts that revisit the same observations
            task = sample_task(world.generator, np.random.default_rng(seed % 3))
            _, _, steps = execute_episode(task, theta, spec, world.build_registry(), WEIGHTS,
                                          world.build_env([seed, 0]),
                                          np.random.default_rng([seed, 1]))
            advantages = np.random.default_rng(seed).normal(size=len(steps))
            advantages[::3] = 0.0
            episodes.append((steps, advantages))
        assert bits(masked_policy_update(theta, spec, episodes, 0.05)) == bits(
            reference_update(theta, spec, episodes, 0.05))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_episodes=st.integers(1, 120),
           zero_share=st.sampled_from([0.0, 0.3, 0.9]))
    def test_equals_the_running_sum_bit_for_bit(self, seed, n_episodes, zero_share):
        spec = default_policy_spec(preset_case_study(), max_steps=4)
        rng = np.random.default_rng(seed)
        theta = rng.normal(scale=3.0, size=(spec.num_actions, spec.encoded_dim))
        episodes = random_episodes(spec, rng, n_episodes, zero_share)
        expected = bits(reference_update(theta, spec, episodes, 0.05))
        for table in tables(theta, spec, episodes):
            assert bits(masked_policy_update(theta, spec, episodes, 0.05, table)) == expected

    def test_one_gradient_per_distinct_step_in_first_seen_order(self, spec, gradient_calls,
                                                                 monkeypatch):
        # repeated keys, one through an equal but distinct Observation; a key
        # whose every advantage is 0 is skipped
        a, a_copy = Observation((1.0, 0.0, 0.0)), Observation((1.0, 0.0, 0.0))
        b, c = Observation((0.0, 1.0, 0.0), 1), Observation((0.0, 0.0, 1.0), 2)
        episodes = [
            ([StepRecord(c, 3, 0.5), StepRecord(b, 2, 0.5), StepRecord(a, 0, 0.5)],
             [0.0, 1.0, -0.5]),
            ([StepRecord(b, 2, 0.5), StepRecord(a_copy, 0, 0.5), StepRecord(a, 1, 0.5),
              StepRecord(c, 3, 0.5)], [2.0, 0.3, 0.7, 0.0]),
        ]
        calls, rows = gradient_calls(trainer), []
        real = orchestrator.action_distribution
        monkeypatch.setattr(orchestrator, "action_distribution",
                            lambda theta, spec, obs: rows.append(obs) or real(theta, spec, obs))
        theta = np.random.default_rng(5).normal(size=(spec.num_actions, spec.encoded_dim))
        updated = masked_policy_update(theta, spec, episodes, 0.05)
        assert calls == []
        # the keys (b, 2), (a, 0) and (a, 1) read one row per observation
        assert rows == [b, a]
        assert rows[1] is a
        table = DecisionTable(theta, spec)
        table.row(a), table.row(b)
        rows.clear()
        assert bits(masked_policy_update(theta, spec, episodes, 0.05, table)) == bits(updated)
        assert rows == []
        assert bits(updated) == bits(reference_update(theta, spec, episodes, 0.05))

    def test_more_than_128_terms_are_added_in_step_order(self, spec):
        rng = np.random.default_rng(7)
        theta = rng.normal(size=(spec.num_actions, spec.encoded_dim))
        episodes = random_episodes(spec, rng, 120, 0.2)
        assert sum(adv != 0.0 for _, advantages in episodes for adv in advantages) > 128
        expected = bits(reference_update(theta, spec, episodes, 0.05))
        for table in tables(theta, spec, episodes):
            assert bits(masked_policy_update(theta, spec, episodes, 0.05, table)) == expected


def always_delegate(spec):
    theta = spec.zero_params()
    theta[spec.actions.index_of(Decision.delegate("network_analysis")), :] = 60.0
    return theta


class TestStepBudget:
    """The policy spec's step budget bounds every episode of train and eval."""

    def test_train_truncates_at_the_spec_budget(self, world, monkeypatch):
        spec = default_policy_spec(world, max_steps=3)
        episodes = []

        def recording(*args, **kwargs):
            episodes.append(execute_episode(*args, **kwargs))
            return episodes[-1]

        monkeypatch.setattr(trainer, "execute_episode", recording)
        train(world, spec, TrainerConfig(iterations=1), REWARDS, WEIGHTS, seed=0,
              initial_theta=always_delegate(spec))
        assert episodes
        for _, outcome, steps in episodes:
            assert outcome.terminal == {"kind": "truncated"}
            assert (outcome.invocation_count, len(steps)) == (3, 3)

    def test_evaluate_truncates_at_the_spec_budget(self, world):
        spec = default_policy_spec(world, max_steps=3)
        summary = evaluate_policy(world, spec, always_delegate(spec), WEIGHTS,
                                  n_episodes=20, seed=0)
        assert (summary.mean_invocations, summary.success_rate) == (3.0, 0.0)
        assert summary.failure_modes == {}

    def test_evaluate_rejects_a_budget_above_the_spec(self, world):
        spec = default_policy_spec(world, max_steps=2)
        # rejected up front, not at the third step after two agent calls
        with pytest.raises(ValueError, match=r"max_steps must be in \[1, 2\]"):
            evaluate_policy(world, spec, always_delegate(spec), WEIGHTS,
                            n_episodes=3, seed=0, max_steps=4)

    @pytest.mark.parametrize("max_steps", [0, 3])
    def test_bad_budget_is_rejected_before_the_episode_starts(self, world, max_steps,
                                                              streams_built):
        spec = default_policy_spec(world, max_steps=2)
        registry = world.build_registry()
        task = sample_task(world.generator, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        streams_built.clear()
        env = world.build_env(0)
        with pytest.raises(ValueError, match="max_steps"):
            execute_episode(task, always_delegate(spec), spec, registry, WEIGHTS, env, rng,
                            max_steps=max_steps)
        assert env.loads == {} and streams_built == []
        assert all(m.sample_count == 0
                   for action in world.action_types for _, m in registry.discover(action))


@pytest.mark.parametrize("n_episodes", [0, MAX_EVAL_EPISODES + 1, 10**12])
def test_an_episode_count_out_of_range_is_rejected_before_any_work(world, spec, n_episodes):
    with pytest.raises(BadConfig, match=r"n_episodes must be in \[1, 10000000\]"):
        evaluate_policy(world, spec, spec.zero_params(), WEIGHTS, n_episodes=n_episodes, seed=0)


def test_sampled_evaluation_keeps_its_streams(world, spec):
    # the task, env and policy streams of a sampled evaluation, pinned
    summary = evaluate_policy(world, spec, spec.zero_params(), WEIGHTS, n_episodes=200,
                              seed=606, greedy=False)
    assert summary.as_dict() == {
        "n_episodes": 200, "success_rate": 0.255, "mean_latency_ms": 52.48559335270734,
        "sla_violation_rate": 0.055, "mean_invocations": 0.86, "failure_modes": {}}


@pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "sampled"])
def test_evaluation_seeds_in_blocks_with_every_stream_kept(world, spec, monkeypatch, greedy):
    # each episode's streams as default_rng builds them, one at a time
    theta = np.random.default_rng(4).normal(size=(spec.num_actions, spec.encoded_dim))
    registry, task_rng, outcomes = world.build_registry(), np.random.default_rng([7, 2]), []
    for i in range(10):
        task = sample_task(world.generator, task_rng)
        rng = None if greedy else np.random.default_rng([7, 3, i, 1])
        outcomes.append(execute_episode(
            task, theta, spec, registry, WEIGHTS, world.build_env([7, 3, i, 0]), rng,
            greedy=greedy)[1])
    seen = []

    def recording(*args, **kwargs):
        result = execute_episode(*args, **kwargs)
        seen.append(result[1])
        return result

    monkeypatch.setattr(trainer, "execute_episode", recording)
    monkeypatch.setattr(simenv, "SEED_BLOCK", 3)  # blocks of 3, 3, 3 and 1
    evaluate_policy(world, spec, theta, WEIGHTS, n_episodes=10, seed=7, greedy=greedy)
    assert seen == outcomes


def confident_theta(spec):
    theta = spec.zero_params()
    theta[0, :] = 60.0  # always answer "ack": no decision is uncertain enough to trigger
    return theta


SEED_BLOCK_CASES = {
    "from zero": (4, None),  # every iteration after the first has branch groups
    "confident": (4, confident_theta),  # no group triggers
    "seed above 32 bits": (2**32 + 1, None),
}


class TestSeedBlocks:
    """``train`` hashes the first group's streams for a block of iterations
    in one pass; a block boundary must change no stream."""

    @pytest.mark.parametrize("per_block", [2, 3])
    @pytest.mark.parametrize("case", SEED_BLOCK_CASES.keys())
    def test_block_boundaries_change_no_stream(self, world, spec, monkeypatch, case, per_block):
        seed, initial = SEED_BLOCK_CASES[case]
        cfg = TrainerConfig(iterations=7)
        initial_theta = None if initial is None else initial(spec)

        def run():
            theta, report = train(world, spec, cfg, REWARDS, WEIGHTS, seed,
                                  initial_theta=initial_theta)
            return theta.tobytes(), report.to_csv(), [row.triggers for row in report.rows]

        unblocked = run()
        monkeypatch.setattr(simenv, "SEED_BLOCK", per_block * cfg.group_size + 1)
        assert run() == unblocked
        triggers = unblocked[2]
        if initial is None:
            assert all(triggers)
        else:
            assert not any(triggers)

    def test_each_rollout_draws_its_own_words(self, world, spec, monkeypatch):
        # rollout i of group gi at iteration k: streams (seed, k + 1, gi, i, 0 and 1)
        seed, at, groups = 9, {"k": 0, "gi": 0}, set()
        drawn, expected = [], []

        def recording(task, theta, spec, registry, router_weights, group_size, *args,
                      seeds, **kwargs):
            k, gi = at["k"], at["gi"]
            at["gi"] += 1
            groups.add(gi)
            for i in range(group_size):
                for s in range(2):
                    drawn.append(np.random.default_rng(seeds[i, s]).random(3).tobytes())
                    words = [seed, k + 1, gi, i, s]
                    expected.append(np.random.default_rng(words).random(3).tobytes())
            return rollout_group(task, theta, spec, registry, router_weights, group_size,
                                 *args, seeds=seeds, **kwargs)

        def next_iteration(*_):
            at["k"] += 1
            at["gi"] = 0

        monkeypatch.setattr(trainer, "rollout_group", recording)
        monkeypatch.setattr(simenv, "SEED_BLOCK", 20)  # blocks of 2, 2 and 1 iterations
        train(world, spec, TrainerConfig(iterations=5, checkpoint_every=1), REWARDS, WEIGHTS,
              seed, checkpoint_callback=next_iteration)
        assert groups == {0, 1, 2, 3, 4}  # branch groups ran
        assert drawn == expected

    @pytest.mark.parametrize("iterations, block, branching, passes", [
        (7, None, False, 1), (7, 24, False, 3), (6, 24, False, 2), (1, 24, False, 1),
        (3, 1, False, 3), (7, 24, True, 3 + 6)])
    def test_one_pass_per_block_and_per_iteration_with_branch_groups(
            self, world, spec, monkeypatch, iterations, block, branching, passes):
        calls = []

        def counting(*args):
            calls.append(args)
            return episode_seeds(*args)

        monkeypatch.setattr(simenv, "episode_seeds", counting)
        if block is not None:
            monkeypatch.setattr(simenv, "SEED_BLOCK", block)  # 3 iterations, or at least 1
        # from zero every group triggers; above log A no decision can
        never = ExplorationConfig(entropy_high_threshold=np.log(spec.num_actions) + 1.0,
                                  entropy_floor=0.0)
        cfg = TrainerConfig(iterations=iterations, exploration=None if branching else never)
        _, report = train(world, spec, cfg, REWARDS, WEIGHTS, seed=3)
        branched = sum(1 for row in report.rows[:-1] if row.triggers)
        assert branched == (iterations - 1 if branching else 0)
        assert len(calls) == passes
        # a block ends with the run: no first group is hashed for an iteration that never comes
        first = [axes for prefix, *axes in calls if len(prefix) == 1]
        assert [k for ks, *_ in first for k in ks] == list(range(1, iterations + 1))
        assert all(list(map(len, rest)) == [1, cfg.group_size, 2] for _, *rest in first)


class TestRolloutGroup:
    def test_deterministic_policy_identical_trajectories(self, world, spec):
        sure = preset_case_study(agent_success=1.0, latency_jitter_ms=0.0)
        theta = spec.zero_params()
        theta[0, :] = 60.0  # always answer "ack"
        task = sample_task(sure.generator, np.random.default_rng(0))
        group = rollout_group(task, theta, spec, sure.build_registry(), WEIGHTS,
                              4, sure, [1], REWARDS, 4, NoveltyLedger())
        shapes = [[s.tokens for s in ep.trajectory.segments] for ep in group.episodes]
        assert all(s == shapes[0] for s in shapes)

    def test_per_stream_reproducibility(self, world, spec):
        theta = np.random.default_rng(2).normal(size=(spec.num_actions, spec.encoded_dim))
        task = sample_task(world.generator, np.random.default_rng(0))

        def run():
            return rollout_group(task, theta, spec, world.build_registry(), WEIGHTS,
                                 6, world, [9], REWARDS, 4, NoveltyLedger())

        a, b = run(), run()
        assert np.array_equal(a.scalar_rewards, b.scalar_rewards)
        assert [e.outcome for e in a.episodes] == [e.outcome for e in b.episodes]

    def test_group_of_one_rejected(self, world, spec):
        task = sample_task(world.generator, np.random.default_rng(0))
        with pytest.raises(BadConfig):
            rollout_group(task, spec.zero_params(), spec, world.build_registry(),
                          WEIGHTS, 1, world, [1], REWARDS, 4, NoveltyLedger())

    def test_a_given_table_gives_the_same_episodes(self, world, spec):
        theta = np.random.default_rng(2).normal(size=(spec.num_actions, spec.encoded_dim))
        task = sample_task(world.generator, np.random.default_rng(0))

        def run(**kwargs):
            return rollout_group(task, theta, spec, world.build_registry(), WEIGHTS,
                                 6, world, [9], REWARDS, 4, NoveltyLedger(), **kwargs).episodes

        own = run()
        table = DecisionTable(theta, spec)
        assert run(table=table) == own
        assert run(table=table) == own  # from the rows the first group filled

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), tail=st.lists(st.integers(0, 2**32 - 1), max_size=2),
           size=st.integers(2, 6), in_rows=st.booleans())
    def test_given_rows_give_the_episodes_of_its_own_rows(self, seed, tail, size, in_rows):
        # train hashes a group's seeds ahead, with the words after the seed on
        # axes of their own rather than in the prefix: the seeds must not differ
        world = preset_case_study()
        spec = default_policy_spec(world, max_steps=4)
        theta = np.random.default_rng(2).normal(size=(spec.num_actions, spec.encoded_dim))
        task = sample_task(world.generator, np.random.default_rng(0))
        base_seed = [seed, *tail]

        def run(**kwargs):
            return rollout_group(task, theta, spec, world.build_registry(), WEIGHTS, size,
                                 world, base_seed, REWARDS, 4, NoveltyLedger(),
                                 **kwargs).episodes

        if in_rows:
            seeds = episode_seeds([seed], *([w] for w in tail), range(size), range(2))
            seeds = seeds[(0,) * len(tail)]
        else:
            seeds = episode_seeds(base_seed, range(size), range(2))
        assert run(seeds=seeds) == run()

    @pytest.mark.parametrize("rows, streams", [(3, 2), (1, 2), (2, 1)],
                             ids=["extra rows", "too few rows", "one stream per rollout"])
    def test_seeds_not_shaped_by_the_group_are_rejected(self, world, spec, rows, streams):
        # iterating the rows would run as many episodes as there are rows
        task = sample_task(world.generator, np.random.default_rng(0))
        seeds = episode_seeds([1], range(rows), range(streams))
        with pytest.raises(ValueError, match=r"not \(2, 2\)"):
            rollout_group(task, spec.zero_params(), spec, world.build_registry(), WEIGHTS, 2,
                          world, [1], REWARDS, 4, NoveltyLedger(), seeds=seeds)

    def test_a_table_of_a_copy_of_theta_is_rejected(self, world, spec):
        theta = spec.zero_params()
        task = sample_task(world.generator, np.random.default_rng(0))
        with pytest.raises(ValueError, match="another theta"):
            rollout_group(task, theta, spec, world.build_registry(), WEIGHTS, 2, world, [1],
                          REWARDS, 4, NoveltyLedger(), table=DecisionTable(theta.copy(), spec))


class TestMaskingInvariance:
    def test_agent_content_mutation_leaves_update_unchanged(self, world, spec):
        rng = np.random.default_rng(123)
        theta = rng.normal(scale=0.5, size=(spec.num_actions, spec.encoded_dim))
        task = sample_task(world.generator, rng)
        group = rollout_group(task, theta, spec, world.build_registry(), WEIGHTS,
                              8, world, [5], REWARDS, 4, NoveltyLedger())

        def update_from(episodes):
            rewards = []
            ledger = NoveltyLedger()
            for ep in episodes:
                vec = episode_reward(ep.trajectory, ep.outcome, task, 4, ledger)
                rewards.append(scalarize(vec, REWARDS))
            advantages = group_advantage(rewards)
            cfg = ExplorationConfig.defaults(spec.num_actions)
            updates = []
            for ep, adv in zip(episodes, advantages):
                _, corrected = entropy_control(ep.steps, float(adv), cfg)
                updates.append((ep.steps, corrected))
            return masked_policy_update(theta, spec, updates, 0.05)

        baseline = update_from(group.episodes)

        # mutate every agent-segment token (success flags untouched)
        for ep in group.episodes:
            for i, seg in enumerate(ep.trajectory.segments):
                if seg.source == "agent":
                    scrambled = tuple("scrambled" for _ in seg.tokens)
                    ep.trajectory.segments[i] = agent_segment(seg.card_id, scrambled)

        assert np.array_equal(baseline, update_from(group.episodes))


class TestTrain:
    def test_zero_iterations_rejected(self):
        with pytest.raises(BadConfig):
            TrainerConfig(iterations=0)

    def test_group_size_one_rejected(self):
        with pytest.raises(BadConfig):
            TrainerConfig(group_size=1)

    def test_sizes_and_iterations_above_their_bounds_rejected(self):
        TrainerConfig(group_size=MAX_GROUP_SIZE, iterations=MAX_ITERATIONS)
        ExplorationConfig(1.0, 0.0, branch_factor=MAX_GROUP_SIZE)
        with pytest.raises(BadConfig, match=f"group_size must be <= {MAX_GROUP_SIZE}$"):
            TrainerConfig(group_size=MAX_GROUP_SIZE + 1)
        with pytest.raises(BadConfig, match=f"branch_factor must be <= {MAX_GROUP_SIZE}$"):
            ExplorationConfig(1.0, 0.0, branch_factor=MAX_GROUP_SIZE + 1)
        with pytest.raises(BadConfig, match=r"iterations must be in \[1, 4294967294\]$"):
            TrainerConfig(iterations=MAX_ITERATIONS + 1)

    def test_zero_learning_rate_keeps_params(self, world, spec):
        theta0 = np.random.default_rng(3).normal(size=(spec.num_actions, spec.encoded_dim))
        cfg = TrainerConfig(iterations=5, learning_rate=0.0)
        theta, report = train(world, spec, cfg, REWARDS, WEIGHTS, seed=1,
                              initial_theta=theta0)
        assert np.array_equal(theta, theta0)
        assert len(report.rows) == 5

    def test_report_row_per_iteration(self, world, spec):
        cfg = TrainerConfig(iterations=7)
        _, report = train(world, spec, cfg, REWARDS, WEIGHTS, seed=2)
        assert [r.iteration for r in report.rows] == list(range(7))
        for r in report.rows:
            assert 0.0 <= r.success_rate <= 1.0
            assert r.mean_entropy >= 0.0

    def test_collapse_detector_fires_for_near_deterministic_policy(self, world, spec):
        theta = spec.zero_params()
        theta[0, :] = 60.0
        cfg = TrainerConfig(iterations=3, learning_rate=0.0)
        _, report = train(world, spec, cfg, REWARDS, WEIGHTS, seed=3,
                          initial_theta=theta)
        assert report.collapse_warnings == 3

    def test_collapse_detector_silent_for_uniform_policy(self, world, spec):
        cfg = TrainerConfig(iterations=3, learning_rate=0.0)
        _, report = train(world, spec, cfg, REWARDS, WEIGHTS, seed=3)
        assert report.collapse_warnings == 0

    def test_exploration_triggers_reported_for_uniform_policy(self, world, spec):
        # uniform entropy ln(4) exceeds the default high threshold 0.8*ln(4)
        cfg = TrainerConfig(iterations=2, learning_rate=0.0)
        _, report = train(world, spec, cfg, REWARDS, WEIGHTS, seed=4)
        assert report.rows[0].triggers == cfg.group_size
        # the triggered task schedules an extra branch group next iteration
        assert report.rows[1].triggers == cfg.group_size + 2

    def test_an_iteration_computes_each_observation_once(self, world, spec, monkeypatch):
        # from zero every rollout triggers, so later iterations add branch groups
        # of tasks already rolled: their observations repeat across groups
        calls, groups, per_iteration = [0], [], []

        def counting(*args):
            calls[0] += 1
            return action_distribution(*args)

        def recording(*args, **kwargs):
            groups.append(rollout_group(*args, **kwargs))
            return groups[-1]

        def end_of_iteration(iteration, theta):
            visited = {s.obs for g in groups for ep in g.episodes for s in ep.steps}
            per_iteration.append((len(groups), calls[0], len(visited)))
            groups.clear()
            calls[0] = 0

        monkeypatch.setattr(orchestrator, "action_distribution", counting)
        monkeypatch.setattr(trainer, "rollout_group", recording)
        train(world, spec, TrainerConfig(iterations=3, checkpoint_every=1), REWARDS, WEIGHTS,
              seed=4, checkpoint_callback=end_of_iteration)
        assert [n_groups for n_groups, _, _ in per_iteration] == [1, 2, 3]
        assert [n_calls for _, n_calls, _ in per_iteration] == [n for _, _, n in per_iteration]

    def test_csv_shape(self, world, spec):
        cfg = TrainerConfig(iterations=3)
        _, report = train(world, spec, cfg, REWARDS, WEIGHTS, seed=5)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "iteration,mean_reward,success_rate,mean_entropy,triggers"
        assert len(lines) == 4


def warm_start(world, spec, seed=42, n=200, steps=500, lr=0.1):
    from agentmesh.orchestrator import make_warmup_dataset
    from agentmesh.policy import sft_update

    samples = make_warmup_dataset(world.generator, spec, n,
                                  np.random.default_rng([seed, 4]))
    theta = spec.zero_params()
    for _ in range(steps):
        theta = sft_update(theta, spec, samples, lr)
    return theta


class TestOracleOptimalityGap:
    def test_trained_decisions_match_enumerated_optimum(self):
        # frozen tiny configuration: 3 task classes, 2 agents, max_steps 2
        world = preset_case_study()
        spec = default_policy_spec(world, max_steps=2)
        theta = warm_start(world, spec)
        cfg = TrainerConfig(iterations=500)
        theta, _ = train(world, spec, cfg, REWARDS, WEIGHTS, seed=42,
                         initial_theta=theta)

        total, matched = 0, 0
        for ci, cls in enumerate(world.generator.classes):
            sets = optimal_action_sets(world, cls, spec, REWARDS, 2)
            greedy = greedy_policy(theta, spec, ci)
            for obs, accepted in sets.items():
                total += 1
                if greedy[obs] in accepted:
                    matched += 1
        assert matched / total >= 0.95


def relay_theta(world, spec):
    """Greedy decisions that answer a direct task, delegate a task to its
    required action until a call succeeds, then relay the answer."""
    theta = spec.zero_params()
    for ci, cls in enumerate(world.generator.classes):
        if cls.required_action is None:
            decision = Decision.answer(cls.answer_pool[0])
        else:
            decision = Decision.delegate(cls.required_action)
        theta[spec.actions.index_of(decision), ci] = 1.0
    success = spec.feature_dim + spec.max_steps + OUTCOMES.index("agent_success")
    theta[spec.actions.index_of(Decision.answer("relay_answer")), success] = 2.0
    return theta


class TestGreedyScores:
    def test_exact_greedy_accuracy_is_the_sampled_greedy_success_rate(self, world, spec):
        n = 2000
        thetas = [spec.zero_params(), relay_theta(world, spec),
                  np.random.default_rng(10).normal(size=(spec.num_actions, spec.encoded_dim))]
        optimal = optimal_expected_reward(world, spec, REWARDS, spec.max_steps)  # once per world
        for theta in thetas:
            scores = greedy_scores(world, spec, REWARDS, theta, optimal=optimal)
            assert 0 < scores.accuracy < 1
            assert scores.regret >= 0
            sampled = evaluate_policy(world, spec, theta, WEIGHTS, n_episodes=n, seed=11)
            standard_error = math.sqrt(scores.accuracy * (1 - scores.accuracy) / n)
            assert abs(sampled.success_rate - scores.accuracy) <= 4 * standard_error
