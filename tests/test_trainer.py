import numpy as np
import pytest

from agentmesh import trainer
from agentmesh.config import default_policy_spec
from agentmesh.errors import BadConfig
from agentmesh.orchestrator import StepRecord, execute_episode
from agentmesh.policy import Decision, Observation, action_distribution, log_prob_and_grad
from agentmesh.rewards import NoveltyLedger, RewardWeights, episode_reward, scalarize
from agentmesh.router import RoutingWeights
from agentmesh.simenv import preset_case_study, sample_task
from agentmesh.trainer import (
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
from oracles import optimal_action_sets

WEIGHTS = RoutingWeights()
REWARDS = RewardWeights()


class TestGroupAdvantage:
    def test_alternating_rewards(self):
        adv = group_advantage([1.0, 0.0, 1.0, 0.0])
        assert np.allclose(adv, [1, -1, 1, -1], atol=1e-6)

    def test_all_equal_rewards(self):
        assert np.array_equal(group_advantage([0.7] * 5), np.zeros(5))

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

    def test_floor_below_threshold_enforced(self):
        with pytest.raises(BadConfig):
            ExplorationConfig(entropy_high_threshold=0.1, entropy_floor=0.2)


class TestMaskedPolicyUpdate:
    def test_zero_advantages_exact_noop(self, spec):
        theta = np.random.default_rng(0).normal(size=(spec.num_actions, spec.encoded_dim))
        steps = records_with_entropies([0.5, 0.5])
        updated = masked_policy_update(theta, spec, [(steps, np.zeros(2))], 0.1)
        assert updated is theta

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
                                          np.random.default_rng([seed, 1]),
                                          generator=world.generator)
            advantages = np.random.default_rng(seed).normal(size=len(steps))
            advantages[::3] = 0.0
            episodes.append((steps, advantages))
        grad = np.zeros_like(theta)
        for steps, advantages in episodes:
            for step, adv in zip(steps, advantages):
                if adv != 0.0:
                    grad += adv * log_prob_and_grad(theta, spec, step.obs, step.action_index)[1]
        assert np.array_equal(masked_policy_update(theta, spec, episodes, 0.05),
                              theta + 0.05 * grad / len(episodes))


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
    def test_bad_budget_is_rejected_before_the_episode_starts(self, world, max_steps):
        spec = default_policy_spec(world, max_steps=2)
        registry = world.build_registry()
        env = world.build_env(0)
        task = sample_task(world.generator, np.random.default_rng(0))
        with pytest.raises(ValueError, match="max_steps"):
            execute_episode(task, always_delegate(spec), spec, registry, WEIGHTS, env,
                            np.random.default_rng(1), max_steps=max_steps,
                            generator=world.generator)
        assert (env.clock_ms, env.current_task, env.loads) == (0.0, None, {})
        assert all(registry.get(a.card.card_id)[1].sample_count == 0 for a in world.agents)


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
            feats = tuple(1.0 if i == ci else 0.0 for i in range(3))
            for (step, flag), accepted in sets.items():
                probs = action_distribution(theta, spec,
                                            Observation(feats, step, flag))
                total += 1
                if int(np.argmax(probs)) in accepted:
                    matched += 1
        assert matched / total >= 0.95
