import json
import math

import numpy as np
import pytest

from agentmesh.errors import BadCheckpoint, BadDataset
from agentmesh.policy import (
    ActionSpace,
    Decision,
    Observation,
    PolicySpec,
    SftSample,
    action_distribution,
    diverged,
    entropy,
    load_checkpoint,
    load_sft_dataset,
    log_prob_and_grad,
    save_checkpoint,
    sft_loss,
    sft_update,
)
from oracles import finite_difference_log_prob_grad
from sft_files import save_sft_dataset

SPEC = PolicySpec(
    feature_dim=3,
    max_steps=4,
    actions=ActionSpace(answer_tokens=("ack", "relay_answer"),
                        action_types=("network_analysis", "protocol_query")),
)


def random_instance(rng, scale=1.0):
    theta = rng.normal(scale=scale, size=(SPEC.num_actions, SPEC.encoded_dim))
    features = tuple(rng.uniform(0, 1, size=3))
    obs = Observation(features, int(rng.integers(0, 4)),
                      ["none", "agent_success", "agent_failure"][int(rng.integers(3))])
    return theta, obs


class TestActionDistribution:
    def test_zero_params_uniform(self):
        probs = action_distribution(SPEC.zero_params(), SPEC, Observation((0, 0, 1.0)))
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_row_shift_increases_probability(self):
        rng = np.random.default_rng(0)
        theta, obs = random_instance(rng)
        before = action_distribution(theta, SPEC, obs)[2]
        theta[2, :] += 1.0
        after = action_distribution(theta, SPEC, obs)[2]
        assert after > before

    def test_normalized_for_random_params(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            theta, obs = random_instance(rng, scale=5.0)
            probs = action_distribution(theta, SPEC, obs)
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs > 0)


class TestLogProbAndGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta, obs = random_instance(rng)
            a = int(rng.integers(SPEC.num_actions))
            _, analytic = log_prob_and_grad(theta, SPEC, obs, a)
            numeric = finite_difference_log_prob_grad(theta, SPEC, obs, a)
            assert np.max(np.abs(analytic - numeric)) <= 1e-6

    def test_near_deterministic_gradient_vanishes(self):
        theta = SPEC.zero_params()
        theta[0, :] = 40.0  # prob of action 0 -> 1
        obs = Observation((1.0, 0, 0))
        probs = action_distribution(theta, SPEC, obs)
        assert probs[0] >= 1 - 1e-8
        _, grad = log_prob_and_grad(theta, SPEC, obs, 0)
        assert np.linalg.norm(grad) <= 1e-6

    def test_non_sampled_rows_formula(self):
        rng = np.random.default_rng(3)
        theta, obs = random_instance(rng)
        probs = action_distribution(theta, SPEC, obs)
        x = SPEC.encode(obs)
        _, grad = log_prob_and_grad(theta, SPEC, obs, 1)
        for a in (0, 2, 3):
            assert np.allclose(grad[a], -probs[a] * x)

    def test_log_prob_matches_distribution_entry(self):
        rng = np.random.default_rng(4)
        theta, obs = random_instance(rng)
        probs = action_distribution(theta, SPEC, obs)
        lp, _ = log_prob_and_grad(theta, SPEC, obs, 2)
        assert lp == float(np.log(probs[2]))

    def test_underflowed_probability_gives_the_log_softmax(self):
        theta = SPEC.zero_params()
        theta[0, 0] = 800.0  # exp(-800) underflows, so pi(a|o) = 0 for a != 0
        obs = Observation((1.0, 0, 0))
        assert action_distribution(theta, SPEC, obs)[1] == 0.0
        assert log_prob_and_grad(theta, SPEC, obs, 1)[0] == -800.0


class TestEntropy:
    def test_uniform_is_log_k(self):
        h = entropy(action_distribution(SPEC.zero_params(), SPEC, Observation((0, 1.0, 0))))
        assert abs(h - math.log(SPEC.num_actions)) <= 1e-12

    def test_near_deterministic_is_tiny(self):
        theta = SPEC.zero_params()
        theta[1, :] = 50.0
        assert entropy(action_distribution(theta, SPEC, Observation((1.0, 0, 0)))) <= 1e-6

    def test_bounded_by_log_k(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            theta, obs = random_instance(rng, scale=3.0)
            h = entropy(action_distribution(theta, SPEC, obs))
            assert 0.0 <= h <= math.log(SPEC.num_actions) + 1e-12


    def test_zero_probabilities_add_nothing(self):
        with np.errstate(all="raise"):
            assert entropy(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0
            assert entropy(np.array([0.5, 0.0, 0.5, 0.0])) == entropy(np.array([0.5, 0.5]))

    def test_positive_probabilities_match_the_plain_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            theta, obs = random_instance(rng, scale=3.0)
            probs = action_distribution(theta, SPEC, obs)
            assert entropy(probs) == float(-np.sum(probs * np.log(probs)))


def repeated_demos(rng, n=60):
    """Demos over a few distinct (observation, action) pairs, in random order."""
    distinct = []
    for _ in range(5):
        _, obs = random_instance(rng)
        distinct.append(SftSample(obs, int(rng.integers(SPEC.num_actions))))
    return [distinct[int(i)] for i in rng.integers(len(distinct), size=n)]


class TestSftUpdate:
    def test_equals_the_per_sample_gradient_sum(self):
        rng = np.random.default_rng(13)
        theta, _ = random_instance(rng)
        batch = repeated_demos(rng)
        grad = np.zeros_like(theta)
        total = 0.0
        for sample in batch:
            lp, g = log_prob_and_grad(theta, SPEC, sample.obs, sample.demo_action_index)
            grad += g
            total += lp
        assert np.array_equal(sft_update(theta, SPEC, batch, 0.3), theta + 0.3 * grad / len(batch))
        assert sft_loss(theta, SPEC, batch) == -total / len(batch)


    def test_demo_probability_strictly_increases(self):
        sample = SftSample(Observation((1.0, 0, 0)), demo_action_index=2)
        theta = SPEC.zero_params()
        prev = action_distribution(theta, SPEC, sample.obs)[2]
        for _ in range(10):
            theta = sft_update(theta, SPEC, [sample], 0.1)
            cur = action_distribution(theta, SPEC, sample.obs)[2]
            assert cur > prev
            prev = cur

    def test_empty_batch_unchanged(self):
        theta = np.ones((SPEC.num_actions, SPEC.encoded_dim))
        assert sft_update(theta, SPEC, [], 0.1) is theta

    def test_loss_decreases_monotonically(self):
        rng = np.random.default_rng(12)
        batch = []
        for _ in range(10):
            _, obs = random_instance(rng)
            batch.append(SftSample(obs, int(rng.integers(SPEC.num_actions))))
        theta = SPEC.zero_params()
        losses = [sft_loss(theta, SPEC, batch)]
        for _ in range(100):
            theta = sft_update(theta, SPEC, batch, 0.1)
            losses.append(sft_loss(theta, SPEC, batch))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_consistent_dataset_reaches_high_confidence(self):
        # one demo action per distinct observation
        demos = [
            (Observation((1.0, 0, 0), 0, "none"), 0),
            (Observation((0, 1.0, 0), 0, "none"), 2),
            (Observation((0, 0, 1.0), 0, "none"), 3),
            (Observation((0, 1.0, 0), 1, "agent_success"), 1),
        ]
        batch = [SftSample(o, a) for o, a in demos]
        theta = SPEC.zero_params()
        for _ in range(500):
            theta = sft_update(theta, SPEC, batch, 0.1)
        probs = [action_distribution(theta, SPEC, o)[a] for o, a in demos]
        assert np.mean(probs) >= 0.9


def test_diverged_flags_parameters_whose_logits_can_overflow():
    theta = SPEC.zero_params()
    assert not diverged(theta)
    theta[0, 0] = 1e308
    assert not diverged(theta)
    theta[1, 0] = 1e308  # the magnitudes sum past the largest float
    assert diverged(theta)
    for bad in (np.inf, -np.inf, np.nan):
        theta = SPEC.zero_params()
        theta[2, 3] = bad
        assert diverged(theta)


class TestCheckpointIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        theta = rng.normal(size=(SPEC.num_actions, SPEC.encoded_dim))
        path = tmp_path / "ckpt.json"
        save_checkpoint(theta, path)
        assert np.array_equal(load_checkpoint(path, SPEC), theta)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(np.zeros((2, 3)), path)
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path, SPEC)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("not json")
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path, SPEC)


class TestSftDatasetIO:
    def test_round_trip(self, tmp_path):
        samples = [
            SftSample(Observation((1.0, 0, 0), 0, "none"), 0),
            SftSample(Observation((0, 1.0, 0), 2, "agent_failure"), 3),
        ]
        path = tmp_path / "demos.jsonl"
        save_sft_dataset(samples, path)
        assert load_sft_dataset(path, SPEC) == samples

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "demos.jsonl"
        good = json.dumps({"features": [1, 0, 0], "step": 0,
                           "last_outcome": "none", "demo_action": 0})
        path.write_text(good + "\n" + good + "\n{broken\n")
        with pytest.raises(BadDataset) as exc:
            load_sft_dataset(path, SPEC)
        assert exc.value.line_no == 3

    def test_out_of_range_action_rejected(self, tmp_path):
        path = tmp_path / "demos.jsonl"
        path.write_text(json.dumps({"features": [1, 0, 0], "step": 0,
                                    "last_outcome": "none", "demo_action": 99}) + "\n")
        with pytest.raises(BadDataset) as exc:
            load_sft_dataset(path, SPEC)
        assert exc.value.line_no == 1


def test_action_space_index_round_trip():
    actions = SPEC.actions
    for i in range(SPEC.num_actions):
        assert actions.index_of(actions.decision_of(i)) == i
    assert actions.decision_of(0) == Decision.answer("ack")
    assert actions.decision_of(2) == Decision.delegate("network_analysis")
