import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agentmesh import policy
from agentmesh.errors import BadConfig, BadDataset
from agentmesh.policy import (
    ActionSpace,
    Decision,
    Observation,
    PolicySpec,
    SftSample,
    action_distribution,
    distinct,
    diverged,
    entropy,
    load_checkpoint,
    load_sft_dataset,
    log_prob_and_grad,
    save_checkpoint,
    sft_loss,
    sft_update,
)
from agentmesh.orchestrator import DecisionRow, DecisionTable
from oracles import (
    exact_entropy,
    finite_difference_log_prob_grad,
    reference_action_distribution,
    reference_log_prob_and_grad,
)
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


def test_an_observation_hashes_and_compares_as_a_tuple():
    # rows and gradients are keyed by value; hashing in C is why no table interns them
    assert Observation.__hash__ is tuple.__hash__ and Observation.__eq__ is tuple.__eq__


# what each check of ``encode`` says of an observation outside the encoding
OUT_OF_ENCODING = [
    (Observation((1.0, 0, 0), -1), "step_index must be nonnegative"),
    (Observation((1.0, 0, 0), SPEC.max_steps), "step_index must be < max_steps"),
    (Observation((1.0, 0, 0), 0, "maybe"), "unknown outcome flag 'maybe'"),
    (Observation((1.0, 0), 0), "observation feature dimension mismatch"),
]


@pytest.mark.parametrize("obs, message", OUT_OF_ENCODING)
@pytest.mark.parametrize("call", [
    lambda obs: action_distribution(SPEC.zero_params(), SPEC, obs),
    lambda obs: log_prob_and_grad(SPEC.zero_params(), SPEC, obs, 0),
], ids=["action_distribution", "log_prob_and_grad"])
def test_the_encoding_rejects_an_observation_it_cannot_hold(call, obs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(obs)


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 30.0, 1000.0]),
           st.integers(0, SPEC.num_actions - 1))
    def test_equals_the_two_encode_formula_bit_for_bit(self, seed, scale, action):
        # at scale 1000 most probabilities underflow to 0
        theta, obs = random_instance(np.random.default_rng(seed), scale=scale)
        lp, grad = log_prob_and_grad(theta, SPEC, obs, action)
        ref_lp, ref_grad = two_encode_log_prob_and_grad(theta, SPEC, obs, action)
        assert np.float64(lp).tobytes() == np.float64(ref_lp).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()


def two_encode_log_prob_and_grad(theta, spec, obs, action_index):
    """``log_prob_and_grad`` as it was: the distribution encodes ``obs`` a
    second time, and ``np.outer`` forms the gradient."""
    x = spec.encode(obs)
    probs = action_distribution(theta, spec, obs)
    indicator = np.zeros(spec.num_actions)
    indicator[action_index] = 1.0
    grad = np.outer(indicator - probs, x)
    if probs[action_index] == 0:
        logits = theta @ x
        logits -= logits.max()
        return float(logits[action_index] - np.log(np.exp(logits).sum())), grad
    return float(np.log(probs[action_index])), grad


def kernel_instance(rng, scale):
    """Rounded parameters, so entries tie, with actions 0 and 1 tied on every
    observation; features of 0.0, -0.0 and +-1."""
    theta = np.round(rng.normal(scale=scale, size=(SPEC.num_actions, SPEC.encoded_dim)))
    theta[1] = theta[0]
    features = tuple(rng.choice([-0.0, 0.0, 0.5, -1.0, 1.0], size=SPEC.feature_dim).tolist())
    obs = Observation(features, int(rng.integers(SPEC.max_steps)),
                      policy.OUTCOMES[int(rng.integers(len(policy.OUTCOMES)))])
    return theta, obs


def float_bytes(value: float) -> bytes:
    return np.float64(value).tobytes()


def test_the_kernels_are_the_reference_formulas_byte_for_byte():
    # at scale 1000 most probabilities underflow to 0, taking the log-softmax branch
    underflowed = tied = 0
    for scale in (0.1, 1.0, 30.0, 1000.0):
        rng = np.random.default_rng([30, int(scale * 10)])
        for _ in range(300):
            theta, obs = kernel_instance(rng, scale)
            ref = reference_action_distribution(theta, SPEC, obs)
            assert action_distribution(theta, SPEC, obs).tobytes() == ref.tobytes()
            row, ref_row = DecisionTable(theta, SPEC).row(obs), DecisionRow.of(ref)
            assert row.probs.tobytes() == ref.tobytes()
            assert float_bytes(row.entropy) == float_bytes(ref_row.entropy)
            assert row.cdf == ref_row.cdf and row.greedy == ref_row.greedy
            tied += ref[0] == ref[1] == ref.max()
            for action in range(SPEC.num_actions):
                lp, grad = log_prob_and_grad(theta, SPEC, obs, action)
                ref_lp, ref_grad = reference_log_prob_and_grad(theta, SPEC, obs, action)
                assert float_bytes(lp) == float_bytes(ref_lp)
                assert grad.tobytes() == ref_grad.tobytes()
                underflowed += ref[action] == 0
    assert underflowed and tied


def test_the_indicators_are_a_read_only_identity():
    assert SPEC.indicators is SPEC.indicators
    assert SPEC.indicators.tobytes() == np.eye(SPEC.num_actions).tobytes()
    with pytest.raises(ValueError):
        SPEC.indicators[0, 0] = 2.0


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

    def test_an_infinite_probability_gives_minus_infinity(self):
        assert entropy(np.array([math.inf, 0.5, 0.0])) == -math.inf

    def test_nan_probabilities_add_nothing(self):
        assert entropy(np.array([0.5, math.nan, 0.5])) == entropy(np.array([0.5, 0.5]))

    @settings(max_examples=100, deadline=None)
    @given(weights=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e6), min_size=1,
                            max_size=300).filter(lambda w: sum(w) > 0),
           data=st.data())
    def test_entropy_does_not_depend_on_order(self, weights, data):
        probs = np.array(weights) / sum(weights)
        order = data.draw(st.permutations(range(len(weights))))
        assert entropy(probs[order]).hex() == entropy(probs).hex()

    def test_positive_probabilities_sum_exactly(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            theta, obs = random_instance(rng, scale=3.0)
            probs = action_distribution(theta, SPEC, obs)
            assert entropy(probs) == exact_entropy(probs)  # positive: equal floats, equal bits


def repeated_demos(rng, n=60):
    """Demos over a few distinct (observation, action) pairs, in random order."""
    pool = []
    for _ in range(5):
        _, obs = random_instance(rng)
        pool.append(SftSample(obs, int(rng.integers(SPEC.num_actions))))
    return [pool[int(i)] for i in rng.integers(len(pool), size=n)]


class TestDistinct:
    @given(st.lists(st.integers(0, 6) | st.text(max_size=2)))
    def test_the_index_rebuilds_the_keys_from_the_first_seen_ones(self, keys):
        unique, index = distinct(keys)
        assert [unique[i] for i in index] == keys
        assert unique == [key for i, key in enumerate(keys) if key not in keys[:i]]

    def test_equal_keys_are_one_key(self):
        a, b = Observation((1.0, 0, 0)), Observation((1.0, 0, 0))
        unique, index = distinct([(a, 0), (b, 0), (b, 1)])
        assert unique == [(a, 0), (b, 1)] and unique[0][0] is a
        assert index == [0, 0, 1]

    def test_a_demo_is_its_own_key(self):
        a, b = Observation((1.0, 0, 0)), Observation((1.0, 0, 0))
        pairs = [(a, 0), (b, 0), (b, 1), (a, 2), (b, 1)]
        batch = [SftSample(obs, action) for obs, action in pairs]
        unique, index = distinct(batch)
        assert index == distinct(pairs)[1] == [0, 0, 1, 2, 1]
        assert list(map(id, unique)) == [id(batch[0]), id(batch[2]), id(batch[3])]


# (observation, action) keys that repeat, once through an equal but distinct
# Observation: the first-seen ones are (B, 2), (A, 0) and (A, 1)
A, A_COPY, B = Observation((1.0, 0, 0)), Observation((1.0, 0, 0)), Observation((0, 1.0, 0), 1)
KEYS = [(B, 2), (A, 0), (B, 2), (A_COPY, 0), (A, 1), (B, 2)]


@pytest.mark.parametrize("call", [
    lambda theta, batch: sft_update(theta, SPEC, batch, 0.1),
    lambda theta, batch: sft_loss(theta, SPEC, batch),
], ids=["sft_update", "sft_loss"])
def test_one_gradient_per_distinct_demo_in_first_seen_order(call, gradient_calls):
    calls = gradient_calls(policy)
    call(np.random.default_rng(3).normal(size=(SPEC.num_actions, SPEC.encoded_dim)),
         [SftSample(obs, action) for obs, action in KEYS])
    assert calls == [(B, 2), (A, 0), (A, 1)]
    assert calls[1][0] is A


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 8, 128, 129, 300]) | st.integers(1, 300),
           st.floats(0.01, 1.0))
    def test_stacked_sum_has_the_bits_of_the_per_sample_sum(self, seed, n, learning_rate):
        # an action never demonstrated has gradient -0.0 wherever the encoding
        # is 0 (an unused step or outcome), which must not reach a -0.0 of theta
        rng = np.random.default_rng(seed)
        theta, _ = random_instance(rng)
        theta[rng.random(theta.shape) < 0.5] = -0.0
        batch = repeated_demos(rng, n)
        grad = np.zeros_like(theta)
        for sample in batch:
            grad += log_prob_and_grad(theta, SPEC, sample.obs, sample.demo_action_index)[1]
        expected = theta + learning_rate * grad / len(batch)
        assert sft_update(theta, SPEC, batch, learning_rate).tobytes() == expected.tobytes()

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

    def test_the_loss_of_an_empty_batch_is_an_error(self):
        with pytest.raises(ValueError, match="^sft_loss of an empty batch$"):
            sft_loss(SPEC.zero_params(), SPEC, [])

    def test_learning_rate_must_be_positive(self):
        sample = SftSample(Observation((1.0, 0, 0)), 0)
        with pytest.raises(ValueError, match="^learning_rate must be positive$"):
            sft_update(SPEC.zero_params(), SPEC, [sample], 0)

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
        with pytest.raises(BadConfig):
            load_checkpoint(path, SPEC)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("not json")
        with pytest.raises(BadConfig):
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

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "demos.jsonl"
        good = json.dumps({"features": [1, 0, 0], "step": 0,
                           "last_outcome": "none", "demo_action": 0})
        path.write_text(good + "\n\n")
        assert len(load_sft_dataset(path, SPEC)) == 1
        path.write_text(good + "\n\n{broken\n")
        with pytest.raises(BadDataset, match="^bad dataset line 3: "):
            load_sft_dataset(path, SPEC)

    def test_out_of_range_action_rejected(self, tmp_path):
        path = tmp_path / "demos.jsonl"
        path.write_text(json.dumps({"features": [1, 0, 0], "step": 0,
                                    "last_outcome": "none", "demo_action": 99}) + "\n")
        with pytest.raises(BadDataset) as exc:
            load_sft_dataset(path, SPEC)
        assert exc.value.line_no == 1


NAMES = ("ack", "nack", "slicing", "network_analysis", "protocol_query")
NAME_LISTS = st.lists(st.sampled_from(NAMES), max_size=4, unique=True)


@settings(max_examples=200, deadline=None)
@given(NAME_LISTS, NAME_LISTS)
def test_action_space_index_round_trip(answer_tokens, action_types):
    # one alphabet for both, so a name can be an answer token and an action type
    assume(len(answer_tokens) + len(action_types) >= 2)
    actions = ActionSpace(tuple(answer_tokens), tuple(action_types))
    decisions = actions.decisions
    assert actions.num_actions == len(decisions)
    for i in range(actions.num_actions):
        assert actions.decision_of(i) is decisions[i]
        assert actions.index_of(decisions[i]) == i
        assert (decisions[i].token is not None) == (i < len(answer_tokens))
    for name in set(answer_tokens) & set(action_types):
        assert actions.index_of(Decision.answer(name)) != actions.index_of(Decision.delegate(name))
    outside = next(name for name in NAMES if name not in answer_tokens)
    with pytest.raises(ValueError):
        actions.index_of(Decision.answer(outside))
    assert SPEC.actions.decision_of(0) == Decision.answer("ack")
    assert SPEC.actions.decision_of(2) == Decision.delegate("network_analysis")


def test_action_space_keeps_one_decision_per_index():
    actions = SPEC.actions
    assert actions.decisions == tuple(actions.decision_of(i) for i in range(SPEC.num_actions))
    assert actions.decision_of(1) is actions.decision_of(1)


@pytest.mark.parametrize("index", [-1, -2, SPEC.num_actions, SPEC.num_actions + 1])
def test_action_space_rejects_an_index_out_of_range(index):
    # a negative index must not count from the end of the cached decisions
    with pytest.raises(IndexError, match="out of range"):
        SPEC.actions.decision_of(index)
