"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: gradients come from
central finite differences, and expected episode rewards come from exhaustive
enumeration of deterministic tabular policies with closed-form branching over
agent success probabilities, a parameter matrix's greedy policy is scored
exactly as such a tabular policy, and float sums are checked against exact
rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from agentmesh.errors import MalformedAgentResponse
from agentmesh.policy import (
    OUTCOME_AGENT_FAILURE,
    OUTCOME_AGENT_SUCCESS,
    OUTCOME_NONE,
    Observation,
    PolicySpec,
    action_distribution,
)
from agentmesh.rewards import RewardWeights
from agentmesh.simenv import TaskClass, WorldConfig
from agentmesh.vocab import ANS_CLOSE, ANS_OPEN, CONTROL_TAGS, RELAY_ANSWER


def exact_sum(values) -> float:
    """The sum of finite floats ``values`` in exact rational arithmetic,
    rounded once to the nearest float; a sum of zeros is +0.0."""
    return float(sum(map(Fraction, values)))


def exact_entropy(probs: np.ndarray) -> float:
    """Shannon entropy (nats) with 0 log 0 = 0 and the terms p log p added
    exactly: -inf when a probability is infinite, and NaN entries skipped."""
    terms = [p * math.log(p) for p in probs.tolist() if p > 0]
    return -math.inf if math.inf in terms else -exact_sum(terms)


def listed_answer_span(raw_tokens) -> tuple[str, ...]:
    """``trajectory.extract_answer_span`` as it was written first: the
    delimiters' positions listed by comprehensions over a list copy."""
    raw = list(raw_tokens)
    opens = [i for i, t in enumerate(raw) if t == ANS_OPEN]
    closes = [i for i, t in enumerate(raw) if t == ANS_CLOSE]
    if len(opens) != 1 or len(closes) != 1:
        raise MalformedAgentResponse(
            f"expected exactly one answer span, got {len(opens)} opens / {len(closes)} closes"
        )
    if closes[0] < opens[0]:
        raise MalformedAgentResponse("answer delimiters out of order")
    span = tuple(raw[opens[0] + 1:closes[0]])
    if not span:
        raise MalformedAgentResponse("empty answer span")
    if any(t in CONTROL_TAGS for t in span):
        raise MalformedAgentResponse("control tag inside answer span")
    return span


def finite_difference_log_prob_grad(theta: np.ndarray, spec: PolicySpec,
                                    obs: Observation, action_index: int,
                                    h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of log pi(a|o) w.r.t. every entry of theta."""
    grad = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        for j in range(theta.shape[1]):
            plus = theta.copy()
            plus[i, j] += h
            minus = theta.copy()
            minus[i, j] -= h
            lp_plus = np.log(action_distribution(plus, spec, obs)[action_index])
            lp_minus = np.log(action_distribution(minus, spec, obs)[action_index])
            grad[i, j] = (lp_plus - lp_minus) / (2 * h)
    return grad


# --- the policy kernels as they were first written -------------------------


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    """``policy._softmax`` as it was: the maximum and the sum through
    ``ndarray.max()`` and ``ndarray.sum()``, on a copy of ``logits``."""
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def reference_action_distribution(theta: np.ndarray, spec: PolicySpec,
                                  obs: Observation) -> np.ndarray:
    return reference_softmax(theta @ spec.encode(obs))


def reference_log_prob_and_grad(theta: np.ndarray, spec: PolicySpec, obs: Observation,
                                action_index: int) -> tuple[float, np.ndarray]:
    """``policy.log_prob_and_grad`` as it was: the indicator is written into
    ``np.zeros`` on each call, and the log-softmax of an underflowed
    probability sums with ``ndarray.sum()``."""
    x = spec.encode(obs)
    logits = theta @ x
    logits = logits - logits.max()
    probs = reference_softmax(logits)
    indicator = np.zeros(spec.num_actions)
    indicator[action_index] = 1.0
    grad = (indicator - probs)[:, None] * x
    if probs[action_index] == 0:
        return float(logits[action_index] - np.log(np.exp(logits).sum())), grad
    return float(np.log(probs[action_index])), grad


# --- exhaustive policy enumeration -----------------------------------------
#
# Observations within one task class are (step, outcome_flag) pairs; a
# deterministic tabular policy assigns one action index to each. Expected
# scalar reward is computed exactly by branching on each delegation's success
# probability. Latency is assumed to stay within every class's SLA deadline
# (checked via a worst-case bound), so the qos component is exactly 1, and the
# exploration component is taken at its steady-state value of 0.


def class_observations(max_steps: int) -> list[tuple[int, str]]:
    obs = [(0, OUTCOME_NONE)]
    for step in range(1, max_steps):
        obs.append((step, OUTCOME_AGENT_SUCCESS))
        obs.append((step, OUTCOME_AGENT_FAILURE))
    return obs


def _check_latency_bound(world: WorldConfig, cls: TaskClass, max_steps: int) -> None:
    if cls.required_action is None:
        # Direct classes answer without delegating under any optimal policy,
        # so zero latency accrues. Treating qos as 1 can only overestimate the
        # strictly dominated delegating policies, which keeps the enumerated
        # optimum and its accepted action sets unchanged.
        return
    worst_call = max(
        a.latency_base_ms * 2.0 + a.latency_jitter_ms for a in world.agents
    )
    assert max_steps * worst_call <= cls.sla_deadline_ms, (
        "oracle assumes latency never exceeds the SLA deadline; "
        "tighten the preset or extend the oracle"
    )


@dataclass(frozen=True)
class ClassOracle:
    """Expected-reward evaluator for one task class."""

    world: WorldConfig
    cls: TaskClass
    spec: PolicySpec
    weights: RewardWeights
    max_steps: int

    def success_prob_of_action(self, action_type: str) -> float:
        # mirrors single-candidate routing: exactly one agent per action type
        agents = [a for a in self.world.agents if action_type in a.success_prob]
        assert len(agents) == 1, "oracle expects one agent per action type"
        return agents[0].success_prob[action_type]

    def _terminal(self, accuracy: float, invocations: int) -> float:
        efficiency = max(0.0, 1.0 - invocations / self.max_steps)
        return (
            self.weights.lambda_acc * accuracy
            + self.weights.lambda_fmt * 1.0
            + self.weights.lambda_eff * efficiency
            + self.weights.lambda_qos * 1.0
        )

    def expected_reward(self, policy: dict[tuple[int, str], int]) -> float:
        actions = self.spec.actions

        def recurse(step, flag, relay_correct, invocations):
            if step >= self.max_steps:
                return self._terminal(0.0, invocations)  # truncated
            decision = actions.decision_of(policy[(step, flag)])
            if decision.kind == "answer":
                if decision.token == RELAY_ANSWER:
                    acc = 1.0 if relay_correct is True else 0.0
                else:
                    direct = self.cls.required_action is None
                    acc = 1.0 if direct and decision.token == direct_answer_token(self.cls) else 0.0
                return self._terminal(acc, invocations)
            p = self.success_prob_of_action(decision.action_type)
            on_target = decision.action_type == self.cls.required_action
            val = 0.0
            if p > 0:
                val += p * recurse(step + 1, OUTCOME_AGENT_SUCCESS,
                                   True if on_target else False, invocations + 1)
            if p < 1:
                val += (1 - p) * recurse(step + 1, OUTCOME_AGENT_FAILURE,
                                         relay_correct, invocations + 1)
            return val

        return recurse(0, OUTCOME_NONE, None, 0)


def direct_answer_token(cls: TaskClass) -> str:
    assert len(cls.answer_pool) == 1, "direct classes must have a single answer"
    return cls.answer_pool[0]


def best_class_policy(world: WorldConfig, cls: TaskClass, spec: PolicySpec,
                      weights: RewardWeights, max_steps: int):
    """Enumerate every deterministic tabular policy for one class.

    Returns (best expected reward, best policy dict, per-policy table).
    """
    _check_latency_bound(world, cls, max_steps)
    oracle = ClassOracle(world, cls, spec, weights, max_steps)
    obs = class_observations(max_steps)
    best_val, best_pol = -np.inf, None
    for assignment in itertools.product(range(spec.num_actions), repeat=len(obs)):
        policy = dict(zip(obs, assignment))
        val = oracle.expected_reward(policy)
        if val > best_val:
            best_val, best_pol = val, policy
    return best_val, best_pol, oracle


def optimal_expected_reward(world: WorldConfig, spec: PolicySpec,
                            weights: RewardWeights, max_steps: int) -> float:
    """Class-probability-weighted expected reward of the best deterministic
    policy (exploration at steady state, qos within deadline)."""
    total = 0.0
    for cls in world.generator.classes:
        best_val, _, _ = best_class_policy(world, cls, spec, weights, max_steps)
        total += cls.probability * best_val
    return total


def optimal_action_sets(world: WorldConfig, cls: TaskClass, spec: PolicySpec,
                        weights: RewardWeights, max_steps: int):
    """For each observation, the set of actions that keep the best policy's
    expected reward unchanged (within 1e-9) when substituted at that
    observation. Unreachable observations accept every action."""
    best_val, best_pol, oracle = best_class_policy(world, cls, spec, weights, max_steps)
    sets = {}
    for obs in class_observations(max_steps):
        ok = set()
        for a in range(spec.num_actions):
            variant = dict(best_pol)
            variant[obs] = a
            if oracle.expected_reward(variant) >= best_val - 1e-9:
                ok.add(a)
        sets[obs] = ok
    return sets


# --- exact greedy scores ----------------------------------------------------


def greedy_policy(theta: np.ndarray, spec: PolicySpec, cls: int) -> dict[tuple[int, str], int]:
    """The deterministic tabular policy that greedy decisions under ``theta``
    follow for the task class of index ``cls``, whose features are its
    one-hot: at each (step, outcome flag), the argmax of the action
    distribution, with the first index on ties."""
    features = tuple(float(i == cls) for i in range(spec.feature_dim))
    return {(step, flag): int(np.argmax(action_distribution(theta, spec,
                                                           Observation(features, step, flag))))
            for step, flag in class_observations(spec.max_steps)}


@dataclass(frozen=True)
class GreedyScores:
    """Exact class-weighted scores of ``theta``'s greedy policy over the
    spec's step budget (exploration at steady state, qos within deadline)."""

    reward: float    # J: expected scalar reward under the given weights
    accuracy: float  # J_acc: expected accuracy, the greedy success rate
    regret: float    # the optimal expected reward minus J


def greedy_scores(world: WorldConfig, spec: PolicySpec, weights: RewardWeights,
                  theta: np.ndarray) -> GreedyScores:
    """Score ``theta``'s greedy policy exactly, with no sampling: each
    class's ``greedy_policy`` through ``ClassOracle.expected_reward``."""
    max_steps = spec.max_steps
    accuracy_only = RewardWeights(1.0, 0.0, 0.0, 0.0, 0.0)
    reward = accuracy = 0.0
    for index, cls in enumerate(world.generator.classes):
        _check_latency_bound(world, cls, max_steps)
        policy = greedy_policy(theta, spec, index)
        reward += cls.probability * ClassOracle(
            world, cls, spec, weights, max_steps).expected_reward(policy)
        accuracy += cls.probability * ClassOracle(
            world, cls, spec, accuracy_only, max_steps).expected_reward(policy)
    optimal = optimal_expected_reward(world, spec, weights, max_steps)
    return GreedyScores(reward, accuracy, optimal - reward)
