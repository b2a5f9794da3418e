"""Softmax-linear decision policy with analytic gradients.

The policy decides at delegation granularity: its action space is the union
of direct-answer tokens and delegation targets. A linear map over the encoded
observation feeds a softmax, which keeps log-prob gradients exact and the
supervised warm-up objective convex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BadCheckpoint, BadDataset
from .vocab import CONTROL_TAGS, RELAY_ANSWER, RESERVED_TOKENS

OUTCOME_NONE = "none"
OUTCOME_AGENT_SUCCESS = "agent_success"
OUTCOME_AGENT_FAILURE = "agent_failure"
OUTCOMES = (OUTCOME_NONE, OUTCOME_AGENT_SUCCESS, OUTCOME_AGENT_FAILURE)

KIND_ANSWER = "answer"
KIND_DELEGATE = "delegate"


@dataclass(frozen=True)
class Observation:
    features: tuple[float, ...]
    step_index: int = 0
    last_outcome: str = OUTCOME_NONE

    def __post_init__(self):
        if self.step_index < 0:
            raise ValueError("step_index must be nonnegative")
        if self.last_outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome flag {self.last_outcome!r}")


@dataclass(frozen=True)
class Decision:
    kind: str  # KIND_ANSWER or KIND_DELEGATE
    token: str | None = None
    action_type: str | None = None

    @staticmethod
    def answer(token: str) -> "Decision":
        return Decision(KIND_ANSWER, token=token)

    @staticmethod
    def delegate(action_type: str) -> "Decision":
        return Decision(KIND_DELEGATE, action_type=action_type)


@dataclass(frozen=True)
class ActionSpace:
    """Fixed ordering: answer tokens first, then delegation targets."""

    answer_tokens: tuple[str, ...]
    action_types: tuple[str, ...]

    def __post_init__(self):
        if not self.answer_tokens and not self.action_types:
            raise ValueError("the action space needs at least one action")
        answers, actions = set(self.answer_tokens), set(self.action_types)
        if len(answers) < len(self.answer_tokens) or len(actions) < len(self.action_types):
            raise ValueError("answer tokens and action types must not repeat")
        if set(CONTROL_TAGS) & (answers | actions):
            raise ValueError("control tags cannot be actions")
        if set(RESERVED_TOKENS) & (answers - {RELAY_ANSWER} | actions):
            raise ValueError("reserved tokens cannot be actions, except relay_answer as an answer")

    @property
    def num_actions(self) -> int:
        return len(self.answer_tokens) + len(self.action_types)

    def decision_of(self, index: int) -> Decision:
        if index < 0 or index >= self.num_actions:
            raise IndexError(f"action index {index} out of range")
        if index < len(self.answer_tokens):
            return Decision.answer(self.answer_tokens[index])
        return Decision.delegate(self.action_types[index - len(self.answer_tokens)])

    def index_of(self, decision: Decision) -> int:
        if decision.kind == KIND_ANSWER:
            return self.answer_tokens.index(decision.token)
        return len(self.answer_tokens) + self.action_types.index(decision.action_type)


@dataclass(frozen=True)
class PolicySpec:
    """Shapes of the decision problem: observation encoding + action space."""

    feature_dim: int
    max_steps: int
    actions: ActionSpace

    @property
    def encoded_dim(self) -> int:
        # task features + one-hot step index + one-hot outcome flag
        return self.feature_dim + self.max_steps + len(OUTCOMES)

    @property
    def num_actions(self) -> int:
        return self.actions.num_actions

    def encode(self, obs: Observation) -> np.ndarray:
        if len(obs.features) != self.feature_dim:
            raise ValueError("observation feature dimension mismatch")
        if obs.step_index >= self.max_steps:
            raise ValueError("step_index must be < max_steps")
        x = np.zeros(self.encoded_dim)
        x[: self.feature_dim] = obs.features
        x[self.feature_dim + obs.step_index] = 1.0
        x[self.feature_dim + self.max_steps + OUTCOMES.index(obs.last_outcome)] = 1.0
        return x

    def zero_params(self) -> np.ndarray:
        return np.zeros((self.num_actions, self.encoded_dim))


def action_distribution(theta: np.ndarray, spec: PolicySpec, obs: Observation) -> np.ndarray:
    logits = theta @ spec.encode(obs)
    logits -= logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()


def log_prob_and_grad(theta: np.ndarray, spec: PolicySpec, obs: Observation,
                      action_index: int) -> tuple[float, np.ndarray]:
    """log pi(a|o) and its exact gradient (onehot(a) - p) outer encode(o)."""
    x = spec.encode(obs)
    probs = action_distribution(theta, spec, obs)
    indicator = np.zeros(spec.num_actions)
    indicator[action_index] = 1.0
    grad = np.outer(indicator - probs, x)
    return float(np.log(probs[action_index])), grad


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy (nats) of an action distribution."""
    return float(-np.sum(probs * np.log(probs)))


@dataclass(frozen=True)
class SftSample:
    obs: Observation
    demo_action_index: int


def sft_update(theta: np.ndarray, spec: PolicySpec, batch: list[SftSample],
               learning_rate: float) -> np.ndarray:
    """One gradient-ascent step on mean demo-action log-likelihood."""
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    if not batch:
        return theta
    grad = np.zeros_like(theta)
    for sample in batch:
        _, g = log_prob_and_grad(theta, spec, sample.obs, sample.demo_action_index)
        grad += g
    return theta + learning_rate * grad / len(batch)


def sft_loss(theta: np.ndarray, spec: PolicySpec, batch: list[SftSample]) -> float:
    """Negative mean log-likelihood of the demo actions."""
    total = 0.0
    for sample in batch:
        lp, _ = log_prob_and_grad(theta, spec, sample.obs, sample.demo_action_index)
        total += lp
    return -total / len(batch)


# --- checkpoint and dataset formats ---

def save_checkpoint(theta: np.ndarray, path) -> None:
    payload = {"shape": list(theta.shape), "values": [float(v) for v in theta.ravel()]}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path, spec: PolicySpec) -> np.ndarray:
    try:
        with open(path) as fh:
            payload = json.load(fh)
        shape = tuple(payload["shape"])
        theta = np.array(payload["values"], dtype=float).reshape(shape)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BadCheckpoint(f"cannot read checkpoint {path}: {exc}") from None
    if theta.shape != (spec.num_actions, spec.encoded_dim):
        raise BadCheckpoint(
            f"checkpoint shape {theta.shape} does not match policy "
            f"({spec.num_actions}, {spec.encoded_dim})"
        )
    if not np.all(np.isfinite(theta)):
        raise BadCheckpoint("checkpoint contains non-finite values")
    return theta


def load_sft_dataset(path, spec: PolicySpec) -> list[SftSample]:
    samples = []
    try:
        fh = open(path, "rb")  # json.loads decodes each line, inside the check below
    except OSError as exc:
        raise BadDataset(0, f"cannot read {path}: {exc}") from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                obs = Observation(
                    features=tuple(float(v) for v in rec["features"]),
                    step_index=int(rec["step"]),
                    last_outcome=rec["last_outcome"],
                )
                idx = int(rec["demo_action"])
                if not 0 <= idx < spec.num_actions:
                    raise ValueError(f"demo_action {idx} out of range")
                spec.encode(obs)  # dimension check
            except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
                raise BadDataset(line_no, str(exc)) from None
            samples.append(SftSample(obs=obs, demo_action_index=idx))
    return samples
