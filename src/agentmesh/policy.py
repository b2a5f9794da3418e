"""Softmax-linear decision policy with analytic gradients.

The policy decides at delegation granularity: its action space is the union
of direct-answer tokens and delegation targets. A linear map over the encoded
observation feeds a softmax, which keeps log-prob gradients exact and the
supervised warm-up objective convex.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import BadCheckpoint, BadConfig, BadDataset, printable
from .schema import _build, _read_json
from .vocab import CONTROL_TAGS, RELAY_ANSWER, RESERVED_TOKENS

OUTCOME_NONE = "none"
OUTCOME_AGENT_SUCCESS = "agent_success"
OUTCOME_AGENT_FAILURE = "agent_failure"
OUTCOMES = (OUTCOME_NONE, OUTCOME_AGENT_SUCCESS, OUTCOME_AGENT_FAILURE)

KIND_ANSWER = "answer"
KIND_DELEGATE = "delegate"


class Observation(NamedTuple):
    """What the policy sees at one step: the task's features, the step index
    and the outcome of the last agent call. A plain value, compared and
    hashed as a tuple; ``PolicySpec.encode`` checks it."""

    features: tuple[float, ...]
    step_index: int = 0
    last_outcome: str = OUTCOME_NONE


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
        # with one action there is nothing to decide, and no entropy to control
        if len(self.answer_tokens) + len(self.action_types) < 2:
            raise ValueError("the action space needs at least two actions")
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

    @cached_property
    def decisions(self) -> tuple[Decision, ...]:
        """The decision of each action index, built once per action space."""
        return (tuple(map(Decision.answer, self.answer_tokens))
                + tuple(map(Decision.delegate, self.action_types)))

    def decision_of(self, index: int) -> Decision:
        decisions = self.decisions
        if not 0 <= index < len(decisions):
            raise IndexError(f"action index {index} out of range")
        return decisions[index]

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
        if obs.step_index < 0:
            raise ValueError("step_index must be nonnegative")
        if obs.step_index >= self.max_steps:
            raise ValueError("step_index must be < max_steps")
        if obs.last_outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome flag {obs.last_outcome!r}")
        x = np.zeros(self.encoded_dim)
        x[: self.feature_dim] = obs.features
        x[self.feature_dim + obs.step_index] = 1.0
        x[self.feature_dim + self.max_steps + OUTCOMES.index(obs.last_outcome)] = 1.0
        return x

    def zero_params(self) -> np.ndarray:
        return np.zeros((self.num_actions, self.encoded_dim))

    @cached_property
    def indicators(self) -> np.ndarray:
        """Row a is the one-hot of action index a; read-only, built once per spec."""
        eye = np.eye(self.num_actions)
        eye.flags.writeable = False
        return eye


def _softmax(logits: np.ndarray) -> np.ndarray:
    """The softmax of the 1-D ``logits``, which it shifts in place to a maximum
    of 0, through the ufunc reductions that ``ndarray.max()`` and ``.sum()``
    reach after a Python call: the same bits, without that call."""
    logits -= np.maximum.reduce(logits)
    exp = np.exp(logits)
    return exp / np.add.reduce(exp)


def action_distribution(theta: np.ndarray, spec: PolicySpec, obs: Observation) -> np.ndarray:
    return _softmax(theta @ spec.encode(obs))


def grad_log_prob(spec: PolicySpec, action_index: int | list[int], probs: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """The exact gradient (onehot(a) - p) outer x of log pi(a|o), from the
    distribution ``probs`` and the encoding ``x`` of o: np.outer's
    elementwise product. It broadcasts over a leading key axis, where
    ``action_index`` holds one index per key."""
    return (spec.indicators[action_index] - probs)[..., None] * x[..., None, :]


def log_prob_and_grad(theta: np.ndarray, spec: PolicySpec, obs: Observation,
                      action_index: int) -> tuple[float, np.ndarray]:
    """log pi(a|o) and its exact gradient, from one encode of ``obs``."""
    x = spec.encode(obs)
    logits = theta @ x
    probs = _softmax(logits)
    grad = grad_log_prob(spec, action_index, probs, x)
    if probs[action_index] == 0:  # underflowed; the log-softmax is still finite
        return float(logits[action_index] - np.log(np.exp(logits).sum())), grad
    return float(np.log(probs[action_index])), grad


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy (nats) of an action distribution, with 0 log 0 = 0
    for a probability that underflowed to 0. The terms are added exactly,
    by ``math.fsum``: each is finite and at most 0 for a probability in
    (0, 1], or +inf for an infinite one, so the sum cannot meet inf - inf."""
    return -math.fsum([p * math.log(p) for p in probs.tolist() if p > 0])


def diverged(theta: np.ndarray) -> bool:
    """Whether ``theta`` is unusable: an entry is not finite, or the
    magnitudes overflow when summed, so that a logit can overflow and turn an
    action distribution to NaN."""
    with np.errstate(over="ignore"):
        return not np.isfinite(np.abs(theta).sum())


def distinct(keys: list) -> tuple[list, list[int]]:
    """The distinct ``keys`` in first-seen order, and the index of each key
    among them: the update loops compute one gradient per distinct
    (observation, action) key."""
    rows: dict = {}
    index = [rows.setdefault(key, len(rows)) for key in keys]
    return list(rows), index


class SftSample(NamedTuple):
    """One demonstration: an immutable value that is its own
    (observation, action) key for ``distinct``."""

    obs: Observation
    demo_action_index: int


def sft_update(theta: np.ndarray, spec: PolicySpec, batch: list[SftSample],
               learning_rate: float) -> np.ndarray:
    """One gradient-ascent step on mean demo-action log-likelihood."""
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    if not batch:
        return theta
    keys, picked = distinct(batch)
    grads = [log_prob_and_grad(theta, spec, *key)[1] for key in keys]
    # numpy adds whole gradients over the first axis in sample order, as
    # ``grad += g`` from zeros would; initial=0.0 makes that sum's +0.0 start
    # explicit, so a gradient entry of -0.0 in every sample sums to 0.0
    grad = np.add.reduce(np.array(grads)[picked], axis=0, initial=0.0)
    return theta + learning_rate * grad / len(batch)


def sft_loss(theta: np.ndarray, spec: PolicySpec, batch: list[SftSample]) -> float:
    """Negative mean log-likelihood of the demo actions."""
    if not batch:
        raise ValueError("sft_loss of an empty batch")
    keys, picked = distinct(batch)
    log_probs = [log_prob_and_grad(theta, spec, *key)[0] for key in keys]
    total = 0.0
    for row in picked:  # added in sample order
        total += log_probs[row]
    return -total / len(batch)


# --- checkpoint and dataset formats ---

def save_checkpoint(theta: np.ndarray, path) -> None:
    payload = {"shape": list(theta.shape), "values": [float(v) for v in theta.ravel()]}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _checkpoint(shape: tuple[int, ...], values: tuple[float, ...], spec: PolicySpec) -> np.ndarray:
    """The checkpoint format: ``shape`` and the row-major ``values`` of the
    policy parameters."""
    expected = (spec.num_actions, spec.encoded_dim)
    if shape != expected:
        raise ValueError(f"shape {shape} does not match the policy's {expected}")
    if len(values) != spec.num_actions * spec.encoded_dim:
        raise ValueError(f"{len(values)} values do not fill shape {shape}")
    return np.array(values).reshape(shape)


def load_checkpoint(path, spec: PolicySpec) -> np.ndarray:
    try:
        theta = _build(_checkpoint, _read_json(path, "checkpoint"), "checkpoint", spec=spec)
    except BadConfig as exc:
        raise BadCheckpoint(str(exc)) from None
    if diverged(theta):
        raise BadCheckpoint("checkpoint values are not finite, or so large that a logit overflows")
    return theta


def _demo(features: tuple[float, ...], step: int, last_outcome: str, demo_action: int,
          spec: PolicySpec) -> SftSample:
    """The dataset format: one demonstration per line."""
    # A task's features are one-hot, like the rest of the encoding; with every
    # entry in [-1, 1], no logit of a parameter matrix that has not diverged
    # can overflow.
    if len(features) != spec.feature_dim:
        raise ValueError(f"features: {len(features)} values, the policy reads {spec.feature_dim}")
    for i, f in enumerate(features):
        if abs(f) > 1:
            raise ValueError(f"features[{i}]: must be in [-1, 1]")
    if not 0 <= step < spec.max_steps:
        raise ValueError(f"step: {step} is out of range [0, {spec.max_steps})")
    if last_outcome not in OUTCOMES:
        raise ValueError(f"last_outcome: {last_outcome!r} is not one of {', '.join(OUTCOMES)}")
    obs = Observation(features=features, step_index=step, last_outcome=last_outcome)
    if not 0 <= demo_action < spec.num_actions:
        raise ValueError(f"demo_action: {demo_action} is out of range [0, {spec.num_actions})")
    return SftSample(obs=obs, demo_action_index=demo_action)


def load_sft_dataset(path, spec: PolicySpec) -> list[SftSample]:
    samples = []
    try:
        fh = open(path, "rb")  # json.loads decodes each line, inside the check below
    except OSError as exc:
        raise BadDataset(0, f"cannot read {printable(path)}: {exc}") from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                samples.append(_build(_demo, json.loads(line), "", spec=spec))
            except (BadConfig, ValueError) as exc:  # a bad value, or malformed JSON
                raise BadDataset(line_no, str(exc)) from None
    return samples
