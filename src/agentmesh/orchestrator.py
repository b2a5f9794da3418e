"""Episode loop: observe, decide, route, invoke, record.

Each step the policy either answers directly or delegates to an action type;
delegations are routed to a concrete agent, the agent's filtered response is
inserted into the trajectory, and a system marker feeds the success flag back
to the next observation. The loop records everything about the episode (its
trajectory, latency and calls); the env only answers agent calls. Failures
never raise out of the loop; they terminate the episode with a failure report
in the outcome.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import BadConfig, MalformedAgentResponse, NoAgentForAction
from .policy import (
    OUTCOME_AGENT_FAILURE,
    OUTCOME_AGENT_SUCCESS,
    OUTCOME_NONE,
    Decision,
    Observation,
    PolicySpec,
    SftSample,
    action_distribution,
    entropy as policy_entropy,
)
from .registry import Registry
from .router import RoutingWeights, route
from .simenv import GeneratorConfig, SimEnv, TaskSpec, choice_cdf, goal_token, sample_task
from .trajectory import (
    MALFORMED_AGENT_RESPONSE,
    NO_AGENT_FOR_ACTION,
    SOURCE_SYSTEM,
    FailureReport,
    Segment,
    Trajectory,
)
from .vocab import ACTION_CLOSE, ACTION_OPEN, RELAY_ANSWER, SYS_AGENT_FAILURE, SYS_AGENT_SUCCESS, WRONG

# the system marker that follows each answered agent call, by its success
_SUCCESS_MARKER = Segment((SYS_AGENT_SUCCESS,), SOURCE_SYSTEM)
_FAILURE_MARKER = Segment((SYS_AGENT_FAILURE,), SOURCE_SYSTEM)


class EpisodeOutcome(NamedTuple):
    """How one episode ended and what its calls cost. Like every per-episode
    record (``StepRecord``, ``AgentResponse``, ``TaskSpec``, ``RewardVector``,
    ``EpisodeResult``) it is an immutable ``NamedTuple`` and compares as the
    tuple of its fields. The per-step and per-episode sites build theirs with
    ``tuple.__new__(Cls, fields)``: the same instance in one C call, without
    the generated ``__new__`` and so without its arity check, which
    ``tests/test_records.py`` makes instead."""

    final_answer: Optional[str]
    total_latency_ms: float
    invocation_count: int
    sla_met: bool
    failure: Optional[FailureReport] = None
    # action type of every delegation span, in order, routed or not
    delegations: tuple[str, ...] = ()

    @property
    def terminal(self) -> dict[str, str]:
        """How the episode ended: ``failed`` with the failure's kind as its
        reason, else ``answered`` with the final answer, else ``truncated``
        (the step budget ran out)."""
        if self.failure is not None:
            return {"kind": "failed", "reason": self.failure.kind}
        if self.final_answer is not None:
            return {"kind": "answered", "answer": self.final_answer}
        return {"kind": "truncated"}


class StepRecord(NamedTuple):
    obs: Observation
    action_index: int
    entropy: float


@dataclass(frozen=True, eq=False)  # rows compare by identity; arrays have no truth value
class DecisionRow:
    """One observation's action distribution under one parameter version,
    with what a decision reads of it in Python floats and ints."""

    probs: np.ndarray
    entropy: float
    # Generator.choice's cumulative distribution as a list (choice_cdf);
    # None when probs is not finite, which leaves nothing to draw from
    cdf: Optional[list[float]]
    # np.argmax: the first index on exact ties, or the first NaN
    greedy: int

    @staticmethod
    def of(probs: np.ndarray) -> "DecisionRow":
        values = probs.tolist()
        cdf = choice_cdf(values) if all(map(math.isfinite, values)) else None
        return DecisionRow(probs, policy_entropy(probs), cdf, int(probs.argmax()))

    def sample(self, rng: np.random.Generator) -> int:
        """The index ``rng.choice(len(probs), p=probs)`` would draw, from the
        same one double of ``rng``: the bisection of ``cdf`` that its
        ``searchsorted(side="right")`` makes."""
        if self.cdf is None:
            raise ValueError("probabilities contain NaN")
        return bisect_right(self.cdf, rng.random())


class DecisionTable:
    """The action distribution of each distinct observation under ``theta``,
    computed on the first lookup and reused after it.

    Every rollout of a training iteration, whatever its group, decides from
    the iteration's one table, and every episode of an evaluation from the
    evaluation's. Rows are keyed by the observation's value, so equal
    observations share a row. A table serves only the ``theta`` object it
    was built for: ``serving`` rejects one built for a copy. Not safe to
    share across threads, and ``theta`` must not change while the table is
    in use.
    """

    def __init__(self, theta: np.ndarray, spec: PolicySpec):
        self.theta = theta
        self.spec = spec
        self._rows: dict[Observation, DecisionRow] = {}

    @staticmethod
    def serving(theta: np.ndarray, spec: PolicySpec,
                table: Optional["DecisionTable"]) -> "DecisionTable":
        """``table``, or a new table of ``theta`` and ``spec`` when it is None.
        A table built for another ``theta`` object, or for a spec that is not
        equal to ``spec``, raises ``ValueError``."""
        if table is None:
            return DecisionTable(theta, spec)
        if table.theta is not theta or (table.spec is not spec and table.spec != spec):
            raise ValueError("the decision table was built for another theta or spec")
        return table

    def row(self, obs: Observation) -> DecisionRow:
        row = self._rows.get(obs)
        if row is None:
            row = self._rows[obs] = DecisionRow.of(action_distribution(self.theta, self.spec, obs))
        return row


def decide(obs: Observation, theta: np.ndarray, spec: PolicySpec,
           rng: Optional[np.random.Generator], greedy: bool = False, *,
           table: Optional[DecisionTable] = None) -> tuple[Decision, int, DecisionRow]:
    """Sample one decision from the policy's action distribution; returns
    the decision, its action index and the table row it was drawn from.

    ``table`` keeps the rows of ``theta`` under ``spec`` across calls, unchecked
    (``execute_episode`` checks its table once, by ``DecisionTable.serving``);
    a one-call table is built without it. Greedy mode takes the argmax instead
    (first index on exact ties) and never touches ``rng``.
    """
    if table is None:
        table = DecisionTable(theta, spec)
    row = table.row(obs)
    index = row.greedy if greedy else row.sample(rng)
    return spec.actions.decision_of(index), index, row


def execute_episode(
    task: TaskSpec,
    theta: np.ndarray,
    spec: PolicySpec,
    registry: Registry,
    weights: RoutingWeights,
    env: SimEnv,
    rng: Optional[np.random.Generator],
    max_steps: int | None = None,
    *,
    generator: Optional[GeneratorConfig] = None,
    greedy: bool = False,
    table: Optional[DecisionTable] = None,
) -> tuple[Trajectory, EpisodeOutcome, list[StepRecord]]:
    """Run one episode of at most ``max_steps`` decisions (by default the
    spec's step budget, which its step encoding is sized for); every
    delegation carries the goal token of the task's class.

    ``table`` shares decision rows between episodes of the same ``theta``
    and ``spec``; a greedy episode needs no ``rng``. ``generator`` is unread,
    and kept only for acceptance criterion 5's helper, which passes it."""
    if max_steps is None:
        max_steps = spec.max_steps
    if not 1 <= max_steps <= spec.max_steps:
        raise ValueError(f"max_steps must be in [1, {spec.max_steps}]")
    table = DecisionTable.serving(theta, spec, table)
    traj = Trajectory()
    records: list[StepRecord] = []
    delegations: list[str] = []
    relay_source: Optional[str] = None  # informative token of last successful response
    failure: Optional[FailureReport] = None
    final_answer: Optional[str] = None
    invocations = 0
    total_latency = 0.0
    last_outcome = OUTCOME_NONE

    payload = goal_token(task.task_class.name)
    features = task.feature_vector
    new = tuple.__new__  # builds a record from all its fields, positionally

    for step in range(max_steps):
        obs = new(Observation, (features, step, last_outcome))
        decision, index, row = decide(obs, theta, spec, rng, greedy, table=table)
        records.append(new(StepRecord, (obs, index, row.entropy)))

        if decision.token is not None:
            token = decision.token
            if token == RELAY_ANSWER:
                token = relay_source if relay_source is not None else WRONG
            traj.append_core((token,))
            final_answer = token
            break

        action_type = decision.action_type
        traj.append_core((ACTION_OPEN, action_type, payload, ACTION_CLOSE))
        delegations.append(action_type)
        try:
            card_id = route(action_type, registry, weights)
        except NoAgentForAction:
            failure = FailureReport(NO_AGENT_FOR_ACTION)
            break

        raw_tokens, latency_ms, succeeded = env.invoke_agent(card_id, action_type, task)
        invocations += 1
        total_latency += latency_ms
        try:
            # a malformed reply raises here and leaves the trajectory unchanged
            span = traj.insert_agent_response(card_id, raw_tokens)
        except MalformedAgentResponse:
            span = None
        # a malformed reply is a failed call, so routing learns of it too
        registry.update_metrics(card_id, latency_ms, succeeded and span is not None,
                                env.loads.get(card_id, 0.0))
        if span is None:
            failure = FailureReport(MALFORMED_AGENT_RESPONSE)
            break
        if succeeded:
            traj.append(_SUCCESS_MARKER)
            # the informative span is a single answer token by construction
            relay_source = span[-1]
            last_outcome = OUTCOME_AGENT_SUCCESS
        else:
            traj.append(_FAILURE_MARKER)
            last_outcome = OUTCOME_AGENT_FAILURE

    outcome = new(EpisodeOutcome, (final_answer, total_latency, invocations,
                                   total_latency <= task.task_class.sla_deadline_ms,
                                   failure, tuple(delegations)))
    return traj, outcome, records


def make_warmup_dataset(generator: GeneratorConfig, spec: PolicySpec, n: int,
                        rng: np.random.Generator) -> list[SftSample]:
    """Demonstrations for supervised warm-up.

    Two sample kinds, both at step 0: direct tasks demonstrate answering with
    the ground truth, delegation tasks demonstrate invoking the required
    action type. Later-step behavior (retry, report) is left to RL.
    """
    samples = []
    for _ in range(n):
        task = sample_task(generator, rng)
        obs = Observation(task.feature_vector)  # step 0, no prior agent outcome
        if task.task_class.required_action is None:
            if task.ground_truth not in spec.actions.answer_tokens:
                raise BadConfig(f"policy.answer_tokens: the warm-up demonstrates the answer "
                                f"{task.ground_truth!r}, which is not among them")
            demo = Decision.answer(task.ground_truth)
        else:
            demo = Decision.delegate(task.task_class.required_action)
        samples.append(SftSample(obs=obs, demo_action_index=spec.actions.index_of(demo)))
    return samples
