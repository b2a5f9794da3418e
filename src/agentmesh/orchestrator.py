"""Episode loop: interpret the task, decide, route, invoke, integrate.

Each step the policy either answers directly or delegates to an action type;
delegations are routed to a concrete agent, the agent's filtered response is
inserted into the trajectory, and a system marker feeds the success flag back
to the next observation. Failures never raise out of the loop; they terminate
the episode with a failure report in the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MalformedAgentResponse, NoAgentForAction
from .policy import (
    KIND_ANSWER,
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
from .simenv import AgentResponse, GeneratorConfig, SimEnv, TaskSpec, class_of_task, goal_token, sample_task
from .trajectory import (
    MALFORMED_AGENT_RESPONSE,
    NO_AGENT_FOR_ACTION,
    FailureReport,
    Trajectory,
)
from .vocab import ACTION_CLOSE, ACTION_OPEN, RELAY_ANSWER, SYS_AGENT_FAILURE, SYS_AGENT_SUCCESS, WRONG


@dataclass(frozen=True)
class EpisodeOutcome:
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


@dataclass(frozen=True)
class StepRecord:
    obs: Observation
    action_index: int
    entropy: float


def interpret(task: TaskSpec) -> Observation:
    """Initial observation: task features, step 0, no prior agent outcome."""
    return Observation(features=task.feature_vector, step_index=0, last_outcome=OUTCOME_NONE)


@dataclass(frozen=True, eq=False)  # rows compare by identity; arrays have no truth value
class DecisionRow:
    """One observation's action distribution under one parameter version."""

    probs: np.ndarray
    entropy: float
    # Generator.choice's cumulative distribution; None when probs is not
    # finite, which leaves nothing to draw from
    cdf: Optional[np.ndarray]

    @staticmethod
    def of(probs: np.ndarray) -> "DecisionRow":
        cdf = None
        if np.all(np.isfinite(probs)):
            cdf = probs.cumsum()
            cdf /= cdf[-1]
        return DecisionRow(probs, policy_entropy(probs), cdf)

    def sample(self, rng: np.random.Generator) -> int:
        """The index ``rng.choice(len(probs), p=probs)`` would draw, from the
        same one double of ``rng``."""
        if self.cdf is None:
            raise ValueError("probabilities contain NaN")
        return int(self.cdf.searchsorted(rng.random(), side="right"))


class DecisionTable:
    """The action distribution of each distinct observation under ``theta``,
    computed on the first lookup and reused after it.

    Rollouts and evaluations that share one ``theta`` share one table. Not
    safe to share across threads, and ``theta`` must not change while the
    table is in use.
    """

    def __init__(self, theta: np.ndarray, spec: PolicySpec):
        self.theta = theta
        self.spec = spec
        self._rows: dict[Observation, DecisionRow] = {}

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

    ``table`` keeps the rows of ``theta`` under ``spec`` across calls; a
    one-call table is built without it. Greedy mode takes the argmax instead
    (first index on exact ties) and never touches ``rng``.
    """
    if table is None:
        table = DecisionTable(theta, spec)
    row = table.row(obs)
    index = int(np.argmax(row.probs)) if greedy else row.sample(rng)
    return spec.actions.decision_of(index), index, row


def integrate(traj: Trajectory, response: AgentResponse, card_id: str) -> Trajectory:
    """Insert the filtered agent answer plus a system success marker.

    Atomic: a malformed response leaves the trajectory unchanged.
    """
    traj.insert_agent_response(card_id, response.raw_tokens)
    flag = SYS_AGENT_SUCCESS if response.succeeded else SYS_AGENT_FAILURE
    traj.append_system([flag])
    return traj


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
    generator: GeneratorConfig,
    greedy: bool = False,
    table: Optional[DecisionTable] = None,
) -> tuple[Trajectory, EpisodeOutcome, list[StepRecord]]:
    """Run one episode of at most ``max_steps`` decisions (by default the
    spec's step budget, which its step encoding is sized for); every
    delegation carries the goal token of the task's class in ``generator``.

    ``table`` shares decision rows between episodes of the same ``theta``
    and ``spec``; a greedy episode needs no ``rng``."""
    if max_steps is None:
        max_steps = spec.max_steps
    if not 1 <= max_steps <= spec.max_steps:
        raise ValueError(f"max_steps must be in [1, {spec.max_steps}]")
    if table is None:
        table = DecisionTable(theta, spec)
    elif table.theta is not theta or table.spec != spec:
        raise ValueError("the decision table was built for another theta or spec")
    traj = Trajectory()
    start_clock = env.begin_episode(task)
    records: list[StepRecord] = []
    delegations: list[str] = []
    relay_source: Optional[str] = None  # informative token of last successful response
    failure: Optional[FailureReport] = None
    final_answer: Optional[str] = None
    invocations = 0
    last_outcome = OUTCOME_NONE

    payload = goal_token(class_of_task(generator, task).name)

    for step in range(max_steps):
        obs = Observation(task.feature_vector, step_index=step, last_outcome=last_outcome)
        decision, index, row = decide(obs, theta, spec, rng, greedy=greedy, table=table)
        records.append(StepRecord(obs=obs, action_index=index, entropy=row.entropy))

        if decision.kind == KIND_ANSWER:
            token = decision.token
            if token == RELAY_ANSWER:
                token = relay_source if relay_source is not None else WRONG
            traj.append_core([token])
            final_answer = token
            break

        traj.append_core([ACTION_OPEN, decision.action_type, payload, ACTION_CLOSE])
        delegations.append(decision.action_type)
        try:
            card_id = route(decision.action_type, registry, weights)
        except NoAgentForAction:
            failure = FailureReport(NO_AGENT_FOR_ACTION)
            break

        response = env.invoke_agent(card_id, decision.action_type)
        invocations += 1
        try:
            integrate(traj, response, card_id)
            malformed = False
        except MalformedAgentResponse:
            malformed = True
        # a malformed reply is a failed call, so routing learns of it too
        registry.update_metrics(card_id, response.latency_ms, response.succeeded and not malformed,
                                load_now=env.loads.get(card_id, 0.0))
        if malformed:
            failure = FailureReport(MALFORMED_AGENT_RESPONSE)
            break
        if response.succeeded:
            # the informative span is a single answer token by construction
            relay_source = traj.segments[-2].tokens[-1]
            last_outcome = OUTCOME_AGENT_SUCCESS
        else:
            last_outcome = OUTCOME_AGENT_FAILURE

    total_latency = env.clock_ms - start_clock
    outcome = EpisodeOutcome(
        final_answer=final_answer,
        total_latency_ms=total_latency,
        invocation_count=invocations,
        sla_met=total_latency <= task.sla_deadline_ms,
        failure=failure,
        delegations=tuple(delegations),
    )
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
        obs = interpret(task)
        if task.required_action is None:
            demo = Decision.answer(task.ground_truth)
        else:
            demo = Decision.delegate(task.required_action)
        samples.append(SftSample(obs=obs, demo_action_index=spec.actions.index_of(demo)))
    return samples
