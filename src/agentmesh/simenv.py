"""Simulated network environment: task generation and stochastic agents.

Agent latencies are simulated, not measured, and all randomness is seeded,
so a (seed, config) pair reproduces every task and agent response
bit-for-bit. Every stream is ``np.random.default_rng(seed)``, where a seed
is words or an ``episode_seeds`` seed: that hashes the words of many streams
in one pass into the PCG64 state ``SeedSequence(words)`` generates, which
``default_rng`` takes without hashing again. ``seed_rows`` yields those
seeds row by row, hashing ``SEED_BLOCK`` rollouts per pass.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import AgentMeshError, BadConfig
from .registry import AgentCard, AgentMetrics, Registry
from .vocab import ANS_CLOSE, ANS_OPEN, CONTROL_TAGS, NOISE, RESERVED_TOKENS, WRONG

LOAD_DECAY = 0.9
# An agent's base latency and its jitter are each at most this many ms (about
# 11.6 days), so one call takes at most 3e9 ms (twice the base at full load,
# plus the jitter). The longest evaluation makes 1e11 calls
# (trainer.MAX_EVAL_EPISODES episodes of config.MAX_STEPS_LIMIT steps), which
# then sum to at most 3e20 ms: a finite float.
MAX_LATENCY_MS = 1e9

ACTION_NETWORK_ANALYSIS = "network_analysis"
ACTION_PROTOCOL_QUERY = "protocol_query"

_MASK32 = 0xFFFFFFFF
# seed_rows hashes about this many rollouts per pass: a pass costs about 60
# array operations whatever its row count, and the seeds held stay small
# however long the run
SEED_BLOCK = 1024

# SeedSequence's constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# The step of the hash that mixes pool word src into pool word dst, after
# the pool's own 4 hashes; the diagonal is unused. Built from a list, since
# the numpy expression raised the resident size at import by 0.25 MB.
_MIXING_STEP = np.array([[_POOL_SIZE + (_POOL_SIZE - 1) * src + dst - (dst >= src)
                          for dst in range(_POOL_SIZE)] for src in range(_POOL_SIZE)])


@cache
def _register_seed_class() -> None:
    """Make ``PrecomputedSeed`` a numpy ``ISeedSequence``, which ``PCG64``
    takes as it is. Done on first use: importing ``numpy.random`` with this
    module would add its import time to every start."""
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(PrecomputedSeed)


class PrecomputedSeed:
    """The PCG64 state that ``SeedSequence(words)`` generates, as an
    ``ISeedSequence`` that ``PCG64`` and ``default_rng`` take, building the
    generator ``default_rng(words)`` builds without hashing again. It
    answers only PCG64's request for its state."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        _register_seed_class()
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == _POOL_SIZE and np.dtype(dtype) == np.uint64:
            return self.state
        raise ValueError("a precomputed seed holds only PCG64's state: 4 uint64 words")


Seed = int | Sequence[int] | PrecomputedSeed


@cache
def _hash_constants(init: int, mult: int, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's hash constant before and after each of ``n_steps``
    hashes; each hash multiplies it by ``mult``."""
    consts = [init]
    for _ in range(n_steps):
        consts.append(consts[-1] * mult & _MASK32)
    both = np.array(consts, dtype=np.uint32)
    both.flags.writeable = False  # shared by every call
    return both[:-1], both[1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> 16)


def seed_states(words: np.ndarray) -> np.ndarray:
    """The initial PCG64 state of each row of an (n, k) uint32 array:
    row r is ``np.random.SeedSequence(words[r]).generate_state(4, np.uint64)``.

    A port of ``SeedSequence.mix_entropy`` and ``generate_state`` from
    ``numpy/random/bit_generator.pyx``. A hash constant depends on the
    position of its hash, not on the words, so every row takes the same
    constants and each step is one operation on a column, about 60 array
    operations whatever n is.
    """
    n, k = words.shape
    steps = _POOL_SIZE * _POOL_SIZE + max(k - _POOL_SIZE, 0) * _POOL_SIZE
    before, after = _hash_constants(_INIT_A, _MULT_A, steps)
    pool = np.zeros((n, _POOL_SIZE), dtype=np.uint32)  # a short row hashes 0 past its end
    pool[:, :k] = words[:, :_POOL_SIZE]
    pool = _hashmix(pool, before[:_POOL_SIZE], after[:_POOL_SIZE])
    # Mix each pool word into every other. That leaves the source word as it
    # is, so its three mixes are one step; the source column is put back.
    xor, mult = before[_MIXING_STEP], after[_MIXING_STEP]
    for src in range(_POOL_SIZE):
        mixed = _mix(pool, _hashmix(pool[:, src:src + 1], xor[src], mult[src]))
        mixed[:, src] = pool[:, src]
        pool = mixed
    for src in range(_POOL_SIZE, k):  # each word past the pool mixes into every pool word
        at = slice(_POOL_SIZE * src, _POOL_SIZE * (src + 1))  # after 16 + 4 * (src - 4) hashes
        pool = _mix(pool, _hashmix(words[:, src:src + 1], before[at], after[at]))
    # generate_state(4, np.uint64): 8 words cycling over the pool, read as
    # little-endian pairs
    before, after = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hashmix(np.tile(pool, 2), before, after)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


def episode_seeds(prefix: Sequence[int], *axes: Sequence[int]) -> np.ndarray:
    """The seeds of many streams, hashed in one pass: a read-only object
    array shaped by the axes' lengths, whose element ``[j0, j1, ...]`` is
    the seed of ``default_rng([*prefix, axes[0][j0], axes[1][j1], ...])``.
    ``default_rng`` and ``WorldConfig.build_env`` take it as they take the
    words.

    Each axis word must be in [0, 2**32). A prefix int is split into
    little-endian 32-bit words, as ``SeedSequence`` splits it, so a seed of
    2**32 or more keeps its stream.
    """
    head: list[int] = []
    for w in map(int, prefix):
        if w < 0:
            raise ValueError("seed words must be >= 0")
        head.append(w & _MASK32)
        while w > _MASK32:
            w >>= 32
            head.append(w & _MASK32)
    columns = [np.arange(a.start, a.stop, a.step) if isinstance(a, range) else np.array(a)
               for a in axes]
    for column in columns:
        if column.size and not (0 <= column.min() and column.max() <= _MASK32):
            raise ValueError("axis words must be in [0, 2**32)")
    shape = tuple(map(len, columns))
    words = np.empty((*shape, len(head) + len(axes)), dtype=np.uint32)
    words[..., :len(head)] = head
    for d, column in enumerate(columns):  # axis d varies along dimension d
        words[..., len(head) + d] = column.reshape((-1,) + (1,) * (len(axes) - 1 - d))
    states = seed_states(words.reshape(-1, words.shape[-1]))
    states.flags.writeable = False  # PCG64 reads a row in place
    seeds = np.fromiter(map(PrecomputedSeed, states), object, len(states)).reshape(shape)
    seeds.flags.writeable = False
    return seeds


def seed_rows(prefix: Sequence[int], rows: Sequence[int],
              *axes: Sequence[int]) -> Iterator[np.ndarray]:
    """The rows of ``episode_seeds(prefix, rows, *axes)`` in order, hashed as
    they are needed, ``SEED_BLOCK`` rollouts (at least one row) per pass; a
    rollout is one element of every axis but the last, the stream axis."""
    per_pass = max(SEED_BLOCK // max(math.prod(map(len, axes[:-1])), 1), 1)
    for start in range(0, len(rows), per_pass):
        yield from episode_seeds(prefix, rows[start:start + per_pass], *axes)


def choice_cdf(probs: Sequence[float]) -> list[float]:
    """The cumulative distribution ``Generator.choice(n, p=probs)`` draws
    from, as a list: ``cumsum(probs) / cumsum(probs)[-1]``, from the same
    in-order adds and divisions. The index ``choice`` returns for the double
    ``u`` it takes from its stream is ``bisect_right(cdf, u)``, which is
    ``searchsorted(u, side="right")``."""
    cdf = list(accumulate(probs))
    total = cdf[-1]
    return [c / total for c in cdf]


@dataclass(frozen=True)
class TaskClass:
    """One generator class: a probability, an optional delegation need, and
    the pool of ground-truth answers tasks of this class may carry."""

    name: str
    probability: float
    required_action: Optional[str]
    answer_pool: tuple[str, ...]
    sla_deadline_ms: float = 500.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("name must be nonempty")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.sla_deadline_ms <= 0:
            raise ValueError("sla_deadline_ms must be positive")
        if not self.answer_pool:
            raise ValueError("answer_pool must be nonempty")
        if CONTROL_TAGS & {self.required_action, *self.answer_pool}:
            raise ValueError("answer_pool and required_action must not be control tags")
        if RESERVED_TOKENS & {self.required_action, *self.answer_pool}:
            raise ValueError("answer_pool and required_action must not be reserved tokens")


class TaskSpec(NamedTuple):
    """A drawn task; its class owns its delegation need, deadline and goal
    token. A ``NamedTuple``: immutable, and it compares as a tuple."""

    task_id: str
    feature_vector: tuple[float, ...]
    task_class: TaskClass
    ground_truth: str


@dataclass(frozen=True)
class GeneratorConfig:
    classes: tuple[TaskClass, ...]

    def __post_init__(self):
        if not self.classes:
            raise BadConfig("task generator needs at least one class")
        total = sum(c.probability for c in self.classes)
        if abs(total - 1.0) > 1e-9:
            raise BadConfig(f"class probabilities must sum to 1 (got {total})")

    @property
    def feature_dim(self) -> int:
        return len(self.classes)

    @cached_property
    def class_cdf(self) -> list[float]:
        return choice_cdf([c.probability for c in self.classes])

    @cached_property
    def one_hots(self) -> tuple[tuple[float, ...], ...]:
        """The feature vector of each class: its one-hot."""
        n = len(self.classes)
        return tuple(tuple(1.0 if i == j else 0.0 for i in range(n)) for j in range(n))


def sample_task(config: GeneratorConfig, rng: np.random.Generator) -> TaskSpec:
    """Draw one task; it carries its class, and its features are the class's
    one-hot. The class is the one ``rng.choice(len(classes), p=probabilities)`` would draw."""
    idx = bisect_right(config.class_cdf, rng.random())
    cls = config.classes[idx]
    pool = cls.answer_pool
    # rng.integers(1) returns 0 without drawing, so a one-answer pool skips it
    answer = pool[int(rng.integers(len(pool)))] if len(pool) > 1 else pool[0]
    serial = int(rng.integers(1 << 30))
    return TaskSpec(f"{cls.name}-{serial}", config.one_hots[idx], cls, answer)


@dataclass(frozen=True)
class SimAgentConfig:
    card: AgentCard
    success_prob: dict[str, float]
    latency_base_ms: float = 50.0
    latency_jitter_ms: float = 0.0
    load_per_call: float = 0.1

    def __post_init__(self):
        # A card may advertise more than the simulator serves (a stale or
        # overclaiming descriptor); every call of such an action fails. The
        # reverse, serving an unadvertised action, would be unreachable and
        # is rejected.
        if not set(self.success_prob) <= set(self.card.supported_actions):
            raise ValueError("success_prob keys must be advertised on the card")
        if not self.success_prob:
            raise ValueError("success_prob must cover at least one action")
        for p in self.success_prob.values():
            if not 0.0 <= p <= 1.0:
                raise ValueError("success probabilities must be in [0, 1]")
        card = self.card.card_id
        if not 0 < self.latency_base_ms <= MAX_LATENCY_MS:
            raise ValueError(f"latency_base_ms {self.latency_base_ms!r} of card {card!r} "
                             f"must be in (0, {MAX_LATENCY_MS:g}]")
        if not 0 <= self.latency_jitter_ms <= MAX_LATENCY_MS:
            raise ValueError(f"latency_jitter_ms {self.latency_jitter_ms!r} of card {card!r} "
                             f"must be in [0, {MAX_LATENCY_MS:g}]")
        if not 0.0 <= self.load_per_call <= 1.0:
            raise ValueError("load_per_call must be in [0, 1]")


class AgentResponse(NamedTuple):
    raw_tokens: tuple[str, ...]
    latency_ms: float
    succeeded: bool


@dataclass
class SimEnv:
    """One episode-scoped environment instance: it answers agent calls.

    Holds the load of every agent called so far (any other agent's load is
    0) and a private RNG stream ``default_rng(seed)``, a plain attribute
    built on the first read of ``rng``: the first agent call, since only
    calls draw from it. ``agents`` is the world's map, shared by every
    instance and never mutated. Each rollout runs in its own instance, one
    after another, with a seed derived from its place in the run.
    """

    agents: Mapping[str, SimAgentConfig]
    seed: Seed
    loads: dict[str, float] = field(default_factory=dict)
    _rng: Optional[np.random.Generator] = field(default=None, init=False, repr=False,
                                                compare=False)

    @property
    def rng(self) -> np.random.Generator:
        rng = self._rng
        if rng is None:
            rng = self._rng = np.random.default_rng(self.seed)
        return rng

    def invoke_agent(self, card_id: str, action_type: str, task: TaskSpec) -> AgentResponse:
        """Simulate one delegation round-trip for ``task``.

        The informative answer equals the task's ground truth only when the
        draw succeeds and the invoked action is the one the task actually
        requires; otherwise a dedicated wrong token is returned so accuracy
        evaluation stays unambiguous. An action the agent does not serve
        fails like a failed draw. Latency grows with the agent's current
        load; each call decays all loads then adds this agent's per-call load.
        """
        agent = self.agents.get(card_id)
        if agent is None:
            raise AgentMeshError(f"no simulated agent for card {card_id!r}")
        rng, loads = self.rng, self.loads

        for cid in loads:
            loads[cid] *= LOAD_DECAY
        load = loads.get(card_id, 0.0)
        latency = agent.latency_base_ms * (1.0 + load)
        if agent.latency_jitter_ms > 0:
            # rng.uniform(0.0, j) is 0.0 + j * u for its one double u
            latency += agent.latency_jitter_ms * rng.random()
        loads[card_id] = min(1.0, load + agent.load_per_call)

        succeeded = bool(rng.random() < agent.success_prob.get(action_type, 0.0))
        on_target = succeeded and action_type == task.task_class.required_action
        answer = task.ground_truth if on_target else WRONG
        raw = (NOISE, ANS_OPEN, answer, ANS_CLOSE)
        return tuple.__new__(AgentResponse, (raw, latency, succeeded))


@dataclass(frozen=True)
class WorldConfig:
    """Registry contents plus generator config: everything needed to build
    a fresh registry and per-rollout environment instances."""

    agents: tuple[SimAgentConfig, ...]
    generator: GeneratorConfig
    initial_metrics: dict[str, AgentMetrics] = field(default_factory=dict)

    def build_registry(self) -> Registry:
        reg = Registry()
        for agent in self.agents:
            reg.register_card(agent.card, self.initial_metrics.get(agent.card.card_id))
        return reg

    @cached_property
    def agents_by_card(self) -> Mapping[str, SimAgentConfig]:
        return {a.card.card_id: a for a in self.agents}

    def build_env(self, seed: Seed) -> SimEnv:
        return SimEnv(agents=self.agents_by_card, seed=seed)

    @property
    def action_types(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(c.required_action for c in self.generator.classes
                                   if c.required_action))


def goal_token(class_name: str) -> str:
    """Deterministic delegation payload derived from the task class."""
    return f"task_{class_name}"


# Default answer pools for the two-agent case study. Pools for the delegated
# classes are larger than one so the answer cannot be inferred from the task
# class alone and delegation is genuinely required.
_NA_ANSWERS = ("congestion", "link_failure", "interference", "misconfig")
_PQ_ANSWERS = ("ts_23_501", "ts_38_331", "tr_38_901", "ts_24_501")


def preset_case_study(
    class_probs: Sequence[float] = (1 / 3, 1 / 3, 1 / 3),
    agent_success: float = 0.9,
    latency_base_ms: float = 50.0,
    latency_jitter_ms: float = 5.0,
    load_per_call: float = 0.2,
) -> WorldConfig:
    """Two specialized agents plus a direct-answer task class; the
    protocol-query agent's base latency is 1.2 × ``latency_base_ms``."""
    if len(class_probs) != 3:
        raise BadConfig("case-study preset takes exactly three class probabilities")
    if not 0.0 <= agent_success <= 1.0:
        raise BadConfig("agent_success must be in [0, 1]")
    # so that the protocol-query agent's 1.2 × stays within MAX_LATENCY_MS
    if not 0 < latency_base_ms <= MAX_LATENCY_MS / 1.2:
        raise BadConfig(f"latency_base_ms {latency_base_ms!r} must be in "
                        f"(0, {MAX_LATENCY_MS / 1.2!r}]")
    na_card = AgentCard("na-agent", "native", frozenset({ACTION_NETWORK_ANALYSIS}),
                        endpoint="sim://na-agent")
    pq_card = AgentCard("pq-agent", "native", frozenset({ACTION_PROTOCOL_QUERY}),
                        endpoint="sim://pq-agent")
    agents = (
        SimAgentConfig(
            card=na_card,
            success_prob={ACTION_NETWORK_ANALYSIS: agent_success},
            latency_base_ms=latency_base_ms,
            latency_jitter_ms=latency_jitter_ms,
            load_per_call=load_per_call,
        ),
        SimAgentConfig(
            card=pq_card,
            success_prob={ACTION_PROTOCOL_QUERY: agent_success},
            latency_base_ms=latency_base_ms * 1.2,
            latency_jitter_ms=latency_jitter_ms,
            load_per_call=load_per_call,
        ),
    )
    generator = GeneratorConfig(classes=(
        TaskClass("direct", class_probs[0], None, ("ack",), sla_deadline_ms=100.0),
        TaskClass(ACTION_NETWORK_ANALYSIS, class_probs[1], ACTION_NETWORK_ANALYSIS,
                  _NA_ANSWERS, sla_deadline_ms=600.0),
        TaskClass(ACTION_PROTOCOL_QUERY, class_probs[2], ACTION_PROTOCOL_QUERY,
                  _PQ_ANSWERS, sla_deadline_ms=600.0),
    ))
    return WorldConfig(agents=agents, generator=generator)
