"""Run configuration: one JSON file describes a full reproducible run.

This module holds the layout of the config file and of the agent-card file
it may name. Each JSON object in them is read by the loader of
:mod:`agentmesh.schema` into the dataclass or preset function it describes,
so every error is a :class:`BadConfig` naming the dotted key, e.g.
``trainer.learning_rate: must be finite``. The same loader reads the SFT
dataset and the checkpoint, whose formats :mod:`agentmesh.policy` declares.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Optional

from .errors import BadConfig
from .policy import ActionSpace, PolicySpec
from .registry import AgentCard, AgentMetrics
from .rewards import RewardWeights
from .router import RoutingWeights
from .schema import _AS_NAMED, _build, _dotted, _int, _list, _object, _read_json, _str
from .simenv import GeneratorConfig, SimAgentConfig, TaskClass, WorldConfig, preset_case_study
from .trainer import ExplorationConfig, TrainerConfig
from .vocab import RELAY_ANSWER

PROFILE_CASE_STUDY = "case-study"
DEFAULT_MAX_STEPS = 4
# The observation encodes the step index one-hot, so the parameter matrix
# grows linearly with max_steps; past this a typo would ask for gigabytes.
MAX_STEPS_LIMIT = 10_000


@dataclass(frozen=True)
class SftConfig:
    steps: int = 500
    learning_rate: float = 0.1

    def __post_init__(self):
        if self.steps < 1:
            raise BadConfig("sft steps must be >= 1")
        if self.learning_rate <= 0:
            raise BadConfig("sft learning_rate must be > 0")


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    seed: int = 0
    world: WorldConfig
    policy_spec: PolicySpec
    router_weights: RoutingWeights
    reward_weights: RewardWeights
    trainer: TrainerConfig
    sft: SftConfig
    out_dir: Path = Path("out")

    def __post_init__(self):
        if self.seed < 0:
            raise BadConfig("seed must be >= 0")

    @property
    def max_steps(self) -> int:
        """Decision steps per episode; the policy spec owns the budget."""
        return self.policy_spec.max_steps


# The card format: each announcement protocol's key for an AgentCard field
# that it names differently. A native card uses the field names themselves.
CARD_SPELLINGS: dict[str, Mapping[str, str]] = {
    "native": _AS_NAMED,
    "a2a": {"card_id": "agent_id", "supported_actions": "capabilities", "endpoint": "url"},
    "acp": {"card_id": "name", "supported_actions": "supported_ops", "endpoint": "address"},
    "anp": {"card_id": "identifier", "supported_actions": "action_types", "endpoint": "locator"},
}


def _card(entry, key) -> AgentCard:
    """The card that the object ``entry`` announces, read in the spelling of
    its ``protocol_tag`` (``native`` when absent)."""
    protocol = _str(_object(entry, key).get("protocol_tag", "native"), (key, "protocol_tag"))
    if protocol not in CARD_SPELLINGS:
        raise BadConfig(f"{_dotted((key, 'protocol_tag'))}: unknown protocol {protocol!r} "
                        f"(known: {', '.join(CARD_SPELLINGS)})")
    return _build(AgentCard, entry, key, CARD_SPELLINGS[protocol], protocol_tag=protocol)


def load_cards(path) -> list[tuple[AgentCard, AgentMetrics]]:
    """Read the agent-card file format: a JSON array of card objects, each
    in the spelling of its protocol and with an optional ``metrics`` object
    of priors."""
    out: dict[str, tuple[AgentCard, AgentMetrics]] = {}
    for i, entry in enumerate(_list(_read_json(path, "registry_cards"), "registry_cards")):
        key = ("registry_cards", i)
        card = _card(entry, key)
        if card.card_id in out:
            raise BadConfig(f"{_dotted(key)}: duplicate card id {card.card_id!r}")
        # The file holds priors, not observations: the first observed call
        # overwrites them, as for a card with no metrics at all.
        metrics = _build(AgentMetrics, entry.get("metrics", {}), (key, "metrics"), sample_count=0)
        out[card.card_id] = (card, metrics)
    return list(out.values())


# --- the file layout ---

def _explicit_world(raw: dict) -> WorldConfig:
    classes = []
    for i, entry in enumerate(_list(raw["task_classes"], "task_classes")):
        key = ("task_classes", i)
        # a class without required_action is answered directly
        classes.append(_build(TaskClass, {"required_action": None, **_object(entry, key)}, key))
    generator = GeneratorConfig(classes=tuple(classes))

    cards = []
    if "registry_cards" in raw:
        cards = load_cards(_str(raw["registry_cards"], "registry_cards"))
    known = {card.card_id: card for card, _ in cards}
    agents: dict[str, SimAgentConfig] = {}
    for i, entry in enumerate(_list(raw.get("agents", []), "agents")):
        key = ("agents", i)
        # an agent that names a card of the card file serves under that card
        cid = _object(entry, key).get("card_id")
        if isinstance(cid, str) and cid in known:
            card, id_key = known[cid], "card_id"
        else:
            card = _card(entry, key)
            id_key = CARD_SPELLINGS[card.protocol_tag].get("card_id", "card_id")
        if card.card_id in agents:
            raise BadConfig(f"{_dotted((key, id_key))}: duplicate card id {card.card_id!r}")
        agents[card.card_id] = _build(SimAgentConfig, entry, key, card=card)
    if not agents:
        raise BadConfig("agents: explicit configuration needs at least one agent")
    metrics = {card.card_id: m for card, m in cards}
    return WorldConfig(agents=tuple(agents.values()), generator=generator, initial_metrics=metrics)


def _build_world(raw: dict) -> WorldConfig:
    if "task_classes" in raw:
        return _explicit_world(raw)
    profile = raw.get("profile", PROFILE_CASE_STUDY)
    if profile != PROFILE_CASE_STUDY:
        raise BadConfig(f"profile: unknown profile {profile!r}")
    return _build(preset_case_study, raw.get("env", {}), "env")


def default_policy_spec(world: WorldConfig, max_steps: int,
                        answer_tokens: Optional[tuple[str, ...]] = None) -> PolicySpec:
    """Action space derived from the world: direct-answer tokens (the pools
    of classes answerable without delegation, plus the relay token) and one
    delegation action per action type."""
    if answer_tokens is None:
        tokens: list[str] = []
        for cls in world.generator.classes:
            if cls.required_action is None:
                for t in cls.answer_pool:
                    if t not in tokens:
                        tokens.append(t)
        tokens.append(RELAY_ANSWER)
        answer_tokens = tuple(tokens)
    return PolicySpec(
        feature_dim=world.generator.feature_dim,
        max_steps=max_steps,
        actions=ActionSpace(
            answer_tokens=tuple(answer_tokens),
            action_types=world.action_types,
        ),
    )


def parse_config(raw) -> RunConfig:
    raw = _object(raw, "config")
    max_steps = _int(raw.get("max_steps", DEFAULT_MAX_STEPS), "max_steps")
    if not 1 <= max_steps <= MAX_STEPS_LIMIT:
        raise BadConfig(f"max_steps: must be in [1, {MAX_STEPS_LIMIT}]")
    world = _build_world(raw)
    spec = _build(default_policy_spec, raw.get("policy", {}), "policy",
                  world=world, max_steps=max_steps)
    router = _build(RoutingWeights, raw.get("router", {}), "router")
    # A score adds w_load, w_accuracy and w_latency times terms in [0, 1] and
    # subtracts w_cost times the card's cost, so this bound keeps it finite.
    for agent in world.agents:
        cost = router.w_cost * agent.card.cost
        if not math.isfinite(router.w_load + router.w_accuracy + router.w_latency + cost):
            raise BadConfig(f"router: weights overflow the score of card {agent.card.card_id!r}")
    trainer = _object(raw.get("trainer", {}), "trainer")
    exploration_defaults = asdict(ExplorationConfig.defaults(spec.num_actions))
    return _build(
        RunConfig, raw, "",
        world=world,
        policy_spec=spec,
        router_weights=router,
        reward_weights=_build(RewardWeights, raw.get("rewards", {}), "rewards"),
        trainer=_build(
            TrainerConfig, trainer, "trainer",
            exploration=_build(ExplorationConfig, {**exploration_defaults, **trainer}, "trainer"),
        ),
        sft=_build(SftConfig, raw.get("sft", {}), "sft"),
    )


def _coerce(value: str) -> Any:
    try:
        return json.loads(value)
    except ValueError:
        return value


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply --set key=value overrides; keys use dotted paths."""
    for item in overrides:
        if "=" not in item:
            raise BadConfig(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise BadConfig(f"override path {key!r} crosses a non-object value")
        node[parts[-1]] = _coerce(value)
    return raw


def load_config(path=None, overrides: list[str] | None = None,
                seed: int | None = None) -> RunConfig:
    raw: dict = {}
    if path is not None:
        raw = _object(_read_json(path, "config"), "config")
        # a card file named in the config file lies relative to that file
        cards = raw.get("registry_cards")
        if isinstance(cards, str):
            raw["registry_cards"] = str(Path(path).parent / cards)
    if overrides:
        raw = apply_overrides(raw, overrides)
    if seed is not None:
        raw["seed"] = seed
    return parse_config(raw)
