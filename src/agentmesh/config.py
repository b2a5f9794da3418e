"""Run configuration: one JSON file describes a full reproducible run.

Each JSON object is read by one loader, ``_build``, into the dataclass or
preset function it describes: its keys are the target's parameters, absent
keys keep the target's defaults and unknown keys are ignored. Values are
checked against the declared types (numbers must be finite), and every error
is a :class:`BadConfig` naming the dotted key, e.g.
``trainer.learning_rate: must be finite``.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import typing
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Optional

from .errors import BadConfig
from .policy import ActionSpace, PolicySpec
from .registry import AgentCard, AgentMetrics
from .rewards import RewardWeights
from .router import RoutingWeights
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


# --- the loader ---
#
# A key is a top-level name ("" for the root) or a (parent key, name or list
# index) pair. It is rendered as a dotted path only for an error message,
# since a config may hold thousands of entries.

def _dotted(key) -> str:
    if type(key) is not tuple:
        return key
    parent, last = _dotted(key[0]), key[1]
    if type(last) is int:
        return f"{parent}[{last}]"
    return f"{parent}.{last}" if parent else last


def _object(value, key) -> dict:
    if type(value) is not dict:
        raise BadConfig(f"{_dotted(key)}: must be an object")
    return value


def _list(value, key) -> list:
    if type(value) is not list:
        raise BadConfig(f"{_dotted(key)}: must be a list")
    return value


def _str(value, key) -> str:
    if type(value) is not str:
        raise BadConfig(f"{_dotted(key)}: must be a string")
    return value


def _float(value, key) -> float:
    if type(value) is float and math.isfinite(value):
        return value
    if type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    # a JSON true/false is a bool, not a number
    problem = "must be finite" if type(value) in (int, float) else "must be a number"
    raise BadConfig(f"{_dotted(key)}: {problem}")


def _int(value, key) -> int:
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    _float(value, key)  # raises for a non-number or a non-finite one
    raise BadConfig(f"{_dotted(key)}: must be an integer")


def _converter(tp) -> Optional[Callable[[Any, Any], Any]]:
    """A function ``(json_value, key) -> value`` that checks a JSON value
    against the declared type ``tp`` and converts it; None for a type that
    only a caller supplies."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    if tp is Path:
        return lambda v, key: Path(_str(v, key))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, UnionType) and type(None) in args:
        (inner,) = [a for a in args if a is not type(None)]
        item = _converter(inner)
        return item and (lambda v, key: None if v is None else item(v, key))
    if origin is dict:
        item = _converter(args[1])
        return lambda v, key: {k: item(x, (key, k)) for k, x in _object(v, key).items()}
    if origin in (tuple, frozenset, Sequence):
        item = _converter(args[0])
        make = frozenset if origin is frozenset else tuple
        return lambda v, key: make([item(x, (key, i)) for i, x in enumerate(_list(v, key))])
    return None


_SCALARS = {int: _int, float: _float, str: _str}


@cache
def _params(target) -> tuple[tuple[tuple[str, Callable], ...], frozenset[str]]:
    """(name, converter) of each parameter of ``target``, and the names of
    the required ones; reflected once per target."""
    hints = typing.get_type_hints(target)
    params = inspect.signature(target).parameters.values()
    converters = tuple((p.name, _converter(hints.get(p.name))) for p in params)
    required = frozenset(p.name for p in params if p.default is inspect.Parameter.empty)
    return converters, required


_AS_NAMED: Mapping[str, str] = {}


def _build(target: Callable, section, key, spelling: Mapping[str, str] = _AS_NAMED, **given):
    """``target(**kwargs)`` from the JSON object ``section`` found at ``key``.

    ``given`` arguments are passed as they are and cannot be set from the
    file. Any other parameter is read from the entry of its name, or of the
    name ``spelling`` maps it to, converted to its declared type; an absent
    one keeps the target's default.
    """
    converters, required = _params(target)
    section = _object(section, key)
    kwargs = given
    for name, convert in converters:
        entry = spelling.get(name, name)
        if entry in section and name not in given:
            kwargs[name] = convert(section[entry], (key, entry))
    try:
        return target(**kwargs)
    except (BadConfig, ValueError, TypeError, KeyError) as exc:
        missing = required - kwargs.keys()
        if missing:
            name = min(missing)
            raise BadConfig(f"{_dotted((key, spelling.get(name, name)))}: required") from None
        raise BadConfig(f"{_dotted(key)}: {exc}" if key else str(exc)) from None


def _read_json(path, key: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadConfig(f"{key}: cannot read {path}: {exc}") from None
    except ValueError as exc:  # malformed JSON or text encoding
        raise BadConfig(f"{key}: {path} is not valid JSON: {exc}") from None


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
