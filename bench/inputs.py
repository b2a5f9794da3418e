"""Seeded benchmark inputs. Every function here is a pure function of its
arguments: the same seed always gives byte-identical files.

The program only ever sees these files, through ``load_config`` and
``load_checkpoint``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from agentmesh.policy import OUTCOME_AGENT_SUCCESS, OUTCOMES, Decision, PolicySpec
from agentmesh.simenv import preset_case_study
from agentmesh.vocab import RELAY_ANSWER

CONFIG_FILE = "config.json"
POLICY_FILE = "policy.json"

# eval_wide: each action type is served by this many generated cards.
CARDS_PER_ACTION = 1000


def wide_world_config(seed: int, cards_per_action: int = CARDS_PER_ACTION) -> dict:
    """The preset's task classes served by many generated cards per action.

    Each card's success probability, base latency and per-call load are
    drawn from the seed.
    """
    classes = preset_case_study().generator.classes
    rng = np.random.default_rng([seed, 7])
    agents = []
    for action in sorted({c.required_action for c in classes if c.required_action}):
        for i in range(cards_per_action):
            agents.append({
                "card_id": f"{action}-{i:04d}",
                "supported_actions": [action],
                "success_prob": {action: float(rng.uniform(0.75, 0.99))},
                "latency_base_ms": float(rng.uniform(20.0, 120.0)),
                "latency_jitter_ms": 5.0,
                "load_per_call": float(rng.uniform(0.05, 0.4)),
            })
    return {
        "seed": seed,
        "task_classes": [{
            "name": c.name,
            "probability": c.probability,
            "required_action": c.required_action,
            "answer_pool": list(c.answer_pool),
            "sla_deadline_ms": c.sla_deadline_ms,
        } for c in classes],
        "agents": agents,
    }


def relay_policy(spec: PolicySpec, world_config: dict) -> np.ndarray:
    """Fixed, untrained parameters: answer direct tasks with their only
    answer, delegate the rest to their required action, relay the helper's
    answer after a success and delegate again after a failure."""
    theta = spec.zero_params()
    for k, cls in enumerate(world_config["task_classes"]):
        if cls["required_action"] is None:
            theta[spec.actions.index_of(Decision.answer(cls["answer_pool"][0])), k] = 10.0
        else:
            theta[spec.actions.index_of(Decision.delegate(cls["required_action"])), k] = 5.0
    success_column = spec.feature_dim + spec.max_steps + OUTCOMES.index(OUTCOME_AGENT_SUCCESS)
    theta[spec.actions.index_of(Decision.answer(RELAY_ANSWER)), success_column] = 20.0
    return theta


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True))


def write_checkpoint(path: Path, theta: np.ndarray) -> None:
    """The checkpoint file format, written without the program's writer."""
    write_json(path, {"shape": list(theta.shape), "values": [float(v) for v in theta.ravel()]})
