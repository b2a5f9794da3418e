"""The CLI's artifacts, compared byte for byte with the files in ``golden/``.

Seed-42 training from zero, a greedy evaluation of its checkpoint, seed-7
episodes that answer, delegate, run out of steps or find no card, and short
runs at seeds of more than 32 bits, and greedy and sampled evaluations over
a world of 100 cards per action must reproduce exactly. A change that
announces a new RNG stream or new statistics regenerates the files and
commits them with it:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from agentmesh import trainer
from agentmesh.cli import main
from agentmesh.config import default_policy_spec, load_config
from agentmesh.policy import OUTCOME_AGENT_SUCCESS, OUTCOMES, Decision, save_checkpoint
from agentmesh.registry import AgentCard, AgentMetrics
from agentmesh.router import RoutingWeights
from agentmesh.simenv import SimAgentConfig, WorldConfig, preset_case_study
from agentmesh.vocab import RELAY_ANSWER

GOLDEN = Path(__file__).parent / "golden"
TASK_CLASSES = ("direct", "network_analysis", "protocol_query")

# the class requires "ghost", and the only card serves "real"
UNROUTABLE = {
    "task_classes": [{"name": "ghost_class", "probability": 1.0,
                      "required_action": "ghost", "answer_pool": ["x", "y"]}],
    "agents": [{"card_id": "g-1", "supported_actions": ["real"],
                "success_prob": {"real": 1.0}}],
}

# SeedSequence splits a seed of 2**32 or more into little-endian 32-bit words
LARGE_SEEDS = (2**32 + 1, 2**64)


def always_delegate(config, action_type: str, path: Path) -> Path:
    """A checkpoint that delegates ``action_type`` at every step."""
    spec = load_config(config).policy_spec
    theta = spec.zero_params()
    theta[spec.actions.index_of(Decision.delegate(action_type)), :] = 60.0
    save_checkpoint(theta, path)
    return path


def cli(argv) -> bytes:
    """Stdout of one command, then its exit code on a line of its own."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return f"{out.getvalue()}exit: {code}\n".encode()


def large_seed(seed: int) -> dict[str, bytes]:
    """A 2-iteration training report at ``seed``, and a sampled 20-episode
    evaluation of its parameters."""
    cfg = load_config(overrides=["trainer.iterations=2"], seed=seed)
    theta, report = trainer.train(cfg.world, cfg.policy_spec, cfg.trainer, cfg.reward_weights,
                                  cfg.router_weights, cfg.seed)
    summary = trainer.evaluate_policy(cfg.world, cfg.policy_spec, theta, cfg.router_weights,
                                      n_episodes=20, seed=cfg.seed, greedy=False)
    summary_json = json.dumps(summary.as_dict(), indent=2) + "\n"
    return {f"seed_{seed}_report.csv": report.to_csv().encode(),
            f"seed_{seed}_sampled_eval.json": summary_json.encode()}


def many_card_world(seed: int = 30, cards_per_action: int = 100) -> WorldConfig:
    """The preset's task classes served by ``cards_per_action`` cards per
    action, each with its success, latency, jitter, per-call load and cost
    drawn from ``seed``; every third card starts from drawn metrics, and the
    rest from none, so those of equal cost tie until they are called."""
    rng = np.random.default_rng(seed)
    agents, priors = [], {}
    for action in preset_case_study().action_types:
        for i in range(cards_per_action):
            card = AgentCard(f"{action}-{i:03d}", "native", frozenset({action}),
                             cost=float(rng.choice([0.0, 0.5, 1.0])))
            agents.append(SimAgentConfig(
                card, {action: float(rng.uniform(0.5, 1.0))},
                latency_base_ms=float(rng.uniform(10.0, 150.0)),
                latency_jitter_ms=float(rng.choice([0.0, 5.0, 20.0])),
                load_per_call=float(rng.uniform(0.0, 0.5))))
            if i % 3 == 0:
                priors[card.card_id] = AgentMetrics(
                    float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.5, 1.0)),
                    float(rng.uniform(10.0, 150.0)), int(rng.integers(0, 3)))
    return WorldConfig(tuple(agents), preset_case_study().generator, priors)


def many_cards() -> dict[str, bytes]:
    """Greedy and sampled 2,000-episode evaluations of a relay policy over
    ``many_card_world()``, routed with a cost weight."""
    world = many_card_world()
    spec = default_policy_spec(world, max_steps=4)
    theta = spec.zero_params()
    for k, cls in enumerate(world.generator.classes):
        demo = (Decision.answer(cls.answer_pool[0]) if cls.required_action is None
                else Decision.delegate(cls.required_action))
        theta[spec.actions.index_of(demo), k] = 3.0
    success = spec.feature_dim + spec.max_steps + OUTCOMES.index(OUTCOME_AGENT_SUCCESS)
    theta[spec.actions.index_of(Decision.answer(RELAY_ANSWER)), success] = 6.0
    weights = RoutingWeights(w_cost=0.2)
    summaries = {mode: trainer.evaluate_policy(world, spec, theta, weights, n_episodes=2000,
                                               seed=11, greedy=mode == "greedy").as_dict()
                 for mode in ("greedy", "sampled")}
    return {"many_cards_eval.json": (json.dumps(summaries, indent=2) + "\n").encode()}


def produce(work: Path) -> dict[str, bytes]:
    """Every artifact, keyed by its file name under ``golden/``."""
    train, runs = work / "train", work / "runs"
    cli(["train", "--seed", "42", "--set", "trainer.iterations=25", "--out", str(train)])
    ckpt = train / "checkpoint.json"
    artifacts = {
        "train_report.csv": (train / "report.csv").read_bytes(),
        "train_checkpoint.json": ckpt.read_bytes(),
        "eval.out": cli(["eval", "--seed", "3", "--episodes", "200",
                         "--checkpoint", str(ckpt), "--out", str(work / "eval")]),
    }
    run = ["run", "--seed", "7", "--out", str(runs)]
    for name in TASK_CLASSES:
        artifacts[f"run_{name}.out"] = cli([*run, "--task-class", name, "--checkpoint", str(ckpt)])
        artifacts[f"run_{name}_zero.out"] = cli([*run, "--task-class", name])
    delegate = always_delegate(None, "network_analysis", work / "delegate.json")
    artifacts["run_truncated.out"] = cli([*run, "--checkpoint", str(delegate)])
    config = work / "unroutable.json"
    config.write_text(json.dumps(UNROUTABLE))
    delegate = always_delegate(config, "ghost", work / "ghost.json")
    artifacts["run_unroutable.out"] = cli([*run, "--config", str(config),
                                           "--checkpoint", str(delegate)])
    artifacts["episodes.jsonl"] = (runs / "episodes.jsonl").read_bytes()
    for seed in LARGE_SEEDS:
        artifacts.update(large_seed(seed))
    artifacts.update(many_cards())
    return artifacts


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


def test_golden_files_are_exactly_the_artifacts(produced):
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(produced)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*")))
def test_artifact_matches_golden_file(produced, name):
    assert produced[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in produce(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
