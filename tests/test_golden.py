"""The CLI's artifacts, compared byte for byte with the files in ``golden/``.

Seed-42 training from zero, a greedy evaluation of its checkpoint, seed-7
episodes that answer, delegate, run out of steps or find no card, and short
runs at seeds of more than 32 bits must reproduce exactly. A change that
announces a new RNG stream or new statistics regenerates the files and
commits them with it:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from agentmesh import trainer
from agentmesh.cli import main
from agentmesh.config import load_config
from agentmesh.policy import Decision, save_checkpoint

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
