import json
import math

import numpy as np
import pytest

from agentmesh.cli import main
from agentmesh.config import load_config
from agentmesh.policy import Decision, load_checkpoint, save_checkpoint

FAST = ["--set", "trainer.iterations=5", "--set", "trainer.group_size=4"]


def one_class_config(tmp_path, action_type, agent):
    """A world whose only class requires ``action_type``, served (or not) by
    the one agent ``agent``, and a checkpoint that always delegates it."""
    config = {
        "task_classes": [{"name": "only_class", "probability": 1.0,
                          "required_action": action_type, "answer_pool": ["x", "y"]}],
        "agents": [agent],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    spec = load_config(cfg_path).policy_spec
    theta = spec.zero_params()
    theta[spec.actions.index_of(Decision.delegate(action_type)), :] = 60.0
    ckpt = tmp_path / "always_delegate.json"
    save_checkpoint(theta, ckpt)
    return cfg_path, ckpt


# No card advertises "ghost", so every forced delegation of it fails its episode.
NO_GHOST_AGENT = {"card_id": "g-1", "supported_actions": ["real"],
                  "success_prob": {"real": 1.0}}


def sft_checkpoint(tmp_path):
    out = tmp_path / "sft"
    assert main(["sft", "--seed", "42", "--out", str(out)]) == 0
    return out / "checkpoint.json"


class TestRun:
    def test_direct_task_with_warm_policy_succeeds(self, tmp_path, capsys):
        ckpt = sft_checkpoint(tmp_path)
        code = main(["run", "--seed", "7", "--task-class", "direct",
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 0
        assert "ground truth 'ack'" in captured.out
        assert "terminal: answered answer='ack'" in captured.out

    def test_repeat_runs_are_identical(self, tmp_path, capsys):
        args = ["run", "--seed", "11", "--out", str(tmp_path / "run")]
        code_a = main(args)
        out_a = capsys.readouterr().out
        code_b = main(args)
        out_b = capsys.readouterr().out
        assert code_a == code_b
        assert out_a == out_b

    def test_episode_log_appends_records(self, tmp_path):
        out = tmp_path / "run"
        for seed in ("1", "2", "3"):
            main(["run", "--seed", seed, "--out", str(out)])
        lines = (out / "episodes.jsonl").read_text().strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert {"episode_id", "segments", "terminal",
                    "reward_vector", "scalar_reward"} <= record.keys()

    def test_unknown_task_class_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--task-class", "nonsense",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_failed_episode_returns_episode_exit_code(self, tmp_path, capsys):
        cfg_path, ckpt = one_class_config(tmp_path, "ghost", NO_GHOST_AGENT)
        code = main(["run", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "terminal: failed reason=no_agent_for_action" in capsys.readouterr().out
        record = json.loads((tmp_path / "run" / "episodes.jsonl").read_text())
        assert record["terminal"] == {"kind": "failed", "reason": "no_agent_for_action"}

    def test_invalid_reward_weights_rejected(self, tmp_path, capsys):
        code = main(["run", "--set", "rewards.lambda_fmt=1.0",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestStaleCard:
    """c1's card advertises act_b, which its simulator does not serve."""

    STALE = {"card_id": "c1", "supported_actions": ["act_a", "act_b"],
             "success_prob": {"act_a": 0.9}}

    def test_train_and_eval_complete(self, tmp_path, capsys):
        cfg_path, ckpt = one_class_config(tmp_path, "act_b", self.STALE)
        out = tmp_path / "train"
        assert main(["train", "--config", str(cfg_path), "--out", str(out), *FAST]) == 0
        capsys.readouterr()  # drop the training summary
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--episodes", "5", "--out", str(tmp_path / "eval")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["success_rate"], summary["mean_invocations"]) == (0.0, 4.0)


class TestSft:
    def test_generates_demos_and_writes_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "sft"
        assert main(["sft", "--seed", "42", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "samples: 200" in captured
        assert "final_loss:" in captured
        cfg = load_config(seed=42)
        theta = load_checkpoint(out / "checkpoint.json", cfg.policy_spec)
        assert theta.shape == (cfg.policy_spec.num_actions, cfg.policy_spec.encoded_dim)
        assert np.any(theta != 0)

    def test_explicit_dataset_argument(self, tmp_path):
        from agentmesh.orchestrator import make_warmup_dataset
        from sft_files import save_sft_dataset

        cfg = load_config(seed=0)
        samples = make_warmup_dataset(cfg.world.generator, cfg.policy_spec, 50,
                                      np.random.default_rng(0))
        data = tmp_path / "demos.jsonl"
        save_sft_dataset(samples, data)
        out = tmp_path / "sft"
        assert main(["sft", str(data), "--out", str(out),
                     "--set", "sft.steps=50"]) == 0
        assert (out / "checkpoint.json").exists()

    def test_missing_dataset_is_config_error(self, tmp_path, capsys):
        code = main(["sft", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "sft")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_undecodable_dataset_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "demos.jsonl"
        data.write_bytes(b"\xff\xfe\x00\n")
        code = main(["sft", str(data), "--out", str(tmp_path / "sft")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_dataset_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "demos.jsonl"
        data.write_text("{broken\n")
        code = main(["sft", str(data), "--out", str(tmp_path / "sft")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_writes_report_and_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "train"
        assert main(["train", "--seed", "5", "--out", str(out), *FAST]) == 0
        lines = (out / "report.csv").read_text().strip().split("\n")
        assert lines[0] == "iteration,mean_reward,success_rate,mean_entropy,triggers"
        assert len(lines) == 6
        cfg = load_config(seed=5)
        theta = load_checkpoint(out / "checkpoint.json", cfg.policy_spec)
        assert theta.shape == (cfg.policy_spec.num_actions, cfg.policy_spec.encoded_dim)
        assert "collapse_warnings:" in capsys.readouterr().out

    def test_periodic_checkpoints(self, tmp_path):
        out = tmp_path / "train"
        assert main(["train", "--seed", "5", "--out", str(out), *FAST,
                     "--set", "trainer.checkpoint_every=2"]) == 0
        names = sorted(p.name for p in out.glob("checkpoint_*.json"))
        assert names == ["checkpoint_00002.json", "checkpoint_00004.json"]

    def test_repeat_training_is_byte_identical(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--seed", "9", "--out", str(out), *FAST]) == 0
            outputs.append(((out / "report.csv").read_bytes(),
                            (out / "checkpoint.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_invalid_group_size_rejected(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "train"),
                     "--set", "trainer.group_size=1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestDivergence:
    @pytest.mark.filterwarnings("error")
    def test_probabilities_that_underflow_to_zero_train_on(self, tmp_path):
        # lr 1000 drives some probabilities to exactly 0 by iteration 3
        assert main(["train", "--out", str(tmp_path), "--set", "trainer.learning_rate=1000",
                     "--set", "trainer.iterations=300"]) == 0

    @pytest.mark.filterwarnings("error")
    def test_a_demo_probability_that_underflows_keeps_the_loss_finite(self, tmp_path, capsys):
        # conflicting demos of one observation: lr 1e10 drives pi(1|o) to 0
        demo = {"features": [1, 0, 0], "step": 0, "last_outcome": "none"}
        data = tmp_path / "conflict.jsonl"
        data.write_text("".join(json.dumps({**demo, "demo_action": a}) + "\n" for a in (0, 0, 1)))
        assert main(["sft", str(data), "--out", str(tmp_path / "sft"),
                     "--set", "sft.learning_rate=1e10", "--set", "sft.steps=5"]) == 0
        loss = capsys.readouterr().out.split("final_loss: ")[1].split()[0]
        assert math.isfinite(float(loss))

    @pytest.mark.parametrize("command, error", [
        (["sft", "--set", "sft.learning_rate=1e308", "--set", "sft.steps=50"],
         "sft.learning_rate: 1e+308 made the policy parameters overflow at step 0"),
        (["train", "--set", "trainer.learning_rate=1e308", "--set", "trainer.iterations=100"],
         "trainer.learning_rate: 1e+308 made the policy parameters overflow at iteration 0"),
    ], ids=["sft", "train"])
    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_update_is_a_config_error(self, tmp_path, capsys, command, error):
        assert main([*command, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
        assert list(tmp_path.iterdir()) == []  # no checkpoint


class TestEval:
    def test_requires_checkpoint(self, tmp_path, capsys):
        code = main(["eval", "--out", str(tmp_path / "eval")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_shape_mismatch_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        save_checkpoint(np.zeros((2, 2)), bad)
        code = main(["eval", "--checkpoint", str(bad),
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_with_non_list_shape_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"shape": 5, "values": [1]}))
        code = main(["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "eval")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_whose_logits_overflow_rejected(self, tmp_path, capsys):
        spec = load_config().policy_spec
        theta = spec.zero_params()
        theta[0, :] = 1e308  # each value is finite; a logit of them is not
        huge = tmp_path / "huge.json"
        save_checkpoint(theta, huge)
        for command in (["run"], ["train"], ["eval"]):
            assert main([*command, "--checkpoint", str(huge), "--out", str(tmp_path)]) == 1
            assert capsys.readouterr().err.startswith("error: checkpoint values are not finite")

    def test_summary_is_valid_json_and_deterministic(self, tmp_path, capsys):
        ckpt = sft_checkpoint(tmp_path)
        capsys.readouterr()  # drop the warm-up command's output
        args = ["eval", "--seed", "3", "--checkpoint", str(ckpt),
                "--episodes", "50", "--out", str(tmp_path / "eval")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        summary = json.loads(first)
        assert summary["n_episodes"] == 50
        assert 0.0 <= summary["success_rate"] <= 1.0
        assert summary["sla_violation_rate"] >= 0.0
        assert all(isinstance(v, int) for v in summary["failure_modes"].values())

    def test_failure_modes_count_every_failed_episode(self, tmp_path, capsys):
        cfg_path, ckpt = one_class_config(tmp_path, "ghost", NO_GHOST_AGENT)
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--episodes", "7", "--out", str(tmp_path / "eval")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["failure_modes"] == {"no_agent_for_action": 7}

    def test_zero_episodes_rejected(self, tmp_path, capsys):
        ckpt = sft_checkpoint(tmp_path)
        code = main(["eval", "--checkpoint", str(ckpt), "--episodes", "0",
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
