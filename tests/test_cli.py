import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from agentmesh import cli
from agentmesh.cli import main
from agentmesh.config import MAX_STEPS_LIMIT, load_config
from agentmesh.policy import Decision, load_checkpoint, save_checkpoint, sft_update
from agentmesh.simenv import MAX_LATENCY_MS
from agentmesh.trainer import MAX_EVAL_EPISODES

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

    @pytest.mark.parametrize("episodes", ["0", "-2"])
    def test_bad_episode_count_names_the_flag(self, tmp_path, capsys, episodes):
        ckpt = sft_checkpoint(tmp_path)
        code = main(["eval", "--checkpoint", str(ckpt), "--episodes", episodes,
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        assert capsys.readouterr().err == "error: --episodes: must be >= 1\n"

    def test_an_episode_count_above_the_bound_names_the_flag(self, tmp_path, capsys, monkeypatch):
        # checked before the config, the checkpoint or any per-episode array
        monkeypatch.setattr(cli, "evaluate_policy", None)
        code = main(["eval", "--checkpoint", str(tmp_path / "absent.json"),
                     "--episodes", "1000000000000", "--out", str(tmp_path / "eval")])
        assert code == 1
        assert capsys.readouterr().err == f"error: --episodes: must be <= {MAX_EVAL_EPISODES}\n"


def strict_json(text: str):
    """``json.loads`` that rejects ``Infinity``, ``-Infinity`` and ``NaN``."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


# The slowest agent the config allows: at full load each call takes twice the
# base latency plus the jitter.
SLOWEST_AGENT = {"card_id": "slow", "supported_actions": ["real"],
                 "success_prob": {"real": 0.5}, "load_per_call": 1.0,
                 "latency_base_ms": MAX_LATENCY_MS, "latency_jitter_ms": MAX_LATENCY_MS}


class TestLatencyBound:
    def test_the_longest_evaluation_sums_to_a_finite_latency(self):
        assert math.isfinite(MAX_EVAL_EPISODES * MAX_STEPS_LIMIT * 3 * MAX_LATENCY_MS)

    def test_the_slowest_agent_evaluates_to_strict_json(self, tmp_path, capsys):
        cfg_path, ckpt = one_class_config(tmp_path, "real", SLOWEST_AGENT)
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--episodes", "30", "--out", str(tmp_path / "eval")]) == 0
        summary = strict_json(capsys.readouterr().out)
        # 4 steps, each at most one call
        assert MAX_LATENCY_MS < summary["mean_latency_ms"] <= 4 * 3 * MAX_LATENCY_MS

    @pytest.mark.parametrize("command", ["run", "sft", "train", "eval"])
    @pytest.mark.parametrize("key, value, error", [
        ("env.latency_base_ms", "1e308",
         "env: latency_base_ms 1e+308 must be in (0, 833333333.3333334]"),
        ("env.latency_jitter_ms", "1000000001.0",
         "env: latency_jitter_ms 1000000001.0 of card 'na-agent' must be in [0, 1e+09]"),
        # the protocol-query agent's base latency is 1.2 times the preset's,
        # so the preset's bound is MAX_LATENCY_MS / 1.2, and the error names
        # the value the user wrote
        ("env.latency_base_ms", "900000000.0",
         "env: latency_base_ms 900000000.0 must be in (0, 833333333.3333334]"),
    ])
    def test_a_preset_latency_above_the_bound_names_its_key(self, tmp_path, capsys, command,
                                                           key, value, error):
        code = main([command, "--set", f"{key}={value}", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("field", ["latency_base_ms", "latency_jitter_ms"])
    def test_an_agent_latency_above_the_bound_names_its_agent(self, tmp_path, capsys, field):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "task_classes": [{"name": "only_class", "probability": 1.0,
                              "required_action": "real", "answer_pool": ["x"]}],
            "agents": [{**SLOWEST_AGENT, field: 2 * MAX_LATENCY_MS}]}))
        code = main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "eval")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: agents[0]: {field} 2000000000.0 of card 'slow' ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("command, artifact", [
    (["run", "--seed", "3"], "episodes.jsonl"),
    (["sft", "--set", "sft.steps=2"], "checkpoint.json"),
    (["train", *FAST], "report.csv"),
], ids=["run", "sft", "train"])
def test_an_artifact_that_cannot_be_written_is_a_config_error(tmp_path, command, artifact):
    # a directory where the artifact goes; run in a fresh interpreter so that
    # an uncaught exception shows as the traceback a user would see
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run([sys.executable, "-m", "agentmesh.cli", *command, "--out", str(out)],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: out_dir: cannot write {out / artifact}: ")
    assert "Traceback" not in result.stderr


def run_in_an_ascii_locale(tmp_path, classes, *args):
    """``agentmesh run`` over a world of the task ``classes``, in the C locale
    without UTF-8 mode, which encodes text files and stdout as ASCII."""
    config = {"task_classes": [{"name": name, "probability": 1.0 / len(classes),
                                "required_action": "real", "answer_pool": ["x", "y"]}
                               for name in classes],
              "agents": [{"card_id": "g-1", "supported_actions": ["real"],
                          "success_prob": {"real": 1.0}}]}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_bytes(json.dumps(config, ensure_ascii=False).encode())
    env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONUTF8="0",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = tmp_path / "out"
    result = subprocess.run([sys.executable, "-m", "agentmesh.cli", "run", "--config",
                             str(cfg_path), "--out", str(out), *args],
                            env=env, capture_output=True, timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.startswith(b"task: caf\\xe9-")
    return json.loads((out / "episodes.jsonl").read_bytes())


def test_a_non_ascii_name_runs_in_an_ascii_locale(tmp_path):
    record = run_in_an_ascii_locale(tmp_path, ["café"])
    assert record["episode_id"].startswith("café-")


def test_task_class_names_a_non_ascii_class_in_an_ascii_locale(tmp_path):
    # Python decodes the argument's UTF-8 bytes with surrogate escapes
    record = run_in_an_ascii_locale(tmp_path, ["plain", "café"], "--task-class", "café")
    assert record["episode_id"].startswith("café-")


@pytest.mark.parametrize("artifact, other", [("report.csv", "checkpoint.json"),
                                             ("checkpoint.json", "report.csv")])
@pytest.mark.parametrize("other_exists", [False, True], ids=["other-new", "other-kept"])
def test_train_checks_its_outputs_before_the_first_iteration(tmp_path, capsys, artifact, other,
                                                             other_exists):
    # the check neither truncates an artifact that exists nor leaves one that did not
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    if other_exists:
        (out / other).write_text("earlier run\n")
    code = main(["train", *FAST, "--set", "trainer.checkpoint_every=1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: out_dir: cannot write {out / artifact}: ")
    assert not list(out.glob("checkpoint_*.json"))
    if other_exists:
        assert (out / other).read_text() == "earlier run\n"
    else:
        assert not (out / other).exists()


def test_sft_checks_its_output_before_the_first_step(tmp_path, capsys, monkeypatch):
    (tmp_path / "file").write_text("")
    steps = []

    def counting(*args):
        steps.append(args)
        return sft_update(*args)

    monkeypatch.setattr(cli, "sft_update", counting)
    code = main(["sft", "--set", "sft.steps=50", "--out", str(tmp_path / "file" / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: out_dir: cannot create ")
    assert not steps


@pytest.mark.parametrize("argv", [["eval", "--episodes", "abc"], ["run", "--seed", "x"],
                                  ["train", "--bogus"], ["frobnicate"]],
                         ids=["bad-int", "bad-seed", "unknown-flag", "unknown-command"])
def test_a_usage_error_exits_as_a_config_error(capsys, argv):
    # exit 2 is a failed episode; a mistyped command line is a usage error
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 1
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert err.splitlines()[-1].startswith("agentmesh")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["eval", "--help"])
    assert raised.value.code == 0
    assert "--episodes" in capsys.readouterr().out
