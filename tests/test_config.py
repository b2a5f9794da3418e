"""Input files through the CLI: every bad config, ``--set``, card-file,
dataset or checkpoint input exits 1 with one ``error:`` line that names its
key, and no input escapes as a traceback."""

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from agentmesh import cli
from agentmesh.cli import main
from agentmesh.config import load_cards, load_config
from agentmesh.trainer import MAX_GROUP_SIZE

TASK = {"name": "t", "probability": 1.0, "required_action": "a", "answer_pool": ["x"]}
AGENT = {"card_id": "c1", "supported_actions": ["a"], "success_prob": {"a": 1.0}}


def run_cli(args, capsys):
    code = main(["run", "--out", "out", *args])
    return code, capsys.readouterr().err


def assert_config_error(code, err, message_start):
    assert code == 1
    assert err.splitlines() == [err.strip()], err
    assert err.startswith(f"error: {message_start}"), err


OVERRIDE_CASES = {
    "string max_steps": ('max_steps="abc"', "max_steps: must be a number"),
    "string group_size": ('trainer.group_size="x"', "trainer.group_size: must be a number"),
    "fractional group_size": ("trainer.group_size=2.5", "trainer.group_size: must be an integer"),
    "boolean seed": ("seed=true", "seed: must be a number"),
    "success above 1": ("env.agent_success=1.5", "env: agent_success"),
    "env not an object": ("env=3", "env: must be an object"),
    "answer_tokens not a list": ("policy.answer_tokens=5", "policy.answer_tokens: must be a list"),
    "answer token not a string": ("policy.answer_tokens=[1]",
                                  "policy.answer_tokens[0]: must be a string"),
    "numeric out_dir": ("out_dir=5", "out_dir: must be a string"),
    "NaN routing weight": ("router.w_load=NaN", "router.w_load: must be finite"),
    "infinite reward weight": ("rewards.lambda_acc=Infinity", "rewards.lambda_acc: must be finite"),
    "NaN learning rate": ("trainer.learning_rate=NaN", "trainer.learning_rate: must be finite"),
    "overflowing entropy bonus": ("trainer.entropy_bonus=1e400",
                                  "trainer.entropy_bonus: must be finite"),
    "negative class probability": ("env.class_probs=[2,-1,0]", "env: probability"),
    "negative seed": ("seed=-1", "seed must be >= 0"),
    "negative checkpoint_every": ("trainer.checkpoint_every=-3",
                                  "trainer: checkpoint_every must be >= 0"),
    "zero sft steps": ("sft.steps=0", "sft: steps must be >= 1"),
    "zero sft learning rate": ("sft.learning_rate=0", "sft: learning_rate must be > 0"),
    "negative learning rate": ("trainer.learning_rate=-1", "trainer: learning_rate must be >= 0"),
    "negative entropy bonus": ("trainer.entropy_bonus=-1", "trainer: entropy_bonus must be >= 0"),
    "two class probabilities": ("env.class_probs=[0.5,0.5]",
                                "env: case-study preset takes exactly three class probabilities"),
    "huge max_steps": ("max_steps=1e30", "max_steps: must be in"),
    "control tag as answer token": ('policy.answer_tokens=["<action>"]', "policy: control tags"),
    "duplicate answer token": ('policy.answer_tokens=["ack","ack"]',
                               "policy: answer tokens and action types must not repeat"),
    "reserved marker as answer token": ('policy.answer_tokens=["ack","noise"]',
                                        "policy: reserved tokens cannot be actions"),
    # a direct class and an agent that serves no class leave one action
    "one-action policy": (('task_classes=[{"name":"d","probability":1.0,"answer_pool":["ack"]}]',
                           'agents=[{"card_id":"a","supported_actions":["x"],'
                           '"success_prob":{"x":0.9}}]',
                           'policy.answer_tokens=["ack"]'),
                          "policy: the action space needs at least two actions"),
}


@pytest.mark.parametrize("override,message", OVERRIDE_CASES.values(), ids=OVERRIDE_CASES.keys())
def test_bad_override_names_its_key(override, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    overrides = (override,) if type(override) is str else override
    args = [arg for item in overrides for arg in ("--set", item)]
    assert_config_error(*run_cli(args, capsys), message)


FILE_CASES = {
    "top level not an object": ([1], None, "config: must be an object"),
    "task class without name": (
        {"task_classes": [{k: v for k, v in TASK.items() if k != "name"}], "agents": [AGENT]},
        None, "task_classes[0].name: required"),
    # --task-class would force both to probability 1
    "two task classes with one name": (
        {"task_classes": [{**TASK, "probability": 0.5}] * 2, "agents": [AGENT]},
        None, "task_classes[1].name: duplicate class name 't'"),
    "empty task class name": (
        {"task_classes": [{**TASK, "name": ""}], "agents": [AGENT]},
        None, "task_classes[0]: name must be nonempty"),
    "zero deadline": (
        {"task_classes": [{**TASK, "sla_deadline_ms": 0}], "agents": [AGENT]},
        None, "task_classes[0]: sla_deadline_ms must be positive"),
    "empty card id": (
        {"task_classes": [TASK], "agents": [{**AGENT, "card_id": ""}]},
        None, "agents[0]: card_id must be nonempty"),
    "success probability above 1": (
        {"task_classes": [TASK], "agents": [{**AGENT, "success_prob": {"a": 1.5}}]},
        None, "agents[0]: success probabilities must be in [0, 1]"),
    "negative card cost": (
        {"task_classes": [TASK], "agents": [{**AGENT, "cost": -1}]},
        None, "agents[0]: cost must be finite and >= 0"),
    "load per call above 1": (
        {"task_classes": [TASK], "agents": [{**AGENT, "load_per_call": 2}]},
        None, "agents[0]: load_per_call must be in [0, 1]"),
    "card accuracy above 1": (
        {"task_classes": [TASK], "registry_cards": "cards.json", "agents": [AGENT]},
        [{**AGENT, "metrics": {"historical_accuracy": 1.5}}],
        "registry_cards[0].metrics: historical_accuracy must be in [0, 1]"),
    "negative card latency": (
        {"task_classes": [TASK], "registry_cards": "cards.json", "agents": [AGENT]},
        [{**AGENT, "metrics": {"avg_latency_ms": -1}}],
        "registry_cards[0].metrics: latency and sample_count must be >= 0"),
    "agent success_prob not an object": (
        {"task_classes": [TASK], "agents": [{**AGENT, "success_prob": [1.0]}]},
        None, "agents[0].success_prob: must be an object"),
    "two agents with one card id": (
        {"task_classes": [TASK], "agents": [AGENT, AGENT]},
        None, "agents[1].card_id: duplicate card id"),
    "two a2a agents with one agent id": (
        {"task_classes": [TASK],
         "agents": [{"protocol_tag": "a2a", "agent_id": "c1", "capabilities": ["a"],
                     "success_prob": {"a": 1.0}}] * 2},
        None, "agents[1].agent_id: duplicate card id 'c1'"),
    "card entry without supported_actions": (
        {"task_classes": [TASK], "registry_cards": "cards.json",
         "agents": [{"card_id": "c1", "success_prob": {"a": 1.0}}]},
        [{"card_id": "c1"}], "registry_cards[0].supported_actions: required"),
    "card metrics out of range": (
        {"task_classes": [TASK], "registry_cards": "cards.json", "agents": [AGENT]},
        [{**AGENT, "metrics": {"load": 2.0}}], "registry_cards[0].metrics: load"),
    "missing card file": (
        {"task_classes": [TASK], "registry_cards": "missing.json", "agents": [AGENT]},
        None, "registry_cards: cannot read missing.json"),
    "control tag in a direct answer pool": (
        {"task_classes": [{"name": "d", "probability": 1.0, "answer_pool": ["<ans>"]}],
         "agents": [AGENT]},
        None, "task_classes[0]: answer_pool and required_action must not be control tags"),
    "control tag as required action": (
        {"task_classes": [{**TASK, "required_action": "</action>"}], "agents": [AGENT]},
        None, "task_classes[0]: answer_pool and required_action must not be control tags"),
    "control tag in a delegated answer pool": (
        {"task_classes": [{**TASK, "answer_pool": ["<ans>"]}], "agents": [AGENT]},
        None, "task_classes[0]: answer_pool and required_action must not be control tags"),
    # an agent that always fails answers "wrong", which would score as correct
    "reserved marker in a delegated answer pool": (
        {"task_classes": [{**TASK, "answer_pool": ["wrong"]}],
         "agents": [{**AGENT, "success_prob": {"a": 0.0}}]},
        None, "task_classes[0]: answer_pool and required_action must not be reserved tokens"),
    "relay marker in a direct answer pool": (
        {"task_classes": [{"name": "d", "probability": 1.0, "answer_pool": ["relay_answer"]}],
         "agents": [AGENT]},
        None, "task_classes[0]: answer_pool and required_action must not be reserved tokens"),
    "reserved marker as required action": (
        {"task_classes": [{**TASK, "required_action": "sys_agent_success"}], "agents": [AGENT]},
        None, "task_classes[0]: answer_pool and required_action must not be reserved tokens"),
    "two cards with one card id": (
        {"task_classes": [TASK], "registry_cards": "cards.json", "agents": [AGENT]},
        [AGENT, {"protocol_tag": "acp", "name": "c1", "supported_ops": ["a"]}],
        "registry_cards[1]: duplicate card id 'c1'"),
    "unknown card protocol": (
        {"task_classes": [TASK], "registry_cards": "cards.json", "agents": [AGENT]},
        [{**AGENT, "protocol_tag": "no-such-protocol"}],
        "registry_cards[0].protocol_tag: unknown protocol 'no-such-protocol'"),
    "unknown agent protocol": (
        {"task_classes": [TASK], "agents": [{**AGENT, "protocol_tag": "A2A"}]},
        None, "agents[0].protocol_tag: unknown protocol 'A2A'"),
    "a2a card without its id": (
        {"task_classes": [TASK], "registry_cards": "cards.json", "agents": [AGENT]},
        [{"protocol_tag": "a2a", "card_id": "c1", "capabilities": ["a"]}],
        "registry_cards[0].agent_id: required"),
    "a2a card without its actions": (
        {"task_classes": [TASK], "registry_cards": "cards.json", "agents": [AGENT]},
        [{"protocol_tag": "a2a", "agent_id": "c1", "url": "x"}],
        "registry_cards[0].capabilities: required"),
    "acp card without its actions": (
        {"task_classes": [TASK], "registry_cards": "cards.json", "agents": [AGENT]},
        [{"protocol_tag": "acp", "name": "c1", "supported_actions": ["a"]}],
        "registry_cards[0].supported_ops: required"),
    "anp agent without its actions": (
        {"task_classes": [TASK],
         "agents": [{"protocol_tag": "anp", "identifier": "c1", "success_prob": {"a": 1.0}}]},
        None, "agents[0].action_types: required"),
    "string action list": (
        {"task_classes": [TASK], "registry_cards": "cards.json", "agents": [AGENT]},
        [{"protocol_tag": "anp", "identifier": "c1", "action_types": "a,b"}],
        "registry_cards[0].action_types: must be a list"),
    "string card cost": (
        {"task_classes": [TASK], "registry_cards": "cards.json", "agents": [AGENT]},
        [{**AGENT, "cost": "0.5"}], "registry_cards[0].cost: must be a number"),
    "infinite card cost": (
        {"task_classes": [TASK], "agents": [{**AGENT, "cost": 1e400}]},
        None, "agents[0].cost: must be finite"),
    "NaN card cost": (
        {"task_classes": [TASK], "registry_cards": "cards.json", "agents": [AGENT]},
        [{**AGENT, "cost": float("nan")}], "registry_cards[0].cost: must be finite"),
    "card file path with a NUL byte": (
        {"task_classes": [TASK], "registry_cards": "x\0y.json", "agents": [AGENT]},
        None, "registry_cards: cannot read x\\x00y.json: embedded null byte"),
    # the path prints escaped, so that the error stays on one line
    "card file path with a newline": (
        {"task_classes": [TASK], "registry_cards": "a\nb.json", "agents": [AGENT]},
        None, "registry_cards: cannot read a\\nb.json: "),
}


@pytest.mark.parametrize("config,cards,message", FILE_CASES.values(), ids=FILE_CASES.keys())
def test_bad_config_file_names_its_key(config, cards, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    if cards is not None:
        (tmp_path / "cards.json").write_text(json.dumps(cards))
    assert_config_error(*run_cli(["--config", "config.json"], capsys), message)


# out_dir is read from the config only without --out, which run_cli passes
@pytest.mark.parametrize("command", [["run"], ["sft", "--set", "sft.steps=1"],
                                     ["train", "--set", "trainer.iterations=1"]],
                         ids=["run", "sft", "train"])
@pytest.mark.parametrize("source", ["override", "config file"])
def test_an_out_dir_with_a_nul_byte_is_a_config_error(command, source, tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({"out_dir": "x\0y"}))
    args = (["--config", "config.json"] if source == "config file"
            else ["--set", 'out_dir="x\\u0000y"'])
    assert_config_error(main([*command, *args]), capsys.readouterr().err,
                        "out_dir: cannot create x\\x00y: embedded null byte")


@pytest.mark.parametrize("key, message", [
    ("out_dir", "out_dir: cannot create caf\\xe9: "),
    ("registry_cards", "registry_cards: cannot read caf\\xe9.json: "),
], ids=["out_dir", "registry_cards"])
def test_a_path_the_locale_cannot_encode_is_a_config_error(key, message, tmp_path):
    # the C locale without UTF-8 mode encodes file names as ASCII; run in a
    # fresh interpreter so that an uncaught exception shows as a traceback
    config = {"task_classes": [TASK], "agents": [AGENT],
              key: "café.json" if key == "registry_cards" else "café"}
    (tmp_path / "config.json").write_text(json.dumps(config))
    env = {name: value for name, value in os.environ.items() if name != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONUTF8="0",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-m", "agentmesh.cli", "run", "--config",
                             "config.json"],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert_config_error(result.returncode, result.stderr, message)


# The preset policy reads 3 features, 4 steps and 4 actions: its parameter
# matrix is 4 x (3 + 4 + 3).
DEMO = {"features": [1.0, 0.0, 0.0], "step": 0, "last_outcome": "none", "demo_action": 0}
DEMOS = [DEMO, {"features": [0.0, 0.5, 0.0], "step": 3, "last_outcome": "agent_failure",
                "demo_action": 3}]
CHECKPOINT = {"shape": [4, 10], "values": [round(0.1 * (i % 7) - 0.3, 1) for i in range(40)]}
SFT = ["sft", "data.jsonl", "--set", "sft.steps=2"]
EVAL = ["eval", "--checkpoint", "ckpt.json", "--episodes", "5"]


def dataset(lines) -> str:
    return "".join(json.dumps(line) + "\n" for line in lines)


def bad_demo(**values) -> dict[str, str]:
    """A dataset whose second line holds ``values``."""
    return {"data.jsonl": dataset([DEMO, {**DEMO, **values}])}


def bad_checkpoint(**values) -> dict[str, str]:
    return {"ckpt.json": json.dumps({**CHECKPOINT, **values})}


INPUT_CASES = {
    "string features": (SFT, bad_demo(features="100"), "bad dataset line 2: features: must be a list"),
    "string NaN feature": (SFT, bad_demo(features=["nan", 0, 0]),
                           "bad dataset line 2: features[0]: must be a number"),
    "numeric string feature": (SFT, bad_demo(features=[0, "1", 0]),
                               "bad dataset line 2: features[1]: must be a number"),
    "boolean feature": (SFT, bad_demo(features=[True, 0, 0]),
                        "bad dataset line 2: features[0]: must be a number"),
    "infinite feature": (SFT, bad_demo(features=[float("inf"), 0, 0]),
                         "bad dataset line 2: features[0]: must be finite"),
    "huge features": (SFT, bad_demo(features=[1e308, 1e308, 0]),
                      "bad dataset line 2: features[0]: must be in [-1, 1]"),
    "fractional step": (SFT, bad_demo(step=1.7), "bad dataset line 2: step: must be an integer"),
    "boolean step": (SFT, bad_demo(step=True), "bad dataset line 2: step: must be a number"),
    "fractional demo_action": (SFT, bad_demo(demo_action=2.9),
                               "bad dataset line 2: demo_action: must be an integer"),
    "string demo_action": (SFT, bad_demo(demo_action="2"),
                           "bad dataset line 2: demo_action: must be a number"),
    "step past the budget": (SFT, {"data.jsonl": dataset([{**DEMO, "step": 9}])},
                             "bad dataset line 1: step: 9 is out of range [0, 4)"),
    "negative step": (SFT, {"data.jsonl": dataset([{**DEMO, "step": -1}])},
                      "bad dataset line 1: step: -1 is out of range [0, 4)"),
    "two features": (SFT, {"data.jsonl": dataset([{**DEMO, "features": [1.0, 0.0]}])},
                     "bad dataset line 1: features: 2 values, the policy reads 3"),
    "unknown last_outcome": (SFT, {"data.jsonl": dataset([{**DEMO, "last_outcome": "x"}])},
                             "bad dataset line 1: last_outcome: 'x' is not one of"),
    "line not an object": (SFT, {"data.jsonl": dataset([DEMO, [1, 2]])},
                           "bad dataset line 2: must be an object"),
    "empty dataset": (SFT, {"data.jsonl": ""}, "bad dataset line 0: dataset is empty"),
    "string checkpoint values": (EVAL, bad_checkpoint(values=["0.5"] * 40),
                                 "checkpoint.values[0]: must be a number"),
    "boolean checkpoint values": (EVAL, bad_checkpoint(values=[True] * 40),
                                  "checkpoint.values[0]: must be a number"),
    "inferred checkpoint dimension": (EVAL, bad_checkpoint(shape=[-1, 10]),
                                      "checkpoint: shape (-1, 10) does not match the policy's"),
    "policy without the warm-up answer": (["sft", "--set", "policy.answer_tokens=[]"], {},
                                          "policy.answer_tokens: the warm-up demonstrates the answer 'ack'"),
    "config not JSON": (["run", "--config", "config.json"], {"config.json": "{"},
                        "config: config.json is not valid JSON"),
    # "café" in Latin-1: JSON is read as UTF-8, whatever the locale
    "config not UTF-8": (["run", "--config", "config.json"],
                         {"config.json": b'{"task_classes": [{"name": "caf\xe9"}]}'},
                         "config: config.json is not valid JSON"),
    "cards not UTF-8": (["run", "--config", "config.json"],
                        {"config.json": json.dumps({"task_classes": [TASK], "agents": [AGENT],
                                                    "registry_cards": "cards.json"}),
                         "cards.json": b'[{"card_id": "caf\xe9"}]'},
                        "registry_cards: cards.json is not valid JSON"),
    "checkpoint not UTF-8": (EVAL, {"ckpt.json": b'{"shape": [4, 10], "note": "caf\xe9"}'},
                             "checkpoint: ckpt.json is not valid JSON"),
    "dataset not UTF-8": (SFT, {"data.jsonl": b'{"last_outcome": "caf\xe9"}\n'},
                          "bad dataset line 1: 'utf-8' codec can't decode byte 0xe9"),
    # the preset builds the protocol-query agent at 1.2 times this value
    "preset latency whose 1.2 times exceeds the bound": (
        ["run", "--set", "env.latency_base_ms=9e8"], {},
        "env: latency_base_ms 900000000.0 must be in (0, 833333333.3333334]"),
    "override without =": (["run", "--set", "foo"], {},
                           "override 'foo' is not of the form key=value"),
    "out_dir inside a file": (["run", "--out", "file/out"], {"file": ""},
                              "out_dir: cannot create file/out"),
    "out_dir with a newline inside a file": (["run", "--out", "file/a\nb"], {"file": ""},
                                             "out_dir: cannot create file/a\\nb: "),
}


@pytest.mark.parametrize("argv,files,message", INPUT_CASES.values(), ids=INPUT_CASES.keys())
@pytest.mark.filterwarnings("error")
def test_bad_input_file_names_its_key(argv, files, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    assert_config_error(main(argv), capsys.readouterr().err, message)


# Weights that are each finite but whose scalar reward, or the spread of a
# group of scalar rewards, overflows.
OVERFLOW_CASES = {
    "scalar reward": ["run", "--set", "rewards.lambda_acc=1e308", "--set", "rewards.lambda_qos=1e308"],
    "group spread": ["train", "--set", "rewards.lambda_acc=1e300", "--set", "trainer.iterations=5"],
}


@pytest.mark.parametrize("argv", OVERFLOW_CASES.values(), ids=OVERFLOW_CASES.keys())
def test_overflowing_reward_weights_rejected(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main([*argv, "--seed", "3", "--out", "out"])
    assert_config_error(code, capsys.readouterr().err, "rewards: ")


def test_branch_factor_below_two_rejected(tmp_path, monkeypatch, capsys):
    # a factor of 1 was accepted and then ran branch groups of 2
    monkeypatch.chdir(tmp_path)
    code = main(["train", "--out", "out", "--set", "trainer.branch_factor=1",
                 "--set", "trainer.iterations=2"])
    assert_config_error(code, capsys.readouterr().err, "trainer: branch_factor must be >= 2")


@pytest.mark.parametrize("key", ["group_size", "branch_factor"])
@pytest.mark.parametrize("value", [str(MAX_GROUP_SIZE + 1), "1e308"])
def test_a_group_size_above_the_bound_rejected(tmp_path, monkeypatch, capsys, key, value):
    # 1e308 reads as the integer 10**308; training is never reached, so
    # nothing of that size can be allocated
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "train", None)
    code = main(["train", "--out", "out", "--set", f"trainer.{key}={value}"])
    assert_config_error(code, capsys.readouterr().err,
                        f"trainer: {key} must be <= {MAX_GROUP_SIZE}")


def test_overflowing_router_weights_rejected(tmp_path, monkeypatch, capsys):
    # w_cost * cost overflows, so every score of the only card is -inf
    monkeypatch.chdir(tmp_path)
    config = {"task_classes": [TASK], "agents": [{**AGENT, "cost": 2.0}]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    code, err = run_cli(["--config", "config.json", "--seed", "3",
                         "--set", "router.w_cost=1e308"], capsys)
    assert_config_error(code, err, "router: ")


def test_card_file_supplies_cards_and_metric_priors(tmp_path):
    cards = [{"agent_id": "c1", "protocol_tag": "a2a", "capabilities": ["a"], "cost": 0.5,
              # unknown keys such as throughput_rps are ignored
              "metrics": {"load": 0.3, "historical_accuracy": 0.7, "throughput_rps": 9.0}}]
    (tmp_path / "cards.json").write_text(json.dumps(cards))
    config = {"task_classes": [TASK], "registry_cards": str(tmp_path / "cards.json"),
              "agents": [{"card_id": "c1", "success_prob": {"a": 1.0}}]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    world = load_config(tmp_path / "config.json").world
    (agent,) = world.agents
    assert (agent.card.protocol_tag, agent.card.cost, agent.latency_base_ms) == ("a2a", 0.5, 50.0)
    ((_, metrics),) = world.build_registry().discover("a")
    assert (metrics.load, metrics.historical_accuracy, metrics.sample_count) == (0.3, 0.7, 0)


# One card per protocol, each in its own spelling, and the same four cards
# in native spelling.
SPELLED_CARDS = [
    {"card_id": "n-1", "supported_actions": ["a"], "endpoint": "local://n", "cost": 0.1},
    {"protocol_tag": "a2a", "agent_id": "a-1", "capabilities": ["a", "b"], "url": "grpc://a",
     "cost": 0.2, "metrics": {"load": 0.5, "historical_accuracy": 0.9}},
    {"protocol_tag": "acp", "name": "c-1", "supported_ops": ["b"], "address": "http://c"},
    {"protocol_tag": "anp", "identifier": "p-1", "action_types": ["a"], "locator": "http://p",
     "metrics": {"avg_latency_ms": 30.0}},
]
NATIVE_CARDS = [
    {"card_id": "n-1", "supported_actions": ["a"], "endpoint": "local://n", "cost": 0.1},
    {"card_id": "a-1", "supported_actions": ["a", "b"], "endpoint": "grpc://a", "cost": 0.2,
     "metrics": {"load": 0.5, "historical_accuracy": 0.9}},
    {"card_id": "c-1", "supported_actions": ["b"], "endpoint": "http://c"},
    {"card_id": "p-1", "supported_actions": ["a"], "endpoint": "http://p",
     "metrics": {"avg_latency_ms": 30.0}},
]


def test_every_protocol_spelling_loads_the_same_cards(tmp_path):
    (tmp_path / "spelled.json").write_text(json.dumps(SPELLED_CARDS))
    (tmp_path / "native.json").write_text(json.dumps(NATIVE_CARDS))
    spelled = load_cards(tmp_path / "spelled.json")
    assert [card.protocol_tag for card, _ in spelled] == ["native", "a2a", "acp", "anp"]
    assert [(replace(card, protocol_tag="native"), metrics) for card, metrics in spelled] == (
        load_cards(tmp_path / "native.json"))


@pytest.mark.parametrize("spelled,native", zip(SPELLED_CARDS, NATIVE_CARDS),
                         ids=["native", "a2a", "acp", "anp"])
def test_inline_agent_reads_its_protocol_spelling(spelled, native, tmp_path):
    action = native["supported_actions"][0]
    config = {"task_classes": [{**TASK, "required_action": action}],
              "agents": [{**spelled, "success_prob": {action: 1.0}}]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    (tmp_path / "native.json").write_text(json.dumps([native]))
    (agent,) = load_config(tmp_path / "config.json").world.agents
    assert agent.card.protocol_tag == spelled.get("protocol_tag", "native")
    ((card, _),) = load_cards(tmp_path / "native.json")
    assert replace(agent.card, protocol_tag="native") == card


def test_explicit_world_defaults(tmp_path):
    direct = {"name": "d", "probability": 0.5, "answer_pool": ["ack"]}
    config = {"task_classes": [direct, {**TASK, "probability": 0.5}], "agents": [AGENT]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    world = load_config(tmp_path / "config.json").world
    assert [(c.required_action, c.sla_deadline_ms) for c in world.generator.classes] == [
        (None, 500.0), ("a", 500.0)]
    (agent,) = world.agents
    assert (agent.card.protocol_tag, agent.card.endpoint, agent.card.cost) == ("native", "", 0.0)
    assert (agent.latency_base_ms, agent.latency_jitter_ms, agent.load_per_call) == (50.0, 0.0, 0.1)


# Every key the config format reads, as a --set path.
CONFIG_KEYS = [
    "seed", "max_steps", "profile", "out_dir",
    "env", "env.class_probs", "env.agent_success", "env.latency_base_ms",
    "env.latency_jitter_ms", "env.load_per_call",
    "task_classes", "agents", "registry_cards",
    "policy", "policy.answer_tokens",
    "router", "router.w_load", "router.w_accuracy", "router.w_latency",
    "router.latency_ref_ms", "router.w_cost",
    "rewards", "rewards.lambda_acc", "rewards.lambda_fmt", "rewards.lambda_eff",
    "rewards.lambda_qos", "rewards.lambda_exp",
    "trainer", "trainer.group_size", "trainer.learning_rate", "trainer.iterations",
    "trainer.checkpoint_every", "trainer.entropy_high_threshold", "trainer.entropy_floor",
    "trainer.branch_factor", "trainer.entropy_bonus",
    "sft", "sft.steps", "sft.learning_rate",
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)
overrides = st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), json_values), max_size=4)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(overrides)
def test_any_override_list_exits_cleanly(tmp_path, monkeypatch, capsys, pairs):
    # relative paths among the values resolve inside an empty directory
    monkeypatch.chdir(tmp_path)
    args = []
    for key, value in pairs:
        args += ["--set", f"{key}={json.dumps(value)}"]
    code, err = run_cli(args, capsys)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ")


# Keys that scale the work of one train iteration; the pipeline fuzz keeps
# their numbers small, and pins iterations and SFT steps after every override.
WORK_KEYS = {"trainer.group_size", "trainer.branch_factor"}
SMALL_WORK = ["--set", "trainer.iterations=2", "--set", "sft.steps=2"]


def small_work(pair):
    key, value = pair
    return not (key in WORK_KEYS and type(value) in (int, float) and value > 16)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), json_values).filter(small_work),
                max_size=4))
@example([("sft.learning_rate", 1e308)])
@example([("trainer.learning_rate", 1e308)])
def test_sft_train_eval_pipeline_exits_cleanly(tmp_path, monkeypatch, capsys, pairs):
    monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
    args = [arg for key, value in pairs for arg in ("--set", f"{key}={json.dumps(value)}")]
    args += SMALL_WORK
    for command in (["sft", "--out", "sft"],
                    ["train", "--checkpoint", "sft/checkpoint.json", "--out", "train"],
                    ["eval", "--checkpoint", "train/checkpoint.json", "--episodes", "5"]):
        code = main([*command, *args])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code == 1:
            assert err.startswith("error: "), err


# An explicit world whose second agent takes its card from the card file.
WORLD = {
    "config.json": {
        "task_classes": [{**TASK, "sla_deadline_ms": 100.0}],
        "agents": [{**AGENT, "latency_base_ms": 20.0, "latency_jitter_ms": 1.0,
                    "load_per_call": 0.2},
                   {"card_id": "c2", "success_prob": {"a": 0.9}}],
        "registry_cards": "cards.json",
    },
    "cards.json": [{"agent_id": "c2", "protocol_tag": "a2a", "capabilities": ["a"],
                    "url": "e", "cost": 0.5,
                    "metrics": {"load": 0.5, "historical_accuracy": 0.9, "avg_latency_ms": 10.0}}],
}


def paths(node, prefix=()):
    """The key path of ``node`` and of every value inside it."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from paths(child, prefix + (key,))


WORLD_PATHS = [(name, path) for name, doc in WORLD.items() for path in paths(doc) if path]
DROP = object()


def replaced(doc, path, value):
    """A copy of ``doc`` whose value at ``path`` is ``value``, or is gone for DROP."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def test_card_file_path_is_relative_to_the_config_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for file, doc in WORLD.items():
        (tmp_path / "sub" / file).write_text(json.dumps(doc))
    code, err = run_cli(["--config", "sub/config.json"], capsys)
    assert code == 0, err


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(WORLD_PATHS), st.just(DROP) | json_values)
def test_world_with_one_bad_value_exits_cleanly(tmp_path, monkeypatch, capsys, where, value):
    monkeypatch.chdir(tmp_path)
    name, path = where
    docs = {**WORLD, name: replaced(WORLD[name], path, value)}
    for file, doc in docs.items():
        (tmp_path / file).write_text(json.dumps(doc))
    code, err = run_cli(["--config", "config.json"], capsys)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ")


INPUT_DOCS = {"data.jsonl": DEMOS, "ckpt.json": CHECKPOINT}
# each file as often as the other, though the checkpoint holds more values
input_paths = st.one_of(*(st.sampled_from([(name, path) for path in paths(doc) if path])
                          for name, doc in INPUT_DOCS.items()))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(input_paths, st.just(DROP) | json_values)
@example(("data.jsonl", (1, "features", 0)), 1e308)
@example(("ckpt.json", ("values", 0)), 1e308)
@pytest.mark.filterwarnings("error")
def test_input_file_with_one_bad_value_exits_cleanly(tmp_path, monkeypatch, capsys, where, value):
    monkeypatch.chdir(tmp_path)
    name, path = where
    doc = replaced(INPUT_DOCS[name], path, value)
    if name == "data.jsonl":
        (tmp_path / name).write_text(dataset(doc))
        code = main(SFT)
    else:
        (tmp_path / name).write_text(json.dumps(doc))
        code = main(EVAL)
    err = capsys.readouterr().err
    assert code in (0, 1)
    if code == 1:
        assert err.splitlines() == [err.strip()], err
        # only the changed line can be at fault
        expected = f"error: bad dataset line {path[0] + 1}: " if name == "data.jsonl" else "error: "
        assert err.startswith(expected), err
