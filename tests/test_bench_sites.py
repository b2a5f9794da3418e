"""The benchmark's traced run wraps program functions by module and name
(``bench/workloads.py``). These tests keep every wrapped site bound and
called, so a change that renames or bypasses one fails here."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans
import workloads
from agentmesh import config, orchestrator, policy, trainer


def test_every_wrapped_site_is_bound():
    tracer = spans.Tracer()
    workloads.instrument(tracer)  # raises for a site that is gone or rebound
    with tracer.installed():
        pass


def test_every_wrapped_site_is_called():
    tracer = spans.Tracer()
    workloads.instrument(tracer)
    with tracer.installed():
        cfg = config.load_config(overrides=["trainer.iterations=2"])
        spec = cfg.policy_spec
        samples = orchestrator.make_warmup_dataset(
            cfg.world.generator, spec, 10, np.random.default_rng(0))
        policy.sft_update(spec.zero_params(), spec, samples, cfg.sft.learning_rate)
        theta, _ = trainer.train(cfg.world, spec, cfg.trainer, cfg.reward_weights,
                                 cfg.router_weights, cfg.seed)
        trainer.evaluate_policy(cfg.world, spec, theta, cfg.router_weights,
                                n_episodes=5, seed=cfg.seed)
    uncalled = [name for name, totals in tracer.layer_totals().items() if totals["calls"] == 0]
    uncalled += [key for key, n in tracer.counts.items() if key.endswith(".calls") and n == 0]
    assert uncalled == []
