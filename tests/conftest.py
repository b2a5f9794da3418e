import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from agentmesh.config import default_policy_spec
from agentmesh.simenv import preset_case_study


@pytest.fixture
def world():
    return preset_case_study()


@pytest.fixture
def spec(world):
    return default_policy_spec(world, max_steps=4)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def gradient_calls(monkeypatch):
    """``gradient_calls(module)`` records the (observation, action index) of
    each ``log_prob_and_grad`` call made through ``module``'s binding."""
    def record(module):
        calls = []
        real = module.log_prob_and_grad

        def recording(theta, spec, obs, action_index):
            calls.append((obs, action_index))
            return real(theta, spec, obs, action_index)

        monkeypatch.setattr(module, "log_prob_and_grad", recording)
        return calls
    return record


@pytest.fixture
def streams_built(monkeypatch):
    """The seed of each ``np.random.default_rng`` call made from here on, in
    order: the streams built, whatever holds them."""
    seeds = []
    real = np.random.default_rng

    def recording(seed=None):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    return seeds
