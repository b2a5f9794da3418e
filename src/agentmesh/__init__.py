"""Collaborative-reasoning sandbox.

A reasoning core decides per step whether to answer a task directly or to
delegate to a specialized agent discovered through a protocol-agnostic
registry and selected by deterministic weighted routing. Episodes produce
masked trajectories scored by a multi-objective reward, and the decision
policy is refined with group-relative policy gradients under entropy-guided
exploration control.
"""

from .errors import AgentMeshError, BadConfig
from .policy import ActionSpace, Decision, Observation, PolicySpec
from .registry import AgentCard, AgentMetrics, Registry
from .rewards import NoveltyLedger, RewardVector, RewardWeights, scalarize
from .router import RoutingWeights, route, score
from .simenv import GeneratorConfig, SimEnv, TaskClass, TaskSpec, WorldConfig, preset_case_study, sample_task
from .trainer import (
    ExplorationConfig,
    TrainerConfig,
    TrainingReport,
    evaluate_policy,
    group_advantage,
    train,
)
from .trajectory import FailureReport, Segment, Trajectory, validate

__all__ = [
    "AgentCard",
    "AgentMetrics",
    "AgentMeshError",
    "ActionSpace",
    "BadConfig",
    "Decision",
    "ExplorationConfig",
    "FailureReport",
    "GeneratorConfig",
    "NoveltyLedger",
    "Observation",
    "PolicySpec",
    "Registry",
    "RewardVector",
    "RewardWeights",
    "RoutingWeights",
    "Segment",
    "SimEnv",
    "TaskClass",
    "TaskSpec",
    "TrainerConfig",
    "TrainingReport",
    "Trajectory",
    "WorldConfig",
    "evaluate_policy",
    "group_advantage",
    "preset_case_study",
    "route",
    "sample_task",
    "scalarize",
    "score",
    "train",
    "validate",
]
