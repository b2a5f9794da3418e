"""One orchestrated episode, segment by segment.

Runs a delegation episode on the bundled case-study world with a hand-built
policy (delegate first, then relay the helper's verdict), printing the masked
trajectory, the loss mask, and the reward decomposition.
"""

import numpy as np

from agentmesh.config import default_policy_spec
from agentmesh.orchestrator import execute_episode
from agentmesh.policy import Decision
from agentmesh.rewards import NoveltyLedger, RewardWeights, episode_reward, scalarize
from agentmesh.router import RoutingWeights
from agentmesh.simenv import preset_case_study, sample_task
from agentmesh.vocab import RELAY_ANSWER


def delegate_then_relay(spec):
    """Delegate network analysis at step 0, relay the answer afterwards."""
    theta = spec.zero_params()
    delegate = spec.actions.index_of(Decision.delegate("network_analysis"))
    relay = spec.actions.index_of(Decision.answer(RELAY_ANSWER))
    theta[delegate, spec.feature_dim + 0] = 60.0
    for step in range(1, spec.max_steps):
        theta[relay, spec.feature_dim + step] = 60.0
    return theta


def main():
    world = preset_case_study()
    spec = default_policy_spec(world, max_steps=4)

    rng = np.random.default_rng(7)
    task = sample_task(world.generator, rng)
    while task.task_class.required_action != "network_analysis":
        task = sample_task(world.generator, rng)
    print(f"task {task.task_id}: requires {task.task_class.required_action!r}, "
          f"ground truth {task.ground_truth!r}, "
          f"SLA {task.task_class.sla_deadline_ms:.0f}ms")

    traj, outcome, steps = execute_episode(
        task, delegate_then_relay(spec), spec, world.build_registry(),
        RoutingWeights(), world.build_env([7, 0]), np.random.default_rng([7, 1]))

    print("\ntrajectory (loss-masked segments marked with *):")
    for seg in traj.segments:
        origin = seg.source if seg.card_id is None else f"{seg.source}:{seg.card_id}"
        marker = " " if seg.loss_included else "*"
        print(f" {marker} [{origin:<18}] {' '.join(seg.tokens)}")
    terminal = outcome.terminal
    print(f"terminal: {terminal['kind']} answer={terminal.get('answer')!r}")

    included = sum(traj.loss_mask())
    total = len(traj.loss_mask())
    print(f"\nloss mask covers {included}/{total} tokens; everything an agent "
          "or the environment wrote is excluded from policy updates")

    vector = episode_reward(traj, outcome, task, 4, NoveltyLedger())
    weights = RewardWeights()
    print("\nreward decomposition:")
    for name, value in vector.as_dict().items():
        print(f"  {name:<12} {value:+.3f}")
    print(f"  scalar       {scalarize(vector, weights):+.3f}")
    print(f"\noutcome: latency {outcome.total_latency_ms:.1f}ms over "
          f"{outcome.invocation_count} invocation(s), sla_met={outcome.sla_met}")


if __name__ == "__main__":
    main()
