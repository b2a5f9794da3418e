import pytest

from agentmesh.errors import InvalidWeights
from agentmesh.orchestrator import EpisodeOutcome
from agentmesh.rewards import (
    NoveltyLedger,
    RewardVector,
    RewardWeights,
    accuracy_reward,
    efficiency_reward,
    exploration_reward,
    format_reward,
    qos_reward,
    scalarize,
)
from agentmesh.simenv import TaskClass, TaskSpec
from agentmesh.trajectory import (
    INDICATOR_DISORDER,
    FailureReport,
    Trajectory,
)
from agentmesh.vocab import ACTION_CLOSE, ACTION_OPEN


def outcome(answer="ack", latency=10.0, invocations=0, sla_met=True, failure=None):
    return EpisodeOutcome(final_answer=answer, total_latency_ms=latency,
                          invocation_count=invocations, sla_met=sla_met,
                          failure=failure)


TASK = TaskSpec("t-1", (1.0, 0.0), TaskClass("t", 1.0, None, ("ack",), sla_deadline_ms=100.0),
                "ack")


class TestAccuracyReward:
    def test_correct_answer(self):
        assert accuracy_reward(outcome("ack"), TASK) == 1.0

    def test_truncated_episode(self):
        assert accuracy_reward(outcome(answer=None), TASK) == 0.0

    def test_failure_dominates_matching_answer(self):
        failed = outcome("ack", failure=FailureReport(INDICATOR_DISORDER))
        assert accuracy_reward(failed, TASK) == 0.0


class TestFormatReward:
    def test_well_formed_delegation(self):
        traj = Trajectory().append_core([ACTION_OPEN, "network_analysis", ACTION_CLOSE])
        assert format_reward(traj) == 1.0

    def test_disordered_tags(self):
        traj = Trajectory().append_core([ACTION_CLOSE, "x", ACTION_OPEN])
        assert format_reward(traj) == 0.0

    def test_plain_answer(self):
        assert format_reward(Trajectory().append_core(["ack"])) == 1.0


class TestEfficiencyReward:
    @pytest.mark.parametrize("invocations,expected", [(0, 1.0), (4, 0.0), (1, 0.75)])
    def test_formula(self, invocations, expected):
        assert efficiency_reward(outcome(invocations=invocations), 4) == expected

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="^max_steps must be >= 1$"):
            efficiency_reward(outcome(), 0)


class TestQosReward:
    def test_exactly_at_deadline(self):
        assert qos_reward(outcome(latency=100.0), TASK) == 1.0

    def test_fifty_percent_over(self):
        assert qos_reward(outcome(latency=150.0), TASK) == pytest.approx(0.0)

    def test_clamped_at_twice_deadline(self):
        assert qos_reward(outcome(latency=200.0), TASK) == -1.0
        assert qos_reward(outcome(latency=10_000.0), TASK) == -1.0


class TestExplorationReward:
    def test_first_visit(self):
        ledger = NoveltyLedger()
        assert exploration_reward(ledger, ("network_analysis",)) == 1.0

    def test_fourth_visit(self):
        ledger = NoveltyLedger()
        sig = ("network_analysis",)
        for _ in range(3):
            exploration_reward(ledger, sig)
        assert exploration_reward(ledger, sig) == pytest.approx(0.5)

    def test_counts_never_decrease(self):
        ledger = NoveltyLedger()
        assert [ledger.record(()) for _ in range(10)] == list(range(10))

    def test_signatures_independent(self):
        ledger = NoveltyLedger()
        exploration_reward(ledger, ("a",))
        assert exploration_reward(ledger, ("b",)) == 1.0


class TestScalarize:
    def test_weighted_sum(self):
        w = RewardWeights(1.0, 0.2, 0.2, 0.2, 0.1)
        v = RewardVector(1, 1, 1, 1, 0)
        assert scalarize(v, w) == pytest.approx(1.6)

    def test_zero_vector(self):
        assert scalarize(RewardVector(0, 0, 0, 0, 0), RewardWeights()) == 0.0

    def test_linear(self):
        w = RewardWeights()
        v1 = RewardVector(1, 0, 0.5, 0.3, 0.1)
        v2 = RewardVector(0, 1, 0.2, -0.5, 0.9)
        summed = RewardVector(*(a + b for a, b in
                                zip(v1.as_dict().values(), v2.as_dict().values())))
        assert abs(scalarize(summed, w) - (scalarize(v1, w) + scalarize(v2, w))) <= 1e-12


class TestRewardWeights:
    def test_format_weight_must_stay_below_accuracy(self):
        with pytest.raises(InvalidWeights):
            RewardWeights(lambda_acc=0.5, lambda_fmt=0.5)

    def test_accuracy_weight_must_be_positive(self):
        with pytest.raises(InvalidWeights):
            RewardWeights(lambda_acc=0.0, lambda_fmt=0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidWeights):
            RewardWeights(lambda_qos=-0.1)

    def test_anti_hacking_bound(self):
        # an accuracy-0 episode can never outscore a correct well-formed one
        # with equal other components
        w = RewardWeights()
        for eff in (0.0, 0.5, 1.0):
            for qos in (-1.0, 0.0, 1.0):
                for exp in (0.0, 0.5, 1.0):
                    wrong = scalarize(RewardVector(0, 1, eff, qos, exp), w)
                    right = scalarize(RewardVector(1, 1, eff, qos, exp), w)
                    assert wrong < right
                    cap = w.lambda_acc + w.lambda_eff + w.lambda_qos + w.lambda_exp
                    assert wrong < cap
