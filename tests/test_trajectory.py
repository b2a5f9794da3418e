import pytest
from hypothesis import given, strategies as st

from agentmesh.errors import MalformedAgentResponse
from agentmesh.trajectory import (
    INDICATOR_DISORDER,
    SOURCE_SYSTEM,
    FailureReport,
    Segment,
    Trajectory,
    agent_segment,
    extract_answer_span,
    validate,
)
from agentmesh.vocab import ACTION_CLOSE, ACTION_OPEN, ANS_CLOSE, ANS_OPEN, CONTROL_TAGS
from oracles import listed_answer_span


class TestAppendCore:
    def test_appends_masked_true_segment(self):
        traj = Trajectory()
        traj.append_core([ACTION_OPEN, "network_analysis", ACTION_CLOSE])
        assert len(traj.segments) == 1
        assert traj.segments[0].source == "core"
        assert traj.segments[0].loss_included is True

    def test_empty_append_is_dropped(self):
        traj = Trajectory()
        traj.append_core([])
        assert traj.segments == []


class TestInsertAgentResponse:
    def test_keeps_only_informative_span(self):
        traj = Trajectory()
        traj.insert_agent_response("na-1", ["x", ANS_OPEN, "a", ANS_CLOSE, "y"])
        seg = traj.segments[0]
        assert seg.tokens == ("a",)
        assert seg.source == "agent"
        assert seg.card_id == "na-1"
        assert seg.loss_included is False

    def test_delimiters_consumed(self):
        traj = Trajectory()
        traj.insert_agent_response("na-1", [ANS_OPEN, "a", "b", ANS_CLOSE])
        for seg in traj.segments:
            assert not any(t in CONTROL_TAGS for t in seg.tokens)

    def test_out_of_order_delimiters(self):
        with pytest.raises(MalformedAgentResponse):
            Trajectory().insert_agent_response("na-1", [ANS_CLOSE, "a", ANS_OPEN])

    def test_empty_span_rejected(self):
        with pytest.raises(MalformedAgentResponse):
            Trajectory().insert_agent_response("na-1", [ANS_OPEN, ANS_CLOSE])

    @pytest.mark.parametrize("raw", [
        ["a", "b"],                                        # zero spans
        [ANS_OPEN, "a", ANS_CLOSE, ANS_OPEN, "b", ANS_CLOSE],  # two spans
        [ANS_OPEN, "a"],                                   # unclosed
    ])
    def test_malformed_variants(self, raw):
        traj = Trajectory()
        with pytest.raises(MalformedAgentResponse):
            traj.insert_agent_response("na-1", raw)
        assert traj.segments == []  # atomic

    def test_control_tag_inside_the_span(self):
        with pytest.raises(MalformedAgentResponse, match="^control tag inside answer span$"):
            extract_answer_span((ANS_OPEN, ACTION_OPEN, ANS_CLOSE))


class TestValidate:
    def test_well_formed_action_span(self):
        traj = Trajectory().append_core([ACTION_OPEN, "protocol_query", ACTION_CLOSE])
        assert validate(traj) is None

    def test_close_before_open_is_disorder(self):
        traj = Trajectory().append_core([ACTION_CLOSE, "x", ACTION_OPEN])
        report = validate(traj)
        assert report.kind == INDICATOR_DISORDER
        assert report.position == (0, 0)

    def test_nested_open_is_disorder(self):
        traj = Trajectory().append_core([ACTION_OPEN, ACTION_OPEN, "x", ACTION_CLOSE])
        assert validate(traj).kind == INDICATOR_DISORDER

    def test_unclosed_open_is_disorder(self):
        traj = Trajectory().append_core([ACTION_OPEN, "x"])
        assert validate(traj).kind == INDICATOR_DISORDER

    def test_empty_action_type_is_disorder(self):
        traj = Trajectory().append_core([ACTION_OPEN, ACTION_CLOSE])
        assert validate(traj).kind == INDICATOR_DISORDER

    def test_answer_tag_in_core_is_disorder(self):
        traj = Trajectory().append_core([ANS_OPEN, "x", ANS_CLOSE])
        assert validate(traj).kind == INDICATOR_DISORDER

    def test_plain_answer_is_well_formed(self):
        traj = Trajectory().append_core(["ack"])
        assert validate(traj) is None

    @pytest.mark.parametrize("segment", [agent_segment("na-1", ["a", ACTION_OPEN]),
                                         Segment(("a", ACTION_OPEN), SOURCE_SYSTEM)],
                             ids=["agent", "system"])
    def test_control_tag_outside_the_core_is_disorder(self, segment):
        traj = Trajectory().append_core(["x"]).append(segment)
        assert validate(traj) == FailureReport(INDICATOR_DISORDER, (1, 1))

    def test_pure_and_total(self):
        traj = Trajectory().append_core([ACTION_OPEN, "x", ACTION_CLOSE])
        assert validate(traj) == validate(traj)


class TestLossMask:
    def test_all_core(self):
        traj = Trajectory().append_core(["a", "b"]).append_core(["c"])
        assert traj.loss_mask() == [True, True, True]

    def test_mixed_sources(self):
        traj = Trajectory().append_core(["a", "b", "c"])
        traj.append(agent_segment("na-1", ["d", "e"]))
        traj.append_core(["f"])
        assert traj.loss_mask() == [True, True, True, False, False, True]

    def test_empty_trajectory(self):
        assert Trajectory().loss_mask() == []


plain_tokens = st.lists(st.sampled_from(["a", "b", "ack", "x9"]), min_size=1, max_size=5)


@given(st.lists(st.tuples(st.sampled_from(["core", "agent", "system"]), plain_tokens),
                max_size=8))
def test_mask_matches_source_for_random_segment_sequences(layout):
    traj = Trajectory()
    for source, tokens in layout:
        if source == "core":
            traj.append_core(tokens)
        elif source == "agent":
            traj.append(agent_segment("a-1", tokens))
        else:
            traj.append(Segment(tuple(tokens), SOURCE_SYSTEM))
    mask = traj.loss_mask()
    flat = [seg.source == "core" for seg in traj.segments for _ in seg.tokens]
    assert mask == flat


def test_segment_invariants_enforced():
    with pytest.raises(ValueError):
        Segment(("x",), "agent")  # missing card_id


def outcome_of(extract, raw):
    try:
        return extract(raw)
    except MalformedAgentResponse as err:
        return str(err)


@given(st.lists(st.sampled_from([ANS_OPEN, ANS_CLOSE, ACTION_OPEN, "x", "y"]), max_size=8))
def test_answer_span_matches_the_listed_reference(raw):
    """The same span, or the same error message, as the reference."""
    assert outcome_of(extract_answer_span, raw) == outcome_of(listed_answer_span, raw)
