"""Episode token streams with source attribution and loss masking.

A trajectory is an ordered list of segments, each attributed to the reasoning
core, an external agent, or the system. Only core segments contribute to the
loss mask; agent responses are filtered down to the span between the answer
delimiters before insertion, so delegated content can never leak into policy
updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .errors import MalformedAgentResponse
from .vocab import ACTION_CLOSE, ACTION_OPEN, ANS_CLOSE, ANS_OPEN, CONTROL_TAGS

SOURCE_CORE = "core"
SOURCE_AGENT = "agent"
SOURCE_SYSTEM = "system"

INDICATOR_DISORDER = "indicator_disorder"
NO_AGENT_FOR_ACTION = "no_agent_for_action"
MALFORMED_AGENT_RESPONSE = "malformed_agent_response"


@dataclass(frozen=True)
class Segment:
    tokens: tuple[str, ...]
    source: str
    card_id: Optional[str] = None

    def __post_init__(self):
        if self.source == SOURCE_AGENT and self.card_id is None:
            raise ValueError("agent segments must carry a card_id")

    @property
    def loss_included(self) -> bool:
        """Only the reasoning core's own tokens train the policy."""
        return self.source == SOURCE_CORE


@lru_cache(maxsize=1024)
def _core_segment(tokens: tuple[str, ...]) -> Segment:
    """One core segment object per equal token tuple: a segment is a frozen
    value, and most core segments repeat from episode to episode."""
    return Segment(tokens, SOURCE_CORE)


def agent_segment(card_id: str, tokens) -> Segment:
    return Segment(tuple(tokens), SOURCE_AGENT, card_id)


@dataclass(frozen=True)
class FailureReport:
    kind: str
    position: Optional[tuple[int, int]] = None  # (segment index, token index)


@dataclass
class Trajectory:
    """An episode's segments in order; ``EpisodeOutcome`` records how it ended."""

    segments: list[Segment] = field(default_factory=list)

    def append_core(self, tokens) -> "Trajectory":
        """Append a loss-included core segment; empty appends are dropped."""
        tokens = tuple(tokens)
        if tokens:
            self.segments.append(_core_segment(tokens))
        return self

    def append(self, segment: Segment) -> "Trajectory":
        """Append a segment built once and shared, such as a system marker."""
        self.segments.append(segment)
        return self

    def insert_agent_response(self, card_id: str, raw_tokens) -> tuple[str, ...]:
        """Keep only the informative span of an agent response, and return it.

        The raw response must contain exactly one non-empty span delimited by
        the answer tags; everything outside the delimiters is dropped and the
        delimiters themselves are consumed.
        """
        span = extract_answer_span(raw_tokens)
        self.segments.append(agent_segment(card_id, span))
        return span

    def loss_mask(self) -> list[bool]:
        """One flag per token in segment order; true only for core tokens."""
        mask: list[bool] = []
        for seg in self.segments:
            mask.extend([seg.loss_included] * len(seg.tokens))
        return mask


def extract_answer_span(raw_tokens) -> tuple[str, ...]:
    """The tokens strictly between the unique answer-delimiter pair."""
    raw = tuple(raw_tokens)
    opens, closes = raw.count(ANS_OPEN), raw.count(ANS_CLOSE)
    if opens != 1 or closes != 1:
        raise MalformedAgentResponse(
            f"expected exactly one answer span, got {opens} opens / {closes} closes"
        )
    start, end = raw.index(ANS_OPEN), raw.index(ANS_CLOSE)
    if end < start:
        raise MalformedAgentResponse("answer delimiters out of order")
    span = raw[start + 1:end]
    if not span:
        raise MalformedAgentResponse("empty answer span")
    if not CONTROL_TAGS.isdisjoint(span):
        raise MalformedAgentResponse("control tag inside answer span")
    return span


def validate(traj: Trajectory) -> Optional[FailureReport]:
    """Structural check for control-tag discipline.

    Within core segments, every action-open tag must be followed in the same
    segment by exactly one close tag with a nonempty action type in between;
    tags must not nest and no control tag may appear outside that pattern.
    Non-core segments must contain no control tags at all (insertion already
    consumes the answer delimiters). Returns None for a well-formed
    trajectory, else a FailureReport at the first offending tag.
    """
    for si, seg in enumerate(traj.segments):
        if seg.source != SOURCE_CORE:
            for ti, tok in enumerate(seg.tokens):
                if tok in CONTROL_TAGS:
                    return FailureReport(INDICATOR_DISORDER, (si, ti))
            continue
        open_at = None
        for ti, tok in enumerate(seg.tokens):
            if tok in (ANS_OPEN, ANS_CLOSE):
                return FailureReport(INDICATOR_DISORDER, (si, ti))
            if tok == ACTION_OPEN:
                if open_at is not None:
                    return FailureReport(INDICATOR_DISORDER, (si, ti))
                open_at = ti
            elif tok == ACTION_CLOSE:
                if open_at is None or ti == open_at + 1:
                    return FailureReport(INDICATOR_DISORDER, (si, ti))
                open_at = None
        if open_at is not None:
            return FailureReport(INDICATOR_DISORDER, (si, open_at))
    return None


def to_log_record(traj: Trajectory, terminal: dict[str, str], episode_id: str,
                  reward_vector: dict[str, float], scalar_reward: float) -> dict:
    """JSONL trajectory-log record for one episode that ended as ``terminal``."""
    segs = []
    for seg in traj.segments:
        entry = {
            "source": seg.source,
            "tokens": list(seg.tokens),
            "loss_included": seg.loss_included,
        }
        if seg.card_id is not None:
            entry["card_id"] = seg.card_id
        segs.append(entry)
    return {"episode_id": episode_id, "segments": segs, "terminal": terminal,
            "reward_vector": reward_vector, "scalar_reward": scalar_reward}
