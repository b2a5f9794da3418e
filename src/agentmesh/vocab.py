"""Symbols used in trajectories: the control tags and marker tokens.

Tokens are plain strings. Control tags are ordinary tokens so a policy can,
in principle, emit them out of order (which is exactly what structural
validation detects).
"""

ACTION_OPEN = "<action>"
ACTION_CLOSE = "</action>"
ANS_OPEN = "<ans>"
ANS_CLOSE = "</ans>"

CONTROL_TAGS = frozenset((ACTION_OPEN, ACTION_CLOSE, ANS_OPEN, ANS_CLOSE))

# Marker tokens emitted by the orchestrator / simulated agents.
SYS_AGENT_SUCCESS = "sys_agent_success"
SYS_AGENT_FAILURE = "sys_agent_failure"
NOISE = "noise"
WRONG = "wrong"

# Distinguished answer token resolved by the orchestrator to the informative
# span of the most recent successful agent response.
RELAY_ANSWER = "relay_answer"

# Tokens whose meaning the orchestrator or the simulated agents fix; no
# answer or action may be one, except RELAY_ANSWER as the relay action.
RESERVED_TOKENS = frozenset((SYS_AGENT_SUCCESS, SYS_AGENT_FAILURE, NOISE, WRONG, RELAY_ANSWER))
