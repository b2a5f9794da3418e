"""Exception types shared across the package, and how a path shows in
their messages. A :class:`BadConfig` is bad input, and the command line exits
1 on it: the config, a ``--set``, the card file, the dataset (a
:class:`BadDataset`, with its line number), the checkpoint, an unwritable
artifact, a learning rate that overflows or a card the registry refuses.
Any other :class:`AgentMeshError`, such as a card id the registry or the env
does not hold, exits 2, as does a ``run`` episode that fails: the episode
loop catches :class:`NoAgentForAction` and :class:`MalformedAgentResponse`."""


def printable(path) -> str:
    """``path`` as text for a one-line message: each character that
    ``str.isprintable`` rejects (a newline, a NUL, another control character
    or a lone surrogate) escaped as ``repr`` escapes it, every other
    character as it is."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(path))


class AgentMeshError(Exception):
    """Base class for all package errors."""


# --- router ---

class NoAgentForAction(AgentMeshError):
    def __init__(self, action_type: str):
        super().__init__(f"no registered agent supports action {action_type!r}")
        self.action_type = action_type


# --- trajectory ---

class MalformedAgentResponse(AgentMeshError):
    pass


# --- configuration / io ---

class BadConfig(AgentMeshError):
    pass


class BadDataset(BadConfig):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"bad dataset line {line_no}: {reason}")
        self.line_no = line_no
