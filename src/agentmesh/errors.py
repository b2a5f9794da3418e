"""Exception types shared across the package, and how a path shows in
their messages. Bad input is a :class:`BadConfig`, whether from the config,
a ``--set``, the card file, the dataset, the checkpoint, an unwritable
artifact or a learning rate that overflows: the command line exits 1 on it,
and 2 on a failed ``run`` episode or any other package error."""


def printable(path) -> str:
    """``path`` as text for a one-line message: each character that
    ``str.isprintable`` rejects (a newline, a NUL, another control character
    or a lone surrogate) escaped as ``repr`` escapes it, every other
    character as it is."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(path))


class AgentMeshError(Exception):
    """Base class for all package errors."""


# --- registry ---

class DuplicateId(AgentMeshError):
    pass


class EmptyActions(AgentMeshError):
    pass


class UnknownCard(AgentMeshError):
    pass


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
    def __init__(self, line_no: int, reason: str = ""):
        msg = f"bad dataset line {line_no}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.line_no = line_no
