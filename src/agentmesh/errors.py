"""Exception types shared across the package."""


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


class InvalidWeights(BadConfig):
    pass


class BadDataset(AgentMeshError):
    def __init__(self, line_no: int, reason: str = ""):
        msg = f"bad dataset line {line_no}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.line_no = line_no


class BadCheckpoint(AgentMeshError):
    pass
