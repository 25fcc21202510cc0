"""Exception types shared across the library."""


class KmonError(Exception):
    """Base class for all library errors."""


class CardBoundError(KmonError):
    """An aleph level outside 0..3 was requested."""


class BoundExceededError(KmonError):
    """A family's index cardinality violates the monoid's summation bound."""


class DimensionError(KmonError):
    """Vector or coefficient length mismatch."""


class PreconditionError(KmonError):
    """An operation's stated precondition does not hold for the inputs."""


class SearchExhausted(KmonError):
    """A bounded search ended without a decision."""


class ParseError(KmonError):
    """DSL parse failure with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
