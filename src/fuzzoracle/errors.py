"""Exception types raised by the oracle library.

Every error is a subclass of :class:`FuzzOracleError` so callers can catch
the whole family with one handler. Names mirror the contract they enforce.
"""


class FuzzOracleError(Exception):
    """Base class for all library errors."""


class PolicyTooSmallError(FuzzOracleError):
    """An intended policy needs at least two reference states, and a
    nearest-reference search at least one."""


class PolicyTooLargeError(FuzzOracleError):
    """Requested more reference states than the environment can host."""


class DuplicateReferenceStateError(FuzzOracleError):
    """Two reference states coincide under the state metric."""


class SamplingExhaustedError(FuzzOracleError):
    """Rejection sampling failed to place reference states."""


class ActionKindMismatchError(FuzzOracleError):
    """Compared a discrete action with a continuous one."""


class InvalidMembershipError(FuzzOracleError):
    """A membership degree fell outside [0, 1]."""


class EmptyLogError(FuzzOracleError):
    """A run log (or one of its epochs) contains no steps."""


class SeriesTooShortError(FuzzOracleError):
    """Trend analysis needs at least two series points."""


class InvalidWindowError(FuzzOracleError):
    """Sliding-window size is out of range for the series."""


class InvalidEnvSpecError(FuzzOracleError):
    """Environment specification violates its invariants."""


class InvalidActionError(FuzzOracleError):
    """Action is not valid for the environment."""


class InvalidStateError(FuzzOracleError):
    """State is not one of the environment's states."""


class AlgorithmEnvMismatchError(FuzzOracleError):
    """Agent algorithm cannot run on the given environment kind."""


class NumericalDivergenceError(FuzzOracleError):
    """An agent update produced non-finite values."""


class UnknownBugError(FuzzOracleError):
    """Bug id not present in the registry."""


class InapplicableBugError(FuzzOracleError):
    """Bug cannot affect the algorithm it was injected into."""


class EmptyMatrixError(FuzzOracleError):
    """Confusion matrix has no entries."""


class EmptyCorpusError(FuzzOracleError):
    """ROC sweep requires at least one program record."""


class TraceFormatError(FuzzOracleError):
    """A trace, policy, or config file violates its schema."""

    def __init__(self, message, record_index=None):
        super().__init__(message)
        self.record_index = record_index
