"""Exception taxonomy shared across the package.

Every error raised by the library derives from SubnetSearchError so callers
(and the CLI exit-code mapping) can distinguish configuration problems,
evaluator/channel faults, and internal failures. A search, a warm start or
an analysis of other than two objectives is a ConfigError, raised before
any front is built: fronts and hypervolume take two objectives only.
"""


class SubnetSearchError(Exception):
    """Base class for all library errors.

    `row` is the offending item's index when a batch was checked.
    """

    def __init__(self, message: str = "", row: int | None = None):
        super().__init__(message)
        self.row = row


class ConfigError(SubnetSearchError):
    """Invalid run configuration or schema violation."""


# --- space ---------------------------------------------------------------

class InvalidGenotype(SubnetSearchError):
    """Gene value outside its parameter's allowed set, or wrong length."""


class NonCanonicalInput(SubnetSearchError):
    """Operation requires a canonical genotype but received a raw one."""


# --- objectives ----------------------------------------------------------

class ObjectiveMismatch(SubnetSearchError):
    """Objective arity/name disagreement between values and specs."""


class EmptyInput(SubnetSearchError):
    """Operation requires at least one element."""


class ReferenceViolation(SubnetSearchError):
    """Hypervolume member not strictly inside the reference box."""


# --- predictors ----------------------------------------------------------

class SingularSystem(SubnetSearchError):
    """Normal equations are singular; use lambda > 0."""


class ConvergenceFailure(SubnetSearchError):
    """Optimizer hit its iteration cap; carries the best iterate."""

    def __init__(self, message: str, model=None):
        super().__init__(message)
        self.model = model


class DimensionMismatch(SubnetSearchError):
    """Feature dimension disagreement between model and input."""


class ZeroDenominator(SubnetSearchError):
    """MAPE undefined when an actual value is zero."""


class UndefinedCorrelation(SubnetSearchError):
    """Rank correlation undefined for an all-constant vector."""


# --- evaluation manager --------------------------------------------------

class EvaluationFailed(SubnetSearchError):
    """A single evaluation failed; detail in the message."""


class EvaluationTimeout(SubnetSearchError):
    """External evaluator did not answer within the configured timeout."""


class ProtocolError(SubnetSearchError):
    """Malformed or unexpected message on the evaluator wire protocol.

    Carries the offending raw payload when available.
    """

    def __init__(self, message: str, payload: str | None = None):
        super().__init__(message)
        self.payload = payload


class MissingObjective(ProtocolError, ObjectiveMismatch):
    """An evaluator's result lacks a declared objective: a fault on the
    wire, unlike the ObjectiveMismatch that engine code raises."""


# --- popdb ---------------------------------------------------------------

class EmptyClusterSet(SubnetSearchError):
    """No non-noise points to compute frequencies from."""
