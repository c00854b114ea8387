"""Exception taxonomy: one class per CLI exit code, and two that callers
catch for their data.

- `ConfigError` (exit 2): a bad setting or input. A search, a warm start or
  an analysis of other than two objectives is one, raised before any front
  is built.
- `EvaluatorError` (exit 3): an evaluator's fault: a failed batch, a
  timeout, or a malformed or incomplete message on the wire.
- `SubnetSearchError` (exit 4), the base of all: any other engine fault.

`InvalidGenotype` and `EmptyClusterSet` are engine faults that a caller
restates as a ConfigError naming its input.
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


class EvaluatorError(SubnetSearchError):
    """An evaluator's fault. `completed` is {batch index: output} of the
    results that arrived before the fault interrupted a batch."""

    def __init__(self, message: str = ""):
        super().__init__(message)
        self.completed: dict = {}


class InvalidGenotype(SubnetSearchError):
    """Gene value outside its parameter's allowed set, or wrong length."""


class EmptyClusterSet(SubnetSearchError):
    """No non-noise points to compute frequencies from."""
