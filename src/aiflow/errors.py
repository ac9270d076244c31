"""Exception hierarchy shared across the library.

Every error raised on a documented failure path derives from AiflowError so
callers can distinguish domain failures from genuine bugs. Each class
carries the CLI's exit code for it, inherited from one of three bases:
AiflowError itself is 2 (configuration, scenario and input errors),
IoError is 3 (unreadable or corrupt files, incomplete run directories) and
InvariantViolationError is 4 (a contract or cross-check broken inside the
library).
"""

from __future__ import annotations


class AiflowError(Exception):
    """Base class for all library-level failures."""

    exit_code = 2


class IoError(AiflowError):
    """File could not be read or written."""

    exit_code = 3


class InvariantViolationError(AiflowError):
    """An internal cross-check failed; indicates a defect, surfaced deliberately."""

    exit_code = 4


class InvalidInputError(AiflowError):
    """An argument violates a documented precondition (shape, range, finiteness)."""


class NotPositiveDefiniteError(InvariantViolationError):
    """Cholesky pivot fell at or below the ridge threshold.

    Carries the failing pivot index so callers can report which leading
    minor went bad.
    """

    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} = {pivot_value:.6g}"
        )


class SingularTriangularError(InvariantViolationError):
    """A triangular solve hit a zero or near-zero diagonal entry."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"triangular matrix is singular at diagonal {index} ({value:.6g})")


class InvalidTokenError(InvalidInputError):
    """A context token is outside the model's vocabulary."""


class InvalidRankError(AiflowError):
    """Requested decomposition rank is outside 1..min(m, n)."""


class BudgetTooSmallError(AiflowError):
    """Parameter budget cannot cover rank 1 for every layer."""


class ProtocolViolationError(InvariantViolationError):
    """Speculative-decoding contract broken (e.g. drafted token with zero draft probability)."""


class MalformedBitstreamError(IoError):
    """Compressed payload failed magic/version/checksum validation."""


class InvalidScenarioError(AiflowError):
    """Scenario or topology description failed validation."""


class ConfigError(AiflowError):
    """CLI configuration file is missing, unparseable, or lacks a required field."""


class IncompleteRunError(IoError):
    """A run directory is missing its manifest (the run never completed)."""


class SchemaError(AiflowError):
    """CSV inputs to report merging disagree on their column schema."""
