"""Exception hierarchy.

ValidationError maps to CLI exit code 2, ComputationError to exit code 3.
"""


class GdsError(Exception):
    """Base for all errors raised by this package."""


class ValidationError(GdsError):
    """Invalid input data or parameters."""


class ComputationError(GdsError):
    """A computation could not produce a valid result."""


class DimensionMismatch(ValidationError):
    pass


class ZeroWeight(ValidationError):
    pass


class InvalidWeights(ValidationError):
    pass


class IndistinctPoints(ValidationError):
    pass


class InvalidAlpha(ValidationError):
    pass


class InvalidKappa(ValidationError):
    pass


class InvalidRange(ValidationError):
    pass


class InvalidSpec(ValidationError):
    pass


class EmptySet(ValidationError):
    pass


class EmptyG(ValidationError):
    pass


class EmptySupport(ValidationError):
    pass


class LevelMismatch(ValidationError):
    pass


class TooLarge(ValidationError):
    pass


class MarginalMismatch(ValidationError):
    pass


class NotAMetric(ComputationError):
    """The given distance matrix violates a metric axiom.

    `indices` identifies the violating entry or triple when available.
    """

    def __init__(self, reason, indices=None):
        self.reason = reason
        self.indices = tuple(indices) if indices is not None else None
        suffix = f" at {self.indices}" if self.indices else ""
        super().__init__(f"{reason}{suffix}")


class MonotonicityViolation(ComputationError):
    """An internally computed profile failed a monotonicity guarantee."""


class SchemaError(ValidationError):
    """A JSON document does not match the expected schema."""

    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}" if pointer else message)
