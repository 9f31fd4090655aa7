"""Exception types shared across the toolkit.

Built-in ``ValueError`` / ``IndexError`` are used for plain parameter and
bounds mistakes; the classes here mark failures a pipeline driver may want
to route differently (bad input data, unfittable corpora, stale artifacts).
"""


class AbnormalityError(Exception):
    """Base class for all toolkit-specific errors."""


class ParseError(AbnormalityError):
    """Input bytes are not valid JSON / JSONL, or hold a non-finite number."""


class SchemaError(AbnormalityError):
    """Parsed input is missing a required field or has the wrong shape.

    ``path`` names the offending location, e.g. ``data[3].paragraphs[0].qas``.
    """

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message)
        self.path = path


class FitError(AbnormalityError):
    """A corpus or matrix cannot support the requested fit."""


class SingularityError(FitError):
    """Covariance factorization failed at every epsilon in the schedule."""

    def __init__(self, message: str, last_epsilon: float = 0.0):
        super().__init__(message)
        self.last_epsilon = last_epsilon


class CapacityError(AbnormalityError):
    """Selection quotas exceed the number of available examples."""


class StatError(AbnormalityError):
    """A statistic is undefined for the given input (too few points, constant data)."""


class StaleScoresError(AbnormalityError):
    """Persisted scores do not match the current input corpus (hash mismatch)."""
