"""Exception hierarchy shared across the package."""


class HistoriesLabError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(HistoriesLabError):
    """An input fails a structural or numerical precondition."""


class HistoryCountError(ValidationError):
    """A schedule would generate more histories than the configured cap."""


class DegeneratePostSelectionError(ValidationError):
    """The final-state overlap Tr(rho_f rho) is too small to normalize by."""


class InconsistentSetError(ValidationError):
    """Probabilities were requested from a set that fails the consistency test."""


class ConfigValidationError(ValidationError):
    """A config document violates the schema.

    Carries the full list of problems, one ``(json_path, reason)`` pair per
    violation, so callers can report them exhaustively.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{path}: {reason}" for path, reason in self.problems)
        super().__init__(f"invalid config ({len(self.problems)} problem(s)): {lines}")


class NumericError(HistoriesLabError):
    """Internal numerical failure: a solver did not converge or a self-check failed."""
