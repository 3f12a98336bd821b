"""Exception types shared across the package."""


class PgphError(Exception):
    """Base class for all package errors."""


class DataError(PgphError):
    """Malformed or inconsistent input data (files, catalogs, matrices)."""


class ConsistencyError(PgphError):
    """An internal consistency check failed, so no exact answer is given."""


class BudgetExceededError(PgphError):
    """A computation would exceed a configured resource budget.

    `stage` names the computation that was refused, `needed`/`allowed` give
    the offending entry (or order) counts.
    """

    def __init__(self, stage, needed, allowed):
        self.stage = stage
        self.needed = needed
        self.allowed = allowed
        super().__init__(f"{stage}: needs {needed}, budget allows {allowed}")
