"""Exception hierarchy for the impforecast package.

``DataInputError`` subclasses mark problems in user-supplied data (CSV
schemas, bad cells, undersized cohorts); everything else under
``ImpforecastError`` is an internal/model failure. The CLI maps these to
exit codes 2 and 3 respectively, and ``UsageError`` to exit code 1.
"""


class UsageError(Exception):
    """A bad command line. Raised by the command-line modules only, so it is
    not an ``ImpforecastError``."""


class ImpforecastError(Exception):
    """Base class for all package errors."""


class DataInputError(ImpforecastError):
    """Problem in user-supplied data or files."""


class _CellError(DataInputError):
    """Error tied to a (row, column) cell of a cohort CSV."""

    def __init__(self, row, column, message):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: {message}")


class EmptyFileError(DataInputError):
    pass


class MissingColumnError(DataInputError):
    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__("missing column(s): " + ", ".join(self.columns))


class DuplicateColumnError(DataInputError):
    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__("column(s) named more than once in the header: " + ", ".join(self.columns))


class ExtraCellsError(DataInputError):
    """A CSV row with more cells than its header names."""

    def __init__(self, row, cells, header_cells):
        self.row = row
        super().__init__(f"row {row} has {cells} cells but the header has {header_cells}")


class BadNumberError(_CellError):
    pass


class NonPositiveError(_CellError):
    pass


class InvalidCountError(DataInputError):
    pass


class TooSmallError(DataInputError):
    pass


class UnlabeledCohortError(DataInputError):
    pass


class CohortValidationError(DataInputError):
    """Raised when a cohort with validation errors is fed to training."""

    def __init__(self, report):
        self.report = report
        lines = "; ".join(
            f"row {row}, {col}: {msg}" for row, col, msg in report.errors[:5]
        )
        more = "" if len(report.errors) <= 5 else f" (+{len(report.errors) - 5} more)"
        super().__init__(f"cohort failed validation: {lines}{more}")


class FitError(ImpforecastError):
    """Base class for regressor fitting/prediction failures."""


class EmptyMatrixError(FitError):
    pass


class DimensionMismatchError(FitError):
    pass


class DegenerateInputError(FitError):
    pass


class NonFiniteLossError(FitError):
    """Training loss became NaN/inf (step size too large)."""


class NonFinitePredictionError(FitError):
    """A fitted model predicted NaN or inf, so it cannot be scored."""


class MetricError(ImpforecastError):
    pass


class LengthMismatchError(MetricError):
    pass


class EmptyInputError(MetricError):
    pass


class AllCandidatesFailedError(ImpforecastError):
    pass


class IncompatibleBundleError(DataInputError):
    pass


class UnsupportedFormatError(ImpforecastError):
    pass
