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


class EncodingError(DataInputError):
    """Bytes given to a document parser that are not UTF-8."""


class CsvSyntaxError(DataInputError):
    """A cohort CSV the csv module cannot read, e.g. a cell over its size
    limit or a bare carriage return inside a row."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class _CellError(DataInputError):
    """Error tied to a cohort cell, named by its row and CSV column."""

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


class AllCandidatesFailedError(DataInputError):
    """Every candidate of a channel failed. A study fits only a valid cohort
    with validated hyperparameters, so the cause lies in those inputs (such
    as labels near the float limit), not in the program."""


class IncompatibleBundleError(DataInputError):
    """A persisted study report or model bundle that is not well formed."""


class NonFiniteOutputError(DataInputError):
    """A bundle's model predicted NaN or infinity for a cohort: the model's
    numbers or the patients' values are finite but too large to compute
    with."""

    def __init__(self, channel, message):
        self.channel = channel
        super().__init__(f"channel {channel}: {message}")


class UnsupportedFormatError(ImpforecastError):
    pass
