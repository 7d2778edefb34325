"""Cohort CSV ingestion/serialization, range validation, synthetic cohort
generation, and seeded train/test splitting.

CSV schema (one row per patient, comma separated, decimal point, LF or
CRLF): ``age,ei_intra_1,...,ei_intra_12[,ei_1m_1,...,ei_1m_12]`` -- the
twelve label columns are optional but all-or-nothing. Missing values, a
column named twice and a row with more cells than the header are hard
errors.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .domain import CHANNELS, Cohort, N_CHANNELS, published_range
from .errors import (
    BadNumberError,
    DuplicateColumnError,
    EmptyFileError,
    ExtraCellsError,
    InvalidCountError,
    MissingColumnError,
    NonPositiveError,
    TooSmallError,
    UnlabeledCohortError,
)

AGE_COLUMN = "age"
INTRA_COLUMNS = tuple(f"ei_intra_{c}" for c in CHANNELS)
LABEL_COLUMNS = tuple(f"ei_1m_{c}" for c in CHANNELS)
BASE_COLUMNS = (AGE_COLUMN,) + INTRA_COLUMNS
ALL_COLUMNS = BASE_COLUMNS + LABEL_COLUMNS


@dataclass(frozen=True)
class SplitSpec:
    """Held-out split: ``round(n * test_fraction)`` rows go to test."""

    test_fraction: float = 0.30
    seed: int = 42


@dataclass
class ValidationReport:
    """Structural errors block training; range warnings never do."""

    errors: list[tuple[int, str, str]]
    warnings: list[tuple[int, str, str]]

    @property
    def ok(self) -> bool:
        return not self.errors


def _parse_cell(raw: str, row: int, column: str) -> float:
    text = raw.strip()
    if not text:
        raise BadNumberError(row, column, "missing value")
    try:
        value = float(text)
    except ValueError:
        raise BadNumberError(row, column, f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise BadNumberError(row, column, f"non-finite value: {text!r}")
    if value <= 0:
        raise NonPositiveError(row, column, f"must be > 0, got {text}")
    return value


def parse_cohort_csv(text: str | bytes) -> Cohort:
    """Parse cohort CSV text; rows keep their file order.

    The returned cohort is labeled iff all twelve ``ei_1m_*`` columns are
    present. Raises on the first structural problem (missing or repeated
    columns, a row with more cells than the header, non-numeric/non-finite
    cells, non-positive values).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyFileError("no header row found")
    header = [cell.strip() for cell in rows[0]]
    repeated = sorted({name for name in header if name and header.count(name) > 1})
    if repeated:
        raise DuplicateColumnError(repeated)
    position = {name: i for i, name in enumerate(header)}

    missing_base = [c for c in BASE_COLUMNS if c not in position]
    if missing_base:
        raise MissingColumnError(missing_base)
    present_labels = [c for c in LABEL_COLUMNS if c in position]
    if present_labels and len(present_labels) != N_CHANNELS:
        raise MissingColumnError([c for c in LABEL_COLUMNS if c not in position])
    columns = ALL_COLUMNS if present_labels else BASE_COLUMNS
    indices = [position[c] for c in columns]

    table = np.empty((len(rows) - 1, len(columns)))
    for row_no, row_cells in enumerate(rows[1:], start=1):
        if len(row_cells) > len(header):
            raise ExtraCellsError(row_no, len(row_cells), len(header))
        table[row_no - 1] = [
            _parse_cell(row_cells[i] if i < len(row_cells) else "", row_no, column)
            for i, column in zip(indices, columns)
        ]
    labels = table[:, 1 + N_CHANNELS :] if present_labels else None
    return Cohort(table[:, 0], table[:, 1 : 1 + N_CHANNELS], labels)


def _csv_table(cohort: Cohort) -> tuple[tuple[str, ...], np.ndarray]:
    """The cohort's CSV columns and its (n, len(columns)) table of values."""
    if not cohort.labeled:
        return BASE_COLUMNS, np.column_stack([cohort.ages, cohort.intra])
    return ALL_COLUMNS, np.column_stack([cohort.ages, cohort.intra, cohort.labels])


def serialize_cohort_csv(cohort: Cohort) -> str:
    """Render a cohort back to CSV.

    Floats use their shortest round-trip representation so that
    parse(serialize(parse(text))) is exact.
    """
    columns, table = _csv_table(cohort)
    lines = [",".join(columns)] + [",".join(map(repr, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def validate_cohort(cohort: Cohort) -> ValidationReport:
    """Structural errors plus published-range warnings for labels.

    Labels outside a channel's published [min, max] warn rather than fail:
    the bounds describe one cohort, not a physical limit. The report is
    sorted by row, then column name, regardless of scan order.
    """
    columns, table = _csv_table(cohort)
    errors = []
    for i, j in zip(*np.nonzero(~(np.isfinite(table) & (table > 0)))):
        value = table[i, j].item()
        message = f"must be > 0, got {value}" if math.isfinite(value) else f"non-finite value: {value!r}"
        errors.append((int(i) + 1, columns[j], message))

    warnings = []
    if cohort.labeled:
        bounds = [published_range(c) for c in CHANNELS]
        finite = np.isfinite(cohort.labels)
        below = finite & (cohort.labels < [b.min for b in bounds])
        above = finite & (cohort.labels > [b.max for b in bounds])
        for i, j in zip(*np.nonzero(below)):
            warnings.append((int(i) + 1, LABEL_COLUMNS[j], f"below published min {bounds[j].min}"))
        for i, j in zip(*np.nonzero(above)):
            warnings.append((int(i) + 1, LABEL_COLUMNS[j], f"above published max {bounds[j].max}"))

    key = lambda item: (item[0], item[1])
    return ValidationReport(errors=sorted(errors, key=key), warnings=sorted(warnings, key=key))


# --- synthetic cohort ---------------------------------------------------------

# Per-channel generative rule (documented constants, not clinical truth):
#   ei_1m[c] = SLOPE*ei_intra[c] + AGE_COEF*age + offset_c + Normal(0, sigma_c^2)
# clipped to the channel's published [min, max]. Offsets keep the channel
# midpoint fixed for the mean age; sigma_c scales with the published range.
SYNTH_SLOPE = 0.6
SYNTH_AGE_COEF = 0.15
SYNTH_SIGMA_FACTOR = 0.02
AGE_RANGE = (1.0, 6.0)


def synth_sigma(channel: int) -> float:
    """Noise stdev of the synthetic generator for one channel (kOhm)."""
    return SYNTH_SIGMA_FACTOR * published_range(channel).range


def synth_offset(channel: int) -> float:
    bounds = published_range(channel)
    mid = 0.5 * (bounds.min + bounds.max)
    mean_age = 0.5 * (AGE_RANGE[0] + AGE_RANGE[1])
    return (1.0 - SYNTH_SLOPE) * mid - SYNTH_AGE_COEF * mean_age


def generate_synthetic_cohort(n: int, seed: int) -> Cohort:
    """Labeled cohort of ``n`` patients, deterministic in (n, seed).

    Ages are uniform in AGE_RANGE; intraoperative impedances are uniform
    within each channel's published bounds (the only published bounds
    available, reused as a modeling convenience).
    """
    if n < 1:
        raise InvalidCountError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    lo = np.array([published_range(c).min for c in CHANNELS])
    hi = np.array([published_range(c).max for c in CHANNELS])
    sigma = np.array([synth_sigma(c) for c in CHANNELS])
    offset = np.array([synth_offset(c) for c in CHANNELS])

    ages = rng.uniform(AGE_RANGE[0], AGE_RANGE[1], size=n)
    intra = lo + (hi - lo) * rng.uniform(0.0, 1.0, size=(n, N_CHANNELS))
    noise = sigma * rng.standard_normal(size=(n, N_CHANNELS))
    one_month = SYNTH_SLOPE * intra + SYNTH_AGE_COEF * ages[:, None] + offset + noise
    one_month = np.clip(one_month, lo, hi)
    return Cohort(ages, intra, one_month)


# --- splitting ----------------------------------------------------------------


def test_count(n: int, test_fraction: float) -> int:
    """round(n * test_fraction), half up, clamped to [1, n-1]."""
    raw = int(math.floor(n * test_fraction + 0.5))
    return max(1, min(n - 1, raw))


def split_cohort(cohort: Cohort, spec: SplitSpec) -> tuple[Cohort, Cohort]:
    """Seeded disjoint (train, test) partition; row order is preserved
    within each part."""
    n = len(cohort)
    if n < 2:
        raise TooSmallError(f"need at least 2 records to split, got {n}")
    if not cohort.labeled:
        raise UnlabeledCohortError("cannot split an unlabeled cohort for training")
    if not 0.0 < spec.test_fraction < 1.0:
        raise InvalidCountError(f"test_fraction must be in (0,1), got {spec.test_fraction}")
    n_test = test_count(n, spec.test_fraction)
    perm = np.random.default_rng(spec.seed).permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return cohort.take(train_idx), cohort.take(test_idx)
