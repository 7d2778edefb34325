"""Cohort CSV ingestion/serialization, published-range warnings, synthetic
cohort generation, and seeded train/test splitting.

CSV schema (one row per patient, comma separated, decimal point, LF or
CRLF, UTF-8 with or without a byte-order mark):
``age,ei_intra_1,...,ei_intra_12[,ei_1m_1,...,ei_1m_12]`` -- the twelve
label columns are optional but all-or-nothing. Missing values, a column
named twice, a row with more cells than the header and text the csv
module cannot read are hard errors.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .domain import (
    ALL_COLUMNS,
    BASE_COLUMNS,
    CHANNELS,
    LABEL_COLUMNS,
    N_CHANNELS,
    Cohort,
    is_count,
    is_number,
    published_range,
    repeated,
    require,
)
from .errors import (
    BadNumberError,
    CsvSyntaxError,
    DuplicateColumnError,
    EmptyFileError,
    ExtraCellsError,
    InvalidCountError,
    MissingColumnError,
    NonPositiveError,
    TooSmallError,
    UnlabeledCohortError,
)
from .seeding import PCG64Stream
from .textio import decode


@dataclass(frozen=True)
class SplitSpec:
    """Held-out split: ``round(n * test_fraction)`` rows go to test. The
    constructor raises ValueError unless ``seed`` is an integer >= 0 and
    ``test_fraction`` is finite and in (0, 1)."""

    test_fraction: float = 0.30
    seed: int = 42

    def __post_init__(self):
        f = self.test_fraction
        require(is_count(self.seed) and self.seed >= 0, "seed", "an integer >= 0", self.seed)
        require(is_number(f) and 0 < f < 1, "test_fraction", "finite and in (0, 1)", f)


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


# The csv module's advice on a bare carriage return, which is about how a file
# is opened: no caller of parse_cohort_csv can act on it.
_CSV_MODE_HINT = " - do you need to open the file in universal-newline mode?"


def parse_cohort_csv(text: str | bytes) -> Cohort:
    """Parse cohort CSV text; rows keep their file order.

    The returned cohort is labeled iff all twelve ``ei_1m_*`` columns are
    present. Raises on the first structural problem (bytes that are not
    UTF-8, CSV syntax, missing or repeated columns, a row with more cells
    than the header, non-numeric/non-finite cells, non-positive values).
    """
    reader = csv.reader(io.StringIO(decode(text)))
    try:
        rows = [row for row in reader if row and any(map(str.strip, row))]
    except csv.Error as exc:
        raise CsvSyntaxError(reader.line_num, str(exc).removesuffix(_CSV_MODE_HINT)) from None
    if not rows:
        raise EmptyFileError("no header row found")
    header = [cell.strip() for cell in rows[0]]
    if twice := repeated([name for name in header if name]):
        raise DuplicateColumnError(twice)
    position = {name: i for i, name in enumerate(header)}

    missing_base = [c for c in BASE_COLUMNS if c not in position]
    if missing_base:
        raise MissingColumnError(missing_base)
    present_labels = [c for c in LABEL_COLUMNS if c in position]
    if present_labels and len(present_labels) != N_CHANNELS:
        raise MissingColumnError([c for c in LABEL_COLUMNS if c not in position])
    columns = ALL_COLUMNS if present_labels else BASE_COLUMNS
    indices = [position[c] for c in columns]

    body = rows[1:]
    table = _float_table(body, indices, len(header))
    if table is None:
        _raise_first_bad_cell(body, indices, columns, len(header))
    labels = table[:, 1 + N_CHANNELS :] if present_labels else None
    return Cohort(table[:, 0], table[:, 1 : 1 + N_CHANNELS], labels)


def _float_table(body: list[list[str]], indices: list[int], width: int) -> np.ndarray | None:
    """The ``indices`` cells of every row as one (rows, len(indices)) array,
    or None if a row has more than ``width`` cells, a cell is missing or
    not a number, or a value is not finite and > 0. A cell's value is the
    one ``_parse_cell`` gives it.
    """
    if max(map(len, body), default=0) > width:
        return None
    pick = operator.itemgetter(*indices)
    try:
        values = [float(cell.strip()) for row in body for cell in pick(row)]
    except (IndexError, ValueError):
        return None
    table = np.array(values, dtype=float).reshape(len(body), len(indices))
    if not (np.isfinite(table).all() and (table > 0).all()):
        return None
    return table


def _raise_first_bad_cell(
    body: list[list[str]], indices: list[int], columns: tuple[str, ...], width: int
) -> NoReturn:
    """Raise the error of the first bad row, in file order: a row with more
    than ``width`` cells, or the first cell of a row that ``_parse_cell``
    rejects, its cells taken in schema order (``columns``), not the header's."""
    for row_no, row in enumerate(body, start=1):
        if len(row) > width:
            raise ExtraCellsError(row_no, len(row), width)
        for i, column in zip(indices, columns):
            _parse_cell(row[i] if i < len(row) else "", row_no, column)
    raise AssertionError("a cohort table was refused but no cell of it is bad")


def serialize_cohort_csv(cohort: Cohort) -> str:
    """Render a cohort back to CSV.

    Floats use their shortest round-trip representation so that
    parse(serialize(parse(text))) is exact.
    """
    columns = ALL_COLUMNS if cohort.labeled else BASE_COLUMNS
    table = np.column_stack([a for a in (cohort.ages, cohort.intra, cohort.labels) if a is not None])
    lines = [",".join(columns)] + [",".join(map(repr, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def validate_cohort(cohort: Cohort) -> list[tuple[int, str, str]]:
    """The labels outside their channel's published [min, max], as
    ``(row, column, message)`` warnings sorted by row, then column name;
    an unlabeled cohort has none.

    Such a label is not an error: the bounds describe one cohort, not a
    physical limit, and a ``Cohort`` holds only values that are finite
    and > 0.
    """
    if not cohort.labeled:
        return []
    bounds = [published_range(c) for c in CHANNELS]
    below = cohort.labels < [b.min for b in bounds]
    above = cohort.labels > [b.max for b in bounds]
    warnings = [(int(i) + 1, LABEL_COLUMNS[j], f"below published min {bounds[j].min}")
                for i, j in zip(*np.nonzero(below))]
    warnings += [(int(i) + 1, LABEL_COLUMNS[j], f"above published max {bounds[j].max}")
                 for i, j in zip(*np.nonzero(above))]
    return sorted(warnings)


# --- synthetic cohort ---------------------------------------------------------

# Per-channel generative rule (documented constants, not clinical truth):
#   ei_1m[c] = SLOPE*ei_intra[c] + AGE_COEF*age + offset_c + Normal(0, sigma_c^2)
# clipped to the channel's published [min, max]. Offsets keep the channel
# midpoint fixed for the mean age; sigma_c scales with the published range.
SYNTH_SLOPE = 0.6
SYNTH_AGE_COEF = 0.15
SYNTH_SIGMA_FACTOR = 0.02
AGE_RANGE = (1.0, 6.0)
# The most patients a synthetic cohort holds (about 0.25 GiB to generate): a
# larger count is refused before anything is allocated.
SYNTH_MAX_PATIENTS = 100_000


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
    if not (is_count(n) and 1 <= n <= SYNTH_MAX_PATIENTS):
        raise InvalidCountError(f"n must be an integer in 1..{SYNTH_MAX_PATIENTS}, got {n!r}")
    require(is_count(seed) and seed >= 0, "seed", "an integer >= 0", seed)
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
    n_test = test_count(n, spec.test_fraction)
    perm = PCG64Stream(spec.seed).permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return cohort.take(train_idx), cohort.take(test_idx)
