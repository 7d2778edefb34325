"""Core value types: the fixed 12-channel schema and its CSV column names,
published per-channel impedance ranges, and feature-vector assembly for
the two feature groups.

All types are immutable values and safe to share between threads.
Impedances are kilo-ohms throughout; ages are decimal years, and a
``Cohort`` holds only finite values > 0.

The module imports without numpy: only the functions that build arrays
load it, so code that needs the schema alone (the report reader) stays
light.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

from .errors import BadNumberError, NonPositiveError

N_CHANNELS = 12
CHANNELS = tuple(range(1, N_CHANNELS + 1))

# A cohort's CSV columns, in the order its values are stored and checked.
BASE_COLUMNS = ("age",) + tuple(f"ei_intra_{c}" for c in CHANNELS)
LABEL_COLUMNS = tuple(f"ei_1m_{c}" for c in CHANNELS)
ALL_COLUMNS = BASE_COLUMNS + LABEL_COLUMNS


class ModelKind(enum.Enum):
    """The five regression algorithm families."""

    LR = "LR"
    BLR = "BLR"
    DFR = "DFR"
    BDTR = "BDTR"
    NNR = "NNR"


# Canonical simplicity order, used to break RMSE ties (simpler kind wins).
KIND_ORDER = (ModelKind.LR, ModelKind.BLR, ModelKind.DFR, ModelKind.BDTR, ModelKind.NNR)

KIND_LONG_NAMES = {
    ModelKind.LR: "Linear Regression",
    ModelKind.BLR: "Bayesian Linear Regression",
    ModelKind.DFR: "Decision Forest Regression",
    ModelKind.BDTR: "Boosted Decision Tree Regression",
    ModelKind.NNR: "Neural Network Regression",
}


def kind_index(kind: ModelKind) -> int:
    return KIND_ORDER.index(kind)


class FeatureGroup(enum.Enum):
    """Input feature set: G1 = age only, G2 = age + 12 intraoperative impedances."""

    G1 = "G1"
    G2 = "G2"

    @property
    def dimension(self) -> int:
        return 1 if self is FeatureGroup.G1 else 1 + N_CHANNELS

    @property
    def number(self) -> int:
        return 1 if self is FeatureGroup.G1 else 2


GROUP_ORDER = (FeatureGroup.G1, FeatureGroup.G2)


def group_index(group: FeatureGroup) -> int:
    return GROUP_ORDER.index(group)


def _frozen(name: str, values, shape: tuple) -> np.ndarray:
    """A read-only C-contiguous float64 copy of ``values``, which must have ``shape``."""
    import numpy as np

    array = np.array(values, dtype=np.float64, order="C")
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class Cohort:
    """Patients as the rows of three arrays: ``ages`` (n,), the 12
    intraoperative impedances ``intra`` (n, 12) in channel order 1..12, and
    the optional 12 one-month labels ``labels`` (n, 12).

    The constructor stores read-only float64 copies, so a cohort is an
    immutable value; two cohorts are equal when their arrays hold the same
    bytes. It raises ValueError on a shape mismatch, and BadNumberError
    (NaN, infinity) or NonPositiveError (<= 0) for the first value, in
    ``ALL_COLUMNS`` order row by row, that is not finite and > 0.
    """

    ages: np.ndarray
    intra: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        import numpy as np

        if np.ndim(self.ages) != 1:
            raise ValueError(f"ages must be one-dimensional, got shape {np.shape(self.ages)}")
        rows = (len(self.ages), N_CHANNELS)
        object.__setattr__(self, "ages", _frozen("ages", self.ages, rows[:1]))
        object.__setattr__(self, "intra", _frozen("intra", self.intra, rows))
        if self.labels is not None:
            object.__setattr__(self, "labels", _frozen("labels", self.labels, rows))
        table = np.column_stack([a for a in (self.ages, self.intra, self.labels) if a is not None])
        bad = ~(np.isfinite(table) & (table > 0))
        if bad.any():
            row, column = divmod(int(bad.argmax()), table.shape[1])
            value = table[row, column].item()
            if math.isfinite(value):
                raise NonPositiveError(row + 1, ALL_COLUMNS[column], f"must be > 0, got {value}")
            raise BadNumberError(row + 1, ALL_COLUMNS[column], f"non-finite value: {value!r}")

    @property
    def labeled(self) -> bool:
        return self.labels is not None

    def __len__(self) -> int:
        return len(self.ages)

    def take(self, idx) -> Cohort:
        """The rows that ``idx`` selects (integer indices, in their order, or
        a boolean mask), as a new cohort."""
        import numpy as np

        rows = np.arange(len(self))[idx]
        labels = None if self.labels is None else self.labels[rows]
        return Cohort(self.ages[rows], self.intra[rows], labels)

    def _key(self) -> tuple:
        return tuple(
            None if a is None else (a.shape, a.tobytes()) for a in (self.ages, self.intra, self.labels)
        )

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Cohort) else NotImplemented

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class ChannelRange:
    """Published [min, max] of the one-month impedance for one channel (kOhm)."""

    channel: int
    min: float
    max: float
    range: float


# Published per-channel one-month impedance bounds (kOhm) from the reference
# cohort. Single source of truth for label validation and synthesis bounds.
_RANGE_TABLE = {
    1: (4.48, 16.86, 12.38),
    2: (5.37, 17.64, 12.27),
    3: (4.19, 14.57, 10.38),
    4: (3.38, 17.47, 14.09),
    5: (2.71, 16.50, 13.79),
    6: (2.10, 10.55, 8.45),
    7: (1.97, 8.94, 6.97),
    8: (2.34, 8.59, 6.25),
    9: (2.34, 8.30, 5.96),
    10: (2.12, 8.00, 5.88),
    11: (2.12, 9.62, 7.50),
    12: (2.12, 9.31, 7.19),
}

PUBLISHED_RANGES = {
    c: ChannelRange(c, lo, hi, span) for c, (lo, hi, span) in _RANGE_TABLE.items()
}


def check_channel(channel: int) -> int:
    """Validate a channel id (1..12) and return it."""
    if not isinstance(channel, numbers.Integral) or isinstance(channel, bool):
        raise ValueError(f"channel must be an integer, got {channel!r}")
    if not 1 <= channel <= N_CHANNELS:
        raise ValueError(f"channel must be in 1..{N_CHANNELS}, got {channel}")
    return int(channel)


def published_range(channel: int) -> ChannelRange:
    """Published one-month impedance range for ``channel``."""
    return PUBLISHED_RANGES[check_channel(channel)]


def feature_matrix(cohort: Cohort, group: FeatureGroup) -> np.ndarray:
    """The (n, d) C-contiguous feature matrix: ``[age]`` for G1 (a read-only
    view of the cohort), ``[age, intra 1..12]`` for G2."""
    if group is FeatureGroup.G1:
        return cohort.ages[:, None]
    import numpy as np

    return np.column_stack([cohort.ages, cohort.intra])


def label_vector(cohort: Cohort, channel: int) -> np.ndarray:
    """One-month labels for ``channel`` across the cohort, as a contiguous copy."""
    c = check_channel(channel)
    if cohort.labels is None:
        raise ValueError("the cohort has no one-month labels")
    return cohort.labels[:, c - 1].copy()
