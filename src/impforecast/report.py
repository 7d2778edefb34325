"""The study report document: the per-channel winners with their kOhm
error bands, its JSON form, and its renderings as aligned text tables,
CSV or JSON.

The module imports neither numpy nor the estimators, so ``impforecast
report`` renders a saved study without loading them.

Band percentages are rounded half-away-from-zero to two decimals using
integer arithmetic, so 14/24 is exactly 58.33 and 22/24 exactly 91.67.
Cumulative percentages are always computed from raw counts, never by
adding already-rounded cells.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .checks import is_count, loaded_rmse, repeated, require
from .domain import CHANNELS, KIND_LONG_NAMES, KIND_ORDER, FeatureGroup, ModelKind, check_channel
from .errors import (
    EmptyInputError,
    IncompatibleBundleError,
    LengthMismatchError,
    MetricError,
    UnsupportedFormatError,
)
from .textio import dump_json, load_json

REPORT_FORMAT_VERSION = 1
FORMATS = ("text", "csv", "json")

# Absolute-error bands in kOhm: [0,1), [1,2), [2,3), [3, inf)
N_BANDS = 4


# --- the document -----------------------------------------------------------------


def pct_of(count: int, n: int) -> float:
    """100*count/n rounded half-away-from-zero to 2 decimals, exactly."""
    q, r = divmod(10000 * int(count), int(n))
    if 2 * r >= n:
        q += 1
    return q / 100.0


@dataclass(frozen=True)
class ErrorBands:
    """Counts/percentages of absolute errors per kOhm band."""

    counts: tuple[int, int, int, int]
    n_test: int
    pct: tuple[float, float, float, float]
    cum_0_2: float
    cum_0_3: float

    @classmethod
    def from_counts(cls, counts, n_test: int) -> "ErrorBands":
        counts = tuple(int(c) for c in counts)
        if len(counts) != N_BANDS:
            raise LengthMismatchError(f"expected {N_BANDS} band counts, got {len(counts)}")
        if sum(counts) != n_test:
            raise LengthMismatchError(
                f"band counts sum to {sum(counts)} but n_test={n_test}"
            )
        if n_test <= 0:
            raise EmptyInputError("n_test must be positive")
        return cls(
            counts=counts,
            n_test=int(n_test),
            pct=tuple(pct_of(c, n_test) for c in counts),
            cum_0_2=pct_of(counts[0] + counts[1], n_test),
            cum_0_3=pct_of(counts[0] + counts[1] + counts[2], n_test),
        )

    def to_dict(self) -> dict:
        return {
            "counts": list(self.counts),
            "n_test": self.n_test,
            "pct": list(self.pct),
            "cum_0_2": self.cum_0_2,
            "cum_0_3": self.cum_0_3,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ErrorBands":
        """Bands read from a persisted report. Raises ValueError unless
        ``counts`` is a list of integers >= 0 and ``n_test`` an integer
        (not bools, strings or fractions), and ``pct``, ``cum_0_2`` and
        ``cum_0_3`` are the floats those give."""
        counts, n_test = d["counts"], d["n_test"]
        ok = isinstance(counts, list) and all(is_count(c) and c >= 0 for c in counts)
        require(ok, "bands.counts", "a list of integers >= 0", counts)
        require(is_count(n_test), "bands.n_test", "an integer", n_test)
        bands = cls.from_counts(counts, n_test)
        expected = bands.to_dict()
        given = {key: d[key] for key in expected}
        # compared as JSON, which tells true and 1 from 1.0
        ok = json.dumps(given) == json.dumps(expected)
        require(ok, "bands", f"{json.dumps(expected)}, the percentages of its counts", given)
        return bands


@dataclass(frozen=True)
class SelectionEntry:
    """Per-channel winner, mirroring one selection-table row."""

    channel: int
    kind: ModelKind
    group: FeatureGroup
    rmse: float
    bands: ErrorBands


@dataclass(frozen=True)
class StudyReport:
    """A study's winners, stored in channel order, and its config; raises
    IncompatibleBundleError for a channel outside 1..12 or named twice."""

    entries: tuple[SelectionEntry, ...]
    config: dict

    def __post_init__(self):
        channels = [e.channel for e in self.entries]
        outside = [c for c in channels if c not in CHANNELS]
        for rule, bad in (
            ("has an entry for channel(s) outside 1..12", outside),
            ("has more than one entry for channel(s)", repeated(channels)),
        ):
            if bad:
                raise IncompatibleBundleError(f"report {rule}: " + ", ".join(map(str, bad)))
        object.__setattr__(self, "entries", tuple(sorted(self.entries, key=lambda e: e.channel)))

    @property
    def histogram(self) -> dict[str, int]:
        return histogram_of_kinds(e.kind for e in self.entries)


def histogram_of_kinds(kinds) -> dict[str, int]:
    """Tally winning kinds; all five kinds appear, zero counts included."""
    counts = {kind.value: 0 for kind in KIND_ORDER}
    for kind in kinds:
        counts[kind.value] += 1
    return counts


# --- JSON ----------------------------------------------------------------------


def report_to_json(report: StudyReport) -> str:
    doc = {
        "format_version": REPORT_FORMAT_VERSION,
        "config": report.config,
        "entries": [
            {
                "channel": e.channel,
                "kind": e.kind.value,
                "group": e.group.value,
                "rmse": e.rmse,
                "bands": e.bands.to_dict(),
            }
            for e in report.entries
        ],
        "histogram": report.histogram,
    }
    return dump_json(doc)


def report_from_json(text: str | bytes) -> StudyReport:
    """Raises IncompatibleBundleError unless ``text`` is a report (strict JSON,
    see ``textio.load_json``) with at most one well-formed entry per channel,
    a ``histogram`` of the entries' kinds and an object as ``config``."""
    doc = load_json(text, "report", REPORT_FORMAT_VERSION)
    try:
        entries = tuple(
            SelectionEntry(
                channel=check_channel(e["channel"]),
                kind=ModelKind(e["kind"]),
                group=FeatureGroup(e["group"]),
                rmse=loaded_rmse(e["rmse"]),
                bands=ErrorBands.from_dict(e["bands"]),
            )
            for e in doc["entries"]
        )
        histogram, config = doc["histogram"], doc["config"]
    except KeyError as exc:
        raise IncompatibleBundleError(f"report lacks key {exc}") from None
    except (TypeError, ValueError, AttributeError, OverflowError, MetricError) as exc:
        raise IncompatibleBundleError(f"malformed report: {exc}") from None
    report = StudyReport(entries=entries, config=config)
    expected = report.histogram
    # only a dict equals ``expected``; == takes true and 1.0 for 1, so the counts' types are checked too
    if histogram != expected or not all(is_count(n) for n in histogram.values()):
        raise IncompatibleBundleError(
            f"report histogram must be {json.dumps(expected)}, the entries' kinds, got {histogram!r}"
        )
    if not isinstance(config, dict):
        raise IncompatibleBundleError(f"report config must be a JSON object, got {config!r}")
    return report


# --- rendering -------------------------------------------------------------------

RMSE_DECIMALS = 6
PCT_DECIMALS = 2

# rendered heading -> cell key, per render
_SELECTION_COLUMNS = {
    "Label": "label", "Best Algorithm": "algorithm", "Features Group": "group", "RMSE": "rmse",
}
_BAND_COLUMNS = {
    "Label": "label", "0-1": "pct_0_1", "1-2": "pct_1_2", "2-3": "pct_2_3",
    "0-2": "cum_0_2", "0-3": "cum_0_3", ">=3": "pct_ge_3",
}
_CSV_COLUMNS = {key: key for key in (
    "label", "kind", "group", "rmse", "n_test",
    "pct_0_1", "pct_1_2", "pct_2_3", "pct_ge_3", "cum_0_2", "cum_0_3",
)}


def _cells(report: StudyReport):
    """Each entry's formatted cells, keyed as in the CSV plus ``algorithm``,
    in channel order. Every render picks its columns from these, so each
    kind of cell is formatted here only."""
    pct = lambda v: f"{v:.{PCT_DECIMALS}f}"
    for e in report.entries:
        b = e.bands
        yield {
            "label": f"EI_1M_{e.channel}",
            "algorithm": f"{KIND_LONG_NAMES[e.kind]} ({e.kind.value})",
            "kind": e.kind.value,
            "group": str(e.group.number),
            "rmse": f"{e.rmse:.{RMSE_DECIMALS}f}",
            "n_test": str(b.n_test),
            "pct_0_1": pct(b.pct[0]),
            "pct_1_2": pct(b.pct[1]),
            "pct_2_3": pct(b.pct[2]),
            "pct_ge_3": pct(b.pct[3]),
            "cum_0_2": pct(b.cum_0_2),
            "cum_0_3": pct(b.cum_0_3),
        }


def _rows(report: StudyReport, columns: dict[str, str]) -> list[list[str]]:
    """The headings of ``columns``, then each entry's cells under them."""
    return [list(columns)] + [[cells[k] for k in columns.values()] for cells in _cells(report)]


def _table(report: StudyReport, columns: dict[str, str]) -> str:
    """``_rows`` as an aligned text table."""
    rows = _rows(report, columns)
    widths = [max(len(r[i]) for r in rows) for i in range(len(columns))]
    lines = [" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def render_selection_table(report: StudyReport) -> str:
    """One row per channel: winning algorithm, feature group, holdout RMSE."""
    return _table(report, _SELECTION_COLUMNS)


def render_band_table(report: StudyReport) -> str:
    """Per-channel error percentages by band, plus the >=3 overflow column."""
    return _table(report, _BAND_COLUMNS)


def export_study(report: StudyReport, format: str = "text") -> bytes:
    """Byte-stable export of a study report in ``format``, one of FORMATS."""
    if format == "json":
        text = report_to_json(report)
    elif format == "csv":
        text = "".join(",".join(row) + "\n" for row in _rows(report, _CSV_COLUMNS))
    elif format == "text":
        text = render_selection_table(report) + "\n" + render_band_table(report)
    else:
        raise UnsupportedFormatError(f"unsupported format {format!r}; expected one of {FORMATS}")
    return text.encode("utf-8")
