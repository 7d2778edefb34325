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

from dataclasses import dataclass

from .domain import (
    KIND_LONG_NAMES,
    KIND_ORDER,
    FeatureGroup,
    ModelKind,
    check_channel,
    is_count,
    loaded_rmse,
    repeated,
    require,
)
from .errors import (
    EmptyInputError,
    IncompatibleBundleError,
    LengthMismatchError,
    MetricError,
    UnsupportedFormatError,
)
from .textio import check_saves_back, dump_json, load_json, write_json

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
        """The bands of ``counts`` errors in each band out of ``n_test``.
        Raises ValueError for a count below 0, LengthMismatchError unless
        there are four counts that sum to ``n_test``, and EmptyInputError
        unless ``n_test`` is positive."""
        counts = tuple(int(c) for c in counts)
        require(min(counts, default=0) >= 0, "bands.counts", "a list of integers >= 0", list(counts))
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
        """``from_counts`` of a persisted entry's ``counts`` and ``n_test``.
        Raises ValueError unless ``counts`` is a list of integers and
        ``n_test`` an integer (not bools, strings or fractions). The
        percentages are not read: ``report_from_json`` refuses a report
        whose percentages are not those its writer derives from the counts."""
        counts, n_test = d["counts"], d["n_test"]
        ok = isinstance(counts, list) and all(map(is_count, counts))
        require(ok, "bands.counts", "a list of integers >= 0", counts)  # from_counts refuses < 0
        require(is_count(n_test), "bands.n_test", "an integer", n_test)
        return cls.from_counts(counts, n_test)


@dataclass(frozen=True)
class SelectionEntry:
    """Per-channel winner, mirroring one selection-table row; raises
    ValueError for a channel outside 1..12 or an ``rmse`` that is not a
    finite number >= 0, as its reader does."""

    channel: int
    kind: ModelKind
    group: FeatureGroup
    rmse: float
    bands: ErrorBands

    def __post_init__(self):
        object.__setattr__(self, "channel", check_channel(self.channel))
        object.__setattr__(self, "rmse", loaded_rmse(self.rmse))


@dataclass(frozen=True)
class StudyReport:
    """A study's winners, stored in channel order, and its config; raises
    IncompatibleBundleError for a channel named twice."""

    entries: tuple[SelectionEntry, ...]
    config: dict

    def __post_init__(self):
        twice = repeated(e.channel for e in self.entries)
        if twice:
            raise IncompatibleBundleError(
                "report has more than one entry for channel(s): " + ", ".join(map(str, twice))
            )
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


def _report_doc(report: StudyReport) -> dict:
    return {
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


def report_to_json(report: StudyReport) -> str:
    return dump_json(_report_doc(report))


def save_report(report: StudyReport, path) -> None:
    """Write ``report_to_json(report)`` to ``path``; see ``textio.write_json``."""
    write_json(path, _report_doc(report))


def report_from_json(text: str | bytes) -> StudyReport:
    """Raises IncompatibleBundleError unless ``text`` is a report (strict JSON,
    see ``textio.load_json``) with at most one well-formed entry per channel
    and an object as ``config``, that saves back to itself
    (``textio.check_saves_back``): so its entries are in channel order, and
    its band percentages and ``histogram`` are those its writer derives from
    the entries."""
    doc = load_json(text, "report", REPORT_FORMAT_VERSION)
    try:
        entries = tuple(
            SelectionEntry(
                channel=e["channel"],
                kind=ModelKind(e["kind"]),
                group=FeatureGroup(e["group"]),
                rmse=e["rmse"],
                bands=ErrorBands.from_dict(e["bands"]),
            )
            for e in doc["entries"]
        )
        config = doc["config"]
    except KeyError as exc:
        raise IncompatibleBundleError(f"report lacks key {exc}") from None
    except (TypeError, ValueError, AttributeError, OverflowError, MetricError) as exc:
        raise IncompatibleBundleError(f"malformed report: {exc}") from None
    report = StudyReport(entries=entries, config=config)
    if not isinstance(config, dict):
        raise IncompatibleBundleError(f"report config must be a JSON object, got {config!r}")
    check_saves_back(doc, _report_doc(report), "report")
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
