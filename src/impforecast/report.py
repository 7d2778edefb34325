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
import math
from dataclasses import dataclass

from .checks import is_count, loaded_rmse, require
from .domain import KIND_LONG_NAMES, KIND_ORDER, FeatureGroup, ModelKind, check_channel
from .errors import (
    EmptyInputError,
    IncompatibleBundleError,
    LengthMismatchError,
    MetricError,
    UnsupportedFormatError,
)

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
        ``counts`` is a list of integers >= 0 and ``n_test`` an integer:
        not bools, strings or fractions."""
        counts, n_test = d["counts"], d["n_test"]
        ok = isinstance(counts, list) and all(is_count(c) and c >= 0 for c in counts)
        require(ok, "bands.counts", "a list of integers >= 0", counts)
        require(is_count(n_test), "bands.n_test", "an integer", n_test)
        return cls.from_counts(counts, n_test)


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
    entries: tuple[SelectionEntry, ...]
    histogram: dict[str, int]
    config: dict


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
            for e in sorted(report.entries, key=lambda e: e.channel)
        ],
        "histogram": report.histogram,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _finite_number(token: str) -> float:
    """JSON parse hook for number tokens and NaN/Infinity: the finite float,
    else ValueError, so every number read can be written back as JSON."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def report_from_json(text: str | bytes) -> StudyReport:
    """Raises IncompatibleBundleError unless ``text`` is standard JSON with
    finite numbers, and a report of the current format whose ``entries``
    are well formed (at most one per channel 1..12, ``rmse`` >= 0), whose
    ``histogram`` counts the entries' kinds and whose ``config`` is an
    object."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except ValueError as exc:  # a JSONDecodeError or a non-finite number
        raise IncompatibleBundleError(f"report is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise IncompatibleBundleError("report document must be a JSON object")
    version = doc.get("format_version")
    if not (is_count(version) and version == REPORT_FORMAT_VERSION):  # not true, not 1.0
        raise IncompatibleBundleError(
            f"unsupported report format_version {version!r}"
        )
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
    channels = [e.channel for e in entries]
    repeated = sorted({c for c in channels if channels.count(c) > 1})
    if repeated:
        raise IncompatibleBundleError(
            "report has more than one entry for channel(s): " + ", ".join(map(str, repeated))
        )
    expected = histogram_of_kinds(e.kind for e in entries)
    # only a dict equals ``expected``; == takes true and 1.0 for 1, so the counts' types are checked too
    if histogram != expected or not all(is_count(n) for n in histogram.values()):
        raise IncompatibleBundleError(
            f"report histogram must be {json.dumps(expected)}, the entries' kinds, got {histogram!r}"
        )
    if not isinstance(config, dict):
        raise IncompatibleBundleError(f"report config must be a JSON object, got {config!r}")
    return StudyReport(entries=entries, histogram=expected, config=config)


# --- rendering -------------------------------------------------------------------


@dataclass(frozen=True)
class RenderOptions:
    format: str = "text"
    decimals_rmse: int = 6
    decimals_pct: int = 2

    def __post_init__(self):
        if not 0 <= self.decimals_rmse <= 10 or not 0 <= self.decimals_pct <= 10:
            raise ValueError("decimals must be in [0, 10]")


def _channel_label(channel: int) -> str:
    return f"EI_1M_{channel}"


def _kind_cell(kind) -> str:
    return f"{KIND_LONG_NAMES[kind]} ({kind.value})"


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = [" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def render_selection_table(report: StudyReport, opts: RenderOptions = RenderOptions()) -> str:
    """One row per channel: winning algorithm, feature group, holdout RMSE."""
    rows = [["Label", "Best Algorithm", "Features Group", "RMSE"]]
    for e in sorted(report.entries, key=lambda e: e.channel):
        rows.append(
            [
                _channel_label(e.channel),
                _kind_cell(e.kind),
                str(e.group.number),
                f"{e.rmse:.{opts.decimals_rmse}f}",
            ]
        )
    return _table(rows)


def render_band_table(report: StudyReport, opts: RenderOptions = RenderOptions()) -> str:
    """Per-channel error percentages by band, plus the >=3 overflow column."""
    header = ["Label", "0-1", "1-2", "2-3", "0-2", "0-3", ">=3"]
    rows = [header]
    for e in sorted(report.entries, key=lambda e: e.channel):
        b = e.bands
        pct = lambda v: f"{v:.{opts.decimals_pct}f}"
        rows.append(
            [
                _channel_label(e.channel),
                pct(b.pct[0]),
                pct(b.pct[1]),
                pct(b.pct[2]),
                pct(b.cum_0_2),
                pct(b.cum_0_3),
                pct(b.pct[3]),
            ]
        )
    return _table(rows)


def _csv_rows(report: StudyReport, opts: RenderOptions) -> str:
    header = (
        "label,kind,group,rmse,n_test,pct_0_1,pct_1_2,pct_2_3,pct_ge_3,cum_0_2,cum_0_3"
    )
    lines = [header]
    for e in sorted(report.entries, key=lambda e: e.channel):
        b = e.bands
        pct = lambda v: f"{v:.{opts.decimals_pct}f}"
        lines.append(
            ",".join(
                [
                    _channel_label(e.channel),
                    e.kind.value,
                    str(e.group.number),
                    f"{e.rmse:.{opts.decimals_rmse}f}",
                    str(b.n_test),
                    pct(b.pct[0]),
                    pct(b.pct[1]),
                    pct(b.pct[2]),
                    pct(b.pct[3]),
                    pct(b.cum_0_2),
                    pct(b.cum_0_3),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def export_study(report: StudyReport, opts: RenderOptions = RenderOptions()) -> bytes:
    """Byte-stable export of a study report in the requested format."""
    if opts.format == "json":
        return report_to_json(report).encode("utf-8")
    if opts.format == "csv":
        return _csv_rows(report, opts).encode("utf-8")
    if opts.format == "text":
        text = render_selection_table(report, opts) + "\n" + render_band_table(report, opts)
        return text.encode("utf-8")
    raise UnsupportedFormatError(f"unsupported format {opts.format!r}; expected one of {FORMATS}")
