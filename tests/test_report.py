import dataclasses
import json

import pytest

from impforecast.domain import FeatureGroup, ModelKind
from impforecast.errors import IncompatibleBundleError, UnsupportedFormatError
from impforecast.metrics import ErrorBands
from impforecast.pipeline import (
    SelectionEntry,
    StudyReport,
    report_from_json,
)
from impforecast.report import (
    RMSE_DECIMALS,
    export_study,
    render_band_table,
    render_selection_table,
)

# reference winners: (channel, kind, group, rmse) rows the selection table mirrors
REFERENCE_ROWS = [
    (1, ModelKind.BLR, FeatureGroup.G2, 0.936972),
    (2, ModelKind.DFR, FeatureGroup.G2, 0.934948),
    (3, ModelKind.LR, FeatureGroup.G2, 0.802687),
    (4, ModelKind.BLR, FeatureGroup.G2, 1.122467),
    (5, ModelKind.BLR, FeatureGroup.G2, 1.175844),
    (6, ModelKind.BLR, FeatureGroup.G2, 1.172564),
    (7, ModelKind.BLR, FeatureGroup.G2, 1.026447),
    (8, ModelKind.BLR, FeatureGroup.G2, 1.050416),
    (9, ModelKind.BLR, FeatureGroup.G2, 1.087652),
    (10, ModelKind.NNR, FeatureGroup.G2, 0.872403),
    (11, ModelKind.NNR, FeatureGroup.G1, 0.90388),
    (12, ModelKind.BDTR, FeatureGroup.G2, 0.889965),
]


def reference_report(band_counts=(14, 8, 2, 0)) -> StudyReport:
    entries = tuple(
        SelectionEntry(
            channel=c, kind=k, group=g, rmse=r,
            bands=ErrorBands.from_counts(band_counts, sum(band_counts)),
        )
        for c, k, g, r in REFERENCE_ROWS
    )
    return StudyReport(
        entries=entries,
        config={"seed": 42, "test_fraction": 0.30, "selection": "test", "hyper": {}},
    )


def cells(line: str) -> list[str]:
    return [c.strip() for c in line.split("|")]


class TestSelectionTable:
    def test_reference_row_content(self):
        text = render_selection_table(reference_report())
        lines = text.splitlines()
        assert cells(lines[0]) == ["Label", "Best Algorithm", "Features Group", "RMSE"]
        assert cells(lines[1]) == [
            "EI_1M_1",
            "Bayesian Linear Regression (BLR)",
            "2",
            "0.936972",
        ]

    def test_group_one_rendered(self):
        text = render_selection_table(reference_report())
        row11 = cells(text.splitlines()[11])
        assert row11[0] == "EI_1M_11"
        assert row11[1] == "Neural Network Regression (NNR)"
        assert row11[2] == "1"
        assert row11[3] == "0.903880"

    def test_empty_report_is_header_only(self):
        empty = StudyReport(entries=(), config={})
        text = render_selection_table(empty)
        assert text.splitlines() == ["Label | Best Algorithm | Features Group | RMSE"]

    def test_rows_ordered_by_channel(self):
        report = reference_report()
        shuffled = StudyReport(
            entries=tuple(reversed(report.entries)),
            config=report.config,
        )
        labels = [cells(l)[0] for l in render_selection_table(shuffled).splitlines()[1:]]
        assert labels == [f"EI_1M_{c}" for c in range(1, 13)]

    def test_rendered_rmse_parses_back(self):
        text = render_selection_table(reference_report())
        for line, (_, _, _, rmse_val) in zip(text.splitlines()[1:], REFERENCE_ROWS):
            rendered = float(cells(line)[3])
            assert abs(rendered - rmse_val) <= 0.5 * 10 ** (-RMSE_DECIMALS)


class TestBandTable:
    def test_reference_channel_row(self):
        text = render_band_table(reference_report(band_counts=(14, 8, 2, 0)))
        row10 = cells(text.splitlines()[10])
        assert row10 == ["EI_1M_10", "58.33", "33.33", "8.33", "91.67", "100.00", "0.00"]

    def test_all_zero_error_channel(self):
        text = render_band_table(reference_report(band_counts=(24, 0, 0, 0)))
        assert cells(text.splitlines()[1])[1:] == [
            "100.00", "0.00", "0.00", "100.00", "100.00", "0.00",
        ]

    def test_everything_in_overflow(self):
        text = render_band_table(reference_report(band_counts=(0, 0, 0, 24)))
        row = cells(text.splitlines()[1])
        assert row[5] == "0.00"  # 0-3 column
        assert row[6] == "100.00"  # >=3 overflow


class TestExport:
    def test_json_roundtrip(self):
        report = reference_report()
        data = export_study(report, "json")
        assert report_from_json(data.decode("utf-8")) == report

    @pytest.mark.parametrize("key, value", [
        ("pct", [58.34, 33.33, 8.33, 0.0]),
        ("pct", [58.33, 33.33, 8.33]),
        ("cum_0_2", 91.66),
        ("cum_0_3", 99.99),
        ("cum_0_3", "100.0"),
    ])
    def test_percentages_must_follow_from_the_counts(self, key, value):
        doc = json.loads(export_study(reference_report(), "json"))
        doc["entries"][4]["bands"][key] = value
        with pytest.raises(IncompatibleBundleError,
                           match=f"^report does not save back to itself at entries\\[4\\]\\.bands\\.{key}"):
            report_from_json(json.dumps(doc))

    def test_percentages_are_floats_and_present(self):
        doc = json.loads(export_study(reference_report(band_counts=(1, 99, 0, 0)), "json"))
        assert doc["entries"][0]["bands"]["pct"][0] == 1.0
        for wrong_type, shown in ((True, "true"), (1, "1")):
            doc["entries"][0]["bands"]["pct"][0] = wrong_type
            with pytest.raises(IncompatibleBundleError,
                               match=f"at entries\\[0\\]\\.bands\\.pct\\[0\\]: it holds {shown}, its writer writes 1.0$"):
                report_from_json(json.dumps(doc))
        del doc["entries"][0]["bands"]["pct"]
        with pytest.raises(IncompatibleBundleError,
                           match="at entries\\[0\\]\\.bands\\.pct: it holds no such key, its writer writes \\[1.0, "):
            report_from_json(json.dumps(doc))

    def test_csv_has_12_rows(self):
        data = export_study(reference_report(), "csv")
        lines = data.decode("utf-8").splitlines()
        assert len(lines) == 13
        assert lines[0].startswith("label,kind,group,rmse,n_test")
        assert lines[1].split(",")[0:3] == ["EI_1M_1", "BLR", "2"]

    def test_byte_stable(self):
        report = reference_report()
        for fmt in ("text", "csv", "json"):
            assert export_study(report, fmt) == export_study(report, fmt)

    def test_unsupported_format(self):
        with pytest.raises(UnsupportedFormatError):
            export_study(reference_report(), "yaml")

    def test_an_entry_the_reader_refuses_cannot_be_built(self):
        entry = reference_report().entries[0]
        with pytest.raises(ValueError, match="^rmse must be a finite number >= 0, got -2.0$"):
            dataclasses.replace(entry, rmse=-2.0)
        doc = json.loads(export_study(reference_report(), "json"))
        doc["entries"][0]["rmse"] = -2.0
        with pytest.raises(IncompatibleBundleError,
                           match="^malformed report: rmse must be a finite number >= 0, got -2.0$"):
            report_from_json(json.dumps(doc))
