import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impforecast.bundle import bundle_from_json, bundle_to_json
from impforecast.cli import run_cli
from impforecast.dataio import generate_synthetic_cohort, parse_cohort_csv, serialize_cohort_csv
from impforecast.domain import CHANNELS, GROUP_ORDER, KIND_ORDER
from impforecast.errors import DataInputError, EncodingError, IncompatibleBundleError
from impforecast.report import (
    ErrorBands,
    SelectionEntry,
    StudyReport,
    report_from_json,
    report_to_json,
)
from impforecast.textio import check_version, decode, load_json

PARSERS = [parse_cohort_csv, bundle_from_json, report_from_json]


@pytest.mark.parametrize("text", ["age,x\n", b"age,x\n", "\ufeffage,x\n", b"\xef\xbb\xbfage,x\n"])
def test_decode_drops_one_byte_order_mark(text):
    assert decode(text) == "age,x\n"


def test_decode_keeps_a_second_byte_order_mark():
    assert decode("\ufeff\ufeffage") == "\ufeffage"


@pytest.mark.parametrize("parser", PARSERS)
def test_bytes_that_are_not_utf8_are_a_data_error(parser):
    with pytest.raises(EncodingError) as info:
        parser(b'{"format_version": 1}\xff\n')
    assert isinstance(info.value, DataInputError)
    assert "not UTF-8" in str(info.value)


# --- the strict JSON layer --------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "not json {",
        '{"format_version": 1, "x": NaN}',
        '{"format_version": 1, "x": -Infinity}',
        '{"format_version": 1, "x": 1e999}',
        '{"format_version": 1, "x": %s}' % ("9" * 5000),
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["syntax", "nan", "infinity", "overflow", "long_integer", "deep_nesting"],
)
def test_load_json_refuses_what_cannot_be_written_back(text):
    with pytest.raises(IncompatibleBundleError, match=r"^report is not valid JSON: "):
        load_json(text, "report", 1)


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "bundle must be a JSON object"),
        ({}, "unsupported bundle format_version None"),
        ({"format_version": 2}, "unsupported bundle format_version 2"),
        ({"format_version": True}, "unsupported bundle format_version True"),
        ({"format_version": 1.0}, "unsupported bundle format_version 1.0"),
    ],
)
def test_check_version_takes_only_the_integer(doc, message):
    with pytest.raises(IncompatibleBundleError) as info:
        check_version(doc, "bundle", 1)
    assert str(info.value) == message


# --- mutated documents at the library and the CLI layer ---------------------------

# a JSON number token, or a CSV cell's number
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
NOT_A_FINITE_NUMBER = [b"NaN", b"Infinity", b"-Infinity", b"1e999", b"true", b"null"]


@st.composite
def mutations(draw, text: str) -> bytes:
    """``text`` as UTF-8 with one to three edits: a flipped byte, a cut, a
    number replaced by one of NOT_A_FINITE_NUMBER, an inserted carriage
    return or NUL, or a byte-order mark put in front."""
    data = text.encode("utf-8")
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["flip", "cut", "number", "insert", "bom"]))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if how == "flip" and data:
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif how == "cut":
            data = data[:at]
        elif how == "number":
            spans = [m.span() for m in NUMBER.finditer(data)]
            if spans:
                start, end = draw(st.sampled_from(spans))
                data = data[:start] + draw(st.sampled_from(NOT_A_FINITE_NUMBER)) + data[end:]
        elif how == "insert":
            data = data[:at] + draw(st.sampled_from([b"\r", b"\x00"])) + data[at:]
        elif how == "bom":
            data = b"\xef\xbb\xbf" + data
    return data


@pytest.fixture(scope="module")
def documents(mixed_bundle, tmp_path_factory):
    """A well-formed document per parser, and a folder holding a cohort and a
    bundle saved from them, for the commands that need a second input."""
    entries = tuple(
        SelectionEntry(
            channel=c,
            kind=KIND_ORDER[c % len(KIND_ORDER)],
            group=GROUP_ORDER[c % len(GROUP_ORDER)],
            rmse=c / 7,
            bands=ErrorBands.from_counts([3, 2, 1, c % 2], 6 + c % 2),
        )
        for c in CHANNELS
    )
    report = StudyReport(entries, {"seed": 3})
    texts = {
        parse_cohort_csv: serialize_cohort_csv(generate_synthetic_cohort(6, 4)),
        bundle_from_json: bundle_to_json(mixed_bundle),
        report_from_json: report_to_json(report),
    }
    folder = tmp_path_factory.mktemp("mutated")
    (folder / "cohort.csv").write_text(texts[parse_cohort_csv])
    (folder / "models.json").write_text(texts[bundle_from_json])
    return texts, folder


@pytest.mark.parametrize("parser", PARSERS)
def test_documents_are_well_formed(parser, documents):
    """The mutations below each break one of these valid documents."""
    texts, _ = documents
    parser(texts[parser])


@pytest.mark.parametrize("parser", PARSERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_document_returns_or_raises_a_data_error(parser, documents, data):
    texts, _ = documents
    text = data.draw(mutations(texts[parser]))
    try:
        parser(text)
    except DataInputError:
        pass


@pytest.mark.parametrize("parser", PARSERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_document_exits_0_or_2(parser, documents, data):
    """The command that reads the document exits 0 (and ``predict`` writes
    finite values only) or 2 with one ``data error:`` line on stderr."""
    texts, folder = documents
    mutated, out = folder / "mutated", folder / "out"
    mutated.write_bytes(data.draw(mutations(texts[parser])))
    out.unlink(missing_ok=True)
    argv = {
        parse_cohort_csv: ["predict", "--models", str(folder / "models.json"), "--data", str(mutated)],
        bundle_from_json: ["predict", "--models", str(mutated), "--data", str(folder / "cohort.csv")],
        report_from_json: ["report", "--in", str(mutated)],
    }[parser]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli([*argv, "--out", str(out)])
    if code == 0:
        if argv[0] == "predict":
            rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
            assert np.all(np.isfinite(np.array(rows, dtype=float).reshape(len(rows), 12)))
    else:
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith("data error: ")
        assert len(err.getvalue().strip().splitlines()) == 1
        assert not out.exists()
