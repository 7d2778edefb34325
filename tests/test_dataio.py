import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from impforecast.dataio import (
    SYNTH_MAX_PATIENTS,
    SplitSpec,
    generate_synthetic_cohort,
    parse_cohort_csv,
    serialize_cohort_csv,
    split_cohort,
    synth_sigma,
    validate_cohort,
)
from impforecast.dataio import test_count as held_out_count
from impforecast.domain import CHANNELS, Cohort, published_range
from impforecast.errors import (
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

FULL_HEADER = (
    "age,"
    + ",".join(f"ei_intra_{c}" for c in CHANNELS)
    + ","
    + ",".join(f"ei_1m_{c}" for c in CHANNELS)
)
BASE_HEADER = "age," + ",".join(f"ei_intra_{c}" for c in CHANNELS)


def full_row(age=2.5, intra=5.0, label=6.0):
    return ",".join([str(age)] + [str(intra)] * 12 + [str(label)] * 12)


class TestParse:
    def test_minimal_labeled_row(self):
        cohort = parse_cohort_csv(FULL_HEADER + "\n" + full_row() + "\n")
        assert len(cohort) == 1
        assert cohort.labeled
        assert cohort.ages.tolist() == [2.5]
        assert cohort.intra.tolist() == [[5.0] * 12]
        assert cohort.labels.tolist() == [[6.0] * 12]

    def test_unlabeled_prediction_input(self):
        text = BASE_HEADER + "\n" + ",".join(["2.5"] + ["5.0"] * 12) + "\n"
        cohort = parse_cohort_csv(text)
        assert len(cohort) == 1
        assert not cohort.labeled
        assert cohort.labels is None

    def test_nonpositive_cell(self):
        cells = ["2.5"] + ["5.0"] * 12
        cells[3] = "-1.0"  # ei_intra_3
        with pytest.raises(NonPositiveError) as info:
            parse_cohort_csv(BASE_HEADER + "\n" + ",".join(cells) + "\n")
        assert info.value.row == 1
        assert info.value.column == "ei_intra_3"

    def test_missing_column_named(self):
        header = BASE_HEADER.replace("ei_intra_5,", "")
        with pytest.raises(MissingColumnError) as info:
            parse_cohort_csv(header + "\n")
        assert "ei_intra_5" in str(info.value)

    def test_partial_label_block_rejected(self):
        header = FULL_HEADER.replace(",ei_1m_12", "")
        with pytest.raises(MissingColumnError) as info:
            parse_cohort_csv(header + "\n")
        assert "ei_1m_12" in str(info.value)

    @pytest.mark.parametrize("column", ["ei_intra_3", "notes"])
    def test_column_named_twice_rejected(self, column):
        header = BASE_HEADER + f",{column},{column}"
        row = ",".join(["2.5"] + ["5.0"] * 12 + ["99.0", "99.0"])
        with pytest.raises(DuplicateColumnError) as info:
            parse_cohort_csv(header + "\n" + row + "\n")
        assert info.value.columns == (column,)
        assert column in str(info.value)

    def test_row_with_more_cells_than_header_rejected(self):
        row = ",".join(["2.5"] + ["5.0"] * 12)
        with pytest.raises(ExtraCellsError) as info:
            parse_cohort_csv(BASE_HEADER + "\n" + row + "\n" + row + ",99.0\n")
        assert info.value.row == 2
        assert str(info.value) == "row 2 has 14 cells but the header has 13"

    @pytest.mark.parametrize("bad_row, message", [
        ("9" * 200_001 + ",5.0" * 12, "field larger than field limit"),  # one oversized cell
        ("2.5,5.0\r,5.0" + ",5.0" * 10, "new-line character"),  # a bare carriage return
    ])
    def test_csv_syntax_error_names_its_line(self, bad_row, message):
        row = ",".join(["2.5"] + ["5.0"] * 12)
        with pytest.raises(CsvSyntaxError) as info:
            parse_cohort_csv(BASE_HEADER + "\n" + row + "\n" + bad_row + "\n")
        assert info.value.line == 3
        assert str(info.value).startswith("line 3: ") and message in str(info.value)

    def test_bare_carriage_return_error_has_no_open_mode_hint(self):
        row = "2.5,5.0\r,5.0" + ",5.0" * 10
        with pytest.raises(CsvSyntaxError) as info:
            parse_cohort_csv(BASE_HEADER + "\n" + row + "\n")
        assert str(info.value) == "line 2: new-line character seen in unquoted field"

    def test_empty_file(self):
        with pytest.raises(EmptyFileError):
            parse_cohort_csv("")

    def test_bad_number_cell(self):
        cells = ["2.5"] + ["5.0"] * 12
        cells[0] = "young"
        with pytest.raises(BadNumberError) as info:
            parse_cohort_csv(BASE_HEADER + "\n" + ",".join(cells) + "\n")
        assert info.value.column == "age"

    def test_missing_value_is_hard_error(self):
        cells = ["2.5"] + ["5.0"] * 11 + [""]
        with pytest.raises(BadNumberError):
            parse_cohort_csv(BASE_HEADER + "\n" + ",".join(cells) + "\n")

    def test_crlf_accepted(self):
        text = FULL_HEADER + "\r\n" + full_row() + "\r\n"
        assert len(parse_cohort_csv(text)) == 1

    def test_bytes_accepted(self):
        text = (FULL_HEADER + "\n" + full_row() + "\n").encode("utf-8")
        assert len(parse_cohort_csv(text)) == 1


def test_parse_serialize_roundtrip_exact():
    cohort = generate_synthetic_cohort(25, 99)
    once = parse_cohort_csv(serialize_cohort_csv(cohort))
    twice = parse_cohort_csv(serialize_cohort_csv(once))
    assert once == twice == cohort


def patients(*label_rows, age=2.5):
    """A cohort with one row per entry of ``label_rows``; intra all 5.0."""
    n = len(label_rows)
    return Cohort([age] * n, [[5.0] * 12] * n, list(label_rows))


positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


@st.composite
def cohorts(draw):
    n = draw(st.integers(0, 20))
    labels = draw(st.none() | arrays(np.float64, (n, 12), elements=positive))
    return Cohort(
        draw(arrays(np.float64, (n,), elements=positive)),
        draw(arrays(np.float64, (n, 12), elements=positive)),
        labels,
    )


@settings(max_examples=100, deadline=None)
@given(cohort=cohorts())
def test_serialize_parse_round_trip_keeps_the_bytes(cohort):
    again = parse_cohort_csv(serialize_cohort_csv(cohort))
    assert again.ages.tobytes() == cohort.ages.tobytes()
    assert again.intra.tobytes() == cohort.intra.tobytes()
    assert again.labeled == cohort.labeled
    if cohort.labeled:
        assert again.labels.tobytes() == cohort.labels.tobytes()
    assert again == cohort



# --- the column-wise parse against a per-cell reference -------------------------

COLUMNS = ("age",) + tuple(f"ei_intra_{c}" for c in CHANNELS)
LABELS = tuple(f"ei_1m_{c}" for c in CHANNELS)
# cells a spreadsheet or a hand edit may leave: blanks, padding, special
# floats, out-of-range values and text float() reads or refuses
ODD_CELLS = ("", " ", "  5.0", "5.0 ", "\t7.5\t", "nan", "NaN", "inf", "-inf", "1e999", "1e-999",
             "0", "0.0", "-1", "1_0", "_1", "abc", "1.7e308", "+3", "5,0", "\x1f4.0")


def reference_parse(text):
    """A cohort CSV with a well-formed header parsed one cell at a time: its
    (rows, columns) table, or the first error, row by row in file order and,
    within a row, cell by cell in schema order (``age``, ``ei_intra_1..12``,
    ``ei_1m_1..12``), whatever the header's order."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    header = [cell.strip() for cell in rows[0]]
    columns = COLUMNS + LABELS if LABELS[0] in header else COLUMNS
    table = []
    for row_no, row in enumerate(rows[1:], start=1):
        if len(row) > len(header):
            raise ExtraCellsError(row_no, len(row), len(header))
        values = []
        for column in columns:
            i = header.index(column)
            cell = row[i].strip() if i < len(row) else ""
            if not cell:
                raise BadNumberError(row_no, column, "missing value")
            try:
                value = float(cell)
            except ValueError:
                raise BadNumberError(row_no, column, f"not a number: {cell!r}") from None
            if not math.isfinite(value):
                raise BadNumberError(row_no, column, f"non-finite value: {cell!r}")
            if value <= 0:
                raise NonPositiveError(row_no, column, f"must be > 0, got {cell}")
            values.append(value)
        table.append(values)
    return np.array(table, dtype=float).reshape(len(rows) - 1, len(columns))


@st.composite
def mutated_cohort_csvs(draw):
    """A cohort CSV, its columns in any order and maybe with an unused one,
    with odd cells, rows cut short or run long, a byte-order mark and CRLF."""
    labeled = draw(st.booleans())
    header = list(draw(st.permutations(COLUMNS + LABELS if labeled else COLUMNS)))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "note")
    n = draw(st.integers(0, 6))
    values = st.floats(0.1, 50.0).map(repr)
    rows = [[draw(values) for _ in header] for _ in range(n)]
    if n:
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, len(header) - 1), st.sampled_from(ODD_CELLS))
        for r, c, odd in draw(st.lists(cell, max_size=4)):
            rows[r][c] = odd
        for r, width in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, len(header) + 2)),
                                      max_size=2)):
            rows[r] = (rows[r] + ["9.5"] * 3)[:width]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(",".join(row) for row in [header, *rows]) + newline
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.encode("utf-8") if draw(st.booleans()) else text


# age comes after ei_intra_1 in the header, but its bad cell is the one named
@example(text="ei_intra_1,age," + ",".join(COLUMNS[2:]) + "\nabc,nan," + ",".join(["5.0"] * 11) + "\n")
@settings(max_examples=400, deadline=None)
@given(text=mutated_cohort_csvs())
def test_parse_equals_a_per_cell_reference(text):
    """The column-wise parse gives every cell the reference's bits, and a
    file with a bad row or cell the reference's first error."""
    try:
        expected = reference_parse(text)
    except (ExtraCellsError, BadNumberError, NonPositiveError) as exc:
        with pytest.raises(type(exc)) as raised:
            parse_cohort_csv(text)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    cohort = parse_cohort_csv(text)
    parts = [cohort.ages[:, None], cohort.intra] + ([cohort.labels] if cohort.labeled else [])
    table = np.hstack(parts)
    assert table.shape == expected.shape
    assert table.tobytes() == expected.tobytes()


class TestValidate:
    def label_row(self, changes=None):
        labels = list(6.0 for _ in CHANNELS)
        for idx, value in (changes or {}).items():
            labels[idx] = value
        return labels

    def test_boundary_min_is_inclusive(self):
        # published min of channel 1 is 4.48
        assert not validate_cohort(patients(self.label_row({0: 4.48})))

    def test_above_max_warns(self):
        warnings = validate_cohort(patients(self.label_row({0: 17.00})))
        assert len(warnings) == 1
        row, column, message = warnings[0]
        assert (row, column) == (1, "ei_1m_1")
        assert "above published max 16.86" in message

    def test_below_min_warns(self):
        warnings = validate_cohort(patients(self.label_row({9: 1.0})))
        assert any("below published min" in w[2] for w in warnings)

    def test_unlabeled_record_has_no_range_warnings(self):
        assert not validate_cohort(Cohort([2.5], [[5.0] * 12]))

    def test_wrong_intra_width_rejected_by_constructor(self):
        with pytest.raises(ValueError):
            Cohort([2.5], [[5.0] * 11])

    def test_structural_errors(self):
        with pytest.raises(BadNumberError) as raised:
            Cohort([float("nan")], [[5.0] * 12])
        assert (raised.value.row, raised.value.column) == (1, "age")
        assert str(raised.value) == "row 1, column 'age': non-finite value: nan"

    def test_nonpositive_label_is_error(self):
        with pytest.raises(NonPositiveError) as raised:
            patients(self.label_row({2: -3.0}))
        assert raised.value.column == "ei_1m_3"
        assert str(raised.value) == "row 1, column 'ei_1m_3': must be > 0, got -3.0"

    def test_monotone_in_records(self):
        bad = self.label_row({0: 17.00})
        one = validate_cohort(patients(bad))
        two = validate_cohort(patients(bad, self.label_row()))
        assert set(one) <= set(two)

    def test_report_sorted_by_row_then_column(self):
        warnings = validate_cohort(patients(self.label_row({9: 1.0, 0: 17.0}), self.label_row({0: 17.0})))
        assert warnings == sorted(warnings, key=lambda w: (w[0], w[1]))


class TestSyntheticCohort:
    def test_deterministic(self):
        a = generate_synthetic_cohort(80, 7)
        b = generate_synthetic_cohort(80, 7)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_synthetic_cohort(10, 1) != generate_synthetic_cohort(10, 2)

    def test_labels_clipped_to_published_bounds(self):
        cohort = generate_synthetic_cohort(80, 7)
        lo, hi = published_range(10).min, published_range(10).max
        for label in cohort.labels[:, 9].tolist():
            assert lo <= label <= hi

    def test_intra_to_one_month_correlation(self):
        # brute-force correlation over a large sample for every channel
        cohort = generate_synthetic_cohort(1000, 1)
        intra, labels = cohort.intra, cohort.labels
        for c in CHANNELS:
            r = np.corrcoef(intra[:, c - 1], labels[:, c - 1])[0, 1]
            assert r > 0.5, f"channel {c} correlation {r:.3f}"

    def test_passes_validation_clean(self):
        assert validate_cohort(generate_synthetic_cohort(120, 5)) == []

    @pytest.mark.parametrize("n", [0, SYNTH_MAX_PATIENTS + 1, 10**12, 1.5, True])
    def test_rejects_zero_count(self, n):
        with pytest.raises(InvalidCountError, match=rf"^n must be an integer in 1\.\.{SYNTH_MAX_PATIENTS}, got "):
            generate_synthetic_cohort(n, 1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
    def test_rejects_a_seed_that_is_not_an_integer_ge_0(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            generate_synthetic_cohort(5, seed)

    def test_sigma_positive_every_channel(self):
        assert all(synth_sigma(c) > 0 for c in CHANNELS)


class TestSplit:
    def test_default_split_of_80_gives_24(self):
        cohort = generate_synthetic_cohort(80, 7)
        train, test = split_cohort(cohort, SplitSpec(0.30, 123))
        assert (len(train), len(test)) == (56, 24)

    def test_published_percentages_quantized_to_24ths(self):
        # every published per-channel error percentage is a multiple of
        # 1/24 to within 0.01, pinning the held-out size at 24 of 80
        published = [
            20.83, 33.33, 20.83, 54.16, 75.0,
            29.16, 33.33, 4.16, 62.50, 66.66,
            41.66, 20.83, 20.83, 62.50, 83.33,
            37.50, 29.17, 16.67, 66.67, 83.33,
            54.17, 20.83, 8.33, 75.0, 83.33,
            41.67, 29.17, 20.83, 70.83, 91.67,
            37.50, 29.17, 25.0, 66.67, 91.67,
            41.67, 29.17, 12.50, 70.83, 83.33,
            58.33, 20.83, 12.50, 79.17, 91.67,
            58.33, 33.33, 8.33, 91.67, 100.0,
            58.33, 33.33, 8.33, 91.67, 100.0,
            45.83, 8.33, 29.17, 54.17, 83.33,
        ]
        grid = [100.0 * k / 24 for k in range(25)]
        for cell in published:
            assert min(abs(cell - g) for g in grid) <= 0.01
        assert held_out_count(80, 0.30) == 24

    def test_minimal_split(self):
        cohort = generate_synthetic_cohort(2, 3)
        train, test = split_cohort(cohort, SplitSpec(0.5, 1))
        assert (len(train), len(test)) == (1, 1)

    def test_deterministic(self):
        cohort = generate_synthetic_cohort(30, 3)
        spec = SplitSpec(0.30, 77)
        assert split_cohort(cohort, spec) == split_cohort(cohort, spec)

    def test_partition_property(self):
        # disjoint, union-complete, sizes as specified, n = 2..200
        base = generate_synthetic_cohort(200, 11)
        rng = np.random.default_rng(0)
        for n in range(2, 201):
            cohort = base.take(range(n))
            for _ in range(20):
                frac = float(rng.uniform(0.05, 0.95))
                seed = int(rng.integers(0, 2**63))
                train, test = split_cohort(cohort, SplitSpec(frac, seed))
                assert len(test) == held_out_count(n, frac)
                assert len(train) + len(test) == n
                # every synthetic age is distinct, so an age names its row
                row_of = {age: i for i, age in enumerate(cohort.ages.tolist())}
                assert len(row_of) == n
                train_rows = [row_of[age] for age in train.ages.tolist()]
                test_rows = [row_of[age] for age in test.ages.tolist()]
                assert not set(train_rows) & set(test_rows)
                assert set(train_rows) | set(test_rows) == set(range(n))
                assert train_rows == sorted(train_rows) and test_rows == sorted(test_rows)
                assert train == cohort.take(train_rows) and test == cohort.take(test_rows)

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            split_cohort(generate_synthetic_cohort(1, 1), SplitSpec(0.3, 1))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
    def test_spec_refuses_a_seed_that_is_not_an_integer_ge_0(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            SplitSpec(0.3, seed)

    @pytest.mark.parametrize("fraction", [0, 1, 0.0, 1.0, -0.5, 1.5, math.nan, math.inf, True, "0.3"])
    def test_spec_refuses_a_fraction_outside_0_1(self, fraction):
        with pytest.raises(ValueError, match=r"^test_fraction must be finite and in \(0, 1\), got "):
            SplitSpec(fraction, 1)

    def test_spec_takes_any_integer_seed_ge_0(self):
        cohort = generate_synthetic_cohort(10, 1)
        for seed in (0, 2**64 - 1, 2**100):
            train, test = split_cohort(cohort, SplitSpec(0.3, seed))
            assert (len(train), len(test)) == (7, 3)

    def test_unlabeled_rejected(self):
        with pytest.raises(UnlabeledCohortError):
            split_cohort(Cohort([2.5, 2.5], [[5.0] * 12] * 2), SplitSpec(0.3, 1))
