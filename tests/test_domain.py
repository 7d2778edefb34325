import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impforecast.domain import (
    CHANNELS,
    FeatureGroup,
    KIND_ORDER,
    ModelKind,
    check_channel,
    feature_matrix,
    label_vector,
    published_range,
    Cohort,
)
from impforecast.errors import BadNumberError, NonPositiveError


def make_patient(age=2.5, intra=None, labels=None):
    """A one-patient cohort."""
    intra = list(intra) if intra is not None else [5.0 for _ in CHANNELS]
    return Cohort([age], [intra], None if labels is None else [labels])


class TestPublishedRanges:
    def test_channel_1(self):
        r = published_range(1)
        assert (r.min, r.max, r.range) == (4.48, 16.86, 12.38)

    def test_channel_10(self):
        r = published_range(10)
        assert (r.min, r.max, r.range) == (2.12, 8.00, 5.88)

    def test_channel_9(self):
        r = published_range(9)
        assert (r.min, r.max, r.range) == (2.34, 8.30, 5.96)

    def test_internally_consistent_to_a_cent(self):
        # range column agrees with max - min for every channel
        for c in CHANNELS:
            r = published_range(c)
            assert abs(r.range - (r.max - r.min)) <= 0.01
            assert r.min < r.max

    @pytest.mark.parametrize("bad", [0, 13, -1, 2.5, "3"])
    def test_rejects_bad_channels(self, bad):
        with pytest.raises(ValueError):
            check_channel(bad)


class TestAssembleFeatures:
    """Feature rows of the two groups, built by ``feature_matrix``."""

    def test_group1_is_age_only(self):
        X = feature_matrix(make_patient(age=2.5), FeatureGroup.G1)
        assert X.tolist() == [[2.5]]

    def test_group2_layout(self):
        intra = tuple(5.0 + 0.1 * i for i in range(12))
        X = feature_matrix(make_patient(age=2.5, intra=intra), FeatureGroup.G2)
        assert X.shape == (1, 13)
        assert X[0, 0] == 2.5
        assert X[0, 1:].tolist() == list(intra)

    def test_group2_length_fixed(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            patient = make_patient(age=float(rng.uniform(1, 6)), intra=rng.uniform(2, 9, 12))
            assert feature_matrix(patient, FeatureGroup.G2).shape == (1, 13)

    def test_pure_function(self):
        patient = make_patient()
        a = feature_matrix(patient, FeatureGroup.G2)
        b = feature_matrix(patient, FeatureGroup.G2)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("group", [FeatureGroup.G1, FeatureGroup.G2], ids=lambda g: g.value)
    def test_layout_is_the_stack_of_row_vectors(self, group):
        """Same values, shape and C layout as stacking one feature vector
        per patient, so standardization and matrix products keep their bits."""
        rng = np.random.default_rng(4)
        cohort = Cohort(rng.uniform(1, 6, 30), rng.uniform(2, 17, (30, 12)))
        X = feature_matrix(cohort, group)
        rows = [[a] if group is FeatureGroup.G1 else [a, *v]
                for a, v in zip(cohort.ages.tolist(), cohort.intra.tolist())]
        stacked = np.stack([np.array(r) for r in rows])
        assert X.shape == stacked.shape and X.flags["C_CONTIGUOUS"]
        assert X.tobytes() == stacked.tobytes()

    def test_group_dimensions(self):
        assert FeatureGroup.G1.dimension == 1
        assert FeatureGroup.G2.dimension == 13
        assert FeatureGroup.G1.number == 1
        assert FeatureGroup.G2.number == 2


def test_kind_order_is_the_five_kinds():
    assert KIND_ORDER == (
        ModelKind.LR,
        ModelKind.BLR,
        ModelKind.DFR,
        ModelKind.BDTR,
        ModelKind.NNR,
    )


def test_feature_matrix_and_labels():
    cohort = Cohort(
        ages=[1.0 + i for i in range(3)],
        intra=[[5.0] * 12 for _ in range(3)],
        labels=[[float(10 * i + c) for c in CHANNELS] for i in range(3)],
    )
    X = feature_matrix(cohort, FeatureGroup.G2)
    assert X.shape == (3, 13)
    assert X[:, 0].tolist() == [1.0, 2.0, 3.0]
    y = label_vector(cohort, 4)
    assert y.tolist() == [4.0, 14.0, 24.0]
    assert y.flags["C_CONTIGUOUS"] and y.flags["WRITEABLE"]


def test_labeled_flag_tracks_records():
    full = make_patient(labels=[5.0 for _ in CHANNELS])
    partial = make_patient(labels=None)
    assert full.labeled and not partial.labeled


def test_unlabeled_cohort_has_no_label_vector():
    with pytest.raises(ValueError):
        label_vector(make_patient(), 1)


class TestCohort:
    @pytest.mark.parametrize(
        "ages, intra, labels",
        [
            ([2.5], [[5.0] * 11], None),
            ([2.5], [[5.0] * 12], [[6.0] * 11]),
            ([2.5, 3.0], [[5.0] * 12], None),
            ([2.5], [[5.0] * 12], [[6.0] * 12, [6.0] * 12]),
            (2.5, [[5.0] * 12], None),
            ([[2.5]], [[5.0] * 12], None),
            ([2.5], [5.0] * 12, None),
        ],
    )
    def test_constructor_rejects_shapes(self, ages, intra, labels):
        with pytest.raises(ValueError):
            Cohort(ages, intra, labels)

    def test_arrays_are_read_only_float64_copies(self):
        ages, intra = np.array([2, 3]), np.full((2, 12), 5.0)
        cohort = Cohort(ages, intra, intra)
        intra[0, 0] = 99.0
        assert cohort.intra[0, 0] == 5.0 and cohort.labels[0, 0] == 5.0
        for array in (cohort.ages, cohort.intra, cohort.labels):
            assert array.dtype == np.float64 and array.flags["C_CONTIGUOUS"]
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_take_returns_the_rows_in_order(self):
        cohort = Cohort([1.0, 2.0, 3.0], np.arange(1.0, 37.0).reshape(3, 12), np.ones((3, 12)))
        part = cohort.take([2, 0])
        assert part.ages.tolist() == [3.0, 1.0]
        assert part.intra.tolist() == [cohort.intra[2].tolist(), cohort.intra[0].tolist()]
        assert part.labeled and len(part) == 2
        assert len(cohort.take([])) == 0
        assert cohort.take([True, False, True]) == cohort.take([0, 2])
        with pytest.raises(IndexError):
            cohort.take([1.0])

    def test_equality_and_hash_follow_the_bytes(self):
        a = Cohort([2.5], [[5.0] * 12])
        assert a == Cohort(np.array([2.5]), np.full((1, 12), 5.0))
        assert hash(a) == hash(Cohort([2.5], [[5.0] * 12]))
        assert a != Cohort([2.5], [[5.0] * 12], [[5.0] * 12])
        assert a != Cohort([2.6], [[5.0] * 12])


CSV_COLUMNS = ["age"] + [f"ei_intra_{c}" for c in CHANNELS] + [f"ei_1m_{c}" for c in CHANNELS]
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
refused = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]) | st.floats(max_value=0.0)


@st.composite
def cohort_tables(draw):
    """Rows of age, 12 impedances and, if labeled, 12 labels: positive
    finite values with up to three refused ones put anywhere."""
    n = draw(st.integers(1, 5))
    width = draw(st.sampled_from([13, 25]))
    rows = draw(st.lists(st.lists(positive, min_size=width, max_size=width), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, width - 1))] = draw(refused)
    return rows


def first_refused_cell(rows):
    """The error class and message of the first cell, row by row in CSV
    column order, that is not finite and > 0; None if there is none."""
    for row_no, row in enumerate(rows, start=1):
        for column, value in zip(CSV_COLUMNS, row):
            if not math.isfinite(value):
                return BadNumberError, f"row {row_no}, column {column!r}: non-finite value: {value!r}"
            if value <= 0:
                return NonPositiveError, f"row {row_no}, column {column!r}: must be > 0, got {value}"
    return None


@settings(max_examples=300, deadline=None)
@given(rows=cohort_tables())
def test_cohort_holds_only_finite_positive_values(rows):
    labeled = len(rows[0]) > 13
    arrays = ([r[0] for r in rows], [r[1:13] for r in rows], [r[13:] for r in rows] if labeled else None)
    refusal = first_refused_cell(rows)
    if refusal is None:
        cohort = Cohort(*arrays)
        parts = [cohort.ages[:, None], cohort.intra] + ([cohort.labels] if labeled else [])
        assert np.hstack(parts).tolist() == rows
        return
    with pytest.raises((BadNumberError, NonPositiveError)) as raised:
        Cohort(*arrays)
    assert (type(raised.value), str(raised.value)) == refusal
