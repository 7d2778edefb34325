import math
import warnings

import numpy as np
import pytest

from impforecast.errors import EmptyInputError, FitError, LengthMismatchError, NonFinitePredictionError
from impforecast.metrics import ErrorBands, error_bands, pct_of, rmse


class TestRmse:
    def test_perfect_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert rmse(y, y) == 0.0

    def test_hand_example(self):
        # sqrt((1 + 4) / 2) = sqrt(2.5)
        assert rmse([2.0, 4.0], [3.0, 2.0]) == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_single_element_is_absolute_error(self):
        assert rmse([5.0], [3.0]) == pytest.approx(2.0)

    def test_symmetry_and_translation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=10)
            b = rng.normal(size=10)
            c = float(rng.normal())
            assert rmse(a, b) == pytest.approx(rmse(b, a), rel=1e-15)
            assert rmse(a + c, b + c) == pytest.approx(rmse(a, b), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            rmse([1.0, 2.0], [1.0])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            rmse([], [])

    @pytest.mark.parametrize("score", [rmse, error_bands])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prediction_is_a_fit_error(self, score, bad):
        with pytest.raises(NonFinitePredictionError) as info:
            score([bad, 1.0], [1.0, 1.0])
        assert isinstance(info.value, FitError)

    @pytest.mark.parametrize("y_hat, y", [
        (np.full(3, 2e154), np.zeros(3)),  # the squares overflow
        (np.array([1.5e308, 0.0]), np.array([-1.5e308, 0.0])),  # the errors overflow
    ])
    def test_overflowing_errors_are_a_fit_error_without_a_warning(self, y_hat, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinitePredictionError):
                rmse(y_hat, y)


class TestRounding:
    def test_exact_two_decimal_cells(self):
        assert pct_of(14, 24) == 58.33
        assert pct_of(8, 24) == 33.33
        assert pct_of(2, 24) == 8.33
        assert pct_of(22, 24) == 91.67
        assert pct_of(24, 24) == 100.0

    def test_half_rounds_away_from_zero(self):
        # 1/32 = 3.125% -> 3.13
        assert pct_of(1, 32) == 3.13
        # 1/8 = 12.5% stays 12.5 at two decimals
        assert pct_of(1, 8) == 12.5


class TestErrorBands:
    def test_reference_channel_row(self):
        # counts (14, 8, 2, 0) over 24 test cases
        b = ErrorBands.from_counts((14, 8, 2, 0), 24)
        assert b.pct == (58.33, 33.33, 8.33, 0.0)
        assert b.cum_0_2 == 91.67
        assert b.cum_0_3 == 100.0

    def test_hand_binning(self):
        y = np.zeros(4)
        y_hat = np.array([0.5, 1.5, 2.5, 0.2])
        b = error_bands(y_hat, y)
        assert b.counts == (2, 1, 1, 0)
        assert b.pct == (50.0, 25.0, 25.0, 0.0)

    def test_all_zero_errors(self):
        y = np.arange(6, dtype=float)
        b = error_bands(y, y)
        assert b.counts == (6, 0, 0, 0)
        assert b.cum_0_3 == 100.0

    def test_bin_edges_are_half_open(self):
        y = np.zeros(4)
        b = error_bands(np.array([0.0, 1.0, 2.0, 3.0]), y)
        assert b.counts == (1, 1, 1, 1)

    def test_overflow_bin_collects_large_errors(self):
        y = np.zeros(3)
        b = error_bands(np.array([3.0, 7.5, 100.0]), y)
        assert b.counts == (0, 0, 0, 3)
        assert b.cum_0_3 == 0.0
        assert b.pct[3] == 100.0

    def test_counts_must_sum_to_n(self):
        with pytest.raises(LengthMismatchError):
            ErrorBands.from_counts((1, 1, 1, 1), 5)

    def test_percentage_properties_random_counts(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 101))
            cuts = np.sort(rng.integers(0, n + 1, size=3))
            counts = (
                int(cuts[0]),
                int(cuts[1] - cuts[0]),
                int(cuts[2] - cuts[1]),
                int(n - cuts[2]),
            )
            b = ErrorBands.from_counts(counts, n)
            assert all(0.0 <= p <= 100.0 for p in b.pct)
            assert abs(sum(b.pct) - 100.0) <= 0.03
            # cumulative values from raw counts are monotone
            assert b.pct[0] <= b.cum_0_2 + 1e-12
            assert b.cum_0_2 <= b.cum_0_3 <= 100.0

    def test_cum_from_raw_counts_not_rounded_pct(self):
        # 5/24 + 8/24 rounds to 54.17 from raw counts; adding the rounded
        # cells would give 54.16
        b = ErrorBands.from_counts((5, 8, 5, 6), 24)
        assert b.pct[0] == 20.83
        assert b.pct[1] == 33.33
        assert b.cum_0_2 == 54.17

    def test_roundtrip_dict(self):
        b = ErrorBands.from_counts((14, 8, 2, 0), 24)
        assert ErrorBands.from_dict(b.to_dict()) == b
