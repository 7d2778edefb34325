import numpy as np
import pytest

from impforecast.errors import DimensionMismatchError, EmptyMatrixError
from impforecast.regressors.base import Standardizer


def test_hand_example():
    s = Standardizer().fit([[1.0], [3.0]])
    assert s.means_.tolist() == [2.0]
    assert s.stdevs_.tolist() == [1.0]  # population stdev


def test_constant_column_clamped():
    s = Standardizer().fit([[5.0], [5.0]])
    assert s.stdevs_[0] == 1e-9
    out = s.transform([[5.0], [7.0]])
    assert np.all(np.isfinite(out))


def test_transformed_moments():
    rng = np.random.default_rng(4)
    X = rng.normal(loc=3.0, scale=2.5, size=(50, 13))
    Z = Standardizer().fit_transform(X)
    assert np.max(np.abs(Z.mean(axis=0))) < 1e-10
    assert np.max(np.abs(Z.std(axis=0) - 1.0)) < 1e-10


def test_empty_matrix_rejected():
    with pytest.raises(EmptyMatrixError):
        Standardizer().fit(np.empty((0, 3)))


def test_column_count_checked():
    s = Standardizer().fit(np.ones((4, 3)))
    with pytest.raises(DimensionMismatchError):
        s.transform(np.ones((2, 2)))


def test_roundtrip_dict():
    rng = np.random.default_rng(9)
    s = Standardizer().fit(rng.normal(size=(20, 4)))
    s2 = Standardizer.from_dict(s.to_dict())
    X = rng.normal(size=(5, 4))
    assert np.array_equal(s.transform(X), s2.transform(X))
