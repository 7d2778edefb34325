"""Contract shared by all five regressors: estimator params surface,
input validation, determinism, and empty-input prediction."""

import numpy as np
import pytest

from impforecast.domain import ModelKind
from impforecast.errors import DegenerateInputError, DimensionMismatchError
from impforecast.regressors import ESTIMATOR_CLASSES, HyperParams, make_regressor

KINDS = list(ModelKind)

# small hyperparameters so the full matrix of contract tests stays fast
FAST = HyperParams().with_overrides(
    {"dfr.trees": 10, "bdtr.trees": 20, "nnr.epochs": 50}
)


def problem(n=20, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = X @ rng.normal(size=d) + 0.1 * rng.normal(size=n) + 3.0
    return X, y


@pytest.mark.parametrize("kind", KINDS)
def test_fit_predict_shapes(kind):
    X, y = problem()
    model = make_regressor(kind, FAST, seed=5).fit(X, y)
    pred = model.predict(X)
    assert pred.shape == (20,)
    assert np.all(np.isfinite(pred))


@pytest.mark.parametrize("kind", KINDS)
def test_fit_returns_self(kind):
    X, y = problem()
    model = make_regressor(kind, FAST, seed=5)
    assert model.fit(X, y) is model


@pytest.mark.parametrize("kind", KINDS)
def test_deterministic_given_seed(kind):
    X, y = problem(seed=3)
    a = make_regressor(kind, FAST, seed=11).fit(X, y).predict(X)
    b = make_regressor(kind, FAST, seed=11).fit(X, y).predict(X)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", KINDS)
def test_predict_empty_input(kind):
    X, y = problem()
    model = make_regressor(kind, FAST, seed=5).fit(X, y)
    out = model.predict(np.empty((0, X.shape[1])))
    assert out.shape == (0,)


@pytest.mark.parametrize("kind", KINDS)
def test_dimension_mismatch_on_predict(kind):
    X, y = problem(d=4)
    model = make_regressor(kind, FAST, seed=5).fit(X, y)
    with pytest.raises(DimensionMismatchError):
        model.predict(np.ones((3, 5)))


@pytest.mark.parametrize("kind", KINDS)
def test_degenerate_inputs_rejected(kind):
    model = make_regressor(kind, FAST, seed=5)
    with pytest.raises(DegenerateInputError):
        model.fit(np.ones((1, 2)), np.ones(1))
    with pytest.raises(DegenerateInputError):
        model.fit(np.ones((3, 2)), np.array([1.0, np.nan, 2.0]))
    with pytest.raises(DimensionMismatchError):
        model.fit(np.ones((3, 2)), np.ones(4))


@pytest.mark.parametrize("kind", KINDS)
def test_get_set_params(kind):
    model = make_regressor(kind, FAST, seed=9)
    params = model.get_params()
    assert params["seed"] == 9
    clone = ESTIMATOR_CLASSES[kind]().set_params(**params)
    assert clone.get_params() == params
    with pytest.raises(ValueError):
        model.set_params(not_a_param=1)


def test_hyper_override_rejects_unknown_keys():
    with pytest.raises(KeyError):
        HyperParams().with_overrides({"dfr.banana": 1})
    with pytest.raises(KeyError):
        HyperParams().with_overrides({"svm.trees": 1})
