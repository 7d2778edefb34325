"""Contract shared by all five regressors: estimator params surface,
input validation, determinism, empty-input prediction, and ``fit_parts``
of several columns against lone fits."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impforecast.dataio import generate_synthetic_cohort
from impforecast.domain import FeatureGroup, ModelKind, feature_matrix
from impforecast.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    FitError,
    NonFiniteLossError,
)
from impforecast.regressors import ESTIMATOR_CLASSES, HyperParams, make_regressor

KINDS = list(ModelKind)

# small hyperparameters so the full matrix of contract tests stays fast
FAST = HyperParams().with_overrides(
    {"dfr.trees": 10, "bdtr.trees": 20, "nnr.epochs": 50}
)


# one hyperparameter per kind set to another valid value
OTHER_HYPER = {
    ModelKind.LR: {"ridge": 1e-6},
    ModelKind.BLR: {"alpha": 0.5},
    ModelKind.DFR: {"trees": 11},
    ModelKind.BDTR: {"trees": 21},
    ModelKind.NNR: {"epochs": 51},
}


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


@pytest.mark.parametrize("key, cap", [("dfr.trees", 10_000), ("bdtr.trees", 10_000), ("dfr.max_depth", 256),
                                      ("bdtr.max_depth", 256), ("nnr.hidden_units", 4_096)])
def test_sizes_past_their_cap_are_refused(key, cap):
    """Checked where the block is built, so no test allocates what a value
    past its cap would ask for."""
    block, _, field = key.partition(".")
    assert getattr(getattr(HyperParams().with_overrides({key: cap}), block), field) == cap
    with pytest.raises(ValueError, match=rf"^{key} must be an integer in \[\d, {cap}\], got {cap + 1}$"):
        HyperParams().with_overrides({key: cap + 1})


def lone_fits(kind, X, Y, seeds) -> list:
    """One estimator per column of Y, each fit on its column alone."""
    outcomes = []
    for y, seed in zip(Y.T, seeds):
        try:
            outcomes.append(make_regressor(kind, FAST, seed=seed).fit(X, y))
        except FitError as exc:
            outcomes.append(exc)
    return outcomes


def assert_same_fit(a, b, X):
    assert a.standardizer_.to_dict() == b.standardizer_.to_dict()
    assert a.fitted_params() == b.fitted_params()
    assert a.predict(X).tobytes() == b.predict(X).tobytes()


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10, deadline=None)
@given(
    columns=st.integers(1, 4),
    n=st.integers(2, 30),
    d=st.sampled_from([1, 13]),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_fit_columns_matches_lone_fits(kind, columns, n, d, data_seed):
    rng = np.random.default_rng(data_seed)
    X = rng.uniform(0.5, 40.0, size=(n, d))
    Y = rng.normal(loc=8.0, scale=2.0, size=(n, columns))
    seeds = rng.choice(2**31, size=columns, replace=False).tolist()
    estimators = [make_regressor(kind, FAST, seed=s) for s in seeds]
    (together,) = ESTIMATOR_CLASSES[kind].fit_parts([(estimators, X, Y)])
    assert all(joint is estimator for joint, estimator in zip(together, estimators))
    for joint, lone in zip(together, lone_fits(kind, X, Y, seeds)):
        assert_same_fit(joint, lone, X)


# the FitError each kind records for finite labels near the float limit
TOO_LARGE_LABELS = {
    ModelKind.LR: DegenerateInputError,
    ModelKind.BLR: DegenerateInputError,
    ModelKind.DFR: DegenerateInputError,
    ModelKind.BDTR: DegenerateInputError,
    ModelKind.NNR: NonFiniteLossError,
}


@pytest.mark.parametrize("kind", KINDS)
def test_fit_columns_records_a_bad_column(kind):
    """A column whose finite labels are too large to train on is recorded
    for that column as its lone fit records it, as a FitError; the call does
    not raise and the other columns fit as they do alone."""
    X, _ = problem()
    Y = np.column_stack([problem(seed=s)[1] for s in range(3)])
    Y[:, 1] = np.abs(Y[:, 1]) * (1.7e308 / np.abs(Y[:, 1]).max())
    seeds = [3, 4, 5]
    with np.errstate(all="ignore"):
        (together,) = ESTIMATOR_CLASSES[kind].fit_parts(
            [([make_regressor(kind, FAST, seed=s) for s in seeds], X, Y)]
        )
        lone = lone_fits(kind, X, Y, seeds)
    error = TOO_LARGE_LABELS[kind]
    assert type(together[1]) is error and type(lone[1]) is error
    assert str(together[1]) == str(lone[1])
    for column in (0, 2):
        assert_same_fit(together[column], lone[column], X)


@pytest.mark.parametrize("kind", KINDS)
def test_fit_parts_records_a_part_too_large_to_standardize(kind):
    """A part with a finite feature whose stdev overflows gets a
    DegenerateInputError for each of its columns, with no warning; the call
    does not raise and the other part fits as it does alone."""
    X, _ = problem()
    Y = np.column_stack([problem(seed=s)[1] for s in range(2)])
    huge = X.copy()
    huge[:, 1] *= 1e200 / np.abs(huge[:, 1]).max()
    seeds = [3, 4]
    good, bad = ESTIMATOR_CLASSES[kind].fit_parts(  # a RuntimeWarning fails the test
        [([make_regressor(kind, FAST, seed=s) for s in seeds], X_part, Y) for X_part in (X, huge)]
    )
    assert [(type(e), str(e)) for e in bad] == (
        [(DegenerateInputError, "feature column 1 is too large to standardize")] * 2
    )
    for joint, lone in zip(good, lone_fits(kind, X, Y, seeds)):
        assert_same_fit(joint, lone, X)


@pytest.mark.parametrize("group", list(FeatureGroup))
@pytest.mark.parametrize("kind", KINDS)
def test_fit_on_labels_near_the_overflow_is_silent(kind, group):
    """Labels that overflow a kind's intermediate sums (the seed-1 cohort's
    channel 1, scaled to a max of 1e154) give a fitted estimator or a
    FitError, never a numpy warning: the whole fit runs under one errstate."""
    cohort = generate_synthetic_cohort(80, 1)
    y = cohort.labels[:, 0] * (1e154 / cohort.labels[:, 0].max())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            make_regressor(kind, seed=1).fit(feature_matrix(cohort, group), y)
        except FitError:
            pass


@pytest.mark.parametrize("kind", KINDS)
def test_fit_parts_raises_on_a_bad_part(kind):
    """A non-finite value in any part's X or Y raises for the whole call."""
    X, _ = problem()
    Y = np.column_stack([problem(seed=s)[1] for s in range(3)])
    for name in ("X", "y"):
        bad_X, bad_Y = X.copy(), Y.copy()
        (bad_X if name == "X" else bad_Y)[4, 1] = np.nan
        parts = [([make_regressor(kind, FAST, seed=s) for s in (3, 4, 5)], X_part, Y_part)
                 for X_part, Y_part in ((X, Y), (bad_X, bad_Y))]
        with pytest.raises(DegenerateInputError, match=f"^{name} contains non-finite values$"):
            ESTIMATOR_CLASSES[kind].fit_parts(parts)


@pytest.mark.parametrize("kind", KINDS)
def test_fit_columns_needs_shared_hyperparameters(kind):
    X, y = problem()
    first = make_regressor(kind, FAST, seed=1)
    second = make_regressor(kind, FAST, seed=2).set_params(**OTHER_HYPER[kind])
    with pytest.raises(ValueError, match="differ only in seed"):
        ESTIMATOR_CLASSES[kind].fit_parts([([first, second], X, np.column_stack([y, y]))])


@pytest.mark.parametrize("kind", KINDS)
def test_every_class_defines_its_own_fit_and_predict(kind):
    """The benchmark's tracer times only the ``fit`` and ``predict`` in a
    class's own ``vars``."""
    assert {"fit", "predict"} <= vars(ESTIMATOR_CLASSES[kind]).keys()
