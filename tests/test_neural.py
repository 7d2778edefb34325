import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impforecast import generate_synthetic_cohort
from impforecast.domain import CHANNELS, FeatureGroup, feature_matrix, label_vector
from impforecast.errors import (
    DimensionMismatchError,
    FitError,
    NonFiniteLossError,
)
from impforecast.regressors import NeuralNetRegressor
from impforecast.regressors.neural import (
    check_gradient,
    nn_loss_and_gradient,
    param_count,
    unpack_params,
)


def random_instance(seed, d=3, h=4, n=10):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.normal(loc=1.0, size=n)
    params = rng.uniform(-0.5, 0.5, size=param_count(d, h))
    return params, X, y


class TestLossAndGradient:
    def test_all_zero_parameters(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        params = np.zeros(param_count(2, 1))
        loss, grad = nn_loss_and_gradient(params, X, y, hidden_units=1)
        assert loss == pytest.approx(np.mean(y**2), rel=1e-12)
        # output bias is the last coordinate
        assert grad[-1] == pytest.approx(-2.0 * np.mean(y), rel=1e-12)

    def test_zero_residual_means_zero_gradient(self):
        params, X, _ = random_instance(1)
        W1, b1, w2, b2 = unpack_params(params, 3, 4)
        y = np.tanh(X @ W1 + b1) @ w2 + b2  # exact current output
        loss, grad = nn_loss_and_gradient(params, X, y, hidden_units=4)
        assert loss == pytest.approx(0.0, abs=1e-28)
        np.testing.assert_allclose(grad, 0.0, atol=1e-13)

    def test_gradient_matches_finite_differences(self):
        for seed in range(5):
            params, X, y = random_instance(seed)
            assert check_gradient(params, X, y, hidden_units=4, h=1e-5) < 1e-4

    def test_near_linear_regime(self):
        # tiny weights keep tanh in its linear range
        rng = np.random.default_rng(3)
        X = rng.normal(size=(10, 1))
        y = rng.normal(size=10)
        params = 1e-3 * rng.uniform(-1, 1, size=param_count(1, 1))
        assert check_gradient(params, X, y, hidden_units=1, h=1e-5) < 1e-3

    def test_larger_h_is_worse(self):
        params, X, y = random_instance(7)
        coarse = check_gradient(params, X, y, hidden_units=4, h=1e-2)
        fine = check_gradient(params, X, y, hidden_units=4, h=1e-5)
        assert coarse >= fine

    def test_bad_parameter_shape(self):
        _, X, y = random_instance(2)
        with pytest.raises(DimensionMismatchError):
            nn_loss_and_gradient(np.zeros(5), X, y, hidden_units=4)

    def test_h_must_be_positive(self):
        params, X, y = random_instance(4)
        with pytest.raises(ValueError):
            check_gradient(params, X, y, hidden_units=4, h=0.0)


class TestNeuralNetRegressor:
    def test_learns_linear_signal(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 4.0
        model = NeuralNetRegressor(hidden_units=8, epochs=1500, seed=2).fit(X, y)
        resid = y - model.predict(X)
        assert np.sqrt(np.mean(resid**2)) < 0.25

    def test_divergence_raises(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        with pytest.raises(NonFiniteLossError):
            NeuralNetRegressor(step=1e4, epochs=200, seed=0).fit(X, y)

    def test_init_respects_seed_and_scale(self):
        model = NeuralNetRegressor(hidden_units=4, init_scale=1.0, seed=3)
        params = model._init_params(d=5)
        W1, b1, w2, b2 = unpack_params(params, 5, 4)
        assert np.all(np.abs(W1) <= 1.0 / np.sqrt(5))
        assert np.all(np.abs(w2) <= 1.0 / np.sqrt(4))
        assert np.all(b1 == 0.0) and b2 == 0.0
        np.testing.assert_array_equal(params, NeuralNetRegressor(hidden_units=4, seed=3)._init_params(5))


def fit_lone(X, Y, seeds, **hyper):
    """One network per column, each fit on its own."""
    outcomes = []
    for y, seed in zip(Y.T, seeds):
        try:
            outcomes.append(NeuralNetRegressor(seed=seed, **hyper).fit(X, y))
        except FitError as exc:
            outcomes.append(exc)
    return outcomes


def assert_same_network(a, b, X):
    assert np.array_equal(a.params_, b.params_)
    assert a.final_loss_ == b.final_loss_
    assert a.predict(X).tobytes() == b.predict(X).tobytes()


class TestFitColumns:
    @settings(max_examples=25, deadline=None)
    @given(
        d=st.sampled_from([1, 13]),
        k=st.integers(1, 5),
        other_k=st.integers(1, 5),
        n=st.integers(2, 30),
        hidden_units=st.integers(1, 17),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_columns_fit_together_match_lone_fits(self, d, k, other_k, n, hidden_units,
                                                  data_seed):
        # two parts in one block: k columns on d features, other_k on the other width
        rng = np.random.default_rng(data_seed)
        hyper = dict(hidden_units=hidden_units, epochs=40)
        parts = []
        for width, columns in ((d, k), (14 - d, other_k)):
            X = rng.uniform(0.5, 40.0, size=(n, width))
            Y = rng.normal(loc=8.0, scale=2.0, size=(n, columns))
            seeds = rng.integers(0, 2**31, size=columns).tolist()
            parts.append((X, Y, seeds))
        together = NeuralNetRegressor.fit_parts([
            ([NeuralNetRegressor(seed=s, **hyper) for s in seeds], X, Y) for X, Y, seeds in parts
        ])
        for joint_part, (X, Y, seeds) in zip(together, parts):
            for joint, lone in zip(joint_part, fit_lone(X, Y, seeds, **hyper)):
                assert_same_network(joint, lone, X)

    def test_parts_of_other_row_counts_are_refused(self):
        rng = np.random.default_rng(11)
        parts = [([NeuralNetRegressor(seed=s, epochs=30) for s in range(k)],
                  rng.normal(size=(n, d)), rng.normal(size=(n, k)))
                 for n, d, k in ((10, 13, 2), (15, 1, 3))]
        with pytest.raises(ValueError, match="same number of rows"):
            NeuralNetRegressor.fit_parts(parts)

    def test_diverging_column_fails_alone(self):
        cohort = generate_synthetic_cohort(80, 1)
        X = feature_matrix(cohort, FeatureGroup.G2)
        Y = np.column_stack([label_vector(cohort, c) for c in CHANNELS])
        Y[:, 3] *= 100.0  # channel 4
        hyper = dict(epochs=300, step=0.2)
        seeds = list(CHANNELS)
        (together,) = NeuralNetRegressor.fit_parts(
            [([NeuralNetRegressor(seed=s, **hyper) for s in seeds], X, Y)]
        )
        lone = fit_lone(X, Y, seeds, **hyper)
        assert isinstance(together[3], NonFiniteLossError)
        assert isinstance(lone[3], NonFiniteLossError)
        for column in set(range(12)) - {3}:
            assert_same_network(together[column], lone[column], X)

    def test_every_column_failing_stops_training(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 2))
        Y = rng.normal(size=(20, 3))
        (outcomes,) = NeuralNetRegressor.fit_parts(
            [([NeuralNetRegressor(step=1e4, epochs=200, seed=s) for s in range(3)], X, Y)]
        )
        assert all(isinstance(o, NonFiniteLossError) for o in outcomes)

    def test_bad_column_is_recorded_not_raised(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 1))
        Y = rng.uniform(1.0, 2.0, size=(12, 2))
        Y[:, 0] *= 1.7e308 / Y[:, 0].max()  # finite, but too large to train on
        with np.errstate(all="ignore"):
            ((first, second),) = NeuralNetRegressor.fit_parts(
                [([NeuralNetRegressor(epochs=20, seed=s) for s in (1, 2)], X, Y)]
            )
        assert isinstance(first, NonFiniteLossError)
        assert_same_network(second, NeuralNetRegressor(epochs=20, seed=2).fit(X, Y[:, 1]), X)

    def test_networks_must_share_hyperparameters(self):
        X, Y = np.ones((4, 1)), np.ones((4, 2))
        with pytest.raises(ValueError):
            NeuralNetRegressor.fit_parts(
                [([NeuralNetRegressor(epochs=5), NeuralNetRegressor(epochs=6)], X, Y)]
            )

    def test_one_estimator_per_column(self):
        with pytest.raises(DimensionMismatchError):
            NeuralNetRegressor.fit_parts(
                [([NeuralNetRegressor()], np.ones((4, 1)), np.ones((4, 2)))]
            )
