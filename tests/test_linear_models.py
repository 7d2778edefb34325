import numpy as np

from impforecast.regressors import BayesianLinearRegressor, LinearRegressor
from impforecast.regressors.base import Standardizer


def ols_reference(X, y):
    """Independent normal-equation solve on the standardized design."""
    Z = np.hstack([Standardizer().fit_transform(X), np.ones((X.shape[0], 1))])
    w, *_ = np.linalg.lstsq(Z, y, rcond=None)
    return w


def blr_reference(X, y, alpha, beta):
    """Closed-form posterior mean with the intercept column unpenalized."""
    Z = np.hstack([Standardizer().fit_transform(X), np.ones((X.shape[0], 1))])
    D = np.eye(Z.shape[1])
    D[-1, -1] = 0.0
    return beta * np.linalg.solve(alpha * D + beta * Z.T @ Z, Z.T @ y)


class TestLinearRegressor:
    def test_noiseless_affine_target_recovered(self):
        x = np.linspace(0.0, 9.0, 10).reshape(-1, 1)
        y = 3.0 * x[:, 0] + 1.0
        model = LinearRegressor().fit(x, y)
        np.testing.assert_allclose(model.predict(x), y, atol=1e-8)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 6))
        y = X @ rng.normal(size=6) + rng.normal(size=40)
        model = LinearRegressor(ridge=0.0).fit(X, y)
        got = np.append(model.weights_, model.intercept_)
        np.testing.assert_allclose(got, ols_reference(X, y), rtol=1e-10, atol=1e-10)

    def test_hand_prediction_with_identity_standardizer(self):
        model = LinearRegressor()
        identity = Standardizer.from_dict({"means": [0.0], "stdevs": [1.0]})
        model.load_fitted_params({"weights": [2.0], "intercept": 1.0}, identity)
        assert model.predict([[3.0]]).tolist() == [7.0]

    def test_ridge_jitter_changes_little(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=30)
        w0 = LinearRegressor(ridge=0.0).fit(X, y).weights_
        w1 = LinearRegressor(ridge=1e-8).fit(X, y).weights_
        np.testing.assert_allclose(w0, w1, atol=1e-7)


class TestBayesianLinearRegressor:
    def test_posterior_mean_closed_form(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 5))
        y = X @ rng.normal(size=5) + 0.5 * rng.normal(size=30)
        alpha, beta = 0.7, 2.3
        model = BayesianLinearRegressor(alpha=alpha, beta=beta, evidence_iters=0).fit(X, y)
        got = np.append(model.weights_, model.intercept_)
        np.testing.assert_allclose(got, blr_reference(X, y, alpha, beta), rtol=1e-10)

    def test_flat_prior_limit_matches_ols(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 5))
        y = X @ rng.normal(size=5) + 0.3 * rng.normal(size=30) + 2.0
        blr = BayesianLinearRegressor(alpha=1e-12, beta=1.0, evidence_iters=0).fit(X, y)
        lr = LinearRegressor(ridge=0.0).fit(X, y)
        got = np.append(blr.weights_, blr.intercept_)
        ref = np.append(lr.weights_, lr.intercept_)
        np.testing.assert_allclose(got, ref, atol=1e-6)

    def test_evidence_updates_keep_precisions_positive(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 4))
        y = X @ np.array([2.0, 0.0, 0.0, -1.0]) + 0.2 * rng.normal(size=40)
        model = BayesianLinearRegressor(evidence_iters=30).fit(X, y)
        assert model.alpha_ > 0 and model.beta_ > 0
        # noise precision should land near 1/sigma^2 = 25
        assert 5.0 < model.beta_ < 125.0

    def test_evidence_shrinks_toward_needed_complexity(self):
        # pure-noise target: evidence approximation should shrink weights
        # well below the flat-prior solution
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 8))
        y = rng.normal(size=40)
        free = BayesianLinearRegressor(alpha=1e-10, beta=1.0, evidence_iters=0).fit(X, y)
        shrunk = BayesianLinearRegressor(evidence_iters=50).fit(X, y)
        assert np.linalg.norm(shrunk.weights_) < np.linalg.norm(free.weights_)

    def test_alpha_scales_shrinkage(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(25, 4))
        y = X @ np.array([1.0, 2.0, -1.0, 0.5]) + 0.1 * rng.normal(size=25)
        small = BayesianLinearRegressor(alpha=1e-6, evidence_iters=0).fit(X, y)
        large = BayesianLinearRegressor(alpha=1e3, evidence_iters=0).fit(X, y)
        assert np.linalg.norm(large.weights_) < np.linalg.norm(small.weights_)
