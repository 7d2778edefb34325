"""Acceptance suite: ten verifiable criteria for the whole pipeline.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on passing runs). Tolerances are pinned here; random instances use fixed
seeds so every run checks the same frozen cases.
"""

import time

import numpy as np

from impforecast.bundle import bundle_from_json, bundle_to_json
from impforecast.dataio import (
    SplitSpec,
    generate_synthetic_cohort,
    parse_cohort_csv,
    serialize_cohort_csv,
    split_cohort,
    synth_sigma,
)
from impforecast.domain import ModelKind, label_vector
from impforecast.metrics import ErrorBands, rmse
from impforecast.pipeline import (
    StudyConfig,
    histogram_of_kinds,
    predict_one,
    report_to_json,
    run_study,
)
from impforecast.regressors import (
    BayesianLinearRegressor,
    BoostedTreesRegressor,
    DecisionForestRegressor,
    HyperParams,
    LinearRegressor,
)
from impforecast.regressors.neural import check_gradient, param_count
from impforecast.regressors.base import Standardizer


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def standardized_design(X):
    return np.hstack([Standardizer().fit_transform(X), np.ones((X.shape[0], 1))])


def test_criterion_1_ols_oracle():
    """LR weights match an independent normal-equation solve, 50 problems."""
    rng = np.random.default_rng(123)
    start = time.time()
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 14))
        n = int(rng.integers(max(10, d + 5), 101))
        X = rng.normal(size=(n, d))
        y = X @ rng.normal(size=d) + rng.normal(size=n)
        model = LinearRegressor(ridge=0.0).fit(X, y)
        w_ref, *_ = np.linalg.lstsq(standardized_design(X), y, rcond=None)
        got = np.append(model.weights_, model.intercept_)
        rel = np.linalg.norm(got - w_ref) / max(1.0, np.linalg.norm(w_ref))
        worst = max(worst, rel)
    elapsed = time.time() - start
    report(
        "criterion 1: OLS oracle (50 problems, rel err < 1e-8, < 5 s)",
        worst < 1e-8 and elapsed < 5.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_blr_closed_form():
    """Posterior mean closed form; flat-prior limit matches OLS."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(35, 7))
    y = X @ rng.normal(size=7) + 0.4 * rng.normal(size=35) + 1.5
    alpha, beta = 0.05, 3.0
    model = BayesianLinearRegressor(alpha=alpha, beta=beta, evidence_iters=0).fit(X, y)
    Z = standardized_design(X)
    D = np.eye(Z.shape[1])
    D[-1, -1] = 0.0  # intercept column carries no prior penalty
    m_ref = beta * np.linalg.solve(alpha * D + beta * Z.T @ Z, Z.T @ y)
    got = np.append(model.weights_, model.intercept_)
    closed_form_err = float(np.max(np.abs(got - m_ref)))

    flat = BayesianLinearRegressor(alpha=1e-12, beta=1.0, evidence_iters=0).fit(X, y)
    ols = LinearRegressor(ridge=0.0).fit(X, y)
    flat_err = float(
        np.max(
            np.abs(
                np.append(flat.weights_, flat.intercept_)
                - np.append(ols.weights_, ols.intercept_)
            )
        )
    )
    report(
        "criterion 2: BLR closed form (1e-8) and flat-prior limit (1e-6)",
        closed_form_err < 1e-8 and flat_err < 1e-6,
        f"closed-form err {closed_form_err:.2e}, flat-prior err {flat_err:.2e}",
    )


def test_criterion_3_nn_gradient_check():
    """Backprop vs central differences on 20 random small nets."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 14))
        h = int(rng.integers(1, 17))
        n = int(rng.integers(5, 41))
        X = rng.normal(size=(n, d))
        y = rng.normal(loc=rng.uniform(-2, 2), scale=1.5, size=n)
        params = rng.uniform(-0.5, 0.5, size=param_count(d, h))
        worst = max(worst, check_gradient(params, X, y, h, 1e-5))
    report(
        "criterion 3: NNR gradient check (20 nets, rel err < 1e-4)",
        worst < 1e-4,
        f"worst rel err {worst:.2e}",
    )


def test_criterion_4_boosting_monotonicity():
    """Training MSE non-increasing in tree count, eta=0.1, T up to 200."""
    rng = np.random.default_rng(3)
    ok = True
    worst_increase = 0.0
    for _ in range(10):
        n = int(rng.integers(25, 60))
        d = int(rng.integers(1, 8))
        X = rng.normal(size=(n, d))
        y = np.sin(X[:, 0]) + 0.5 * rng.normal(size=n)
        model = BoostedTreesRegressor(trees=200, learning_rate=0.1).fit(X, y)
        mses = np.array([float(np.mean((p - y) ** 2)) for p in model.staged_predict(X)])
        increase = float(np.max(np.diff(mses), initial=0.0))
        worst_increase = max(worst_increase, increase)
        ok = ok and increase <= 1e-12
    report(
        "criterion 4: boosting training MSE non-increasing (10 datasets, T=200)",
        ok,
        f"largest stage-to-stage increase {worst_increase:.2e}",
    )


def test_criterion_5_forest_degenerate_and_range():
    """Depth-0 single tree is exactly the mean; forests never extrapolate."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 4))
    y = rng.uniform(2.0, 9.0, size=30)
    stump = DecisionForestRegressor(trees=1, max_depth=0, bootstrap=False).fit(X, y)
    exact_mean = bool(np.all(stump.predict(rng.normal(size=(10, 4))) == y.mean()))

    in_range = True
    for seed in range(5):
        rng2 = np.random.default_rng(100 + seed)
        Xs = rng2.normal(size=(40, 5))
        ys = rng2.uniform(-3.0, 3.0, size=40)
        forest = DecisionForestRegressor(trees=40, seed=seed).fit(Xs, ys)
        preds = forest.predict(rng2.normal(scale=4.0, size=(60, 5)))
        in_range = in_range and ys.min() <= preds.min() and preds.max() <= ys.max()
    report(
        "criterion 5: forest depth-0 mean + prediction range",
        exact_mean and in_range,
    )


def test_criterion_6_error_band_arithmetic():
    """Counts (14,8,2,0)/24 reproduce the reference row cell-for-cell."""
    b = ErrorBands.from_counts((14, 8, 2, 0), 24)
    exact = (
        b.pct[0] == 58.33
        and b.pct[1] == 33.33
        and b.pct[2] == 8.33
        and b.cum_0_2 == 91.67
        and b.cum_0_3 == 100.00
    )

    rng = np.random.default_rng(17)
    properties = True
    for _ in range(300):
        n = int(rng.integers(1, 120))
        cuts = np.sort(rng.integers(0, n + 1, size=3))
        counts = (int(cuts[0]), int(cuts[1] - cuts[0]), int(cuts[2] - cuts[1]), int(n - cuts[2]))
        bands = ErrorBands.from_counts(counts, n)
        properties = properties and abs(sum(bands.pct) - 100.0) <= 0.03
        properties = properties and bands.pct[0] <= bands.cum_0_2 + 1e-12
        properties = properties and bands.cum_0_2 <= bands.cum_0_3 <= 100.0
    report(
        "criterion 6: error-band arithmetic 58.33/33.33/8.33/91.67/100.00 + properties",
        exact and properties,
    )


def test_criterion_7_histogram_reproduction():
    """Tallying the 12 reference winners reproduces the published counts."""
    winners = [
        ModelKind.BLR, ModelKind.DFR, ModelKind.LR, ModelKind.BLR,
        ModelKind.BLR, ModelKind.BLR, ModelKind.BLR, ModelKind.BLR,
        ModelKind.BLR, ModelKind.NNR, ModelKind.NNR, ModelKind.BDTR,
    ]
    got = histogram_of_kinds(winners)
    expected = {"BLR": 7, "NNR": 2, "DFR": 1, "BDTR": 1, "LR": 1}
    report("criterion 7: winner histogram BLR 7 / NNR 2 / DFR 1 / BDTR 1 / LR 1", got == expected, str(got))


def test_criterion_8_end_to_end_synthetic_study():
    """Full default study on a synthetic 80-patient cohort."""
    cohort = generate_synthetic_cohort(80, 3)
    config = StudyConfig()
    start = time.time()
    study, _ = run_study(cohort, config)
    elapsed = time.time() - start

    train, test = split_cohort(cohort, SplitSpec(config.test_fraction, config.seed))
    entries_ok = len(study.entries) == 12 and all(e.bands.n_test == 24 for e in study.entries)

    beats_baseline = 0
    linear_family = 0
    within_noise = True
    for e in study.entries:
        y_train = label_vector(train, e.channel)
        y_test = label_vector(test, e.channel)
        baseline = rmse(np.full_like(y_test, y_train.mean()), y_test)
        beats_baseline += e.rmse <= baseline
        linear_family += e.kind in (ModelKind.LR, ModelKind.BLR)
        within_noise = within_noise and e.rmse <= 1.5 * synth_sigma(e.channel)

    report(
        "criterion 8: end-to-end synthetic study",
        elapsed < 60.0
        and entries_ok
        and beats_baseline >= 10
        and linear_family >= 10
        and within_noise,
        f"{elapsed:.1f}s, baseline wins {beats_baseline}/12, "
        f"linear-family wins {linear_family}/12",
    )


def test_criterion_9_determinism_across_runs(tmp_path):
    """Same seed => byte-identical report and bundle."""
    cohort = generate_synthetic_cohort(80, 7)
    fast = HyperParams().with_overrides(
        {"dfr.trees": 20, "bdtr.trees": 40, "nnr.epochs": 200}
    )
    base = StudyConfig(seed=7, hyper=fast)

    r1, m1 = run_study(cohort, base)
    r2, m2 = run_study(cohort, base)

    same_runs = report_to_json(r1) == report_to_json(r2) and bundle_to_json(m1) == bundle_to_json(m2)
    report("criterion 9: byte-identical outputs across runs", same_runs)


def test_criterion_10_round_trips():
    """CSV parse/serialize and bundle save/load are exact."""
    cohort = generate_synthetic_cohort(30, 19)
    once = parse_cohort_csv(serialize_cohort_csv(cohort))
    twice = parse_cohort_csv(serialize_cohort_csv(once))
    csv_exact = once == twice == cohort

    fast = HyperParams().with_overrides(
        {"dfr.trees": 10, "bdtr.trees": 20, "nnr.epochs": 100}
    )
    _, models = run_study(cohort, StudyConfig(hyper=fast))
    reloaded = bundle_from_json(bundle_to_json(models))
    patient = cohort.take([3])
    before = [p.value for p in predict_one(models, patient)]
    after = [p.value for p in predict_one(reloaded, patient)]
    predictions_exact = before == after

    report(
        "criterion 10: CSV and model-bundle round-trips exact",
        csv_exact and predictions_exact,
    )
