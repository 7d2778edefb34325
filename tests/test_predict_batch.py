"""Batch prediction: one estimator call per channel for the whole cohort.

Every estimator computes each row on its own, so a patient's prediction
has the same bits whatever other patients share the batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impforecast import load_bundle, predict_batch, predict_one, save_bundle
from impforecast.domain import CHANNELS, GROUP_ORDER, KIND_ORDER, Cohort, ModelKind
from impforecast.regressors.neural import unpack_params

# ages in years and impedances in kOhm, a little beyond the synthetic ranges
values = st.floats(0.1, 100.0, allow_nan=False, allow_infinity=False)
cohorts = st.lists(st.lists(values, min_size=13, max_size=13), min_size=1, max_size=40).map(
    lambda rows: Cohort([r[0] for r in rows], [r[1:] for r in rows])
)


def sub_cohort(cohort: Cohort, lo: int, hi: int) -> Cohort:
    return cohort.take(range(lo, hi))


@pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
@pytest.mark.parametrize("group", GROUP_ORDER, ids=lambda g: g.value)
@settings(max_examples=20, deadline=None)
@given(cohort=cohorts, data=st.data())
def test_any_partition_predicts_whole_batch_bytes(mixed_bundle, kind, group, cohort, data):
    channel = next(m.channel for m in mixed_bundle.models if (m.kind, m.group) == (kind, group))
    n = len(cohort)
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else ())
    whole = predict_batch(mixed_bundle, cohort)[:, channel - 1]
    bounds = [0, *cuts, n]
    pieces = np.concatenate([
        predict_batch(mixed_bundle, sub_cohort(cohort, lo, hi))[:, channel - 1]
        for lo, hi in zip(bounds, bounds[1:])
    ])
    rows = np.array([predict_batch(mixed_bundle, sub_cohort(cohort, i, i + 1))[0, channel - 1]
                     for i in range(n)])
    assert pieces.tobytes() == whole.tobytes()
    assert rows.tobytes() == whole.tobytes()


@pytest.fixture(scope="module")
def reloaded(mixed_bundle, tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "models.json"
    save_bundle(mixed_bundle, path)
    return load_bundle(path)


@settings(max_examples=30, deadline=None)
@given(cohort=cohorts)
def test_bundle_round_trip_predicts_same_bits(mixed_bundle, reloaded, cohort):
    assert predict_batch(reloaded, cohort).tobytes() == predict_batch(mixed_bundle, cohort).tobytes()


@settings(max_examples=30, deadline=None)
@given(cohort=cohorts)
def test_predict_batch_equals_predict_one_row_by_row(mixed_bundle, cohort):
    P = predict_batch(mixed_bundle, cohort)
    assert P.shape == (len(cohort), len(CHANNELS))
    for i, row in enumerate(P.tolist()):
        predictions = predict_one(mixed_bundle, cohort.take([i]))
        assert [p.channel for p in predictions] == list(CHANNELS)
        assert [p.value for p in predictions] == row


def test_empty_cohort_predicts_no_rows(mixed_bundle):
    assert predict_batch(mixed_bundle, Cohort(np.empty(0), np.empty((0, 12)))).shape == (0, len(CHANNELS))


@pytest.mark.parametrize("kind", [ModelKind.LR, ModelKind.BLR, ModelKind.NNR], ids=lambda k: k.value)
@pytest.mark.parametrize("group", GROUP_ORDER, ids=lambda g: g.value)
def test_row_sums_match_matrix_products(mixed_bundle, kind, group):
    """The row-by-row sums change only the rounding of the matrix products
    that training uses."""
    model = next(m for m in mixed_bundle.models if (m.kind, m.group) == (kind, group))
    est = model.estimator
    X = np.random.default_rng(3).uniform(0.5, 40.0, size=(300, group.dimension))
    Xs = est.standardizer_.transform(X)
    if kind is ModelKind.NNR:
        W1, b1, w2, b2 = unpack_params(est.params_, group.dimension, est.hyper.hidden_units)
        expected = np.tanh(Xs @ W1 + b1) @ w2 + b2
    else:
        expected = Xs @ est.weights_ + est.intercept_
    np.testing.assert_allclose(est.predict(X), expected, rtol=1e-12, atol=0.0)
