"""Batch prediction: one estimator call per channel for the whole cohort.

Every estimator computes each row on its own, so a patient's prediction
has the same bits whatever other patients share the batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impforecast import (
    ChannelModel,
    ModelBundle,
    generate_synthetic_cohort,
    load_bundle,
    predict_batch,
    predict_one,
    save_bundle,
)
from impforecast.domain import CHANNELS, GROUP_ORDER, KIND_ORDER, Cohort, ModelKind
from impforecast.errors import NonFiniteOutputError, NonPositiveError
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


def with_params(bundle: ModelBundle, channel: int, **params) -> ModelBundle:
    """``bundle`` with some fitted parameters of one channel's model replaced."""
    models = []
    for m in bundle.models:
        if m.channel == channel:
            doc = m.to_dict()
            doc["params"].update(params)
            m = ChannelModel.from_dict(doc)
        models.append(m)
    return ModelBundle(models=tuple(models))


def test_overflowing_model_is_a_data_error_naming_its_channel(mixed_bundle):
    """Finite but huge weights (channel 2 is BLR G2) overflow every
    prediction: a typed error, and no numpy warning on the way."""
    bundle = with_params(mixed_bundle, 2, weights=[1.7e308] * 13, intercept=1.7e308)
    cohort = generate_synthetic_cohort(20, 4)
    pattern = r"^channel 2: the BLR G2 model predicts NaN or infinity for \d+ of 20 patients$"
    with pytest.raises(NonFiniteOutputError, match=pattern) as raised:
        predict_batch(bundle, cohort)
    assert raised.value.channel == 2
    with pytest.raises(NonFiniteOutputError, match=pattern.replace("20", "1")):
        predict_one(bundle, cohort.take([0]))


def test_huge_cohort_cell_is_a_data_error(mixed_bundle):
    """A finite age of 1.7e308 years times a slope of 10 kOhm per year
    (channel 1 is LR G1) overflows that patient's prediction only."""
    bundle = with_params(mixed_bundle, 1, weights=[10.0])
    cohort = generate_synthetic_cohort(5, 4)
    assert np.isfinite(predict_batch(bundle, cohort)).all()
    ages = cohort.ages.copy()
    ages[3] = 1.7e308
    with pytest.raises(NonFiniteOutputError, match=r"^channel 1: the LR G1 model .* for 1 of 5 patients$"):
        predict_batch(bundle, Cohort(ages, cohort.intra))


def test_zero_impedance_never_reaches_a_model(mixed_bundle):
    """A cohort of zero impedances cannot be built, so nothing predicts for
    it; the message is the one a CSV cell of 0.0 gets from the parser."""
    cohort = generate_synthetic_cohort(5, 4)
    with pytest.raises(NonPositiveError, match=r"^row 1, column 'ei_intra_1': must be > 0, got 0\.0$"):
        predict_batch(mixed_bundle, Cohort(cohort.ages, cohort.intra * 0))


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
