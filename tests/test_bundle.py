import copy
import json

import numpy as np
import pytest

from impforecast.bundle import (
    ChannelModel,
    ModelBundle,
    bundle_from_json,
    bundle_to_json,
    load_bundle,
    save_bundle,
)
from impforecast.dataio import generate_synthetic_cohort
from impforecast.domain import FeatureGroup, feature_matrix
from impforecast.errors import IncompatibleBundleError
from impforecast.pipeline import StudyConfig, run_study
from impforecast.regressors import HyperParams

FAST = StudyConfig(
    hyper=HyperParams().with_overrides(
        {"dfr.trees": 10, "bdtr.trees": 20, "nnr.epochs": 100}
    )
)


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    cohort = generate_synthetic_cohort(30, 13)
    _, models = run_study(cohort, FAST)
    return cohort, models


def test_save_load_predict_bit_identical(fitted, tmp_path):
    cohort, models = fitted
    path = tmp_path / "models.json"
    save_bundle(models, path)
    reloaded = load_bundle(path)
    X = feature_matrix(cohort, FeatureGroup.G2)
    for channel_model, again in zip(models.models, reloaded.models):
        assert again.kind == channel_model.kind
        assert again.group == channel_model.group
        Xg = feature_matrix(cohort, channel_model.group)
        before = channel_model.estimator.predict(Xg)
        after = again.estimator.predict(Xg)
        assert np.array_equal(before, after)
    assert X.shape[1] == 13


def test_json_stable_across_reload(fitted):
    _, models = fitted
    text = bundle_to_json(models)
    assert bundle_to_json(bundle_from_json(text)) == text


def test_wrong_format_version_rejected(fitted):
    _, models = fitted
    doc = json.loads(bundle_to_json(models))
    doc["format_version"] = 99
    with pytest.raises(IncompatibleBundleError):
        bundle_from_json(json.dumps(doc))
    doc["format_version"] = 1
    doc["models"][0]["format_version"] = 99
    with pytest.raises(IncompatibleBundleError):
        bundle_from_json(json.dumps(doc))


def test_incomplete_bundle_detected(fitted):
    _, models = fitted
    with pytest.raises(IncompatibleBundleError) as info:
        ModelBundle(models=models.models[:11])
    assert "12" in str(info.value)


def test_not_json_rejected():
    with pytest.raises(IncompatibleBundleError):
        bundle_from_json("not json at all {")


@pytest.mark.parametrize(
    "channel, path",
    [
        (1, ("params", "weights", 0)),
        (2, ("params", "alpha_posterior")),
        (3, ("params", "trees", 0, "threshold", 0)),
        (4, ("params", "trees", 0, "value", -1)),
        (5, ("params", "w1", 0, 0)),
        (5, ("hyper", "step")),
        (6, ("standardizer", "stdevs", 0)),
        (6, ("rmse",)),
    ],
)
def test_in_memory_model_with_nan_is_refused(mixed_bundle, channel, path):
    """A bundle file with NaN is refused while it parses, so only a dict
    built in memory reaches the finiteness checks of ``from_dict``."""
    doc = copy.deepcopy(mixed_bundle.models[channel - 1].to_dict())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = float("nan")
    with pytest.raises(IncompatibleBundleError):
        ChannelModel.from_dict(doc)
