import copy
import dataclasses
import json
import tracemalloc

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
from impforecast.domain import (
    CHANNELS,
    GROUP_ORDER,
    KIND_ORDER,
    FeatureGroup,
    ModelKind,
    feature_matrix,
    label_vector,
)
from impforecast.errors import IncompatibleBundleError
from impforecast.pipeline import StudyConfig, run_study
from impforecast.regressors import HyperParams, make_regressor
from impforecast.textio import write_json

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


@pytest.mark.parametrize("channel, edit, message", [
    (1, lambda doc: doc["hyper"].pop("ridge"),
     r"at hyper\.ridge: it holds no such key, its writer writes 1e-08$"),
    (1, lambda doc: doc.update(rmse=1), r"at rmse: it holds 1, its writer writes 1\.0$"),
    (4, lambda doc: doc["params"].update(tree_weights=[0.1] * 20),
     r"at params\.tree_weights: it holds \[0\.1, 0\.1, .*\.\.\., its writer writes no such key$"),
], ids=["no_ridge", "int_rmse", "tree_weights"])
def test_a_model_entry_that_does_not_save_back_is_refused(mixed_bundle, channel, edit, message):
    """``from_dict`` applies the rule of ``bundle_from_json`` to its entry."""
    doc = mixed_bundle.models[channel - 1].to_dict()
    assert ChannelModel.from_dict(doc).to_dict() == doc
    edit(doc)
    with pytest.raises(IncompatibleBundleError, match="^model does not save back to itself " + message):
        ChannelModel.from_dict(doc)
    bundle = json.loads(bundle_to_json(mixed_bundle))
    edit(bundle["models"][channel - 1])
    with pytest.raises(IncompatibleBundleError, match=(
        rf"^bundle does not save back to itself at models\[{channel - 1}\]\." + message.removeprefix("at ")
    )):
        bundle_from_json(json.dumps(bundle))


def test_a_negative_rmse_cannot_be_built(mixed_bundle):
    """The reader refuses a negative rmse, so no bundle that holds one can
    be built and saved."""
    with pytest.raises(ValueError, match="^rmse must be a finite number >= 0, got -1.0$"):
        dataclasses.replace(mixed_bundle.models[2], rmse=-1.0)
    doc = json.loads(bundle_to_json(mixed_bundle))
    doc["models"][2]["rmse"] = -1.0
    with pytest.raises(IncompatibleBundleError, match="^models\\[2\\]: malformed model entry: "
                                                      "rmse must be a finite number >= 0, got -1.0$"):
        bundle_from_json(json.dumps(doc))


def test_a_model_holds_an_estimator_of_its_kind(mixed_bundle):
    linear = next(m for m in mixed_bundle.models if m.kind is ModelKind.LR)
    with pytest.raises(IncompatibleBundleError, match="^a NNR model cannot hold a LinearRegressor$"):
        dataclasses.replace(linear, kind=ModelKind.NNR)


def test_a_model_holds_an_estimator_fitted_on_its_group(mixed_bundle):
    one_feature = next(m for m in mixed_bundle.models if m.group is FeatureGroup.G1)
    with pytest.raises(IncompatibleBundleError,
                       match="^group G2 has 13 features but the standardizer has 1$"):
        dataclasses.replace(one_feature, group=FeatureGroup.G2)
    with pytest.raises(IncompatibleBundleError, match="^the estimator is not fitted$"):
        dataclasses.replace(one_feature, estimator=make_regressor(one_feature.kind))


@pytest.fixture(scope="module")
def default_mixed_bundle():
    """Every kind and both feature groups with the default hyperparameters,
    fit on an 80-patient cohort: about 1.8 MB of JSON."""
    cohort = generate_synthetic_cohort(80, 11)
    models = []
    for channel in CHANNELS:
        kind = KIND_ORDER[(channel - 1) % len(KIND_ORDER)]
        group = GROUP_ORDER[(channel - 1) % len(GROUP_ORDER)]
        estimator = make_regressor(kind, seed=channel).fit(feature_matrix(cohort, group),
                                                          label_vector(cohort, channel))
        models.append(ChannelModel(channel, kind, group, 1.0, estimator))
    return ModelBundle(models=tuple(models))


def test_saved_bundle_is_its_json_text(fitted, mixed_bundle, default_mixed_bundle, tmp_path):
    path = tmp_path / "models.json"
    for bundle in (fitted[1], mixed_bundle, default_mixed_bundle):
        save_bundle(bundle, path)
        assert path.read_bytes() == bundle_to_json(bundle).encode("utf-8")


def test_writing_a_bundle_holds_no_copy_of_its_text(default_mixed_bundle, tmp_path):
    """The text goes to the file as it is encoded: writing it allocates, as
    tracemalloc sees it, less than a quarter of the file's size."""
    path = tmp_path / "models.json"
    doc = json.loads(bundle_to_json(default_mixed_bundle))  # the document save_bundle writes
    tracemalloc.start()
    try:
        write_json(path, doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == bundle_to_json(default_mixed_bundle)
    assert peak < path.stat().st_size / 4


def test_bundle_with_nan_is_not_saved(mixed_bundle, tmp_path):
    first = mixed_bundle.models[0]  # LR: its weights are one array
    estimator = copy.deepcopy(first.estimator)
    estimator.weights_[0] = float("nan")
    bundle = ModelBundle(models=(dataclasses.replace(first, estimator=estimator),
                                 *mixed_bundle.models[1:]))
    path = tmp_path / "models.json"
    path.write_text("an earlier bundle")
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_bundle(bundle, path)
    assert not path.exists()
