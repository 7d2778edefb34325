"""Byte pins: sha256 of study outputs and of fitted tree ensembles.

A change that alters any of these bytes must do so on purpose and say why
in CHANGES.md. The study pins use criterion 9's fast hyperparameters; on
synthetic cohorts the study rarely selects a tree model, so the tree
ensembles are also pinned on their own: their bundle JSON and their
predictions, for the whole batch and for one row at a time.
"""

import hashlib
import json

import numpy as np
import pytest

from impforecast import (
    ChannelModel,
    FeatureGroup,
    HyperParams,
    ModelKind,
    StudyConfig,
    bundle_to_json,
    generate_synthetic_cohort,
    make_regressor,
    report_to_json,
    run_study,
)
from impforecast.domain import feature_matrix, label_vector

FAST = {"dfr.trees": 20, "bdtr.trees": 40, "nnr.epochs": 200}

STUDY_GOLDEN = {
    3: (
        "7369a4171d77b56b66c350f32d9be3687aaf22de94f30db4773f5d8d96adb128",
        "dc38babd0961d49344e4e5f9226352718d09829cb9649978497687b415d800c3",
    ),
    7: (
        "5c83c8057450c6b2f72c397131d206661946309157f7599be9373d487e24d0e1",
        "5feefb6af6d86c59027ce10698bf71cd1007f36e48b63395af3dc8d2df0ac21d",
    ),
}

# (model JSON, whole-batch predictions, row-by-row predictions)
TREE_GOLDEN = {
    ("DFR", "G1"): (
        "467979a2197e007d7c2d404ef927b497e7b495a7532d5e2a5c56ae6fdfe6113f",
        "6690b4b9fd24c2417495310d7c2eec35eb9dd23fc85beeac9737e5831c14359d",
        "6690b4b9fd24c2417495310d7c2eec35eb9dd23fc85beeac9737e5831c14359d",
    ),
    ("DFR", "G2"): (
        "602f559d60c01e2880177d5f7d13ef795e4d06a9283506c0a0e3140ad8ff63c2",
        "3942fc87d1831c475e9e090652cfe2b188133b1e213a0617eddb00bf5d314e7d",
        "3942fc87d1831c475e9e090652cfe2b188133b1e213a0617eddb00bf5d314e7d",
    ),
    ("BDTR", "G1"): (
        "25165cb73c7586f875ead4fec57c9332a01e6e332c34cc93bb45e9d425ae8efc",
        "559aca32289425ee1f058199507fc96f18a1879a1c67044d400e4f368ebcba48",
        "559aca32289425ee1f058199507fc96f18a1879a1c67044d400e4f368ebcba48",
    ),
    ("BDTR", "G2"): (
        "6d82f13b561e0217499be9dd618b95e665b56201ace0fdd935870127de47d39d",
        "bc667854b19b16086f2ea4ecca74f259431a2d70e12b7fb40fca4bf5b8a01995",
        "bc667854b19b16086f2ea4ecca74f259431a2d70e12b7fb40fca4bf5b8a01995",
    ),
}

TREE_CHANNEL = 5
TREE_SEED = 1234


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", sorted(STUDY_GOLDEN))
def test_study_bytes_pinned(seed):
    cohort = generate_synthetic_cohort(80, seed)
    config = StudyConfig(seed=seed, hyper=HyperParams().with_overrides(FAST))
    report, models = run_study(cohort, config)
    assert (sha256(report_to_json(report)), sha256(bundle_to_json(models))) == STUDY_GOLDEN[seed]


@pytest.mark.parametrize("kind, group", sorted(TREE_GOLDEN))
def test_tree_ensemble_bytes_pinned(kind, group):
    train = generate_synthetic_cohort(56, 11)
    batch = generate_synthetic_cohort(300, 12)
    group = FeatureGroup(group)
    X, y = feature_matrix(train, group), label_vector(train, TREE_CHANNEL)
    estimator = make_regressor(ModelKind(kind), seed=TREE_SEED).fit(X, y)
    model = ChannelModel(
        channel=TREE_CHANNEL, kind=ModelKind(kind), group=group, rmse=0.0, estimator=estimator
    )
    Xb = feature_matrix(batch, group)
    whole = estimator.predict(Xb)
    rowwise = np.array([estimator.predict(Xb[i : i + 1])[0] for i in range(Xb.shape[0])])
    got = (
        sha256(json.dumps(model.to_dict())),
        sha256(whole.tobytes()),
        sha256(rowwise.tobytes()),
    )
    assert got == TREE_GOLDEN[(kind, group.value)]
