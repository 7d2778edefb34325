"""Byte pins: sha256 of study outputs and their renders, fitted tree
ensembles and networks.

A change that alters any of these bytes must do so on purpose and say why
in CHANGES.md. The study pins use criterion 9's fast hyperparameters; on
synthetic cohorts the study rarely selects a tree or network model, so the
tree ensembles and the network are also pinned on their own: their bundle
JSON and their predictions (for the trees, also one row at a time).

The pins hold on x86-64 with AVX2, where numpy runs its ``X86_V3`` loops
or better: the network's ``np.tanh`` gives other bits without them. CI
checks this with numpy's AVX-512 loops switched off. The study and network
pins also pass through OpenBLAS, whose kernel is picked from the CPU.
aarch64, hosts without AVX2 and other numpy versions are not verified.
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
    export_study,
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

# ``export_study`` text and CSV of the reports pinned above
RENDER_GOLDEN = {
    3: (
        "3f03f675edf9bb5707b75840d684451f178a1d0bb51f9efd9ae1da1490bfcd5e",
        "f6963a3ac4b9e801205c760c738fa53a7f5bfa1cc63ecdcd9ef555a82915ac89",
    ),
    7: (
        "1fcdde1a0712f30261cfe0fa36ba2b088516880566758458255859929046386c",
        "1c490363674723b934f8214d37f9c93bf1f4baf5d82c5997707a3e8c242255bc",
    ),
}

# report and bundle JSON of a nested-selection study
INNER_VALIDATION_SEED = 3
INNER_VALIDATION_GOLDEN = (
    "af94a48d1ac6cad47574d087d0dd3582eff2a2e8733ef62775bf2de7334d041a",
    "2b06af4557c0ccfa6a25c5351659dd0e53f2664f35ec808865e7eb7c8ca33423",
)

# (model JSON, whole-batch predictions, row-by-row predictions)
TREE_GOLDEN = {
    ("DFR", "G1"): (
        "467979a2197e007d7c2d404ef927b497e7b495a7532d5e2a5c56ae6fdfe6113f",
        "6690b4b9fd24c2417495310d7c2eec35eb9dd23fc85beeac9737e5831c14359d",
        "6690b4b9fd24c2417495310d7c2eec35eb9dd23fc85beeac9737e5831c14359d",
    ),
    ("DFR", "G2"): (
        "84be08e32a517b5bec12255c36bca7f00459d088408f7e88a4913b7752535068",
        "8c25d0d51de85e37bd76787f208ae760a43896709f005b0a6c1185e47ce5a231",
        "8c25d0d51de85e37bd76787f208ae760a43896709f005b0a6c1185e47ce5a231",
    ),
    ("BDTR", "G1"): (
        "5327d526eae1ede582a13610b47e0945d1c7371bac970ec244acb11a085f7c7c",
        "559aca32289425ee1f058199507fc96f18a1879a1c67044d400e4f368ebcba48",
        "559aca32289425ee1f058199507fc96f18a1879a1c67044d400e4f368ebcba48",
    ),
    ("BDTR", "G2"): (
        "c9b23412f62cbee3e1de4df2054caaced788f266d6a0daf75757e3f0ff0b6dcb",
        "bc667854b19b16086f2ea4ecca74f259431a2d70e12b7fb40fca4bf5b8a01995",
        "bc667854b19b16086f2ea4ecca74f259431a2d70e12b7fb40fca4bf5b8a01995",
    ),
}

# (model JSON, whole-batch predictions) of a network with default hypers
NNR_GOLDEN = {
    "G1": (
        "d76a22e9bfbb02a68571dae25da2b2bba8e6fc6191b4331bd030b14a38afb54a",
        "3164b001325b5a00f4d0eed7a8a16234556313e9f5d2bd66378c633ca0e65217",
    ),
    "G2": (
        "ac5cc416207e66c4d21de75809780b04b468a4ecb93a6c40447720f91de3bc51",
        "256aef5ff8f404a367f3734e542369006de4ed9b1ec8fd936ca164ceb66f2dba",
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


@pytest.mark.parametrize("seed", sorted(RENDER_GOLDEN))
def test_study_render_bytes_pinned(seed):
    cohort = generate_synthetic_cohort(80, seed)
    config = StudyConfig(seed=seed, hyper=HyperParams().with_overrides(FAST))
    report, _ = run_study(cohort, config)
    got = tuple(sha256(export_study(report, fmt)) for fmt in ("text", "csv"))
    assert got == RENDER_GOLDEN[seed]


def test_inner_validation_study_bytes_pinned():
    seed = INNER_VALIDATION_SEED
    cohort = generate_synthetic_cohort(80, seed)
    config = StudyConfig(
        seed=seed, selection="inner_validation", hyper=HyperParams().with_overrides(FAST)
    )
    report, models = run_study(cohort, config)
    assert (sha256(report_to_json(report)), sha256(bundle_to_json(models))) == INNER_VALIDATION_GOLDEN


def fit_pinned(kind: str, group: FeatureGroup):
    """The estimator of ``kind`` fit on the pinned training cohort, and the
    feature matrix of the pinned batch."""
    train = generate_synthetic_cohort(56, 11)
    batch = generate_synthetic_cohort(300, 12)
    X, y = feature_matrix(train, group), label_vector(train, TREE_CHANNEL)
    estimator = make_regressor(ModelKind(kind), seed=TREE_SEED).fit(X, y)
    model = ChannelModel(
        channel=TREE_CHANNEL, kind=ModelKind(kind), group=group, rmse=0.0, estimator=estimator
    )
    return model, feature_matrix(batch, group)


@pytest.mark.parametrize("group", sorted(NNR_GOLDEN))
def test_network_bytes_pinned(group):
    model, Xb = fit_pinned("NNR", FeatureGroup(group))
    got = (sha256(json.dumps(model.to_dict())), sha256(model.estimator.predict(Xb).tobytes()))
    assert got == NNR_GOLDEN[group]


@pytest.mark.parametrize("kind, group", sorted(TREE_GOLDEN))
def test_tree_ensemble_bytes_pinned(kind, group):
    model, Xb = fit_pinned(kind, FeatureGroup(group))
    estimator = model.estimator
    whole = estimator.predict(Xb)
    rowwise = np.array([estimator.predict(Xb[i : i + 1])[0] for i in range(Xb.shape[0])])
    got = (
        sha256(json.dumps(model.to_dict())),
        sha256(whole.tobytes()),
        sha256(rowwise.tobytes()),
    )
    assert got == TREE_GOLDEN[(kind, group)]
