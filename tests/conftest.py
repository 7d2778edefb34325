import numpy as np
import pytest

from impforecast import ChannelModel, HyperParams, ModelBundle, generate_synthetic_cohort, make_regressor
from impforecast.dataio import SYNTH_AGE_COEF, SYNTH_SLOPE, synth_offset
from impforecast.domain import (
    CHANNELS,
    GROUP_ORDER,
    KIND_ORDER,
    Cohort,
    feature_matrix,
    label_vector,
    published_range,
)


def build_linear_cohort(n: int, seed: int, sigma: float = 0.1) -> Cohort:
    """Labeled cohort whose labels follow the documented linear rule with
    Gaussian noise ``sigma`` and no clipping (useful as a known-truth
    fixture for model evaluation)."""
    rng = np.random.default_rng(seed)
    lo = np.array([published_range(c).min for c in CHANNELS])
    hi = np.array([published_range(c).max for c in CHANNELS])
    ages = rng.uniform(1.0, 6.0, size=n)
    intra = lo + (hi - lo) * rng.uniform(0.0, 1.0, size=(n, 12))
    offsets = np.array([synth_offset(c) for c in CHANNELS])
    labels = (
        SYNTH_SLOPE * intra
        + SYNTH_AGE_COEF * ages[:, None]
        + offsets
        + sigma * rng.standard_normal((n, 12))
    )
    return Cohort(ages, intra, labels)


@pytest.fixture
def linear_cohort_factory():
    return build_linear_cohort


@pytest.fixture(scope="session")
def mixed_bundle():
    """A complete bundle with every kind and both feature groups, fit on a
    40-patient synthetic cohort with light hyperparameters. Channels 1..10
    hold every kind x group pair once; 11 and 12 repeat 1 and 2."""
    cohort = generate_synthetic_cohort(40, 21)
    hyper = HyperParams().with_overrides({"dfr.trees": 10, "bdtr.trees": 20, "nnr.epochs": 100})
    models = []
    for channel in CHANNELS:
        kind = KIND_ORDER[(channel - 1) % len(KIND_ORDER)]
        group = GROUP_ORDER[(channel - 1) % len(GROUP_ORDER)]
        estimator = make_regressor(kind, hyper, seed=channel).fit(
            feature_matrix(cohort, group), label_vector(cohort, channel)
        )
        models.append(ChannelModel(channel=channel, kind=kind, group=group, rmse=1.0,
                                   estimator=estimator))
    return ModelBundle(models=tuple(models))
