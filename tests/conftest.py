import ast
import contextlib
import io
import re

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


def pytest_report_header(config):
    """The host's numeric kernels, which the golden pins depend on: numpy's
    SIMD extensions and its BLAS, from ``np.show_runtime()``. Without
    threadpoolctl that names no BLAS kernel, so the BLAS numpy was built
    with is named instead."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        np.show_runtime()
    text = out.getvalue()
    simd = re.search(r"'simd_extensions': (\{[^{}]*\})", text)
    if simd:
        ext = {key: " ".join(names) or "-" for key, names in ast.literal_eval(simd.group(1)).items()}
        lines = [f"numpy {np.__version__} SIMD: baseline {ext['baseline']}; found {ext['found']}; "
                 f"not found {ext['not_found']}"]
    else:
        lines = [f"numpy {np.__version__} runtime: {' '.join(text.split())}"]
    kernels = re.findall(r"'architecture': '([^']*)'", text)
    if kernels:
        lines.append(f"BLAS kernel at run time: {', '.join(kernels)}")
    else:
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            lines.append(f"BLAS built: {blas['name']} {blas['version']} "
                         f"({' '.join(blas.get('openblas configuration', '').split())})")
        except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
            pass
    return lines


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
