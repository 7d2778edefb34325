"""impforecast: per-channel cochlear-implant impedance prediction.

Five from-scratch regressors (linear, Bayesian linear, decision forest,
boosted trees, neural network) are trained per electrode channel and
feature group; the best candidate by held-out RMSE wins, and accuracy is
reported as kOhm error bands.

The public names below are imported on first access (PEP 562), so
``import impforecast`` loads neither numpy nor the estimators.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "bundle": ("ChannelModel", "ModelBundle", "bundle_from_json", "bundle_to_json", "load_bundle", "save_bundle"),
    "dataio": (
        "SplitSpec",
        "generate_synthetic_cohort",
        "parse_cohort_csv",
        "serialize_cohort_csv",
        "split_cohort",
        "validate_cohort",
    ),
    "domain": ("CHANNELS", "ChannelRange", "Cohort", "FeatureGroup", "ModelKind", "published_range"),
    "metrics": ("error_bands", "rmse"),
    "pipeline": (
        "ChannelPrediction",
        "StudyConfig",
        "evaluate_grid",
        "pick_winner",
        "predict_batch",
        "predict_one",
        "run_study",
    ),
    "regressors": (
        "BayesianLinearRegressor",
        "BoostedTreesRegressor",
        "DecisionForestRegressor",
        "HyperParams",
        "LinearRegressor",
        "NeuralNetRegressor",
        "Standardizer",
        "make_regressor",
    ),
    "report": (
        "ErrorBands",
        "SelectionEntry",
        "StudyReport",
        "export_study",
        "render_band_table",
        "render_selection_table",
        "report_from_json",
        "report_to_json",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
