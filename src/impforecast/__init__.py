"""impforecast: per-channel cochlear-implant impedance prediction.

Five from-scratch regressors (linear, Bayesian linear, decision forest,
boosted trees, neural network) are trained per electrode channel and
feature group; the best candidate by held-out RMSE wins, and accuracy is
reported as kOhm error bands.
"""

from .bundle import ChannelModel, ModelBundle, bundle_from_json, bundle_to_json, load_bundle, save_bundle
from .dataio import (
    SplitSpec,
    ValidationReport,
    generate_synthetic_cohort,
    parse_cohort_csv,
    serialize_cohort_csv,
    split_cohort,
    validate_cohort,
)
from .domain import (
    CHANNELS,
    ChannelRange,
    Cohort,
    FeatureGroup,
    ModelKind,
    published_range,
)
from .metrics import ErrorBands, error_bands, rmse
from .pipeline import (
    ChannelPrediction,
    SelectionEntry,
    StudyConfig,
    StudyReport,
    evaluate_grid,
    pick_winner,
    predict_batch,
    predict_one,
    report_from_json,
    report_to_json,
    run_study,
)
from .regressors import (
    BayesianLinearRegressor,
    BoostedTreesRegressor,
    DecisionForestRegressor,
    HyperParams,
    LinearRegressor,
    NeuralNetRegressor,
    Standardizer,
    make_regressor,
)
from .report import RenderOptions, export_study, render_band_table, render_selection_table

__version__ = "0.1.0"

__all__ = [
    "CHANNELS",
    "ChannelModel",
    "ChannelPrediction",
    "ChannelRange",
    "Cohort",
    "ErrorBands",
    "FeatureGroup",
    "HyperParams",
    "ModelBundle",
    "ModelKind",
    "RenderOptions",
    "SelectionEntry",
    "SplitSpec",
    "Standardizer",
    "StudyConfig",
    "StudyReport",
    "ValidationReport",
    "BayesianLinearRegressor",
    "BoostedTreesRegressor",
    "DecisionForestRegressor",
    "LinearRegressor",
    "NeuralNetRegressor",
    "bundle_from_json",
    "bundle_to_json",
    "error_bands",
    "evaluate_grid",
    "export_study",
    "generate_synthetic_cohort",
    "load_bundle",
    "make_regressor",
    "parse_cohort_csv",
    "pick_winner",
    "predict_batch",
    "predict_one",
    "published_range",
    "render_band_table",
    "render_selection_table",
    "report_from_json",
    "report_to_json",
    "rmse",
    "run_study",
    "save_bundle",
    "serialize_cohort_csv",
    "split_cohort",
    "validate_cohort",
    "__version__",
]
