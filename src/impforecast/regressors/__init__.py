"""Five from-scratch regressors behind one fit/predict estimator contract."""

from __future__ import annotations

import dataclasses

from ..domain import ModelKind
from .base import BaseRegressor, Standardizer
from .hyper import (
    BayesConfig,
    BoostConfig,
    ForestConfig,
    HyperParams,
    LinearConfig,
    NeuralConfig,
)
from .linear import BayesianLinearRegressor, LinearRegressor
from .neural import NeuralNetRegressor, check_gradient, nn_loss_and_gradient
from .tree import BoostedTreesRegressor, DecisionForestRegressor

ESTIMATOR_CLASSES = {
    ModelKind.LR: LinearRegressor,
    ModelKind.BLR: BayesianLinearRegressor,
    ModelKind.DFR: DecisionForestRegressor,
    ModelKind.BDTR: BoostedTreesRegressor,
    ModelKind.NNR: NeuralNetRegressor,
}


def make_regressor(kind: ModelKind, hyper: HyperParams | None = None, seed: int = 0):
    """Instantiate the estimator for ``kind`` from a hyperparameter bundle."""
    hyper = hyper if hyper is not None else HyperParams()
    kwargs = dataclasses.asdict(hyper.for_kind(kind))
    return ESTIMATOR_CLASSES[kind](seed=seed, **kwargs)


__all__ = [
    "BaseRegressor",
    "BayesConfig",
    "BayesianLinearRegressor",
    "BoostConfig",
    "BoostedTreesRegressor",
    "DecisionForestRegressor",
    "ESTIMATOR_CLASSES",
    "ForestConfig",
    "HyperParams",
    "LinearConfig",
    "LinearRegressor",
    "NeuralConfig",
    "NeuralNetRegressor",
    "Standardizer",
    "check_gradient",
    "make_regressor",
    "nn_loss_and_gradient",
]
