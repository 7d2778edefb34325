"""Hyperparameter blocks for the five regressor kinds.

Each block is the only definition of its kind's hyperparameters: their
names, defaults, types and ranges. An estimator holds a block as
``hyper`` (see ``base.BaseRegressor``), so the estimator constructors,
``set_params``, the CLI ``--hyper`` flags and the ``hyper`` block of a
loaded model bundle all go through the same ``__post_init__`` checks,
which raise ValueError.

None of these settings come from published results; they are standard
defaults sized for a small (tens of rows) tabular cohort.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..domain import ModelKind, is_count, is_number, require


# Caps on the fields that size an array or a kept model. They are generous
# for a study on tens to hundreds of rows; past them a value is a usage
# error, not an allocation the host cannot hold. The depth cap also keeps
# boosting's depth-first grower under Python's recursion limit.
MAX_TREES = 10_000
MAX_DEPTH = 256
MAX_HIDDEN_UNITS = 4_096


def _require_count(key: str, value, low: int, high: int | None = None) -> None:
    """An integer >= ``low``, and at most ``high`` when one is given."""
    if high is None:
        require(is_count(value) and value >= low, key, f"an integer >= {low}", value)
    else:
        require(is_count(value) and low <= value <= high, key, f"an integer in [{low}, {high}]", value)


def _check_tree_sizes(kind: str, block) -> None:
    """Ranges that every tree ensemble needs: at least one tree, leaves of
    at least one row, and at most ``MAX_TREES`` trees of depth at most
    ``MAX_DEPTH``."""
    for name, low, high in (("trees", 1, MAX_TREES), ("max_depth", 0, MAX_DEPTH), ("min_leaf", 1, None)):
        _require_count(f"{kind}.{name}", getattr(block, name), low, high)


@dataclass(frozen=True)
class LinearConfig:
    ridge: float = 1e-8

    def __post_init__(self):
        r = self.ridge
        require(is_number(r) and r >= 0, "lr.ridge", "finite and >= 0", r)


@dataclass(frozen=True)
class BayesConfig:
    alpha: float = 1e-2
    beta: float = 1.0
    evidence_iters: int = 30

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            require(is_number(value) and value > 0, f"blr.{name}", "finite and > 0", value)
        _require_count("blr.evidence_iters", self.evidence_iters, 0)


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 100
    max_depth: int = 8
    min_leaf: int = 2
    feature_subset: int | None = None  # None -> ceil(sqrt(d))
    bootstrap: bool = True

    def __post_init__(self):
        _check_tree_sizes("dfr", self)
        fs = self.feature_subset
        require(fs is None or (is_count(fs) and fs >= 1), "dfr.feature_subset", "None or an integer >= 1", fs)
        require(isinstance(self.bootstrap, bool), "dfr.bootstrap", "true or false", self.bootstrap)


@dataclass(frozen=True)
class BoostConfig:
    trees: int = 200
    max_depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 2

    def __post_init__(self):
        _check_tree_sizes("bdtr", self)
        lr = self.learning_rate
        require(is_number(lr) and lr > 0, "bdtr.learning_rate", "finite and > 0", lr)


@dataclass(frozen=True)
class NeuralConfig:
    hidden_units: int = 16
    epochs: int = 2000
    step: float = 1e-2
    momentum: float = 0.9
    init_scale: float = 1.0

    def __post_init__(self):
        _require_count("nnr.hidden_units", self.hidden_units, 1, MAX_HIDDEN_UNITS)
        _require_count("nnr.epochs", self.epochs, 1)
        for name in ("step", "init_scale"):
            value = getattr(self, name)
            require(is_number(value) and value > 0, f"nnr.{name}", "finite and > 0", value)
        m = self.momentum
        require(is_number(m) and 0 <= m < 1, "nnr.momentum", "finite and in [0, 1)", m)


@dataclass(frozen=True)
class HyperParams:
    """One configuration block per model kind."""

    lr: LinearConfig = field(default_factory=LinearConfig)
    blr: BayesConfig = field(default_factory=BayesConfig)
    dfr: ForestConfig = field(default_factory=ForestConfig)
    bdtr: BoostConfig = field(default_factory=BoostConfig)
    nnr: NeuralConfig = field(default_factory=NeuralConfig)

    def for_kind(self, kind: ModelKind):
        return getattr(self, kind.value.lower())

    def with_overrides(self, overrides: dict[str, object]) -> "HyperParams":
        """Apply ``{"kind.field": value}`` overrides, rejecting unknown keys."""
        blocks = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        for key, value in overrides.items():
            block_name, _, field_name = key.partition(".")
            if block_name not in blocks or not field_name:
                raise KeyError(f"unknown hyperparameter key {key!r}")
            block = blocks[block_name]
            if field_name not in {f.name for f in dataclasses.fields(block)}:
                raise KeyError(f"unknown hyperparameter key {key!r}")
            blocks[block_name] = dataclasses.replace(block, **{field_name: value})
        return HyperParams(**blocks)
