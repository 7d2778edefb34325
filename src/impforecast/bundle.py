"""Persisted model bundles: the 12 winning per-channel regressors.

A bundle is one JSON document holding, per channel, the fitted estimator
(kind, hyperparameters, standardizer, parameter block, seed) plus the
held-out RMSE used as an uncertainty hint at prediction time. Numbers are
serialized with shortest round-trip precision, so save -> load -> predict
is bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .checks import is_count, loaded_rmse
from .domain import CHANNELS, FeatureGroup, ModelKind, check_channel
from .errors import IncompatibleBundleError
from .regressors import ESTIMATOR_CLASSES, BaseRegressor, Standardizer
from .textio import read_text, write_text

BUNDLE_FORMAT_VERSION = 1


def _current_format(doc) -> bool:
    """``doc`` is a JSON object whose ``format_version`` is the integer
    BUNDLE_FORMAT_VERSION: ``true`` and ``1.0`` are refused."""
    version = doc.get("format_version") if isinstance(doc, dict) else None
    return is_count(version) and version == BUNDLE_FORMAT_VERSION


@dataclass(frozen=True)
class ChannelModel:
    """One channel's winning fitted regressor with its selection context."""

    channel: int
    kind: ModelKind
    group: FeatureGroup
    rmse: float
    estimator: BaseRegressor

    def to_dict(self) -> dict:
        params = dict(self.estimator.get_params())
        seed = params.pop("seed", 0)
        return {
            "format_version": BUNDLE_FORMAT_VERSION,
            "channel": self.channel,
            "kind": self.kind.value,
            "group": self.group.value,
            "rmse": self.rmse,
            "seed": seed,
            "hyper": params,
            "standardizer": self.estimator.standardizer_.to_dict(),
            "params": self.estimator.fitted_params(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelModel":
        """Raises IncompatibleBundleError on a missing key, a value of the
        wrong type, a non-finite number, a channel outside 1..12, a negative
        ``rmse``, or a standardizer whose width is not the feature group's."""
        if not _current_format(d):
            raise IncompatibleBundleError(
                f"unsupported model format_version {d.get('format_version')!r}"
                if isinstance(d, dict)
                else "a model entry must be a JSON object"
            )
        try:
            channel = check_channel(d["channel"])
            kind = ModelKind(d["kind"])
            group = FeatureGroup(d["group"])
            standardizer = Standardizer.from_dict(d["standardizer"])
            if standardizer.means_.shape[0] != group.dimension:
                raise IncompatibleBundleError(
                    f"group {group.value} has {group.dimension} features but the "
                    f"standardizer has {standardizer.means_.shape[0]}"
                )
            estimator = ESTIMATOR_CLASSES[kind](seed=d.get("seed", 0), **d["hyper"])
            estimator.load_fitted_params(d["params"], standardizer)
            rmse = loaded_rmse(d["rmse"])
        except KeyError as exc:
            raise IncompatibleBundleError(f"model entry lacks key {exc}") from None
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise IncompatibleBundleError(f"malformed model entry: {exc}") from None
        return cls(channel=channel, kind=kind, group=group, rmse=rmse, estimator=estimator)


@dataclass(frozen=True)
class ModelBundle:
    """Complete per-channel model set (channels 1..12, ascending)."""

    models: tuple[ChannelModel, ...]

    def model_for(self, channel: int) -> ChannelModel:
        for m in self.models:
            if m.channel == channel:
                return m
        raise IncompatibleBundleError(f"bundle has no model for channel {channel}")

    def check_complete(self) -> "ModelBundle":
        have = {m.channel for m in self.models}
        missing = [c for c in CHANNELS if c not in have]
        if missing:
            raise IncompatibleBundleError(
                "bundle is missing channel(s): " + ", ".join(map(str, missing))
            )
        return self


def bundle_to_json(bundle: ModelBundle) -> str:
    doc = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "models": [m.to_dict() for m in sorted(bundle.models, key=lambda m: m.channel)],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def bundle_from_json(text: str | bytes) -> ModelBundle:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IncompatibleBundleError(f"not valid JSON: {exc}") from exc
    if not _current_format(doc):
        raise IncompatibleBundleError(
            f"unsupported bundle format_version {doc.get('format_version')!r}"
            if isinstance(doc, dict)
            else "bundle document must be a JSON object"
        )
    models = doc.get("models")
    if not isinstance(models, list):
        raise IncompatibleBundleError("bundle 'models' must be a list")
    loaded = []
    for i, entry in enumerate(models):
        try:
            loaded.append(ChannelModel.from_dict(entry))
        except IncompatibleBundleError as exc:
            raise IncompatibleBundleError(f"models[{i}]: {exc}") from None
    channels = [m.channel for m in loaded]
    repeated = sorted({c for c in channels if channels.count(c) > 1})
    if repeated:
        raise IncompatibleBundleError(
            "bundle has more than one model for channel(s): " + ", ".join(map(str, repeated))
        )
    return ModelBundle(models=tuple(loaded))


def save_bundle(bundle: ModelBundle, path) -> None:
    """Raises DataInputError if ``path`` cannot be written."""
    write_text(path, bundle_to_json(bundle))


def load_bundle(path) -> ModelBundle:
    """Raises DataInputError if ``path`` cannot be read or is not a bundle."""
    return bundle_from_json(read_text(path))
