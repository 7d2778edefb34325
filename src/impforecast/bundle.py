"""Persisted model bundles: the 12 winning per-channel regressors.

A bundle is one JSON document holding, per channel, the fitted estimator
(kind, hyperparameters, standardizer, parameter block, seed) plus the
held-out RMSE used as an uncertainty hint at prediction time. Numbers are
serialized with shortest round-trip precision, so save -> load -> predict
is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import loaded_rmse, repeated
from .domain import CHANNELS, FeatureGroup, ModelKind, check_channel
from .errors import IncompatibleBundleError
from .regressors import ESTIMATOR_CLASSES, BaseRegressor, Standardizer
from .textio import check_version, dump_json, load_json, read_text, write_text

BUNDLE_FORMAT_VERSION = 1


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
        seed = params.pop("seed")
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
        check_version(d, "model", BUNDLE_FORMAT_VERSION)
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
            estimator = ESTIMATOR_CLASSES[kind](seed=d["seed"], **d["hyper"])
            estimator.load_fitted_params(d["params"], standardizer)
            rmse = loaded_rmse(d["rmse"])
        except KeyError as exc:
            raise IncompatibleBundleError(f"model entry lacks key {exc}") from None
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise IncompatibleBundleError(f"malformed model entry: {exc}") from None
        return cls(channel=channel, kind=kind, group=group, rmse=rmse, estimator=estimator)


@dataclass(frozen=True)
class ModelBundle:
    """One model for each channel 1..12, stored in channel order; raises
    IncompatibleBundleError for a channel missing, named twice or outside."""

    models: tuple[ChannelModel, ...]

    def __post_init__(self):
        channels = [m.channel for m in self.models]
        outside = [c for c in channels if c not in CHANNELS]
        for rule, bad in (
            ("has a model for channel(s) outside 1..12", outside),
            ("has more than one model for channel(s)", repeated(channels)),
            ("is missing channel(s)", [c for c in CHANNELS if c not in channels]),
        ):
            if bad:
                raise IncompatibleBundleError(f"bundle {rule}: " + ", ".join(map(str, bad)))
        object.__setattr__(self, "models", tuple(sorted(self.models, key=lambda m: m.channel)))


def bundle_to_json(bundle: ModelBundle) -> str:
    doc = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "models": [m.to_dict() for m in bundle.models],
    }
    return dump_json(doc)


def bundle_from_json(text: str | bytes) -> ModelBundle:
    """Raises IncompatibleBundleError unless ``text`` is a bundle (strict
    JSON, see ``textio.load_json``) with one model for each channel."""
    doc = load_json(text, "bundle", BUNDLE_FORMAT_VERSION)
    models = doc.get("models")
    if not isinstance(models, list):
        raise IncompatibleBundleError("bundle 'models' must be a list")
    loaded = []
    for i, entry in enumerate(models):
        try:
            loaded.append(ChannelModel.from_dict(entry))
        except IncompatibleBundleError as exc:
            raise IncompatibleBundleError(f"models[{i}]: {exc}") from None
    return ModelBundle(models=tuple(loaded))


def save_bundle(bundle: ModelBundle, path) -> None:
    """Raises DataInputError if ``path`` cannot be written."""
    write_text(path, bundle_to_json(bundle))


def load_bundle(path) -> ModelBundle:
    """Raises DataInputError if ``path`` cannot be read or is not a bundle."""
    return bundle_from_json(read_text(path))
