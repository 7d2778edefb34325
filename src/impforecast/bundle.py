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
from .textio import check_saves_back, check_version, dump_json, load_json, read_text, write_json

BUNDLE_FORMAT_VERSION = 1


def _check_standardizer(group: FeatureGroup, standardizer) -> None:
    """Raise IncompatibleBundleError unless ``standardizer`` is fitted on
    the group's features."""
    means = getattr(standardizer, "means_", None)
    if means is None:
        raise IncompatibleBundleError("the estimator is not fitted")
    if means.shape[0] != group.dimension:
        raise IncompatibleBundleError(
            f"group {group.value} has {group.dimension} features but the "
            f"standardizer has {means.shape[0]}"
        )


@dataclass(frozen=True)
class ChannelModel:
    """One channel's winning fitted regressor with its selection context.

    Built under its reader's rules: raises ValueError for a channel outside
    1..12 or an ``rmse`` that is not a finite number >= 0, and
    IncompatibleBundleError for an estimator that is not of ``kind`` or has
    no fitted standardizer of the group's width."""

    channel: int
    kind: ModelKind
    group: FeatureGroup
    rmse: float
    estimator: BaseRegressor

    def __post_init__(self):
        object.__setattr__(self, "channel", check_channel(self.channel))
        object.__setattr__(self, "rmse", loaded_rmse(self.rmse))
        held = type(self.estimator)
        if getattr(held, "kind", None) is not self.kind:
            raise IncompatibleBundleError(
                f"a {self.kind.value} model cannot hold a {held.__name__}"
            )
        _check_standardizer(self.group, getattr(self.estimator, "standardizer_", None))

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
        """Raises IncompatibleBundleError on a missing key that the entry is
        read from, a value of the wrong type, a non-finite number, an entry
        that breaks a rule of the constructor, or an entry that does not
        save back to itself (``textio.check_saves_back``)."""
        model = _read_model(d)
        check_saves_back(d, model.to_dict(), "model")
        return model


def _read_model(d: dict) -> ChannelModel:
    """``ChannelModel.from_dict`` but for the save-back rule, which
    ``bundle_from_json`` applies once to the whole document."""
    check_version(d, "model", BUNDLE_FORMAT_VERSION)
    try:
        kind, group = ModelKind(d["kind"]), FeatureGroup(d["group"])
        standardizer = Standardizer.from_dict(d["standardizer"])
        # before the params, which are read at the standardizer's width
        _check_standardizer(group, standardizer)
        estimator = ESTIMATOR_CLASSES[kind](seed=d["seed"], **d["hyper"])
        estimator.load_fitted_params(d["params"], standardizer)
        return ChannelModel(channel=d["channel"], kind=kind, group=group, rmse=d["rmse"],
                            estimator=estimator)
    except KeyError as exc:
        raise IncompatibleBundleError(f"model entry lacks key {exc}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise IncompatibleBundleError(f"malformed model entry: {exc}") from None


@dataclass(frozen=True)
class ModelBundle:
    """One model for each channel 1..12, stored in channel order; raises
    IncompatibleBundleError for a channel missing or named twice."""

    models: tuple[ChannelModel, ...]

    def __post_init__(self):
        channels = [m.channel for m in self.models]
        for rule, bad in (
            ("has more than one model for channel(s)", repeated(channels)),
            ("is missing channel(s)", [c for c in CHANNELS if c not in channels]),
        ):
            if bad:
                raise IncompatibleBundleError(f"bundle {rule}: " + ", ".join(map(str, bad)))
        object.__setattr__(self, "models", tuple(sorted(self.models, key=lambda m: m.channel)))


def _bundle_doc(bundle: ModelBundle) -> dict:
    return {
        "format_version": BUNDLE_FORMAT_VERSION,
        "models": [m.to_dict() for m in bundle.models],
    }


def bundle_to_json(bundle: ModelBundle) -> str:
    return dump_json(_bundle_doc(bundle))


def bundle_from_json(text: str | bytes) -> ModelBundle:
    """Raises IncompatibleBundleError unless ``text`` is a bundle (strict
    JSON, see ``textio.load_json``) with one model for each channel, in
    channel order, that saves back to itself (``textio.check_saves_back``)."""
    doc = load_json(text, "bundle", BUNDLE_FORMAT_VERSION)
    models = doc.get("models")
    if not isinstance(models, list):
        raise IncompatibleBundleError("bundle 'models' must be a list")
    loaded = []
    for i, entry in enumerate(models):
        try:
            loaded.append(_read_model(entry))
        except IncompatibleBundleError as exc:
            raise IncompatibleBundleError(f"models[{i}]: {exc}") from None
    bundle = ModelBundle(models=tuple(loaded))
    check_saves_back(doc, _bundle_doc(bundle), "bundle")
    return bundle


def save_bundle(bundle: ModelBundle, path) -> None:
    """Write ``bundle_to_json(bundle)`` to ``path`` as it is encoded. Raises
    DataInputError if ``path`` cannot be written and ValueError on a
    non-finite number, and then leaves no file at ``path``."""
    write_json(path, _bundle_doc(bundle))


def load_bundle(path) -> ModelBundle:
    """Raises DataInputError if ``path`` cannot be read or is not a bundle."""
    return bundle_from_json(read_text(path))
