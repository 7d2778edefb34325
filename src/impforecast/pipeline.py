"""Per-channel model selection, the end-to-end study, and batch prediction.

For every channel the 10 candidates (5 model kinds x 2 feature groups)
are fit on the training part and scored by RMSE on the held-out part; the
argmin wins, with ties broken by the simpler kind, then the smaller
feature group. Every candidate fit gets its own seed derived from the
master seed, so serial and threaded runs produce identical bytes.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bundle import ChannelModel, ModelBundle
from .dataio import SplitSpec, split_cohort, validate_cohort
from .domain import (
    CHANNELS,
    Cohort,
    FeatureGroup,
    GROUP_ORDER,
    KIND_ORDER,
    ModelKind,
    PatientRecord,
    check_channel,
    feature_matrix,
    group_index,
    kind_index,
    label_vector,
)
from .errors import (
    AllCandidatesFailedError,
    CohortValidationError,
    FitError,
    IncompatibleBundleError,
    MetricError,
    TooSmallError,
)
from .metrics import ErrorBands, error_bands, rmse
from .regressors import HyperParams, make_regressor
from .seeding import derive_seed

REPORT_FORMAT_VERSION = 1

# Canonical candidate order; also the tie-breaking order (simpler first).
CANDIDATES = tuple((kind, group) for kind in KIND_ORDER for group in GROUP_ORDER)

# Salt distinguishing the inner selection split from candidate fits.
_INNER_SPLIT_SALT = 101


@dataclass(frozen=True)
class StudyConfig:
    seed: int = 42
    test_fraction: float = 0.30
    selection: str = "test"  # or "inner_validation"
    hyper: HyperParams = field(default_factory=HyperParams)
    n_threads: int = 1

    def echo(self) -> dict:
        """Reproducibility echo for reports (thread count excluded: it
        never affects results)."""
        return {
            "seed": self.seed,
            "test_fraction": self.test_fraction,
            "selection": self.selection,
            "hyper": self.hyper.to_dict(),
        }


@dataclass(frozen=True)
class CandidateResult:
    kind: ModelKind
    group: FeatureGroup
    rmse: float
    bands: ErrorBands
    model: object


@dataclass(frozen=True)
class SelectionEntry:
    """Per-channel winner, mirroring one selection-table row."""

    channel: int
    kind: ModelKind
    group: FeatureGroup
    rmse: float
    bands: ErrorBands


@dataclass(frozen=True)
class SelectionOutcome:
    entry: SelectionEntry
    model: ChannelModel
    candidates: tuple[CandidateResult, ...]


@dataclass(frozen=True)
class StudyReport:
    entries: tuple[SelectionEntry, ...]
    histogram: dict[str, int]
    config: dict


def candidate_seed(master_seed: int, channel: int, kind: ModelKind, group: FeatureGroup) -> int:
    return derive_seed(master_seed, channel, kind_index(kind), group_index(group))


def evaluate_candidate(
    kind: ModelKind,
    group: FeatureGroup,
    channel: int,
    train: Cohort,
    test: Cohort,
    hyper: HyperParams,
    seed: int,
) -> CandidateResult:
    """Fit one candidate on the training cohort, score it on the test cohort."""
    channel = check_channel(channel)
    X_train = feature_matrix(train, group)
    y_train = label_vector(train, channel)
    X_test = feature_matrix(test, group)
    y_test = label_vector(test, channel)
    model = make_regressor(kind, hyper, seed).fit(X_train, y_train)
    y_hat = model.predict(X_test)
    return CandidateResult(
        kind=kind,
        group=group,
        rmse=rmse(y_hat, y_test),
        bands=error_bands(y_hat, y_test),
        model=model,
    )


def histogram_of_kinds(kinds) -> dict[str, int]:
    """Tally winning kinds; all five kinds appear, zero counts included."""
    counts = {kind.value: 0 for kind in KIND_ORDER}
    for kind in kinds:
        counts[kind.value] += 1
    return counts


def _pick_winner(results: dict) -> tuple[ModelKind, FeatureGroup, CandidateResult]:
    """Argmin by RMSE over CANDIDATES order (strict improvement only, so
    the earlier = simpler candidate survives exact ties)."""
    best = None
    for key in CANDIDATES:
        outcome = results.get(key)
        if outcome is None or isinstance(outcome, Exception):
            continue
        if best is None or outcome.rmse < best[2].rmse:
            best = (key[0], key[1], outcome)
    if best is None:
        failures = "; ".join(
            f"{k.value}/{g.value}: {results[(k, g)]}" for k, g in CANDIDATES if (k, g) in results
        )
        raise AllCandidatesFailedError(f"every candidate failed: {failures}")
    return best


def _evaluate_grid(channel, train, test, config, executor=None) -> dict:
    """All 10 candidates for one channel; fit errors are recorded, not raised."""

    def job(kind, group):
        seed = candidate_seed(config.seed, channel, kind, group)
        try:
            return evaluate_candidate(kind, group, channel, train, test, config.hyper, seed)
        except FitError as exc:
            return exc

    if executor is None:
        return {(k, g): job(k, g) for k, g in CANDIDATES}
    futures = {(k, g): executor.submit(job, k, g) for k, g in CANDIDATES}
    return {key: fut.result() for key, fut in futures.items()}


def _select_channel(channel, train, test, config, executor=None) -> SelectionOutcome:
    if config.selection == "inner_validation":
        inner_spec = SplitSpec(
            test_fraction=config.test_fraction,
            seed=derive_seed(config.seed, channel, _INNER_SPLIT_SALT),
        )
        inner_train, inner_val = split_cohort(train, inner_spec)
        inner_results = _evaluate_grid(channel, inner_train, inner_val, config, executor)
        kind, group, _ = _pick_winner(inner_results)
        final = evaluate_candidate(
            kind, group, channel, train, test, config.hyper,
            candidate_seed(config.seed, channel, kind, group),
        )
        results = dict(inner_results)
        results[(kind, group)] = final
        winner = (kind, group, final)
    else:
        results = _evaluate_grid(channel, train, test, config, executor)
        winner = _pick_winner(results)

    kind, group, outcome = winner
    entry = SelectionEntry(
        channel=channel, kind=kind, group=group, rmse=outcome.rmse, bands=outcome.bands
    )
    model = ChannelModel(
        channel=channel, kind=kind, group=group, rmse=outcome.rmse, estimator=outcome.model
    )
    candidates = tuple(
        results[key] for key in CANDIDATES
        if key in results and not isinstance(results[key], Exception)
    )
    return SelectionOutcome(entry=entry, model=model, candidates=candidates)


def select_best(channel: int, train: Cohort, test: Cohort, config: StudyConfig) -> SelectionOutcome:
    """Evaluate the full candidate grid for one channel and pick the winner."""
    return _select_channel(check_channel(channel), train, test, config)


def run_study(cohort: Cohort, config: StudyConfig = StudyConfig()) -> tuple[StudyReport, ModelBundle]:
    """One split, then per-channel selection over all 12 channels.

    Returns the selection report and the bundle of winning fitted models.
    Output is a pure function of (cohort, config minus n_threads).
    """
    if len(cohort) < 10:
        raise TooSmallError(f"study needs at least 10 records, got {len(cohort)}")
    report = validate_cohort(cohort)
    if not report.ok:
        raise CohortValidationError(report)
    train, test = split_cohort(cohort, SplitSpec(config.test_fraction, config.seed))

    if config.n_threads > 1:
        with ThreadPoolExecutor(max_workers=config.n_threads) as executor:
            outcomes = [_select_channel(c, train, test, config, executor) for c in CHANNELS]
    else:
        outcomes = [_select_channel(c, train, test, config) for c in CHANNELS]

    entries = tuple(o.entry for o in outcomes)
    histogram = histogram_of_kinds(e.kind for e in entries)
    study = StudyReport(entries=entries, histogram=histogram, config=config.echo())
    models = ModelBundle(models=tuple(o.model for o in outcomes)).check_complete()
    return study, models


# --- prediction on new patients -------------------------------------------------


@dataclass(frozen=True)
class ChannelPrediction:
    channel: int
    value: float
    rmse: float

    @property
    def rmse_hint(self) -> str:
        return f"RMSE {self.rmse:.2f} kΩ"


def predict_batch(bundle: ModelBundle, cohort: Cohort) -> np.ndarray:
    """One-month predictions for every patient of ``cohort``: an (n, 12)
    array, columns in channel order.

    Each feature group's matrix is built once and each channel's estimator
    predicts the whole batch in one call. Every estimator computes a row
    on its own, so a patient's prediction does not depend on the other
    patients in the batch.
    """
    bundle.check_complete()
    features = {}
    out = np.empty((len(cohort), len(CHANNELS)), dtype=float)
    for column, channel in enumerate(CHANNELS):
        m = bundle.model_for(channel)
        if m.group not in features:
            features[m.group] = feature_matrix(cohort, m.group)
        out[:, column] = m.estimator.predict(features[m.group])
    return out


def predict_one(bundle: ModelBundle, record: PatientRecord) -> list[ChannelPrediction]:
    """Per-channel one-month predictions for a single patient record."""
    values = predict_batch(bundle, Cohort(records=(record,)))[0].tolist()
    return [
        ChannelPrediction(channel=c, value=v, rmse=bundle.model_for(c).rmse)
        for c, v in zip(CHANNELS, values)
    ]


# --- report (de)serialization ----------------------------------------------------


def report_to_json(report: StudyReport) -> str:
    doc = {
        "format_version": REPORT_FORMAT_VERSION,
        "config": report.config,
        "entries": [
            {
                "channel": e.channel,
                "kind": e.kind.value,
                "group": e.group.value,
                "rmse": e.rmse,
                "bands": e.bands.to_dict(),
            }
            for e in sorted(report.entries, key=lambda e: e.channel)
        ],
        "histogram": report.histogram,
    }
    return json.dumps(doc, indent=2) + "\n"


def report_from_json(text: str | bytes) -> StudyReport:
    """Raises IncompatibleBundleError unless ``text`` is a JSON report of
    the current format with well-formed ``entries``, ``histogram`` and
    ``config``."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IncompatibleBundleError(f"report is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise IncompatibleBundleError("report document must be a JSON object")
    if doc.get("format_version") != REPORT_FORMAT_VERSION:
        raise IncompatibleBundleError(
            f"unsupported report format_version {doc.get('format_version')!r}"
        )
    try:
        entries = tuple(
            SelectionEntry(
                channel=int(e["channel"]),
                kind=ModelKind(e["kind"]),
                group=FeatureGroup(e["group"]),
                rmse=float(e["rmse"]),
                bands=ErrorBands.from_dict(e["bands"]),
            )
            for e in doc["entries"]
        )
        histogram, config = dict(doc["histogram"]), dict(doc["config"])
    except KeyError as exc:
        raise IncompatibleBundleError(f"report lacks key {exc}") from None
    except (TypeError, ValueError, AttributeError, OverflowError, MetricError) as exc:
        raise IncompatibleBundleError(f"malformed report: {exc}") from None
    return StudyReport(entries=entries, histogram=histogram, config=config)
