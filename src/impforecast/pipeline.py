"""Per-channel model selection, the end-to-end study, and batch prediction.

For every channel the 10 candidates (5 model kinds x 2 feature groups)
are fit on the training part and scored by RMSE on the held-out part; the
argmin wins, with ties broken by the simpler kind, then the smaller
feature group. Channels that share a split share each candidate's
training matrix, so a candidate is fit for all of them in one
``fit_columns`` call. Every candidate fit gets its own seed derived from
the master seed, and a fit does not depend on which other channels share
the call.

A study spreads its independent fits over the CPUs of the process's
affinity mask (``_parallel_map``): the 10 candidate calls of the default
study, or the 12 channels of a nested one. Results are merged in the
fixed candidate and channel order, so the outputs have the same bytes on
any number of CPUs.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .bundle import ChannelModel, ModelBundle
from .checks import is_count, is_number, require
from .dataio import SplitSpec, split_cohort, validate_cohort
from .domain import (
    CHANNELS,
    Cohort,
    FeatureGroup,
    GROUP_ORDER,
    KIND_ORDER,
    ModelKind,
    check_channel,
    feature_matrix,
    group_index,
    kind_index,
    label_vector,
)
from .errors import AllCandidatesFailedError, CohortValidationError, FitError, TooSmallError
from .metrics import ErrorBands, error_bands, rmse
from .regressors import ESTIMATOR_CLASSES, HyperParams, make_regressor
# The report document lives in ``report``; its JSON functions stay importable from here.
from .report import SelectionEntry, StudyReport, histogram_of_kinds, report_from_json, report_to_json
from .seeding import derive_seed

# Canonical candidate order; also the tie-breaking order (simpler first).
CANDIDATES = tuple((kind, group) for kind in KIND_ORDER for group in GROUP_ORDER)

# The order in which a study's pool takes the candidate calls: the costliest
# kinds first, so that the workers finish at about the same time.
_SUBMIT_ORDER = (ModelKind.BDTR, ModelKind.NNR, ModelKind.DFR, ModelKind.BLR, ModelKind.LR)

# Salt distinguishing the inner selection split from candidate fits.
_INNER_SPLIT_SALT = 101


@dataclass(frozen=True)
class StudyConfig:
    seed: int = 42
    test_fraction: float = 0.30
    selection: str = "test"  # or "inner_validation"
    hyper: HyperParams = field(default_factory=HyperParams)

    def __post_init__(self):
        f, s = self.test_fraction, self.selection
        require(is_count(self.seed) and self.seed >= 0, "seed", "an integer >= 0", self.seed)
        require(is_number(f) and 0 < f < 1, "test_fraction", "finite and in (0, 1)", f)
        require(s in ("test", "inner_validation"), "selection", "'test' or 'inner_validation'", s)


@dataclass(frozen=True)
class CandidateResult:
    rmse: float
    bands: ErrorBands
    model: object


def candidate_seed(master_seed: int, channel: int, kind: ModelKind, group: FeatureGroup) -> int:
    return derive_seed(master_seed, channel, kind_index(kind), group_index(group))


def _fit_and_score(kind, hyper, seeds, X_train, Y_train, X_test, y_tests) -> list:
    """Fit ``kind`` on each column of ``Y_train`` (column j with ``seeds[j]``)
    in one ``fit_columns`` call and score column j on ``y_tests[j]``.

    Returns one CandidateResult or FitError per column; a model that
    predicts a non-finite value is recorded by the FitError of its score.
    """
    estimators = [make_regressor(kind, hyper, seed) for seed in seeds]
    fitted = ESTIMATOR_CLASSES[kind].fit_columns(estimators, X_train, Y_train)
    outcomes = []
    for model, y_test in zip(fitted, y_tests):
        if isinstance(model, FitError):
            outcomes.append(model)
            continue
        y_hat = model.predict(X_test)
        try:
            outcomes.append(CandidateResult(rmse(y_hat, y_test), error_bands(y_hat, y_test), model))
        except FitError as exc:
            outcomes.append(exc)
    return outcomes


def _parallel_map(fn, tasks) -> list:
    """``[fn(*t) for t in tasks]``, computed by a pool of forked worker
    processes when the affinity mask holds at least 2 CPUs and this process
    is not itself a worker; inline otherwise.

    ``fn`` must be a module-level function, and its arguments and results
    must pickle. Results come back in task order. An exception raised by
    ``fn``, or a worker that dies, is raised here.

    The workers are forked, not spawned: a spawned worker would import
    numpy and the estimators again, which costs more than most tasks. The
    process forks before the pool starts its own thread, so call this from
    the main thread of a process that runs no other threads.
    """
    import multiprocessing  # here, so that predict and report never load it

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(tasks))
    if workers < 2 or multiprocessing.parent_process() is not None:
        return [fn(*t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(fn, *t) for t in tasks]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def evaluate_grid(channels, train: Cohort, test: Cohort, config: StudyConfig,
                  candidates=CANDIDATES) -> dict[int, dict]:
    """Fit ``candidates`` for every channel in ``channels`` on the training
    cohort and score them on the test cohort.

    Each candidate is fit for all the channels in one call, each channel
    with its own ``candidate_seed``; the calls run in parallel
    (``_parallel_map``), costliest kind first (``_SUBMIT_ORDER``), and
    their results are merged back in ``candidates`` order. Returns
    ``{channel: {(kind, group): CandidateResult or the FitError of that
    fit}}``; fit errors are recorded, not raised.
    """
    channels = tuple(check_channel(c) for c in channels)
    Y_train = train.labels.take([c - 1 for c in channels], axis=1)  # C-contiguous copy
    y_tests = [label_vector(test, c) for c in channels]
    features = {
        group: (feature_matrix(train, group), feature_matrix(test, group))
        for group in GROUP_ORDER if any(g is group for _, g in candidates)
    }
    # sorted is stable: within a kind, the groups keep their candidate order
    submitted = sorted(candidates, key=lambda c: _SUBMIT_ORDER.index(c[0]))
    calls = [
        (kind, config.hyper, [candidate_seed(config.seed, c, kind, group) for c in channels],
         features[group][0], Y_train, features[group][1], y_tests)
        for kind, group in submitted
    ]
    outcomes = dict(zip(submitted, _parallel_map(_fit_and_score, calls)))
    return {
        channel: {key: outcomes[key][i] for key in candidates}
        for i, channel in enumerate(channels)
    }


def pick_winner(results: dict) -> tuple[ModelKind, FeatureGroup, CandidateResult]:
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


def _select_nested(channel, train, test, config) -> tuple:
    """Rank the candidates on an inner split of the training cohort, then
    refit the winner on the whole training cohort and score it on test."""
    inner_spec = SplitSpec(
        test_fraction=config.test_fraction,
        seed=derive_seed(config.seed, channel, _INNER_SPLIT_SALT),
    )
    inner_train, inner_val = split_cohort(train, inner_spec)
    kind, group, _ = pick_winner(evaluate_grid((channel,), inner_train, inner_val, config)[channel])
    final = evaluate_grid((channel,), train, test, config, ((kind, group),))[channel][(kind, group)]
    if isinstance(final, FitError):
        raise final
    return kind, group, final


def run_study(cohort: Cohort, config: StudyConfig = StudyConfig()) -> tuple[StudyReport, ModelBundle]:
    """One split, then per-channel selection over all 12 channels.

    Returns the selection report and the bundle of winning fitted models.
    Output is a pure function of (cohort, config).
    """
    if len(cohort) < 10:
        raise TooSmallError(f"study needs at least 10 records, got {len(cohort)}")
    report = validate_cohort(cohort)
    if not report.ok:
        raise CohortValidationError(report)
    train, test = split_cohort(cohort, SplitSpec(config.test_fraction, config.seed))

    if config.selection == "inner_validation":
        # one pool over the channels; each worker runs its grids inline
        winners = _parallel_map(_select_nested, [(c, train, test, config) for c in CHANNELS])
    else:
        grid = evaluate_grid(CHANNELS, train, test, config)
        winners = [pick_winner(grid[c]) for c in CHANNELS]

    entries = tuple(
        SelectionEntry(channel=c, kind=kind, group=group, rmse=o.rmse, bands=o.bands)
        for c, (kind, group, o) in zip(CHANNELS, winners)
    )
    models = ModelBundle(models=tuple(
        ChannelModel(channel=c, kind=kind, group=group, rmse=o.rmse, estimator=o.model)
        for c, (kind, group, o) in zip(CHANNELS, winners)
    )).check_complete()
    histogram = histogram_of_kinds(e.kind for e in entries)
    return StudyReport(entries=entries, histogram=histogram, config=asdict(config)), models


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


def predict_one(bundle: ModelBundle, patient: Cohort) -> list[ChannelPrediction]:
    """Per-channel one-month predictions for a one-patient cohort, e.g.
    ``cohort.take([i])``."""
    if len(patient) != 1:
        raise ValueError(f"predict_one needs a cohort of one patient, got {len(patient)}")
    values = predict_batch(bundle, patient)[0].tolist()
    return [
        ChannelPrediction(channel=c, value=v, rmse=bundle.model_for(c).rmse)
        for c, v in zip(CHANNELS, values)
    ]
