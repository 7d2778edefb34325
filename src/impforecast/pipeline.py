"""Per-channel model selection, the end-to-end study, and batch prediction.

For every channel the 10 candidates (5 model kinds x 2 feature groups)
are fit on the training part and scored by RMSE on the held-out part; the
argmin wins, with ties broken by the simpler kind, then the smaller
feature group. Channels that share a split share each candidate's
training matrix, so a candidate is fit for all of them at once; the
networks of a whole grid round train in one ``fit_parts`` call, and
boosting fits one channel per call. Every candidate fit gets its own seed
derived from the master seed, and a fit does not depend on which other
fits share the call.

A study maps its candidate calls over the process's CPUs (``_parallel_map``)
and merges the results in candidate and channel order, so the outputs have
the same bytes on any number of CPUs. A nested study runs the same grid
twice: on the inner splits, then to refit the picks, one part per pick.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .bundle import ChannelModel, ModelBundle
from .checks import require
from .dataio import SplitSpec, split_cohort
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
from .errors import (
    AllCandidatesFailedError,
    FitError,
    NonFiniteOutputError,
    TooSmallError,
)
from .metrics import ErrorBands, error_bands, rmse
from .regressors import ESTIMATOR_CLASSES, HyperParams, make_regressor
# The report document lives in ``report``; its JSON functions stay importable from here.
from .report import SelectionEntry, StudyReport, histogram_of_kinds, report_from_json, report_to_json
from .seeding import derive_seed

# Canonical candidate order; also the tie-breaking order (simpler first).
CANDIDATES = tuple((kind, group) for kind in KIND_ORDER for group in GROUP_ORDER)

# The order in which a study's pool takes the candidate calls: the one network
# call first, as it is the longest, then the forest, then boosting's small
# one-channel calls, so that the workers finish at about the same time.
_SUBMIT_ORDER = (ModelKind.NNR, ModelKind.DFR, ModelKind.BDTR, ModelKind.BLR, ModelKind.LR)

# Salt distinguishing the inner selection split from candidate fits.
_INNER_SPLIT_SALT = 101


@dataclass(frozen=True)
class StudyConfig:
    seed: int = 42
    test_fraction: float = 0.30
    selection: str = "test"  # or "inner_validation"
    hyper: HyperParams = field(default_factory=HyperParams)

    def __post_init__(self):
        SplitSpec(self.test_fraction, self.seed)  # checks both
        s = self.selection
        require(s in ("test", "inner_validation"), "selection", "'test' or 'inner_validation'", s)


@dataclass(frozen=True)
class CandidateResult:
    rmse: float
    bands: ErrorBands
    model: object


def candidate_seed(master_seed: int, channel: int, kind: ModelKind, group: FeatureGroup) -> int:
    return derive_seed(master_seed, channel, kind_index(kind), group_index(group))


def _fit_and_score(kind, hyper, parts) -> list:
    """Fit ``kind`` on every ``(seeds, X_train, Y_train, X_test, y_tests)``
    part in one ``fit_parts`` call (column j of ``Y_train`` with
    ``seeds[j]``) and score column j on ``y_tests[j]``.

    Returns, per part, one CandidateResult or FitError per column; a
    non-finite outcome is recorded as a FitError, so numpy's overflow
    warnings (labels near the float limit) are off, as in ``predict_batch``.
    """
    with np.errstate(all="ignore"):
        fitted = ESTIMATOR_CLASSES[kind].fit_parts([
            ([make_regressor(kind, hyper, seed) for seed in seeds], X_train, Y_train)
            for seeds, X_train, Y_train, _, _ in parts
        ])
        return [[_score(model, X_test, y_test) for model, y_test in zip(models, y_tests)]
                for models, (_, _, _, X_test, y_tests) in zip(fitted, parts)]


def _score(model, X_test, y_test):
    """The CandidateResult of a fitted model on the test part, or its FitError."""
    if isinstance(model, FitError):
        return model
    y_hat = model.predict(X_test)
    try:
        return CandidateResult(rmse(y_hat, y_test), error_bands(y_hat, y_test), model)
    except FitError as exc:
        return exc


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

    A study run inside a ``multiprocessing.Pool`` worker runs inline: that
    worker is daemonic, and a daemonic process may not have children.
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


def _grid(problems, config: StudyConfig) -> dict[int, dict]:
    """Fit and score the candidates of ``(channels, train, test, candidates)``
    problems with disjoint channels, all on one ``_parallel_map``.

    A part is one problem's candidate for all its channels. The network
    parts of the whole round go in one call, which trains them as one
    block. Boosting shares nothing across columns, so it goes one channel
    per call. Every other part is a call of its own. The pool takes the
    calls in ``_SUBMIT_ORDER``. Returns ``{channel: {(kind, group):
    CandidateResult or the FitError of that fit}}`` in candidate order.
    """
    parts = []  # ((problem, kind, group), part)
    for p, (channels, train, test, candidates) in enumerate(problems):
        Y_train = train.labels.take([c - 1 for c in channels], axis=1)  # C-contiguous copy
        y_tests = [label_vector(test, c) for c in channels]
        features = {g: (feature_matrix(train, g), feature_matrix(test, g))
                    for g in dict.fromkeys(g for _, g in candidates)}
        for kind, group in candidates:
            seeds = [candidate_seed(config.seed, c, kind, group) for c in channels]
            X_train, X_test = features[group]
            parts.append(((p, kind, group), (seeds, X_train, Y_train, X_test, y_tests)))
    calls = []  # (kind, [(key, part)])
    for kind in _SUBMIT_ORDER:
        mine = [(key, part) for key, part in parts if key[1] is kind]
        if kind is ModelKind.NNR:
            calls.append((kind, mine))
        elif kind is ModelKind.BDTR:
            calls += [(kind, [(key, _column(part, j))])
                      for key, part in mine for j in range(len(part[0]))]
        else:
            calls += [(kind, [item]) for item in mine]
    calls = [(kind, items) for kind, items in calls if items]
    results = _parallel_map(_fit_and_score,
                            [(kind, config.hyper, [part for _, part in items]) for kind, items in calls])
    outcomes = {}  # a key's column outcomes, extended call by call in channel order
    for (_, items), result in zip(calls, results):
        for (key, _), part_outcomes in zip(items, result):
            outcomes.setdefault(key, []).extend(part_outcomes)
    return {
        c: {key: outcomes[(p, *key)][i] for key in candidates}
        for p, (channels, _, _, candidates) in enumerate(problems) for i, c in enumerate(channels)
    }


def _column(part, j):
    """Column j of a ``(seeds, X_train, Y_train, X_test, y_tests)`` part, as a part."""
    seeds, X_train, Y_train, X_test, y_tests = part
    return seeds[j:j + 1], X_train, Y_train[:, j:j + 1], X_test, y_tests[j:j + 1]


def evaluate_grid(channels, train: Cohort, test: Cohort, config: StudyConfig,
                  candidates=CANDIDATES) -> dict[int, dict]:
    """Fit ``candidates`` for every channel in ``channels`` on the training
    cohort and score them on the test cohort: ``_grid`` of one problem."""
    return _grid([(tuple(check_channel(c) for c in channels), train, test, candidates)], config)


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


def _split_for_fitting(cohort: Cohort, spec: SplitSpec, name: str) -> tuple:
    """``split_cohort``, refused with TooSmallError unless its training part
    holds the 2 rows a fit needs."""
    train, test = split_cohort(cohort, spec)
    if len(train) < 2:
        raise TooSmallError(f"{name} of {len(cohort)} records leaves {len(train)} for training;"
                            " a fit needs at least 2")
    return train, test


def run_study(cohort: Cohort, config: StudyConfig = StudyConfig()) -> tuple[StudyReport, ModelBundle]:
    """One split, then per-channel selection over all 12 channels.

    Returns the selection report and the bundle of winning fitted models.
    Output is a pure function of (cohort, config). The cohort's values are
    finite and > 0 by construction, so none is checked here; labels outside
    the published ranges are trained on as they are.
    """
    if len(cohort) < 10:
        raise TooSmallError(f"study needs at least 10 records, got {len(cohort)}")
    train, test = _split_for_fitting(cohort, SplitSpec(config.test_fraction, config.seed),
                                     "the train/test split")
    nested = config.selection == "inner_validation"
    if nested:  # each channel ranks the candidates on its own inner split of train
        inner = {c: SplitSpec(config.test_fraction, derive_seed(config.seed, c, _INNER_SPLIT_SALT))
                 for c in CHANNELS}
        ranking = [((c,), *_split_for_fitting(train, spec, f"channel {c}'s inner split"), CANDIDATES)
                   for c, spec in inner.items()]
    else:
        ranking = [(CHANNELS, train, test, CANDIDATES)]
    grid = _grid(ranking, config)
    winners = [pick_winner(grid[c]) for c in CHANNELS]

    if nested:  # refit each pick on train, in one call for all the channels that picked it
        picks = [(kind, group) for kind, group, _ in winners]
        refit = _grid([([c for c, p in zip(CHANNELS, picks) if p == key], train, test, (key,))
                       for key in dict.fromkeys(picks)], config)
        winners = [(*key, refit[c][key]) for c, key in zip(CHANNELS, picks)]
        for _, _, outcome in winners:
            if isinstance(outcome, FitError):
                raise outcome

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
    patients in the batch. Raises NonFiniteOutputError, naming the first
    such channel, if a prediction is NaN or infinite.
    """
    bundle.check_complete()
    features = {}
    out = np.empty((len(cohort), len(CHANNELS)), dtype=float)
    with np.errstate(all="ignore"):  # a non-finite output is raised below, not warned about
        for column, channel in enumerate(CHANNELS):
            m = bundle.model_for(channel)
            if m.group not in features:
                features[m.group] = feature_matrix(cohort, m.group)
            out[:, column] = m.estimator.predict(features[m.group])
            bad = len(cohort) - np.count_nonzero(np.isfinite(out[:, column]))
            if bad:
                raise NonFiniteOutputError(
                    channel,
                    f"the {m.kind.value} {m.group.value} model predicts NaN or infinity for "
                    f"{bad} of {len(cohort)} patients",
                )
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
