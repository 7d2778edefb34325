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

A grid round fits its linear candidates (LR and BLR) in the calling
process first, then maps the other candidate calls over the process's CPUs
(``_parallel_map``, forked workers that inherit the calls, with no
executor). A call returns one ``Candidate`` per fit, tagged with
its channel, kind and group, and the grid files each under those tags, so
the outputs have the same bytes on any number of CPUs. That record is the
one result from fit to winner: ``pick_winner`` and ``run_study`` read it
as it is. In a study, a channel's least linear RMSE bounds its other
candidates: a record that does not score below it cannot win, so it comes
back from its worker without its model. A nested study runs the same grid
twice: on the inner splits, then to refit the picks, one part per pick.
"""

from __future__ import annotations

import os
import pickle
import sys
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
)
from .errors import (
    AllCandidatesFailedError,
    FitError,
    ImpforecastError,
    NonFiniteOutputError,
    TooSmallError,
)
from .metrics import ErrorBands, error_bands, rmse
from .regressors import ESTIMATOR_CLASSES, HyperParams, make_regressor
# The report document lives in ``report``; these names stay importable from here.
from .report import SelectionEntry, StudyReport, histogram_of_kinds, report_from_json, report_to_json
from .seeding import derive_seed

# Canonical candidate order; also the tie-breaking order (simpler first).
CANDIDATES = tuple((kind, group) for kind in KIND_ORDER for group in GROUP_ORDER)

# The kinds a grid round fits in the calling process, before its pool: they
# are the cheapest, and their scores bound what the other kinds must beat.
_LINEAR = (ModelKind.LR, ModelKind.BLR)

# The order in which a study's pool takes the other candidate calls: the one
# network call first, as it is the longest, then the forest, then boosting's
# small one-channel calls, so that the workers finish at about the same time.
_SUBMIT_ORDER = (ModelKind.NNR, ModelKind.DFR, ModelKind.BDTR)

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
class Candidate:
    """One candidate of one channel: its RMSE, error bands and fitted model
    on the test part, or ``error``, the FitError that ended it, with None in
    those three fields. ``model`` is also None when the RMSE is not below
    its channel's bound, as a candidate that cannot win is not kept."""

    channel: int
    kind: ModelKind
    group: FeatureGroup
    rmse: float | None = None
    bands: ErrorBands | None = None
    model: object = None
    error: FitError | None = None


def candidate_seed(master_seed: int, channel: int, kind: ModelKind, group: FeatureGroup) -> int:
    return derive_seed(master_seed, channel, kind_index(kind), group_index(group))


def _fit_and_score(kind, config, parts, bounds) -> list:
    """Fit ``kind`` on every ``(group, channels, X_train, Y_train, X_test,
    Y_test)`` part in one ``fit_parts`` call, column j of ``Y_train`` with
    the candidate seed of ``channels[j]``, and score it on column j of
    ``Y_test``.

    Returns the Candidate of every column, part by part, without its model
    where ``bounds`` has an RMSE for the channel that the candidate's does
    not beat. A non-finite outcome is recorded as a FitError, so numpy's
    overflow warnings (labels near the float limit) are off, as in
    ``predict_batch``.
    """
    with np.errstate(all="ignore"):
        fitted = ESTIMATOR_CLASSES[kind].fit_parts([
            ([make_regressor(kind, config.hyper, candidate_seed(config.seed, c, kind, group))
              for c in channels], X_train, Y_train)
            for group, channels, X_train, Y_train, _, _ in parts
        ])
        return [_score(c, kind, group, model, X_test, y_test, bounds.get(c))
                for models, (group, channels, _, _, X_test, Y_test) in zip(fitted, parts)
                for c, model, y_test in zip(channels, models, Y_test.T)]


def _score(channel, kind, group, model, X_test, y_test, bound) -> Candidate:
    """The Candidate of a ``fit_parts`` outcome, a fitted model or its
    FitError, scored on the test part; it keeps the model unless ``bound``
    is an RMSE that its own does not beat."""
    if isinstance(model, FitError):
        return Candidate(channel, kind, group, error=model)
    y_hat = model.predict(X_test)
    try:
        score = rmse(y_hat, y_test)
        return Candidate(channel, kind, group, score, error_bands(y_hat, y_test),
                         model if bound is None or score < bound else None)
    except FitError as exc:
        return Candidate(channel, kind, group, error=exc)


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker: the cause
    of the same exception raised again in the parent."""


# Bytes of one task index in the pipe the workers take their tasks from. The
# parent writes every index before it forks, so the pipe must hold them all:
# a grid round has at most 49 tasks, and a pipe holds at least PIPE_BUF
# (4,096) bytes.
_INDEX_BYTES = 4


def _parallel_map(fn, tasks) -> list:
    """``[fn(*t) for t in tasks]``, computed by forked worker processes when
    the affinity mask holds at least 2 CPUs; inline on one CPU or in a
    ``multiprocessing`` child (a ``Pool`` worker is daemonic and may not
    have children).

    The parent writes the task indices into one pipe, then forks one worker
    per CPU, up to one per task. A worker inherits ``fn`` and ``tasks``, so
    no task is pickled; it takes indices from the pipe until it is empty and
    sends back its ``(index, result)`` pairs, pickled, on a pipe of its own,
    so the results must pickle. The parent reads each worker's pipe to its
    end, in fork order, which cannot deadlock: a worker writes one message,
    after its last task, and needs nothing from the parent once forked; the
    index pipe is filled and closed before the first fork; and the parent
    closes a worker's write end before it forks the next, so the end of
    pipe i waits on worker i alone. A worker whose pipe is full waits with
    its tasks done. Results come back in task order.
    An exception raised by ``fn`` is raised here, with the worker's traceback
    as its cause; a worker that exits without sending its results raises
    ImpforecastError naming its exit status. The workers are forked, not
    spawned: a spawned worker would import numpy and the estimators again,
    which costs more than most tasks.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(tasks))
    mp = sys.modules.get("multiprocessing")  # loaded only if the caller uses it
    if workers < 2 or (mp is not None and mp.parent_process() is not None):
        return [fn(*t) for t in tasks]
    import signal  # here, so that predict never loads it

    todo, queue = os.pipe()
    os.write(queue, b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in range(len(tasks))))
    os.close(queue)
    sys.stdout.flush()
    sys.stderr.flush()
    sent, status = {}, []  # worker pid: the read end of its pipe; their exit statuses
    try:
        for _ in range(workers):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(out)
                os.close(into)
                raise
            if pid == 0:
                _work(fn, tasks, todo, out, into)  # never returns
            os.close(into)  # before the next fork, so that no later worker holds it
            sent[pid] = open(out, "rb")
        # in fork order: the end of each pipe waits on its own worker alone
        messages = [reader.read() for reader in sent.values()]
    except BaseException:
        for pid in sent:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(todo)
        for pid, reader in sent.items():
            reader.close()
            status.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    results = [None] * len(tasks)
    for code, message in zip(status, messages):
        if code or not message:
            ended = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ImpforecastError(f"a study worker {ended} before it sent its results")
        pairs, exc, trace = pickle.loads(message)
        if exc is not None:
            raise exc from _WorkerTraceback(trace)
        for i, result in pairs:
            results[i] = result
    return results


def _work(fn, tasks, todo: int, out: int, into: int) -> None:
    """A forked worker of ``_parallel_map``: ``fn`` of the tasks whose indices
    it takes from ``todo``, and then one message on ``into``, the pickled
    ``(pairs, None, None)``, or ``([], exception, traceback)`` for an
    exception in ``fn``. It ends with ``os._exit``, so the parent's exit
    handlers do not run here, and exits 0 only once the message is sent."""
    code = 1
    try:
        os.close(out)
        pairs = []
        try:
            while index := os.read(todo, _INDEX_BYTES):
                i = int.from_bytes(index, "little")
                pairs.append((i, fn(*tasks[i])))
            message = pickle.dumps((pairs, None, None))
        except Exception as exc:
            import traceback

            message = pickle.dumps(([], exc, traceback.format_exc()))
        with open(into, "wb") as fh:
            fh.write(message)
        code = 0
    finally:
        os._exit(code)


def _grid(problems, config: StudyConfig, *, prune: bool) -> dict[int, dict]:
    """Fit and score the candidates of ``(channels, train, test, candidates)``
    problems with disjoint channels.

    A part is one problem's candidate for its channels, with their label
    columns; boosting shares nothing across columns, so it gets one part
    per channel. The linear parts are fit here, one call each, before the
    other calls go to one ``_parallel_map``: the network parts of the whole
    round in one call, which trains them as one block, and every other part
    in a call of its own, taken in ``_SUBMIT_ORDER``. With ``prune``, a
    channel's least linear RMSE bounds its pooled candidates, and a pooled
    record that does not beat it comes back without its model: ``min`` in
    ``pick_winner`` keeps the first of equal scores, and the linear kinds
    come first, so such a record cannot win. Every Candidate comes back
    tagged with its channel, kind and group, and is filed under them:
    returns ``{channel: {(kind, group): Candidate}}`` in candidate order.
    """
    parts = {kind: [] for kind in ModelKind}
    for channels, train, test, candidates in problems:
        columns = [c - 1 for c in channels]
        Y_train, Y_test = (cohort.labels.take(columns, axis=1) for cohort in (train, test))
        features = {g: (feature_matrix(train, g), feature_matrix(test, g))
                    for g in dict.fromkeys(g for _, g in candidates)}
        for kind, group in candidates:
            X_train, X_test = features[group]
            if kind is ModelKind.BDTR:
                parts[kind] += [(group, (c,), X_train, Y_train[:, [j]], X_test, Y_test[:, [j]])
                                for j, c in enumerate(channels)]
            else:
                parts[kind].append((group, channels, X_train, Y_train, X_test, Y_test))
    linear = [r for kind in _LINEAR for part in parts[kind]
              for r in _fit_and_score(kind, config, [part], {})]
    bounds = {}  # channel: its least linear RMSE
    if prune:
        for r in linear:
            if r.error is None:
                bounds[r.channel] = min(r.rmse, bounds.get(r.channel, r.rmse))
    tasks = []
    for kind in _SUBMIT_ORDER:
        if kind is not ModelKind.NNR:
            tasks += [(kind, config, [part], bounds) for part in parts[kind]]
        elif parts[kind]:
            tasks.append((kind, config, parts[kind], bounds))
    filed = {(r.channel, r.kind, r.group): r
             for records in [linear, *_parallel_map(_fit_and_score, tasks)] for r in records}
    return {c: {key: filed[(c, *key)] for key in candidates}
            for channels, _, _, candidates in problems for c in channels}


def evaluate_grid(channels, train: Cohort, test: Cohort, config: StudyConfig,
                  candidates=CANDIDATES) -> dict[int, dict]:
    """Fit ``candidates`` for every channel in ``channels`` on the training
    cohort and score them on the test cohort: ``_grid`` of one problem,
    every record with its fitted model."""
    return _grid([(tuple(check_channel(c) for c in channels), train, test, candidates)], config,
                 prune=False)


def pick_winner(results: dict) -> Candidate:
    """The scored Candidate of least RMSE. ``min`` keeps the first of equal
    scores in CANDIDATES order, so the simpler kind, then the smaller
    feature group, survives an exact tie."""
    records = [results[key] for key in CANDIDATES if key in results]
    scored = [r for r in records if r.error is None]
    if not scored:
        failures = "; ".join(f"{r.kind.value}/{r.group.value}: {r.error}" for r in records)
        channel = records[0].channel
        raise AllCandidatesFailedError(f"channel {channel}: every candidate failed: {failures}")
    return min(scored, key=lambda r: r.rmse)


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
    the published ranges are trained on as they are. Raises
    AllCandidatesFailedError for a channel whose every candidate fails, or,
    in a nested study, whose pick fails its refit.

    Both grid rounds prune: only a record that can still win keeps its
    model. A refit round whose picks are all linear opens no pool.
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
    grid = _grid(ranking, config, prune=True)
    winners = [pick_winner(grid[c]) for c in CHANNELS]

    if nested:  # refit each pick on train, in one call for all the channels that picked it
        picks = [(w.kind, w.group) for w in winners]
        refit = _grid([([c for c, p in zip(CHANNELS, picks) if p == key], train, test, (key,))
                       for key in dict.fromkeys(picks)], config, prune=True)
        winners = [pick_winner(refit[c]) for c in CHANNELS]  # raises if a refit failed

    entries = tuple(SelectionEntry(w.channel, w.kind, w.group, w.rmse, w.bands) for w in winners)
    models = ModelBundle(tuple(ChannelModel(w.channel, w.kind, w.group, w.rmse, w.model)
                               for w in winners))
    return StudyReport(entries=entries, config=asdict(config)), models


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
    features = {}
    out = np.empty((len(cohort), len(CHANNELS)), dtype=float)
    with np.errstate(all="ignore"):  # a non-finite output is raised below, not warned about
        for column, m in enumerate(bundle.models):
            if m.group not in features:
                features[m.group] = feature_matrix(cohort, m.group)
            out[:, column] = m.estimator.predict(features[m.group])
            bad = len(cohort) - np.count_nonzero(np.isfinite(out[:, column]))
            if bad:
                raise NonFiniteOutputError(
                    m.channel,
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
        ChannelPrediction(channel=m.channel, value=v, rmse=m.rmse)
        for m, v in zip(bundle.models, values)
    ]
