import dataclasses
import errno
import os
import signal
import time

import numpy as np
import pytest

from impforecast.bundle import ModelBundle, bundle_to_json
from impforecast.dataio import SplitSpec, generate_synthetic_cohort, split_cohort
from impforecast.domain import CHANNELS, FeatureGroup, ModelKind, feature_matrix, label_vector
from impforecast.cli import run_cli
from impforecast.errors import (
    ImpforecastError,
    IncompatibleBundleError,
    NonFiniteLossError,
    NonFinitePredictionError,
    TooSmallError,
)
from impforecast.metrics import rmse
from impforecast import pipeline
from impforecast.pipeline import (
    CANDIDATES,
    StudyConfig,
    candidate_seed,
    evaluate_grid,
    pick_winner,
    predict_one,
    report_from_json,
    report_to_json,
    run_study,
)
from impforecast.regressors import (
    BoostedTreesRegressor,
    HyperParams,
    LinearRegressor,
    NeuralNetRegressor,
    make_regressor,
)
from impforecast.report import histogram_of_kinds

# trimmed ensembles/epochs: pipeline behavior is identical, tests run fast
FAST = HyperParams().with_overrides(
    {"dfr.trees": 15, "bdtr.trees": 30, "nnr.epochs": 150}
)
FAST_CONFIG = StudyConfig(hyper=FAST)
# linear kinds held near the mean, so that trees and networks win channels
HANDICAPPED_LINEAR_CONFIG = StudyConfig(
    hyper=FAST.with_overrides({"lr.ridge": 1e6, "blr.alpha": 1e6, "blr.evidence_iters": 0})
)

# reference per-channel winners this pipeline's tables mirror
REFERENCE_WINNERS = [
    ModelKind.BLR, ModelKind.DFR, ModelKind.LR, ModelKind.BLR,
    ModelKind.BLR, ModelKind.BLR, ModelKind.BLR, ModelKind.BLR,
    ModelKind.BLR, ModelKind.NNR, ModelKind.NNR, ModelKind.BDTR,
]


@pytest.fixture(scope="module")
def small_cohort():
    return generate_synthetic_cohort(40, 21)


@pytest.fixture(scope="module")
def small_split(small_cohort):
    return split_cohort(small_cohort, SplitSpec(0.30, FAST_CONFIG.seed))


@pytest.fixture(scope="module")
def small_study(small_cohort):
    return run_study(small_cohort, FAST_CONFIG)


def one_candidate(kind, group, channel, train, test):
    """``evaluate_grid`` for one channel and one candidate."""
    outcome = evaluate_grid((channel,), train, test, FAST_CONFIG, ((kind, group),))
    assert list(outcome) == [channel] and list(outcome[channel]) == [(kind, group)]
    assert outcome[channel][(kind, group)].error is None
    return outcome[channel][(kind, group)]


class TestEvaluateCandidate:
    """One candidate for one channel, fit and scored through ``evaluate_grid``."""

    def test_contract_shape(self, small_split):
        train, test = small_split
        res = one_candidate(ModelKind.LR, FeatureGroup.G2, 3, train, test)
        assert res.rmse >= 0.0
        assert res.bands.n_test == len(test)

    def test_deterministic(self, small_split):
        train, test = small_split
        a = one_candidate(ModelKind.DFR, FeatureGroup.G2, 5, train, test)
        b = one_candidate(ModelKind.DFR, FeatureGroup.G2, 5, train, test)
        assert (a.rmse, a.bands) == (b.rmse, b.bands)

    def test_linear_truth_within_noise_budget(self, linear_cohort_factory):
        # generator noise 0.1 bounds the achievable error; a linear model
        # on group 2 must land within 1.5x of it
        cohort = linear_cohort_factory(80, 11, sigma=0.1)
        train, test = split_cohort(cohort, SplitSpec(0.30, 11))
        for channel in CHANNELS:
            res = one_candidate(ModelKind.LR, FeatureGroup.G2, channel, train, test)
            assert res.rmse <= 0.15


class TestSelectBest:
    """Winner selection over the grid that ``evaluate_grid`` fits for every
    channel at once."""

    def test_argmin_over_grid(self, small_split):
        train, test = small_split
        results = evaluate_grid(CHANNELS, train, test, FAST_CONFIG)[4]
        winner = pick_winner(results)
        assert len(results) == 10
        for cand in results.values():
            assert winner.rmse <= cand.rmse

    def test_winner_matches_direct_evaluation(self, small_split):
        train, test = small_split
        winner = pick_winner(evaluate_grid(CHANNELS, train, test, FAST_CONFIG)[7])
        kind, group = winner.kind, winner.group
        lone = make_regressor(kind, FAST, candidate_seed(FAST_CONFIG.seed, 7, kind, group)).fit(
            feature_matrix(train, group), label_vector(train, 7)
        )
        y_hat = lone.predict(feature_matrix(test, group))
        assert rmse(y_hat, label_vector(test, 7)) == winner.rmse
        assert lone.fitted_params() == winner.model.fitted_params()

    def test_tie_breaks_prefer_simpler_kind_then_smaller_group(self, monkeypatch, small_split):
        import impforecast.pipeline as pipeline

        train, test = small_split
        monkeypatch.setattr(pipeline, "rmse", lambda y_hat, y: 0.5)  # exact 10-way tie
        winner = pick_winner(evaluate_grid((1,), train, test, FAST_CONFIG)[1])
        assert winner.kind is ModelKind.LR
        assert winner.group is FeatureGroup.G1

    def test_non_finite_predictions_are_a_recorded_failure(self, monkeypatch, small_split):
        train, test = small_split
        monkeypatch.setattr(LinearRegressor, "predict", lambda self, X: np.full(X.shape[0], np.nan))
        grid = evaluate_grid(CHANNELS, train, test, FAST_CONFIG)
        for channel in CHANNELS:
            results = grid[channel]
            for group in FeatureGroup:
                assert isinstance(results[(ModelKind.LR, group)].error, NonFinitePredictionError)
            winner = pick_winner(results)
            assert winner.kind is not ModelKind.LR
            scored = [r.rmse for r in results.values() if r.error is None]
            assert len(scored) == 8 and winner.rmse == min(scored)

    def test_linear_generator_favors_linear_family(self, linear_cohort_factory):
        cohort = linear_cohort_factory(80, 4, sigma=0.1)
        train, test = split_cohort(cohort, SplitSpec(0.30, 42))
        grid = evaluate_grid(CHANNELS, train, test, FAST_CONFIG)
        wins = 0
        for channel in CHANNELS:
            wins += pick_winner(grid[channel]).kind in (ModelKind.LR, ModelKind.BLR)
        assert wins >= 10


class TestHistogram:
    def test_reference_tally(self):
        assert histogram_of_kinds(REFERENCE_WINNERS) == {
            "BLR": 7,
            "NNR": 2,
            "DFR": 1,
            "BDTR": 1,
            "LR": 1,
        }

    def test_zero_counts_present(self):
        assert histogram_of_kinds([]) == {k.value: 0 for k in ModelKind}


class TestRunStudy:
    def test_shape(self, small_study, small_cohort):
        report, models = small_study
        assert len(report.entries) == 12
        assert [e.channel for e in report.entries] == list(CHANNELS)
        assert sum(report.histogram.values()) == 12
        expected_test = round(len(small_cohort) * 0.30)
        assert all(e.bands.n_test == expected_test for e in report.entries)
        assert len(models.models) == 12

    def test_deterministic_bytes(self, small_cohort, small_study):
        report, models = small_study
        again_report, again_models = run_study(small_cohort, FAST_CONFIG)
        assert report_to_json(report) == report_to_json(again_report)
        assert bundle_to_json(models) == bundle_to_json(again_models)

    def test_config_echo_excludes_threads(self, small_study):
        report, _ = small_study
        assert set(report.config) == {"seed", "test_fraction", "selection", "hyper"}
        assert report.config["seed"] == FAST_CONFIG.seed

    def test_beats_training_mean_baseline(self, small_cohort, small_study):
        report, _ = small_study
        train, test = split_cohort(small_cohort, SplitSpec(0.30, FAST_CONFIG.seed))
        beating = 0
        for e in report.entries:
            y_train = label_vector(train, e.channel)
            y_test = label_vector(test, e.channel)
            baseline = rmse(np.full_like(y_test, y_train.mean()), y_test)
            beating += e.rmse <= baseline
        assert beating >= 10

    def test_inner_validation_mode_runs_and_is_deterministic(self, small_cohort):
        config = dataclasses.replace(FAST_CONFIG, selection="inner_validation")
        r1, _ = run_study(small_cohort, config)
        r2, _ = run_study(small_cohort, config)
        assert report_to_json(r1) == report_to_json(r2)
        assert len(r1.entries) == 12

    @pytest.mark.parametrize(
        "field, value",
        [("selection", "inner_valdation"), ("selection", None), ("test_fraction", 0.0),
         ("test_fraction", 1.0), ("test_fraction", 1.5), ("test_fraction", float("nan")),
         ("test_fraction", True), ("test_fraction", "0.3"), ("seed", -1), ("seed", 2.0)],
    )
    def test_config_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            StudyConfig(**{field: value})

    def test_rejects_tiny_cohorts(self):
        with pytest.raises(TooSmallError):
            run_study(generate_synthetic_cohort(5, 1), FAST_CONFIG)

    @pytest.mark.parametrize("n, fraction, selection, sizes", [
        (10, 0.95, "test", "the train/test split of 10 records leaves 1 for training"),
        (80, 0.98, "inner_validation", "channel 1's inner split of 2 records leaves 1 for training"),
    ], ids=["test", "inner_validation"])
    def test_training_split_under_two_rows_fails_before_any_fit(self, monkeypatch, n, fraction,
                                                                selection, sizes):
        def no_fits(fn, tasks):
            raise AssertionError("a fit started")

        monkeypatch.setattr(pipeline, "_parallel_map", no_fits)
        config = StudyConfig(test_fraction=fraction, selection=selection, hyper=FAST)
        with pytest.raises(TooSmallError, match=sizes):
            run_study(generate_synthetic_cohort(n, 1), config)

    def test_validation_errors_block_training(self):
        from impforecast.domain import Cohort
        from impforecast.errors import BadNumberError

        base = generate_synthetic_cohort(20, 2)
        labels = base.labels.copy()
        labels[0, 0] = float("nan")
        with pytest.raises(BadNumberError):  # the cohort never reaches run_study
            Cohort(base.ages, base.intra, labels)


def study_bytes(cohort, config) -> tuple[str, str]:
    report, models = run_study(cohort, config)
    return report_to_json(report), bundle_to_json(models)


def forks_and_study_bytes(cohort, config) -> tuple[int, tuple[str, str]]:
    """The number of processes that ``study_bytes`` forks from the calling
    process, and its bytes."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    os.fork = counted
    try:
        out = study_bytes(cohort, config)
    finally:
        os.fork = fork
    return len(forks), out


def broken_fit(estimators, Xs, Yt):
    raise RuntimeError("broken\nfit")


def in_workers(action):
    """A ``_fit_columns`` that runs ``action`` in a forked worker; in this
    process it fails the test, so that ``os._exit`` never ends pytest."""
    parent = os.getpid()

    def fit(estimators, Xs, Yt):
        assert os.getpid() != parent, "the study ran inline"
        action()

    return fit


class TestWorkerPool:
    """A study on one CPU runs inline; on two it forks a pool of workers.
    The outputs must have the same bytes either way."""

    @staticmethod
    def on_cpus(monkeypatch, n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @pytest.mark.parametrize("selection", ["test", "inner_validation"])
    def test_same_bytes_inline_and_in_workers(self, monkeypatch, small_cohort, selection):
        config = dataclasses.replace(FAST_CONFIG, selection=selection)
        outputs = []
        for n in (1, 2):
            self.on_cpus(monkeypatch, n)
            outputs.append(study_bytes(small_cohort, config))
        assert outputs[0] == outputs[1]

    def test_fit_errors_come_back_as_values(self, monkeypatch, small_cohort, small_split):
        train, test = small_split
        config = StudyConfig(hyper=FAST.with_overrides({"nnr.step": 100}))  # diverges
        grids, outputs = [], []
        for n in (1, 2):
            self.on_cpus(monkeypatch, n)
            grids.append(evaluate_grid(CHANNELS, train, test, config))
            outputs.append(study_bytes(small_cohort, config))
        for channel in CHANNELS:
            for group in FeatureGroup:
                inline, pooled = (grid[channel][(ModelKind.NNR, group)].error for grid in grids)
                assert isinstance(pooled, NonFiniteLossError)
                assert str(pooled).endswith("reduce the step size")
                assert (type(pooled), str(pooled)) == (type(inline), str(inline))
        assert outputs[0] == outputs[1]

    def test_costliest_kinds_go_first_and_come_back_in_candidate_order(self, monkeypatch,
                                                                       small_split):
        # the linear calls run before the pool, which takes the rest longest first
        train, test = small_split
        calls = []
        fit_and_score = pipeline._fit_and_score

        def logged(kind, config, parts, bounds):
            # per call: its kind and each part's (feature count, channel count)
            calls.append((kind, [(part[2].shape[1], len(part[1])) for part in parts]))
            return fit_and_score(kind, config, parts, bounds)

        def inline_map(fn, tasks):
            calls.append("pool")
            return [fn(*t) for t in tasks]

        monkeypatch.setattr(pipeline, "_fit_and_score", logged)
        monkeypatch.setattr(pipeline, "_parallel_map", inline_map)
        grid = evaluate_grid(CHANNELS, train, test, FAST_CONFIG)
        every_channel = [[(g.dimension, len(CHANNELS))] for g in FeatureGroup]
        assert calls == (
            [(kind, part) for kind in (ModelKind.LR, ModelKind.BLR) for part in every_channel]
            + ["pool", (ModelKind.NNR, [(g.dimension, len(CHANNELS)) for g in FeatureGroup])]
            + [(ModelKind.DFR, part) for part in every_channel]
            + [(ModelKind.BDTR, [(g.dimension, 1)]) for g in FeatureGroup for _ in CHANNELS]
        )
        for channel in CHANNELS:
            assert list(grid[channel]) == list(CANDIDATES)
            for (kind, group), outcome in grid[channel].items():
                assert outcome.model.kind is kind
                assert outcome.model.standardizer_.means_.shape == (group.dimension,)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("config", [FAST_CONFIG, HANDICAPPED_LINEAR_CONFIG],
                             ids=["linear_kinds_win", "trees_and_networks_win"])
    def test_a_pooled_record_keeps_its_model_only_if_it_can_win(self, monkeypatch, small_cohort,
                                                               small_split, config, cpus):
        # a channel's least linear RMSE bounds the rest: pick_winner keeps the
        # first of equal scores and the linear kinds come first
        train, test = small_split
        grid = evaluate_grid(CHANNELS, train, test, config)  # every record with its model
        linear = (ModelKind.LR, ModelKind.BLR)
        bounds = {c: min(r.rmse for key, r in grid[c].items() if key[0] in linear and r.error is None)
                  for c in CHANNELS}
        returned = []
        parallel_map = pipeline._parallel_map

        def captured(fn, tasks):
            results = parallel_map(fn, tasks)
            returned.extend(r for records in results for r in records)
            return results

        monkeypatch.setattr(pipeline, "_parallel_map", captured)
        self.on_cpus(monkeypatch, cpus)
        _, bundle = run_study(small_cohort, config)
        for r in returned:
            alone = grid[r.channel][(r.kind, r.group)]
            assert (r.rmse, r.bands, type(r.error)) == (alone.rmse, alone.bands, type(alone.error))
            assert (r.model is not None) == (r.error is None and r.rmse < bounds[r.channel])
        assert 0 < sum(r.model is not None for r in returned) < len(returned)
        pooled = {(r.channel, r.kind, r.group): r for r in returned}
        assert len(returned) == len(pooled) == 6 * len(CHANNELS)
        assert {kind for _, kind, _ in pooled} == {ModelKind.NNR, ModelKind.DFR, ModelKind.BDTR}
        for m in bundle.models:
            winner = pick_winner(grid[m.channel])
            assert (m.kind, m.group) == (winner.kind, winner.group)
            if m.kind not in linear:
                assert pooled[(m.channel, m.kind, m.group)].model is not None
            assert m.estimator.fitted_params() == winner.model.fitted_params()

    @pytest.mark.parametrize("selection", ["test", "inner_validation"])
    def test_a_grid_round_trains_its_networks_in_one_block(self, monkeypatch, small_cohort,
                                                           selection):
        blocks = []
        fit_parts = NeuralNetRegressor._fit_parts

        def counted(cls, parts):
            blocks.append(sum(len(estimators) for estimators, _, _ in parts))
            return fit_parts(parts)

        monkeypatch.setattr(NeuralNetRegressor, "_fit_parts", classmethod(counted))
        self.on_cpus(monkeypatch, 1)  # inline, so that the counts stay in this process
        report, _ = run_study(small_cohort, dataclasses.replace(FAST_CONFIG, selection=selection))
        # both feature groups of all 12 channels: on one split, or on their 12 inner splits
        assert blocks[0] == 2 * len(CHANNELS)
        # a nested study refits its network picks, if any, in a second block
        refits = selection == "inner_validation" and ModelKind.NNR in {e.kind for e in report.entries}
        assert len(blocks) == 1 + refits

    def test_worker_exception_is_raised_in_the_parent(self, monkeypatch, small_cohort):
        monkeypatch.setattr(BoostedTreesRegressor, "_fit_columns", broken_fit)
        self.on_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="broken") as info:
            run_study(small_cohort, FAST_CONFIG)
        cause = info.value.__cause__  # raised in a worker, whose traceback it holds
        assert isinstance(cause, pipeline._WorkerTraceback)
        assert "Traceback (most recent call last)" in str(cause)
        assert "in broken_fit" in str(cause) and "RuntimeError: broken" in str(cause)

    def test_worker_exception_is_a_one_line_internal_error(self, monkeypatch, tmp_path, capsys):
        cohort = tmp_path / "cohort.csv"
        assert run_cli(["generate", "--n", "20", "--seed", "3", "--out", str(cohort)]) == 0
        monkeypatch.setattr(BoostedTreesRegressor, "_fit_columns", broken_fit)
        self.on_cpus(monkeypatch, 2)
        capsys.readouterr()
        code = run_cli(["study", "--data", str(cohort), "--out-report", str(tmp_path / "r.json"),
                        "--out-models", str(tmp_path / "m.json"), "--hyper", "nnr.epochs=20"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "internal error: RuntimeError: broken fit\n"
        assert not (tmp_path / "m.json").exists()

    @staticmethod
    def forked(monkeypatch) -> list:
        """The pids of the workers forked from here on."""
        pids, fork = [], os.fork

        def recorded():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recorded)
        return pids

    @staticmethod
    def assert_reaped(pids) -> None:
        assert pids
        for pid in pids:
            with pytest.raises(ChildProcessError):  # no longer a child, not even a zombie
                os.waitpid(pid, os.WNOHANG)

    def test_worker_that_dies_is_an_error_naming_its_exit_status(self, monkeypatch, small_cohort):
        monkeypatch.setattr(BoostedTreesRegressor, "_fit_columns", in_workers(lambda: os._exit(9)))
        self.on_cpus(monkeypatch, 2)
        pids = self.forked(monkeypatch)
        with pytest.raises(ImpforecastError, match="^a study worker exited with status 9 before "):
            run_study(small_cohort, FAST_CONFIG)
        self.assert_reaped(pids)

    def test_worker_that_dies_is_a_one_line_internal_error(self, monkeypatch, tmp_path, capsys):
        cohort = tmp_path / "cohort.csv"
        assert run_cli(["generate", "--n", "20", "--seed", "3", "--out", str(cohort)]) == 0
        monkeypatch.setattr(BoostedTreesRegressor, "_fit_columns", in_workers(lambda: os._exit(9)))
        self.on_cpus(monkeypatch, 2)
        capsys.readouterr()
        code = run_cli(["study", "--data", str(cohort), "--out-report", str(tmp_path / "r.json"),
                        "--out-models", str(tmp_path / "m.json"), "--hyper", "nnr.epochs=20"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("internal error: a study worker exited with status 9 ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "m.json").exists()

    def test_worker_killed_part_way_through_its_message_is_an_error(self, monkeypatch,
                                                                    small_cohort):
        # the part of a message in a pipe may not unpickle: the exit status,
        # not the bytes, tells the parent that the worker did not finish
        class CutShort:
            def __init__(self, fd):
                self.fd = fd

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                os.close(self.fd)

            def write(self, message):
                os.write(self.fd, message[: len(message) // 2])
                os.kill(os.getpid(), signal.SIGKILL)

        def opened(file, mode="r", *args, **kwargs):
            return CutShort(file) if mode == "wb" else open(file, mode, *args, **kwargs)

        monkeypatch.setattr(pipeline, "open", opened, raising=False)
        self.on_cpus(monkeypatch, 2)
        pids = self.forked(monkeypatch)
        with pytest.raises(ImpforecastError, match="^a study worker was killed by signal 9 before "):
            run_study(small_cohort, FAST_CONFIG)
        self.assert_reaped(pids)

    def test_interrupted_study_kills_and_reaps_its_workers(self, monkeypatch, small_cohort):
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(BoostedTreesRegressor, "_fit_columns",
                            in_workers(lambda: time.sleep(60)))
        self.on_cpus(monkeypatch, 2)
        pids = self.forked(monkeypatch)
        previous = signal.signal(signal.SIGALRM, interrupt)  # a forked child has no timer
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(KeyboardInterrupt):
                run_study(small_cohort, FAST_CONFIG)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30  # the workers did not sleep their 60 s out
        self.assert_reaped(pids)

    def test_results_past_a_pipe_buffer_come_back_in_task_order(self, monkeypatch):
        # every result fills a pipe many times over and the first task is slow: the
        # later workers wait on full pipes while the parent reads the first to its end
        def task(i, delay):
            time.sleep(delay)
            return bytes([i]) * (1 << 20)

        def overdue(signum, frame):
            raise TimeoutError("the map did not return within 30 s")

        tasks = [(i, 0.5 if i == 0 else 0.0) for i in range(6)]
        self.on_cpus(monkeypatch, 3)
        pids = self.forked(monkeypatch)
        previous = signal.signal(signal.SIGALRM, overdue)  # a forked child has no timer
        try:
            signal.setitimer(signal.ITIMER_REAL, 30.0)
            results = pipeline._parallel_map(task, tasks)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert len(pids) == 3
        assert results == [task(*t) for t in tasks]
        self.assert_reaped(pids)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists /proc/self/fd")
    def test_a_fork_that_fails_leaks_no_descriptor(self, monkeypatch):
        self.on_cpus(monkeypatch, 2)
        pids = self.forked(monkeypatch)
        fork = os.fork  # the recording one

        def second_fails():
            if pids:
                raise BlockingIOError(errno.EAGAIN, "fork refused")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError, match="fork refused"):
            pipeline._parallel_map(time.sleep, [(0,), (0,)])
        assert sorted(os.listdir("/proc/self/fd")) == before
        self.assert_reaped(pids)

    @pytest.mark.parametrize("selection", ["test", "inner_validation"])
    def test_daemonic_pool_worker_forks_its_workers(self, monkeypatch, small_cohort, selection):
        # a multiprocessing.Pool worker is daemonic: multiprocessing would not
        # start a process there, but the fork map does not go through it
        import multiprocessing

        self.on_cpus(monkeypatch, 2)
        config = dataclasses.replace(FAST_CONFIG, selection=selection)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            forks, in_worker = pool.apply_async(forks_and_study_bytes, (small_cohort, config)).get(timeout=300)
        assert forks > 0
        assert in_worker == study_bytes(small_cohort, config)


class TestPredictOne:
    def test_memorized_point_within_error_budget(self, small_cohort, small_study):
        _, models = small_study
        patient = small_cohort.take([0])
        for pred in predict_one(models, patient):
            label = patient.labels[0, pred.channel - 1]
            entry_rmse = models.models[pred.channel - 1].rmse
            assert abs(pred.value - label) <= 3.0 * entry_rmse

    def test_unlabeled_record_gets_finite_predictions(self, small_study):
        _, models = small_study
        from impforecast.domain import Cohort

        patient = Cohort([3.0], [[5.0] * 12])
        predictions = predict_one(models, patient)
        assert len(predictions) == 12
        assert all(np.isfinite(p.value) for p in predictions)

    def test_rmse_hint_format(self, small_study):
        _, models = small_study
        entry = dataclasses.replace(models.models[9], rmse=0.872403)
        bundle = ModelBundle(models=tuple(
            entry if m.channel == 10 else m for m in models.models
        ))
        patient = generate_synthetic_cohort(1, 0)
        pred = predict_one(bundle, patient)[9]
        assert pred.rmse_hint == "RMSE 0.87 kΩ"

    def test_missing_channel_is_incompatible(self, small_study):
        _, models = small_study
        with pytest.raises(IncompatibleBundleError, match="missing channel"):
            ModelBundle(models=tuple(m for m in models.models if m.channel != 4))

    @pytest.mark.parametrize("n", [0, 2])
    def test_needs_exactly_one_patient(self, small_study, n):
        _, models = small_study
        with pytest.raises(ValueError):
            predict_one(models, generate_synthetic_cohort(2, 0).take(range(n)))


def test_report_json_roundtrip(small_study):
    report, _ = small_study
    text = report_to_json(report)
    again = report_from_json(text)
    assert again == report
    assert report_to_json(again) == text
