"""Whole-study differential oracle: ``run_study`` against a serial reference.

The reference study below is meant to be obviously correct. For every
channel and candidate it makes a fresh estimator, fits it alone on that
channel's column, predicts, scores, and takes the argmin in candidate
order; nested selection does the same on the channel's inner split, then
refits the winner on the whole training split. Every fit is a lone
``fit``: it trains no columns together, opens no worker pool and shares no
standardizer. So every fast layer of ``run_study`` (channels batched per
call, a round's networks trained as one block, the forest's
level-synchronous grower, the boosting memo, the pool and its merge) is
checked against lone fits, byte for byte, on the report and bundle JSON.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from impforecast import (
    ChannelModel,
    HyperParams,
    ModelBundle,
    SelectionEntry,
    SplitSpec,
    StudyConfig,
    bundle_to_json,
    evaluate_grid,
    generate_synthetic_cohort,
    make_regressor,
    report_to_json,
    run_study,
    split_cohort,
)
from impforecast.domain import CHANNELS, GROUP_ORDER, KIND_ORDER, feature_matrix, label_vector
from impforecast.errors import AllCandidatesFailedError, FitError
from impforecast.metrics import error_bands, rmse
from impforecast.pipeline import candidate_seed
from impforecast.report import StudyReport
from impforecast.seeding import derive_seed

# a nested study splits channel c's training part with seed derive_seed(seed, c, 101)
INNER_SPLIT_SALT = 101


def lone_candidate(kind, group, channel, train, test, config):
    """A fresh estimator fit alone on ``channel``'s column of ``train`` and
    scored on ``test``: (rmse, bands, model). Raises its FitError."""
    model = make_regressor(kind, config.hyper, candidate_seed(config.seed, channel, kind, group))
    model.fit(feature_matrix(train, group), label_vector(train, channel))
    y_hat, y = model.predict(feature_matrix(test, group)), label_vector(test, channel)
    return rmse(y_hat, y), error_bands(y_hat, y), model


def lone_winner(channel, train, test, config):
    """Argmin by RMSE in candidate order; a candidate that fails is skipped."""
    best = None
    for kind in KIND_ORDER:
        for group in GROUP_ORDER:
            try:
                outcome = lone_candidate(kind, group, channel, train, test, config)
            except FitError:
                continue
            if best is None or outcome[0] < best[2][0]:
                best = (kind, group, outcome)
    if best is None:
        raise AllCandidatesFailedError(f"channel {channel}: every candidate failed")
    return best


def reference_study(cohort, config) -> tuple[str, str]:
    train, test = split_cohort(cohort, SplitSpec(config.test_fraction, config.seed))
    winners = []
    for channel in CHANNELS:
        if config.selection == "inner_validation":
            inner_seed = derive_seed(config.seed, channel, INNER_SPLIT_SALT)
            inner_train, inner_val = split_cohort(train, SplitSpec(config.test_fraction, inner_seed))
            kind, group, _ = lone_winner(channel, inner_train, inner_val, config)
            winners.append((kind, group, lone_candidate(kind, group, channel, train, test, config)))
        else:
            winners.append(lone_winner(channel, train, test, config))
    entries = tuple(
        SelectionEntry(channel=c, kind=kind, group=group, rmse=score, bands=bands)
        for c, (kind, group, (score, bands, _)) in zip(CHANNELS, winners)
    )
    report = StudyReport(entries, asdict(config))
    bundle = ModelBundle(tuple(
        ChannelModel(channel=c, kind=kind, group=group, rmse=score, estimator=model)
        for c, (kind, group, (score, _, model)) in zip(CHANNELS, winners)
    ))
    return report_to_json(report), bundle_to_json(bundle)


@st.composite
def studies(draw):
    """A small cohort and a study config with fast hyperparameters. The
    linear kinds may be handicapped, so that trees and networks win
    channels; the network may diverge, so that candidates fail."""
    cohort = generate_synthetic_cohort(draw(st.integers(10, 40)), draw(st.integers(0, 2**16)))
    overrides = {
        "dfr.trees": draw(st.integers(1, 5)),
        "bdtr.trees": draw(st.integers(1, 10)),
        "nnr.epochs": draw(st.integers(1, 50)),
        "nnr.hidden_units": draw(st.integers(1, 8)),
        "nnr.step": draw(st.sampled_from([1e-2, 0.3])),
    }
    if draw(st.booleans()):  # every network diverges: its loss overflows within 200 epochs
        overrides.update({"nnr.step": 100.0, "nnr.epochs": 200})
    if draw(st.booleans()):
        overrides.update({"lr.ridge": 1e6, "blr.alpha": 1e6, "blr.evidence_iters": 0})
    return cohort, StudyConfig(
        seed=draw(st.integers(0, 2**16)),
        test_fraction=draw(st.sampled_from([0.2, 0.3, 0.5])),
        selection=draw(st.sampled_from(["test", "inner_validation"])),
        hyper=HyperParams().with_overrides(overrides),
    )


@settings(max_examples=30, deadline=None)
@given(study=studies())
def test_run_study_matches_the_serial_reference(study):
    cohort, config = study
    try:
        expected = reference_study(cohort, config)
    except (FitError, AllCandidatesFailedError):  # a refit fails, or every candidate of a channel
        try:
            run_study(cohort, config)
        except (FitError, AllCandidatesFailedError):
            return
        raise AssertionError("run_study succeeded where the reference study failed")
    report, models = run_study(cohort, config)
    assert (report_to_json(report), bundle_to_json(models)) == expected


@settings(max_examples=20, deadline=None)
@given(study=studies())
def test_every_grid_record_matches_its_lone_fit(study):
    """Every record of ``evaluate_grid``, 12 channels x 10 candidates, is
    filed under its own channel and candidate, and equals that candidate
    fit alone: the same error type and message for a failure, else the same
    rmse, bands and fitted parameters. The byte oracle above sees only the
    12 winners, so a losing candidate filed under another cell passes it."""
    cohort, config = study
    train, test = split_cohort(cohort, SplitSpec(config.test_fraction, config.seed))
    grid = evaluate_grid(CHANNELS, train, test, config)
    assert list(grid) == list(CHANNELS)
    for channel in CHANNELS:
        assert list(grid[channel]) == [(k, g) for k in KIND_ORDER for g in GROUP_ORDER]
        for (kind, group), record in grid[channel].items():
            assert (record.channel, record.kind, record.group) == (channel, kind, group)
            try:
                score, bands, model = lone_candidate(kind, group, channel, train, test, config)
            except FitError as exc:
                assert (type(record.error), str(record.error)) == (type(exc), str(exc))
                continue
            assert record.error is None
            assert (record.rmse, record.bands) == (score, bands)
            assert record.model.fitted_params() == model.fitted_params()
