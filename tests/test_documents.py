"""A model bundle and a study report are valid when built: whatever order
their channels come in, and with some dropped or named twice, each either
refuses them at construction or writes JSON that its reader loads back
equal, with the same bytes on a second write."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impforecast.bundle import ModelBundle, bundle_from_json, bundle_to_json
from impforecast.dataio import generate_synthetic_cohort
from impforecast.domain import CHANNELS
from impforecast.errors import IncompatibleBundleError
from impforecast.pipeline import StudyConfig, run_study
from impforecast.regressors import HyperParams
from impforecast.report import StudyReport, report_from_json, report_to_json

FAST = StudyConfig(
    hyper=HyperParams().with_overrides({"dfr.trees": 5, "bdtr.trees": 10, "nnr.epochs": 50})
)


@pytest.fixture(scope="module")
def study():
    return run_study(generate_synthetic_cohort(30, 13), FAST)


@st.composite
def picks(draw):
    """Indices into a study's 12 channels, shuffled, with up to two of them
    dropped and up to two named twice."""
    dropped = draw(st.sets(st.sampled_from(range(12)), max_size=2))
    twice = draw(st.lists(st.sampled_from(range(12)), max_size=2))
    return draw(st.permutations([i for i in range(12) if i not in dropped] + twice))


def summary(models):
    return [(m.channel, m.kind, m.group, m.rmse) for m in models]


@settings(max_examples=60, deadline=None)
@given(indices=picks())
def test_a_bundle_is_complete_or_refused(study, indices):
    _, models = study
    try:
        bundle = ModelBundle(tuple(models.models[i] for i in indices))
    except IncompatibleBundleError:
        assert sorted(indices) != list(range(12))
        return
    assert sorted(indices) == list(range(12))
    assert [m.channel for m in bundle.models] == list(CHANNELS)
    text = bundle_to_json(bundle)
    assert text == bundle_to_json(models)
    again = bundle_from_json(text)
    assert summary(again.models) == summary(bundle.models)
    assert bundle_to_json(again) == text


@settings(max_examples=60, deadline=None)
@given(indices=picks())
def test_a_report_names_each_channel_once_or_is_refused(study, indices):
    report, _ = study
    try:
        built = StudyReport(tuple(report.entries[i] for i in indices), report.config)
    except IncompatibleBundleError as exc:
        assert len(set(indices)) < len(indices)
        assert str(exc).startswith("report has more than one entry for channel(s): ")
        return
    assert len(set(indices)) == len(indices)
    channels = [e.channel for e in built.entries]
    assert channels == sorted(channels)
    text = report_to_json(built)
    again = report_from_json(text)
    assert again == built
    assert again.histogram == built.histogram
    assert sum(built.histogram.values()) == len(indices)
    assert report_to_json(again) == text


def test_a_bundle_names_the_channels_it_refuses(study):
    _, models = study
    three = models.models[2]
    with pytest.raises(IncompatibleBundleError,
                       match="^bundle has more than one model for channel\\(s\\): 3$"):
        ModelBundle(models.models + (three,))
    with pytest.raises(IncompatibleBundleError, match="^bundle is missing channel\\(s\\): 3$"):
        ModelBundle(models.models[:2] + models.models[3:])
    # a model outside 1..12 is refused as it is built, as its reader refuses it
    with pytest.raises(ValueError, match="^channel must be in 1..12, got 13$"):
        dataclasses.replace(three, channel=13)


def test_a_report_names_the_channels_it_refuses(study):
    report, _ = study
    three = report.entries[2]
    with pytest.raises(IncompatibleBundleError,
                       match="^report has more than one entry for channel\\(s\\): 3$"):
        StudyReport(report.entries + (three,), report.config)
    # an entry outside 1..12 is refused as it is built, as its reader refuses it
    for channel in (0, 13):
        with pytest.raises(ValueError, match=f"^channel must be in 1..12, got {channel}$"):
            dataclasses.replace(three, channel=channel)
