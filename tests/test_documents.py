"""A model bundle and a study report are valid when built: whatever order
their channels come in, and with some dropped or named twice, each either
refuses them at construction or writes JSON that its reader loads back
equal, with the same bytes on a second write. A document loads only if it
saves back to itself: each one-fault mutant of a bundle or a report is
refused, or loads and writes the mutant again."""

import dataclasses
import json

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


# --- a document loads only if it saves back to itself ------------------------------


def test_a_study_that_trees_and_networks_win_saves_back():
    """The linear kinds handicapped, so that the other kinds win channels."""
    hyper = HyperParams().with_overrides({
        "dfr.trees": 5, "bdtr.trees": 10, "nnr.epochs": 50,
        "lr.ridge": 1e6, "blr.alpha": 1e6, "blr.evidence_iters": 0,
    })
    report, models = run_study(generate_synthetic_cohort(20, 3), StudyConfig(seed=3, hyper=hyper))
    assert {e.kind.value for e in report.entries} - {"LR", "BLR"}
    text = report_to_json(report)
    assert report_to_json(report_from_json(text)) == text
    text = bundle_to_json(models)
    assert bundle_to_json(bundle_from_json(text)) == text


def slots(value, width=1, wide=None):
    """``(container, key)`` of each value inside ``value``, depth first:
    every key of an object, and the first ``width`` items of a list. Lists
    under a key in ``wide`` are walked for that many items, others for one."""
    wide = wide or {}
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = range(min(width, len(value)))
    else:
        keys = ()
    for key in keys:
        yield value, key
        yield from slots(value[key], wide.get(key, 1), wide)


def retyped(value) -> list:
    """``value`` changed to each other JSON type: int <-> float, ``true``,
    a string, ``null`` and a one-item list."""
    others = [True, str(value), None, [value]]
    if isinstance(value, (int, float)):
        others.append(float(value) if isinstance(value, int) else int(value))
    return [other for other in others if type(other) is not type(value)]


def one_fault_mutants(doc, wide):
    """JSON texts of ``doc`` with one fault each: a key deleted, a key that
    the writer does not write inserted into an object, or a leaf changed to
    another type (see ``slots`` for where). ``doc`` is changed in place for
    each text and put back after it, so the texts cost one encode each."""
    places = list(slots(doc, wide=wide))
    for container, key in places:
        value = container[key]
        if isinstance(container, dict):
            items = list(container.items())
            del container[key]
            yield json.dumps(doc)
            container.clear()
            container.update(items)
        if not isinstance(value, (dict, list)):
            for other in retyped(value):
                container[key] = other
                yield json.dumps(doc)
            container[key] = value
    for obj in [doc] + [c[k] for c, k in places if isinstance(c[k], dict)]:
        obj["unknown"] = 1
        yield json.dumps(doc)
        del obj["unknown"]


def check_every_mutant(text, wide, reader, writer) -> int:
    """Every one-fault mutant of ``text`` is refused or saves back to
    itself, with ``true``, ``1`` and ``1.0`` told apart. Returns how many
    were loaded."""
    doc = json.loads(text)
    loaded = 0
    for mutant in one_fault_mutants(doc, wide):
        try:
            document = reader(mutant)
        except IncompatibleBundleError:
            continue
        loaded += 1
        again = json.dumps(json.loads(writer(document)), sort_keys=True)
        assert again == json.dumps(json.loads(mutant), sort_keys=True), mutant
    assert json.dumps(doc) == json.dumps(json.loads(text))  # every mutant was put back
    return loaded


def test_every_one_fault_bundle_is_refused_or_saves_back(mixed_bundle):
    """A fault in channels 1..10, which hold every kind x group pair once."""
    text = bundle_to_json(mixed_bundle)
    assert bundle_to_json(bundle_from_json(text)) == text
    check_every_mutant(text, {"models": 10}, bundle_from_json, bundle_to_json)


def test_every_one_fault_report_is_refused_or_saves_back(study):
    report, _ = study
    text = report_to_json(report)
    assert report_to_json(report_from_json(text)) == text
    assert check_every_mutant(text, {}, report_from_json, report_to_json) > 0  # faults in config load
