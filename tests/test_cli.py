import contextlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from impforecast.bundle import ChannelModel, bundle_to_json
from impforecast.cli import run_cli
from impforecast.dataio import (
    SYNTH_MAX_PATIENTS,
    generate_synthetic_cohort,
    parse_cohort_csv,
    serialize_cohort_csv,
)
from impforecast.domain import BASE_COLUMNS, LABEL_COLUMNS, Cohort, FeatureGroup, ModelKind
from impforecast.errors import CsvSyntaxError
from impforecast.regressors import BoostedTreesRegressor

# small cohort + light ensembles keep each study run around a second
FAST_HYPER = [
    "--hyper", "dfr.trees=10",
    "--hyper", "bdtr.trees=20",
    "--hyper", "nnr.epochs=100",
]


# a report document with its entries left to fill in, and one entry; with
# that entry filled in, the document is valid
REPORT_TEMPLATE = (
    '{"format_version": 1, "config": {},'
    ' "histogram": {"LR": 1, "BLR": 0, "DFR": 0, "BDTR": 0, "NNR": 0}, "entries": [%s]}'
)
ENTRY_TEMPLATE = (
    '{"channel": %d, "kind": "LR", "group": "G1", "rmse": 1.0,'
    ' "bands": {"counts": [1, 0, 0, 0], "n_test": 1, "pct": [100.0, 0.0, 0.0, 0.0],'
    ' "cum_0_2": 100.0, "cum_0_3": 100.0}}'
)


def bad_entry(old, new):
    """A one-entry report whose entry has ``old`` replaced by ``new``."""
    entry = ENTRY_TEMPLATE % 1
    assert old in entry
    return REPORT_TEMPLATE % entry.replace(old, new)


def bad_histogram(histogram):
    """The one-entry report with its histogram replaced by ``histogram``."""
    doc = REPORT_TEMPLATE % ENTRY_TEMPLATE % 1
    good = '{"LR": 1, "BLR": 0, "DFR": 0, "BDTR": 0, "NNR": 0}'
    assert good in doc
    return doc.replace(good, histogram)


def run(args):
    return run_cli(list(args))


@pytest.fixture()
def cohort_csv(tmp_path):
    path = tmp_path / "cohort.csv"
    assert run(["generate", "--n", "30", "--seed", "5", "--out", str(path)]) == 0
    return path


def study_files(tmp_path, cohort_csv, tag, extra=()):
    report = tmp_path / f"report_{tag}.json"
    models = tmp_path / f"models_{tag}.json"
    code = run(
        ["study", "--data", str(cohort_csv), "--seed", "7",
         "--out-report", str(report), "--out-models", str(models), *FAST_HYPER, *extra]
    )
    assert code == 0
    return report, models


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["generate", "--n", "20", "--seed", "3", "--out", str(a)]) == 0
        assert run(["generate", "--n", "20", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", [0, SYNTH_MAX_PATIENTS + 1, 10**12])
    def test_invalid_count_is_data_error(self, tmp_path, capsys, n):
        out = tmp_path / "x.csv"
        assert run(["generate", "--n", str(n), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: n must be an integer in 1..{SYNTH_MAX_PATIENTS}, got {n}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "-5", "1.5", "x"])
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, seed):
        out = tmp_path / "x.csv"
        assert run(["generate", "--n", "5", "--seed", seed, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--seed" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()


def scaled_csv(path, column, top):
    """The seed-1 80-patient cohort, its CSV column ``column`` scaled to a
    max of ``top``: every value finite and > 0."""
    cohort = generate_synthetic_cohort(80, 1)
    table = np.column_stack([cohort.ages, cohort.intra, cohort.labels])
    j = (BASE_COLUMNS + LABEL_COLUMNS).index(column)
    table[:, j] *= top / table[:, j].max()
    path.write_text(serialize_cohort_csv(Cohort(table[:, 0], table[:, 1:13], table[:, 13:])))
    return path


# the fewest trees and epochs, so that a study of 80 patients takes a fraction of a second
TINY_HYPER = ["--hyper", "dfr.trees=3", "--hyper", "bdtr.trees=5", "--hyper", "nnr.epochs=20"]


class TestStudy:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_labels_that_overflow_the_split_scores_print_one_line(self, tmp_path, capfd,
                                                                 monkeypatch, cpus):
        """capfd also reads what the forked workers write to stderr."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        data = scaled_csv(tmp_path / "big.csv", "ei_1m_1", 1e154)
        code = run(["study", "--data", str(data), "--out-report", str(tmp_path / "r.json"),
                    "--out-models", str(tmp_path / "m.json"), *FAST_HYPER])
        err = capfd.readouterr().err
        assert code == 0 and err.startswith("study complete: ") and len(err.splitlines()) == 1

    def test_trees_that_overflow_fail_as_candidates(self, tmp_path, capfd):
        data = scaled_csv(tmp_path / "huge.csv", "ei_1m_1", 1.7e308)
        code = run(["study", "--data", str(data), "--out-report", str(tmp_path / "r.json"),
                    "--out-models", str(tmp_path / "m.json"), *FAST_HYPER])
        err = capfd.readouterr().err
        assert code == 2 and len(err.splitlines()) == 1, err
        assert err.startswith("data error: channel 1: every candidate failed: ")
        for candidate in ("DFR/G1", "DFR/G2", "BDTR/G1", "BDTR/G2"):
            assert f"{candidate}: grown leaf values are not finite" in err
        for candidate in ("LR/G1", "LR/G2"):
            assert f"{candidate}: fitted weights are not finite: the labels are too large" in err
        for candidate in ("BLR/G1", "BLR/G2"):
            assert f"{candidate}: posterior weights or precisions are not finite" in err
        for candidate in ("NNR/G1", "NNR/G2"):
            assert (f"{candidate}: training loss is not finite at the initial weights: "
                    "the labels, the features or nnr.init_scale are too large") in err
        assert not (tmp_path / "r.json").exists()

    def test_a_pick_whose_refit_fails_is_a_data_error(self, tmp_path, capfd):
        """ei_intra_1 at 1e154 standardizes on every inner split (39 rows) but
        overflows on the whole training split (56 rows), where each channel's
        pick is refit."""
        data = scaled_csv(tmp_path / "wide.csv", "ei_intra_1", 1e154)
        code = run(["study", "--data", str(data), "--selection", "inner_validation",
                    "--out-report", str(tmp_path / "r.json"), "--out-models", str(tmp_path / "m.json"),
                    *TINY_HYPER])
        err = capfd.readouterr().err
        assert code == 2 and len(err.splitlines()) == 1, err
        assert err.startswith("data error: channel 1: every candidate failed: ")
        assert err.endswith("/G2: feature column 1 is too large to standardize\n")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(column=st.sampled_from(BASE_COLUMNS + LABEL_COLUMNS),
           top=st.integers(-300, 309).map(lambda k: 1.7e308 if k == 309 else 10.0**k))
    def test_a_column_scaled_anywhere_in_range_never_exits_3(self, tmp_path, capfd, monkeypatch,
                                                             cpus, column, top):
        """A study of a valid cohort ends in success or a data error, with one
        stderr line, whatever the scale of a column; so does predict with the
        bundle of a study that succeeds, on the same cohort."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        data = scaled_csv(tmp_path / "scaled.csv", column, top)
        report, models, out = tmp_path / "r.json", tmp_path / "m.json", tmp_path / "p.csv"
        for path in (report, models, out):
            path.unlink(missing_ok=True)
        capfd.readouterr()
        code = run(["study", "--data", str(data), "--out-report", str(report),
                    "--out-models", str(models), *TINY_HYPER])
        err = capfd.readouterr().err
        assert code in (0, 2) and len(err.splitlines()) == 1, err
        if code == 0:
            code = run(["predict", "--models", str(models), "--data", str(data), "--out", str(out)])
            err = capfd.readouterr().err
            assert code in (0, 2) and len(err.splitlines()) == 1, err

    def test_end_to_end_deterministic(self, tmp_path, cohort_csv):
        r1, m1 = study_files(tmp_path, cohort_csv, "one")
        r2, m2 = study_files(tmp_path, cohort_csv, "two")
        assert r1.read_bytes() == r2.read_bytes()
        assert m1.read_bytes() == m2.read_bytes()

    def test_input_file_not_mutated(self, tmp_path, cohort_csv):
        before = cohort_csv.read_bytes()
        study_files(tmp_path, cohort_csv, "ro")
        assert cohort_csv.read_bytes() == before

    def test_missing_column_names_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        header = "age," + ",".join(
            f"ei_intra_{c}" for c in range(1, 13) if c != 5
        )
        bad.write_text(header + "\n" + ",".join(["2.5"] * 12) + "\n")
        code = run(
            ["study", "--data", str(bad), "--out-report", str(tmp_path / "r.json"),
             "--out-models", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "ei_intra_5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["study", "predict"])
    @pytest.mark.parametrize("defect", ["column_named_twice", "row_longer_than_header", "oversized_cell"])
    def test_cells_off_the_header_are_data_errors(self, tmp_path, cohort_csv, capsys, mixed_bundle,
                                                  command, defect):
        lines = cohort_csv.read_text().splitlines()
        if defect == "column_named_twice":
            lines = [lines[0] + ",ei_intra_3"] + [line + ",99.0" for line in lines[1:]]
        elif defect == "row_longer_than_header":
            lines[2] += ",99.0"
        else:  # over the csv module's cell limit
            lines[2] = "9" * 200_001 + lines[2][lines[2].index(","):]
        bad, models = tmp_path / "bad.csv", tmp_path / "models.json"
        bad.write_text("\n".join(lines) + "\n")
        models.write_text(bundle_to_json(mixed_bundle))
        argv = {
            "study": ["study", "--data", str(bad), "--out-report", str(tmp_path / "r.json"),
                      "--out-models", str(tmp_path / "m.json")],
            "predict": ["predict", "--models", str(models), "--data", str(bad),
                        "--out", str(tmp_path / "p.csv")],
        }[command]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and len(err.strip().splitlines()) == 1
        assert {
            "column_named_twice": "ei_intra_3",
            "row_longer_than_header": "row 2 ",
            "oversized_cell": "line 3: field larger than field limit",
        }[defect] in err

    @pytest.mark.parametrize("command", ["study", "predict"])
    def test_bare_carriage_return_is_the_library_error(self, tmp_path, cohort_csv, capsys,
                                                       mixed_bundle, command):
        # a stray \r after the fifth cell of the second patient's row
        lines = cohort_csv.read_bytes().split(b"\n")
        cells = lines[2].split(b",")
        cells[4] += b"\r"
        lines[2] = b",".join(cells)
        bad, models = tmp_path / "bad.csv", tmp_path / "models.json"
        bad.write_bytes(b"\n".join(lines))
        models.write_text(bundle_to_json(mixed_bundle))
        with pytest.raises(CsvSyntaxError) as info:
            parse_cohort_csv(bad.read_bytes())
        assert info.value.line == 3
        argv = {
            "study": ["study", "--data", str(bad), "--out-report", str(tmp_path / "r.json"),
                      "--out-models", str(tmp_path / "m.json")],
            "predict": ["predict", "--models", str(models), "--data", str(bad),
                        "--out", str(tmp_path / "p.csv")],
        }[command]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"data error: {info.value}\n"

    def test_byte_order_mark_gives_the_same_study(self, tmp_path, cohort_csv):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + cohort_csv.read_bytes())
        plain_files = study_files(tmp_path, cohort_csv, "plain")
        marked_files = study_files(tmp_path, marked, "marked")
        assert [p.read_bytes() for p in marked_files] == [p.read_bytes() for p in plain_files]

    def test_unknown_hyper_key_is_usage_error(self, tmp_path, cohort_csv):
        code = run(
            ["study", "--data", str(cohort_csv), "--out-report", str(tmp_path / "r.json"),
             "--out-models", str(tmp_path / "m.json"), "--hyper", "dfr.bananas=9"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "override",
        [
            "dfr.trees=0",
            "bdtr.min_leaf=0",
            "dfr.max_depth=-1",
            "bdtr.trees=0",
            "dfr.feature_subset=0",
            "bdtr.learning_rate=nan",
            "dfr.trees=1000000000000",  # past its cap: refused before any tree is grown
        ],
    )
    def test_out_of_range_tree_hyper_is_usage_error(self, tmp_path, cohort_csv, capsys, override):
        code = run(
            ["study", "--data", str(cohort_csv), "--out-report", str(tmp_path / "r.json"),
             "--out-models", str(tmp_path / "m.json"), "--hyper", override]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert override.split("=")[0] in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "override",
        [
            "nnr.hidden_units=0",
            "lr.ridge=nan",
            "nnr.epochs=0",
            "nnr.momentum=1.5",
            "blr.alpha=-1",
            "blr.beta=0",
            "blr.evidence_iters=-3",
            "nnr.step=nan",
            "nnr.init_scale=0",
            "nnr.hidden_units=2.5",
            "nnr.epochs=10.7",
            "nnr.hidden_units=1e30",
            "blr.evidence_iters=2.5",
            "nnr.hidden_units=1000000000000",  # past its cap: refused before any weight is drawn
        ],
    )
    def test_out_of_range_model_hyper_is_usage_error(self, tmp_path, cohort_csv, capsys, override):
        code = run(
            ["study", "--data", str(cohort_csv), "--out-report", str(tmp_path / "r.json"),
             "--out-models", str(tmp_path / "m.json"), "--hyper", override]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and override.split("=")[0] in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("fraction", ["0", "1", "1.5", "nan", "-0.2"])
    def test_out_of_range_test_fraction_is_usage_error(self, tmp_path, cohort_csv, capsys, fraction):
        code = run(
            ["study", "--data", str(cohort_csv), "--out-report", str(tmp_path / "r.json"),
             "--out-models", str(tmp_path / "m.json"), "--test-fraction", fraction]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: test_fraction") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("n, fraction, selection, sizes", [
        (10, "0.95", "test", "split of 10 records leaves 1 for training"),
        (80, "0.98", "inner_validation", "inner split of 2 records leaves 1 for training"),
    ], ids=["test", "inner_validation"])
    def test_training_split_under_two_rows_is_data_error(self, tmp_path, capsys, n, fraction,
                                                         selection, sizes):
        cohort = tmp_path / "cohort.csv"
        assert run(["generate", "--n", str(n), "--seed", "1", "--out", str(cohort)]) == 0
        capsys.readouterr()
        code = run(
            ["study", "--data", str(cohort), "--test-fraction", fraction, "--selection", selection,
             "--out-report", str(tmp_path / "r.json"), "--out-models", str(tmp_path / "m.json"),
             *FAST_HYPER]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ") and sizes in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("n", [10, 14])
    def test_fewer_training_rows_than_features(self, tmp_path, n):
        cohort = tmp_path / "small.csv"
        assert run(["generate", "--n", str(n), "--seed", "3", "--out", str(cohort)]) == 0
        report, _ = study_files(tmp_path, cohort, "small")
        assert len(json.loads(report.read_text())["entries"]) == 12

    @pytest.mark.parametrize("seed", ["-5", "-1"])
    def test_negative_seed_is_usage_error(self, tmp_path, cohort_csv, capsys, seed):
        code = run(
            ["study", "--data", str(cohort_csv), "--seed", seed, "--out-report",
             str(tmp_path / "r.json"), "--out-models", str(tmp_path / "m.json")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "--seed" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "m.json").exists()

    def test_unlabeled_data_is_data_error(self, tmp_path):
        unlabeled = tmp_path / "unlabeled.csv"
        header = "age," + ",".join(f"ei_intra_{c}" for c in range(1, 13))
        rows = [",".join(["2.5"] + ["5.0"] * 12)] * 12
        unlabeled.write_text(header + "\n" + "\n".join(rows) + "\n")
        code = run(
            ["study", "--data", str(unlabeled), "--out-report", str(tmp_path / "r.json"),
             "--out-models", str(tmp_path / "m.json")]
        )
        assert code == 2


class TestPredict:
    def test_predictions_csv(self, tmp_path, cohort_csv):
        _, models = study_files(tmp_path, cohort_csv, "pred")
        out = tmp_path / "pred.csv"
        assert run(["predict", "--models", str(models), "--data", str(cohort_csv), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(f"pred_ei_1m_{c}" for c in range(1, 13))
        assert len(lines) == 31
        values = [float(v) for v in lines[1].split(",")]
        assert len(values) == 12

    def test_predict_works_without_labels(self, tmp_path, cohort_csv):
        _, models = study_files(tmp_path, cohort_csv, "nolabel")
        unlabeled = tmp_path / "new_patients.csv"
        header = "age," + ",".join(f"ei_intra_{c}" for c in range(1, 13))
        unlabeled.write_text(header + "\n" + ",".join(["3.0"] + ["5.5"] * 12) + "\n")
        out = tmp_path / "p.csv"
        assert run(["predict", "--models", str(models), "--data", str(unlabeled), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("child", [0, 999])  # self-loop, beyond the tree
    def test_malformed_tree_table_is_data_error(self, tmp_path, cohort_csv, capsys, child):
        _, models = study_files(tmp_path, cohort_csv, "tree")
        data = np.random.default_rng(0)
        X = data.uniform(1.0, 6.0, size=(30, 1))
        estimator = BoostedTreesRegressor(trees=3).fit(X, X[:, 0] + data.normal(size=30))
        model = ChannelModel(
            channel=1, kind=ModelKind.BDTR, group=FeatureGroup.G1, rmse=1.0, estimator=estimator
        ).to_dict()
        assert model["params"]["trees"][0]["feature"][0] == 0
        model["params"]["trees"][0]["left"][0] = child
        doc = json.loads(models.read_text())
        doc["models"][0] = model
        models.write_text(json.dumps(doc))
        code = run(["predict", "--models", str(models), "--data", str(cohort_csv),
                    "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "malformed tree" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "probe",
        [
            "no_standardizer",
            "nan_weight",
            "g2_relabelled_g1",
            "duplicate_channel",
            "nan_leaf_value",
            "no_base_value",
            "channel_13",
            "zero_stdev",
            "string_weights",
            "string_hyper",
            "bool_tree_count",
            "negative_min_leaf",
            "nan_hyper",
            "unknown_hyper",
            "hidden_units_not_w1_width",
            "no_final_loss",
            "no_seed",
            "bool_format_version",
            "float_model_format_version",
            "negative_rmse",
            "tree_count_past_cap",
            "hidden_units_past_cap",
        ],
    )
    def test_malformed_bundle_is_data_error(self, tmp_path, cohort_csv, capsys, mixed_bundle, probe):
        doc = json.loads(bundle_to_json(mixed_bundle))
        # channels 6 (LR G2), 4 (BDTR G2) and 5 (NNR G1)
        lr_g2, bdtr, nnr = doc["models"][5], doc["models"][3], doc["models"][4]
        assert (lr_g2["kind"], lr_g2["group"], bdtr["kind"], nnr["kind"]) == ("LR", "G2", "BDTR", "NNR")
        if probe == "no_standardizer":
            del lr_g2["standardizer"]
        elif probe == "nan_weight":
            lr_g2["params"]["weights"][0] = float("nan")
        elif probe == "g2_relabelled_g1":
            lr_g2["group"] = "G1"
        elif probe == "duplicate_channel":
            doc["models"].append(dict(lr_g2))
        elif probe == "nan_leaf_value":
            bdtr["params"]["trees"][0]["value"][-1] = float("nan")
        elif probe == "no_base_value":
            del bdtr["params"]["base_value"]
        elif probe == "channel_13":
            lr_g2["channel"] = 13
        elif probe == "zero_stdev":
            lr_g2["standardizer"]["stdevs"][0] = 0.0
        elif probe == "string_weights":
            lr_g2["params"]["weights"] = ["1.0"] * 13
        elif probe == "string_hyper":
            lr_g2["hyper"]["ridge"] = "1e-8"
        elif probe == "bool_tree_count":
            bdtr["hyper"]["trees"] = True
        elif probe == "negative_min_leaf":
            bdtr["hyper"]["min_leaf"] = -7
        elif probe == "nan_hyper":
            nnr["hyper"]["step"] = float("nan")
        elif probe == "unknown_hyper":
            lr_g2["hyper"]["banana"] = 1
        elif probe == "hidden_units_not_w1_width":
            nnr["hyper"]["hidden_units"] += 1
        elif probe == "no_final_loss":
            del nnr["params"]["final_loss"]
        elif probe == "no_seed":
            del nnr["seed"]
        elif probe == "bool_format_version":
            doc["format_version"] = True
        elif probe == "float_model_format_version":
            lr_g2["format_version"] = 1.0
        elif probe == "negative_rmse":
            lr_g2["rmse"] = -3.0
        elif probe == "tree_count_past_cap":
            bdtr["hyper"]["trees"] = 10**12
        elif probe == "hidden_units_past_cap":
            nnr["hyper"]["hidden_units"] = 10**12
        models, out = tmp_path / "models.json", tmp_path / "p.csv"
        models.write_text(json.dumps(doc))
        code = run(["predict", "--models", str(models), "--data", str(cohort_csv), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_a_bundle_that_lacks_a_hyperparameter_is_data_error(self, tmp_path, cohort_csv, capsys,
                                                               mixed_bundle):
        """A deleted ``hyper`` key would take its default, and the bundle
        would no longer save back to itself."""
        doc = json.loads(bundle_to_json(mixed_bundle))
        lr = doc["models"][0]
        assert (lr["kind"], lr["hyper"]) == ("LR", {"ridge": 1e-08})
        lr["hyper"]["ridge"] = 1000000.0
        models, out = tmp_path / "models.json", tmp_path / "p.csv"
        models.write_text(json.dumps(doc))
        assert run(["predict", "--models", str(models), "--data", str(cohort_csv), "--out", str(out)]) == 0
        out.unlink()
        capsys.readouterr()
        del lr["hyper"]["ridge"]
        models.write_text(json.dumps(doc))
        code = run(["predict", "--models", str(models), "--data", str(cohort_csv), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("data error: bundle does not save back to itself at models[0].hyper.ridge: "
                       "it holds no such key, its writer writes 1e-08\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ['{"format_version": 1, "models": [%s]}' % ("9" * 5000), "[" * 100_000 + "]" * 100_000],
        ids=["long_integer", "deep_nesting"],
    )
    def test_unparsable_bundle_is_data_error(self, tmp_path, cohort_csv, capsys, text):
        """Raw text: ``json.dumps`` would refuse the integer and recurse on the nesting."""
        models, out = tmp_path / "models.json", tmp_path / "p.csv"
        models.write_text(text)
        code = run(["predict", "--models", str(models), "--data", str(cohort_csv), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: bundle is not valid JSON: ")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("probe", ["huge_weights", "huge_cell"])
    def test_non_finite_prediction_is_data_error(self, tmp_path, cohort_csv, capsys, mixed_bundle, probe):
        """Finite numbers whose products overflow: 1.7e308 as channel 2's BLR
        G2 weights, or as an age under channel 1's LR G1 slope of 10."""
        doc = json.loads(bundle_to_json(mixed_bundle))
        lr_g1, blr_g2 = doc["models"][0], doc["models"][1]
        assert (lr_g1["kind"], lr_g1["group"], blr_g2["kind"], blr_g2["group"]) == ("LR", "G1", "BLR", "G2")
        data = cohort_csv
        if probe == "huge_weights":
            blr_g2["params"]["weights"] = [1.7e308] * 13
            blr_g2["params"]["intercept"] = 1.7e308
            channel = 2
        else:
            lr_g1["params"]["weights"] = [10.0]
            data = tmp_path / "huge.csv"
            header, first, *rest = cohort_csv.read_text().splitlines()
            data.write_text("\n".join([header, "1.7e308" + first[first.index(","):], *rest]) + "\n")
            channel = 1
        models, out = tmp_path / "models.json", tmp_path / "p.csv"
        models.write_text(json.dumps(doc))
        code = run(["predict", "--models", str(models), "--data", str(data), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"data error: channel {channel}: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_header_only_csv_writes_header(self, tmp_path, mixed_bundle):
        models, data, out = tmp_path / "models.json", tmp_path / "empty.csv", tmp_path / "p.csv"
        models.write_text(bundle_to_json(mixed_bundle))
        data.write_text("age," + ",".join(f"ei_intra_{c}" for c in range(1, 13)) + "\n")
        assert run(["predict", "--models", str(models), "--data", str(data), "--out", str(out)]) == 0
        assert out.read_text() == ",".join(f"pred_ei_1m_{c}" for c in range(1, 13)) + "\n"

    def test_missing_bundle_file_is_data_error(self, tmp_path, cohort_csv):
        code = run(["predict", "--models", str(tmp_path / "absent.json"), "--data", str(cohort_csv),
                    "--out", str(tmp_path / "p.csv")])
        assert code == 2

    def test_bad_bundle_is_data_error(self, tmp_path, cohort_csv):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = run(["predict", "--models", str(bad), "--data", str(cohort_csv), "--out", str(tmp_path / "p.csv")])
        assert code == 2


class TestReport:
    def test_text_render_to_stdout(self, tmp_path, cohort_csv, capsys):
        report, _ = study_files(tmp_path, cohort_csv, "render")
        assert run(["report", "--in", str(report), "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "EI_1M_1" in out and "EI_1M_12" in out
        assert "Best Algorithm" in out
        assert ">=3" in out

    def test_json_render_roundtrips(self, tmp_path, cohort_csv):
        report, _ = study_files(tmp_path, cohort_csv, "json")
        out = tmp_path / "again.json"
        assert run(["report", "--in", str(report), "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == json.loads(report.read_text())

    def test_csv_render(self, tmp_path, cohort_csv):
        report, _ = study_files(tmp_path, cohort_csv, "csv")
        out = tmp_path / "table.csv"
        assert run(["report", "--in", str(report), "--format", "csv", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 13

    def test_report_template_is_valid(self, tmp_path, capsys):
        """The malformed reports below each break one part of this document."""
        good = tmp_path / "report.json"
        good.write_text(REPORT_TEMPLATE % ENTRY_TEMPLATE % 1)
        assert run(["report", "--in", str(good), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("EI_1M_1,LR,1,1.000000,1,")

    @pytest.mark.parametrize(
        "text",
        [
            "not json {",
            "[1, 2]",
            '{"format_version": 1, "config": {}, "histogram": {}}',
            REPORT_TEMPLATE % ENTRY_TEMPLATE % 13,
            REPORT_TEMPLATE % ", ".join([ENTRY_TEMPLATE % 1] * 2),
            bad_entry('"rmse": 1.0', '"rmse": "nan"'),
            bad_entry('"rmse": 1.0', '"rmse": "0.5"'),
            bad_entry('"rmse": 1.0', '"rmse": true'),
            bad_entry('"rmse": 1.0', '"rmse": 1e999'),
            bad_entry('"counts": [1, 0, 0, 0]', '"counts": ["1", "0", "0", "0"]'),
            bad_entry('"counts": [1, 0, 0, 0]', '"counts": [1.5, 0, 0, 0]'),
            bad_entry('"counts": [1, 0, 0, 0]', '"counts": [2, -1, 0, 0]'),
            bad_entry('"n_test": 1', '"n_test": true'),
            bad_entry('"n_test": 1', '"n_test": "1"'),
            REPORT_TEMPLATE.replace('"config": {}', '"config": {"seed": NaN}') % ENTRY_TEMPLATE % 1,
            bad_entry('"rmse": 1.0', '"rmse": -1.0'),
            bad_histogram('{"LR": "x", "ZZ": -4}'),
            bad_histogram('{"LR": true, "BLR": 0, "DFR": 0, "BDTR": 0, "NNR": 0}'),
            bad_histogram('{"LR": 1.0, "BLR": 0, "DFR": 0, "BDTR": 0, "NNR": 0}'),
            bad_histogram('{"LR": 0, "BLR": 1, "DFR": 0, "BDTR": 0, "NNR": 0}'),
            bad_histogram('{"LR": 1}'),
            bad_histogram('[["LR", 1], ["BLR", 0], ["DFR", 0], ["BDTR", 0], ["NNR", 0]]'),
            REPORT_TEMPLATE.replace('"config": {}', '"config": [["seed", 1]]') % ENTRY_TEMPLATE % 1,
            REPORT_TEMPLATE.replace('"format_version": 1', '"format_version": true') % ENTRY_TEMPLATE % 1,
            REPORT_TEMPLATE.replace('"format_version": 1', '"format_version": 1.0') % ENTRY_TEMPLATE % 1,
            bad_entry('"n_test": 1', '"n_test": ' + "9" * 5000),
            "[" * 100_000 + "]" * 100_000,
            bad_entry('"pct": [100.0, 0.0, 0.0, 0.0]', '"pct": [0.0, 100.0, 0.0, 0.0]'),
            bad_entry('"cum_0_2": 100.0', '"cum_0_2": 99.0'),
            bad_entry('"cum_0_3": 100.0', '"cum_0_3": 0.0'),
            bad_entry('"pct": [100.0, 0.0, 0.0, 0.0], ', ''),
            bad_entry('"rmse": 1.0', '"rmse": 1.0, "note": "unknown key"'),
        ],
        ids=["not_json", "not_object", "no_entries", "channel_13", "duplicate_entry",
             "string_nan_rmse", "string_rmse", "bool_rmse", "overflow_rmse", "string_counts",
             "fractional_count", "negative_count", "bool_n_test", "string_n_test", "nan_config",
             "negative_rmse", "histogram_of_strings", "histogram_bool_count",
             "histogram_float_count", "histogram_wrong_kind", "histogram_missing_kinds",
             "histogram_pairs", "config_pairs", "bool_format_version", "float_format_version",
             "long_integer", "deep_nesting", "pct_disagrees", "cum_0_2_disagrees",
             "cum_0_3_disagrees", "no_pct", "unknown_entry_key"],
    )
    def test_malformed_report_is_data_error(self, tmp_path, capsys, text):
        bad = tmp_path / "report.json"
        bad.write_text(text)
        assert run(["report", "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and len(err.strip().splitlines()) == 1


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run([]) == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run(["generate", "--wat", "1", "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("sub", ["generate", "study", "predict", "report"])
    def test_help_exits_zero_and_documents_flags(self, sub, capsys):
        with pytest.raises(SystemExit) as info:
            run([sub, "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        assert "--" in text

    @pytest.mark.parametrize("command", ["generate", "study_report", "study_models", "predict", "report"])
    def test_unwritable_output_is_data_error(self, tmp_path, cohort_csv, capsys, mixed_bundle, command):
        missing = str(tmp_path / "no_such_dir" / "out")
        models = tmp_path / "models.json"
        models.write_text(bundle_to_json(mixed_bundle))
        report, _ = study_files(tmp_path, cohort_csv, "written")
        capsys.readouterr()
        study = ["study", "--data", str(cohort_csv), *FAST_HYPER]
        argv = {
            "generate": ["generate", "--n", "5", "--out", missing],
            "study_report": [*study, "--out-report", missing, "--out-models", str(tmp_path / "m.json")],
            "study_models": [*study, "--out-report", str(tmp_path / "r.json"), "--out-models", missing],
            "predict": ["predict", "--models", str(models), "--data", str(cohort_csv), "--out", missing],
            "report": ["report", "--in", str(report), "--out", missing],
        }[command]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot write ") and len(err.strip().splitlines()) == 1
        if command == "study_models":  # a study writes its report and bundle both, or neither
            assert not (tmp_path / "r.json").exists()

    def test_one_path_for_both_documents_is_usage_error(self, tmp_path, cohort_csv, capsys):
        same = tmp_path / "same.json"
        argv = ["study", "--data", str(cohort_csv), *FAST_HYPER,
                "--out-report", str(same), "--out-models", str(tmp_path / "." / "same.json")]
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: --out-report and --out-models name the same file\n"
        assert not same.exists()

    @staticmethod
    def refused(argv, capsys, kept, message):
        """``argv`` is a usage error in one line, and the file ``kept`` keeps its bytes."""
        before = kept.read_bytes()
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message} name the same file\n"
        assert kept.read_bytes() == before

    def test_a_study_output_that_is_its_cohort_is_usage_error(self, tmp_path, cohort_csv, capsys):
        argv = ["study", "--data", str(cohort_csv), *FAST_HYPER,
                "--out-report", str(cohort_csv), "--out-models", str(tmp_path / "m.json")]
        self.refused(argv, capsys, cohort_csv, "--data and --out-report")
        assert not (tmp_path / "m.json").exists()

    def test_a_prediction_output_that_is_an_input_is_usage_error(self, tmp_path, cohort_csv, capsys,
                                                                 mixed_bundle):
        """The bundle by its own path, and the cohort by a hard link."""
        models, linked = tmp_path / "models.json", tmp_path / "linked.csv"
        models.write_text(bundle_to_json(mixed_bundle))
        os.link(cohort_csv, linked)
        argv = ["predict", "--models", str(models), "--data", str(cohort_csv), "--out"]
        self.refused([*argv, str(models)], capsys, models, "--models and --out")
        self.refused([*argv, str(linked)], capsys, cohort_csv, "--data and --out")

    def test_a_rendered_report_that_is_its_input_is_usage_error(self, tmp_path, capsys):
        """The report by its own path, and by a symbolic link; a device is
        no input's file."""
        report, linked = tmp_path / "report.json", tmp_path / "linked.json"
        report.write_text(REPORT_TEMPLATE % ENTRY_TEMPLATE % 1)
        linked.symlink_to(report)
        for out in (report, linked):
            self.refused(["report", "--in", str(report), "--out", str(out)], capsys, report,
                         "--in and --out")
        assert run(["report", "--in", str(report), "--out", os.devnull]) == 0

    def test_internal_failure_maps_to_exit_3(self, tmp_path, cohort_csv, monkeypatch, capsys):
        import impforecast.commands as commands
        from impforecast.errors import LengthMismatchError

        def boom(cohort, config):
            raise LengthMismatchError("prediction/target shapes differ: (3,) vs (4,)")

        monkeypatch.setattr(commands, "run_study", boom)
        code = run(
            ["study", "--data", str(cohort_csv), "--out-report", str(tmp_path / "r.json"),
             "--out-models", str(tmp_path / "m.json")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err == "internal error: prediction/target shapes differ: (3,) vs (4,)\n"

    def test_unexpected_exception_is_one_line_internal_error(self, tmp_path, cohort_csv, monkeypatch, capsys):
        import impforecast.cli as cli

        def bug(args):
            raise RuntimeError("unexpected\nstate")

        monkeypatch.setitem(cli._COMMANDS, "study", bug)
        code = run(
            ["study", "--data", str(cohort_csv), "--out-report", str(tmp_path / "r.json"),
             "--out-models", str(tmp_path / "m.json")]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err == "internal error: RuntimeError: unexpected state\n"


# --- failed writes, in a fresh interpreter ------------------------------------

SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli_process(args, stdout=subprocess.DEVNULL, fsize=None) -> subprocess.CompletedProcess:
    """``impforecast args`` run by a fresh interpreter from this source tree.
    With ``fsize``, the child alone may write no file past ``fsize`` bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    limit = None if fsize is None else lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (fsize, fsize))
    return subprocess.run([sys.executable, "-m", "impforecast.cli", *args], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, preexec_fn=limit, text=True, timeout=120)


@pytest.fixture(scope="module")
def written_report(tmp_path_factory):
    folder = tmp_path_factory.mktemp("written")
    cohort = folder / "cohort.csv"
    assert run(["generate", "--n", "30", "--seed", "5", "--out", str(cohort)]) == 0
    return study_files(folder, cohort, "written")[0]


class TestFailedWrites:
    """A file or standard output that cannot be written is a data error
    (exit 2) in one stderr line, and no partial file is left."""

    @pytest.mark.parametrize("command", ["generate", "predict", "report"])
    def test_a_write_past_the_file_size_limit_leaves_no_file(self, tmp_path, cohort_csv, mixed_bundle,
                                                              written_report, command):
        out = tmp_path / "out"
        models = tmp_path / "models.json"
        models.write_text(bundle_to_json(mixed_bundle))
        argv = {
            "generate": ["generate", "--n", "30", "--out", str(out)],
            "predict": ["predict", "--models", str(models), "--data", str(cohort_csv), "--out", str(out)],
            "report": ["report", "--in", str(written_report), "--out", str(out)],
        }[command]
        assert run(argv) == 0 and out.stat().st_size > 1024  # without the limit, past it
        out.unlink()
        proc = cli_process(argv, fsize=512)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("data error: cannot write ") and len(proc.stderr.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("stdout", ["a closed pipe", "/dev/full"])
    def test_report_to_standard_output_that_fails_is_a_data_error(self, written_report, stdout):
        argv = ["report", "--in", str(written_report)]
        if stdout == "/dev/full":
            if not os.path.exists("/dev/full"):
                pytest.skip("needs /dev/full")
            with open("/dev/full", "w") as full:
                proc = cli_process(argv, stdout=full)
        else:
            read, write = os.pipe()
            os.close(read)  # before the child starts, so that its first write fails
            try:
                proc = cli_process(argv, stdout=write)
            finally:
                os.close(write)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("data error: cannot write standard output: ")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr


# --- README ----------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of each command in README's ``## Command line`` block, with
    its continuation lines joined and its comments dropped."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [argv for line in block.replace("\\\n", " ").splitlines()
            if (argv := shlex.split(line, comments=True))]


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    # step 4 reads new_patients.csv, which the block does not make
    monkeypatch.chdir(tmp_path)
    patients = generate_synthetic_cohort(5, 11)
    (tmp_path / "new_patients.csv").write_text(
        serialize_cohort_csv(Cohort(patients.ages, patients.intra)), encoding="utf-8")
    commands = readme_commands()
    steps = ("generate", "study", "report", "report", "predict")
    assert [argv[:2] for argv in commands] == [["impforecast", step] for step in steps]
    for argv in commands:
        assert run(argv[1:]) == 0, argv
    assert len((tmp_path / "predictions.csv").read_text().splitlines()) == 6


# --- random hyperparameters -------------------------------------------------------

# Valid values of every --hyper key. Ensemble sizes and epochs stay tiny so
# a study takes a fraction of a second; everything else spans its range,
# extreme values included, since a fit that fails must only be recorded.
_positive = st.floats(min_value=1e-6, max_value=1e3)
VALID_HYPER = {
    "lr.ridge": st.floats(min_value=0.0, max_value=1e6),
    "blr.alpha": _positive,
    "blr.beta": _positive,
    "blr.evidence_iters": st.integers(0, 5),
    "dfr.trees": st.integers(1, 3),
    "dfr.max_depth": st.integers(0, 8),
    "dfr.min_leaf": st.integers(1, 4),
    "dfr.feature_subset": st.one_of(st.none(), st.integers(1, 20)),
    "dfr.bootstrap": st.booleans(),
    "bdtr.trees": st.integers(1, 3),
    "bdtr.max_depth": st.integers(0, 4),
    "bdtr.learning_rate": _positive,
    "bdtr.min_leaf": st.integers(1, 4),
    "nnr.hidden_units": st.integers(1, 4),
    "nnr.epochs": st.integers(1, 5),
    "nnr.step": _positive,
    "nnr.momentum": st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    "nnr.init_scale": _positive,
}
TINY = ("dfr.trees", "bdtr.trees", "nnr.epochs")

_not_finite = st.sampled_from(["nan", "inf", "-inf"])
_fraction = st.floats(min_value=0.01, max_value=0.99).map(lambda f: f + 1)
_count_below = lambda low: st.one_of(  # noqa: E731
    st.integers(-1000, low - 1).map(str), _fraction.map(repr), st.sampled_from(["true", "none"])
)
_not_positive = st.one_of(st.floats(max_value=0.0, allow_nan=False).map(repr), _not_finite)
INVALID_HYPER = {
    "lr.ridge": st.one_of(st.floats(max_value=-1e-9, allow_nan=False).map(repr), _not_finite),
    "blr.alpha": _not_positive,
    "blr.beta": _not_positive,
    "blr.evidence_iters": _count_below(0),
    "dfr.trees": _count_below(1),
    "dfr.max_depth": _count_below(0),
    "dfr.min_leaf": _count_below(1),
    "dfr.feature_subset": st.one_of(st.integers(-1000, 0).map(str), _fraction.map(repr)),
    "dfr.bootstrap": st.one_of(st.integers().map(str), _fraction.map(repr), st.just("none")),
    "bdtr.trees": _count_below(1),
    "bdtr.max_depth": _count_below(0),
    "bdtr.learning_rate": _not_positive,
    "bdtr.min_leaf": _count_below(1),
    "nnr.hidden_units": _count_below(1),
    "nnr.epochs": _count_below(1),
    "nnr.step": _not_positive,
    "nnr.momentum": st.one_of(
        st.floats(min_value=1.0, allow_infinity=False).map(repr),
        st.floats(max_value=-1e-9, allow_infinity=False).map(repr),
        _not_finite,
    ),
    "nnr.init_scale": _not_positive,
}


def _text(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value)


@st.composite
def valid_hyper_args(draw):
    keys = draw(st.sets(st.sampled_from(sorted(VALID_HYPER))))
    args = []
    for key in sorted(set(keys) | set(TINY)):
        args += ["--hyper", f"{key}={_text(draw(VALID_HYPER[key]))}"]
    return args


@pytest.fixture(scope="module")
def twenty_patients(tmp_path_factory):
    path = tmp_path_factory.mktemp("hyper") / "cohort.csv"
    assert run(["generate", "--n", "20", "--seed", "9", "--out", str(path)]) == 0
    return path


def _study(cohort, out_dir, hyper_args):
    report, models = out_dir / "r.json", out_dir / "m.json"
    for path in (report, models):
        path.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["study", "--data", str(cohort), "--out-report", str(report),
                    "--out-models", str(models), *hyper_args])
    return code, err.getvalue(), report, models


@settings(max_examples=20, deadline=None)
@given(hyper_args=valid_hyper_args())
def test_random_valid_hypers_never_crash(twenty_patients, hyper_args):
    code, err, report, models = _study(twenty_patients, twenty_patients.parent, hyper_args)
    assert code == 0, err
    assert len(json.loads(report.read_text())["entries"]) == 12
    assert models.exists()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_invalid_hypers_exit_1(twenty_patients, data):
    key = data.draw(st.sampled_from(sorted(INVALID_HYPER)))
    value = data.draw(INVALID_HYPER[key])
    code, err, _, models = _study(
        twenty_patients, twenty_patients.parent, ["--hyper", f"{key}={value}"]
    )
    assert code == 1
    assert err.startswith("error: ") and key in err and len(err.strip().splitlines()) == 1
    assert not models.exists()


# --- random bundle corruptions -----------------------------------------------------

# Replacements for one value of a bundle: every kind of wrong type, null
# and empty containers, and numbers outside any range a field allows. All
# of them parse, so each reaches the bundle's model reader; the parser's
# refusal of non-finite tokens is tested in test_textio.py.
CORRUPTIONS = {
    "string": st.sampled_from(["", "1", "1e-8", "nan", "G1", "LR"]),
    "bool": st.booleans(),
    "empty": st.one_of(st.none(), st.builds(list), st.builds(dict)),
    "negative": st.one_of(st.integers(-(10**6), -1), st.floats(-1e6, -1e-9)),
    "huge": st.sampled_from([10**30, 2**64, 1e300, -1e300]),
}


def _corrupt(doc, data) -> None:
    """Delete one key or item of ``doc``, replace one value by a value of
    ``CORRUPTIONS``, or, if the value is a list, cut it short. The value is
    found by walking from the root to a leaf, then picking a depth along
    that path, so corruptions hit every level of the document and not
    mostly tree nodes."""
    path, node = [], doc
    while isinstance(node, (dict, list)) and node:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        node = node[key]
    path = path[: data.draw(st.integers(1, len(path)), label="depth")]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    how = data.draw(st.sampled_from(["delete", "cut", *CORRUPTIONS]), label="how")
    if how == "delete":
        del parent[key]
    elif how == "cut" and isinstance(parent[key], list) and parent[key]:
        del parent[key][data.draw(st.integers(0, len(parent[key]) - 1)):]
    elif how != "cut":
        parent[key] = data.draw(CORRUPTIONS[how])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_bundle_corruptions_exit_0_or_2(twenty_patients, mixed_bundle, data):
    doc = json.loads(bundle_to_json(mixed_bundle))
    _corrupt(doc, data)
    models, out = twenty_patients.parent / "corrupt.json", twenty_patients.parent / "p.csv"
    models.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["predict", "--models", str(models), "--data", str(twenty_patients),
                    "--out", str(out)])
    if code == 0:
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 20
        assert np.all(np.isfinite(np.array([row.split(",") for row in rows], dtype=float)))
    else:
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith("data error: ")
        assert len(err.getvalue().strip().splitlines()) == 1
        assert not out.exists()
