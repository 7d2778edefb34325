"""What each entry point imports, checked in fresh interpreters, and the
``python -m impforecast.cli`` route.

``import impforecast``, ``--help`` and ``report`` must not load numpy or
the estimators; the package's public names load on first access. No
command loads an executor's modules or ``selectors``: a study forks its
workers itself and reads their pipes one after another.
Neither a study, in its parent or its workers, nor ``predict`` loads
``numpy.random`` or the ``secrets``/``hmac``/``_hashlib`` modules it pulls
in: a study draws from ``seeding.PCG64Stream``.
A command that loads numpy asks OpenBLAS for one thread first, unless the
user chose a thread count or numpy is already loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import impforecast
from impforecast.cli import run_cli
from impforecast.domain import FeatureGroup, ModelKind
from impforecast.report import ErrorBands, SelectionEntry, StudyReport, report_to_json

SRC = str(Path(impforecast.__file__).resolve().parent.parent)
HEAVY = ("numpy", "impforecast.regressors")
POOL = ("multiprocessing", "concurrent.futures", "subprocess", "socket", "logging", "queue",
        "selectors")
RANDOM = ("numpy.random", "secrets", "hmac", "_hashlib")


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def python(*args, cwd=None, blas_env=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the package from this source tree.
    With ``blas_env``, its BLAS thread variables are exactly those given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    if blas_env is not None:
        for name in BLAS_THREAD_VARS:
            env.pop(name, None)
        env.update(blas_env)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )


def modules_after(code: str, modules=HEAVY) -> list[str]:
    """The ``modules`` loaded once ``code`` has run in a fresh interpreter."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    proc = python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def saved_report(tmp_path_factory):
    entries = tuple(
        SelectionEntry(channel=c, kind=kind, group=FeatureGroup.G2, rmse=0.5 + c / 100,
                       bands=ErrorBands.from_counts((20, 3, 1, 0), 24))
        for c, kind in zip(range(1, 13), [ModelKind.BLR, ModelKind.NNR, ModelKind.LR] * 4)
    )
    report = StudyReport(entries=entries, config={"seed": 1})
    path = tmp_path_factory.mktemp("imports") / "report.json"
    path.write_text(report_to_json(report), encoding="utf-8")
    return path


def test_import_package_is_light():
    assert modules_after("import impforecast") == []


def test_help_is_light():
    code = "from impforecast.cli import run_cli\ntry:\n    run_cli(['--help'])\nexcept SystemExit:\n    pass"
    assert modules_after(code) == []


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_report_is_light(saved_report, tmp_path, fmt):
    out = tmp_path / f"report.{fmt}"
    argv = ["report", "--in", str(saved_report), "--format", fmt, "--out", str(out)]
    code = f"from impforecast.cli import run_cli\nassert run_cli({argv!r}) == 0"
    assert modules_after(code, HEAVY + POOL) == []
    assert out.stat().st_size > 0


def test_predict_loads_no_pool(tmp_path):
    cohort, report, models = (tmp_path / name for name in ("c.csv", "r.json", "m.json"))
    assert run_cli(["generate", "--n", "20", "--seed", "3", "--out", str(cohort)]) == 0
    assert run_cli(["study", "--data", str(cohort), "--out-report", str(report),
                    "--out-models", str(models), "--hyper", "dfr.trees=5",
                    "--hyper", "bdtr.trees=5", "--hyper", "nnr.epochs=20"]) == 0
    out = tmp_path / "p.csv"
    argv = ["predict", "--models", str(models), "--data", str(cohort), "--out", str(out)]
    code = f"from impforecast.cli import run_cli\nassert run_cli({argv!r}) == 0"
    assert modules_after(code, POOL + RANDOM) == []
    assert len(out.read_text().splitlines()) == 21


def test_pooled_study_loads_no_executor(tmp_path):
    cohort = tmp_path / "c.csv"
    assert run_cli(["generate", "--n", "20", "--seed", "3", "--out", str(cohort)]) == 0
    argv = ["study", "--data", str(cohort), "--out-report", str(tmp_path / "r.json"),
            "--out-models", str(tmp_path / "m.json"), "--hyper", "dfr.trees=5",
            "--hyper", "bdtr.trees=5", "--hyper", "nnr.epochs=20"]
    code = (
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "forks, fork = [], os.fork\n"
        "def counted():\n"
        "    pid = fork()\n"
        "    forks.append(pid)\n"
        "    return pid\n"
        "os.fork = counted\n"
        "from impforecast.cli import run_cli\n"
        f"assert run_cli({argv!r}) == 0\n"
        "assert len(forks) == 2, forks  # the study ran in two workers"
    )
    assert modules_after(code, POOL) == []


@pytest.mark.parametrize("cpus, selection, workers", [
    ({0, 1}, "test", 2),
    ({0}, "test", 0),  # one CPU: the study fits inline
    ({0, 1}, "inner_validation", 4),  # two grid rounds, each with a pool of 2
])
def test_study_loads_no_numpy_random(tmp_path, cpus, selection, workers):
    """Checked in the parent once the study is done, and in each worker as
    it exits (a worker ends with ``os._exit``, which the probe wraps)."""
    cohort, log = tmp_path / "c.csv", tmp_path / "workers.jsonl"
    assert run_cli(["generate", "--n", "20", "--seed", "3", "--out", str(cohort)]) == 0
    argv = ["study", "--data", str(cohort), "--out-report", str(tmp_path / "r.json"),
            "--out-models", str(tmp_path / "m.json"), "--selection", selection,
            "--hyper", "dfr.trees=5", "--hyper", "bdtr.trees=5", "--hyper", "nnr.epochs=20"]
    code = (
        "import json, os, sys\n"
        f"os.sched_getaffinity = lambda pid: {cpus!r}\n"
        "exit_now = os._exit\n"
        "def logged_exit(status):\n"
        f"    with open({str(log)!r}, 'a') as fh:\n"
        f"        fh.write(json.dumps([m for m in {RANDOM!r} if m in sys.modules]) + '\\n')\n"
        "    exit_now(status)\n"
        "os._exit = logged_exit\n"
        "from impforecast.cli import run_cli\n"
        f"assert run_cli({argv!r}) == 0"
    )
    assert modules_after(code, RANDOM) == []
    in_workers = log.read_text().splitlines() if log.exists() else []
    assert in_workers == ["[]"] * workers


def blas_env_after(code: str, blas_env: dict) -> tuple[dict, int | None]:
    """The BLAS thread variables in ``os.environ`` once ``code`` has run in a
    fresh interpreter started with exactly ``blas_env`` of them, and the
    process's thread count (None where /proc is not mounted)."""
    probe = (
        f"{code}\nimport json, os\n"
        "status = '/proc/self/status'\n"
        "threads = int(open(status).read().split('Threads:')[1].split()[0]) if os.path.exists(status) else None\n"
        f"print(json.dumps([{{n: os.environ[n] for n in {BLAS_THREAD_VARS!r} if n in os.environ}}, threads]))"
    )
    proc = python("-c", probe, blas_env=blas_env)
    assert proc.returncode == 0, proc.stderr
    blas, threads = json.loads(proc.stdout.splitlines()[-1])
    return blas, threads


def generate_code(tmp_path) -> str:
    argv = ["generate", "--n", "5", "--out", str(tmp_path / "c.csv")]
    return f"from impforecast.cli import run_cli\nassert run_cli({argv!r}) == 0"


def test_cli_runs_openblas_on_one_thread(tmp_path):
    blas, threads = blas_env_after(generate_code(tmp_path), {})
    assert blas == {"OPENBLAS_NUM_THREADS": "1"}
    assert threads in (None, 1)  # OpenBLAS read the variable: it started no pool


@pytest.mark.parametrize("user", [{"OMP_NUM_THREADS": "3"}, {"OPENBLAS_NUM_THREADS": "4"},
                                  {"GOTO_NUM_THREADS": "2"}])
def test_user_thread_count_is_kept(tmp_path, user):
    blas, _ = blas_env_after(generate_code(tmp_path), user)
    assert blas == user


def test_empty_thread_variable_is_no_choice(tmp_path):
    blas, _ = blas_env_after(generate_code(tmp_path), {"OMP_NUM_THREADS": ""})
    assert blas == {"OMP_NUM_THREADS": "", "OPENBLAS_NUM_THREADS": "1"}


def test_in_process_caller_with_numpy_loaded_is_left_alone(tmp_path):
    blas, _ = blas_env_after("import numpy\n" + generate_code(tmp_path), {})
    assert blas == {}


def test_light_commands_set_no_thread_count(saved_report):
    argv = ["report", "--in", str(saved_report), "--format", "csv"]
    code = f"from impforecast.cli import run_cli\nassert run_cli({argv!r}) == 0"
    blas, _ = blas_env_after(code, {})
    assert blas == {}


def test_study_loads_the_estimators():
    """The guard above is not vacuous: the other commands do load them."""
    assert modules_after("import impforecast.commands") == list(HEAVY)


def test_public_names_resolve():
    for name in impforecast.__all__:
        value = getattr(impforecast, name)
        if name != "__version__":
            source = sys.modules[f"impforecast.{impforecast._SOURCE[name]}"]
            assert value is getattr(source, name)
    assert set(impforecast.__all__) <= set(dir(impforecast))
    namespace = {}
    exec("from impforecast import *", namespace)
    assert set(impforecast.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        impforecast.no_such_name


class TestModuleRoute:
    """``python -m impforecast.cli``, the route the benchmark takes: there
    ``cli.py`` runs as ``__main__``."""

    def test_report_renders(self, saved_report):
        proc = python("-m", "impforecast.cli", "report", "--in", str(saved_report), "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        assert [line.split(",")[0] for line in proc.stdout.splitlines()[1:]] == [
            f"EI_1M_{c}" for c in range(1, 13)
        ]

    def test_unknown_hyper_key_is_usage_error(self, tmp_path):
        proc = python(
            "-m", "impforecast.cli", "study", "--data", str(tmp_path / "cohort.csv"),
            "--out-report", str(tmp_path / "r.json"), "--out-models", str(tmp_path / "m.json"),
            "--hyper", "bogus.key=1",
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and len(proc.stderr.strip().splitlines()) == 1
        assert "bogus.key" in proc.stderr

    def test_missing_report_is_data_error(self, tmp_path):
        proc = python("-m", "impforecast.cli", "report", "--in", str(tmp_path / "missing.json"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("data error: cannot read ")
        assert len(proc.stderr.strip().splitlines()) == 1
