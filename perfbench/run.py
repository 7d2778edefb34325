"""Benchmark of the impforecast command line.

    python3 perfbench/run.py --workload study_paper --seed 1 --seconds 50 --trace 0

Run from the repository root. The package is imported from `src/`; nothing
is installed. With `--trace 0` the benchmark sets up the workload's input
files, then runs the workload's `impforecast` processes back to back for
`--seconds` seconds, checks every output and prints the end-to-end
metrics. With `--trace 1` it replays the same commands in-process through
`impforecast.cli.run_cli` with spans around the calls into each module,
and prints the per-layer metrics. The last line of standard output is the
result as one JSON object; the line before it holds the environment,
sample counts and output hashes. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import GROUPS, KINDS, ROOT_SPAN, Tracer, instrument, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

CHANNELS = tuple(range(1, 13))
BASE_COLUMNS = ("age",) + tuple(f"ei_intra_{c}" for c in CHANNELS)
TEST_FRACTION = 0.30  # the CLI's default held-out share
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
BATCH_SEED_OFFSET = 1_000_003
THREADS_VAR = "IMP_FORECAST_THREADS"
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    name: str
    cohort_n: int
    batch_n: int = 0  # > 0: predict this many unlabeled patients, fit nothing


# Why each workload exists is in perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("study_paper", 80),
        Workload("predict_mixed", 80, batch_n=2000),
    )
}

# end-to-end metric -> unit; direction and bound live in BENCHMARK.json
END_TO_END = {
    "session_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "selected_rmse_mean_kohm": "kOhm",
    "pct_err_lt_1kohm": "%",
    "setup_s": "s",
}


class SetupError(Exception):
    pass


# --- processes ------------------------------------------------------------------


@dataclass(frozen=True)
class Process:
    code: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop(THREADS_VAR, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_process(argv: list[str], log: Path) -> Process:
    """Run one `impforecast` CLI process to completion and measure it."""
    start = time.perf_counter()
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "impforecast.cli", *map(str, argv)],
            cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
        stderr=log.read_text(encoding="utf-8", errors="replace")[-500:],
    )


# --- inputs -----------------------------------------------------------------------


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def column_array(header: list[str], rows: list[list[str]], names) -> np.ndarray:
    index = [header.index(name) for name in names]
    return np.array([[float(row[i]) for i in index] for row in rows])


def features(header, rows, group: str) -> np.ndarray:
    """G1 is age alone; G2 is age plus the twelve intraoperative impedances."""
    return column_array(header, rows, BASE_COLUMNS[:1] if group == "G1" else BASE_COLUMNS)


def mixed_kind(channel: int) -> tuple[str, str]:
    """Channels 1..10 cover every kind x group pair once; 11 and 12 repeat 1 and 2."""
    return KINDS[(channel - 1) % len(KINDS)], GROUPS[(channel - 1) % len(GROUPS)]


@dataclass
class Inputs:
    cohort: Path
    batch: Path | None = None
    bundle: Path | None = None
    batch_features: dict[str, np.ndarray] = field(default_factory=dict)
    batch_labels: np.ndarray | None = None


def generate(n: int, seed: int, out: Path) -> None:
    proc = run_process(["generate", "--n", n, "--seed", seed, "--out", out], out.with_suffix(".log"))
    if proc.code != 0:
        raise SetupError(f"generate exited {proc.code}: {proc.stderr}")


def fit_mixed_bundle(cohort: Path, seed: int, out: Path) -> None:
    """Fit one model per channel, cycling through every kind and group."""
    from impforecast import ChannelModel, FeatureGroup, ModelBundle, ModelKind, make_regressor, save_bundle

    header, rows = read_table(cohort)
    models = []
    for channel in CHANNELS:
        kind, group = mixed_kind(channel)
        X = features(header, rows, group)
        y = column_array(header, rows, [f"ei_1m_{channel}"])[:, 0]
        estimator = make_regressor(ModelKind(kind), seed=seed + channel).fit(X, y)
        fit_rmse = float(np.sqrt(np.mean((estimator.predict(X) - y) ** 2)))
        models.append(
            ChannelModel(
                channel=channel, kind=ModelKind(kind), group=FeatureGroup(group),
                rmse=fit_rmse, estimator=estimator,
            )
        )
    save_bundle(ModelBundle(models=tuple(models)), out)


def set_up(workload: Workload, seed: int, directory: Path) -> Inputs:
    directory.mkdir(parents=True)
    inputs = Inputs(cohort=directory / "cohort.csv")
    generate(workload.cohort_n, seed, inputs.cohort)
    if not workload.batch_n:
        return inputs
    labeled = directory / "batch_labeled.csv"
    generate(workload.batch_n, seed + BATCH_SEED_OFFSET, labeled)
    header, rows = read_table(labeled)
    keep = [header.index(name) for name in BASE_COLUMNS]
    lines = [",".join(BASE_COLUMNS)] + [",".join(row[i] for i in keep) for row in rows]
    inputs.batch = directory / "batch.csv"
    inputs.batch.write_text("\n".join(lines) + "\n", encoding="utf-8")
    inputs.batch_features = {g: features(header, rows, g) for g in GROUPS}
    inputs.batch_labels = column_array(header, rows, [f"ei_1m_{c}" for c in CHANNELS])
    inputs.bundle = directory / "models.json"
    fit_mixed_bundle(inputs.cohort, seed, inputs.bundle)
    return inputs


# --- commands and output checks -------------------------------------------------------


def commands(workload: Workload, inputs: Inputs, out: Path, seed: int) -> list[list[str]]:
    if workload.batch_n:
        return [["predict", "--models", inputs.bundle, "--data", inputs.batch, "--out", out / "predictions.csv"]]
    report = out / "report.json"
    return [
        ["study", "--data", inputs.cohort, "--seed", seed, "--out-report", report,
         "--out-models", out / "models.json"],
        ["report", "--in", report, "--format", "text", "--out", out / "report.txt"],
        ["report", "--in", report, "--format", "csv", "--out", out / "report.csv"],
    ]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expected_test_rows(n: int) -> int:
    return max(1, min(n - 1, math.floor(n * TEST_FRACTION + 0.5)))


@dataclass
class Outcome:
    """What the checks found in one session's outputs."""

    failures: list[str]
    accuracy: tuple[float, float] | None = None  # (mean RMSE kOhm, % |error| < 1 kOhm)
    hashes: dict[str, str] = field(default_factory=dict)


def check_study(workload: Workload, out: Path) -> Outcome:
    fails: list[str] = []
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    entries = report["entries"]
    if sorted(e["channel"] for e in entries) != list(CHANNELS):
        fails.append(f"report has channels {[e['channel'] for e in entries]}, expected 1..12")
    n_test = expected_test_rows(workload.cohort_n)
    for e in entries:
        bands = e["bands"]
        if sum(bands["counts"]) != bands["n_test"] or bands["n_test"] != n_test:
            fails.append(f"channel {e['channel']}: band counts {bands['counts']} vs n_test "
                         f"{bands['n_test']}, expected {n_test}")
    bundle = json.loads((out / "models.json").read_text(encoding="utf-8"))
    if sorted(m["channel"] for m in bundle["models"]) != list(CHANNELS):
        fails.append("bundle does not hold exactly channels 1..12")
    labels = [f"EI_1M_{c}" for c in CHANNELS]
    csv_lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    if [line.split(",")[0] for line in csv_lines[1:]] != labels:
        fails.append("report CSV does not have one row per channel")
    text = (out / "report.txt").read_text(encoding="utf-8")
    if not all(label in text for label in labels):
        fails.append("text report misses a channel")
    counted = sum(e["bands"]["counts"][0] for e in entries)
    tested = sum(e["bands"]["n_test"] for e in entries)
    accuracy = (statistics.fmean(e["rmse"] for e in entries), 100.0 * counted / tested)
    hashes = {"report_json": sha256(out / "report.json"), "bundle_json": sha256(out / "models.json")}
    return Outcome(fails, accuracy, hashes)


class PredictReference:
    """In-process predictions of the workload's bundle, for a bit-exact check.

    A channel's column must equal, byte for byte, the estimator's `predict`
    on the whole batch or on one patient at a time; the two can differ in
    the last bit where BLAS blocks a matrix product differently.
    """

    def __init__(self, inputs: Inputs):
        from impforecast import bundle_from_json

        bundle = bundle_from_json(inputs.bundle.read_text(encoding="utf-8"))
        self._models = {m.channel: m for m in bundle.models}
        self._features = inputs.batch_features
        self._whole = {c: self._predict(c, whole=True) for c in CHANNELS}
        self._rowwise: dict[int, np.ndarray] = {}

    def _predict(self, channel: int, whole: bool) -> np.ndarray:
        model = self._models[channel]
        X = self._features[model.group.value]
        if whole:
            return np.asarray(model.estimator.predict(X), dtype=float)
        return np.array([model.estimator.predict(X[i : i + 1])[0] for i in range(X.shape[0])])

    def matches(self, channel: int, column: np.ndarray) -> bool:
        data = np.ascontiguousarray(column).tobytes()
        if data == self._whole[channel].tobytes():
            return True
        if channel not in self._rowwise:
            self._rowwise[channel] = self._predict(channel, whole=False)
        return data == self._rowwise[channel].tobytes()


def check_predict(inputs: Inputs, reference: PredictReference, out: Path) -> Outcome:
    path = out / "predictions.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != inputs.batch_labels.shape[0] or any(len(r) != len(CHANNELS) for r in rows):
        return Outcome([f"predictions CSV has {len(rows)} rows, not one row of 12 values per patient"])
    try:
        P = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        return Outcome([f"predictions CSV has a non-number: {exc}"])
    if not np.all(np.isfinite(P)):
        return Outcome(["predictions CSV has non-finite values"])
    fails = [
        f"channel {c}: CLI predictions differ from the in-process estimator"
        for c in CHANNELS if not reference.matches(c, P[:, c - 1])
    ]
    err = P - inputs.batch_labels
    accuracy = (
        float(np.mean(np.sqrt(np.mean(err**2, axis=0)))),
        100.0 * float(np.mean(np.abs(err) < 1.0)),
    )
    hashes = {"bundle_json": sha256(inputs.bundle), "predictions_csv": sha256(path)}
    return Outcome(fails, accuracy, hashes)


class Checker:
    """Checks each session's outputs and that they repeat the first session's bytes."""

    def __init__(self, workload: Workload, inputs: Inputs, out: Path):
        self.workload, self.inputs, self.out = workload, inputs, out
        self.reference = PredictReference(inputs) if workload.batch_n else None
        self.first: Outcome | None = None
        self.failures: list[str] = []

    def clear(self) -> None:
        for path in self.out.iterdir():
            path.unlink()

    def check(self, failure: str | None) -> bool:
        if failure is None:
            try:
                outcome = (check_predict(self.inputs, self.reference, self.out) if self.reference
                           else check_study(self.workload, self.out))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                outcome = Outcome([f"unreadable output: {exc!r}"])
            if self.first is None and not outcome.failures:
                self.first = outcome
            elif self.first is not None and outcome.hashes != self.first.hashes:
                outcome.failures.append("output bytes differ from the first session's")
            failure = "; ".join(outcome.failures) or None
        if failure is not None:
            self.failures.append(failure)
            print(f"perfbench: check failed: {failure}", file=sys.stderr)
        return failure is None


# --- measurement ------------------------------------------------------------------------


def another(start: float, times: list[float], seconds: float) -> bool:
    """Whether to run one more session in a window of `seconds` from `start`.

    One more runs while at least half of it, judged by the last session,
    still fits, so a run ends on average when its window does and uses
    all of it.
    """
    return not times or time.perf_counter() - start + times[-1] / 2 <= seconds


def environment() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
        "git_commit": commit,
    }


def measure_end_to_end(workload: Workload, seed: int, seconds: float, work: Path, info: dict):
    setup_times, inputs = [], None
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = set_up(workload, seed, work / f"setup{i}")
        setup_times.append(time.perf_counter() - start)
    out = work / "out"
    out.mkdir()
    checker = Checker(workload, inputs, out)
    argvs = commands(workload, inputs, out, seed)
    walls, cpus, rss, by_command = [], [], [], {argv[0]: [] for argv in argvs}
    start = time.perf_counter()
    while another(start, walls, seconds):
        checker.clear()
        session_start, cpu, peak, failure = time.perf_counter(), 0.0, 0, None
        for argv in argvs:
            proc = run_process(argv, work / f"{argv[0]}.log")
            cpu, peak = cpu + proc.cpu_s, max(peak, proc.rss_kb)
            by_command[argv[0]].append(proc.wall_s)
            if proc.code != 0:
                failure = f"{argv[0]} exited {proc.code}: {proc.stderr}"
                break
        walls.append(time.perf_counter() - session_start)
        if checker.check(failure):
            cpus.append(cpu)
            rss.append(peak)
    attempted, failed = len(walls), len(checker.failures)
    accuracy = checker.first.accuracy if checker.first else (None, None)
    values = {
        "session_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus) if cpus else None,
        "peak_rss_mb": statistics.median(rss) * 1024 / 1e6 if rss else None,
        "success_rate": (attempted - failed) / attempted,
        "selected_rmse_mean_kohm": accuracy[0],
        "pct_err_lt_1kohm": accuracy[1],
        "setup_s": statistics.median(setup_times),
    }
    info["samples"] = {"setup_s": len(setup_times), "session_s": len(walls), "cpu_s": len(cpus),
                       "peak_rss_mb": len(rss)}
    info["session_s_samples"] = walls
    info["cpu_s_samples"] = cpus
    info["command_s"] = {name: statistics.median(times) for name, times in by_command.items() if times}
    if workload.batch_n:
        info["predict_rows_per_s"] = workload.batch_n / info["command_s"]["predict"]
    info["sha256"] = {"cohort_csv": sha256(inputs.cohort), **(checker.first.hashes if checker.first else {})}
    info["failures"] = checker.failures[:5]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return attempted, failed, metrics


PER_LAYER_UNITS = {"calls": "count", "rows": "count", "nodes": "count", "failed": "count",
                   "per_s": "1/s", "ratio": "ratio", "coverage": "ratio", "bytes": "bytes"}


def unit_of(metric: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "s"


def measure_layers(workload: Workload, seed: int, seconds: float, work: Path, info: dict):
    import impforecast.cli as cli

    inputs = set_up(workload, seed, work / "setup0")
    out = work / "out"
    out.mkdir()
    checker = Checker(workload, inputs, out)
    argvs = [[str(a) for a in argv] for argv in commands(workload, inputs, out, seed)]
    startup = [run_process(["--help"], work / "help.log").wall_s for _ in range(STARTUP_REPEATS)]

    def replay(tracer: Tracer | None) -> tuple[float, str | None]:
        checker.clear()
        start = time.perf_counter()
        for argv in argvs:
            if tracer is None:
                code = cli.run_cli(argv)
            else:
                with tracer.span(ROOT_SPAN):
                    code = cli.run_cli(argv)
            if code != 0:
                return time.perf_counter() - start, f"{argv[0]} exited {code}"
        return time.perf_counter() - start, None

    untraced = []
    start = time.perf_counter()
    while another(start, untraced, seconds / 2):
        wall, failure = replay(None)
        checker.check(failure)
        untraced.append(wall)
    tracer = Tracer()
    instrument(tracer)
    traced, failure = replay(tracer)
    values = layer_metrics(tracer, traced, winners_per_study=len(CHANNELS))
    checker.check(failure)  # after the metrics: checking may call traced functions
    values["cli.startup_s"] = statistics.median(startup)
    bundle = inputs.bundle if workload.batch_n else out / "models.json"
    values["bundle.bytes"] = bundle.stat().st_size if bundle.exists() else None
    values["trace.overhead_s"] = traced - statistics.median(untraced)
    info["samples"] = {"cli.startup_s": len(startup), "untraced_replay_s": len(untraced), "traced_replay": 1}
    info["untraced_replay_s"] = statistics.median(untraced)
    info["missing"] = sorted(name for name, value in values.items() if value is None)
    info["failures"] = checker.failures[:5]
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    spans_path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "wall_s": traced,
        "fields": ["name", "start_s", "end_s", "parent"],
        "spans": [[n, s - origin, e - origin, p] for n, s, e, p in tracer.spans],
    }) + "\n", encoding="utf-8")
    info["spans_file"] = str(spans_path.relative_to(ROOT))
    attempted = len(untraced) + 1
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(values.items())}
    return attempted, len(checker.failures), metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "impforecast" / "cli.py").is_file():
        print(f"perfbench: no impforecast package under {SRC}", file=sys.stderr)
        return 2

    # turn SIGTERM into an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.pop(THREADS_VAR, None)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment()}
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        attempted, failed, metrics = measure(workload, args.seed, args.seconds, work, info)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
