"""Command-line interface.

Subcommands: ``generate`` (synthetic cohort CSV), ``study`` (train +
select per channel, write report JSON and model bundle), ``predict``
(per-channel predictions for new patients), ``report`` (render a saved
study). Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 internal failure. Diagnostics go to stderr, results to files/stdout.
"""

from __future__ import annotations

import argparse
import sys

from .bundle import load_bundle, save_bundle
from .dataio import generate_synthetic_cohort, parse_cohort_csv, serialize_cohort_csv
from .domain import CHANNELS
from .errors import DataInputError, ImpforecastError
from .pipeline import StudyConfig, predict_batch, report_from_json, report_to_json, run_study
from .report import FORMATS, RenderOptions, export_study

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exceptions (exit code 1)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer >= 0, as the random generators need."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="impforecast", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic labeled cohort CSV")
    gen.add_argument("--n", type=int, default=80, help="number of patients (default 80)")
    gen.add_argument("--seed", type=_seed, default=42, help="generator seed (default 42)")
    gen.add_argument("--out", required=True, help="output CSV path")

    study = sub.add_parser("study", help="run the per-channel selection study")
    study.add_argument("--data", required=True, help="labeled cohort CSV path")
    study.add_argument("--seed", type=_seed, default=42, help="master seed (default 42)")
    study.add_argument(
        "--test-fraction", type=float, default=0.30,
        help="held-out fraction of the cohort (default 0.30)",
    )
    study.add_argument(
        "--selection", choices=("test", "inner_validation"), default="test",
        help="rank candidates on the test split (default) or on a nested split",
    )
    study.add_argument("--out-report", required=True, help="study report JSON path")
    study.add_argument("--out-models", required=True, help="model bundle JSON path")
    study.add_argument(
        "--hyper", action="append", default=[], metavar="KIND.FIELD=VALUE",
        help="hyperparameter override, e.g. --hyper dfr.trees=50 (repeatable)",
    )

    pred = sub.add_parser("predict", help="predict one-month impedances for new patients")
    pred.add_argument("--models", required=True, help="model bundle JSON path")
    pred.add_argument("--data", required=True, help="patient CSV (labels optional)")
    pred.add_argument("--out", required=True, help="output predictions CSV path")

    rep = sub.add_parser("report", help="render a saved study report")
    rep.add_argument("--in", dest="in_path", required=True, help="study report JSON path")
    rep.add_argument("--format", choices=FORMATS, default="text", help="output format")
    rep.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def _coerce_override(raw: str) -> tuple[str, object]:
    key, sep, value = raw.partition("=")
    if not sep or not key or not value:
        raise UsageError(f"--hyper expects KIND.FIELD=VALUE, got {raw!r}")
    text = value.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return key.strip(), lowered == "true"
    if lowered in ("none", "null"):
        return key.strip(), None
    try:
        return key.strip(), int(text)
    except ValueError:
        pass
    try:
        return key.strip(), float(text)
    except ValueError:
        raise UsageError(f"--hyper value for {key!r} is not a number/bool: {text!r}") from None


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataInputError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataInputError(f"cannot write {path}: {exc}") from exc


def _cmd_generate(args) -> int:
    cohort = generate_synthetic_cohort(args.n, args.seed)
    _write_text(args.out, serialize_cohort_csv(cohort))
    print(f"wrote {len(cohort)} synthetic records to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_study(args) -> int:
    overrides = dict(_coerce_override(item) for item in args.hyper)
    try:
        config = StudyConfig(
            seed=args.seed,
            test_fraction=args.test_fraction,
            selection=args.selection,
            hyper=StudyConfig().hyper.with_overrides(overrides),
        )
    except (KeyError, ValueError) as exc:
        raise UsageError(str(exc.args[0])) from exc
    cohort = parse_cohort_csv(_read_text(args.data))
    report, models = run_study(cohort, config)
    _write_text(args.out_report, report_to_json(report))
    save_bundle(models, args.out_models)
    print(
        f"study complete: report -> {args.out_report}, models -> {args.out_models}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_predict(args) -> int:
    bundle = load_bundle(args.models).check_complete()
    cohort = parse_cohort_csv(_read_text(args.data))
    P = predict_batch(bundle, cohort)
    lines = [",".join(f"pred_ei_1m_{c}" for c in CHANNELS)]
    lines += [",".join(map(repr, row)) for row in P.tolist()]
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote predictions for {len(cohort)} records to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    report = report_from_json(_read_text(args.in_path))
    rendered = export_study(report, RenderOptions(format=args.format)).decode("utf-8")
    if args.out:
        _write_text(args.out, rendered)
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "study": _cmd_study,
    "predict": _cmd_predict,
    "report": _cmd_report,
}


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataInputError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ImpforecastError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # last resort: a bug, reported in one line, never a traceback
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_INTERNAL


def entry_point() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    entry_point()
