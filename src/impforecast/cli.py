"""Command-line interface.

Subcommands: ``generate`` (synthetic cohort CSV), ``study`` (train +
select per channel, write report JSON and model bundle), ``predict``
(per-channel predictions for new patients), ``report`` (render a saved
study). Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 internal failure. Diagnostics go to stderr, results to files/stdout.

This module holds the parser, the dispatch and ``report``. The other
commands live in ``commands``, imported on first use, so ``--help`` and
``report`` load neither numpy nor the estimators.

A command that loads numpy runs OpenBLAS on one thread unless the user
chose a thread count (see ``_one_blas_thread``).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DataInputError, ImpforecastError, UsageError
from .report import FORMATS, export_study, report_from_json
from .textio import read_text, write_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


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


def _cmd_report(args) -> int:
    report = report_from_json(read_text(args.in_path))
    rendered = export_study(report, args.format).decode("utf-8")
    if args.out:
        write_text(args.out, rendered)
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


# Any of these set to a value is the user's choice of OpenBLAS thread count;
# OpenBLAS reads an empty one as unset.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _one_blas_thread() -> None:
    """Ask OpenBLAS for one thread, before numpy loads it.

    OpenBLAS starts a pool of one thread per CPU when it loads, which neither
    a fit on tens of rows nor a batch predict uses; on a 2-vCPU host,
    starting it took about a fifth of a 2,000-patient ``predict``'s CPU
    time. Forked study workers inherit the setting. A thread count the user
    set is kept, and once numpy is loaded (an in-process caller) the
    variable would come too late, so it is not set.
    """
    if "numpy" in sys.modules or any(os.environ.get(name) for name in _BLAS_THREAD_VARS):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _cmd_elsewhere(args) -> int:
    """``generate``, ``study`` and ``predict``, from the module that holds them."""
    _one_blas_thread()
    from . import commands  # loads numpy and the estimators

    return commands.COMMANDS[args.command](args)


_COMMANDS = {
    "generate": _cmd_elsewhere,
    "study": _cmd_elsewhere,
    "predict": _cmd_elsewhere,
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
