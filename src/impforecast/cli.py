"""Command-line interface.

Subcommands: ``generate`` (synthetic cohort CSV), ``study`` (train +
select per channel, write report JSON and model bundle), ``predict``
(per-channel predictions for new patients), ``report`` (render a saved
study). Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 internal failure. Diagnostics go to stderr, results to files/stdout.

This module holds the parser, the dispatch, ``generate`` and ``report``.
``study`` and ``predict`` live in ``commands``, imported on first use, so
``--help`` and ``report`` load neither numpy nor the estimators, and
``generate`` loads only the cohort generator.

No command writes over a file it reads (see ``_refuse_overwriting``).

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
    gen_out = gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(reads=(), writes=(gen_out,))

    study = sub.add_parser("study", help="run the per-channel selection study")
    study_data = study.add_argument("--data", required=True, help="labeled cohort CSV path")
    study.add_argument("--seed", type=_seed, default=42, help="master seed (default 42)")
    study.add_argument(
        "--test-fraction", type=float, default=0.30,
        help="held-out fraction of the cohort (default 0.30)",
    )
    study.add_argument(
        "--selection", choices=("test", "inner_validation"), default="test",
        help="rank candidates on the test split (default) or on a nested split",
    )
    out_report = study.add_argument("--out-report", required=True, help="study report JSON path")
    out_models = study.add_argument("--out-models", required=True, help="model bundle JSON path")
    study.add_argument(
        "--hyper", action="append", default=[], metavar="KIND.FIELD=VALUE",
        help="hyperparameter override, e.g. --hyper dfr.trees=50 (repeatable)",
    )
    study.set_defaults(reads=(study_data,), writes=(out_report, out_models))

    pred = sub.add_parser("predict", help="predict one-month impedances for new patients")
    models = pred.add_argument("--models", required=True, help="model bundle JSON path")
    pred_data = pred.add_argument("--data", required=True, help="patient CSV (labels optional)")
    pred_out = pred.add_argument("--out", required=True, help="output predictions CSV path")
    pred.set_defaults(reads=(models, pred_data), writes=(pred_out,))

    rep = sub.add_parser("report", help="render a saved study report")
    rep_in = rep.add_argument("--in", dest="in_path", required=True, help="study report JSON path")
    rep.add_argument("--format", choices=FORMATS, default="text", help="output format")
    rep_out = rep.add_argument("--out", default=None, help="output path (default: stdout)")
    rep.set_defaults(reads=(rep_in,), writes=(rep_out,))
    return parser


def _refuse_overwriting(args) -> None:
    """Raise UsageError, before anything is read or written, if two of the
    command's outputs (``args.writes``) resolve to one path, or if an output
    is the same regular file as one of its inputs (``args.reads``), by
    device and inode, so that a link is caught too. A device such as
    /dev/null or /dev/stdout is left alone, as ``textio.discard`` leaves it."""
    reads = [(action.option_strings[0], getattr(args, action.dest)) for action in args.reads]
    writes = [(action.option_strings[0], getattr(args, action.dest)) for action in args.writes]
    for i, (option, path) in enumerate(writes):
        if not path:  # report to standard output
            continue
        for other, other_path in writes[i + 1 :]:
            if os.path.realpath(path) == os.path.realpath(other_path):
                raise UsageError(f"{option} and {other} name the same file")
        for other, other_path in reads:
            if _same_regular_file(other_path, path):
                raise UsageError(f"{other} and {option} name the same file")


def _same_regular_file(a, b) -> bool:
    try:
        return os.path.isfile(a) and os.path.samefile(a, b)
    except OSError:  # an output that does not exist yet
        return False


def _cmd_report(args) -> int:
    report = report_from_json(read_text(args.in_path))
    rendered = export_study(report, args.format).decode("utf-8")
    if args.out:
        write_text(args.out, [rendered])
        return EXIT_OK
    try:
        sys.stdout.write(rendered)
        sys.stdout.flush()  # here, so that a failed write is caught
    except OSError as exc:  # a full disk, or a reader that has closed the pipe
        raise DataInputError(f"cannot write standard output: {exc}") from None
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


def _cmd_generate(args) -> int:
    _one_blas_thread()
    from .dataio import generate_synthetic_cohort, serialize_cohort_csv  # loads numpy

    cohort = generate_synthetic_cohort(args.n, args.seed)
    write_text(args.out, [serialize_cohort_csv(cohort)])
    print(f"wrote {len(cohort)} synthetic records to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_elsewhere(args) -> int:
    """``study`` and ``predict``, from the module that holds them."""
    _one_blas_thread()
    from . import commands  # loads numpy and the estimators

    return commands.COMMANDS[args.command](args)


_COMMANDS = {
    "generate": _cmd_generate,
    "study": _cmd_elsewhere,
    "predict": _cmd_elsewhere,
    "report": _cmd_report,
}


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _refuse_overwriting(args)
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
