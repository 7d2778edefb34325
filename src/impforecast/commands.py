"""The ``study`` and ``predict`` commands: the ones that need numpy and the
estimators. ``cli`` imports this module on their first use.

This module must not import ``cli``: under ``python -m impforecast.cli``
that file runs as ``__main__``, so importing it again would load a second
copy whose ``UsageError`` the running ``run_cli`` does not catch. Each
command returns exit code 0 or raises.
"""

from __future__ import annotations

import sys

from .bundle import load_bundle, save_bundle
from .dataio import parse_cohort_csv
from .domain import CHANNELS
from .errors import UsageError
from .pipeline import StudyConfig, predict_batch, run_study
from .report import save_report
from .textio import discard, read_text, write_text


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


def study(args) -> int:
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
    cohort = parse_cohort_csv(read_text(args.data))
    report, models = run_study(cohort, config)
    save_report(report, args.out_report)
    try:
        save_bundle(models, args.out_models)
    except BaseException:  # a study writes both files or neither
        discard(args.out_report)
        raise
    print(
        f"study complete: report -> {args.out_report}, models -> {args.out_models}",
        file=sys.stderr,
    )
    return 0


def predict(args) -> int:
    bundle = load_bundle(args.models)
    cohort = parse_cohort_csv(read_text(args.data))
    P = predict_batch(bundle, cohort)
    header = ",".join(f"pred_ei_1m_{c}" for c in CHANNELS) + "\n"
    write_text(args.out, [header, *(",".join(map(repr, row)) + "\n" for row in P.tolist())])
    print(f"wrote predictions for {len(cohort)} records to {args.out}", file=sys.stderr)
    return 0


COMMANDS = {"study": study, "predict": predict}
