"""The mutation gate: each mutant below must fail the tests named with it.

A mutant is one exact edit of the package's source, made in a copy: an
old text, found exactly once in its file, is replaced by a new text. The
gate first runs every named test on an unmutated copy, which must pass,
and then each mutant's tests on a copy that holds that mutant alone. It
fails if an old text is not found exactly once (a moved line is noticed
and does not rot silently), if the unmutated copy fails, or if any mutant
survives.

The copy holds ``src/``, ``tests/`` and the files the tests read, in a
temporary directory, and the tests run there with ``PYTHONPATH`` set to the
copy's ``src/``: some tests start ``python -m impforecast.cli`` on the
source next to their own file. The checkout is never edited. Hypothesis
runs with a fixed seed, so a run finds what the last one found.

Standard library only; pytest does not collect this file. Run it from
anywhere:

    python3 tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml")
PYTEST = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--hypothesis-seed=0")


class Mutant(NamedTuple):
    name: str
    path: str  # under src/impforecast
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids


MUTANTS = (
    Mutant(
        "the study scores each column against another channel's labels",
        "pipeline.py",
        "for c, model, y_test in zip(channels, models, Y_test.T)]",
        "for c, model, y_test in zip(channels[::-1], models, Y_test.T)]",
        ("tests/test_study_oracle.py::test_run_study_matches_the_serial_reference",),
    ),
    Mutant(
        "a cohort takes a zero",
        "domain.py",
        "bad = ~(np.isfinite(table) & (table > 0))",
        "bad = ~(np.isfinite(table) & (table >= 0))",
        ("tests/test_domain.py::test_cohort_holds_only_finite_positive_values",),
    ),
    Mutant(
        "the pruning bound is the largest linear RMSE",
        "pipeline.py",
        "bounds[r.channel] = min(r.rmse, bounds.get(r.channel, r.rmse))",
        "bounds[r.channel] = max(r.rmse, bounds.get(r.channel, r.rmse))",
        ("tests/test_pipeline.py::TestWorkerPool"
         "::test_a_pooled_record_keeps_its_model_only_if_it_can_win",),
    ),
    Mutant(
        "the fork map ignores its workers' exit status",
        "pipeline.py",
        "        if code or not message:",
        "        if not message:",
        ("tests/test_pipeline.py::TestWorkerPool"
         "::test_worker_killed_part_way_through_its_message_is_an_error",),
    ),
    Mutant(
        "a failed write leaves its partial file",
        "textio.py",
        "        if opened:\n            discard(path)\n",
        "        if opened:\n            pass\n",
        ("tests/test_textio.py::test_pieces_that_raise_leave_no_file_and_raise_again",
         "tests/test_textio.py::test_failed_write_json_leaves_no_file_but_keeps_a_link"),
    ),
    Mutant(
        "Lemire's rejection drops the draws on its threshold",
        "seeding.py",
        "kept = m[(m & np.uint64(_MASK32)) >= threshold]",
        "kept = m[(m & np.uint64(_MASK32)) > threshold]",
        ("tests/test_seeding.py::test_integers_of_every_span",),
    ),
    Mutant(
        "a ChannelModel holds an estimator of another kind",
        "bundle.py",
        'if getattr(held, "kind", None) is not self.kind:',
        "if False:",
        ("tests/test_bundle.py::test_a_model_holds_an_estimator_of_its_kind",),
    ),
    Mutant(
        "a bundle loads without saving back to itself",
        "bundle.py",
        '    check_saves_back(doc, _bundle_doc(bundle), "bundle")\n',
        "",
        ("tests/test_documents.py::test_every_one_fault_bundle_is_refused_or_saves_back",),
    ),
    Mutant(
        "the split memo keeps a leaf pair that a deeper tree splits",
        "regressors/tree.py",
        "if known is None or not leaves and known[1].block is None:",
        "if known is None:",
        ("tests/test_tree_kernels.py::test_trees_on_one_memo_match_reference",),
    ),
    Mutant(
        "a count may be a bool",
        "domain.py",
        "    return isinstance(value, int) and not isinstance(value, bool)\n",
        "    return isinstance(value, int)\n",
        ("tests/test_textio.py::test_check_version_takes_only_the_integer",),
    ),
)


def copy_checkout(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=ignore)
        else:
            shutil.copy2(source, into / name)


def misplaced() -> list[str]:
    """One line for each mutant whose old text its file does not hold
    exactly once."""
    found = []
    for m in MUTANTS:
        count = (ROOT / "src" / "impforecast" / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            found.append(f"{m.name}: its old text occurs {count} times in {m.path}")
    return found


def in_a_copy(mutant: Mutant | None, tests) -> tuple[bool, str, float]:
    """Whether ``tests`` pass on a copy that holds ``mutant`` (or none),
    with pytest's output and the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="impforecast-mutant-") as tmp:
        copy = Path(tmp)
        copy_checkout(copy)
        if mutant is not None:
            path = copy / "src" / "impforecast" / mutant.path
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                            encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(copy / "src")
        start = time.monotonic()
        done = subprocess.run([*PYTEST, *tests], cwd=copy, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=900)
        return done.returncode == 0, done.stdout, time.monotonic() - start


def main() -> int:
    if problems := misplaced():
        print("\n".join(problems))
        return 1
    tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    passed, output, seconds = in_a_copy(None, tests)
    print(f"{'passed' if passed else 'FAILED'}    the unmutated copy ({seconds:.1f} s)", flush=True)
    if not passed:
        print(output)
        return 1
    survivors = 0
    for m in MUTANTS:
        passed, _, seconds = in_a_copy(m, m.tests)
        print(f"{'SURVIVED' if passed else 'killed'}    {m.name} ({seconds:.1f} s)", flush=True)
        survivors += passed
    if survivors:
        print(f"{survivors} of {len(MUTANTS)} mutants survived")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
