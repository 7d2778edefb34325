#!/usr/bin/env bash
# The installed command line, end to end: generate, a fast study and a
# nested one, each also inline on one CPU; a fast study that the trees and
# networks win, also inline, and predict with both of its bundles; predict
# with the first fast study's bundle, also from a BOM + CRLF copy; study and
# predict again on two OpenBLAS threads; report in every format; and the
# failures that must exit 1 or 2 in one stderr line and leave no file.
#
# Runs in a new temporary directory. IMPFORECAST is the command that runs
# the CLI, the installed entry point by default; from a checkout:
#   IMPFORECAST="python3 -m impforecast.cli" PYTHONPATH="$PWD/src" bash tests/end_to_end.sh
set -euo pipefail

impforecast=${IMPFORECAST:-impforecast}
work=$(mktemp -d)
cd "$work"
echo "working in $work; it is kept if a check fails"

$impforecast generate --n 20 --seed 3 --out smoke-cohort.csv
$impforecast study --data smoke-cohort.csv --seed 3 --hyper dfr.trees=5 --hyper bdtr.trees=10 --hyper nnr.epochs=50 --out-report smoke-report.json --out-models smoke-models.json
# on one CPU the study fits inline, so the order in which the pool takes its calls must not reach the bytes
taskset -c 0 $impforecast study --data smoke-cohort.csv --seed 3 --hyper dfr.trees=5 --hyper bdtr.trees=10 --hyper nnr.epochs=50 --out-report smoke-report-inline.json --out-models smoke-models-inline.json
cmp smoke-report.json smoke-report-inline.json
cmp smoke-models.json smoke-models-inline.json
# the nested study ranks on 12 inner splits, then refits the picks: neither round may depend on the pool
$impforecast study --data smoke-cohort.csv --seed 3 --selection inner_validation --hyper dfr.trees=5 --hyper bdtr.trees=10 --hyper nnr.epochs=50 --out-report smoke-nested-report.json --out-models smoke-nested-models.json
taskset -c 0 $impforecast study --data smoke-cohort.csv --seed 3 --selection inner_validation --hyper dfr.trees=5 --hyper bdtr.trees=10 --hyper nnr.epochs=50 --out-report smoke-nested-report-inline.json --out-models smoke-nested-models-inline.json
cmp smoke-nested-report.json smoke-nested-report-inline.json
cmp smoke-nested-models.json smoke-nested-models-inline.json
# linear kinds handicapped, so that trees or networks win: a model that a worker keeps because it beats its channel's linear bound must reach the bundle, from the pool and inline
$impforecast study --data smoke-cohort.csv --seed 3 --hyper dfr.trees=5 --hyper bdtr.trees=10 --hyper nnr.epochs=50 --hyper lr.ridge=1e6 --hyper blr.alpha=1e6 --hyper blr.evidence_iters=0 --out-report smoke-handicap-report.json --out-models smoke-handicap-models.json
taskset -c 0 $impforecast study --data smoke-cohort.csv --seed 3 --hyper dfr.trees=5 --hyper bdtr.trees=10 --hyper nnr.epochs=50 --hyper lr.ridge=1e6 --hyper blr.alpha=1e6 --hyper blr.evidence_iters=0 --out-report smoke-handicap-report-inline.json --out-models smoke-handicap-models-inline.json
cmp smoke-handicap-report.json smoke-handicap-report-inline.json
cmp smoke-handicap-models.json smoke-handicap-models-inline.json
python3 -c 'import json, sys; kinds = {e["kind"] for e in json.load(open("smoke-handicap-report.json"))["entries"]}; print("winning kinds:", sorted(kinds)); sys.exit(0 if kinds - {"LR", "BLR"} else 1)'
# the installed CLI loads and runs the trees and networks that win there, from either bundle
$impforecast predict --models smoke-handicap-models.json --data smoke-cohort.csv --out smoke-handicap-predictions.csv
$impforecast predict --models smoke-handicap-models-inline.json --data smoke-cohort.csv --out smoke-handicap-predictions-inline.csv
test "$(wc -l < smoke-handicap-predictions.csv)" -eq 21
test "$(wc -l < smoke-handicap-predictions-inline.csv)" -eq 21
cmp smoke-handicap-predictions.csv smoke-handicap-predictions-inline.csv
$impforecast predict --models smoke-models.json --data smoke-cohort.csv --out smoke-predictions.csv
test "$(wc -l < smoke-predictions.csv)" -eq 21
# the same cohort as a spreadsheet export saves it: a byte-order mark and CRLF line endings
printf '\357\273\277' > smoke-cohort-bom.csv
sed 's/$/\r/' smoke-cohort.csv >> smoke-cohort-bom.csv
$impforecast predict --models smoke-models.json --data smoke-cohort-bom.csv --out smoke-predictions-bom.csv
cmp smoke-predictions.csv smoke-predictions-bom.csv
# the CLI runs OpenBLAS on one thread unless the user sets a count: the thread count must not reach the bytes
OPENBLAS_NUM_THREADS=2 $impforecast study --data smoke-cohort.csv --seed 3 --hyper dfr.trees=5 --hyper bdtr.trees=10 --hyper nnr.epochs=50 --out-report smoke-report-threads.json --out-models smoke-models-threads.json
cmp smoke-report.json smoke-report-threads.json
cmp smoke-models.json smoke-models-threads.json
OPENBLAS_NUM_THREADS=2 $impforecast predict --models smoke-models.json --data smoke-cohort.csv --out smoke-predictions-threads.csv
cmp smoke-predictions.csv smoke-predictions-threads.csv
# channel 1's labels scaled to a max of 1e154 overflow the split scores: the study succeeds with one stderr line, from the pool and inline (forked workers write their warnings apart from the parent's)
python3 -c 'from impforecast.dataio import generate_synthetic_cohort as g, serialize_cohort_csv as s; from impforecast.domain import Cohort; c = g(80, 1); y = c.labels.copy(); y[:, 0] *= 1e154 / y[:, 0].max(); open("smoke-big-labels.csv", "w").write(s(Cohort(c.ages, c.intra, y)))'
$impforecast study --data smoke-big-labels.csv --out-report smoke-big-report.json --out-models smoke-big-models.json 2> smoke-big.err
test "$(wc -l < smoke-big.err)" -eq 1 || { cat smoke-big.err; exit 1; }
taskset -c 0 $impforecast study --data smoke-big-labels.csv --out-report smoke-big-report-inline.json --out-models smoke-big-models-inline.json 2> smoke-big-inline.err
test "$(wc -l < smoke-big-inline.err)" -eq 1 || { cat smoke-big-inline.err; exit 1; }
# channel 1's labels scaled to a max of 1.7e308 defeat every candidate of that channel: a data error (exit 2) in one stderr line that names the channel, from the pool and inline
python3 -c 'from impforecast.dataio import generate_synthetic_cohort as g, serialize_cohort_csv as s; from impforecast.domain import Cohort; c = g(80, 1); y = c.labels.copy(); y[:, 0] *= 1.7e308 / y[:, 0].max(); open("smoke-huge-labels.csv", "w").write(s(Cohort(c.ages, c.intra, y)))'
code=0; $impforecast study --data smoke-huge-labels.csv --out-report smoke-huge-report.json --out-models smoke-huge-models.json 2> smoke-huge.err || code=$?
test "$code" -eq 2 && test "$(wc -l < smoke-huge.err)" -eq 1 || { echo "exit $code"; cat smoke-huge.err; exit 1; }
grep -q '^data error: channel 1: every candidate failed: ' smoke-huge.err || { cat smoke-huge.err; exit 1; }
code=0; taskset -c 0 $impforecast study --data smoke-huge-labels.csv --out-report smoke-huge-report-inline.json --out-models smoke-huge-models-inline.json 2> smoke-huge-inline.err || code=$?
test "$code" -eq 2 && test "$(wc -l < smoke-huge-inline.err)" -eq 1 || { echo "exit $code"; cat smoke-huge-inline.err; exit 1; }
grep -q '^data error: channel 1: every candidate failed: ' smoke-huge-inline.err || { cat smoke-huge-inline.err; exit 1; }
# a bundle that cannot be written is a data error (exit 2) in one stderr line, and the study leaves no report, from the pool and inline
code=0; $impforecast study --data smoke-cohort.csv --seed 3 --hyper dfr.trees=5 --hyper bdtr.trees=10 --hyper nnr.epochs=50 --out-report smoke-nodir-report.json --out-models no-such-dir/models.json 2> smoke-nodir.err || code=$?
test "$code" -eq 2 && test "$(wc -l < smoke-nodir.err)" -eq 1 && test ! -e smoke-nodir-report.json || { echo "exit $code"; cat smoke-nodir.err; exit 1; }
code=0; taskset -c 0 $impforecast study --data smoke-cohort.csv --seed 3 --hyper dfr.trees=5 --hyper bdtr.trees=10 --hyper nnr.epochs=50 --out-report smoke-nodir-report-inline.json --out-models no-such-dir/models.json 2> smoke-nodir-inline.err || code=$?
test "$code" -eq 2 && test "$(wc -l < smoke-nodir-inline.err)" -eq 1 && test ! -e smoke-nodir-report-inline.json || { echo "exit $code"; cat smoke-nodir-inline.err; exit 1; }
# a tree count or a hidden layer past its cap is a usage error (exit 1) in one stderr line, refused before anything is allocated, and leaves no report
for hyper in dfr.trees=1000000000000 nnr.hidden_units=1000000000000; do
  code=0; $impforecast study --data smoke-cohort.csv --seed 3 --hyper "$hyper" --out-report smoke-cap-report.json --out-models smoke-cap-models.json 2> smoke-cap.err || code=$?
  test "$code" -eq 1 && test "$(wc -l < smoke-cap.err)" -eq 1 && test ! -e smoke-cap-report.json || { echo "$hyper: exit $code"; cat smoke-cap.err; exit 1; }
done
# a patient count past generate's cap is a data error (exit 2) in one stderr line, refused before anything is allocated, and writes no file
code=0; $impforecast generate --n 1000000000000 --out smoke-huge-n.csv 2> smoke-huge-n.err || code=$?
test "$code" -eq 2 && test "$(wc -l < smoke-huge-n.err)" -eq 1 && test ! -e smoke-huge-n.csv || { echo "exit $code"; cat smoke-huge-n.err; exit 1; }
# an output that cannot be written is a data error (exit 2) in one stderr line and leaves no partial file: predictions past a one-block file-size limit, and a report to a full device
code=0; ( ulimit -f 1; $impforecast predict --models smoke-models.json --data smoke-cohort.csv --out smoke-fsize.csv 2> smoke-fsize.err ) || code=$?
test "$code" -eq 2 && test "$(wc -l < smoke-fsize.err)" -eq 1 && test ! -e smoke-fsize.csv || { echo "exit $code"; cat smoke-fsize.err; exit 1; }
code=0; $impforecast report --in smoke-report.json > /dev/full 2> smoke-full.err || code=$?
test "$code" -eq 2 && test "$(wc -l < smoke-full.err)" -eq 1 || { echo "exit $code"; cat smoke-full.err; exit 1; }
# a bundle whose first LR model lacks its ridge would predict with the default ridge: a data error (exit 2) in one stderr line that names the key, and writes no file
python3 -c 'import json; d = json.load(open("smoke-models.json")); m = next(m for m in d["models"] if m["kind"] == "LR"); del m["hyper"]["ridge"]; json.dump(d, open("smoke-no-ridge.json", "w"))'
code=0; $impforecast predict --models smoke-no-ridge.json --data smoke-cohort.csv --out smoke-no-ridge.csv 2> smoke-no-ridge.err || code=$?
test "$code" -eq 2 && test "$(wc -l < smoke-no-ridge.err)" -eq 1 && test ! -e smoke-no-ridge.csv && grep -q 'hyper\.ridge' smoke-no-ridge.err || { echo "exit $code"; cat smoke-no-ridge.err; exit 1; }
# one path for both of a study's documents is a usage error (exit 1) in one stderr line, refused before anything is written
code=0; $impforecast study --data smoke-cohort.csv --seed 3 --out-report smoke-same.json --out-models smoke-same.json 2> smoke-same.err || code=$?
test "$code" -eq 1 && test "$(wc -l < smoke-same.err)" -eq 1 && test ! -e smoke-same.json || { echo "exit $code"; cat smoke-same.err; exit 1; }
$impforecast report --in smoke-report.json --format text > smoke-report.txt
$impforecast report --in smoke-report.json --format csv --out smoke-report.csv
$impforecast report --in smoke-report.json --format json --out smoke-report-again.json
cmp smoke-report.json smoke-report-again.json
python3 - <<'EOF'
import json

def reject(token):  # NaN, Infinity and -Infinity are not standard JSON
    raise ValueError(f"non-standard JSON constant {token}")

for path in ("smoke-report.json", "smoke-models.json"):
    with open(path) as fh:
        json.load(fh, parse_constant=reject)

labels = [f"EI_1M_{c}" for c in range(1, 13)]
with open("smoke-report.csv") as fh:
    rows = fh.read().splitlines()[1:]
assert [row.split(",")[0] for row in rows] == labels, rows
with open("smoke-report.txt") as fh:
    text = fh.read()
assert all(label in text for label in labels), text
EOF
cd /
rm -rf "$work"
echo "end to end: every check passed"
