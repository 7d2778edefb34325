"""In-memory span tracer and the impforecast entry points it wraps.

The tracer times calls into each module of the package from outside it:
`instrument` replaces the references that one module holds to another
module's public function, and the `fit`/`predict` methods of the five
estimator classes, with timing wrappers. Nothing in the package changes,
and a call a module makes to its own functions is not a layer boundary,
so it is not wrapped.

A span is `[name, start, end, parent]`, where `parent` is the index of the
enclosing span or -1. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

# (span name, module that defines the function, function name). Span names
# start with the layer they time.
FUNCTIONS = (
    ("dataio.parse", "impforecast.dataio", "parse_cohort_csv"),
    ("dataio.validate", "impforecast.dataio", "validate_cohort"),
    ("dataio.split", "impforecast.dataio", "split_cohort"),
    ("domain.features", "impforecast.domain", "assemble_features"),
    ("domain.features", "impforecast.domain", "feature_matrix"),
    ("domain.features", "impforecast.domain", "label_vector"),
    ("metrics.score", "impforecast.metrics", "rmse"),
    ("metrics.score", "impforecast.metrics", "error_bands"),
    ("pipeline.run_study", "impforecast.pipeline", "run_study"),
    ("pipeline.predict_one", "impforecast.pipeline", "predict_one"),
    ("bundle.save", "impforecast.bundle", "save_bundle"),
    ("bundle.load", "impforecast.bundle", "load_bundle"),
    ("report.to_json", "impforecast.pipeline", "report_to_json"),
    ("report.from_json", "impforecast.pipeline", "report_from_json"),
    ("report.render", "impforecast.report", "export_study"),
)

KINDS = ("LR", "BLR", "DFR", "BDTR", "NNR")
GROUPS = ("G1", "G2")
ESTIMATORS = {
    "LR": "LinearRegressor",
    "BLR": "BayesianLinearRegressor",
    "DFR": "DecisionForestRegressor",
    "BDTR": "BoostedTreesRegressor",
    "NNR": "NeuralNetRegressor",
}
TREE_KINDS = ("DFR", "BDTR")
LAYERS = ("cli", "dataio", "domain", "regressors", "metrics", "pipeline", "bundle", "report")
ROOT_SPAN = "cli.run_cli"


def layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.installed: set[str] = set()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name, after=None):
        """Time every call of `fn` as a span.

        `name` is a span name or a function of the call's positional
        arguments that returns one. `after(args, result)` runs once the
        span has closed, so its cost is not charged to the layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            index = self._open(label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[label + ".failed"] += 1
                raise
            finally:
                self._close(index)
            if after is not None:
                after(args, result)
            return result

        return traced


def _fit_span(kind: str):
    def name(args) -> str:
        X = args[1]
        return f"regressors.fit.{kind}.{'G1' if X.shape[1] == 1 else 'G2'}"

    return name


def _after_fit(tracer: Tracer, kind: str):
    def after(args, estimator) -> None:
        if kind in TREE_KINDS:
            trees = estimator.fitted_params()["trees"]
            tracer.counts["regressors.tree.nodes"] += sum(len(t["feature"]) for t in trees)
        elif kind == "NNR":
            tracer.counts["regressors.neural.epochs"] += estimator.get_params()["epochs"]

    return after


def _after_parse(tracer: Tracer):
    def after(args, cohort) -> None:
        tracer.counts["dataio.parse_rows"] += len(cohort)

    return after


def instrument(tracer: Tracer) -> None:
    """Wrap the package's cross-module calls and estimator methods.

    A function or class the package no longer has is skipped; its span
    name stays out of `tracer.installed`, so the metrics built from it are
    reported as missing.
    """
    package = sys.modules["impforecast"]
    modules = [m for n, m in sys.modules.items() if n == "impforecast" or n.startswith("impforecast.")]
    after = {"dataio.parse": _after_parse(tracer)}
    for span_name, module_name, attr in FUNCTIONS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if not callable(original):
            continue
        wrapped = tracer.wrap(original, span_name, after.get(span_name))
        for module in modules:
            if module.__name__ == original.__module__:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
        tracer.installed.add(span_name)
    for kind, class_name in ESTIMATORS.items():
        cls = getattr(package, class_name, None)
        if cls is None:
            continue
        fit, predict = vars(cls).get("fit"), vars(cls).get("predict")
        if fit is not None:
            setattr(cls, "fit", tracer.wrap(fit, _fit_span(kind), _after_fit(tracer, kind)))
            tracer.installed.update(f"regressors.fit.{kind}.{g}" for g in GROUPS)
        if predict is not None:
            setattr(cls, "predict", tracer.wrap(predict, f"regressors.predict.{kind}"))
            tracer.installed.add(f"regressors.predict.{kind}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, winners_per_study: int) -> dict[str, float | None]:
    """Per-layer totals of one traced replay that took `wall_s` seconds.

    A layer's time sums its outermost spans, so a nested call into the
    same layer is not counted twice. Self time subtracts the direct
    children of each span. A metric whose span is not installed is None.
    """
    spans = tracer.spans
    total: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter({name: 0.0 for name in LAYERS})
    covered = 0.0
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        self_s[layer(name)] += duration - children[index]
        if parent < 0 or layer(spans[parent][0]) != layer(name):
            total[name] += duration
            calls[name] += 1
        if parent >= 0 and spans[parent][0] == ROOT_SPAN:
            covered += duration

    def timed(*names: str) -> float | None:
        if not any(n in tracer.installed for n in names):
            return None
        return sum((total[n] for n in names), 0.0)

    def counted(*names: str) -> int | None:
        if not any(n in tracer.installed for n in names):
            return None
        return sum(calls[n] for n in names)

    fits = [f"regressors.fit.{k}.{g}" for k in KINDS for g in GROUPS]
    tree_fits = [f"regressors.fit.{k}.{g}" for k in TREE_KINDS for g in GROUPS]
    nnr_fits = [f"regressors.fit.NNR.{g}" for g in GROUPS]
    fit_calls = counted(*fits)
    studies = counted("pipeline.run_study")

    metrics: dict[str, float | None] = {}
    for name in fits:
        metrics[name.replace("regressors.fit.", "regressors.fit_s.")] = timed(name)
    for kind in KINDS:
        metrics[f"regressors.predict_s.{kind}"] = timed(f"regressors.predict.{kind}")
    metrics["regressors.fit_calls"] = fit_calls
    metrics["regressors.fit_failed"] = (
        None if fit_calls is None else sum(tracer.counts[n + ".failed"] for n in fits)
    )
    tree_s, nnr_s = timed(*tree_fits), timed(*nnr_fits)
    nodes = tracer.counts["regressors.tree.nodes"]
    metrics["regressors.tree.nodes"] = None if tree_s is None else nodes
    metrics["regressors.tree.nodes_per_s"] = None if tree_s is None else _ratio(nodes, tree_s)
    metrics["regressors.neural.epochs_per_s"] = (
        None if nnr_s is None else _ratio(tracer.counts["regressors.neural.epochs"], nnr_s)
    )
    metrics["dataio.parse_s"] = timed("dataio.parse")
    metrics["dataio.parse_rows"] = (
        None if "dataio.parse" not in tracer.installed else tracer.counts["dataio.parse_rows"]
    )
    metrics["dataio.validate_s"] = timed("dataio.validate")
    metrics["dataio.split_s"] = timed("dataio.split")
    metrics["domain.features_s"] = timed("domain.features")
    metrics["domain.features_calls"] = counted("domain.features")
    metrics["metrics.score_s"] = timed("metrics.score")
    metrics["pipeline.run_study_s"] = timed("pipeline.run_study")
    metrics["pipeline.useful_fit_ratio"] = (
        None if fit_calls is None or studies is None
        else _ratio(winners_per_study * studies, fit_calls)
    )
    metrics["pipeline.predict_one_s"] = timed("pipeline.predict_one")
    metrics["pipeline.predict_one_calls"] = counted("pipeline.predict_one")
    metrics["bundle.save_s"] = timed("bundle.save")
    metrics["bundle.load_s"] = timed("bundle.load")
    metrics["report.to_json_s"] = timed("report.to_json")
    metrics["report.from_json_s"] = timed("report.from_json")
    metrics["report.render_s"] = timed("report.render")
    for name in LAYERS:
        metrics[f"{name}.self_s"] = self_s[name]
    metrics["trace.coverage"] = _ratio(covered, wall_s)
    return metrics
