"""Span tracing of plselect from outside the package.

A Tracer replaces each function listed in WRAPPED, under the name its
caller looks it up by, with a wrapper that records a span: an id, the
parent span's id, the lookup name, the thread, and perf_counter start and
end times. Spans stay in memory until the run writes them out. Two hot
leaf functions get counter-only wrappers instead, because a span per call
would cost more than the call itself.

Spans opened on a worker thread with no open span of their own (the
search's evaluation pool) take the innermost open run_search span as
their explicit parent.

layer_metrics() turns the spans and counts of one traced operation into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import Counter, defaultdict, namedtuple
from contextlib import contextmanager
from functools import wraps

Span = namedtuple("Span", "id parent name thread start end value")


def _csv_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _count_calls(args, kwargs, result):
    return 1


def _count_items(args, kwargs, result):
    return len(result)


# (owner, attribute, kind, measure). kind "span" records a span, whose
# optional measure is stored as its value; kind "count" only adds measure
# to a counter. Owners are the modules (or class) the callers read the
# attribute from: plselect.cli calls the harness commands through its own
# namespace, the harness calls dataset/search/predictor functions through
# its own, and so on. The benchmark itself calls cli.main,
# scenario.generate_scene, dataset.build_dataset/split_dataset/standardize
# and search.run_search.
WRAPPED = (
    ("plselect.cli", "main", "span", None),
    ("plselect.cli", "load_config", "span", None),
    ("plselect.cli", "cmd_generate", "span", None),
    ("plselect.cli", "cmd_run", "span", None),
    ("plselect.cli", "cmd_report", "span", None),
    ("plselect.harness", "run_task", "span", None),
    ("plselect.harness", "generate_scene", "span", None),
    ("plselect.harness", "build_dataset", "span", None),
    ("plselect.harness", "concat_datasets", "span", None),
    ("plselect.harness", "write_csv", "span", _csv_bytes),
    ("plselect.harness", "read_csv", "span", None),
    ("plselect.harness", "split_dataset", "span", None),
    ("plselect.harness", "standardize", "span", None),
    ("plselect.harness", "run_search", "span", None),
    ("plselect.harness", "evaluate_mask", "span", None),
    ("plselect.baselines", "mi_category_subset", "span", None),
    ("plselect.scenario", "generate_scene", "span", None),
    ("plselect.scenario", "segment_box_intersection", "count", _count_calls),
    ("plselect.dataset", "build_dataset", "span", None),
    ("plselect.dataset", "split_dataset", "span", None),
    ("plselect.dataset", "standardize", "span", None),
    ("plselect.dataset", "extract_features", "span", None),
    ("plselect.dataset", "ground_truth_path_loss", "span", None),
    ("plselect.dataset.Dataset", "feature_matrix", "span", None),
    ("plselect.dataset.Dataset", "targets", "span", None),
    ("plselect.dataset.Dataset", "split_samples", "span", None),
    ("plselect.search", "run_search", "span", None),
    ("plselect.search", "evaluate_mask", "span", None),
    ("plselect.search", "sample_population", "count", _count_items),
    ("plselect.predictor", "fit", "span", None),
    ("plselect.predictor", "predict", "span", None),
    ("plselect.predictor", "trend_consistency_error", "span", None),
)

# Lookup names whose open span is the parent of spans started on worker
# threads.
POOL_OWNERS = ("plselect.search.run_search", "plselect.harness.run_search")


def resolve_owner(path: str):
    """The module, or class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def function_key(fn) -> str:
    """Where a function is defined, without the package prefix:
    'predictor.evaluate_mask', 'dataset.Dataset.feature_matrix'."""
    module = fn.__module__.rpartition(".")[2]
    return f"{module}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.spans = []  # every Span recorded, in closing order
        self.counts = Counter()  # counter-only wrappers, by function key
        self.keys = {}  # lookup name -> function key
        self.missing = []  # lookup names not found in this version
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._pool_parents = []
        self._lock = threading.Lock()
        self._installed = []

    @contextmanager
    def installed(self):
        """Patch every wrapped name for the duration of the block and
        restore the originals afterwards, also on error."""
        try:
            for owner_path, attr, kind, measure in WRAPPED:
                name = f"{owner_path}.{attr}"
                try:
                    owner = resolve_owner(owner_path)
                    original = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                self.keys[name] = function_key(original)
                make = self._span_wrapper if kind == "span" else self._counter
                setattr(owner, attr, make(name, original, measure))
                self._installed.append((owner, attr, original))
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)

    def mark(self):
        """A position to pass to since()."""
        return len(self.spans), self.counts.copy()

    def since(self, mark):
        """Spans and counts recorded after mark."""
        n, counts = mark
        return self.spans[n:], self.counts - counts

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name, fn, measure):
        tracer = self
        pool_owner = name in POOL_OWNERS

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif (threading.current_thread() is not tracer._main
                  and tracer._pool_parents):
                parent = tracer._pool_parents[-1]
            else:
                parent = None
            span_id = next(tracer._ids)
            stack.append(span_id)
            if pool_owner:
                tracer._pool_parents.append(span_id)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if pool_owner:
                    tracer._pool_parents.pop()
                value = (measure(args, kwargs, result)
                         if ok and measure is not None else None)
                tracer.spans.append(Span(
                    span_id, parent, name, threading.get_ident(),
                    start, end, value,
                ))

        return wrapper

    def _counter(self, name, fn, measure):
        tracer = self
        key = function_key(fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            amount = measure(args, kwargs, result)
            with tracer._lock:
                tracer.counts[key] += amount
            return result

        return wrapper


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans.

    Children on other threads may overlap one another; the part they cover
    is the union of their intervals, clipped to the parent's.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = (s.end - s.start) - covered(clipped)
    return out


# Per-layer metric name -> unit. Counts and bytes repeat exactly for a
# workload seed; times and rates do not.
LAYER_UNITS = {
    "scenario.generate_scene_s": "s",
    "scenario.extract_features_s": "s",
    "scenario.oracle_s": "s",
    "scenario.box_tests": "count",
    "scenario.points_per_s": "1/s",
    "dataset.build_dataset_s": "s",
    "dataset.write_csv_s": "s",
    "dataset.write_csv_bytes": "bytes",
    "dataset.read_csv_s": "s",
    "dataset.split_standardize_s": "s",
    "dataset.array_rebuilds": "count",
    "predictor.evaluate_mask_calls": "count",
    "predictor.evaluate_mask_s": "s",
    "predictor.fit_s": "s",
    "predictor.predict_s": "s",
    "predictor.evals_per_s": "1/s",
    "scoring.trend_s": "s",
    "scoring.trend_calls": "count",
    "search.run_search_self_s": "s",
    "search.draws": "count",
    "search.unique_evals": "count",
    "search.cache_hit_ratio": "ratio",
    "baselines.mi_subset_s": "s",
    "baselines.evals": "count",
    "harness.load_config_s": "s",
    "harness.cmd_generate_s": "s",
    "harness.cmd_run_s": "s",
    "harness.run_task_s": "s",
    "harness.write_outputs_s": "s",
    "cli.main_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that are fixed by the inputs (taken from one operation rather
# than a median over operations).
EXACT_UNITS = ("count", "bytes", "ratio")


def layer_metrics(spans, counts, keys) -> dict:
    """Per-layer metrics of one traced unit of work (trace.overhead_s is
    filled in by the caller).

    keys maps lookup names to function keys, so that one function reached
    under several names (harness.evaluate_mask and search.evaluate_mask)
    is counted once per call.
    """
    busy = defaultdict(float)
    calls = Counter()
    values = defaultdict(float)
    by_name = Counter()
    selfs = self_times(spans)
    own = defaultdict(float)
    for s in spans:
        key = keys.get(s.name, s.name)
        busy[key] += s.end - s.start
        calls[key] += 1
        by_name[s.name] += 1
        own[key] += selfs[s.id]
        if s.value is not None:
            values[key] += s.value

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    scenario_s = (busy["scenario.extract_features"]
                  + busy["scenario.ground_truth_path_loss"])
    draws = counts["search.sample_population"]
    unique = by_name["plselect.search.evaluate_mask"]
    m = {
        "scenario.generate_scene_s": busy["scenario.generate_scene"],
        "scenario.extract_features_s": busy["scenario.extract_features"],
        "scenario.oracle_s": busy["scenario.ground_truth_path_loss"],
        "scenario.box_tests": counts["scenario.segment_box_intersection"],
        "scenario.points_per_s": ratio(
            calls["scenario.extract_features"], scenario_s),
        "dataset.build_dataset_s": busy["dataset.build_dataset"],
        "dataset.write_csv_s": busy["dataset.write_csv"],
        "dataset.write_csv_bytes": values["dataset.write_csv"],
        "dataset.read_csv_s": busy["dataset.read_csv"],
        "dataset.split_standardize_s": (busy["dataset.split_dataset"]
                                        + busy["dataset.standardize"]),
        "dataset.array_rebuilds": (
            calls["dataset.Dataset.feature_matrix"]
            + calls["dataset.Dataset.targets"]
            + calls["dataset.Dataset.split_samples"]),
        "predictor.evaluate_mask_calls": calls["predictor.evaluate_mask"],
        "predictor.evaluate_mask_s": busy["predictor.evaluate_mask"],
        "predictor.fit_s": busy["predictor.fit"],
        "predictor.predict_s": busy["predictor.predict"],
        "predictor.evals_per_s": ratio(
            calls["predictor.evaluate_mask"],
            busy["predictor.evaluate_mask"]),
        "scoring.trend_s": busy["scoring.trend_consistency_error"],
        "scoring.trend_calls": calls["scoring.trend_consistency_error"],
        "search.run_search_self_s": own["search.run_search"],
        "search.draws": draws,
        "search.unique_evals": unique,
        "search.cache_hit_ratio": ratio(draws - unique, draws),
        "baselines.mi_subset_s": busy["baselines.mi_category_subset"],
        "baselines.evals": by_name["plselect.harness.evaluate_mask"],
        "harness.load_config_s": busy["harness.load_config"],
        "harness.cmd_generate_s": busy["harness.cmd_generate"],
        "harness.cmd_run_s": busy["harness.cmd_run"],
        "harness.run_task_s": busy["harness.run_task"],
        "harness.write_outputs_s": own["harness.cmd_run"],
        "cli.main_s": busy["cli.main"],
    }
    return {name: float(v) for name, v in m.items()}
