"""Experiment orchestration: scenario generation, task runs, and reports.

Three tasks mirror the case-study layout: task1 on a dense "intersection"
scene, task2 on an open "square" scene, and task3 on the pooled samples of
both. Each run evaluates the agent search plus the four comparison
strategies on an identical split and standardization, and emits CSV result
tables together with each search's per-generation trace, from which the
report cuts its figure tables.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import baselines as bl
from .dataset import (
    DEFAULT_SPLIT_FRACTIONS,
    Dataset,
    DatasetError,
    _stratified_counts,
    build_dataset,
    check_rows,
    check_split_fractions,
    format_number,
    read_csv,
    select_scenarios,
    split_dataset,
    standardize,
    write_csv,
    write_csv_lines,
)
from .predictor import PredictorConfig, evaluate_masks
from .scenario import (DEFAULT_CORRIDOR_RADIUS, DEFAULT_SHADOWING_SIGMA,
                       FEATURE_SYMBOLS, SceneConfig, SceneGenerationError,
                       generate_scene)
from .scoring import ScoreWeights
from .search import SearchConfig, SearchResult, run_search

ENV_PREFIX = "PLSELECT_"

RESULTS_HEADER = ["task", "method", "features", "rmse_db", "total_score"]

POLICY_HEADER = ["t"] + [f"p{i}" for i in range(1, len(FEATURE_SYMBOLS) + 1)]

GENERATIONS_HEADER = (
    ["t", "best_score", "mean_score", "entropy", "diversity"]
    + POLICY_HEADER[1:]
    + ["best_mask"]
)

# The columns of each report figure, report/fig_<figure>_<task>.csv, which
# report cuts from results/<task>_generations.csv.
FIGURES = {
    "policy": POLICY_HEADER,
    "entropy_diversity": ["t", "entropy", "diversity"],
}

# The figures that run also writes as results/<task>_<view>.csv, by view.
# No command reads these files back.
TRACE_VIEWS = {"policy": "policy", "diagnostics": "entropy_diversity"}


class HarnessError(RuntimeError):
    pass


# Random masks scored per task: run_task builds each in a Python loop,
# and score_masks holds 8 * n_val bytes of predictions for each.
MAX_RANDOM_BASELINE_SEEDS = 1 << 16


@dataclass
class ExperimentConfig:
    # A config document may add keys to the two dicts; a new entry starts
    # from the field's "entry" value.
    scenarios: Dict[str, SceneConfig] = field(
        default_factory=dict, metadata={"entry": SceneConfig()})
    task_scenarios: Dict[str, tuple] = field(
        default_factory=dict, metadata={"entry": ("",)})
    search: SearchConfig = field(default_factory=SearchConfig)
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    split_fractions: tuple = DEFAULT_SPLIT_FRACTIONS
    shadowing_sigma: float = DEFAULT_SHADOWING_SIGMA
    corridor_radius: float = DEFAULT_CORRIDOR_RADIUS
    random_baseline_seeds: int = 10
    out_dir: str = "out"
    master_seed: int = 0

    def __post_init__(self):
        if "pooled" in self.scenarios:
            raise HarnessError("scenario name 'pooled' is reserved: "
                               "data/pooled.csv holds every scenario's rows")
        for name in ("random_baseline_seeds", "master_seed"):
            if getattr(self, name) < 0:
                raise HarnessError(f"{name} must be non-negative")
        if self.random_baseline_seeds > MAX_RANDOM_BASELINE_SEEDS:
            raise HarnessError(
                "random_baseline_seeds must be at most "
                f"{MAX_RANDOM_BASELINE_SEEDS}, got "
                f"{self.random_baseline_seeds}")
        try:
            check_split_fractions(self.split_fractions)
        except DatasetError as exc:
            raise HarnessError(f"split_fractions: {exc}") from None
        for name in ("shadowing_sigma", "corridor_radius"):
            if not 0 <= getattr(self, name) < math.inf:
                raise HarnessError(f"{name} must be finite and non-negative")
        for task, names in self.task_scenarios.items():
            unknown = [n for n in names if n not in self.scenarios]
            if not names or unknown or len(set(names)) < len(names):
                raise HarnessError(
                    f"task {task!r} must name one or more of the scenarios "
                    f"{list(self.scenarios)}, each once, got {list(names)}")
            # Each scenario is also scored alone; MI bins the train rows.
            c = np.array([_stratified_counts(
                self.scenarios[n].route_points, self.split_fractions)
                for n in names])
            if (c < (2, 2, 1)).any() or c[:, 0].sum() < bl.DEFAULT_MI_BINS:
                raise HarnessError(
                    f"task {task!r} needs at least 2 train, 2 val and 1 test "
                    f"rows per scenario and {bl.DEFAULT_MI_BINS} train rows; "
                    + "; ".join(f"scenarios.{n}.route_points = "
                                f"{self.scenarios[n].route_points} gives "
                                "{} train, {} val and {} test rows".format(*k)
                                for n, k in zip(names, c)))


def seeded(cfg: ExperimentConfig, master_seed: int) -> ExperimentConfig:
    """cfg with every seed derived from master_seed: scenario i (from 0,
    in order) gets master_seed * 1000 + i + 1; the search, the split and
    the random baselines take master_seed itself."""
    return replace(
        cfg,
        scenarios={
            name: replace(sc, seed=master_seed * 1000 + i + 1)
            for i, (name, sc) in enumerate(cfg.scenarios.items())
        },
        search=replace(cfg.search, master_seed=master_seed),
        master_seed=master_seed,
    )


def default_config(master_seed: int = 0, out_dir: str = "out") -> ExperimentConfig:
    """The published experiment. Its scenes keep SceneConfig's defaults
    but for the layout, the route length and the square's scatterer
    count."""
    cfg = ExperimentConfig(
        scenarios={
            "intersection": SceneConfig(layout="intersection",
                                        route_points=600),
            "square": SceneConfig(layout="square", route_points=600,
                                  scatterer_count=(35, 45)),
        },
        task_scenarios={
            "task1": ("intersection",),
            "task2": ("square",),
            "task3": ("intersection", "square"),
        },
        out_dir=out_dir,
    )
    return seeded(cfg, master_seed)


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

_JSON_TYPES = {tuple: "an array", int: "an integer", float: "a number",
               str: "a string"}


def _typed(default, value, key: str, source: str):
    """value if it has the JSON type of default, an array as a tuple whose
    elements have the type of default[0]; an int fits a float field."""
    if isinstance(default, tuple) and isinstance(value, list):
        return tuple(_typed(default[0], v, f"{key}[{i}]", source)
                     for i, v in enumerate(value))
    if (type(default) is float and type(value) is int
            and abs(value) <= sys.float_info.max):
        value = float(value)
    if type(value) is not type(default):
        raise HarnessError(f"config {key} from {source} must be "
                           f"{_JSON_TYPES[type(default)]}")
    return value


def _check_file_name(name: str, what: str) -> None:
    """Raise HarnessError, naming `what`, unless name can be a file name
    in one directory."""
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise HarnessError(f"{what} must be a file name other than '.' and "
                           "'..', without '/', '\\' or NUL")


def _apply(current, docs, key: str = "", entry=None):
    """current with the config documents in docs applied in turn.

    docs holds (document, source) pairs for the config key `key`. A
    dataclass takes a JSON object of its field names, except that below
    the top level no seed (see `seeded`) can be set; a dict takes a JSON
    object whose new keys start from `entry`. Both are merged key by key,
    and each dataclass is rebuilt once, after all documents, so that its
    checks see the final values. Other values go through `_typed`. A bad
    key or type raises HarnessError naming the key and its source, and a
    value that a section's checks refuse one naming the section. A dict
    key (a scenario or task name) must pass `_check_file_name`.
    """
    is_dict = isinstance(current, dict)
    if not (is_dict or is_dataclass(current)):
        return [_typed(current, value, key, source)
                for value, source in docs][-1]
    known = {} if is_dict else {f.name: f for f in fields(current)}
    for value, source in docs:
        if not isinstance(value, dict):
            raise HarnessError(f"config {key or 'document'} from {source} "
                               "must be a JSON object")
    changes = {}
    for k in dict.fromkeys(k for value, _ in docs for k in value):
        sub = [(value[k], source) for value, source in docs if k in value]
        name = f"{key}.{k}" if key else k
        if is_dict:
            _check_file_name(k, f"config key {name!r} from {sub[0][1]}")
            changes[k] = _apply(current.get(k, entry), sub, name)
        elif k not in known:
            raise HarnessError(f"unknown config key {name!r} from {sub[0][1]}")
        elif key and k in ("seed", "master_seed"):
            raise HarnessError(f"config key {name!r} from {sub[0][1]} cannot "
                               "be set: it follows master_seed")
        else:
            changes[k] = _apply(getattr(current, k), sub, name,
                                known[k].metadata.get("entry"))
    if is_dict:
        return {**current, **changes}
    try:
        return replace(current, **changes)
    except ValueError as exc:  # a range check of a section's dataclass
        raise HarnessError(f"config {key}: {exc}") from None


def load_config(
    path: Optional[str] = None,
    master_seed: Optional[int] = None,
    out_dir: Optional[str] = None,
    environ=None,
) -> ExperimentConfig:
    """default_config with, in turn, the JSON file at `path`, each
    PLSELECT_SECTION__KEY variable (its value parsed as JSON, else taken
    as a string) and the master_seed and out_dir arguments applied by
    `_apply`; seeds then follow the resulting master_seed."""
    docs = []
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                docs.append((json.load(fh), path))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise HarnessError(f"config file {path}: {exc}") from None
    environ = os.environ if environ is None else environ
    for name, raw in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(name[len(ENV_PREFIX):].lower().split("__")):
            value = {part: value}
        docs.append((value, f"environment variable {name}"))
    args = {"master_seed": master_seed, "out_dir": out_dir}
    docs.append(({k: v for k, v in args.items() if v is not None},
                 "the command line"))
    cfg = _apply(default_config(), docs)
    return seeded(cfg, cfg.master_seed)


# ---------------------------------------------------------------------------
# Atomic file helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, write):
    """Call write(tmp) on a sibling temp file, then move it onto path;
    returns what write returned."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    result = write(tmp)
    os.replace(tmp, path)
    return result


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, lambda tmp: tmp.write_text(text))


def _atomic_write_rows(path: Path, header, rows,
                       lineterminator: str = "\r\n") -> None:
    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator=lineterminator)
            writer.writerow(header)
            writer.writerows(rows)

    _atomic_write(path, write)


def _mask_string(mask) -> str:
    return "".join(str(int(b)) for b in mask)


def _feature_string(mask) -> str:
    return "(" + ",".join(
        str(i + 1) for i, b in enumerate(mask) if b
    ) + ")"


def _result_row(row) -> List[str]:
    """A (task, method, mask, rmse, score) row as RESULTS_HEADER fields;
    a mask of None marks a mean over several masks."""
    task, method, mask, rmse_db, score = row
    features = _feature_string(mask) if mask is not None else "mean"
    return [task, method, features, format_number(rmse_db),
            format_number(score)]


def _read_table(path: Path, header, kind: str) -> List[list]:
    """The rows below the header of a CSV that run wrote; a header other
    than `header`, a row of another width or a byte that is not UTF-8
    raises HarnessError naming the file as a malformed `kind`."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    # Such as a field over csv.field_size_limit(), or a byte not UTF-8.
    except (csv.Error, UnicodeDecodeError):
        rows = []
    if rows[:1] != [header] or any(len(row) != len(header) for row in rows):
        raise HarnessError(f"malformed {kind} {path}")
    return rows[1:]


def _trace_columns(gen_rows, header) -> List[list]:
    """The columns named by header of each generations-trace row."""
    cols = [GENERATIONS_HEADER.index(column) for column in header]
    return [[row[i] for i in cols] for row in gen_rows]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(cfg: ExperimentConfig) -> List[Path]:
    """Generate scenes, write scene JSON dumps and dataset CSVs. pooled.csv
    holds each scenario CSV's data lines, in scenario-id order. cfg is
    checked again, in case a field was assigned after construction, and
    every scene and its rows are built and checked, before any file is
    written."""
    cfg = replace(cfg)
    out = Path(cfg.out_dir)
    built = {}
    for name, scene_cfg in cfg.scenarios.items():
        try:
            scene = generate_scene(scene_cfg)
        except SceneGenerationError as exc:
            raise HarnessError(f"scenario {name!r}: {exc}") from None
        ds = build_dataset([scene], [name], cfg.shadowing_sigma,
                           cfg.corridor_radius)
        check_rows(ds, f"config scenarios.{name}")
        built[name] = scene, ds
    written, lines = [], {}
    for name, (scene, ds) in built.items():
        written += [out / "scenes" / f"{name}.json",
                    out / "data" / f"{name}.csv"]
        _atomic_write_text(written[-2], scene.to_json())
        lines[name] = _atomic_write(written[-1], lambda t: write_csv(ds, t))
    written.append(out / "data" / "pooled.csv")
    _atomic_write(written[-1], lambda tmp: write_csv_lines(
        tmp, [line for name in sorted(lines) for line in lines[name]]))
    return written


def _task_list(cfg: ExperimentConfig, tasks: Optional[Sequence[str]]):
    """tasks, each once in order of first naming, or all of cfg's for
    none; a task that cfg does not name raises HarnessError."""
    for task in tasks or ():
        if task not in cfg.task_scenarios:
            raise HarnessError(f"unknown task {task!r}")
    return list(dict.fromkeys(tasks or cfg.task_scenarios))


def _read_pooled(cfg: ExperimentConfig, tasks: List[str]) -> Dataset:
    """pooled.csv, the one dataset file that run reads; raises
    HarnessError if it lacks the rows of a scenario that a task names."""
    path = Path(cfg.out_dir) / "data" / "pooled.csv"
    if not path.exists():
        raise HarnessError(f"missing dataset for {', '.join(tasks)}: {path}")
    pooled = read_csv(path)
    present = pooled.scenario_ids()
    for task in tasks:
        absent = [n for n in cfg.task_scenarios[task] if n not in present]
        if absent:
            raise HarnessError(f"{path} has no rows of the scenarios "
                               f"{absent} that {task} names; run generate "
                               "with this config first")
    return pooled


def _prepared(cfg: ExperimentConfig, pooled: Dataset, names) -> Dataset:
    """The named scenarios' rows of pooled, split and standardized once
    per set of names and kept in pooled.derived, so that tasks sharing
    them share one Dataset and its normal equations."""
    key = ("prepared", frozenset(names), cfg.split_fractions, cfg.master_seed)
    if key not in pooled.derived:
        pooled.derived[key] = standardize(split_dataset(select_scenarios(
            pooled, names), cfg.split_fractions, seed=cfg.master_seed))
    return pooled.derived[key]


def _scored_rows(cfg: ExperimentConfig, task: str, ds: Dataset,
                 named) -> List[tuple]:
    """A (task, method, mask, rmse, score) row for each (method, mask) of
    named, in order, all scored on ds by one evaluate_masks call."""
    scored = evaluate_masks([mask for _, mask in named], ds, cfg.weights,
                            cfg.predictor)
    return [(task, method, mask, cand.rmse, cand.total)
            for (method, mask), cand in zip(named, scored)]


def run_task(cfg: ExperimentConfig, task: str,
             pooled: Optional[Dataset] = None) -> Dict[str, object]:
    """Agent search plus all baselines for one task on a shared dataset.
    pooled is _read_pooled's dataset, read here if not given. cfg is
    checked again first, in case a field was assigned after construction.

    The rows are the agent's, the full mask's, the random masks' mean,
    each random mask's (of the agent's cardinality) and each MI
    category subset's, all scored on the task's dataset by one
    _scored_rows call; with no random seeds there is no random row. A
    task of several scenarios then has one row per scenario, the agent's
    mask scored on that scenario's own split.
    """
    cfg = replace(cfg)
    if pooled is None:
        pooled = _read_pooled(cfg, _task_list(cfg, [task]))
    names = cfg.task_scenarios[task]
    ds = _prepared(cfg, pooled, names)
    result = run_search(ds, cfg.search, cfg.weights, cfg.predictor)
    agent = result.best_overall.mask

    named = [("agent", agent), ("full", np.ones(ds.n_features, np.int8))]
    for k in range(cfg.random_baseline_seeds):
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.master_seed, 9001, k])
        )
        named.append((f"random_seed{k}", bl.random_subset_mask(
            sum(agent), ds.n_features, rng)))
    named.extend((f"mi_{variant.lower()}", mask)
                 for variant, mask in bl.mi_category_subset(ds).items())
    rows = _scored_rows(cfg, task, ds, named)
    random_rows = rows[2:2 + cfg.random_baseline_seeds]
    if random_rows:
        rows.insert(2, (task, "random", None,
                        float(np.mean([r[3] for r in random_rows])),
                        float(np.mean([r[4] for r in random_rows]))))
    for name in names if len(names) > 1 else ():
        rows += _scored_rows(cfg, f"{task}--{name}",
                             _prepared(cfg, pooled, [name]),
                             [("agent", agent)])

    return {"task": task, "dataset": ds, "search": result, "rows": rows}


def _write_task_outputs(cfg: ExperimentConfig, task_result: dict) -> None:
    out = Path(cfg.out_dir) / "results"
    task = task_result["task"]
    result: SearchResult = task_result["search"]

    _atomic_write_rows(
        out / f"{task}_results.csv",
        RESULTS_HEADER,
        [_result_row(row) for row in task_result["rows"]],
    )

    gen_rows = [
        [rec.t, format_number(rec.best.total),
         format_number(rec.mean_score), format_number(rec.entropy),
         format_number(rec.diversity)]
        + [format_number(p) for p in rec.policy]
        + [_mask_string(rec.best.mask)]
        for rec in result.records
    ]
    _atomic_write_rows(out / f"{task}_generations.csv", GENERATIONS_HEADER,
                       gen_rows)
    for view, figure in TRACE_VIEWS.items():
        header = FIGURES[figure]
        _atomic_write_rows(out / f"{task}_{view}.csv", header,
                           _trace_columns(gen_rows, header))


def cmd_run(
    cfg: ExperimentConfig,
    tasks: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> List[dict]:
    """Run and write each task, each once in order of first naming, on
    one read of pooled.csv. ``jobs`` is accepted and ignored."""
    tasks = _task_list(cfg, tasks)
    pooled = _read_pooled(cfg, tasks)
    results = []
    for task in tasks:
        task_result = run_task(cfg, task, pooled)
        _write_task_outputs(cfg, task_result)
        results.append(task_result)
    return results


def cmd_report(out_dir: str, tasks: Optional[Sequence[str]] = None) -> str:
    """Aligned summary table of each task's results CSV, plus the figure
    tables cut from its generations trace; a task named twice counts
    once. Reads nothing else.

    Raises HarnessError listing the missing artifacts if run outputs are
    absent, and, before anything is read, for a task that cannot be a
    file name (`_check_file_name`). Every table is read and checked
    before anything is written.
    """
    for task in tasks or ():
        _check_file_name(task, f"task {task!r}")
    out = Path(out_dir)
    results_dir = out / "results"
    if tasks is None:
        found = sorted(results_dir.glob("*_results.csv"))
        tasks = [p.name[: -len("_results.csv")] for p in found]
    tasks = dict.fromkeys(tasks)
    missing = []
    table_rows = []
    traces = {}
    for task in tasks:
        results_path = results_dir / f"{task}_results.csv"
        gens_path = results_dir / f"{task}_generations.csv"
        for path in (results_path, gens_path):
            if not path.exists():
                missing.append(str(path))
        if missing:
            continue
        table_rows.extend(
            _read_table(results_path, RESULTS_HEADER, "results table"))
        traces[task] = _read_table(gens_path, GENERATIONS_HEADER,
                                   "generations trace")
    if missing or not table_rows:
        raise HarnessError(
            "missing run artifacts:\n" + "\n".join(missing or ["(no results)"])
        )
    for task, gen_rows in traces.items():
        for figure, columns in FIGURES.items():
            # Figure lines end in "\n", results lines in the csv module's
            # "\r\n": the figures were once text-mode copies of results
            # CSVs, and keep those bytes.
            _atomic_write_rows(out / "report" / f"fig_{figure}_{task}.csv",
                               columns, _trace_columns(gen_rows, columns),
                               lineterminator="\n")

    widths = [max(map(len, column))
              for column in zip(RESULTS_HEADER, *table_rows)]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        for row in [RESULTS_HEADER, ["-" * w for w in widths], *table_rows]
    ]
    summary = "\n".join(lines) + "\n"
    _atomic_write_text(out / "report" / "summary.txt", summary)
    return summary


def cmd_sweep(
    cfg: ExperimentConfig,
    n_seeds: int,
    tasks: Optional[Sequence[str]] = None,
) -> Path:
    """Repeat generate+run over consecutive master seeds and aggregate."""
    tasks = _task_list(cfg, tasks)
    base_out = Path(cfg.out_dir)
    agg_rows = []
    for k in range(n_seeds):
        seed = cfg.master_seed + k
        sub_cfg = replace(seeded(cfg, seed),
                          out_dir=str(base_out / f"seed{seed}"))
        cmd_generate(sub_cfg)
        for task_result in cmd_run(sub_cfg, tasks):
            agg_rows.extend(
                [seed] + _result_row(row) for row in task_result["rows"]
            )
    sweep_path = base_out / "sweep_summary.csv"
    _atomic_write_rows(sweep_path, ["seed"] + RESULTS_HEADER, agg_rows)
    return sweep_path
