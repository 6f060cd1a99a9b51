"""Experiment orchestration: scenario generation, task runs, and reports.

Three tasks mirror the case-study layout: task1 on a dense "intersection"
scene, task2 on an open "square" scene, and task3 on the pooled samples of
both. Each run evaluates the agent search plus the four comparison
strategies on an identical split and standardization, and emits CSV result
tables together with per-generation policy and diagnostics traces.
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
    Dataset,
    build_dataset,
    concat_datasets,
    read_csv,
    split_dataset,
    standardize,
    write_csv,
)
from .predictor import PredictorConfig, evaluate_mask
from .scenario import FEATURE_SYMBOLS, SceneConfig, generate_scene
from .scoring import ScoreWeights
from .search import SearchConfig, SearchResult, run_search

ENV_PREFIX = "PLSELECT_"

RESULTS_HEADER = ["task", "method", "features", "rmse_db", "total_score"]

POLICY_HEADER = ["t"] + [f"p{i}" for i in range(1, len(FEATURE_SYMBOLS) + 1)]

DIAGNOSTICS_HEADER = ["t", "entropy", "diversity"]

GENERATIONS_HEADER = (
    ["t", "best_score", "mean_score", "entropy", "diversity"]
    + POLICY_HEADER[1:]
    + ["best_mask"]
)


class HarnessError(RuntimeError):
    pass


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
    split_fractions: tuple = (0.7, 0.15, 0.15)
    shadowing_sigma: float = 3.0
    corridor_radius: float = 50.0
    random_baseline_seeds: int = 10
    out_dir: str = "out"
    master_seed: int = 0

    def __post_init__(self):
        if self.random_baseline_seeds < 0:
            raise HarnessError("random_baseline_seeds must be non-negative")
        for name in ("shadowing_sigma", "corridor_radius"):
            if not 0 <= getattr(self, name) < math.inf:
                raise HarnessError(f"{name} must be finite and non-negative")
        for task, names in self.task_scenarios.items():
            unknown = [n for n in names if n not in self.scenarios]
            if not names or unknown:
                raise HarnessError(
                    f"task {task!r} must name one or more of the scenarios "
                    f"{list(self.scenarios)}, got {list(names)}")


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
    base = dict(
        area_size=(400.0, 400.0),
        route_points=600,
        carrier_frequency=3.5e9,
        tx_height=10.0,
        rx_height=1.5,
    )
    scenarios = {
        "intersection": SceneConfig(
            layout="intersection", corridor_width=30.0, **base
        ),
        "square": SceneConfig(
            layout="square", scatterer_count=(35, 45), **base
        ),
    }
    cfg = ExperimentConfig(
        scenarios=scenarios,
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


def _apply(current, docs, key: str = "", entry=None):
    """current with the config documents in docs applied in turn.

    docs holds (document, source) pairs for the config key `key`. A
    dataclass takes a JSON object of its field names, except that below
    the top level no seed can be set (see `seeded`); a dict takes a JSON
    object whose new keys start from `entry`. Both are merged key by key,
    and each dataclass is rebuilt once, after all documents, so that its
    checks see the final values. Other values go through `_typed`. A bad
    key or type raises HarnessError naming the key and its source, and a
    value that a section's checks refuse one naming the section.
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
        with open(path) as fh:
            docs.append((json.load(fh), path))
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

def _atomic_write(path: Path, write) -> Path:
    """Call write(tmp) on a sibling temp file, then move it onto path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    write(tmp)
    os.replace(tmp, path)
    return path


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, lambda tmp: tmp.write_text(text))


def _atomic_write_rows(path: Path, header, rows) -> None:
    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    _atomic_write(path, write)


def _fmt(value: float) -> str:
    return f"{value:.9g}"


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
    return [task, method, features, _fmt(rmse_db), _fmt(score)]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(cfg: ExperimentConfig) -> List[Path]:
    """Generate scenes, write scene JSON dumps and dataset CSVs."""
    out = Path(cfg.out_dir)
    written = []
    single = {}
    for name, scene_cfg in cfg.scenarios.items():
        scene = generate_scene(scene_cfg)
        scene_path = out / "scenes" / f"{name}.json"
        _atomic_write_text(scene_path, scene.to_json())
        written.append(scene_path)
        ds = single[name] = build_dataset(
            [scene],
            [name],
            shadowing_sigma=cfg.shadowing_sigma,
            corridor_radius=cfg.corridor_radius,
        )
        written.append(_atomic_write(out / "data" / f"{name}.csv",
                                     lambda tmp: write_csv(ds, tmp)))
    pooled = concat_datasets(list(single.values()))
    written.append(_atomic_write(out / "data" / "pooled.csv",
                                 lambda tmp: write_csv(pooled, tmp)))
    return written


def _load_task_dataset(cfg: ExperimentConfig, task: str) -> Dataset:
    if task not in cfg.task_scenarios:
        raise HarnessError(f"unknown task {task!r}")
    names = cfg.task_scenarios[task]
    data_dir = Path(cfg.out_dir) / "data"
    if len(names) > 1:
        path = data_dir / "pooled.csv"
    else:
        path = data_dir / f"{names[0]}.csv"
    if not path.exists():
        raise HarnessError(f"missing dataset for {task}: {path}")
    return read_csv(path)


def _prepare(ds: Dataset, cfg: ExperimentConfig) -> Dataset:
    ds = split_dataset(ds, cfg.split_fractions, seed=cfg.master_seed)
    return standardize(ds)


def _evaluated_row(cfg: ExperimentConfig, ds: Dataset, task: str,
                   method: str, mask) -> tuple:
    """A (task, method, mask, rmse, score) row for mask evaluated on ds."""
    cand = evaluate_mask(mask, ds, cfg.weights, cfg.predictor)
    return (task, method, mask, cand.breakdown.rmse, cand.score)


def _baseline_rows(
    cfg: ExperimentConfig, task: str, ds: Dataset, cardinality: int
) -> List[tuple]:
    """Rows for the full, random and MI-category baselines. The random
    masks select `cardinality` features; their mean row precedes them,
    and with no random seeds there are neither."""
    rows = [_evaluated_row(cfg, ds, task, "full",
                           bl.full_feature_mask(ds.n_features))]
    random_rows = []
    for k in range(cfg.random_baseline_seeds):
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.master_seed, 9001, k])
        )
        mask = bl.random_subset_mask(cardinality, ds.n_features, rng)
        random_rows.append(
            _evaluated_row(cfg, ds, task, f"random_seed{k}", mask)
        )
    if random_rows:
        mean_rmse = float(np.mean([r[3] for r in random_rows]))
        mean_score = float(np.mean([r[4] for r in random_rows]))
        rows.append((task, "random", None, mean_rmse, mean_score))
        rows.extend(random_rows)

    for variant, method in (("GE_Struct", "mi_ge_struct"),
                            ("GE_EM", "mi_ge_em")):
        mask = bl.mi_category_subset(ds, variant)
        rows.append(_evaluated_row(cfg, ds, task, method, mask))
    return rows


def run_task(cfg: ExperimentConfig, task: str) -> Dict[str, object]:
    """Agent search plus all baselines for one task on a shared dataset."""
    ds = _prepare(_load_task_dataset(cfg, task), cfg)
    result = run_search(ds, cfg.search, cfg.weights, cfg.predictor)
    agent = result.best_overall

    rows = [(task, "agent", agent.mask, agent.breakdown.rmse, agent.score)]
    rows.extend(_baseline_rows(cfg, task, ds, int(np.sum(agent.mask))))

    # Multi-scenario task: re-evaluate the pooled-selected mask on each
    # sub-scenario's own split.
    if len(cfg.task_scenarios[task]) > 1:
        for name in cfg.task_scenarios[task]:
            sub = _prepare(
                read_csv(Path(cfg.out_dir) / "data" / f"{name}.csv"), cfg
            )
            rows.append(_evaluated_row(cfg, sub, f"{task}--{name}", "agent",
                                       agent.mask))

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
        [rec.t, _fmt(rec.best.score), _fmt(rec.mean_score),
         _fmt(rec.entropy), _fmt(rec.diversity)]
        + [_fmt(p) for p in rec.policy]
        + [_mask_string(rec.best.mask)]
        for rec in result.records
    ]
    # The policy and diagnostics traces are column subsets of one trace.
    for name, header in (
        ("generations", GENERATIONS_HEADER),
        ("policy", POLICY_HEADER),
        ("diagnostics", DIAGNOSTICS_HEADER),
    ):
        cols = [GENERATIONS_HEADER.index(column) for column in header]
        _atomic_write_rows(
            out / f"{task}_{name}.csv",
            header,
            [[row[i] for i in cols] for row in gen_rows],
        )


def cmd_run(
    cfg: ExperimentConfig,
    tasks: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> List[dict]:
    """Run and write each task. ``jobs`` is accepted and ignored:
    evaluation is serial."""
    tasks = list(tasks) if tasks else list(cfg.task_scenarios)
    results = []
    for task in tasks:
        task_result = run_task(cfg, task)
        _write_task_outputs(cfg, task_result)
        results.append(task_result)
    return results


def cmd_run_baselines(
    cfg: ExperimentConfig,
    tasks: Optional[Sequence[str]] = None,
    cardinality: int = 4,
) -> List[dict]:
    """Baselines only, without the agent search (random uses a fixed
    cardinality unless an agent results row already exists)."""
    tasks = list(tasks) if tasks else list(cfg.task_scenarios)
    out = Path(cfg.out_dir) / "results"
    results = []
    for task in tasks:
        ds = _prepare(_load_task_dataset(cfg, task), cfg)
        k = cardinality
        existing = out / f"{task}_results.csv"
        if existing.exists():
            with open(existing, newline="") as fh:
                for row in csv.DictReader(fh):
                    if row["method"] == "agent":
                        k = row["features"].count(",") + 1
                        break
        rows = _baseline_rows(cfg, task, ds, k)
        _atomic_write_rows(out / f"{task}_baselines.csv", RESULTS_HEADER,
                           [_result_row(row) for row in rows])
        results.append({"task": task, "rows": rows})
    return results


def cmd_report(out_dir: str, tasks: Optional[Sequence[str]] = None) -> str:
    """Aligned summary table plus per-figure data CSVs.

    Raises HarnessError listing the missing artifacts if run outputs are
    absent.
    """
    out = Path(out_dir)
    results_dir = out / "results"
    if tasks is None:
        found = sorted(results_dir.glob("*_results.csv"))
        tasks = [p.name[: -len("_results.csv")] for p in found]
    missing = []
    table_rows = []
    for task in tasks:
        results_path = results_dir / f"{task}_results.csv"
        diag_path = results_dir / f"{task}_diagnostics.csv"
        policy_path = results_dir / f"{task}_policy.csv"
        for path in (results_path, diag_path, policy_path):
            if not path.exists():
                missing.append(str(path))
        if missing:
            continue
        with open(results_path, newline="") as fh:
            for row in csv.DictReader(fh):
                table_rows.append(row)
        report_dir = out / "report"
        report_dir.mkdir(parents=True, exist_ok=True)
        for src, dst in (
            (diag_path, report_dir / f"fig_entropy_diversity_{task}.csv"),
            (policy_path, report_dir / f"fig_policy_{task}.csv"),
        ):
            _atomic_write_text(dst, src.read_text())
    if missing or not table_rows:
        raise HarnessError(
            "missing run artifacts:\n" + "\n".join(missing or ["(no results)"])
        )

    widths = {key: len(key) for key in RESULTS_HEADER}
    for row in table_rows:
        for key in RESULTS_HEADER:
            widths[key] = max(widths[key], len(row[key]))
    lines = [
        "  ".join(key.ljust(widths[key]) for key in RESULTS_HEADER),
        "  ".join("-" * widths[key] for key in RESULTS_HEADER),
    ]
    for row in table_rows:
        lines.append(
            "  ".join(row[key].ljust(widths[key]) for key in RESULTS_HEADER)
        )
    summary = "\n".join(lines) + "\n"
    _atomic_write_text(out / "report" / "summary.txt", summary)
    return summary


def cmd_sweep(
    cfg: ExperimentConfig,
    n_seeds: int,
    tasks: Optional[Sequence[str]] = None,
) -> Path:
    """Repeat generate+run over consecutive master seeds and aggregate."""
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
