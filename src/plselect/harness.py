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
import os
from dataclasses import asdict, dataclass, field, replace
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
from .predictor import Candidate, PredictorConfig, evaluate_mask
from .scenario import Scene, SceneConfig, generate_scene
from .scoring import ScoreWeights
from .search import SearchConfig, SearchResult, run_search

ENV_PREFIX = "PLSELECT_"

RESULTS_HEADER = ["task", "method", "features", "rmse_db", "total_score"]

GENERATIONS_HEADER = (
    ["t", "best_score", "mean_score", "entropy", "diversity"]
    + [f"p{i}" for i in range(1, 11)]
    + ["best_mask"]
)

TASKS = ("task1", "task2", "task3")

METHODS = ("agent", "full", "random", "mi_ge_struct", "mi_ge_em")


class HarnessError(RuntimeError):
    pass


@dataclass
class ExperimentConfig:
    scenarios: Dict[str, SceneConfig] = field(default_factory=dict)
    task_scenarios: Dict[str, tuple] = field(default_factory=dict)
    search: SearchConfig = field(default_factory=SearchConfig)
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    split_fractions: tuple = (0.7, 0.15, 0.15)
    shadowing_sigma: float = 3.0
    corridor_radius: float = 50.0
    random_baseline_seeds: int = 10
    out_dir: str = "out"
    master_seed: int = 0


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
            layout="intersection",
            corridor_width=30.0,
            seed=master_seed * 1000 + 1,
            **base,
        ),
        "square": SceneConfig(
            layout="square",
            scatterer_count=(35, 45),
            seed=master_seed * 1000 + 2,
            **base,
        ),
    }
    return ExperimentConfig(
        scenarios=scenarios,
        task_scenarios={
            "task1": ("intersection",),
            "task2": ("square",),
            "task3": ("intersection", "square"),
        },
        search=SearchConfig(master_seed=master_seed),
        out_dir=out_dir,
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def _apply_overrides(doc: dict, overrides: dict) -> dict:
    for key, value in overrides.items():
        if (
            key in doc
            and isinstance(doc[key], dict)
            and isinstance(value, dict)
        ):
            _apply_overrides(doc[key], value)
        else:
            doc[key] = value
    return doc


def _env_overrides(environ=None) -> dict:
    """PLSELECT_SECTION__KEY=value overrides; values parsed as JSON."""
    environ = os.environ if environ is None else environ
    out: dict = {}
    for name, raw in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        path = name[len(ENV_PREFIX):].lower().split("__")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        for part in path[:-1]:
            node = node.setdefault(part, {})
        node[path[-1]] = value
    return out


def load_config(
    path: Optional[str] = None,
    master_seed: Optional[int] = None,
    out_dir: Optional[str] = None,
    environ=None,
) -> ExperimentConfig:
    doc: dict = {}
    if path is not None:
        with open(path) as fh:
            doc = json.load(fh)
    _apply_overrides(doc, _env_overrides(environ))
    if master_seed is not None:
        doc["master_seed"] = master_seed
    if out_dir is not None:
        doc["out_dir"] = out_dir

    cfg = default_config(
        master_seed=doc.get("master_seed", 0),
        out_dir=doc.get("out_dir", "out"),
    )
    for name, sc_doc in doc.get("scenarios", {}).items():
        base = cfg.scenarios.get(name, SceneConfig())
        cfg.scenarios[name] = replace(
            base,
            **{
                k: tuple(v) if isinstance(v, list) else v
                for k, v in sc_doc.items()
            },
        )
    if "task_scenarios" in doc:
        cfg.task_scenarios = {
            k: tuple(v) for k, v in doc["task_scenarios"].items()
        }
    if "search" in doc:
        cfg.search = replace(
            cfg.search, master_seed=cfg.master_seed, **doc["search"]
        )
    else:
        cfg.search = replace(cfg.search, master_seed=cfg.master_seed)
    if "weights" in doc:
        cfg.weights = ScoreWeights(**doc["weights"])
    if "predictor" in doc:
        cfg.predictor = PredictorConfig(**doc["predictor"])
    for key in (
        "split_fractions",
        "shadowing_sigma",
        "corridor_radius",
        "random_baseline_seeds",
    ):
        if key in doc:
            value = doc[key]
            setattr(
                cfg, key, tuple(value) if isinstance(value, list) else value
            )
    return cfg


# ---------------------------------------------------------------------------
# Atomic file helpers
# ---------------------------------------------------------------------------

def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _atomic_write_rows(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    os.replace(tmp, path)


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _mask_string(mask) -> str:
    return "".join(str(int(b)) for b in mask)


def _feature_string(mask) -> str:
    return "(" + ",".join(
        str(i + 1) for i, b in enumerate(mask) if b
    ) + ")"


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
        ds = build_dataset(
            [scene],
            [name],
            shadowing_sigma=cfg.shadowing_sigma,
            corridor_radius=cfg.corridor_radius,
        )
        single[name] = ds
        csv_path = out / "data" / f"{name}.csv"
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = csv_path.with_suffix(".csv.tmp")
        write_csv(ds, tmp)
        os.replace(tmp, csv_path)
        written.append(csv_path)
    pooled = concat_datasets(list(single.values()))
    pooled_path = out / "data" / "pooled.csv"
    tmp = pooled_path.with_suffix(".csv.tmp")
    write_csv(pooled, tmp)
    os.replace(tmp, pooled_path)
    written.append(pooled_path)
    return written


def _load_task_dataset(cfg: ExperimentConfig, task: str) -> Dataset:
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


def run_task(
    cfg: ExperimentConfig, task: str, jobs: int = 1
) -> Dict[str, object]:
    """Agent search plus all baselines for one task on a shared dataset."""
    ds = _prepare(_load_task_dataset(cfg, task), cfg)
    result = run_search(
        ds, cfg.search, cfg.weights, cfg.predictor, jobs=jobs
    )
    agent = result.best_overall

    rows = [
        (task, "agent", agent.mask, agent.breakdown.rmse, agent.score)
    ]

    full = bl.full_feature_mask(ds.n_features)
    cand = evaluate_mask(full, ds, cfg.weights, cfg.predictor)
    rows.append((task, "full", full, cand.breakdown.rmse, cand.score))

    cardinality = int(np.sum(agent.mask))
    random_rows = []
    for k in range(cfg.random_baseline_seeds):
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.master_seed, 9001, k])
        )
        mask = bl.random_subset_mask(cardinality, ds.n_features, rng)
        cand = evaluate_mask(mask, ds, cfg.weights, cfg.predictor)
        random_rows.append((task, f"random_seed{k}", mask,
                            cand.breakdown.rmse, cand.score))
    mean_rmse = float(np.mean([r[3] for r in random_rows]))
    mean_score = float(np.mean([r[4] for r in random_rows]))
    rows.append((task, "random", None, mean_rmse, mean_score))
    rows.extend(random_rows)

    for variant, method in (("GE_Struct", "mi_ge_struct"),
                            ("GE_EM", "mi_ge_em")):
        mask = bl.mi_category_subset(ds, variant, catalog=ds.catalog)
        cand = evaluate_mask(mask, ds, cfg.weights, cfg.predictor)
        rows.append((task, method, mask, cand.breakdown.rmse, cand.score))

    # Multi-scenario task: re-evaluate the pooled-selected mask on each
    # sub-scenario's own split.
    sub_rows = []
    if len(cfg.task_scenarios[task]) > 1:
        for name in cfg.task_scenarios[task]:
            sub = _prepare(
                read_csv(Path(cfg.out_dir) / "data" / f"{name}.csv"), cfg
            )
            cand = evaluate_mask(
                np.array(agent.mask), sub, cfg.weights, cfg.predictor
            )
            sub_rows.append(
                (f"{task}--{name}", "agent", agent.mask,
                 cand.breakdown.rmse, cand.score)
            )
    rows.extend(sub_rows)

    return {"task": task, "dataset": ds, "search": result, "rows": rows}


def _write_task_outputs(cfg: ExperimentConfig, task_result: dict) -> None:
    out = Path(cfg.out_dir) / "results"
    task = task_result["task"]
    result: SearchResult = task_result["search"]

    result_rows = [
        [
            row[0],
            row[1],
            _feature_string(row[2]) if row[2] is not None else "mean",
            _fmt(row[3]),
            _fmt(row[4]),
        ]
        for row in task_result["rows"]
    ]
    _atomic_write_rows(out / f"{task}_results.csv", RESULTS_HEADER,
                       result_rows)

    gen_rows = []
    policy_rows = []
    diag_rows = []
    for rec in result.records:
        gen_rows.append(
            [rec.t, _fmt(rec.best.score), _fmt(rec.mean_score),
             _fmt(rec.entropy), _fmt(rec.diversity)]
            + [_fmt(p) for p in rec.policy]
            + [_mask_string(rec.best.mask)]
        )
        policy_rows.append([rec.t] + [_fmt(p) for p in rec.policy])
        diag_rows.append([rec.t, _fmt(rec.entropy), _fmt(rec.diversity)])
    _atomic_write_rows(out / f"{task}_generations.csv", GENERATIONS_HEADER,
                       gen_rows)
    _atomic_write_rows(
        out / f"{task}_policy.csv",
        ["t"] + [f"p{i}" for i in range(1, 11)],
        policy_rows,
    )
    _atomic_write_rows(
        out / f"{task}_diagnostics.csv",
        ["t", "entropy", "diversity"],
        diag_rows,
    )


def cmd_run(
    cfg: ExperimentConfig,
    tasks: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> List[dict]:
    tasks = list(tasks) if tasks else list(cfg.task_scenarios)
    results = []
    for task in tasks:
        if task not in cfg.task_scenarios:
            raise HarnessError(f"unknown task {task!r}")
        task_result = run_task(cfg, task, jobs=jobs)
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
        rows = []
        full = bl.full_feature_mask(ds.n_features)
        cand = evaluate_mask(full, ds, cfg.weights, cfg.predictor)
        rows.append([task, "full", _feature_string(full),
                     _fmt(cand.breakdown.rmse), _fmt(cand.score)])
        for variant, method in (("GE_Struct", "mi_ge_struct"),
                                ("GE_EM", "mi_ge_em")):
            mask = bl.mi_category_subset(ds, variant, catalog=ds.catalog)
            cand = evaluate_mask(mask, ds, cfg.weights, cfg.predictor)
            rows.append([task, method, _feature_string(mask),
                         _fmt(cand.breakdown.rmse), _fmt(cand.score)])
        for seed in range(cfg.random_baseline_seeds):
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.master_seed, 9001, seed])
            )
            mask = bl.random_subset_mask(k, ds.n_features, rng)
            cand = evaluate_mask(mask, ds, cfg.weights, cfg.predictor)
            rows.append([task, f"random_seed{seed}", _feature_string(mask),
                         _fmt(cand.breakdown.rmse), _fmt(cand.score)])
        _atomic_write_rows(out / f"{task}_baselines.csv", RESULTS_HEADER,
                           rows)
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
    jobs: int = 1,
) -> Path:
    """Repeat generate+run over consecutive master seeds and aggregate."""
    base_out = Path(cfg.out_dir)
    agg_rows = []
    for k in range(n_seeds):
        seed = cfg.master_seed + k
        sub_cfg = replace(
            cfg,
            scenarios={
                name: replace(sc, seed=seed * 1000 + i + 1)
                for i, (name, sc) in enumerate(cfg.scenarios.items())
            },
            search=replace(cfg.search, master_seed=seed),
            out_dir=str(base_out / f"seed{seed}"),
            master_seed=seed,
        )
        cmd_generate(sub_cfg)
        for task_result in cmd_run(sub_cfg, tasks, jobs=jobs):
            for row in task_result["rows"]:
                agg_rows.append(
                    [seed, row[0], row[1],
                     _feature_string(row[2]) if row[2] is not None else "mean",
                     _fmt(row[3]), _fmt(row[4])]
                )
    sweep_path = base_out / "sweep_summary.csv"
    _atomic_write_rows(sweep_path, ["seed"] + RESULTS_HEADER, agg_rows)
    return sweep_path
