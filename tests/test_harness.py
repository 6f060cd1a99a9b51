import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plselect
from plselect import baselines, harness, predictor
from plselect.cli import main
from plselect.dataset import CSV_HEADER
from plselect.harness import (
    ExperimentConfig,
    RESULTS_HEADER,
    HarnessError,
    cmd_generate,
    cmd_report,
    cmd_run,
    default_config,
    load_config,
)
from plselect.predictor import PredictorConfig
from plselect.scenario import SceneConfig
from plselect.scoring import ScoreWeights
from plselect.search import SearchConfig


def small_config(tmp_path, seed=0, route_points=60, generations=8):
    cfg = default_config(master_seed=seed, out_dir=str(tmp_path / "out"))
    cfg.scenarios = {
        name: replace(sc, route_points=route_points)
        for name, sc in cfg.scenarios.items()
    }
    cfg.search = SearchConfig(
        population_size=10, generations=generations, elite_count=3,
        master_seed=seed,
    )
    cfg.random_baseline_seeds = 3
    return cfg


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# A results CSV without most of its columns, one with a short row, one
# with a field longer than the csv module reads, and one with a byte that
# is not UTF-8.
MALFORMED_RESULTS = [
    b"task,method\r\ntask1,agent\r\n",
    ",".join(RESULTS_HEADER).encode() + b"\r\ntask1,agent\r\n",
    ",".join(RESULTS_HEADER).encode() + b"\r\ntask1,agent," + b"9" * 200_000
    + b",1,1\r\n",
    ",".join(RESULTS_HEADER).encode() + b"\r\ntask1,agent,(1),\xff,1\r\n",
]
MALFORMED_RESULTS_IDS = ["few_columns", "short_row", "oversized_field",
                         "not_utf8"]


def tree_bytes(root):
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestGenerate:
    def test_file_counts(self, tmp_path):
        cfg = small_config(tmp_path)
        written = cmd_generate(cfg)
        csvs = [p for p in written if p.suffix == ".csv"]
        scenes = [p for p in written if p.suffix == ".json"]
        assert len(csvs) == 3  # two scenarios plus pooled
        assert len(scenes) == 2

    def test_pooled_row_count(self, tmp_path):
        cfg = small_config(tmp_path)
        cmd_generate(cfg)
        data = Path(cfg.out_dir) / "data"
        parts = sum(
            len(read_rows(data / f"{name}.csv")) for name in cfg.scenarios
        )
        assert len(read_rows(data / "pooled.csv")) == parts == 120

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        cmd_generate(cfg)
        first = tree_bytes(cfg.out_dir)
        cmd_generate(cfg)
        assert tree_bytes(cfg.out_dir) == first

    def test_pooled_is_scenario_lines_in_id_order(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg = replace(cfg, scenarios={'b,x': cfg.scenarios["intersection"],
                                      'a"q': cfg.scenarios["square"]},
                      task_scenarios={"both": ("b,x", 'a"q')})
        assert list(cfg.scenarios) != sorted(cfg.scenarios)
        cmd_generate(cfg)
        data = Path(cfg.out_dir) / "data"
        header, a_q = (data / 'a"q.csv').read_bytes().split(b"\r\n", 1)
        assert header.decode() == ",".join(CSV_HEADER)
        assert a_q.startswith(b'"a""q",0,')
        b_x = (data / "b,x.csv").read_bytes().split(b"\r\n", 1)[1]
        assert b_x.startswith(b'"b,x",0,')
        pooled = (data / "pooled.csv").read_bytes()
        assert pooled == header + b"\r\n" + a_q + b_x
        [result] = cmd_run(cfg)
        assert result["dataset"].scenario_ids() == ['a"q', "b,x"]
        assert len(result["dataset"]) == 120
        assert [row[0] for row in result["rows"][-2:]] == [
            "both--b,x", 'both--a"q']

    def test_assigned_pooled_scenario_refused(self, tmp_path):
        # An assignment skips ExperimentConfig's checks; cmd_generate
        # makes them again before it writes anything.
        cfg = small_config(tmp_path)
        cfg.scenarios = {**cfg.scenarios,
                         "pooled": SceneConfig(layout="square")}
        with pytest.raises(HarnessError, match=r"^scenario name 'pooled' "
                           r"is reserved"):
            cmd_generate(cfg)
        assert not Path(cfg.out_dir).exists()


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    cfg = small_config(tmp)
    cmd_generate(cfg)
    results = cmd_run(cfg)
    return cfg, results


class TestRun:
    def test_assigned_random_baseline_seed_count_refused(self, tmp_path,
                                                         monkeypatch):
        # An assignment skips ExperimentConfig's checks; run_task makes
        # them again before the search starts.
        cfg = small_config(tmp_path)
        cmd_generate(cfg)
        monkeypatch.setattr(harness, "run_search", mock.Mock(
            side_effect=AssertionError("run_search called")))
        cfg.random_baseline_seeds = harness.MAX_RANDOM_BASELINE_SEEDS + 1
        with pytest.raises(HarnessError, match=(
                r"^random_baseline_seeds must be at most 65536, got "
                r"65537$")):
            harness.run_task(cfg, "task1")

    def test_task1_method_rows(self, run_outputs):
        cfg, _ = run_outputs
        rows = read_rows(Path(cfg.out_dir) / "results" / "task1_results.csv")
        methods = {r["method"] for r in rows}
        assert {"agent", "full", "random", "mi_ge_struct",
                "mi_ge_em"} <= methods
        assert sum(m.startswith("random_seed") for m in methods) == 3

    def test_task3_sub_scenario_rows(self, run_outputs):
        cfg, _ = run_outputs
        rows = read_rows(Path(cfg.out_dir) / "results" / "task3_results.csv")
        tasks = [r["task"] for r in rows]
        assert "task3--intersection" in tasks
        assert "task3--square" in tasks
        plain = [r for r in rows if r["task"] == "task3"
                 and not r["method"].startswith("random_seed")]
        assert len(plain) == 5

    def test_generation_traces(self, run_outputs):
        cfg, _ = run_outputs
        results_dir = Path(cfg.out_dir) / "results"
        gens = read_rows(results_dir / "task1_generations.csv")
        assert len(gens) == cfg.search.generations
        for row in gens:
            assert 0.0 <= float(row["entropy"]) <= 1.0
            assert 0.0 <= float(row["diversity"]) <= 1.0
            assert len(row["best_mask"]) == 10
        policy = read_rows(results_dir / "task1_policy.csv")
        assert len(policy) == cfg.search.generations
        assert float(policy[0]["p1"]) == 0.5

    @pytest.mark.parametrize("task", ["task1", "task2", "task3"])
    def test_policy_and_diagnostics_are_generations_columns(
        self, run_outputs, task
    ):
        cfg, _ = run_outputs
        results_dir = Path(cfg.out_dir) / "results"
        gens = read_rows(results_dir / f"{task}_generations.csv")
        for name, columns in (
            ("policy", ["t"] + [f"p{i}" for i in range(1, 11)]),
            ("diagnostics", ["t", "entropy", "diversity"]),
        ):
            rows = read_rows(results_dir / f"{task}_{name}.csv")
            assert list(rows[0]) == columns
            assert rows == [{c: g[c] for c in columns} for g in gens]

    def test_rerun_identical(self, tmp_path):
        cfg = small_config(tmp_path, seed=5)
        cmd_generate(cfg)
        cmd_run(cfg, tasks=["task1"])
        first = tree_bytes(Path(cfg.out_dir) / "results")
        cmd_run(cfg, tasks=["task1"])
        assert tree_bytes(Path(cfg.out_dir) / "results") == first

    def test_unknown_task(self, tmp_path):
        cfg = small_config(tmp_path)
        cmd_generate(cfg)
        with pytest.raises(HarnessError, match="task9"):
            cmd_run(cfg, tasks=["task9"])

    def test_missing_dataset_names_task(self, tmp_path):
        cfg = small_config(tmp_path)
        with pytest.raises(HarnessError, match="task1"):
            cmd_run(cfg, tasks=["task1"])

    def test_zero_random_seeds_writes_no_random_rows(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg.random_baseline_seeds = 0
        cmd_generate(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cmd_run(cfg, tasks=["task1"])
        rows = read_rows(Path(cfg.out_dir) / "results" / "task1_results.csv")
        assert [r["method"] for r in rows] == [
            "agent", "full", "mi_ge_struct", "mi_ge_em"]


class TestResultRows:
    """Each row of run_task against evaluate_mask of its own mask on its
    own dataset, prepared afresh from pooled.csv."""

    @pytest.mark.parametrize("case", ["small", "no_random_seeds",
                                      "three_scenarios"])
    def test_rows_match_evaluate_mask(self, tmp_path, case):
        cfg, task = small_config(tmp_path), "task3"
        if case == "no_random_seeds":
            cfg.random_baseline_seeds = 0
        elif case == "three_scenarios":
            cfg, task = harness.seeded(replace(
                cfg,
                scenarios={**cfg.scenarios, "uniform": replace(
                    cfg.scenarios["square"], layout="uniform")},
                task_scenarios={**cfg.task_scenarios, "task4": (
                    "intersection", "square", "uniform")},
            ), 0), "task4"
        cmd_generate(cfg)
        result = harness.run_task(cfg, task)
        rows = result["rows"]
        names = cfg.task_scenarios[task]
        seeds = [f"random_seed{k}" for k in range(cfg.random_baseline_seeds)]
        assert [row[:2] for row in rows] == (
            [(task, "agent"), (task, "full")]
            + [(task, "random")] * bool(seeds)
            + [(task, method) for method in seeds]
            + [(task, "mi_ge_struct"), (task, "mi_ge_em")]
            + [(f"{task}--{name}", "agent") for name in names])

        pooled = harness._read_pooled(cfg, [task])
        for row_task, _, mask, rmse, score in rows:
            if mask is None:
                continue
            sub = row_task.partition("--")[2]
            ds = harness._prepared(cfg, pooled, [sub] if sub else names)
            cand = predictor.evaluate_mask(mask, ds, cfg.weights,
                                           cfg.predictor)
            assert (rmse, score) == (cand.rmse, cand.total)

        # The search's memo table scored the agent's mask in its own batch.
        agent = result["search"].best_overall
        assert rows[0][2:] == (agent.mask, agent.rmse, agent.total)
        random_rows = rows[3:3 + len(seeds)]
        if seeds:
            assert rows[2][2:] == (
                None, float(np.mean([row[3] for row in random_rows])),
                float(np.mean([row[4] for row in random_rows])))


class TestTaskScenarios:
    @pytest.fixture
    def spies(self, monkeypatch):
        """The scenario ids of each dataset split and of each dataset whose
        normal equations are built, and the name of each CSV read by the
        harness, in call order."""
        prepared, grams, reads = [], [], []
        real_split, real_read = harness.split_dataset, harness.read_csv
        real_gram = predictor._prepare

        def split(ds, *args, **kwargs):
            prepared.append(ds.scenario_ids())
            return real_split(ds, *args, **kwargs)

        def gram(ds, config):
            grams.append(ds.scenario_ids())
            return real_gram(ds, config)

        def read(path):
            reads.append(Path(path).name)
            return real_read(path)

        monkeypatch.setattr(harness, "split_dataset", split)
        monkeypatch.setattr(predictor, "_prepare", gram)
        monkeypatch.setattr(harness, "read_csv", read)
        return prepared, grams, reads

    def test_default_run_reads_each_csv_once(self, tmp_path, spies):
        cfg = small_config(tmp_path)
        cmd_generate(cfg)
        cmd_run(cfg)
        prepared, grams, reads = spies
        assert reads == ["pooled.csv"]
        # task3's sub rows are scored on task1's and task2's datasets.
        assert prepared == grams == [["intersection"], ["square"],
                                     ["intersection", "square"]]

    def test_multi_scenario_task_gets_only_its_scenarios(self, tmp_path,
                                                         spies):
        cfg = small_config(tmp_path)
        cfg = harness.seeded(replace(
            cfg,
            scenarios={**cfg.scenarios, "uniform": replace(
                cfg.scenarios["square"], layout="uniform")},
            task_scenarios={**cfg.task_scenarios,
                            "task4": ("intersection", "uniform")},
        ), 0)
        cmd_generate(cfg)
        prepared, grams, reads = spies
        results = cmd_run(cfg, tasks=["task3", "task4"])
        assert [r["dataset"].scenario_ids() for r in results] == [
            ["intersection", "square"], ["intersection", "uniform"]]
        # The intersection rows are prepared once for both tasks.
        assert prepared == grams == [
            ["intersection", "square"], ["intersection"], ["square"],
            ["intersection", "uniform"], ["uniform"]]
        assert [len(r["dataset"]) for r in results] == [120, 120]
        assert reads == ["pooled.csv"]
        rows = read_rows(Path(cfg.out_dir) / "results" / "task4_results.csv")
        assert {"task4--intersection", "task4--uniform"} <= {
            r["task"] for r in rows}

    def test_task_scenario_missing_from_data_is_named(self, tmp_path):
        cfg = small_config(tmp_path)
        cmd_generate(cfg)
        cfg = harness.seeded(replace(
            cfg,
            scenarios={**cfg.scenarios, "uniform": replace(
                cfg.scenarios["square"], layout="uniform")},
            task_scenarios={**cfg.task_scenarios,
                            "task4": ("intersection", "uniform")},
        ), 0)
        pooled = Path(cfg.out_dir) / "data" / "pooled.csv"
        message = re.escape(
            f"{pooled} has no rows of the scenarios ['uniform'] that task4 "
            "names; run generate with this config first")
        with pytest.raises(HarnessError, match=message):
            cmd_run(cfg, tasks=["task4"])

    def test_mi_ranking_once_per_baseline_dataset(self, tmp_path,
                                                  monkeypatch):
        cfg = small_config(tmp_path)
        cmd_generate(cfg)
        calls = []
        real = baselines.joint_counts

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(baselines, "joint_counts", spy)
        cmd_run(cfg)
        # task1, task2 and task3 each count the joint histograms of the 10
        # features of one dataset, in one pass.
        assert [X.shape[1] for X, _ in calls] == [10] * 3


class TestReport:
    def test_summary_and_figures(self, tmp_path):
        cfg = small_config(tmp_path)
        cmd_generate(cfg)
        cmd_run(cfg, tasks=["task1", "task2"])
        summary = cmd_report(cfg.out_dir)
        for method in ("agent", "full", "random", "mi_ge_struct",
                       "mi_ge_em"):
            assert method in summary
        report = Path(cfg.out_dir) / "report"
        assert (report / "summary.txt").exists()
        fig = read_rows(report / "fig_entropy_diversity_task1.csv")
        assert all(0.0 <= float(r["entropy"]) <= 1.0 for r in fig)

    def test_empty_dir_lists_missing(self, tmp_path):
        with pytest.raises(HarnessError, match="missing"):
            cmd_report(str(tmp_path))

    def test_reads_only_results_and_generations(self, run_outputs):
        cfg, _ = run_outputs
        out = Path(cfg.out_dir)
        cmd_report(cfg.out_dir)
        first = tree_bytes(out / "report")
        copy = out.parent / "only_traces"
        shutil.copytree(out / "results", copy / "results")
        for view in ("policy", "diagnostics"):
            for path in (copy / "results").glob(f"*_{view}.csv"):
                path.unlink()
        cmd_report(str(copy))
        assert tree_bytes(copy / "report") == first

    def test_line_endings(self, run_outputs):
        cfg, _ = run_outputs
        cmd_report(cfg.out_dir)
        out = Path(cfg.out_dir)
        figures = sorted((out / "report").glob("fig_*.csv"))
        results = sorted((out / "results").glob("*.csv"))
        assert len(figures) == 6 and len(results) == 12
        for path in figures:
            data = path.read_bytes()
            assert data.endswith(b"\n") and b"\r" not in data
        for path in results:
            data = path.read_bytes()
            assert data.count(b"\r\n") == data.count(b"\n") > 1

    def test_missing_generations_trace_is_named(self, run_outputs):
        cfg, _ = run_outputs
        copy = Path(cfg.out_dir).parent / "no_trace"
        shutil.copytree(Path(cfg.out_dir) / "results", copy / "results")
        trace = copy / "results" / "task2_generations.csv"
        trace.unlink()
        with pytest.raises(HarnessError, match=re.escape(
            f"missing run artifacts:\n{trace}"
        )):
            cmd_report(str(copy))

    def test_malformed_generations_trace_is_named(self, run_outputs):
        cfg, _ = run_outputs
        copy = Path(cfg.out_dir).parent / "bad_trace"
        shutil.copytree(Path(cfg.out_dir) / "results", copy / "results")
        trace = copy / "results" / "task1_generations.csv"
        lines = trace.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        trace.write_text("\n".join(lines) + "\n")
        with pytest.raises(HarnessError, match=re.escape(
            f"malformed generations trace {trace}"
        )):
            cmd_report(str(copy))


    def test_missing_task_writes_nothing(self, run_outputs, tmp_path,
                                         capsys):
        out = tmp_path / "out"
        shutil.copytree(Path(run_outputs[0].out_dir) / "results",
                        out / "results")
        missing = [out / "results" / f"task2_{kind}.csv"
                   for kind in ("results", "generations")]
        for path in missing:
            path.unlink()
        before = tree_bytes(out)
        assert main(["report", "--out", str(out), "--task", "task1",
                     "--task", "task2"]) == 2
        assert capsys.readouterr().err == (
            "error: missing run artifacts:\n"
            + "".join(f"{path}\n" for path in missing))
        assert not (out / "report").exists() and tree_bytes(out) == before

    def test_malformed_later_trace_writes_nothing(self, run_outputs,
                                                  tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(Path(run_outputs[0].out_dir) / "results",
                        out / "results")
        trace = out / "results" / "task2_generations.csv"
        lines = trace.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        trace.write_text("\n".join(lines) + "\n")
        before = tree_bytes(out)
        assert main(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed generations trace {trace}\n")
        assert not (out / "report").exists() and tree_bytes(out) == before

    @pytest.mark.parametrize("data", MALFORMED_RESULTS,
                             ids=MALFORMED_RESULTS_IDS)
    def test_malformed_results_table_is_named(self, run_outputs, data):
        cfg, _ = run_outputs
        copy = Path(cfg.out_dir).parent / "bad_results"
        shutil.copytree(Path(cfg.out_dir) / "results", copy / "results",
                        dirs_exist_ok=True)
        table = copy / "results" / "task1_results.csv"
        table.write_bytes(data)
        with pytest.raises(HarnessError, match=re.escape(
            f"malformed results table {table}"
        )):
            cmd_report(str(copy))


# Scenario and task names become file names under --out.
NOT_FILE_NAMES = ["", ".", "..", "../../escaped", "a/b", "a\\b", "a\x00b"]


def files_outside(root, out):
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*")
                  if p.is_file() and Path(out) not in p.parents)


class TestConfigLoading:
    def test_json_and_env_overrides(self, tmp_path, monkeypatch):
        doc = {
            "master_seed": 7,
            "search": {"generations": 12, "population_size": 8,
                       "elite_count": 2},
            "weights": {"lambda_c": 0.2, "lambda_n": 0.4},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("PLSELECT_SEARCH__GENERATIONS", "4")
        monkeypatch.setenv("PLSELECT_SHADOWING_SIGMA", "1.5")
        cfg = load_config(str(path))
        assert cfg.master_seed == 7
        assert cfg.search.generations == 4  # env beats file
        assert cfg.search.population_size == 8
        assert cfg.weights.lambda_c == 0.2
        assert cfg.shadowing_sigma == 1.5
        assert cfg.search.master_seed == 7

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"search": {"bogus": 1}}, "unknown config key 'search.bogus'"),
            ({"bogus": 1}, "unknown config key 'bogus'"),
            ({"scenarios": {"square": {"route_pts": 9}}},
             "unknown config key 'scenarios.square.route_pts'"),
            ({"weights": [0.3]}, "config weights .* must be a JSON object"),
        ],
    )
    def test_bad_file_key_names_key_and_file(self, tmp_path, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(HarnessError, match=message) as exc:
            load_config(str(path), environ={})
        assert str(path) in str(exc.value)

    def test_misspelled_env_var_names_variable(self):
        environ = {"PLSELECT_SERACH__GENERATIONS": "3"}
        with pytest.raises(
            HarnessError, match="'serach' from environment variable "
            "PLSELECT_SERACH__GENERATIONS",
        ):
            load_config(environ=environ)

    def test_search_master_seed_is_not_settable(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"search": {"master_seed": 4}}))
        with pytest.raises(
            HarnessError, match=re.escape(f"'search.master_seed' from {path}")
        ):
            load_config(str(path), master_seed=3, environ={})
        environ = {"PLSELECT_SEARCH__MASTER_SEED": "4"}
        with pytest.raises(
            HarnessError, match="'search.master_seed' from environment "
            "variable PLSELECT_SEARCH__MASTER_SEED",
        ):
            load_config(environ=environ)

    @pytest.mark.parametrize("form", ["config", "env"])
    def test_feature_count_is_not_settable(self, tmp_path, capsys,
                                           monkeypatch, form):
        out = tmp_path / "out"
        args = ["generate", "--out", str(out)]
        if form == "config":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"weights": {"n_features": 24}}))
            args += ["--config", str(path)]
            source = str(path)
        else:
            monkeypatch.setenv("PLSELECT_WEIGHTS__N_FEATURES", "24")
            source = "environment variable PLSELECT_WEIGHTS__N_FEATURES"
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: unknown config key 'weights.n_features' from {source}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"search": {"generations": "3"}},
             "config search.generations from {} must be an integer"),
            ({"weights": {"lambda_c": 10 ** 400}},
             "config weights.lambda_c from {} must be a number"),
            ({"split_fractions": [0.5, "x", 0.2]},
             "config split_fractions[1] from {} must be a number"),
            ({"scenarios": {"extra": {"area_size": 400}}},
             "config scenarios.extra.area_size from {} must be an array"),
            ({"task_scenarios": {"task4": [1]}},
             "config task_scenarios.task4[0] from {} must be a string"),
            ({"scenarios": {"square": {"route_points": True}}},
             "config scenarios.square.route_points from {} must be an "
             "integer"),
        ],
    )
    def test_wrong_value_type_names_key_and_file(self, tmp_path, doc,
                                                 message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(HarnessError, match=re.escape(
            message.format(path)
        )):
            load_config(str(path), environ={})

    def test_values_take_the_field_types(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "shadowing_sigma": 2,
            "scenarios": {"square": {"area_size": [300, 300]}},
            "task_scenarios": {"task4": ["square"]},
        }))
        cfg = load_config(str(path), environ={})
        assert type(cfg.shadowing_sigma) is float
        assert cfg.scenarios["square"].area_size == (300.0, 300.0)
        assert type(cfg.scenarios["square"].area_size[0]) is float
        assert cfg.task_scenarios == {
            **default_config().task_scenarios, "task4": ("square",)
        }

    def test_sources_are_checked_together(self, tmp_path):
        # population_size 4 with the default elite_count 5 is invalid
        # alone; the variable makes the final config valid.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"search": {"population_size": 4}}))
        cfg = load_config(
            str(path), environ={"PLSELECT_SEARCH__ELITE_COUNT": "2"}
        )
        assert (cfg.search.population_size, cfg.search.elite_count) == (4, 2)

    @pytest.mark.parametrize("name", ["square", "extra"])
    def test_scene_seed_is_not_settable(self, tmp_path, name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": {name: {"seed": 4}}}))
        with pytest.raises(HarnessError, match=re.escape(
            f"'scenarios.{name}.seed' from {path}"
        )):
            load_config(str(path), environ={})
        variable = f"PLSELECT_SCENARIOS__{name.upper()}__SEED"
        with pytest.raises(HarnessError, match=re.escape(
            f"'scenarios.{name}.seed' from environment variable {variable}"
        )):
            load_config(environ={variable: "4"})

    def test_added_scene_seed_follows_master_seed(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": {"extra": {}}}))

        def scene_seeds(cfg):
            return {n: sc.seed for n, sc in cfg.scenarios.items()}

        for s in (0, 3):
            cfg = load_config(str(path), master_seed=s,
                              out_dir=str(tmp_path), environ={})
            assert scene_seeds(cfg) == {"intersection": s * 1000 + 1,
                                        "square": s * 1000 + 2,
                                        "extra": s * 1000 + 3}
            assert cfg.search.master_seed == s
        seen = []
        monkeypatch.setattr(harness, "cmd_generate", seen.append)
        monkeypatch.setattr(harness, "cmd_run", lambda *a, **k: [])
        harness.cmd_sweep(cfg, 2)
        assert [scene_seeds(sub) for sub in seen] == [
            scene_seeds(load_config(str(path), master_seed=s, environ={}))
            for s in (3, 4)
        ]

    @pytest.mark.parametrize(
        "key, value",
        [("random_baseline_seeds", -2),
         ("random_baseline_seeds", 2 ** 16 + 1), ("shadowing_sigma", -3.0),
         ("corridor_radius", -1.0), ("shadowing_sigma", float("nan"))],
    )
    def test_out_of_range_values_rejected(self, key, value):
        with pytest.raises(HarnessError, match=key):
            replace(default_config(), **{key: value})
        with pytest.raises(HarnessError, match=key):
            load_config(environ={f"PLSELECT_{key.upper()}": json.dumps(value)})

    @pytest.mark.parametrize("section, entry", [
        ("scenarios", {"layout": "square", "route_points": 20}),
        ("task_scenarios", ["square"]),
    ])
    @pytest.mark.parametrize("name", NOT_FILE_NAMES)
    def test_name_must_be_a_file_name(self, section, entry, name):
        variable = f"PLSELECT_{section.upper()}"
        with pytest.raises(HarnessError) as exc:
            load_config(environ={variable: json.dumps({name: entry})})
        assert str(exc.value).startswith(
            f"config key {section + '.' + name!r} from environment variable "
            f"{variable} must be a file name")

    @pytest.mark.parametrize("names, shown", [
        ([], "got []"), (["nowhere"], "got ['nowhere']"),
        (["square", "nowhere"], "got ['square', 'nowhere']"),
        (["intersection", "intersection"],
         "each once, got ['intersection', 'intersection']"),
    ])
    def test_task_must_name_known_scenarios(self, names, shown):
        variable = {"PLSELECT_TASK_SCENARIOS__TASK1": json.dumps(names)}
        with pytest.raises(HarnessError, match=r"task 'task1' must name.*"
                           + re.escape(shown)):
            load_config(environ=variable)
        with pytest.raises(HarnessError, match="task 'task4'"):
            replace(default_config(),
                    task_scenarios={"task4": tuple(names)})

    def test_added_task_may_name_added_scene(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": {"extra": {}},
                                    "task_scenarios": {"task4": ["extra"]}}))
        cfg = load_config(str(path), environ={})
        assert cfg.task_scenarios["task4"] == ("extra",)

    def test_scene_range_error_names_scenario_and_field(self):
        variable = {"PLSELECT_SCENARIOS__SQUARE__ROUTE_POINTS": "1"}
        with pytest.raises(HarnessError, match=r"config scenarios\.square: "
                           r"SceneConfig\.route_points must be >= 2"):
            load_config(environ=variable)

    def test_defaults_follow_published_settings(self):
        cfg = default_config()
        assert cfg.search.population_size == 25
        assert cfg.search.generations == 50
        assert cfg.search.eta == 0.1
        assert cfg.weights.lambda_c == 0.3
        assert cfg.weights.lambda_n == 0.3
        for sc in cfg.scenarios.values():
            assert sc.area_size == (400.0, 400.0)
            assert sc.route_points == 600
            assert sc.carrier_frequency == 3.5e9
            assert sc.tx_height == 10.0
            assert sc.rx_height == 1.5
        assert cfg.scenarios["intersection"].layout == "intersection"
        assert cfg.scenarios["intersection"].corridor_width == 30.0
        assert cfg.scenarios["square"].layout == "square"
        assert cfg.scenarios["square"].scatterer_count == (35, 45)
        assert cfg.shadowing_sigma == 3.0
        assert cfg.corridor_radius == 50.0
        assert cfg.split_fractions == (0.7, 0.15, 0.15)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def config_docs(template):
    """Documents over the config key tree of template: at each key either
    a value of the field's own type or any JSON value."""
    if is_dataclass(template):
        return st.fixed_dictionaries({}, optional={
            f.name: config_docs(getattr(template, f.name)) | JSON_VALUES
            for f in fields(template)
        })
    if isinstance(template, dict):
        entry = next(iter(template.values()))
        return st.dictionaries(
            st.sampled_from(list(template) + ["extra"]),
            config_docs(entry) | JSON_VALUES, max_size=3,
        )
    if isinstance(template, tuple):
        return st.lists(config_docs(template[0]), max_size=4)
    if isinstance(template, str):
        return st.text(max_size=4)
    return st.integers() if isinstance(template, int) else st.floats()


def env_vars(doc, path=()):
    """PLSELECT_* variables that set each leaf of doc."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            out.update(env_vars(value, path + (key,)))
        else:
            name = "PLSELECT_" + "__".join(path + (key,)).upper()
            out[name] = json.dumps(value)
    return out


def check_loads_or_refuses(**kwargs):
    try:
        cfg = load_config(**kwargs)
    except (HarnessError, ValueError):
        return
    assert [sc.seed for sc in cfg.scenarios.values()] == [
        cfg.master_seed * 1000 + i + 1 for i in range(len(cfg.scenarios))
    ]
    assert cfg.search.master_seed == cfg.master_seed


class TestConfigProperties:
    """load_config returns a config or raises an error the CLI maps to
    exit 2, never another exception."""

    @settings(max_examples=100, deadline=None)
    @given(doc=config_docs(default_config()) | JSON_VALUES,
           seed=st.none() | st.integers(0, 10 ** 6))
    def test_from_file(self, tmp_path_factory, doc, seed):
        path = tmp_path_factory.getbasetemp() / "fuzzed_config.json"
        path.write_text(json.dumps(doc))
        check_loads_or_refuses(path=str(path), master_seed=seed, environ={})

    @settings(max_examples=100, deadline=None)
    @given(doc=config_docs(default_config()))
    def test_from_env(self, doc):
        check_loads_or_refuses(environ=env_vars(doc))


def float_leaves(node, path=()):
    """The key path of every float in the config tree under node; a float
    inside an array ends its path with its index."""
    if is_dataclass(node):
        node = {f.name: getattr(node, f.name) for f in fields(node)}
    if isinstance(node, (dict, tuple)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for k, v in items
                for leaf in float_leaves(v, path + (k,))]
    return [path] if type(node) is float else []


FLOAT_LEAVES = float_leaves(default_config())


def leaf_variable(path, value):
    """The PLSELECT_ variable, and its JSON text, that sets the float at
    path to value and leaves the rest of its array as it is."""
    keys = [k for k in path if isinstance(k, str)]
    if isinstance(path[-1], int):
        node = default_config()
        for k in keys:
            node = node[k] if isinstance(node, dict) else getattr(node, k)
        value = [value if i == path[-1] else v for i, v in enumerate(node)]
    return "PLSELECT_" + "__".join(keys).upper(), json.dumps(value)


class TestNonFiniteFloats:
    """NaN, Infinity and -Infinity at any float of the config are refused
    at load time by an error that names the key."""

    def test_every_section_has_float_leaves(self):
        sections = {path[0] for path in FLOAT_LEAVES}
        assert sections == {"scenarios", "search", "weights", "predictor",
                            "split_fractions", "shadowing_sigma",
                            "corridor_radius"}
        assert ("scenarios", "square", "tx_height") in FLOAT_LEAVES
        assert ("split_fractions", 0) in FLOAT_LEAVES

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(FLOAT_LEAVES),
           value=st.sampled_from([float("nan"), float("inf"),
                                  float("-inf")]))
    def test_refused_naming_the_key(self, tmp_path_factory, path, value):
        variable, text = leaf_variable(path, value)
        keys = [k for k in path if isinstance(k, str)]
        with pytest.raises(HarnessError) as exc:
            load_config(environ={variable: text})
        message = str(exc.value)
        assert re.search(rf"\b{keys[-1]}\b", message)
        if len(keys) > 1:
            assert message.startswith(f"config {'.'.join(keys[:-1])}: ")

        out = tmp_path_factory.getbasetemp() / "non_finite_out"
        err = io.StringIO()
        with mock.patch.dict(os.environ, {variable: text}), \
                redirect_stderr(err):
            assert main(["generate", "--out", str(out)]) == 2
        assert err.getvalue() == f"error: {message}\n"
        assert not out.exists()


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"search": {"bogus": 1}}))
        out = str(tmp_path / "out")
        assert main(["generate", "--config", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key 'search.bogus'")

    def test_wrong_value_type_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"search": {"generations": "3"}}))
        out = str(tmp_path / "out")
        assert main(["generate", "--config", str(path), "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: config search.generations from {path} must be an "
            "integer\n"
        )

    @pytest.mark.parametrize(
        "variable, value, message",
        [
            ("PLSELECT_SHADOWING_SIGMA__X", "1",
             "config shadowing_sigma from environment variable "
             "PLSELECT_SHADOWING_SIGMA__X must be a number"),
            ("PLSELECT_RANDOM_BASELINE_SEEDS", "-2",
             "random_baseline_seeds must be non-negative"),
            ("PLSELECT_SHADOWING_SIGMA", "-3",
             "shadowing_sigma must be finite and non-negative"),
            ("PLSELECT_CORRIDOR_RADIUS", "-1",
             "corridor_radius must be finite and non-negative"),
            ("PLSELECT_PREDICTOR__BASIS", "cubic",
             "config predictor: unknown basis 'cubic'"),
            ("PLSELECT_PREDICTOR__RIDGE_LAMBDA", "0",
             "config predictor: ridge_lambda must be finite and positive"),
        ],
    )
    def test_bad_env_value_exit_code(self, tmp_path, capsys, monkeypatch,
                                     variable, value, message):
        monkeypatch.setenv(variable, value)
        out = str(tmp_path / "out")
        assert main(["generate", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path(out).exists()

    @pytest.mark.parametrize("variable, value, message", [
        ("PLSELECT_SCENARIOS__SQUARE__CARRIER_FREQUENCY", "0",
         "config scenarios.square: SceneConfig.carrier_frequency must be "
         "finite and > 0, got 0.0"),
        ("PLSELECT_SCENARIOS__SQUARE__AREA_SIZE", "[0,0]",
         "config scenarios.square: SceneConfig.area_size must be finite "
         "and > 0, got (0.0, 0.0)"),
        ("PLSELECT_SCENARIOS__INTERSECTION__SCATTERER_HEIGHT", "[9,3]",
         "config scenarios.intersection: SceneConfig.scatterer_height must "
         "be a (min, max) pair with 0 <= min <= max, got (9.0, 3.0)"),
        ("PLSELECT_SCENARIOS__SQUARE__SCATTERER_WIDTH", "[500.0,500.0]",
         "config scenarios.square: SceneConfig.scatterer_width must have a "
         "max of at most area_size[0] = 400.0, got (500.0, 500.0)"),
        ("PLSELECT_SCENARIOS__SQUARE__SCATTERER_DEPTH", "[8,401]",
         "config scenarios.square: SceneConfig.scatterer_depth must have a "
         "max of at most area_size[1] = 400.0, got (8.0, 401.0)"),
        ("PLSELECT_SCENARIOS__SQUARE__TX_HEIGHT", "NaN",
         "config scenarios.square: SceneConfig.tx_height must be finite "
         "and > 0, got nan"),
        ("PLSELECT_SCENARIOS__SQUARE__RX_HEIGHT", "Infinity",
         "config scenarios.square: SceneConfig.rx_height must be finite, "
         "got inf"),
        ("PLSELECT_SCENARIOS__INTERSECTION__CORRIDOR_WIDTH", "-1",
         "config scenarios.intersection: SceneConfig.corridor_width must "
         "be finite and >= 0, got -1.0"),
        ("PLSELECT_SCENARIOS__SQUARE__LAYOUT", "hexagon",
         "config scenarios.square: SceneConfig.layout must be one of "
         "('uniform', 'intersection', 'square'), got 'hexagon'"),
        ("PLSELECT_SCENARIOS__SQUARE__ROUTE_POINTS", "5000000",
         "config scenarios.square: SceneConfig.route_points must ask for "
         "at most 4194304 route points in a scene of layout 'square', got "
         "5000000"),
    ])
    def test_scene_range_exit_code(self, tmp_path, capsys, monkeypatch,
                                   variable, value, message):
        monkeypatch.setenv(variable, value)
        out = str(tmp_path / "out")
        assert main(["generate", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path(out).exists()

    def test_oversized_grid_exit_code(self, tmp_path, capsys, monkeypatch):
        """Boxes of 1 mm ask the default 400 m intersection for 250,000
        grid cells a side; the config is refused before any is built."""
        for side in ("WIDTH", "DEPTH"):
            monkeypatch.setenv(
                f"PLSELECT_SCENARIOS__INTERSECTION__SCATTERER_{side}",
                "[0.001, 0.001]")
        out = str(tmp_path / "out")
        built = AssertionError("the intersection grid was built")
        with mock.patch.object(np, "meshgrid", side_effect=built):
            assert main(["generate", "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: config scenarios.intersection: SceneConfig."
            "scatterer_width and scatterer_depth must ask for at most "
            "4194304 boxes in a scene of layout 'intersection', got "
            "62500000000\n")
        assert not Path(out).exists()

    @pytest.mark.parametrize("value", ["[]", '["nowhere"]'])
    def test_bad_task_scenarios_exit_code(self, tmp_path, capsys,
                                          monkeypatch, value):
        monkeypatch.setenv("PLSELECT_TASK_SCENARIOS__TASK1", value)
        args = ["--out", str(tmp_path / "out"), "--task", "task1"]
        assert main(["run"] + args) == 2
        assert capsys.readouterr().err.startswith(
            "error: task 'task1' must name one or more of the scenarios")

    @pytest.mark.parametrize("points, counts", [
        (20, "14 train, 3 val and 3 test"), (5, "3 train, 1 val and 1 test"),
    ], ids=["20", "5"])
    def test_generate_refuses_too_few_route_points(
            self, tmp_path, capsys, monkeypatch, points, counts):
        monkeypatch.setenv("PLSELECT_SCENARIOS__INTERSECTION__ROUTE_POINTS",
                           str(points))
        out = tmp_path / "out"
        assert main(["generate", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: task 'task1' needs at least 2 train, 2 val and 1 test "
            "rows per scenario and 16 train rows; scenarios.intersection."
            f"route_points = {points} gives {counts} rows\n")
        assert not out.exists()

    def test_generate_takes_enough_route_points(self, tmp_path,
                                                monkeypatch):
        # 22 points give 16 train, 3 val and 3 test rows.
        monkeypatch.setenv("PLSELECT_SCENARIOS__INTERSECTION__ROUTE_POINTS",
                           "22")
        assert main(["generate", "--out", str(tmp_path / "out")]) == 0

    def test_generate_refuses_non_finite_rows(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("PLSELECT_SCENARIOS__INTERSECTION__RX_HEIGHT",
                           "1e300")
        out = tmp_path / "out"
        assert main(["generate", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: config scenarios.intersection, route index 0: non-finite "
            "feature or path loss\n")
        assert [p for p in out.rglob("*") if p.is_file()] == []

    def test_generate_refuses_an_overflowing_scene_quietly(
            self, tmp_path, monkeypatch):
        # Cells wider than the area: no boxes, and a route that overflows.
        monkeypatch.setenv("PLSELECT_SCENARIOS__INTERSECTION__AREA_SIZE",
                           "[1.7e308,1.7e308]")
        monkeypatch.setenv(
            "PLSELECT_SCENARIOS__INTERSECTION__SCATTERER_WIDTH",
            "[1e308,1.1e308]")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with redirect_stderr(io.StringIO()) as err:
                assert main(["generate", "--out", str(out)]) == 2
        assert [str(w.message) for w in caught] == []
        assert err.getvalue() == (
            "error: config scenarios.intersection, route index 0: non-finite "
            "feature or path loss\n")
        assert not out.exists()

    @pytest.mark.parametrize("variable, value", [
        ("PLSELECT_WEIGHTS__LAMBDA_C", "1e308"),
        ("PLSELECT_SHADOWING_SIGMA", "1e300"),
    ])
    def test_run_refuses_non_finite_scores_quietly(
            self, tmp_path, capsys, monkeypatch, variable, value):
        # Finite values whose scores overflow: lambda_c times a trend
        # error, and the squared errors of path losses near 1e300.
        monkeypatch.setenv(variable, value)
        out = tmp_path / "out"
        assert main(["generate", "--out", str(out)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--out", str(out)]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr() == ("", (
            "error: scores are not finite: a fit, the targets or the "
            "weights overflow\n"))
        assert not (out / "results").exists()

    def test_run_refuses_overflowing_standardization_quietly(
            self, tmp_path, capsys, monkeypatch):
        # Scatterers 1e300 m high leave finite features whose train std
        # overflows in task2.
        monkeypatch.setenv("PLSELECT_SCENARIOS__SQUARE__SCATTERER_HEIGHT",
                           "[1e300,1e300]")
        out = tmp_path / "out"
        assert main(["generate", "--out", str(out)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--out", str(out)]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "error: train mean or std is not finite for f3 (H_ts_avg), "
            "f6 (V_eff_mean), f10 (Dif_WEK)\n")
        assert not list((out / "results").glob("task2_*"))

    @pytest.mark.parametrize("source", ["file", "env"])
    def test_scenario_name_pooled_refused(self, tmp_path, capsys,
                                          monkeypatch, source):
        # data/pooled.csv would hold both the scenario's rows and the pool.
        entry = {"layout": "square", "route_points": 20}
        args = ["generate", "--out", str(tmp_path / "out")]
        if source == "file":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"scenarios": {"pooled": entry}}))
            args += ["--config", str(path)]
        else:
            monkeypatch.setenv("PLSELECT_SCENARIOS__POOLED", json.dumps(entry))
        assert main(args) == 2
        assert capsys.readouterr() == ("", (
            "error: scenario name 'pooled' is reserved: data/pooled.csv "
            "holds every scenario's rows\n"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "run"])
    def test_oversized_search_exit_code(self, tmp_path, capsys, monkeypatch,
                                        command):
        # Preallocating its memo table would fail before the first draw.
        monkeypatch.setenv("PLSELECT_SEARCH__POPULATION_SIZE", str(10 ** 15))
        out = tmp_path / "out"
        assert main([command, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: config search: generations x population_size must be at "
            "most 1048576, got 50 x 1000000000000000 = 50000000000000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "run"])
    def test_too_many_random_baseline_seeds_exit_code(
            self, tmp_path, capsys, monkeypatch, command):
        # Refused before any search or scoring starts.
        for name in ("run_search", "evaluate_masks"):
            monkeypatch.setattr(harness, name, mock.Mock(
                side_effect=AssertionError(f"{name} called")))
        monkeypatch.setenv("PLSELECT_RANDOM_BASELINE_SEEDS", str(10 ** 12))
        out = tmp_path / "out"
        assert main([command, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", (
            "error: random_baseline_seeds must be at most 65536, got "
            "1000000000000\n"))
        assert not out.exists()

    @pytest.mark.parametrize("name", NOT_FILE_NAMES)
    def test_scenario_name_outside_out_refused(self, tmp_path, capsys, name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenarios": {
            name: {"layout": "square", "route_points": 20}}}))
        out = tmp_path / "a" / "b" / "out"
        assert main(["generate", "--config", str(path), "--out",
                     str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: config key {'scenarios.' + name!r} from {path} must be "
            "a file name")
        assert files_outside(tmp_path, out) == ["cfg.json"]
        assert not out.exists()

    def test_task_name_outside_out_refused(self, tmp_path, capsys):
        out = tmp_path / "a" / "b" / "out"
        assert main(["generate", "--out", str(out)]) == 0
        written = tree_bytes(out)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"task_scenarios": {"../../tesc": ["square"]}}))
        assert main(["run", "--config", str(path), "--out", str(out),
                     "--task", "../../tesc"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: config key 'task_scenarios.../../tesc' from "
            f"{path} must be a file name")
        assert files_outside(tmp_path, out) == ["cfg.json"]
        assert tree_bytes(out) == written

    def test_bad_layout_refused_by_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PLSELECT_SCENARIOS__SQUARE__LAYOUT", "hexagon")
        assert main(["run", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: config scenarios.square: SceneConfig.layout must be")

    def test_placement_failure_exit_code(self, tmp_path, capsys,
                                         monkeypatch):
        # A box as large as the area always covers the transmitter.
        for key in ("SCATTERER_WIDTH", "SCATTERER_DEPTH"):
            monkeypatch.setenv(f"PLSELECT_SCENARIOS__SQUARE__{key}",
                               "[400, 400]")
        assert main(["generate", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: scenario 'square': could not place scatterer 0: "
            "clearance from tx/route failed after 200 retries\n")

    def test_placement_retries_are_not_settable(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setenv("PLSELECT_SCENARIOS__SQUARE__MAX_PLACEMENT_RETRIES",
                           "1")
        out = tmp_path / "out"
        assert main(["generate", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown config key "
            "'scenarios.square.max_placement_retries' from environment "
            "variable PLSELECT_SCENARIOS__SQUARE__MAX_PLACEMENT_RETRIES\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report"])
    @pytest.mark.parametrize("data", MALFORMED_RESULTS,
                             ids=MALFORMED_RESULTS_IDS)
    def test_malformed_results_exit_code(self, run_outputs, tmp_path, capsys,
                                         command, data):
        cfg, _ = run_outputs
        out = tmp_path / "out"
        shutil.copytree(cfg.out_dir, out)
        table = out / "results" / "task1_results.csv"
        table.write_bytes(data)
        assert main([command, "--out", str(out), "--task", "task1"]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed results table {table}\n")

    def test_non_utf8_generations_trace_exit_code(self, run_outputs,
                                                  tmp_path, capsys):
        cfg, _ = run_outputs
        out = tmp_path / "out"
        shutil.copytree(cfg.out_dir, out)
        trace = out / "results" / "task1_generations.csv"
        data = trace.read_bytes()
        end = data.rindex(b"0")  # in the last row's best_mask
        trace.write_bytes(data[:end] + b"\xff" + data[end + 1:])
        assert main(["report", "--out", str(out), "--task", "task1"]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed generations trace {trace}\n")

    @pytest.mark.parametrize("data, message", [
        (b"{bad", "Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        (b'{"search": {}}\xff', "'utf-8' codec can't decode byte 0xff in "
         "position 14: invalid start byte"),
    ], ids=["not_json", "not_utf8"])
    def test_unreadable_config_file_exit_code(self, tmp_path, capsys, data,
                                              message):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: config file {path}: {message}\n")
        assert not out.exists()

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        assert main(["generate", "--seed", "-1",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: master_seed must be non-negative\n")
        assert not (tmp_path / "out").exists()

    # Scene seeds are seed * 1000 + i + 1: at 4294968 they pass 2**32, and
    # at 2**64 the search seed splits into three 32-bit words.
    @pytest.mark.parametrize("seed", ["4294968", "18446744073709551616"])
    def test_multi_word_seeds_exit_zero(self, tmp_path, seed):
        args = ["--seed", seed, "--out", str(tmp_path / "out")]
        assert main(["generate"] + args) == 0
        assert main(["run"] + args) == 0

    @pytest.mark.parametrize("args", [
        ["generate", "--task", "nonsense"],
        ["sweep", "--seeds", "0"],
        ["sweep", "--seeds", "-2"],
        ["report", "--jobs", "1"],
        ["sweep", "--jobs", "1"],
    ])
    def test_options_that_do_nothing_are_usage_errors(self, tmp_path,
                                                      capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 1
        assert not (tmp_path / "out").exists()

    def test_report_missing_dir_exit_code(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "nope")]) == 2

    def test_module_entry_point_exit_code(self, tmp_path):
        src = Path(plselect.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "plselect.cli", "report",
             "--out", str(tmp_path / "nope")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: missing run artifacts:")
        assert not (tmp_path / "nope").exists()

    @pytest.mark.parametrize("name", ["../../../../x", *NOT_FILE_NAMES])
    def test_report_task_outside_out_refused(self, run_outputs, tmp_path,
                                             capsys, name):
        # Results for a task x in a/: report --out a/b/c/out --task
        # ../../../../x once read them, wrote a/b/c/x.csv and made
        # report/fig_*_.. directories.
        results = Path(run_outputs[0].out_dir) / "results"
        out = tmp_path / "a" / "b" / "c" / "out"
        shutil.copytree(results, out / "results")
        for kind in ("results", "generations"):
            shutil.copy(results / f"task1_{kind}.csv",
                        tmp_path / "a" / f"x_{kind}.csv")
        before = sorted(tmp_path.rglob("*")), tree_bytes(tmp_path)
        assert main(["report", "--out", str(out), "--task", "task1",
                     "--task", name]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: task {name!r} must be a file name")
        assert (sorted(tmp_path.rglob("*")), tree_bytes(tmp_path)) == before

    def test_report_repeated_task_counts_once(self, run_outputs, tmp_path,
                                              capsys):
        out = tmp_path / "out"
        shutil.copytree(run_outputs[0].out_dir, out)
        args = ["report", "--out", str(out), "--task", "task1"]
        assert main(args) == 0
        once = capsys.readouterr().out, tree_bytes(out)
        assert main(args + ["--task", "task1"]) == 0
        assert (capsys.readouterr().out, tree_bytes(out)) == once

    def test_sweep_repeated_task_runs_once(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "search": {"population_size": 8, "generations": 4,
                       "elite_count": 2},
            "scenarios": {"intersection": {"route_points": 40}},
            "random_baseline_seeds": 2,
        }))
        out = tmp_path / "out"
        assert main(["sweep", "--seeds", "1", "--config", str(cfg_path),
                     "--out", str(out), "--task", "task1",
                     "--task", "task1"]) == 0
        with open(out / "sweep_summary.csv", newline="") as fh:
            swept = list(csv.reader(fh))
        with open(out / "seed0" / "results" / "task1_results.csv",
                  newline="") as fh:
            results = list(csv.reader(fh))
        assert swept == [["seed"] + row for row in results[:1]] + [
            ["0"] + row for row in results[1:]]
        assert sorted(p.name for p in (out / "seed0" / "results").iterdir()
                      ) == [f"task1_{kind}.csv" for kind in (
                          "diagnostics", "generations", "policy", "results")]

    def test_run_refuses_unknown_task_before_running(self, tmp_path,
                                                     capsys):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "search": {"population_size": 8, "generations": 4,
                       "elite_count": 2},
            "scenarios": {"intersection": {"route_points": 40}},
        }))
        args = ["--config", str(cfg_path), "--out", str(out)]
        assert main(["generate"] + args) == 0
        capsys.readouterr()
        assert main(["run"] + args + ["--task", "task1", "--task",
                                      "task9"]) == 2
        assert capsys.readouterr().err == "error: unknown task 'task9'\n"
        assert sorted(p.name for p in out.iterdir()) == ["data", "scenes"]

    def test_run_task_reports_only_that_task(self, tmp_path, capsys):
        # Another task's missing or stale files are not run's to report.
        args = ["--seed", "0", "--out", str(tmp_path / "out")]
        assert main(["generate"] + args) == 0
        assert main(["run"] + args) == 0
        (tmp_path / "out" / "results" / "task1_generations.csv").unlink()
        capsys.readouterr()
        assert main(["run"] + args + ["--task", "task2"]) == 0
        out, err = capsys.readouterr()
        rows = out.splitlines()[2:]
        assert err == "" and rows
        assert all(row.startswith("task2 ") for row in rows)

    def test_sweep_refuses_unknown_task_before_generating(self, tmp_path,
                                                          capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--seeds", "2", "--out", str(out), "--task",
                     "task9"]) == 2
        assert capsys.readouterr().err == "error: unknown task 'task9'\n"
        assert not out.exists()

    def test_run_reads_no_scenario_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "search": {"population_size": 8, "generations": 4,
                       "elite_count": 2},
            "scenarios": {"intersection": {"route_points": 40},
                          "square": {"route_points": 40}},
            "random_baseline_seeds": 2,
        }))
        args = ["--config", str(cfg_path), "--out", str(out)]
        assert main(["generate"] + args) == 0
        assert main(["run"] + args) == 0
        written = tree_bytes(out)
        shutil.rmtree(out / "results")
        shutil.rmtree(out / "report")
        for name in ("intersection", "square"):
            (out / "data" / f"{name}.csv").unlink()
        assert main(["run"] + args) == 0
        assert tree_bytes(out) == {
            k: v for k, v in written.items()
            if k not in ("data/intersection.csv", "data/square.csv")}

    def test_end_to_end(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        cfg_doc = {
            "search": {"population_size": 8, "generations": 4,
                       "elite_count": 2},
            "scenarios": {
                "intersection": {"route_points": 40},
                "square": {"route_points": 40},
            },
            "random_baseline_seeds": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg_doc))
        args = ["--config", str(cfg_path), "--seed", "1", "--out", out]
        assert main(["generate"] + args) == 0
        assert main(["run"] + args + ["--task", "task1"]) == 0
        assert main(["report", "--out", out]) == 0
        captured = capsys.readouterr()
        assert "agent" in captured.out

    def test_malformed_dataset_exit_code(self, tmp_path, capsys):
        cfg = small_config(tmp_path, route_points=22)
        cmd_generate(cfg)
        data = Path(cfg.out_dir) / "data" / "pooled.csv"
        lines = data.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]
        data.write_text("\n".join(lines) + "\n")
        args = ["--seed", "0", "--out", cfg.out_dir, "--task", "task1"]
        assert main(["run"] + args) == 2
        err = capsys.readouterr().err
        assert f"{data}, line 6: expected 13 fields, got 12" in err

    def test_route_index_beyond_int64_exit_code(self, tmp_path, capsys):
        cfg = small_config(tmp_path, route_points=22)
        cmd_generate(cfg)
        data = Path(cfg.out_dir) / "data" / "pooled.csv"
        lines = data.read_text().splitlines()
        scenario_id, _, rest = lines[4].split(",", 2)
        lines[4] = f"{scenario_id},99999999999999999999,{rest}"
        data.write_text("\n".join(lines) + "\n")
        args = ["--seed", "0", "--out", cfg.out_dir, "--task", "task1"]
        assert main(["run"] + args) == 2
        assert capsys.readouterr().err == (
            f"error: {data}, line 5: route index 99999999999999999999 does "
            "not fit in int64\n")
        assert not (Path(cfg.out_dir) / "results").exists()

    def test_repeated_route_point_exit_code(self, tmp_path, capsys):
        cfg = small_config(tmp_path, route_points=22)
        cmd_generate(cfg)
        data = Path(cfg.out_dir) / "data" / "pooled.csv"
        lines = data.read_text().splitlines()
        data.write_text("\n".join(lines[:2] + lines[1:]) + "\n")
        args = ["--seed", "0", "--out", cfg.out_dir, "--task", "task1"]
        assert main(["run"] + args) == 2
        assert capsys.readouterr().err == (
            f"error: {data}, line 3: scenario 'intersection', route index 0 "
            "repeats line 2\n")
        assert not (Path(cfg.out_dir) / "results").exists()


class TestSweep:
    def test_sub_config_keeps_every_field_but_the_per_seed_ones(
        self, tmp_path, monkeypatch
    ):
        per_seed = {"scenarios", "search", "master_seed", "out_dir"}
        changed = dict(
            task_scenarios={"task1": ("intersection",)},
            weights=ScoreWeights(lambda_c=0.2, lambda_n=0.1),
            predictor=PredictorConfig(basis="linear", ridge_lambda=2.0),
            split_fractions=(0.6, 0.2, 0.2),
            shadowing_sigma=1.0,
            corridor_radius=40.0,
            random_baseline_seeds=2,
        )
        # A new ExperimentConfig field needs a changed value here.
        assert set(changed) == {
            f.name for f in fields(ExperimentConfig)
        } - per_seed
        cfg = replace(
            default_config(master_seed=3, out_dir=str(tmp_path)), **changed
        )
        seen = []
        monkeypatch.setattr(harness, "cmd_generate", seen.append)
        monkeypatch.setattr(harness, "cmd_run", lambda *a, **k: [])
        harness.cmd_sweep(cfg, 2)
        assert [sub.master_seed for sub in seen] == [3, 4]
        for sub in seen:
            seed = sub.master_seed
            assert sub.out_dir == str(tmp_path / f"seed{seed}")
            assert sub.search == replace(cfg.search, master_seed=seed)
            assert [sc.seed for sc in sub.scenarios.values()] == [
                seed * 1000 + 1, seed * 1000 + 2
            ]
            for name, value in changed.items():
                assert getattr(sub, name) == value
