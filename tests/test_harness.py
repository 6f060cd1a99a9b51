import csv
import json
import re
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plselect import harness
from plselect.cli import main
from plselect.harness import (
    ExperimentConfig,
    HarnessError,
    cmd_generate,
    cmd_report,
    cmd_run,
    cmd_run_baselines,
    default_config,
    load_config,
)
from plselect.predictor import PredictorConfig
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


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    cfg = small_config(tmp)
    cmd_generate(cfg)
    results = cmd_run(cfg)
    return cfg, results


class TestRun:

    def test_task1_method_rows(self, run_outputs):
        cfg, _ = run_outputs
        rows = read_rows(Path(cfg.out_dir) / "results" / "task1_results.csv")
        methods = {r["method"] for r in rows}
        assert {"agent", "full", "random", "mi_ge_struct",
                "mi_ge_em"} <= methods

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
        with pytest.raises(HarnessError):
            cmd_run(cfg, tasks=["task9"])

    def test_missing_dataset_names_task(self, tmp_path):
        cfg = small_config(tmp_path)
        with pytest.raises(HarnessError, match="task1"):
            cmd_run(cfg, tasks=["task1"])


class TestBaselinesCommand:
    def test_writes_baseline_rows(self, tmp_path):
        cfg = small_config(tmp_path)
        cmd_generate(cfg)
        cmd_run_baselines(cfg, tasks=["task1"])
        rows = read_rows(
            Path(cfg.out_dir) / "results" / "task1_baselines.csv"
        )
        methods = {r["method"] for r in rows}
        assert {"full", "mi_ge_struct", "mi_ge_em"} <= methods
        assert sum(m.startswith("random_seed") for m in methods) == 3

    def test_matches_baseline_rows_of_run(self, tmp_path):
        cfg = small_config(tmp_path)
        cmd_generate(cfg)
        cmd_run(cfg, tasks=["task1"])
        cmd_run_baselines(cfg, tasks=["task1"])
        results_dir = Path(cfg.out_dir) / "results"
        baselines = read_rows(results_dir / "task1_baselines.csv")
        results = read_rows(results_dir / "task1_results.csv")
        assert results[0]["method"] == "agent"
        assert baselines == results[1:]
        assert {"full", "random", "mi_ge_struct", "mi_ge_em",
                "random_seed0"} <= {r["method"] for r in baselines}

    def test_unknown_task(self, tmp_path):
        cfg = small_config(tmp_path)
        cmd_generate(cfg)
        with pytest.raises(HarnessError, match="task9"):
            cmd_run_baselines(cfg, tasks=["task9"])

    def test_zero_random_seeds_writes_no_random_rows(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg.random_baseline_seeds = 0
        cmd_generate(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cmd_run_baselines(cfg, tasks=["task1"])
        rows = read_rows(
            Path(cfg.out_dir) / "results" / "task1_baselines.csv"
        )
        assert [r["method"] for r in rows] == [
            "full", "mi_ge_struct", "mi_ge_em"]


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
        [("random_baseline_seeds", -2), ("shadowing_sigma", -3.0),
         ("corridor_radius", -1.0), ("shadowing_sigma", float("nan"))],
    )
    def test_out_of_range_values_rejected(self, key, value):
        with pytest.raises(HarnessError, match=key):
            replace(default_config(), **{key: value})
        with pytest.raises(HarnessError, match=key):
            load_config(environ={f"PLSELECT_{key.upper()}": json.dumps(value)})

    @pytest.mark.parametrize("names, shown", [
        ([], "got []"), (["nowhere"], "got ['nowhere']"),
        (["square", "nowhere"], "got ['square', 'nowhere']"),
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
    ])
    def test_scene_range_exit_code(self, tmp_path, capsys, monkeypatch,
                                   variable, value, message):
        monkeypatch.setenv(variable, value)
        out = str(tmp_path / "out")
        assert main(["generate", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path(out).exists()

    @pytest.mark.parametrize("value", ["[]", '["nowhere"]'])
    def test_bad_task_scenarios_exit_code(self, tmp_path, capsys,
                                          monkeypatch, value):
        monkeypatch.setenv("PLSELECT_TASK_SCENARIOS__TASK1", value)
        args = ["--out", str(tmp_path / "out"), "--task", "task1"]
        assert main(["run-baselines"] + args) == 2
        assert capsys.readouterr().err.startswith(
            "error: task 'task1' must name one or more of the scenarios")

    def test_report_missing_dir_exit_code(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "nope")]) == 2

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
        cfg = small_config(tmp_path, route_points=20)
        cmd_generate(cfg)
        data = Path(cfg.out_dir) / "data" / "intersection.csv"
        lines = data.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]
        data.write_text("\n".join(lines) + "\n")
        args = ["--seed", "0", "--out", cfg.out_dir, "--task", "task1"]
        assert main(["run"] + args) == 2
        err = capsys.readouterr().err
        assert f"{data}, line 6: expected 13 fields, got 12" in err


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
