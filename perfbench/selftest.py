"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

They are kept out of the package's own test suite, which collects only
test_*.py files.
"""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_with_children_overlapping_on_threads():
    spans = [
        Span(1, None, "root", 1, 0.0, 10.0, None),
        Span(2, 1, "a", 2, 1.0, 5.0, None),  # thread 2
        Span(3, 1, "b", 3, 3.0, 7.0, None),  # thread 3, overlaps a
        Span(4, 1, "c", 1, 8.0, 9.0, None),
        Span(5, 1, "d", 2, 9.5, 11.0, None),  # ends after its parent
        Span(6, 2, "a.child", 2, 2.0, 3.0, None),
    ]
    own = tracing.self_times(spans)
    # root: 10 - |[1,7] u [8,9] u [9.5,10]| = 10 - 7.5
    assert own[1] == pytest.approx(2.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[6] == pytest.approx(1.0)


def test_covered_merges_nested_and_touching_intervals():
    assert tracing.covered([]) == 0.0
    assert tracing.covered([(0, 4), (1, 2), (4, 6), (7, 8)]) == 7.0


def test_metric_names_and_units():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        tracing.LAYER_UNITS
    assert sorted(workloads.WORKLOADS) == sorted(
        w["name"] for w in bench["workloads"])


def _fake_run(out: Path):
    for task, score in (("task1", "-6"), ("task2", "-4"), ("task3", "-5")):
        path = out / "results" / f"{task}_results.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("task,method,features,rmse_db,total_score\n"
                        f"{task},agent,\"(1,2)\",1.5,{score}\n")
    (out / "data").mkdir()
    (out / "data" / "pooled.csv").write_text("scenario_id\n")


def test_pipeline_check_catches_one_changed_byte(tmp_path):
    _fake_run(tmp_path / "ref")
    ref = {"files": workloads.digest_tree(tmp_path / "ref"),
           "optimum": {"task1": -6.0, "task2": -4.0, "task3": -4.0}}
    check = workloads.PipelineSeed({"pipeline_seed": {"7": ref}}).check

    good = tmp_path / "good"
    _fake_run(good)
    ratio, _ = check((7, good), None)
    assert ratio == pytest.approx((1 + 1 + 1.25) / 3)

    bad = tmp_path / "bad"
    _fake_run(bad)
    path = bad / "results" / "task2_results.csv"
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(workloads.CheckFailed, match="task2_results.csv"):
        check((7, bad), None)


def test_planted_generator_is_deterministic_per_seed():
    a, b, c = (workloads.planted_dataset(s) for s in (3, 3, 4))
    assert a.n_features == workloads.WIDE_FEATURES == 24
    assert len(a) == workloads.WIDE_SAMPLES
    np.testing.assert_array_equal(a.feature_matrix(), b.feature_matrix())
    np.testing.assert_array_equal(a.targets(), b.targets())
    assert a.split == b.split
    assert not np.array_equal(a.targets(), c.targets())


def test_wrapped_functions_restored_and_pool_spans_parented():
    from plselect.search import SearchConfig

    def current():
        out = {}
        for owner_path, attr, _, _ in tracing.WRAPPED:
            owner = tracing.resolve_owner(owner_path)
            out[owner_path, attr] = owner.__dict__[attr]
        return out

    before = current()
    ds = workloads.planted_dataset(0)
    config = SearchConfig(population_size=6, generations=2, elite_count=2)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="stop"):
        with tracer.installed():
            assert current() != before
            workloads.search.run_search(
                ds, config, workloads.wide_weights(), jobs=2)
            raise RuntimeError("stop")
    assert current() == before
    assert tracer.missing == []

    roots = [s for s in tracer.spans if s.name == "plselect.search.run_search"]
    evals = [s for s in tracer.spans
             if s.name == "plselect.search.evaluate_mask"]
    assert len(roots) == 1 and evals
    assert all(s.parent == roots[0].id for s in evals)
    main = threading.main_thread().ident
    assert any(s.thread != main for s in evals)
    m = tracing.layer_metrics(tracer.spans, tracer.counts, tracer.keys)
    assert m["search.draws"] == 12
    assert m["search.unique_evals"] == m["predictor.evaluate_mask_calls"]
    assert m["predictor.fit_s"] <= m["predictor.evaluate_mask_s"]
