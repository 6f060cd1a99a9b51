"""The benchmark's workloads (perfbench/workloads.py, loaded as it is),
one operation each, checked against perfbench/references.json: a change
that breaks how the benchmark calls the package, or any output it pins,
fails here."""

import importlib.util
import math
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["pipeline_seed", "search_pooled",
                                  "search_wide"])
def test_one_operation_matches_references(workloads, tmp_path, monkeypatch,
                                          name):
    monkeypatch.setattr(workloads, "WORK_DIR", tmp_path)
    workload = workloads.WORKLOADS[name](workloads.load_references())
    workload.setup(0)
    job = workload.prepare(0)
    for phase in workload.phases(job):
        output = phase()
    ratio, extras = workload.check(job, output)  # CheckFailed if it differs
    assert math.isfinite(ratio) and ratio > 0
    assert all(math.isfinite(v) for v in extras.values())
