"""The benchmark's workloads: inputs from the workload seed, one operation
at a time, and a check of every output against references.json.

A workload seed fixes an order of MASTER_SEEDS; operation k uses the k-th
seed of that order, cycling. pipeline_seed runs the CLI for that master
seed. The search workloads use the k-th seed as the search seed on one
dataset: search_wide's is drawn from the first seed of the order,
search_pooled's is the default config's (master seed 0).

check() raises CheckFailed on a wrong output and otherwise returns the
operation's score ratio and extra facts. The score ratio is the best
score found divided by a reference score: the exhaustive optimum over
all masks where N=10, the planted mask's score on search_wide. Scores
are negative and higher is better, so 1.0 means the optimum was found
and larger is worse.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
from contextlib import redirect_stdout
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

import plselect.cli as cli
from plselect import dataset, scenario, search
from plselect.dataset import Dataset, Sample
from plselect.harness import default_config
from plselect.scenario import FeatureCatalog
from plselect.scoring import ScoreWeights

MASTER_SEEDS = (0, 1, 2, 3, 4, 5)
REFERENCES = Path(__file__).with_name("references.json")
WORK_DIR = Path(".bench_work")  # relative to the checkout root
SCORE_TOLERANCE = 1e-9

# search_wide's planted dataset.
WIDE_SAMPLES = 1200
PLANTED_COEFFICIENTS = (4.0, 3.0, 2.5, 2.0)
NOISE_SIGMA = 0.5  # on the target and on each noisy copy
N_COPIES = 4
N_PURE_NOISE = 16
WIDE_FEATURES = len(PLANTED_COEFFICIENTS) + N_COPIES + N_PURE_NOISE
PLANTED_MASK = (1,) * len(PLANTED_COEFFICIENTS) + (0,) * (
    WIDE_FEATURES - len(PLANTED_COEFFICIENTS))


def run_plselect(command: str, seed: int, out: Path) -> None:
    """One plselect command for one master seed, default config,
    --jobs 1, writing under out."""
    with redirect_stdout(io.StringIO()):
        code = cli.main([command, "--seed", str(seed),
                         "--out", str(out), "--jobs", "1"])
    if code != 0:
        raise RuntimeError(f"plselect {command} exited {code}")


def pipeline_phases(seed: int, out: Path) -> list:
    """plselect generate, then run, each as a call of its own."""
    return [partial(run_plselect, command, seed, out)
            for command in ("generate", "run")]


class CheckFailed(Exception):
    """An operation's output differs from the stored reference."""


def load_references(path=REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)


def seed_order(seed: int) -> list:
    """MASTER_SEEDS permuted by the workload seed."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    return [MASTER_SEEDS[i] for i in rng.permutation(len(MASTER_SEEDS))]


def mask_string(mask) -> str:
    return "".join(str(int(b)) for b in mask)


def digest_tree(root: Path) -> dict:
    """Relative POSIX path -> sha256 of every file under root."""
    return {
        path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def pooled_dataset(master_seed: int):
    """task3's dataset as run_task prepares it: both default scenes,
    split and standardized with the master seed."""
    cfg = default_config(master_seed=master_seed)
    scenes = [scenario.generate_scene(sc) for sc in cfg.scenarios.values()]
    ds = dataset.build_dataset(
        scenes, list(cfg.scenarios),
        shadowing_sigma=cfg.shadowing_sigma,
        corridor_radius=cfg.corridor_radius,
    )
    ds = dataset.split_dataset(ds, cfg.split_fractions, seed=master_seed)
    return cfg, dataset.standardize(ds)


def planted_dataset(master_seed: int) -> Dataset:
    """Four signal columns, a noisy copy of each, and pure-noise columns;
    the target depends on the signal columns only."""
    rng = np.random.default_rng(
        np.random.SeedSequence([int(master_seed), WIDE_FEATURES]))
    n, k = WIDE_SAMPLES, len(PLANTED_COEFFICIENTS)
    signal = rng.normal(size=(n, k))
    copies = signal + rng.normal(0.0, NOISE_SIGMA, size=(n, k))
    noise = rng.normal(size=(n, N_PURE_NOISE))
    X = np.hstack([signal, copies, noise])
    y = signal @ np.asarray(PLANTED_COEFFICIENTS)
    y = y + rng.normal(0.0, NOISE_SIGMA, size=n)
    catalog = FeatureCatalog(
        symbols=tuple(f"x{i + 1}" for i in range(WIDE_FEATURES)),
        categories=(("Signal",) * k + ("Copy",) * N_COPIES
                    + ("Noise",) * N_PURE_NOISE),
    )
    samples = tuple(
        Sample(features=X[i], path_loss=float(y[i]), route_index=i,
               scenario_id="planted")
        for i in range(n)
    )
    ds = Dataset(samples=samples, catalog=catalog)
    return dataset.standardize(dataset.split_dataset(ds, seed=master_seed))


def wide_weights() -> ScoreWeights:
    # The default n_features=10 would mis-scale the cardinality penalty.
    return ScoreWeights(n_features=WIDE_FEATURES)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Workload:
    name = ""

    def __init__(self, references: dict):
        self.refs = references[self.name]

    def setup(self, seed: int) -> None:
        """Build the inputs; the benchmark times this."""
        self.order = seed_order(seed)

    def prepare(self, k: int):
        """Untimed per-operation preparation; returns the job."""
        return self.order[k % len(self.order)]

    def phases(self, job) -> list:
        """The operation as calls to make in turn, each timed on its own.
        The last call's return value is the output that check() gets."""
        raise NotImplementedError

    def check(self, job, output):
        raise NotImplementedError


class PipelineSeed(Workload):
    """plselect generate + run for one master seed, default config,
    --jobs 1, into a fresh --out."""

    name = "pipeline_seed"

    def prepare(self, k):
        seed = super().prepare(k)
        out = WORK_DIR / self.name / f"seed{seed}"
        shutil.rmtree(out, ignore_errors=True)
        return seed, out

    def phases(self, job):
        return pipeline_phases(*job)

    def check(self, job, output):
        seed, out = job
        ref = self.refs[str(seed)]
        try:
            files = digest_tree(out)
            if files != ref["files"]:
                wrong = sorted(
                    p for p in set(files) | set(ref["files"])
                    if files.get(p) != ref["files"].get(p)
                )
                raise CheckFailed(
                    f"seed {seed}: outputs differ from the reference: "
                    + ", ".join(wrong))
            ratios = []
            for task, optimum in sorted(ref["optimum"].items()):
                path = out / "results" / f"{task}_results.csv"
                with open(path, newline="") as fh:
                    agent = next(r for r in csv.DictReader(fh)
                                 if r["method"] == "agent")
                ratios.append(float(agent["total_score"]) / optimum)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return float(np.mean(ratios)), {}


class SearchWorkload(Workload):
    jobs = 1

    def setup(self, seed):
        super().setup(seed)
        self.ref = self.refs[str(self.master)]
        self.build()

    def build(self):
        raise NotImplementedError

    def phases(self, search_seed):
        return [partial(
            search.run_search,
            self.ds, replace(self.search_config, master_seed=search_seed),
            self.weights, self.predictor_config, jobs=self.jobs,
        )]

    def check(self, search_seed, result):
        best = result.best_overall
        expect = self.ref["best"][str(search_seed)]
        if mask_string(best.mask) != expect["mask"]:
            raise CheckFailed(
                f"search seed {search_seed}: best mask "
                f"{mask_string(best.mask)} != reference {expect['mask']}")
        if abs(best.score - expect["score"]) > SCORE_TOLERANCE:
            raise CheckFailed(
                f"search seed {search_seed}: best score {best.score!r} != "
                f"reference {expect['score']!r}")
        return best.score / self.reference_score, self.extras(best)


class SearchPooled(SearchWorkload):
    """run_search on task3's pooled dataset with one thread per core."""

    name = "search_pooled"
    # The default config's scenes. A pooled dataset takes seconds to build,
    # and the search costs up to 10% more on some master seeds' datasets
    # than on others, which would spread runs with different workload
    # seeds apart.
    master = 0

    def build(self):
        cfg, self.ds = pooled_dataset(self.master)
        self.search_config = cfg.search
        self.weights = cfg.weights
        self.predictor_config = cfg.predictor
        self.jobs = nproc()
        self.reference_score = self.ref["optimum"]["score"]

    def extras(self, best):
        return {"regret": self.reference_score - best.score}


class SearchWide(SearchWorkload):
    """run_search on a planted N=24 dataset, one thread."""

    name = "search_wide"

    @property
    def master(self):
        return self.order[0]

    def build(self):
        cfg = default_config(master_seed=self.master)
        self.ds = planted_dataset(self.master)
        self.search_config = cfg.search
        self.weights = wide_weights()
        self.predictor_config = cfg.predictor
        self.reference_score = self.ref["planted"]["score"]

    def extras(self, best):
        hamming = sum(a != b for a, b in zip(best.mask, PLANTED_MASK))
        return {"planted_hamming": float(hamming)}


WORKLOADS = {w.name: w for w in (PipelineSeed, SearchPooled, SearchWide)}
