"""Acceptance gate for the feature-subset optimization engine.

Each test covers one release criterion and prints a single PASS/FAIL
line so the gate can be audited from the test log alone. The sweep
fixture runs the full default pipeline (scene generation, agent search,
and all baselines) for ten master seeds and is shared by the
statistical criteria.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_planted_dataset
from plselect.harness import cmd_generate, cmd_report, cmd_run, default_config
from plselect.scoring import ScoreWeights, total_score
from plselect.search import (
    SearchConfig,
    crossover,
    mutate,
    normalized_entropy,
    population_diversity,
    run_search,
    sample_population,
)

N_SEEDS = 10


def report(criterion: str, ok: bool) -> bool:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")
    return ok


# ---------------------------------------------------------------------------
# Shared ten-seed sweep over the default experiment
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Per-seed results of the full default pipeline for tasks 1-3."""
    from plselect.harness import run_task

    out = []
    for seed in range(N_SEEDS):
        tmp = tmp_path_factory.mktemp(f"sweep{seed}")
        cfg = default_config(master_seed=seed, out_dir=str(tmp))
        cmd_generate(cfg)
        record = {"methods": {}, "search": {}, "sub_rmse": {}}
        for task in ("task1", "task2", "task3"):
            res = run_task(cfg, task)
            for row in res["rows"]:
                task_name, method = row[0], row[1]
                if method.startswith("random_seed"):
                    continue
                if task_name.startswith(f"{task}--"):
                    record["sub_rmse"][task_name.split("--")[1]] = row[3]
                else:
                    record["methods"][(task, method)] = {
                        "rmse": row[3], "score": row[4],
                    }
            record["search"][task] = res["search"]
        out.append(record)
    return out


# ---------------------------------------------------------------------------
# Criterion 1: score identity against frozen reference results
# ---------------------------------------------------------------------------

# (validation RMSE in dB, total score, selected-feature count) triples
# from the reference result table the engine is designed to reproduce.
REFERENCE_ROWS = [
    ("t1-agent", 3.736, -5.242, 4),
    ("t1-full", 4.823, -6.860, 10),
    ("t1-random", 5.725, -8.018, 4),
    ("t1-mi-ge-em", 3.829, -5.380, 4),
    ("t1-mi-ge-struct", 4.174, -5.633, 4),
    ("t2-agent", 2.664, -3.646, 4),
    ("t2-full", 6.153, -7.465, 10),
    ("t2-random", 8.750, -11.446, 4),
    ("t2-mi-ge-em", 3.083, -4.292, 4),
    ("t2-mi-ge-struct", 3.639, -4.599, 4),
    ("t3-agent", 3.377, -4.634, 4),
    ("t3-sub-a", 3.918, -5.399, 4),
    ("t3-sub-b", 2.731, -3.708, 4),
]


def test_criterion_1_score_identity():
    """total_score must invert consistently on the reference rows."""
    weights = ScoreWeights(lambda_c=0.3, lambda_n=0.3)
    n = 10

    def implied_trend_error(rmse, score, k):
        return (-score - rmse - weights.lambda_n * k / n) / weights.lambda_c

    ok = True
    trend = implied_trend_error(3.736, -5.242, 4)
    ok &= abs(trend - 4.62) < 1e-3
    for _, rmse, score, k in REFERENCE_ROWS:
        ec = implied_trend_error(rmse, score, k)
        ok &= ec >= 0.0
        mask = [1] * k + [0] * (n - k)
        bd = total_score(rmse, ec, mask, weights)
        ok &= abs(bd.total - score) < 1e-9
    assert report("criterion 1 (score identity on reference rows)", ok)


# ---------------------------------------------------------------------------
# Criterion 2: diagnostics match independent brute-force oracles
# ---------------------------------------------------------------------------

def brute_entropy(policy):
    acc = 0.0
    for p in policy:
        for q in (p, 1.0 - p):
            if q > 0.0:
                acc += q * math.log(q)
    return -acc / (len(policy) * math.log(2))


def brute_diversity(masks):
    total = 0
    pairs = 0
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            total += int(np.sum(masks[i] != masks[j]))
            pairs += 1
    return total / (pairs * len(masks[0]))


def test_criterion_2_diagnostic_oracles():
    rng = np.random.default_rng(2024)
    ok = abs(normalized_entropy(np.full(10, 0.5)) - 1.0) < 1e-12
    ok &= normalized_entropy(np.array([0.0, 1.0])) == 0.0
    comp = [np.ones(10, dtype=int), np.zeros(10, dtype=int)]
    ok &= abs(population_diversity(comp) - 1.0) < 1e-12
    for _ in range(1000):
        policy = rng.uniform(0.0, 1.0, 10)
        ok &= abs(
            normalized_entropy(policy) - brute_entropy(policy)
        ) < 1e-12
        masks = list(rng.integers(0, 2, size=(int(rng.integers(2, 9)), 10)))
        ok &= abs(
            population_diversity(masks) - brute_diversity(masks)
        ) < 1e-12
    assert report("criterion 2 (entropy/diversity brute-force oracles)", ok)


# ---------------------------------------------------------------------------
# Criterion 3: planted-feature recovery
# ---------------------------------------------------------------------------

def test_criterion_3_planted_recovery():
    planted = {0, 1, 2, 3}
    hits = 0
    for seed in range(N_SEEDS):
        ds = make_planted_dataset(
            planted=tuple(sorted(planted)),
            coefficients=(4.0, 3.0, 2.5, 2.0),
            n_samples=400,
            seed=100 + seed,
            split_seed=seed,
        )
        cfg = SearchConfig(
            population_size=25, generations=50, eta=0.1, master_seed=seed
        )
        result = run_search(ds, cfg)
        selected = {
            i for i, b in enumerate(result.best_overall.mask) if b
        }
        jaccard = len(selected & planted) / len(selected | planted)
        hits += jaccard >= 0.75
    assert report(
        f"criterion 3 (planted recovery, {hits}/{N_SEEDS} seeds)", hits >= 8
    )


# ---------------------------------------------------------------------------
# Criterion 4: method ordering across the seed sweep
# ---------------------------------------------------------------------------

def test_criterion_4_method_ordering(sweep):
    beats_simple = 0
    beats_mi = 0
    for record in sweep:
        methods = record["methods"]
        simple_ok = True
        mi_ok = True
        for task in ("task1", "task2"):
            agent = methods[(task, "agent")]["score"]
            simple_ok &= agent >= methods[(task, "full")]["score"]
            simple_ok &= agent >= methods[(task, "random")]["score"]
            mi_ok &= agent >= methods[(task, "mi_ge_struct")]["score"]
            mi_ok &= agent >= methods[(task, "mi_ge_em")]["score"]
        beats_simple += simple_ok
        beats_mi += mi_ok
    ok = beats_simple >= 8 and beats_mi >= 6
    assert report(
        "criterion 4 (ordering: agent>=full/random "
        f"{beats_simple}/{N_SEEDS}, >=MI {beats_mi}/{N_SEEDS})",
        ok,
    )


# ---------------------------------------------------------------------------
# Criterion 5: convergence diagnostics across the seed sweep
# ---------------------------------------------------------------------------

def test_criterion_5_diagnostic_trends(sweep):
    entropy_drops = 0
    diversity_positive = 0
    for record in sweep:
        drop_ok = True
        div_ok = True
        for task in ("task1", "task2"):
            res = record["search"][task]
            drop_ok &= (
                normalized_entropy(res.final_policy)
                < res.records[0].entropy
            )
            div_ok &= all(rec.diversity > 0.0 for rec in res.records)
        entropy_drops += drop_ok
        diversity_positive += div_ok
    ok = entropy_drops >= 8 and diversity_positive == N_SEEDS
    assert report(
        "criterion 5 (entropy drop "
        f"{entropy_drops}/{N_SEEDS}, diversity>0 "
        f"{diversity_positive}/{N_SEEDS})",
        ok,
    )


# ---------------------------------------------------------------------------
# Criterion 6: pooled-selection generalization to sub-scenarios
# ---------------------------------------------------------------------------

def test_criterion_6_pooled_generalization(sweep):
    within = 0
    task_of = {"intersection": "task1", "square": "task2"}
    for record in sweep:
        seed_ok = True
        for name, pooled_rmse in record["sub_rmse"].items():
            single_rmse = record["methods"][(task_of[name], "agent")]["rmse"]
            seed_ok &= (
                abs(pooled_rmse - single_rmse) <= 0.15 * single_rmse
            )
        within += seed_ok
    assert report(
        f"criterion 6 (pooled mask within 15%, {within}/{N_SEEDS} seeds)",
        within >= 7,
    )


# ---------------------------------------------------------------------------
# Criterion 7: deterministic, parallel-safe pipeline
# ---------------------------------------------------------------------------

def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def pipeline_config(out_dir, seed=0):
    cfg = default_config(master_seed=seed, out_dir=str(out_dir))
    cfg.scenarios = {
        name: replace(sc, route_points=60)
        for name, sc in cfg.scenarios.items()
    }
    cfg.search = SearchConfig(
        population_size=10, generations=8, elite_count=3, master_seed=seed
    )
    cfg.random_baseline_seeds = 3
    return cfg


def test_criterion_7_determinism(tmp_path):
    trees = []
    for sub, jobs in (("a", 1), ("b", 1), ("c", 8)):
        cfg = pipeline_config(tmp_path / sub)
        cmd_generate(cfg)
        cmd_run(cfg, jobs=jobs)
        cmd_report(cfg.out_dir)
        trees.append(tree_bytes(tmp_path / sub))
    ok = trees[0] == trees[1] == trees[2]
    assert report("criterion 7 (byte-identical reruns and jobs 1 vs 8)", ok)


# ---------------------------------------------------------------------------
# Criterion 8: unit invariant spot checks
# ---------------------------------------------------------------------------

def test_criterion_8_unit_invariants():
    ok = True
    weights = ScoreWeights()

    # Score strictly worsens with each penalty term.
    base = total_score(3.0, 2.0, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0], weights)
    ok &= total_score(4.0, 2.0, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                      weights).total < base.total
    ok &= total_score(3.0, 3.0, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                      weights).total < base.total
    ok &= total_score(3.0, 2.0, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
                      weights).total < base.total

    # Crossover conserves the per-position multiset of parent bits.
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.integers(0, 2, 10).astype(np.int8)
        b = rng.integers(0, 2, 10).astype(np.int8)
        ca, cb = crossover(a, b, rng)
        ok &= np.array_equal(ca | cb, a | b)
        ok &= np.array_equal(ca & cb, a & b)

    # Zero-rate mutation is the identity.
    m = np.array([1, 0, 1, 1, 0, 0, 1, 0, 0, 1], dtype=np.int8)
    ok &= np.array_equal(mutate(m, 0.0, rng), m)

    # Sampling never yields an empty mask, even from a zero policy.
    masks = sample_population(np.zeros(10), 50, rng)
    ok &= all(mask.sum() >= 1 for mask in masks)

    # Split partitions the samples disjointly; standardization round-trips.
    ds = make_planted_dataset(n_samples=120, seed=9, split_seed=9)
    labels = [ds.split[i] for i in range(len(ds))]
    ok &= sorted(set(labels)) == ["test", "train", "val"]
    ok &= len(labels) == len(ds)

    from plselect.dataset import destandardize_features

    X_std = ds.feature_matrix()
    X_back = destandardize_features(ds, X_std)
    mean, std = ds.standardization
    ok &= np.allclose((X_back - mean) / std, X_std, atol=1e-9)

    assert report("criterion 8 (unit invariant spot checks)", ok)
