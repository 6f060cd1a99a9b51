"""Regenerate perfbench/references.json, the outputs every benchmark
operation is checked against.

    python3 perfbench/make_references.py

Run it from the repository root, at the commit whose outputs become the
reference. It takes a few minutes on two cores. For every master seed in
workloads.MASTER_SEEDS it stores:

- pipeline_seed: the sha256 of every file `plselect generate` + `run`
  (default config, --jobs 1) writes under --out, and per task the
  exhaustive optimum: the best score over all 1023 masks, each evaluated
  with evaluate_mask on the task's dataset as run_task prepares it;
- search_pooled (master seed 0 only, see workloads.SearchPooled): the
  exhaustive optimum of task3's pooled dataset, and run_search's best
  mask and score for every search seed;
- search_wide: the planted mask's score, and run_search's best mask and
  score for every search seed.

Regenerating the references is a change to the benchmark and belongs in
a change of its own.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from plselect.dataset import read_csv, split_dataset, standardize  # noqa: E402
from plselect.harness import default_config  # noqa: E402
from plselect.predictor import evaluate_mask  # noqa: E402
from plselect.search import run_search  # noqa: E402

import workloads as wl  # noqa: E402
from run import git_commit  # noqa: E402


def exhaustive_optimum(ds, weights, predictor_config) -> dict:
    best = None
    for bits in itertools.product((0, 1), repeat=ds.n_features):
        if any(bits):
            cand = evaluate_mask(bits, ds, weights, predictor_config)
            if best is None or cand.score > best.score:
                best = cand
    return {"mask": wl.mask_string(best.mask), "score": best.score}


def search_bests(ds, search_config, weights, predictor_config) -> dict:
    out = {}
    for seed in wl.MASTER_SEEDS:
        best = run_search(
            ds, replace(search_config, master_seed=seed), weights,
            predictor_config, jobs=1,
        ).best_overall
        out[str(seed)] = {"mask": wl.mask_string(best.mask),
                          "score": best.score}
    return out


def pipeline_reference(seed: int) -> dict:
    out = wl.WORK_DIR / "references" / f"seed{seed}"
    shutil.rmtree(out, ignore_errors=True)
    for phase in wl.pipeline_phases(seed, out):
        phase()
    files = wl.digest_tree(out)
    cfg = default_config(master_seed=seed, out_dir=str(out))
    optimum = {}
    for task, names in cfg.task_scenarios.items():
        name = "pooled" if len(names) > 1 else names[0]
        ds = read_csv(out / "data" / f"{name}.csv")
        ds = standardize(split_dataset(ds, cfg.split_fractions, seed=seed))
        optimum[task] = exhaustive_optimum(
            ds, cfg.weights, cfg.predictor)["score"]
    shutil.rmtree(out)
    return {"files": files, "optimum": optimum}


def main() -> int:
    refs = {"commit": git_commit(Path.cwd()), "master_seeds": list(wl.MASTER_SEEDS),
            "pipeline_seed": {}, "search_pooled": {}, "search_wide": {}}
    for seed in wl.MASTER_SEEDS:
        key = str(seed)
        refs["pipeline_seed"][key] = pipeline_reference(seed)

        if seed == wl.SearchPooled.master:
            cfg, ds = wl.pooled_dataset(seed)
            refs["search_pooled"][key] = {
                "optimum": exhaustive_optimum(
                    ds, cfg.weights, cfg.predictor),
                "best": search_bests(
                    ds, cfg.search, cfg.weights, cfg.predictor),
            }

        cfg = default_config(master_seed=seed)
        ds = wl.planted_dataset(seed)
        weights = wl.wide_weights()
        planted = evaluate_mask(wl.PLANTED_MASK, ds, weights, cfg.predictor)
        refs["search_wide"][key] = {
            "planted": {"mask": wl.mask_string(wl.PLANTED_MASK),
                        "score": planted.score},
            "best": search_bests(ds, cfg.search, weights, cfg.predictor),
        }
        print(f"master seed {seed} done", file=sys.stderr, flush=True)
    with open(wl.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
