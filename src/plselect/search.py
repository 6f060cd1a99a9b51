"""Hybrid feature-subset search: Bernoulli policy sampling, evolutionary
operators on bit masks, elite-guided moving-average policy updates, and
entropy/diversity diagnostics.

Each generation samples a population of binary masks from the per-feature
selection probabilities, refines them with uniform crossover and bit-flip
mutation, scores every new mask through the downstream predictor in one
batch, and nudges the policy toward the mean bit pattern of the top-K
candidates. The population is a (P, N) int8 array throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .dataset import Dataset
from .predictor import Candidate, PredictorConfig, evaluate_masks
from .scoring import ScoreWeights

P_FLOOR = 0.02
P_CEIL = 0.98


class SearchConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SearchConfig:
    population_size: int = 25
    generations: int = 50
    eta: float = 0.1  # policy moving-average rate
    elite_count: int = 5
    crossover_prob: float = 0.5  # per pair
    mutation_rate: float = 0.1  # per bit
    master_seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise SearchConfigError("population_size must be >= 2")
        if self.generations < 1:
            raise SearchConfigError("generations must be >= 1")
        # eta = 0 is allowed as a degenerate control (frozen policy).
        if not 0 <= self.eta <= 1:
            raise SearchConfigError("eta must be in [0, 1]")
        if not 1 <= self.elite_count <= self.population_size:
            raise SearchConfigError("elite_count must be in [1, population]")
        if not 0 <= self.crossover_prob <= 1:
            raise SearchConfigError("crossover_prob must be in [0, 1]")
        if not 0 <= self.mutation_rate <= 1:
            raise SearchConfigError("mutation_rate must be in [0, 1]")


@dataclass(frozen=True)
class GenerationRecord:
    t: int
    policy: np.ndarray  # probabilities used to sample this generation
    best: Candidate
    mean_score: float
    entropy: float
    diversity: float
    elite_masks: tuple


@dataclass(frozen=True)
class SearchResult:
    records: tuple  # one GenerationRecord per generation
    best_overall: Candidate  # argmax score over every evaluated candidate
    final_policy: np.ndarray  # policy after the last update


def initial_policy(n_features: int) -> np.ndarray:
    """Maximal-entropy start: every selection probability at 0.5."""
    return np.full(n_features, 0.5)


def sample_population(
    policy: np.ndarray, population_size: int, rng: np.random.Generator
) -> np.ndarray:
    """(population_size, N) independent Bernoulli draws per bit; each
    all-zero row, in row order, gets one random bit."""
    draws = rng.random((population_size, policy.shape[0]))
    masks = (draws < policy).astype(np.int8)
    for row in np.flatnonzero(~masks.any(axis=1)):
        masks[row, rng.integers(masks.shape[1])] = 1
    return masks


def crossover(a: np.ndarray, b: np.ndarray, rng: np.random.Generator):
    """Uniform crossover: each position swapped between the pair w.p. 0.5."""
    if a.shape != b.shape:
        raise ValueError("masks must have equal length")
    swap = rng.random(a.shape[0]) < 0.5
    child_a = np.where(swap, b, a).astype(np.int8)
    child_b = np.where(swap, a, b).astype(np.int8)
    return child_a, child_b


def mutate(
    masks: np.ndarray, mutation_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Independent bit flips on one mask or on each row of a (P, N)
    population; an all-zero result gets one random bit.

    Draws from rng exactly as one call per row would, where a repair's
    draw comes before the next row's flips.
    """
    masks = np.asarray(masks)
    rows = masks.astype(np.int8).reshape(-1, masks.shape[-1])
    n = rows.shape[1]
    start = 0
    while start < len(rows):
        state = rng.bit_generator.state
        flips = rng.random((len(rows) - start, n)) < mutation_rate
        empty = np.flatnonzero(~(rows[start:] ^ flips).any(axis=1))
        stop = len(rows) if empty.size == 0 else start + int(empty[0]) + 1
        if stop < len(rows):
            # Draw again up to the first row to repair, so that the rows
            # after it take their flips after its repair's draw.
            rng.bit_generator.state = state
            flips = rng.random((stop - start, n)) < mutation_rate
        rows[start:stop] ^= flips
        if empty.size:
            rows[stop - 1, rng.integers(n)] = 1
        start = stop
    return rows.reshape(masks.shape)


def _elite_sort_key(cand: Candidate):
    # Ties break toward sparser, then lexicographically smaller masks.
    return (-cand.score, cand.cardinality, cand.mask)


def select_elites(candidates: Sequence[Candidate], k: int) -> List[Candidate]:
    if k > len(candidates):
        raise ValueError("elite count exceeds population")
    return sorted(candidates, key=_elite_sort_key)[:k]


def elite_mean(elite_masks: Sequence[np.ndarray]) -> np.ndarray:
    if len(elite_masks) == 0:
        raise ValueError("need at least one elite")
    return np.mean(np.asarray(elite_masks, dtype=float), axis=0)


def update_policy(
    policy: np.ndarray, elite_mean_bits: np.ndarray, eta: float
) -> np.ndarray:
    """Moving-average pull toward the elite mean, clamped away from 0/1."""
    updated = (1.0 - eta) * policy + eta * np.asarray(elite_mean_bits)
    return np.clip(updated, P_FLOOR, P_CEIL)


def normalized_entropy(policy: np.ndarray) -> float:
    """Mean binary entropy of the policy in [0, 1], with 0*ln(0) := 0."""
    p = np.asarray(policy, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0) + np.where(
            p < 1, (1 - p) * np.log(1 - p), 0.0
        )
    return float(-np.sum(terms) / (p.shape[0] * np.log(2.0)))


def population_diversity(masks: Sequence[np.ndarray]) -> float:
    """Mean pairwise Hamming distance between masks, normalized by N."""
    if len(masks) < 2:
        raise ValueError("diversity needs at least 2 masks")
    m = np.asarray(masks, dtype=np.int64)
    population, n = m.shape
    ones = m.sum(axis=0)
    disagreements = int(np.sum(ones * (population - ones)))
    return float(
        2.0 * disagreements / (population * (population - 1) * n)
    )


def run_search(
    ds: Dataset,
    config: SearchConfig = SearchConfig(),
    weights: ScoreWeights = ScoreWeights(),
    predictor_config: PredictorConfig = PredictorConfig(),
    jobs: int = 1,
) -> SearchResult:
    """Full policy-guided evolutionary search over feature masks.

    Deterministic per master_seed. Each generation's new masks are scored
    in one batch; a per-run memo cache skips masks seen before. ``jobs``
    is accepted and ignored: a thread pool measured slower than serial
    evaluation, because much of each evaluation holds the interpreter lock.
    """
    n = ds.n_features
    policy = initial_policy(n)
    cache: Dict[bytes, Candidate] = {}
    records = []
    best_overall: Optional[Candidate] = None

    for t in range(config.generations):
        streams = np.random.SeedSequence(
            [int(config.master_seed), t]
        ).spawn(4)
        sample_rng = np.random.default_rng(streams[0])
        pair_rng = np.random.default_rng(streams[1])
        cx_rng = np.random.default_rng(streams[2])
        mut_rng = np.random.default_rng(streams[3])

        masks = sample_population(policy, config.population_size, sample_rng)

        order = pair_rng.permutation(config.population_size)
        for i in range(0, config.population_size - 1, 2):
            if cx_rng.random() < config.crossover_prob:
                a, b = order[i], order[i + 1]
                masks[a], masks[b] = crossover(masks[a], masks[b], cx_rng)
        masks = mutate(masks, config.mutation_rate, mut_rng)

        candidates = _evaluate_all(masks, ds, weights, predictor_config, cache)

        elites = select_elites(candidates, config.elite_count)
        gen_best = elites[0]
        if best_overall is None or _elite_sort_key(gen_best) < _elite_sort_key(
            best_overall
        ):
            best_overall = gen_best
        records.append(
            GenerationRecord(
                t=t,
                policy=policy.copy(),
                best=gen_best,
                mean_score=float(np.mean([c.score for c in candidates])),
                entropy=normalized_entropy(policy),
                diversity=population_diversity(masks),
                elite_masks=tuple(e.mask for e in elites),
            )
        )
        policy = update_policy(
            policy, elite_mean([np.array(e.mask) for e in elites]), config.eta
        )

    return SearchResult(
        records=tuple(records),
        best_overall=best_overall,
        final_policy=policy,
    )


def _evaluate_all(masks, ds, weights, predictor_config, cache):
    # New masks are evaluated in one batch, in order of first appearance.
    keys = [m.tobytes() for m in masks]
    first = {}
    for i, key in enumerate(keys):
        if key not in cache:
            first.setdefault(key, i)
    new = evaluate_masks(masks[list(first.values())], ds, weights,
                         predictor_config)
    cache.update(zip(first, new))
    return [cache[key] for key in keys]
