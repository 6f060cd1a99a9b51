"""Hybrid feature-subset search: Bernoulli policy sampling, evolutionary
operators on bit masks, elite-guided moving-average policy updates, and
entropy/diversity diagnostics.

Each generation samples a population of binary masks from the per-feature
selection probabilities, refines them with uniform crossover and bit-flip
mutation, scores every new mask through the downstream predictor in one
batch, and nudges the policy toward the mean bit pattern of the top-K
candidates. The population is a (P, N) int8 array throughout. The loop
computes only what the next generation reads; every generation's trace
is built after the last one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .dataset import Dataset
from .predictor import PredictorConfig, prepared_system, score_masks
from .scoring import Candidate, ScoreWeights, candidates
from .streams import generators

P_FLOOR = 0.02
P_CEIL = 0.98

# The most masks, generations x population_size, that a search may draw,
# about 839 times the default 1,250. run_search preallocates per draw, and
# streams.generators takes generation indices below 2**32.
MAX_SEARCH_DRAWS = 1 << 20


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
        for name in ("population_size", "generations", "elite_count",
                     "master_seed"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))):
                raise SearchConfigError(
                    f"{name} must be an integer, got {value!r}")
        if self.master_seed < 0:
            raise SearchConfigError("master_seed must be non-negative")
        if self.population_size < 2:
            raise SearchConfigError("population_size must be >= 2")
        if self.generations < 1:
            raise SearchConfigError("generations must be >= 1")
        draws = int(self.generations) * int(self.population_size)
        if draws > MAX_SEARCH_DRAWS:
            raise SearchConfigError(
                f"generations x population_size must be at most "
                f"{MAX_SEARCH_DRAWS}, got {self.generations} x "
                f"{self.population_size} = {draws}")
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
    new_evaluations: int  # masks scored, not found in the memo table


@dataclass(frozen=True)
class SearchResult:
    records: tuple  # one GenerationRecord per generation
    best_overall: Candidate  # argmax total over every evaluated candidate
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


def crossover_population(
    masks: np.ndarray, order: np.ndarray, crossover_prob: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """The (P, N) masks after the pairs (order[0], order[1]), (order[2],
    order[3]), ... each cross with probability crossover_prob.

    Returns the masks of drawing, pair by pair, one double and, if it is
    below crossover_prob, calling crossover on the pair, which draws N
    more. The doubles are read from one block of (P // 2) * (N + 1),
    enough for every pair to cross, so rng ends past that block rather
    than after the last double used.
    """
    population, n = masks.shape
    pairs = population // 2
    draws = rng.random(pairs * (n + 1))
    crossing, starts = [], []
    pos = 0
    for pair in range(pairs):
        pos += 1
        if draws[pos - 1] < crossover_prob:
            crossing.append(pair)
            starts.append(pos)
            pos += n
    if not crossing:
        return masks
    a, b = order[0:2 * pairs:2][crossing], order[1:2 * pairs:2][crossing]
    swap = np.zeros(masks.shape, dtype=bool)
    swap[a] = swap[b] = draws[np.add.outer(starts, np.arange(n))] < 0.5
    partner = np.arange(population)
    partner[a], partner[b] = b, a
    return np.where(swap, masks[partner], masks)


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


def update_policy(
    policy: np.ndarray, elite_mean_bits: np.ndarray, eta: float
) -> np.ndarray:
    """Moving-average pull toward the elite mean, clamped away from 0/1."""
    updated = (1.0 - eta) * policy + eta * np.asarray(elite_mean_bits)
    # np.clip's bits, without its Python-level dispatch.
    return np.minimum(np.maximum(updated, P_FLOOR), P_CEIL)


def normalized_entropy(policy: np.ndarray):
    """Mean binary entropy of the policy in [0, 1], with 0*ln(0) := 0; of
    each policy, along the last axis, of a stack of them."""
    p = np.asarray(policy, dtype=float)
    q = 1 - p
    # Where a factor is 0, the log is taken of 1 instead of 0.
    terms = (p * np.log(np.where(p > 0, p, 1.0))
             + q * np.log(np.where(q > 0, q, 1.0)))
    return -np.sum(terms, axis=-1) / (p.shape[-1] * np.log(2.0))


def population_diversity(masks: Sequence[np.ndarray]):
    """Mean pairwise Hamming distance between masks, normalized by N; of
    each (P, N) population of a stack of them."""
    m = np.asarray(masks)
    if m.ndim < 2 or m.shape[-2] < 2:
        raise ValueError("diversity needs at least 2 masks")
    population, n = m.shape[-2:]
    ones = m.sum(axis=-2, dtype=np.int64)
    disagreements = np.sum(ones * (population - ones), axis=-1)
    return 2.0 * disagreements / (population * (population - 1) * n)


def run_search(
    ds: Dataset,
    config: SearchConfig = SearchConfig(),
    weights: ScoreWeights = ScoreWeights(),
    predictor_config: PredictorConfig = PredictorConfig(),
    jobs: int = 1,
) -> SearchResult:
    """Full policy-guided evolutionary search over feature masks.

    Deterministic per master_seed: generation t samples, pairs, crosses
    and mutates with the four children of SeedSequence([master_seed, t]),
    in that order; streams.generators hashes their states a block of
    generations at a time. The dataset is checked once. Each
    generation's masks not seen before in the run are scored by
    predictor.score_masks in one batch, and a columnar memo table keeps
    one row per distinct mask: its rmse, trend error, cardinality and
    total. The table's ranked method is the one ranking
    of candidates: it orders each population's rows for the elites and,
    at the end, every row for the best overall. The loop keeps only table
    rows, new-mask counts and the policies, rows of one read-only array;
    the records are built from them after it. ``jobs`` is accepted and
    ignored; the search runs on the calling thread.
    """
    n, size, gens = ds.n_features, config.population_size, config.generations
    prep = prepared_system(ds, predictor_config)
    table = _MemoTable(gens * size, n)
    # Row t of each: generation t's policy, population rows and elite rows.
    policies = np.empty((gens + 1, n))
    policies[0] = initial_policy(n)
    pop_rows = np.empty((gens, size), dtype=np.intp)
    elite_rows = np.empty((gens, config.elite_count), dtype=np.intp)
    new_evaluations = []

    # One reused generator: each stream is drawn from before the next.
    rngs = generators(config.master_seed, np.arange(gens), 4)

    for t in range(gens):
        masks = sample_population(policies[t], size, next(rngs))
        order = next(rngs).permutation(size)
        masks = crossover_population(masks, order, config.crossover_prob,
                                     next(rngs))
        masks = mutate(masks, config.mutation_rate, next(rngs))

        rows, new = table.rows(masks)
        if len(new):
            table.add(new, *score_masks(table.mask[new], prep, weights))
        pop_rows[t] = rows
        elite_rows[t] = table.ranked(rows)[:config.elite_count]
        new_evaluations.append(len(new))
        # The elite mean with np.mean's bits: a float sum, one division.
        elite_mean = np.add.reduce(table.mask[elite_rows[t]], axis=0,
                                   dtype=float) / config.elite_count
        policies[t + 1] = update_policy(policies[t], elite_mean, config.eta)
    policies.flags.writeable = False

    # Each table row was in some generation's population.
    i = np.append(elite_rows[:, 0], table.ranked(np.arange(len(table)))[0])
    *best, best_overall = candidates(
        table.mask[i], table.rmse[i], table.trend_error[i],
        table.cardinality[i], table.total[i])
    records = map(
        GenerationRecord, range(gens), policies, best,
        table.total[pop_rows].mean(axis=1).tolist(),
        normalized_entropy(policies[:-1]).tolist(),
        population_diversity(table.mask[pop_rows]).tolist(),
        [tuple(map(tuple, e)) for e in table.mask[elite_rows].tolist()],
        new_evaluations)
    return SearchResult(records=tuple(records), best_overall=best_overall,
                        final_policy=policies[-1])


class _MemoTable:
    """One row per distinct mask a search has scored: the mask, as int8
    0s and 1s, and score_masks's rmse, trend error, cardinality and
    total, each a column, with the mask's own N bytes as its key."""

    def __init__(self, capacity: int, n_features: int):
        self.mask = np.zeros((capacity, n_features), dtype=np.int8)
        self.rmse = np.empty(capacity)
        self.trend_error = np.empty(capacity)
        self.cardinality = np.empty(capacity, dtype=np.int64)
        self.total = np.empty(capacity)
        self._index: Dict[bytes, int] = {}

    def __len__(self) -> int:
        return len(self._index)

    def rows(self, masks: np.ndarray) -> tuple:
        """Each mask's row, and the rows of masks new to the table, which
        follow its old rows in order of first appearance and hold only the
        mask until add fills them in."""
        start = len(self._index)
        # Each mask's int8 row as one bytes object.
        keys = np.ascontiguousarray(masks, dtype=np.int8).view(
            f"V{masks.shape[1]}").ravel().tolist()
        rows = np.array([self._index.setdefault(key, len(self._index))
                         for key in keys], dtype=np.intp)
        self.mask[rows] = masks
        return rows, np.arange(start, len(self._index))

    def add(self, rows, rmse, trend_error, cardinality, total) -> None:
        self.rmse[rows], self.trend_error[rows] = rmse, trend_error
        self.cardinality[rows], self.total[rows] = cardinality, total

    def ranked(self, rows: np.ndarray) -> np.ndarray:
        """rows, best first: by total descending, ties broken toward
        sparser, then lexicographically smaller masks, compared bit by
        bit from the first."""
        return rows[np.lexsort((*self.mask[rows].T[::-1],
                                self.cardinality[rows], -self.total[rows]))]
