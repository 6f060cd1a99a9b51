import itertools
import json
import math
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_planted_dataset
from plselect import search
from plselect.dataset import (read_csv, select_scenarios, split_dataset,
                              standardize)
from plselect.harness import cmd_generate, default_config
from plselect.predictor import evaluate_mask
from plselect.scoring import ScoreWeights
from plselect.search import (
    P_CEIL,
    P_FLOOR,
    SearchConfig,
    SearchConfigError,
    crossover,
    crossover_population,
    initial_policy,
    mutate,
    normalized_entropy,
    population_diversity,
    run_search,
    sample_population,
    update_policy,
)
from plselect.streams import generators, seed_states


class TestSamplePopulation:
    def test_policy_all_one(self):
        masks = sample_population(
            np.ones(10), 20, np.random.default_rng(0)
        )
        assert all(m.sum() == 10 for m in masks)

    def test_policy_all_zero_repaired(self):
        masks = sample_population(
            np.zeros(10), 50, np.random.default_rng(1)
        )
        assert all(m.sum() == 1 for m in masks)

    def test_empirical_frequency(self):
        masks = sample_population(
            np.full(10, 0.5), 10_000, np.random.default_rng(2)
        )
        freq = np.mean(masks, axis=0)
        assert np.all(freq >= 0.48) and np.all(freq <= 0.52)

    def test_deterministic_per_rng_state(self):
        a = sample_population(np.full(10, 0.3), 5, np.random.default_rng(7))
        b = sample_population(np.full(10, 0.3), 5, np.random.default_rng(7))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def sample_per_row(policy, population_size, rng):
    """sample_population as one repair call per all-zero row."""
    masks = (rng.random((population_size, policy.shape[0])) < policy)
    out = []
    for m in masks.astype(np.int8):
        if m.sum() == 0:
            m[rng.integers(m.shape[0])] = 1
        out.append(m)
    return np.array(out, dtype=np.int8).reshape(masks.shape)


def mutate_per_row(masks, rate, rng):
    """mutate as one call per mask: a row's flips, then its repair."""
    out = []
    for m in np.atleast_2d(masks):
        flips = rng.random(m.shape[0]) < rate
        row = m.astype(np.int8) ^ flips.astype(np.int8)
        if row.sum() == 0:
            row[rng.integers(row.shape[0])] = 1
        out.append(row)
    return np.array(out, dtype=np.int8).reshape(np.shape(masks))


RATES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def populations(draw):
    """(P, N) int8 masks: random, all zero or all one."""
    shape = (draw(st.integers(0, 30)), draw(st.integers(1, 30)))
    kind = draw(st.sampled_from(["random", "zeros", "ones"]))
    if kind == "zeros":
        return np.zeros(shape, dtype=np.int8)
    if kind == "ones":
        return np.ones(shape, dtype=np.int8)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, 2, shape).astype(np.int8)


class TestRngStreams:
    """The population operators consume their generator exactly as one
    call per mask did, so a search seed keeps its masks."""

    @staticmethod
    def assert_same_stream(a, b):
        assert a.bit_generator.state == b.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(masks=populations(), rate=RATES, seed=st.integers(0, 2**32 - 1))
    @example(masks=np.zeros((7, 5), dtype=np.int8), rate=0.0, seed=0)
    @example(masks=np.ones((7, 5), dtype=np.int8), rate=1.0, seed=0)
    def test_mutate_population_matches_per_mask(self, masks, rate, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        before = masks.copy()
        got = mutate(masks, rate, a)
        assert got.dtype == np.int8 and got.shape == masks.shape
        assert np.array_equal(got, mutate_per_row(masks, rate, b))
        assert np.array_equal(masks, before)
        self.assert_same_stream(a, b)

    @settings(max_examples=50, deadline=None)
    @given(masks=populations(), rate=RATES, seed=st.integers(0, 2**32 - 1))
    def test_mutate_single_mask_matches_per_mask(self, masks, rate, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for m in masks:
            assert np.array_equal(mutate(m, rate, a),
                                  mutate_per_row(m, rate, b))
        self.assert_same_stream(a, b)

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(0, 30), n=st.integers(1, 30),
           kind=st.sampled_from(["random", "zeros", "ones"]),
           seed=st.integers(0, 2**32 - 1))
    @example(size=9, n=4, kind="zeros", seed=0)
    def test_sample_population_matches_per_mask(self, size, n, kind, seed):
        policy = {"zeros": np.zeros(n), "ones": np.ones(n),
                  "random": np.random.default_rng(seed).random(n)}[kind]
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_population(policy, size, a)
        assert got.dtype == np.int8 and got.shape == (size, n)
        assert np.array_equal(got, sample_per_row(policy, size, b))
        self.assert_same_stream(a, b)


def crossover_per_pair(masks, order, crossover_prob, rng):
    """crossover_population as one crossover call per crossing pair."""
    masks = masks.copy()
    for i in range(0, len(masks) - 1, 2):
        if rng.random() < crossover_prob:
            a, b = order[i], order[i + 1]
            masks[a], masks[b] = crossover(masks[a], masks[b], rng)
    return masks


class TestGenerationOperators:
    """run_search's population-wide operators give what the per-pair and
    spawned-stream code they replace gave."""

    @settings(max_examples=200, deadline=None)
    @given(population=st.integers(1, 40), n=st.integers(1, 30),
           prob=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @example(population=25, n=10, prob=0.5, seed=0)
    @example(population=7, n=24, prob=1.0, seed=1)
    def test_crossover_population_matches_per_pair(self, population, n,
                                                   prob, seed):
        rng = np.random.default_rng(seed)
        masks = rng.integers(0, 2, (population, n)).astype(np.int8)
        order = rng.permutation(population)
        before = masks.copy()
        got = crossover_population(masks, order, prob,
                                   np.random.default_rng([seed, 1]))
        want = crossover_per_pair(masks, order, prob,
                                  np.random.default_rng([seed, 1]))
        assert got.dtype == np.int8 and np.array_equal(got, want)
        assert np.array_equal(masks, before)

    # The SeedSequence port at the numpy floor.
    @pytest.mark.numpy_floor
    @settings(max_examples=100, deadline=None)
    @given(master_seed=st.integers(0, 2**64 - 1), t=st.integers(0, 10_000))
    @example(master_seed=0, t=0)
    @example(master_seed=2**64, t=3)  # three entropy words
    def test_generation_streams_are_the_spawned_children(self, master_seed,
                                                         t):
        # run_search seeds generation t's four streams as here. A numpy
        # whose spawn(4) derives its children otherwise fails here rather
        # than changing every search.
        children = np.random.SeedSequence([master_seed, t]).spawn(4)
        assert len(seed_states(master_seed, [t], 4)) == 4
        for got, child in zip(generators(master_seed, [t], 4), children):
            want = np.random.default_rng(child)
            assert got.bit_generator.state == want.bit_generator.state
            assert np.array_equal(got.random(8), want.random(8))


class TestCrossover:
    def test_identical_parents(self):
        a = np.array([1, 0, 1, 0], dtype=np.int8)
        ca, cb = crossover(a, a.copy(), np.random.default_rng(0))
        assert np.array_equal(ca, a) and np.array_equal(cb, a)

    def test_unequal_lengths_refused(self):
        with pytest.raises(ValueError, match="equal length"):
            crossover(np.ones(3, dtype=np.int8), np.ones(4, dtype=np.int8),
                      np.random.default_rng(0))

    def test_per_position_multiset_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.integers(0, 2, 10).astype(np.int8)
            b = rng.integers(0, 2, 10).astype(np.int8)
            ca, cb = crossover(a, b, rng)
            assert np.array_equal(ca | cb, a | b)
            assert np.array_equal(ca & cb, a & b)

    def test_swap_frequency(self):
        a = np.array([1] * 5 + [0] * 5, dtype=np.int8)
        b = np.array([0] * 5 + [1] * 5, dtype=np.int8)
        rng = np.random.default_rng(4)
        from_a = np.zeros(10)
        trials = 4000
        for _ in range(trials):
            ca, _ = crossover(a, b, rng)
            from_a += ca == a
        freq = from_a / trials
        assert np.all(np.abs(freq - 0.5) < 0.05)


class TestMutate:
    def test_rate_zero_identity(self):
        m = np.array([1, 0, 1, 1, 0], dtype=np.int8)
        assert np.array_equal(mutate(m, 0.0, np.random.default_rng(0)), m)

    def test_rate_one_full_flip_with_repair(self):
        m = np.ones(10, dtype=np.int8)
        out = mutate(m, 1.0, np.random.default_rng(1))
        assert out.sum() == 1  # all-zero result repaired to a single bit

    def test_mean_flip_count(self):
        rng = np.random.default_rng(5)
        m = np.array([1, 0] * 5, dtype=np.int8)
        flips = [
            int(np.sum(mutate(m, 0.1, rng) != m)) for _ in range(10_000)
        ]
        assert np.mean(flips) == pytest.approx(1.0, abs=0.1)


def memo_table(masks, totals):
    """A search memo table whose row i holds masks[i], each distinct, with
    total totals[i] and zero rmse and trend error."""
    masks = np.array(masks, dtype=np.int8)
    table = search._MemoTable(len(masks), masks.shape[1])
    _, new = table.rows(masks)
    zeros = np.zeros(len(masks))
    table.add(new, zeros, zeros, masks.sum(axis=1),
              np.array(totals, dtype=float))
    return table


@st.composite
def ranking_cases(draw):
    """Distinct masks, totals from a few values, and rows to rank, repeats
    allowed: ties in total and cardinality are common. Widths of 1 to 9,
    24 and 40 bits give from one to 40 mask columns to sort on. Masks
    that shuffle the tail of one mask tie on cardinality and share a
    prefix, so that only their later bits tell them apart."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 24, 40]))
    bits = st.tuples(*[st.integers(0, 1)] * n)
    base = draw(bits)
    # base with its bits after position k shuffled.
    shuffled = st.integers(0, n).flatmap(lambda k: st.permutations(
        base[k:]).map(lambda tail: base[:k] + tuple(tail)))
    masks = draw(st.lists(bits | shuffled, min_size=1, max_size=24,
                          unique=True))
    totals = draw(st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0]),
                           min_size=len(masks), max_size=len(masks)))
    rows = draw(st.lists(st.integers(0, len(masks) - 1), min_size=1,
                         max_size=30))
    return masks, totals, rows


class TestMemoTableRows:
    def test_any_integer_dtype_and_order_give_the_same_rows(self):
        masks = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1], [0, 0, 1]],
                         dtype=np.int8)
        want = search._MemoTable(len(masks), 3).rows(masks)
        for copy in (masks.astype(np.int64), np.asfortranarray(masks)):
            table = search._MemoTable(len(masks), 3)
            got = table.rows(copy)
            assert [g.tolist() for g in got] == [w.tolist() for w in want]
            assert np.array_equal(table.mask[:3], masks[[0, 1, 3]])
            # A second call finds every mask in the table.
            assert table.rows(masks)[0].tolist() == want[0].tolist()
            assert len(table) == 3


# lexsort over the int8 mask columns must rank as sorted() does at the
# numpy floor.
@pytest.mark.numpy_floor
class TestElites:
    """The memo table's ranked method, the search's one ranking: best
    total first, ties toward sparser, then lexicographically smaller
    masks."""

    def test_all_returned(self):
        table = memo_table([[1, 0], [0, 1]], [-1.0, -2.0])
        assert table.ranked(np.array([1, 0])).tolist() == [0, 1]

    def test_ordering(self):
        table = memo_table([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                           [-2.0, -1.0, -3.0])
        assert table.ranked(np.arange(3))[:2].tolist() == [1, 0]

    def test_tie_breaks_to_sparser(self):
        table = memo_table([[1, 1, 1, 0], [1, 1, 0, 0]], [-1.0, -1.0])
        assert table.ranked(np.array([0, 1]))[0] == 1

    def test_tie_breaks_to_smaller_mask(self):
        table = memo_table([[1, 0, 1], [0, 1, 1]], [-1.0, -1.0])
        assert table.ranked(np.array([0, 1])).tolist() == [1, 0]

    @settings(max_examples=300, deadline=None)
    @given(case=ranking_cases())
    def test_matches_sorted_key(self, case):
        # ranked sorts on the masks' int8 columns, sorted() on tuples.
        masks, totals, rows = case
        table = memo_table(masks, totals)
        want = sorted(rows, key=lambda r: (-totals[r], sum(masks[r]),
                                           masks[r]))
        assert table.ranked(np.array(rows)).tolist() == want


class TestPolicyUpdate:
    def test_eta_one_is_clamped_mean(self):
        policy = np.full(4, 0.5)
        mean = np.array([1.0, 0.0, 0.5, 0.25])
        out = update_policy(policy, mean, 1.0)
        assert np.allclose(out, [P_CEIL, P_FLOOR, 0.5, 0.25])

    def test_moving_average_step(self):
        out = update_policy(np.array([0.5]), np.array([1.0]), 0.1)
        assert out[0] == pytest.approx(0.55)

    def test_fixed_point(self):
        out = update_policy(np.array([0.5]), np.array([0.5]), 0.7)
        assert out[0] == pytest.approx(0.5)

    def test_clamp_bounds(self):
        rng = np.random.default_rng(0)
        policy = rng.uniform(0, 1, 10)
        for _ in range(50):
            policy = update_policy(policy, rng.integers(0, 2, 10), 0.5)
            assert np.all(policy >= P_FLOOR) and np.all(policy <= P_CEIL)


class TestDiagnostics:
    def test_entropy_endpoints(self):
        assert normalized_entropy(np.full(10, 0.5)) == pytest.approx(1.0)
        assert normalized_entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_entropy_quarter(self):
        # high-precision oracle for p = 0.25 everywhere
        p = 0.25
        expected = -(p * math.log(p) + (1 - p) * math.log(1 - p)) / math.log(2)
        assert normalized_entropy(np.full(10, 0.25)) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.811278, abs=1e-5)

    def test_diversity_identical(self):
        masks = [np.array([1, 0, 1])] * 5
        assert population_diversity(masks) == 0.0

    def test_diversity_complementary_pair(self):
        masks = [np.array([1, 1, 1, 1]), np.array([0, 0, 0, 0])]
        assert population_diversity(masks) == 1.0

    def test_diversity_hand_enumerated(self):
        masks = [np.array([0, 0, 0]), np.array([0, 1, 1]),
                 np.array([1, 0, 1])]
        assert population_diversity(masks) == pytest.approx(2.0 / 3.0)

    def test_diversity_needs_two(self):
        with pytest.raises(ValueError):
            population_diversity([np.array([1, 0])])
        with pytest.raises(ValueError):  # a stack of one-mask populations
            population_diversity(np.ones((3, 1, 4), dtype=np.int8))

    def brute_entropy(self, policy):
        acc = 0.0
        for p in policy:
            for q in (p, 1.0 - p):
                if q > 0:
                    acc += q * math.log(q)
        return -acc / (len(policy) * math.log(2))

    def brute_diversity(self, masks):
        total = 0
        n_pairs = 0
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                total += int(np.sum(masks[i] != masks[j]))
                n_pairs += 1
        return total / (n_pairs * len(masks[0]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            policy = rng.uniform(0, 1, 10)
            assert normalized_entropy(policy) == pytest.approx(
                self.brute_entropy(policy), abs=1e-12
            )
            masks = rng.integers(0, 2, size=(int(rng.integers(2, 8)), 10))
            assert population_diversity(list(masks)) == pytest.approx(
                self.brute_diversity(list(masks)), abs=1e-12
            )

    # Stacked reductions must keep each row's bits at the numpy floor.
    @pytest.mark.numpy_floor
    def test_stacks_match_brute_force_per_row(self):
        # A stack along the last axis gives, bit for bit, the value of
        # each of its rows alone.
        rng = np.random.default_rng(12)
        for _ in range(50):
            k, population = (int(x) for x in rng.integers(1, 6, 2))
            policies = rng.uniform(0, 1, (k, 10))
            entropy = normalized_entropy(policies)
            assert entropy.shape == (k,)
            for e, policy in zip(entropy.tolist(), policies):
                assert e == normalized_entropy(policy)
                assert e == pytest.approx(self.brute_entropy(policy),
                                          abs=1e-12)
            stack = rng.integers(0, 2, size=(k, population + 1, 10))
            diversity = population_diversity(stack)
            assert diversity.shape == (k,)
            for d, masks in zip(diversity.tolist(), stack):
                assert d == population_diversity(masks)
                assert d == pytest.approx(self.brute_diversity(list(masks)),
                                          abs=1e-12)


class TestRunSearch:
    def test_minimal_run(self):
        ds = make_planted_dataset(planted=(0, 1), coefficients=(4.0, 3.0),
                                  n_samples=60)
        result = run_search(
            ds, SearchConfig(population_size=2, generations=1,
                             elite_count=1, master_seed=0)
        )
        assert len(result.records) == 1
        assert result.best_overall is not None

    def test_deterministic_repeat(self, planted_ds):
        cfg = SearchConfig(population_size=10, generations=5, master_seed=3,
                           elite_count=3)
        a = run_search(planted_ds, cfg)
        b = run_search(planted_ds, cfg)
        assert a.best_overall == b.best_overall
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.policy, rb.policy)
            assert ra.best == rb.best
            assert ra.mean_score == rb.mean_score

    def test_parallel_matches_serial(self, planted_ds):
        cfg = SearchConfig(population_size=10, generations=5, master_seed=3,
                           elite_count=3)
        a = run_search(planted_ds, cfg, jobs=1)
        b = run_search(planted_ds, cfg, jobs=8)
        assert a.best_overall == b.best_overall
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.policy, rb.policy)
            assert ra.best == rb.best
            assert ra.elite_masks == rb.elite_masks
            assert ra.mean_score == rb.mean_score

    def test_policy_bounds_every_generation(self, planted_ds):
        cfg = SearchConfig(population_size=8, generations=10, master_seed=1,
                           elite_count=2)
        result = run_search(planted_ds, cfg)
        for rec in result.records:
            assert np.all(rec.policy >= P_FLOOR - 1e-15) or rec.t == 0
            assert np.all(rec.policy <= P_CEIL + 1e-15)
        assert np.all(result.final_policy >= P_FLOOR)
        assert np.all(result.final_policy <= P_CEIL)

    def test_best_so_far_non_decreasing(self, planted_ds):
        cfg = SearchConfig(population_size=10, generations=15, master_seed=2,
                           elite_count=3)
        result = run_search(planted_ds, cfg)
        best = -np.inf
        for rec in result.records:
            best = max(best, rec.best.score)
        assert result.best_overall.score == pytest.approx(best)
        scores = [rec.best.score for rec in result.records]
        running = np.maximum.accumulate(scores)
        assert np.all(np.diff(running) >= 0)

    def test_frozen_policy_control_run(self, planted_ds):
        cfg = SearchConfig(population_size=6, generations=5, eta=0.0,
                           crossover_prob=0.0, mutation_rate=0.0,
                           elite_count=2, master_seed=0)
        result = run_search(planted_ds, cfg)
        for rec in result.records:
            assert np.array_equal(rec.policy, initial_policy(10))
        assert np.array_equal(result.final_policy, initial_policy(10))

    def test_record_invariants(self, planted_ds):
        cfg = SearchConfig(population_size=10, generations=8, master_seed=4,
                           elite_count=3)
        result = run_search(planted_ds, cfg)
        for rec in result.records:
            assert 0.0 <= rec.entropy <= 1.0
            assert 0.0 <= rec.diversity <= 1.0
            assert rec.best.score >= rec.mean_score
            assert len(rec.elite_masks) == 3

    def test_new_evaluations_count_masks_first_seen(self, planted_ds,
                                                    monkeypatch):
        populations, scored = [], []
        score_masks = search.score_masks

        def recording_mutate(*args):
            masks = mutate(*args)
            populations.append(masks.copy())
            return masks

        def recording_score_masks(masks, *args):
            scored.extend(m.tobytes() for m in masks)
            return score_masks(masks, *args)

        monkeypatch.setattr(search, "mutate", recording_mutate)
        monkeypatch.setattr(search, "score_masks", recording_score_masks)
        cfg = SearchConfig(population_size=12, generations=40, master_seed=6,
                           elite_count=3, mutation_rate=0.05)
        result = run_search(planted_ds, cfg)
        seen = set()
        for rec, masks in zip(result.records, populations):
            keys = {m.tobytes() for m in masks}
            assert rec.new_evaluations == len(keys - seen)
            assert 0 <= rec.new_evaluations <= cfg.population_size
            seen |= keys
        total = sum(rec.new_evaluations for rec in result.records)
        assert total == len(seen) == len(scored) == len(set(scored))
        # The memo table served the rest: this run repeats masks.
        assert total < cfg.population_size * cfg.generations

    def test_policies_are_read_only(self, planted_ds):
        # The records' policies and the final policy are rows of one
        # array: a write through one would rewrite what the others hold.
        result = run_search(planted_ds, SearchConfig(
            population_size=6, generations=3, elite_count=2))
        for policy in [rec.policy for rec in result.records] + [
                result.final_policy]:
            with pytest.raises(ValueError):
                policy[0] = 0.5
            with pytest.raises(ValueError):
                policy.flags.writeable = True

    def test_wide_dataset_draws_wide_masks(self):
        ds = make_planted_dataset(n_features=24, n_samples=120)
        result = run_search(
            ds, SearchConfig(population_size=6, generations=3,
                             elite_count=2), ScoreWeights())
        assert result.final_policy.shape == (24,)
        for rec in result.records:
            assert len(rec.best.mask) == 24
            assert all(len(m) == 24 for m in rec.elite_masks)

    def test_config_validation(self):
        with pytest.raises(SearchConfigError):
            SearchConfig(population_size=1)
        with pytest.raises(SearchConfigError):
            SearchConfig(generations=0)
        with pytest.raises(SearchConfigError):
            SearchConfig(eta=1.5)
        with pytest.raises(SearchConfigError):
            SearchConfig(elite_count=30, population_size=25)
        with pytest.raises(SearchConfigError):
            SearchConfig(mutation_rate=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("master_seed", 1.5), ("master_seed", -1), ("master_seed", True),
        ("population_size", 2.5), ("generations", "5"),
        ("elite_count", False),
    ])
    def test_integer_fields_refused(self, field, value):
        with pytest.raises(SearchConfigError, match=f"^{field} must be"):
            SearchConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = SearchConfig(population_size=np.int64(4),
                           elite_count=np.int32(2), master_seed=np.uint8(3))
        assert cfg.population_size == 4 and cfg.master_seed == 3

    def test_draws_bounded(self):
        bound = search.MAX_SEARCH_DRAWS
        SearchConfig(generations=bound // 2, population_size=2,
                     elite_count=2)
        # The last pair's product wraps to 0 in int64 arithmetic.
        for generations, size in ((1, bound + 1), (bound // 2 + 1, 2),
                                  (np.int64(4), np.int64(1 << 62))):
            with pytest.raises(SearchConfigError, match=(
                    r"^generations x population_size must be at most "
                    rf"{bound}, got {generations} x {size} = ")):
                SearchConfig(generations=generations, population_size=size)


# The trace built after the loop must keep its bits under the numpy
# floor's reduction order.
@pytest.mark.numpy_floor
class TestTrace:
    """The records built after the last generation hold, bit for bit,
    what each generation's population gives alone."""

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(2, 300), n=st.integers(1, 30),
           generations=st.integers(1, 4), elites=st.integers(1, 300),
           master_seed=st.integers(0, 2**32 - 1),
           score_seed=st.integers(0, 2**32 - 1))
    # Rows longer than numpy's pairwise-summation block of 128.
    @example(size=300, n=30, generations=3, elites=5, master_seed=0,
             score_seed=0)
    @example(size=129, n=1, generations=2, elites=129, master_seed=1,
             score_seed=1)
    def test_records_match_replayed_populations(
            self, size, n, generations, elites, master_seed, score_seed):
        elite_count = min(elites, size)
        cfg = SearchConfig(population_size=size, generations=generations,
                           elite_count=elite_count, master_seed=master_seed)
        # Scores spread over seven decades, one draw per new mask, stand
        # in for the learner: the trace, not the fit, is under test.
        rng = np.random.default_rng(score_seed)
        scored = {}

        def score_masks(masks, *args):
            k = len(masks)
            rmse, trend = rng.random((2, k))
            total = rng.standard_normal(k) * 10.0 ** rng.integers(-3, 4, k)
            cardinality = np.count_nonzero(masks, axis=1)
            for m, *fields in zip(masks, rmse, trend, cardinality, total):
                scored[m.tobytes()] = fields
            return rmse, trend, cardinality, total

        with mock.patch.object(search, "prepared_system"), \
                mock.patch.object(search, "score_masks", score_masks):
            result = run_search(SimpleNamespace(n_features=n), cfg,
                                ScoreWeights())

        assert len(result.records) == generations
        seen = set()
        for t, rec in enumerate(result.records):
            streams = generators(master_seed, [t], 4)
            masks = sample_population(rec.policy, size, next(streams))
            order = next(streams).permutation(size)
            masks = crossover_population(masks, order, cfg.crossover_prob,
                                         next(streams))
            masks = mutate(masks, cfg.mutation_rate, next(streams))
            keys = [m.tobytes() for m in masks]
            scores = [scored[key][3] for key in keys]
            ranked = sorted(range(size), key=lambda i: (
                -scores[i], int(masks[i].sum()), masks[i].tolist()))
            best = scored[keys[ranked[0]]]

            assert rec.t == t
            assert rec.entropy == normalized_entropy(rec.policy)
            assert rec.diversity == population_diversity(masks)
            assert rec.mean_score == float(np.mean(scores))
            assert rec.best.mask == tuple(masks[ranked[0]].tolist())
            assert [rec.best.rmse, rec.best.trend_error,
                    rec.best.cardinality, rec.best.total] == best
            assert rec.elite_masks == tuple(
                tuple(masks[i].tolist()) for i in ranked[:elite_count])
            assert rec.new_evaluations == len(set(keys) - seen)
            seen |= set(keys)
            following = (result.records[t + 1].policy if t + 1 < generations
                         else result.final_policy)
            assert np.array_equal(following, update_policy(
                rec.policy, np.mean(masks[ranked[:elite_count]], axis=0),
                cfg.eta))
        assert result.best_overall == max(
            (rec.best for rec in result.records),
            key=lambda c: (c.score, -c.cardinality, [-b for b in c.mask]))


def exhaustive_optimum(ds, weights, predictor_config):
    """The best of every non-empty mask, ranked as run_search ranks:
    highest score, then fewest features, then smallest mask."""
    candidates = [
        evaluate_mask(np.array(m), ds, weights, predictor_config)
        for m in itertools.product((0, 1), repeat=ds.n_features) if any(m)
    ]
    return min(candidates, key=lambda c: (-c.score, c.cardinality, c.mask))


@pytest.mark.parametrize("master_seed", [0, 1, 2])
def test_search_finds_exhaustive_optimum_on_task1(tmp_path, master_seed):
    # task1's dataset as run_task prepares it: the intersection rows of
    # pooled.csv, split and standardized with the master seed.
    cfg = default_config(master_seed=master_seed, out_dir=str(tmp_path))
    cmd_generate(cfg)
    pooled = read_csv(tmp_path / "data" / "pooled.csv")
    ds = standardize(split_dataset(
        select_scenarios(pooled, ["intersection"]),
        cfg.split_fractions, seed=master_seed))
    best = run_search(ds, cfg.search, cfg.weights, cfg.predictor).best_overall
    optimum = exhaustive_optimum(ds, cfg.weights, cfg.predictor)
    assert best.mask == optimum.mask
    assert best.score == optimum.score


GOLDEN = Path(__file__).with_name("golden_search.json")


def mask_string(mask):
    return "".join(str(int(b)) for b in mask)


@pytest.mark.parametrize("master_seed", [0, 1, 2])
def test_search_matches_golden_run(planted_ds, master_seed):
    # golden_search.json holds the default search on make_planted_dataset()
    # as it ran when it scored one mask at a time: per generation the best
    # mask, its score, the mean score and the elite masks.
    golden = json.loads(GOLDEN.read_text())[str(master_seed)]
    result = run_search(planted_ds, SearchConfig(master_seed=master_seed))
    assert len(result.records) == len(golden["generations"])
    for rec, (best, best_score, mean_score, elites) in zip(
            result.records, golden["generations"]):
        assert mask_string(rec.best.mask) == best
        assert [mask_string(m) for m in rec.elite_masks] == elites
        assert rec.best.score == pytest.approx(best_score, abs=1e-9)
        assert rec.mean_score == pytest.approx(mean_score, abs=1e-9)
    best, best_score = golden["best_overall"]
    assert mask_string(result.best_overall.mask) == best
    assert result.best_overall.score == pytest.approx(best_score, abs=1e-9)


def candidate_fields(cand):
    return [mask_string(cand.mask), cand.rmse, cand.trend_error, cand.total]


def test_wide_search_matches_golden_run_bitwise():
    # golden_search.json's "wide" entry holds the default search (master
    # seed 0) on a planted N=24 dataset, whose full quadratic basis has
    # 325 columns: per generation the best candidate's mask, rmse, trend
    # error and total, the mean score, entropy, diversity, elite masks and
    # the policy it sampled from. Every float is compared exactly.
    golden = json.loads(GOLDEN.read_text())["wide"]
    result = run_search(make_planted_dataset(n_features=24),
                        SearchConfig(master_seed=0),
                        ScoreWeights())
    assert len(result.records) == len(golden["generations"])
    for t, (rec, want) in enumerate(zip(result.records,
                                        golden["generations"])):
        best, mean_score, entropy, diversity, elites, policy = want
        assert rec.t == t
        assert candidate_fields(rec.best) == best
        assert [rec.mean_score, rec.entropy, rec.diversity] == [
            mean_score, entropy, diversity]
        assert [mask_string(m) for m in rec.elite_masks] == elites
        assert rec.policy.tolist() == policy
    assert candidate_fields(result.best_overall) == golden["best_overall"]
    assert result.final_policy.tolist() == golden["final_policy"]
