import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_planted_dataset
from plselect.dataset import read_csv, split_dataset, standardize
from plselect.harness import cmd_generate, default_config
from plselect.predictor import Candidate, evaluate_mask
from plselect.scoring import ScoreBreakdown, ScoreWeights
from plselect.search import (
    P_CEIL,
    P_FLOOR,
    SearchConfig,
    SearchConfigError,
    crossover,
    elite_mean,
    initial_policy,
    mutate,
    normalized_entropy,
    population_diversity,
    run_search,
    sample_population,
    select_elites,
    update_policy,
)


def make_candidate(mask, total):
    bd = ScoreBreakdown(
        rmse=0.0, trend_error=0.0, cardinality=int(np.sum(mask)), total=total
    )
    return Candidate(mask=tuple(mask), breakdown=bd)


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


class TestCrossover:
    def test_identical_parents(self):
        a = np.array([1, 0, 1, 0], dtype=np.int8)
        ca, cb = crossover(a, a.copy(), np.random.default_rng(0))
        assert np.array_equal(ca, a) and np.array_equal(cb, a)

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


class TestElites:
    def test_all_returned(self):
        cands = [make_candidate([1, 0], -1.0), make_candidate([0, 1], -2.0)]
        assert select_elites(cands, 2) == sorted(
            cands, key=lambda c: -c.score
        )

    def test_ordering(self):
        cands = [
            make_candidate([1, 0, 0], s) for s in (-2.0, -1.0, -3.0)
        ]
        top = select_elites(cands, 2)
        assert [c.score for c in top] == [-1.0, -2.0]

    def test_tie_breaks_to_sparser(self):
        a = make_candidate([1, 1, 0, 0], -1.0)
        b = make_candidate([1, 1, 1, 0], -1.0)
        assert select_elites([b, a], 1) == [a]

    def test_mean(self):
        masks = [np.array([1, 1, 0, 0]), np.array([0, 0, 1, 1])]
        assert np.allclose(elite_mean(masks), [0.5, 0.5, 0.5, 0.5])

    def test_mean_counting(self):
        masks = [np.array([1, 0])] * 3 + [np.array([0, 1])] * 2
        assert np.allclose(elite_mean(masks), [0.6, 0.4])


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

    def test_wide_dataset_draws_wide_masks(self):
        ds = make_planted_dataset(n_features=24, n_samples=120)
        result = run_search(
            ds, SearchConfig(population_size=6, generations=3,
                             elite_count=2), ScoreWeights(n_features=24))
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


def exhaustive_optimum(ds, weights, predictor_config):
    """The best of every non-empty mask, ranked as run_search ranks."""
    candidates = [
        evaluate_mask(np.array(m), ds, weights, predictor_config)
        for m in itertools.product((0, 1), repeat=ds.n_features) if any(m)
    ]
    return select_elites(candidates, 1)[0]


@pytest.mark.parametrize("master_seed", [0, 1, 2])
def test_search_finds_exhaustive_optimum_on_task1(tmp_path, master_seed):
    # task1's dataset as run_task prepares it: the intersection CSV,
    # split and standardized with the master seed.
    cfg = default_config(master_seed=master_seed, out_dir=str(tmp_path))
    cmd_generate(cfg)
    ds = standardize(split_dataset(
        read_csv(tmp_path / "data" / "intersection.csv"),
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
