import itertools
import os
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_manual_dataset, make_planted_dataset, unsplit
from plselect import predictor
from plselect.dataset import DatasetError, split_dataset, standardize
from plselect.predictor import (
    PredictorConfig,
    PredictorError,
    SingularSystemError,
    evaluate_mask,
    evaluate_masks,
    prepared_system,
    score_masks,
)
from plselect.scoring import (
    ScoreWeights,
    total_score,
    total_scores,
    trend_consistency_error,
)


def brute_force_ridge(X, y, ridge_lambda):
    """Independent normal-equation solve via least squares on the
    ridge-augmented system (intercept unpenalized): the oracle of
    score_masks, sharing no code with it."""
    design = np.hstack([np.ones((X.shape[0], 1)), X])
    k = design.shape[1]
    aug = np.sqrt(ridge_lambda) * np.eye(k)
    aug[0, 0] = 0.0
    stacked = np.vstack([design, aug])
    target = np.concatenate([y, np.zeros(k)])
    beta, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    return beta


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_ridge_lambda_must_be_finite_and_non_negative(value):
    with pytest.raises(PredictorError,
                       match="ridge_lambda must be finite and non-negative"):
        PredictorConfig(ridge_lambda=value)


class TestEvaluateMask:
    def test_full_mask_cardinality(self, planted_ds):
        cand = evaluate_mask(np.ones(10, dtype=int), planted_ds)
        assert cand.cardinality == 10
        assert cand.mask == (1,) * 10

    def test_determinism(self, planted_ds):
        mask = np.array([1, 1, 0, 0, 1, 0, 0, 0, 0, 0])
        a = evaluate_mask(mask, planted_ds)
        b = evaluate_mask(mask, planted_ds)
        assert a == b

    def test_relevant_beats_irrelevant(self):
        ds = make_planted_dataset(planted=(0,), coefficients=(5.0,),
                                  n_samples=300, seed=2)
        relevant = np.zeros(10, dtype=int)
        relevant[0] = 1
        irrelevant = np.zeros(10, dtype=int)
        irrelevant[5] = 1
        assert (
            evaluate_mask(relevant, ds).score
            > evaluate_mask(irrelevant, ds).score
        )

    def test_requires_prepared_dataset(self):
        ds = make_manual_dataset(
            np.ones((4, 10)), np.zeros(4), ["train"] * 4
        )
        with pytest.raises(DatasetError):
            evaluate_mask(np.ones(10, dtype=int), ds)

    def test_empty_mask_rejected(self, planted_ds):
        with pytest.raises(PredictorError):
            evaluate_mask(np.zeros(10, dtype=int), planted_ds)

    def test_one_train_row_refused(self):
        X = np.random.default_rng(1).normal(size=(4, 10))
        ds = standardize(make_manual_dataset(
            X, np.arange(4.0), ("train", "val", "val", "test")))
        with pytest.raises(PredictorError,
                           match="need at least 2 training samples"):
            evaluate_masks([np.ones(10, dtype=int)], ds)

    def test_noise_feature_not_worth_penalty(self):
        # one-sided paired comparison over 20 seeds at 95% confidence
        diffs = []
        base = np.zeros(10, dtype=int)
        base[:2] = 1
        extra = base.copy()
        extra[7] = 1
        for seed in range(20):
            ds = make_planted_dataset(
                planted=(0, 1), coefficients=(4.0, 3.0), n_samples=300,
                seed=seed, split_seed=seed,
            )
            diffs.append(
                evaluate_mask(extra, ds).score - evaluate_mask(base, ds).score
            )
        diffs = np.asarray(diffs)
        sem = diffs.std(ddof=1) / np.sqrt(len(diffs))
        t_95 = 1.729  # one-sided, 19 dof
        assert diffs.mean() + t_95 * sem < 0.0


class TestFit:
    def test_matches_brute_force_normal_equations(self):
        # The full linear mask's val RMSE from score_masks' sub-block
        # solve equals that of the ridge normal equations solved directly.
        rng = np.random.default_rng(5)
        n_train, n_val, lam = 50, 20, 0.37
        X = rng.normal(size=(n_train + n_val, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=n_train + n_val)
        ds = standardize(make_manual_dataset(
            X, y, ("train",) * n_train + ("val",) * n_val))
        config = PredictorConfig(basis="linear", ridge_lambda=lam)
        cand = evaluate_mask(np.ones(5, dtype=int), ds,
                             ScoreWeights(), config)

        design = np.hstack([np.ones((n_train + n_val, 1)), ds.X])
        train, val = design[:n_train], design[n_train:]
        penalty = lam * np.eye(6)
        penalty[0, 0] = 0.0  # intercept unpenalized
        beta = np.linalg.solve(train.T @ train + penalty,
                               train.T @ ds.y[:n_train])
        rmse = np.sqrt(np.mean((val @ beta - ds.y[n_train:]) ** 2))
        assert cand.breakdown.rmse == pytest.approx(rmse, abs=1e-9)


def mask_basis(X, basis):
    """X's columns, then for the quadratic basis the products X[:, i] *
    X[:, j] for i <= j, in np.triu_indices order."""
    if basis == "linear":
        return X
    i, j = np.triu_indices(X.shape[1])
    return np.hstack([X, X[:, i] * X[:, j]])


def reference_breakdown(mask, ds, weights, config):
    """evaluate_mask's score from brute_force_ridge on the mask's own
    basis and trend_consistency_error, on rows picked from the columns by
    the split labels directly."""
    sel = np.asarray(mask, dtype=bool)
    train, val = ([i for i, lab in enumerate(ds.split) if lab == label]
                  for label in ("train", "val"))
    beta = brute_force_ridge(mask_basis(ds.X[train][:, sel], config.basis),
                             ds.y[train], config.ridge_lambda)
    y_hat = beta[0] + mask_basis(ds.X[val][:, sel], config.basis) @ beta[1:]
    y_val = ds.y[val]
    trend = trend_consistency_error(y_hat, y_val,
                                    ds.scenario_id[val].tolist(),
                                    ds.route_index[val].tolist())
    return total_score(np.sqrt(np.mean((y_hat - y_val) ** 2)), trend, mask,
                       weights)


def assert_matches_reference(masks, ds, weights, config, tol=1e-9,
                             batch=False):
    if batch:
        got_all = evaluate_masks(masks, ds, weights, config)
    else:
        got_all = [evaluate_mask(m, ds, weights, config) for m in masks]
    assert len(got_all) == len(masks)
    for mask, cand in zip(masks, got_all):
        assert cand.mask == tuple(int(b) for b in mask)
        got = cand.breakdown
        want = reference_breakdown(mask, ds, weights, config)
        assert got.cardinality == want.cardinality
        for field in ("rmse", "trend_error", "total"):
            assert abs(getattr(got, field) - getattr(want, field)) <= tol, (
                mask, field)


def all_masks(n):
    return [np.array(m) for m in itertools.product((0, 1), repeat=n)
            if any(m)]


class TestFastPathOracle:
    """evaluate_mask solves sub-blocks of normal equations prepared once
    per dataset; brute_force_ridge on each mask's own basis and
    trend_consistency_error are its oracle."""

    @pytest.mark.parametrize("basis", ["quadratic", "linear"])
    def test_every_mask_matches_reference(self, basis):
        ds = make_planted_dataset()
        assert_matches_reference(all_masks(10), ds, ScoreWeights(),
                                 PredictorConfig(basis=basis))

    def test_each_basis_gets_its_own_system(self):
        # One system per (basis, ridge_lambda): each holds its penalty in
        # its Gram matrix, so configs that differ only in lambda must not
        # share one.
        ds = make_planted_dataset(n_samples=150, seed=7)
        configs = [PredictorConfig(basis=basis, ridge_lambda=lam)
                   for basis, lam in (("quadratic", 1.0), ("linear", 1.0),
                                      ("quadratic", 0.25), ("linear", 3.0),
                                      ("quadratic", 1.0), ("linear", 3.0))]
        for config in configs:
            assert_matches_reference(all_masks(10)[::50], ds, ScoreWeights(),
                                     config)
        systems = {config: prepared_system(ds, config) for config in configs}
        assert len({id(prep) for prep in systems.values()}) == 4
        for config, prep in systems.items():
            assert prep.ridge_lambda == config.ridge_lambda
            assert prepared_system(ds, config) is prep
        assert not np.array_equal(
            systems[PredictorConfig(ridge_lambda=1.0)].gram,
            systems[PredictorConfig(ridge_lambda=0.25)].gram)

    @pytest.mark.parametrize("basis", ["quadratic", "linear"])
    def test_penalty_is_on_every_diagonal_entry_but_the_intercept(self,
                                                                  basis):
        ds = make_planted_dataset(n_samples=150, seed=8)
        bare = prepared_system(ds, PredictorConfig(basis, ridge_lambda=0.0))
        prep = prepared_system(ds, PredictorConfig(basis, ridge_lambda=0.5))
        penalty = np.diag(np.full(len(bare.gram), 0.5))
        penalty[0, 0] = 0.0
        assert np.array_equal(prep.gram, bare.gram + penalty)
        assert np.array_equal(prep.moment, bare.moment)

    def test_prepared_arrays_are_read_only(self):
        # Every mask of every search on the dataset reads the penalized
        # Gram matrix: a write would change later scores.
        prep = prepared_system(make_planted_dataset(n_samples=120, seed=9),
                               PredictorConfig())
        for name in ("gram", "moment", "val_t", "val_targets", "step_from",
                     "step_to", "val_steps"):
            array = getattr(prep, name)
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1

    def test_random_wide_masks_match_reference(self):
        ds = make_planted_dataset(n_features=24, n_samples=600, seed=3)
        rng = np.random.default_rng(24)
        masks = [m for m in (rng.random((200, 24)) < rng.random((200, 1)))
                 .astype(int) if m.any()]
        assert len(masks) > 190
        assert_matches_reference(masks, ds, ScoreWeights(),
                                 PredictorConfig())

    def test_pooled_scenarios_match_reference(self):
        # Two scenarios interleaved: the trend error must not difference
        # across a scenario boundary.
        a = make_planted_dataset(n_samples=200, seed=4)
        i = np.arange(len(a))
        ds = standardize(split_dataset(unsplit(
            a, scenario_id=np.array(["a", "b"])[i % 2], route_index=i // 2),
            seed=1))
        assert_matches_reference(all_masks(10)[::7], ds, ScoreWeights(),
                                 PredictorConfig())

    def test_constant_column_is_singular_on_both_paths(self):
        ds = constant_column_dataset()
        config = PredictorConfig(basis="linear", ridge_lambda=0.0)
        with_constant = np.array([1, 0, 1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(SingularSystemError, match="ridge_lambda > 0"):
            evaluate_mask(with_constant, ds, ScoreWeights(), config)
        # The same system serves a mask without that column.
        assert_matches_reference([np.array([1, 1, 0, 1, 0, 0, 0, 0, 0, 0])],
                                 ds, ScoreWeights(), config)

    def test_replaced_dataset_never_reuses_another_system(self):
        base = split_dataset(unsplit(
            make_planted_dataset(n_samples=200, seed=6)))
        first = standardize(base)
        masks = all_masks(10)[::31]
        assert_matches_reference(masks, first, ScoreWeights(),
                                 PredictorConfig())
        others = [
            standardize(replace(base, y=base.y * 2.0 + base.X[:, 0])),
            replace(first, y=0.5 * first.y + first.X[:, 1]),
            standardize(split_dataset(base, seed=9)),
        ]
        for other in others:
            assert_matches_reference(masks, other, ScoreWeights(),
                                     PredictorConfig())
            assert (evaluate_mask(masks[0], other).score
                    != evaluate_mask(masks[0], first).score)
        # The first dataset's system is unchanged by the others.
        assert_matches_reference(masks, first, ScoreWeights(),
                                 PredictorConfig())

    def test_mask_length_must_match_dataset(self, planted_ds):
        with pytest.raises(PredictorError, match="9 entries.*10 features"):
            evaluate_mask(np.ones(9, dtype=int), planted_ds)
        with pytest.raises(PredictorError, match="11 entries"):
            evaluate_mask(np.ones(11, dtype=int), planted_ds)


@lru_cache(maxsize=None)
def oracle_dataset(n_features):
    return make_planted_dataset(n_features=n_features, n_samples=300,
                                seed=n_features)


def constant_column_dataset():
    """Feature 3 is constant, so a mask with it is singular at lambda 0."""
    base = make_planted_dataset(n_samples=120)
    X = np.where(np.arange(10) == 2, 7.0, base.X)
    return standardize(split_dataset(unsplit(base, X=X)))


class TestBatchedOracle:
    """evaluate_masks scores a batch with one stacked solve per basis
    width; per-mask brute_force_ridge and trend_consistency_error are its
    oracle."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.sampled_from([10, 24]),
           basis=st.sampled_from(["quadratic", "linear"]))
    def test_batch_matches_reference(self, data, n, basis):
        mask = st.lists(st.booleans(), min_size=n, max_size=n).filter(any)
        masks = data.draw(st.lists(mask, min_size=1, max_size=8))
        duplicates = data.draw(st.lists(st.sampled_from(masks), max_size=4))
        order = data.draw(st.permutations(masks + duplicates))
        assert_matches_reference(np.array(order, dtype=int),
                                 oracle_dataset(n), ScoreWeights(),
                                 PredictorConfig(basis=basis), batch=True)

    @pytest.mark.parametrize("basis", ["quadratic", "linear"])
    def test_batch_equals_batches_of_one(self, basis):
        # A mask's score does not depend on the rest of its batch: the
        # search compares scores made in different batches exactly.
        ds = make_planted_dataset(n_samples=200, seed=5)
        config = PredictorConfig(basis=basis)
        masks = all_masks(10)
        assert evaluate_masks(masks, ds, ScoreWeights(), config) == [
            evaluate_mask(m, ds, ScoreWeights(), config) for m in masks]

    def test_wide_batch_split_over_several_solves(self):
        # Twenty masks of cardinality 16: a quadratic basis of 153 columns,
        # more than one stacked solve holds.
        ds = oracle_dataset(24)
        rng = np.random.default_rng(16)
        masks = np.zeros((20, 24), dtype=int)
        for m in masks:
            m[rng.choice(24, 16, replace=False)] = 1
        weights = ScoreWeights()
        got = evaluate_masks(masks, ds, weights, PredictorConfig())
        assert got == [evaluate_mask(m, ds, weights, PredictorConfig())
                       for m in masks]
        assert_matches_reference(masks[:4], ds, weights, PredictorConfig(),
                                 batch=True)

    def test_one_singular_member_fails_the_batch_at_lambda_zero(self):
        ds = constant_column_dataset()
        config = PredictorConfig(basis="linear", ridge_lambda=0.0)
        with_constant = [1, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        good = [[1, 1, 0, 0, 0, 0, 0, 0, 0, 0], [1, 1, 0, 1, 0, 0, 0, 0, 0, 0]]
        with pytest.raises(SingularSystemError):
            evaluate_masks(good + [with_constant], ds, ScoreWeights(), config)
        assert_matches_reference(np.array(good), ds, ScoreWeights(), config,
                                 batch=True)

    def test_bad_masks_raise_predictor_error(self, planted_ds):
        ones = np.ones(10, dtype=int)
        with pytest.raises(PredictorError, match="9 entries.*10 features"):
            evaluate_masks([np.ones(9, dtype=int)], planted_ds)
        with pytest.raises(PredictorError, match="equal lengths"):
            evaluate_masks([ones, np.ones(9, dtype=int)], planted_ds)
        with pytest.raises(PredictorError, match="at least one feature"):
            evaluate_masks([ones, np.zeros(10, dtype=int)], planted_ds)
        with pytest.raises(PredictorError, match="1-D masks"):
            evaluate_masks(ones, planted_ds)

    @pytest.mark.parametrize("value", [2, -1, 1.7])
    def test_non_binary_entry_refused(self, planted_ds, value):
        # Each of these once scored as [1, 1, 1, 0, ...], and a Candidate
        # kept the raw entries.
        mask = [value] * 3 + [0] * 7
        with pytest.raises(PredictorError,
                           match=f"mask 0 entry 0 is {value}; .* 0 or 1"):
            evaluate_mask(mask, planted_ds)
        with pytest.raises(PredictorError, match=f"mask 1 entry 0 is {value}"):
            evaluate_masks([[1] * 10, mask], planted_ds)

    def test_binary_masks_of_any_dtype_score_alike(self, planted_ds):
        mask = [1, 0, 1] + [0] * 7
        want = evaluate_mask(mask, planted_ds)
        for same in (np.array(mask, dtype=bool), np.array(mask, dtype=float),
                     np.array(mask, dtype=np.int8)):
            got = evaluate_mask(same, planted_ds)
            assert got == want
            assert all(type(b) is int for b in got.mask)

    def test_empty_batch(self, planted_ds):
        assert evaluate_masks([], planted_ds) == []

    @pytest.mark.parametrize("basis", ["quadratic", "linear"])
    def test_score_masks_is_evaluate_masks_as_arrays(self, basis):
        ds = oracle_dataset(24)
        config = PredictorConfig(basis=basis)
        weights = ScoreWeights()
        rng = np.random.default_rng(7)
        masks = (rng.random((40, 24)) < rng.random((40, 1))).astype(np.int8)
        masks[:, 5] = 1
        err, trend, cardinality, total = score_masks(
            masks, prepared_system(ds, config), weights)
        got = evaluate_masks(masks, ds, weights, config)
        assert err.tolist() == [c.breakdown.rmse for c in got]
        assert trend.tolist() == [c.breakdown.trend_error for c in got]
        assert cardinality.tolist() == masks.sum(axis=1).tolist() == [
            c.cardinality for c in got]
        assert total.tolist() == [c.score for c in got]


def basis_columns(mask, upper):
    """The full-basis columns a mask keeps: the intercept, its features,
    and the products of two selected features, in column order."""
    n = len(mask)
    cols = [0, *(1 + np.flatnonzero(mask))]
    if upper is not None:
        both = np.asarray(mask)[upper[0]] * np.asarray(mask)[upper[1]]
        cols += [*(1 + n + np.flatnonzero(both))]
    return cols


def row_major_scores(masks, ds, weights, config):
    """score_masks's four arrays with the direct gathers and np.mean: each
    stack's penalized Gram sub-blocks by 2-D fancy indexing, solved by
    np.linalg.solve, and its val columns from the row-major val design,
    built here again, transposed to (g, n_val, w) for one matrix-vector
    product per mask. A stack is one cardinality."""
    prep = prepared_system(ds, config)
    val = predictor._full_design(ds.feature_matrix("val"), prep.upper)
    cardinality = masks.sum(axis=1)
    y_hat = np.empty((len(masks), len(val)))
    # On one BLAS thread, as score_masks: a threaded product or solve can
    # split its sums differently.
    with predictor._CALLING_THREAD_BLAS:
        for k in np.unique(cardinality):
            rows = np.flatnonzero(cardinality == k)
            cols = np.array([basis_columns(masks[r], prep.upper)
                             for r in rows])
            beta = np.linalg.solve(
                prep.gram[cols[:, :, None], cols[:, None, :]],
                prep.moment[cols][:, :, None])[:, :, 0]
            y_hat[rows] = (val[:, cols].transpose(1, 0, 2)
                           @ beta[:, :, None])[:, :, 0]
    err = np.sqrt(np.mean((y_hat - prep.val_targets) ** 2, axis=1))
    steps = (np.take(y_hat, prep.step_to, axis=1)
             - np.take(y_hat, prep.step_from, axis=1))
    trend = np.sqrt(np.mean((steps - prep.val_steps) ** 2, axis=1))
    return err, trend, cardinality, total_scores(err, trend, cardinality,
                                                 masks.shape[1], weights)


def assert_bitwise(got, want):
    for name, a, b in zip(("rmse", "trend", "cardinality", "total"),
                          got, want):
        assert np.array_equal(a, b), name


class TestRowMajorLayoutOracle:
    """score_masks gathers by take from a flattened Gram matrix and a
    transposed val design, and sums squares by np.add.reduce; its scores
    equal those of the direct row-major gathers and np.mean bit for bit.
    The last bits depend on the layout the products see: a contiguous copy
    of the (g, n_val, w) val block changes them."""

    @pytest.mark.parametrize("basis", ["quadratic", "linear"])
    @pytest.mark.parametrize("n", [10, 24])
    def test_batch_and_batches_of_one(self, n, basis):
        ds = oracle_dataset(n)
        config = PredictorConfig(basis=basis)
        weights = ScoreWeights()
        rng = np.random.default_rng(n)
        masks = (rng.random((60, n)) < rng.random((60, 1))).astype(np.int8)
        masks[:, n // 2] = 1
        prep = prepared_system(ds, config)
        want = row_major_scores(masks, ds, weights, config)
        assert_bitwise(score_masks(masks, prep, weights),
                       want)
        for i, mask in enumerate(masks):
            assert_bitwise(
                score_masks(mask[None], prep, weights),
                [column[i:i + 1] for column in want])

    def test_wide_batch_split_over_several_solves(self):
        ds = oracle_dataset(24)
        config = PredictorConfig()
        weights = ScoreWeights()
        rng = np.random.default_rng(17)
        masks = np.zeros((20, 24), dtype=np.int8)
        for m in masks:
            m[rng.choice(24, 16, replace=False)] = 1
        prep = prepared_system(ds, config)
        width = len(basis_columns(masks[0], prep.upper))
        assert len(masks) > predictor.SOLVE_BLOCK_ENTRIES // width**2 > 1
        assert_bitwise(score_masks(masks, prep, weights),
                       row_major_scores(masks, ds, weights, config))


# Scores 60 masks of cardinality 13..24 on a planted N=24 dataset, whose
# quadratic bases have 105..325 columns, and prints them exactly.
WIDE_SCORES = """
import numpy as np
from conftest import make_planted_dataset
from plselect.predictor import evaluate_masks
from plselect.scoring import ScoreWeights
rng = np.random.default_rng(24)
masks = np.zeros((60, 24), dtype=int)
for m in masks:
    m[rng.choice(24, rng.integers(13, 25), replace=False)] = 1
got = evaluate_masks(masks, make_planted_dataset(n_features=24),
                     ScoreWeights())
print([c.score.hex() for c in got])
"""

needs_openblas = pytest.mark.skipif(
    predictor._openblas_set_threads() is None,
    reason="numpy's BLAS is not an OpenBLAS with a thread-count call")


class TestCallingThreadBlas:
    """evaluate_masks runs OpenBLAS on the calling thread and leaves its
    thread count as it found it."""

    @needs_openblas
    def test_scores_do_not_depend_on_blas_thread_count(self):
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        scores = [
            subprocess.run(
                [sys.executable, "-c", WIDE_SCORES], check=True,
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": path,
                     "OPENBLAS_NUM_THREADS": threads},
            ).stdout
            for threads in ("1", "2")
        ]
        assert scores[0] == scores[1]

    @needs_openblas
    def test_thread_count_restored_after_return_and_raise(self):
        # 3 differs from 1 and from the count OpenBLAS starts with on a
        # 2-core machine.
        set_threads = predictor._openblas_set_threads()
        found = set_threads(3)
        try:
            evaluate_masks([np.ones(10, dtype=int)], make_planted_dataset())
            assert set_threads(3) == 3
            config = PredictorConfig(basis="linear", ridge_lambda=0.0)
            with pytest.raises(SingularSystemError):
                evaluate_mask([1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
                              constant_column_dataset(), ScoreWeights(),
                              config)
            assert set_threads(3) == 3
        finally:
            set_threads(found)
