import itertools
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_planted_dataset
from plselect.dataset import Dataset, DatasetError, split_dataset, standardize
from plselect.predictor import (
    PredictorConfig,
    PredictorError,
    SingularSystemError,
    evaluate_mask,
    evaluate_masks,
    expand_basis,
    fit,
    predict,
)
from plselect.scoring import (
    ScoreWeights,
    rmse,
    total_score,
    trend_consistency_error,
)

LINEAR = PredictorConfig(basis="linear", ridge_lambda=1e-9)


def brute_force_ridge(X, y, ridge_lambda):
    """Independent normal-equation solve via least squares on the
    ridge-augmented system (intercept unpenalized)."""
    design = np.hstack([np.ones((X.shape[0], 1)), X])
    k = design.shape[1]
    aug = np.sqrt(ridge_lambda) * np.eye(k)
    aug[0, 0] = 0.0
    stacked = np.vstack([design, aug])
    target = np.concatenate([y, np.zeros(k)])
    beta, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    return beta


class TestFit:
    def test_exact_linear_target(self):
        x = np.linspace(-2, 2, 20)[:, None]
        model = fit(x, 2.0 * x[:, 0], LINEAR)
        assert model.weights[0] == pytest.approx(2.0, abs=1e-6)
        assert model.intercept == pytest.approx(0.0, abs=1e-6)

    def test_constant_target(self):
        x = np.linspace(-1, 1, 10)[:, None]
        model = fit(x, np.full(10, 42.0), LINEAR)
        assert model.intercept == pytest.approx(42.0, abs=1e-6)
        assert abs(model.weights[0]) < 1e-6

    def test_matches_brute_force_normal_equations(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 5))
        y = rng.normal(size=50)
        lam = 0.37
        model = fit(X, y, PredictorConfig(basis="linear", ridge_lambda=lam))
        beta = brute_force_ridge(X, y, lam)
        assert model.intercept == pytest.approx(beta[0], abs=1e-8)
        assert np.allclose(model.weights, beta[1:], atol=1e-8)

    def test_quadratic_basis_shape(self):
        X = np.ones((4, 3))
        phi = expand_basis(X, "quadratic")
        assert phi.shape == (4, 3 + 6)

    def test_singular_without_ridge(self):
        X = np.ones((10, 2))  # duplicate constant columns
        X[:, 1] = X[:, 0]
        with pytest.raises(SingularSystemError, match="ridge_lambda"):
            fit(X, np.arange(10.0),
                PredictorConfig(basis="linear", ridge_lambda=0.0))

    def test_too_few_samples(self):
        with pytest.raises(PredictorError):
            fit(np.ones((1, 2)), np.ones(1), LINEAR)

    def test_scale_consistency(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 3.0
        a = fit(X, y, LINEAR)
        b = fit(X, 2.0 * y, LINEAR)
        assert np.allclose(b.weights, 2.0 * a.weights, atol=1e-6)
        assert b.intercept == pytest.approx(2.0 * a.intercept, abs=1e-6)


class TestPredict:
    def test_intercept_only(self):
        x = np.linspace(-1, 1, 10)[:, None]
        model = fit(x, np.full(10, 100.0), LINEAR)
        assert predict(model, [[0.37]])[0] == pytest.approx(100.0, abs=1e-6)

    def test_linear_arithmetic(self):
        x = np.array([[0.0], [1.0], [2.0]])
        model = fit(x, 2.0 * x[:, 0] + 1.0, LINEAR)
        assert predict(model, [[3.0]])[0] == pytest.approx(7.0, abs=1e-6)

    def test_training_residuals(self):
        x = np.linspace(-2, 2, 20)[:, None]
        y = 2.0 * x[:, 0]
        model = fit(x, y, LINEAR)
        assert np.all(np.abs(predict(model, x) - y) < 1e-6)

    def test_dimension_mismatch(self):
        x = np.ones((5, 2))
        model = fit(x, np.arange(5.0), PredictorConfig(basis="linear"))
        with pytest.raises(PredictorError):
            predict(model, np.ones((3, 4)))


class TestEvaluateMask:
    def test_full_mask_cardinality(self, planted_ds):
        cand = evaluate_mask(np.ones(10, dtype=int), planted_ds)
        assert cand.cardinality == 10
        assert cand.feature_indices() == tuple(range(1, 11))

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
        from conftest import make_manual_dataset

        ds = make_manual_dataset(
            np.ones((4, 10)), np.zeros(4), ["train"] * 4
        )
        with pytest.raises(DatasetError):
            evaluate_mask(np.ones(10, dtype=int), ds)

    def test_empty_mask_rejected(self, planted_ds):
        with pytest.raises(PredictorError):
            evaluate_mask(np.zeros(10, dtype=int), planted_ds)

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


def reference_breakdown(mask, ds, weights, config):
    """evaluate_mask's score composed from the reference functions, on
    arrays built from the samples and split labels directly."""
    sel = np.asarray(mask, dtype=bool)

    def split(label):
        return [s for s, lab in zip(ds.samples, ds.split) if lab == label]

    train, val = split("train"), split("val")
    model = fit(np.array([s.features for s in train])[:, sel],
                np.array([s.path_loss for s in train]), config, mask)
    y_hat = predict(model, np.array([s.features for s in val])[:, sel])
    y_val = np.array([s.path_loss for s in val])
    trend = trend_consistency_error(y_hat, y_val,
                                    [s.scenario_id for s in val],
                                    [s.route_index for s in val])
    return total_score(rmse(y_hat, y_val), trend, mask, weights)


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
    per dataset; fit, predict and trend_consistency_error are its oracle."""

    @pytest.mark.parametrize("basis", ["quadratic", "linear"])
    def test_every_mask_matches_reference(self, basis):
        ds = make_planted_dataset()
        assert_matches_reference(all_masks(10), ds, ScoreWeights(),
                                 PredictorConfig(basis=basis))

    def test_each_basis_gets_its_own_system(self):
        ds = make_planted_dataset(n_samples=150, seed=7)
        for basis in ("quadratic", "linear", "quadratic"):
            assert_matches_reference(all_masks(10)[::50], ds, ScoreWeights(),
                                     PredictorConfig(basis=basis))

    def test_random_wide_masks_match_reference(self):
        ds = make_planted_dataset(n_features=24, n_samples=600, seed=3)
        rng = np.random.default_rng(24)
        masks = [m for m in (rng.random((200, 24)) < rng.random((200, 1)))
                 .astype(int) if m.any()]
        assert len(masks) > 190
        assert_matches_reference(masks, ds, ScoreWeights(n_features=24),
                                 PredictorConfig())

    def test_pooled_scenarios_match_reference(self):
        # Two scenarios interleaved: the trend error must not difference
        # across a scenario boundary.
        a = make_planted_dataset(n_samples=200, seed=4)
        samples = tuple(
            replace(s, scenario_id="ab"[i % 2], route_index=i // 2)
            for i, s in enumerate(a.samples)
        )
        ds = standardize(split_dataset(Dataset(samples=samples), seed=1))
        assert_matches_reference(all_masks(10)[::7], ds, ScoreWeights(),
                                 PredictorConfig())

    def test_constant_column_is_singular_on_both_paths(self):
        ds = constant_column_dataset()
        config = PredictorConfig(basis="linear", ridge_lambda=0.0)
        with_constant = np.array([1, 0, 1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(SingularSystemError):
            evaluate_mask(with_constant, ds, ScoreWeights(), config)
        with pytest.raises(SingularSystemError):
            reference_breakdown(with_constant, ds, ScoreWeights(), config)
        # The same system serves a mask without that column.
        assert_matches_reference([np.array([1, 1, 0, 1, 0, 0, 0, 0, 0, 0])],
                                 ds, ScoreWeights(), config)

    def test_replaced_dataset_never_reuses_another_system(self):
        base = split_dataset(Dataset(
            samples=make_planted_dataset(n_samples=200, seed=6).samples))
        first = standardize(base)
        masks = all_masks(10)[::31]
        assert_matches_reference(masks, first, ScoreWeights(),
                                 PredictorConfig())
        shifted = tuple(replace(s, path_loss=s.path_loss * 2.0 + s.features[0])
                        for s in base.samples)
        others = [
            standardize(replace(base, samples=shifted)),
            replace(first, samples=tuple(
                replace(s, path_loss=0.5 * s.path_loss + s.features[1])
                for s in first.samples)),
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
    samples = tuple(
        replace(s, features=np.where(np.arange(10) == 2, 7.0, s.features))
        for s in base.samples
    )
    return standardize(split_dataset(Dataset(samples=samples)))


class TestBatchedOracle:
    """evaluate_masks scores a batch with one stacked solve per basis
    width; per-mask fit, predict and trend_consistency_error are its
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
                                 oracle_dataset(n), ScoreWeights(n_features=n),
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
        weights = ScoreWeights(n_features=24)
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
        with pytest.raises(SingularSystemError):
            reference_breakdown(with_constant, ds, ScoreWeights(), config)
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

    def test_empty_batch(self, planted_ds):
        assert evaluate_masks([], planted_ds) == []
