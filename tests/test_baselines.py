from dataclasses import replace

import numpy as np
import pytest

from conftest import make_manual_dataset, make_planted_dataset, unsplit
from plselect import baselines
from plselect.baselines import (
    full_feature_mask,
    mi_category_subset,
    mi_ranking,
    mutual_information,
    random_subset_mask,
)
from plselect.dataset import split_dataset, standardize
from plselect.scenario import FeatureCatalog


class TestFullFeature:
    def test_all_ones(self):
        mask = full_feature_mask(10)
        assert mask.sum() == 10
        assert np.array_equal(mask, np.ones(10))


class TestRandomSubset:
    def test_k_equals_n(self):
        mask = random_subset_mask(10, 10, np.random.default_rng(0))
        assert np.array_equal(mask, np.ones(10))

    def test_cardinality(self):
        mask = random_subset_mask(4, 10, np.random.default_rng(1))
        assert mask.sum() == 4

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            random_subset_mask(0, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            random_subset_mask(11, 10, np.random.default_rng(0))

    def test_uniform_frequency(self):
        rng = np.random.default_rng(2)
        freq = np.zeros(10)
        draws = 10_000
        for _ in range(draws):
            freq += random_subset_mask(4, 10, rng)
        freq /= draws
        assert np.all(np.abs(freq - 0.4) < 0.02)


class TestMutualInformation:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=10_000)
        y = rng.permutation(x)
        assert mutual_information(x, y) < 0.05

    def test_identity_matches_marginal_entropy(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 10_000)
        mi = mutual_information(x, x, bins=16)
        hist, _ = np.histogram(x, bins=16)
        p = hist / hist.sum()
        entropy = -np.sum(p[p > 0] * np.log2(p[p > 0]))
        assert mi == pytest.approx(entropy, rel=0.05)
        assert entropy == pytest.approx(np.log2(16), rel=0.05)

    def test_constant_column(self):
        x = np.full(100, 3.0)
        y = np.arange(100.0)
        assert mutual_information(x, y) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=500)
        y = x + rng.normal(size=500)
        assert mutual_information(x, y) == pytest.approx(
            mutual_information(y, x), abs=1e-12
        )

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            mutual_information(np.ones(8), np.ones(8), bins=16)


class TestCategorySubsets:
    def test_shapes_and_categories(self, planted_ds):
        cat = FeatureCatalog()
        geometry = set(cat.indices_for_category("Geometry"))
        for variant, second in (("GE_Struct", "Structure"),
                                ("GE_EM", "Knowledge")):
            mask = mi_category_subset(planted_ds, variant)
            selected = {i + 1 for i, b in enumerate(mask) if b}
            assert len(selected) == 4
            assert len(selected & geometry) == 2
            assert len(selected & set(cat.indices_for_category(second))) == 2

    def test_ge_em_includes_both_knowledge_features(self, planted_ds):
        mask = mi_category_subset(planted_ds, "GE_EM")
        assert mask[8] == 1 and mask[9] == 1

    def test_categories_come_from_the_dataset_catalog(self):
        # Twelve features in three categories of four.
        catalog = FeatureCatalog(
            symbols=tuple(f"x{i}" for i in range(1, 13)),
            categories=("Geometry",) * 4 + ("Structure",) * 4
            + ("Knowledge",) * 4,
        )
        ds = replace(make_planted_dataset(n_features=12), catalog=catalog)
        for variant, second in (("GE_Struct", range(5, 9)),
                                ("GE_EM", range(9, 13))):
            mask = mi_category_subset(ds, variant)
            selected = {i + 1 for i in np.flatnonzero(mask)}
            assert mask.shape == (12,)
            assert len(selected) == 4
            assert len(selected & set(range(1, 5))) == 2
            assert len(selected & set(second)) == 2

    def test_unknown_variant(self, planted_ds):
        with pytest.raises(ValueError):
            mi_category_subset(planted_ds, "GE_Foo")

    def test_noisy_copy_ranked_below_original(self):
        rng = np.random.default_rng(6)
        n = 2000
        X = rng.normal(size=(n, 10))
        X[:, 3] = X[:, 0] + rng.normal(0, 1.0, size=n)  # f4 noisy copy of f1
        y = 3.0 * X[:, 0] + rng.normal(0, 0.3, size=n)
        ds = make_manual_dataset(X, y, ["train"] * n)
        ds = standardize(split_dataset(unsplit(ds), seed=0))
        ranking = mi_ranking(ds)
        assert ranking.ranking.index(1) < ranking.ranking.index(4)

    def test_ranking_is_permutation(self, planted_ds):
        ranking = mi_ranking(planted_ds)
        assert sorted(ranking.ranking) == list(range(1, 11))
        assert np.all(ranking.mi_bits >= 0)


class TestRankingCache:
    def test_one_ranking_per_dataset(self, monkeypatch):
        ds = make_planted_dataset(seed=11)
        calls = []
        real = baselines.mutual_information

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(baselines, "mutual_information", spy)
        masks = [mi_category_subset(ds, v) for v in ("GE_Struct", "GE_EM")]
        assert len(calls) == ds.n_features
        ranking = mi_ranking(ds)
        assert len(calls) == ds.n_features
        assert not ranking.mi_bits.flags.writeable
        X, y = ds.feature_matrix("train"), ds.targets("train")
        assert ranking.mi_bits.tolist() == [
            real(X[:, i], y) for i in range(ds.n_features)]
        # A fresh copy of the dataset computes the same ranking and masks.
        fresh = replace(ds)
        assert mi_ranking(fresh).ranking == ranking.ranking
        assert len(calls) == 2 * ds.n_features
        for variant, mask in zip(("GE_Struct", "GE_EM"), masks):
            assert np.array_equal(mi_category_subset(fresh, variant), mask)
        assert len(calls) == 2 * ds.n_features
