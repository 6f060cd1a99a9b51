from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_manual_dataset, make_planted_dataset, unsplit
from plselect import baselines
from plselect.baselines import (
    MI_VARIANTS,
    feature_mi,
    joint_counts,
    mi_category_subset,
    random_subset_mask,
)
from plselect.dataset import Dataset, DatasetError, split_dataset, standardize
from plselect.scenario import FeatureCatalog
from reference_scoring import mutual_information


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
        mi = mutual_information(x, x)
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
            mutual_information(np.ones(15), np.ones(15))


class TestCategorySubsets:
    def test_shapes_and_categories(self, planted_ds):
        categories = np.array(FeatureCatalog().categories)
        for variant, second in MI_VARIANTS.items():
            mask = mi_category_subset(planted_ds, variant)
            chosen = categories[mask == 1]
            assert mask.sum() == 4
            assert sorted(chosen) == ["Geometry"] * 2 + [second] * 2

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

    def test_unsplit_dataset_refused(self, planted_ds):
        with pytest.raises(DatasetError, match="must be split"):
            feature_mi(unsplit(planted_ds))

    def test_noisy_copy_ranked_below_original(self):
        rng = np.random.default_rng(6)
        n = 2000
        X = rng.normal(size=(n, 10))
        X[:, 3] = X[:, 0] + rng.normal(0, 1.0, size=n)  # f4 noisy copy of f1
        y = 3.0 * X[:, 0] + rng.normal(0, 0.3, size=n)
        ds = make_manual_dataset(X, y, ["train"] * n)
        ds = standardize(split_dataset(unsplit(ds), seed=0))
        mi = feature_mi(ds)
        assert mi[0] > mi[3]

    def test_mi_is_a_read_only_nonnegative_column(self, planted_ds):
        mi = feature_mi(planted_ds)
        assert mi.shape == (10,)
        assert np.all(mi >= 0)
        assert not mi.flags.writeable

    @given(st.data())
    def test_ties_go_to_the_lower_index(self, data):
        # MI from a few distinct values, so that ties are common.
        n = data.draw(st.integers(1, 12), label="n")
        mi = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n)))
        categories = data.draw(st.lists(
            st.sampled_from(["Geometry", "Structure", "Knowledge"]),
            min_size=n, max_size=n))
        ds = Dataset(X=np.zeros((1, n)), y=np.zeros(1), scenario_id=["s"],
                     route_index=[0], catalog=FeatureCatalog(
                         symbols=tuple(map(str, range(n))),
                         categories=tuple(categories)))
        order = sorted(range(n), key=lambda i: (-mi[i], i))
        for variant, second in MI_VARIANTS.items():
            expected = np.zeros(n, dtype=np.int8)
            for category in ("Geometry", second):
                expected[[i for i in order
                          if categories[i] == category][:2]] = 1
            with mock.patch.object(baselines, "feature_mi",
                                   return_value=mi):
                mask = mi_category_subset(ds, variant)
            assert mask.dtype == np.int8
            assert np.array_equal(mask, expected)


class TestRankingCache:
    def test_one_ranking_per_dataset(self, monkeypatch):
        ds = make_planted_dataset(seed=11)
        calls = []
        real = baselines.joint_counts

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(baselines, "joint_counts", spy)
        masks = [mi_category_subset(ds, v) for v in ("GE_Struct", "GE_EM")]
        assert len(calls) == 1
        mi = feature_mi(ds)
        assert len(calls) == 1
        assert not mi.flags.writeable
        X, y = ds.feature_matrix("train"), ds.targets("train")
        assert mi.tolist() == [mutual_information(X[:, i], y)
                               for i in range(ds.n_features)]
        # A fresh copy of the dataset computes the same column and masks.
        fresh = replace(ds)
        assert np.array_equal(feature_mi(fresh), mi)
        assert len(calls) == 2
        for variant, mask in zip(("GE_Struct", "GE_EM"), masks):
            assert np.array_equal(mi_category_subset(fresh, variant), mask)
        assert len(calls) == 2


def train_columns():
    """(X, y) of 16 to 80 rows. Each column of X, and y, is constant,
    repeats up to three values or spreads over up to n values, scaled by
    a magnitude from 1e-300 to 1e300."""
    magnitude = st.sampled_from([1.0, 1e-300, 1e3, 1e150, 1e300])
    value = st.floats(-1.0, 1.0, allow_subnormal=False)

    @st.composite
    def build(draw):
        n = draw(st.integers(16, 80), label="n")
        width = draw(st.integers(1, 5), label="width")
        columns = []
        for _ in range(width + 1):
            kind = draw(st.sampled_from(["spread", "repeats", "constant"]))
            scale = draw(magnitude)
            if kind == "constant":
                column = np.full(n, draw(value) * scale)
            else:
                pool = draw(st.lists(value, min_size=1,
                                     max_size=n if kind == "spread" else 3))
                picks = draw(st.lists(st.integers(0, len(pool) - 1),
                                      min_size=n, max_size=n))
                column = np.array(pool)[picks] * scale
            columns.append(column)
        return np.column_stack(columns[:-1]), columns[-1]

    return build()


# linspace edges, searchsorted and one bincount must count as
# np.histogram2d does at the numpy floor.
@pytest.mark.numpy_floor
class TestJointCounts:
    @given(train_columns())
    def test_counts_and_mi_match_the_per_column_reference(self, data):
        X, y = data
        joint = joint_counts(X, y)
        assert joint.shape == (X.shape[1], 16, 16)
        for j, x in enumerate(X.T):
            assert np.array_equal(joint[j], np.histogram2d(x, y, 16)[0])
        ds = make_manual_dataset(X, y, ["train"] * len(y))
        expected = [mutual_information(x, y).hex() for x in X.T]
        assert [v.hex() for v in feature_mi(ds).tolist()] == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_refused(self, bad):
        X = np.zeros((20, 2))
        X[3, 1] = bad
        with pytest.raises(ValueError):
            np.histogram2d(X[:, 1], np.zeros(20), 16)
        with pytest.raises(ValueError):
            joint_counts(X, np.arange(20.0))
        with pytest.raises(ValueError):
            joint_counts(np.zeros((20, 2)), X[:, 1])

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="as many samples as bins"):
            joint_counts(np.ones((15, 3)), np.ones(15))
