from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_manual_dataset, make_planted_dataset
from plselect.dataset import (
    CSV_HEADER,
    Dataset,
    DatasetError,
    build_dataset,
    concat_datasets,
    destandardize_features,
    read_csv,
    split_dataset,
    standardize,
    write_csv,
)
from plselect.scenario import SceneConfig, generate_scene


@pytest.fixture(scope="module")
def small_scene():
    return generate_scene(
        SceneConfig(scatterer_count=(5, 10), route_points=10, seed=4)
    )


@pytest.fixture(scope="module")
def two_scenes():
    return [
        generate_scene(
            SceneConfig(scatterer_count=(5, 10), route_points=50, seed=s)
        )
        for s in (4, 5)
    ]


class TestBuild:
    def test_counts_single_scene(self, small_scene):
        ds = build_dataset([small_scene], ["a"])
        assert len(ds) == 10
        assert [s.route_index for s in ds.samples] == list(range(10))

    def test_counts_two_scenes(self, two_scenes):
        ds = build_dataset(two_scenes, ["a", "b"])
        assert len(ds) == 100
        assert ds.scenario_ids() == ["a", "b"]

    def test_duplicate_id_rejected(self, two_scenes):
        with pytest.raises(DatasetError):
            build_dataset(two_scenes, ["a", "a"])

    def test_pooled_carries_both_ids(self, two_scenes):
        parts = [
            build_dataset([sc], [sid])
            for sc, sid in zip(two_scenes, ["a", "b"])
        ]
        pooled = concat_datasets(parts)
        assert pooled.scenario_ids() == ["a", "b"]
        assert len(pooled) == 100


class TestSplit:
    def test_exact_fractions(self):
        scene = generate_scene(
            SceneConfig(scatterer_count=(0, 0), route_points=100, seed=0)
        )
        ds = split_dataset(
            build_dataset([scene], ["a"]), (0.7, 0.15, 0.15), seed=1
        )
        counts = {
            lab: sum(1 for s in ds.split if s == lab)
            for lab in ("train", "val", "test")
        }
        assert counts == {"train": 70, "val": 15, "test": 15}

    def test_determinism(self, two_scenes):
        ds = build_dataset(two_scenes, ["a", "b"])
        a = split_dataset(ds, seed=3).split
        b = split_dataset(ds, seed=3).split
        assert a == b

    def test_odd_count_within_one_of_target(self):
        scene = generate_scene(
            SceneConfig(scatterer_count=(0, 0), route_points=101, seed=0)
        )
        ds = split_dataset(build_dataset([scene], ["a"]), (0.7, 0.15, 0.15))
        for frac, lab in zip((0.7, 0.15, 0.15), ("train", "val", "test")):
            count = sum(1 for s in ds.split if s == lab)
            assert abs(count - 101 * frac) <= 1

    def test_disjoint_union(self, two_scenes):
        ds = split_dataset(build_dataset(two_scenes, ["a", "b"]), seed=2)
        labels = set(ds.split)
        assert labels == {"train", "val", "test"}
        assert len(ds.split) == len(ds.samples)

    def test_stratified_per_scenario(self, two_scenes):
        ds = split_dataset(build_dataset(two_scenes, ["a", "b"]), seed=2)
        for sid in ("a", "b"):
            labs = [
                lab
                for s, lab in zip(ds.samples, ds.split)
                if s.scenario_id == sid
            ]
            assert labs.count("train") == 35
            assert labs.count("val") == 7 or labs.count("val") == 8

    def test_too_small_scenario_named(self, small_scene):
        scene3 = generate_scene(
            SceneConfig(scatterer_count=(0, 0), route_points=2, seed=6)
        )
        ds = build_dataset([scene3], ["tiny"])
        with pytest.raises(DatasetError, match="tiny"):
            split_dataset(ds, (0.7, 0.15, 0.15))

    def test_bad_fractions(self, small_scene):
        ds = build_dataset([small_scene], ["a"])
        with pytest.raises(DatasetError):
            split_dataset(ds, (0.5, 0.5, 0.2))
        with pytest.raises(DatasetError):
            split_dataset(ds, (1.0, 0.0, 0.0))
        with pytest.raises(DatasetError, match="expected 3 split fractions"):
            split_dataset(ds, (0.5, 0.5))


class TestColumnArrays:
    def test_match_the_samples_for_every_split(self, two_scenes):
        ds = split_dataset(build_dataset(two_scenes, ["a", "b"]), seed=3)
        for split in (None, "train", "val", "test"):
            rows = [i for i, lab in enumerate(ds.split)
                    if split is None or lab == split]
            for _ in range(2):  # built once, then read from the cache
                np.testing.assert_array_equal(
                    ds.feature_matrix(split),
                    [ds.samples[i].features for i in rows])
                np.testing.assert_array_equal(
                    ds.targets(split), [ds.samples[i].path_loss for i in rows])
                if split is not None:
                    assert all(a is ds.samples[i] for a, i in
                               zip(ds.split_samples(split), rows, strict=True))
        assert ds.feature_matrix("other").size == 0
        assert ds.split_samples("other") == []

    def test_cached_arrays_are_read_only(self, two_scenes):
        ds = split_dataset(build_dataset(two_scenes, ["a", "b"]), seed=3)
        with pytest.raises(ValueError):
            ds.feature_matrix()[0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.targets()[0] = 1.0
        train = ds.feature_matrix("train")
        train[0, 0] = 1e9  # a split's rows are a copy
        assert ds.feature_matrix("train")[0, 0] != 1e9

    def test_replaced_dataset_builds_its_own(self, two_scenes):
        ds = split_dataset(build_dataset(two_scenes, ["a", "b"]), seed=3)
        ds.feature_matrix("train"), ds.targets("train")
        ds.derived["key"] = "value"
        other = split_dataset(replace(ds, samples=tuple(
            replace(s, path_loss=s.path_loss + 1.0, features=s.features * 2)
            for s in ds.samples)), seed=4)
        np.testing.assert_array_equal(other.targets(), ds.targets() + 1.0)
        np.testing.assert_array_equal(other.feature_matrix(),
                                      ds.feature_matrix() * 2)
        assert [s.route_index for s in other.split_samples("val")] != [
            s.route_index for s in ds.split_samples("val")]
        assert other.derived == {}

    def test_no_split_assigned(self, two_scenes):
        ds = build_dataset(two_scenes, ["a", "b"])
        with pytest.raises(DatasetError, match="no split"):
            ds.feature_matrix("train")


class TestFeatureWidth:
    def test_width_must_match_catalog(self):
        samples = make_planted_dataset(n_features=12, n_samples=30).samples
        with pytest.raises(DatasetError,
                           match="12 features but the catalog has 10"):
            Dataset(samples=samples)

    def test_every_sample_is_checked(self):
        samples = make_planted_dataset(n_samples=30).samples
        short = replace(samples[17], features=samples[17].features[:9])
        with pytest.raises(DatasetError,
                           match="9 features but the catalog has 10"):
            Dataset(samples=samples[:17] + (short,) + samples[18:])

    def test_replace_checks_a_new_catalog(self):
        ds = make_planted_dataset(n_features=24, n_samples=30)
        assert ds.n_features == 24
        with pytest.raises(DatasetError, match="24 features"):
            replace(ds, catalog=make_planted_dataset(n_samples=30).catalog)


class TestStandardize:
    def test_hand_computed_population_std(self):
        cols = [[1.0], [2.0], [3.0], [2.5], [2.5]]
        ds = make_manual_dataset(
            cols, [0, 0, 0, 0, 0], ["train", "train", "train", "val", "test"]
        )
        out = standardize(ds)
        mean, std = out.standardization
        assert mean[0] == pytest.approx(2.0)
        assert std[0] == pytest.approx(0.816496580927726, abs=1e-12)

    def test_constant_column_flagged(self):
        cols = [[5.0, 1.0], [5.0, 2.0], [5.0, 3.0], [5.0, 4.0]]
        ds = make_manual_dataset(
            cols, [0, 0, 0, 0], ["train", "train", "train", "val"]
        )
        out = standardize(ds)
        assert out.standardization[1][0] == 1.0
        assert out.constant_features == (True, False)

    def test_round_trip(self, two_scenes):
        ds = split_dataset(build_dataset(two_scenes, ["a", "b"]), seed=1)
        out = standardize(ds)
        for orig, std_s in zip(ds.samples, out.samples):
            back = destandardize_features(out, std_s.features)
            assert np.allclose(back, orig.features, atol=1e-12)

    def test_train_columns_normalized(self, two_scenes):
        ds = split_dataset(build_dataset(two_scenes, ["a", "b"]), seed=1)
        out = standardize(ds)
        train = out.feature_matrix("train")
        constant = np.array(out.constant_features)
        assert np.all(np.abs(train.mean(axis=0)) < 1e-9)
        assert np.all(
            np.abs(train.std(axis=0)[~constant] - 1.0) < 1e-9
        )

    def test_requires_split(self, two_scenes):
        ds = build_dataset(two_scenes, ["a", "b"])
        with pytest.raises(DatasetError):
            standardize(ds)


class TestCsv:
    def test_round_trip(self, two_scenes, tmp_path):
        ds = build_dataset(two_scenes, ["a", "b"])
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert len(back) == len(ds)
        for orig, loaded in zip(ds.samples, back.samples):
            assert loaded.scenario_id == orig.scenario_id
            assert loaded.route_index == orig.route_index
            # 9 significant digits survive the round trip
            assert np.allclose(
                loaded.features, orig.features, rtol=1e-8, atol=1e-8
            )

    def test_header_and_order(self, two_scenes, tmp_path):
        ds = build_dataset(two_scenes, ["b", "a"])
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        keys = [
            (row.split(",")[0], int(row.split(",")[1])) for row in lines[1:]
        ]
        assert keys == sorted(keys)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(DatasetError):
            read_csv(path)

    def test_header_names_ten_features(self):
        assert CSV_HEADER == (
            ["scenario_id", "route_index"]
            + [f"f{i}" for i in range(1, 11)]
            + ["path_loss"]
        )

    @pytest.mark.parametrize(
        "row, message",
        [
            ("a,0,1,2,3,4,5,6,7,8,9", "expected 13 fields, got 11"),
            ("a,0,1,2,3,4,5,6,7,8,9,10,11,12", "expected 13 fields, got 14"),
            ("a,0,1,2,nan,4,5,6,7,8,9,10,11", "non-finite"),
            ("a,0,1,2,3,4,5,6,7,8,9,10,inf", "non-finite"),
            ("a,0,1,2,3,4,5,6,7,8,9,10,loud", "could not convert"),
            ("a,0," + "1" * 200_000, "field larger than field limit"),
        ],
        ids=["truncated", "overlong", "nan_feature", "inf_path_loss",
             "not_a_number", "oversized_field"],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "data.csv"
        good = "a,0," + ",".join(["1.5"] * 11)
        path.write_text(
            ",".join(CSV_HEADER) + "\n" + good + "\n" + row + "\n"
        )
        with pytest.raises(DatasetError) as exc:
            read_csv(path)
        assert f"{path}, line 3" in str(exc.value)
        assert message in str(exc.value)

    @settings(max_examples=100, deadline=None)
    @given(
        header=st.just(CSV_HEADER) | st.lists(st.text(max_size=8)),
        rows=st.lists(
            st.lists(
                st.text(max_size=6) | st.floats().map(repr)
                | st.integers().map(str),
                min_size=11, max_size=14,
            ) | st.lists(st.text(max_size=6), max_size=4),
            max_size=4,
        ),
    )
    @example(header=CSV_HEADER, rows=[["a", "0"] + ["1.5"] * 11])
    @example(header=CSV_HEADER, rows=[["a", "0", "1" * 200_000]])
    def test_arbitrary_rows_load_or_raise_dataset_error(
        self, tmp_path_factory, header, rows
    ):
        path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
        path.write_text("\n".join(",".join(r) for r in [header] + rows))
        try:
            ds = read_csv(path)
        except DatasetError:
            return
        assert all(np.isfinite(s.features).all() for s in ds.samples)
