import csv
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import catalog_for, make_manual_dataset, make_planted_dataset
from plselect.dataset import (
    COLUMNS,
    CSV_HEADER,
    SPLITS,
    Dataset,
    DatasetError,
    Sample,
    _stratified_counts,
    build_dataset,
    destandardize_features,
    format_number,
    read_csv,
    select_scenarios,
    split_dataset,
    standardize,
    write_csv,
)
from plselect.predictor import evaluate_masks
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
        assert ds.route_index.tolist() == list(range(10))

    def test_counts_two_scenes(self, two_scenes):
        ds = build_dataset(two_scenes, ["a", "b"])
        assert len(ds) == 100
        assert ds.scenario_ids() == ["a", "b"]

    def test_duplicate_id_rejected(self, two_scenes):
        with pytest.raises(DatasetError):
            build_dataset(two_scenes, ["a", "a"])

    def test_one_id_per_scene_required(self, two_scenes):
        with pytest.raises(DatasetError, match="one scenario id per scene"):
            build_dataset(two_scenes, ["a"])

    def test_pooled_carries_both_ids(self, two_scenes):
        # The pooled rows are each scene's own rows, in turn.
        pooled = build_dataset(two_scenes, ["a", "b"])
        assert pooled.scenario_ids() == ["a", "b"]
        parts = [build_dataset([sc], [sid])
                 for sc, sid in zip(two_scenes, ["a", "b"])]
        for name in COLUMNS:
            assert np.array_equal(
                getattr(pooled, name),
                np.concatenate([getattr(p, name) for p in parts])), name


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
        np.testing.assert_array_equal(a, b)

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
        assert len(ds.split) == len(ds)

    def test_stratified_per_scenario(self, two_scenes):
        ds = split_dataset(build_dataset(two_scenes, ["a", "b"]), seed=2)
        for sid in ("a", "b"):
            labs = [
                lab
                for row_sid, lab in zip(ds.scenario_id, ds.split)
                if row_sid == sid
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
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DatasetError, match="finite and positive"):
                split_dataset(ds, (bad, 0.5, 0.5))


class TestColumnArrays:
    def test_match_the_samples_for_every_split(self, two_scenes):
        ds = split_dataset(build_dataset(two_scenes, ["a", "b"]), seed=3)
        for split in (None, "train", "val", "test"):
            rows = [i for i, lab in enumerate(ds.split)
                    if split is None or lab == split]
            np.testing.assert_array_equal(ds.feature_matrix(split), ds.X[rows])
            np.testing.assert_array_equal(ds.targets(split), ds.y[rows])
        assert ds.feature_matrix("other").size == 0

    def test_columns_are_read_only_copies(self):
        X = np.arange(12.0).reshape(4, 3)
        y = np.arange(4.0)
        ds = Dataset(X=X, y=y, scenario_id=["a"] * 4, route_index=range(4),
                     catalog=catalog_for(3))
        for name in ("X", "y", "scenario_id", "route_index"):
            with pytest.raises(ValueError):
                getattr(ds, name)[0] = getattr(ds, name)[1]
        with pytest.raises(ValueError):
            ds.feature_matrix()[0, 0] = 1.0
        X[0, 0] = y[0] = 1e9  # the dataset holds copies of its inputs
        assert ds.X[0, 0] == 0.0 and ds.y[0] == 0.0
        ds = split_dataset(ds, (0.5, 0.25, 0.25))
        train = ds.feature_matrix("train")
        train[0, 0] = 1e9  # a split's rows are a copy
        assert ds.feature_matrix("train")[0, 0] != 1e9

    def test_replaced_dataset_builds_its_own(self, two_scenes):
        ds = split_dataset(build_dataset(two_scenes, ["a", "b"]), seed=3)
        ds.derived["key"] = "value"
        other = split_dataset(replace(ds, X=ds.X * 2, y=ds.y + 1.0), seed=4)
        np.testing.assert_array_equal(other.targets(), ds.targets() + 1.0)
        np.testing.assert_array_equal(other.feature_matrix(),
                                      ds.feature_matrix() * 2)
        assert (other.route_index[other.rows("val")].tolist()
                != ds.route_index[ds.rows("val")].tolist())
        assert other.derived == {}

    def test_no_split_assigned(self, two_scenes):
        ds = build_dataset(two_scenes, ["a", "b"])
        with pytest.raises(DatasetError, match="no split"):
            ds.feature_matrix("train")


class TestFeatureWidth:
    def test_width_must_match_catalog(self):
        ds = make_planted_dataset(n_features=12, n_samples=30)
        with pytest.raises(DatasetError,
                           match="12 features but the catalog has 10"):
            Dataset(X=ds.X, y=ds.y, scenario_id=ds.scenario_id,
                    route_index=ds.route_index)

    def test_every_sample_is_checked(self):
        rows = sample_rows(make_planted_dataset(n_samples=30))
        short = replace(rows[17], features=rows[17].features[:9])
        with pytest.raises(DatasetError, match="column X"):
            Dataset(samples=rows[:17] + [short] + rows[18:])

    def test_replace_checks_a_new_catalog(self):
        ds = make_planted_dataset(n_features=24, n_samples=30)
        assert ds.n_features == 24
        with pytest.raises(DatasetError, match="24 features"):
            replace(ds, catalog=make_planted_dataset(n_samples=30).catalog)


class TestValidation:
    def test_columns_of_unequal_length(self):
        ds = make_planted_dataset(n_samples=30)
        for name in ("y", "scenario_id", "route_index"):
            with pytest.raises(DatasetError, match="shapes"):
                replace(ds, **{name: getattr(ds, name)[:-1]})
        with pytest.raises(DatasetError, match="shapes"):
            replace(ds, X=ds.X[:-1])

    def test_features_must_be_a_matrix(self):
        with pytest.raises(DatasetError, match="shapes"):
            Dataset(X=np.zeros(10), y=[0.0], scenario_id=["a"],
                    route_index=[0])
        with pytest.raises(DatasetError, match="column X"):
            Dataset(X=[[1.0] * 10, [1.0] * 9], y=[0.0, 0.0],
                    scenario_id=["a", "a"], route_index=[0, 1])

    def test_unknown_split_label(self):
        with pytest.raises(DatasetError, match="holdout"):
            make_manual_dataset([[1.0], [2.0]], [0, 0], ["train", "holdout"])

    def test_split_length_must_match(self):
        with pytest.raises(DatasetError, match="split length"):
            make_manual_dataset([[1.0], [2.0]], [0, 0], ["train"])

    def test_standardize_needs_a_train_row(self):
        ds = make_manual_dataset([[1.0], [2.0]], [0, 0], ["val", "test"])
        with pytest.raises(DatasetError, match="empty train split"):
            standardize(ds)

    def test_destandardize_needs_a_standardized_dataset(self):
        ds = make_manual_dataset([[1.0], [2.0]], [0, 0], ["train", "val"])
        with pytest.raises(DatasetError, match="not standardized"):
            destandardize_features(ds, [1.0])


def sample_rows(ds):
    """ds as Sample rows, the input of Dataset(samples=...)."""
    return [
        Sample(features=ds.X[i], path_loss=float(ds.y[i]),
               route_index=int(ds.route_index[i]),
               scenario_id=str(ds.scenario_id[i]))
        for i in range(len(ds))
    ]


class TestSampleAdapter:
    def test_same_columns_splits_and_scores(self):
        rng = np.random.default_rng(11)
        n = 150
        columnar = Dataset(
            X=rng.normal(size=(n, 10)),
            y=rng.normal(size=n),
            scenario_id=np.array(["b", "a", "c"])[rng.integers(0, 3, n)],
            route_index=rng.permutation(n),
        )
        adapted = Dataset(samples=sample_rows(columnar))
        for name in COLUMNS:
            a, b = getattr(adapted, name), getattr(columnar, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        adapted, columnar = (standardize(split_dataset(ds, seed=5))
                             for ds in (adapted, columnar))
        np.testing.assert_array_equal(adapted.split, columnar.split)
        masks = [m for m in itertools.product((0, 1), repeat=10) if any(m)]
        assert (evaluate_masks(masks[::9], adapted)
                == evaluate_masks(masks[::9], columnar))


def reference_split_labels(scenario_ids, fractions, seed):
    """split_dataset's labels assigned one row at a time: each position
    of a scenario's permutation is placed among the cumulative split
    counts by np.searchsorted."""
    labels = [None] * len(scenario_ids)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    for sid in dict.fromkeys(scenario_ids):
        idx = [i for i, s in enumerate(scenario_ids) if s == sid]
        counts = _stratified_counts(len(idx), fractions)
        if any(c == 0 for c in counts):
            raise DatasetError(f"scenario {sid!r} too small")
        perm = rng.permutation(len(idx))
        boundaries = np.cumsum(counts)
        for pos, j in enumerate(perm):
            split_idx = int(np.searchsorted(boundaries, pos, side="right"))
            labels[idx[j]] = SPLITS[split_idx]
    return tuple(labels)


class TestSplitLabels:
    @pytest.fixture(scope="class")
    def labelled(self, two_scenes):
        built = build_dataset(two_scenes, ["a", "b"])
        split = split_dataset(built, seed=3)
        picked = select_scenarios(split, ["b"])
        return {
            "split_dataset": split,
            "standardize": standardize(split),
            "select_scenarios": split_dataset(picked, seed=1),
            "samples": Dataset(samples=sample_rows(built), split=split.split),
        }

    @pytest.mark.parametrize("source", ["split_dataset", "standardize",
                                        "select_scenarios", "samples"])
    def test_rows_compare_against_the_labels(self, labelled, source):
        ds = labelled[source]
        assert isinstance(ds.split, np.ndarray)
        assert ds.split.dtype.kind == "U" and ds.split.shape == (len(ds),)
        assert set(ds.split.tolist()) == set(SPLITS)
        for name in SPLITS + ("other",):
            rows = ds.rows(name)
            assert rows.dtype == bool
            np.testing.assert_array_equal(
                rows, [label == name for label in ds.split.tolist()])

    def test_labels_are_read_only(self, labelled):
        ds = labelled["split_dataset"]
        with pytest.raises(ValueError):
            ds.split[0] = "val"
        assert not ds.split.flags.writeable
        unsplit = Dataset(X=np.zeros((1, 10)), y=[0.0], scenario_id=["a"],
                          route_index=[0])
        assert unsplit.split is None

    def test_labels_are_a_copy(self, labelled):
        # The labels passed in, as a list or as an array, are copied.
        ds = labelled["split_dataset"]
        for split in (ds.split.copy(), ds.split.tolist()):
            copied = replace(ds, split=split)
            split[0] = "val" if split[0] == "test" else "test"
            np.testing.assert_array_equal(copied.split, ds.split)
        assert not np.shares_memory(labelled["samples"].split, ds.split)

    @pytest.mark.parametrize("split, message", [
        (["train"], "split length mismatch"),
        (["train", "val", "test"], "split length mismatch"),
        (["train", "holdout"],
         "split labels ['holdout'] are not in ('train', 'val', 'test')"),
        (["test", 1], "split labels ['1'] are not in ('train', 'val', 'test')"),
        ([None, "Train"], "split labels ['None', 'Train'] are not in "
         "('train', 'val', 'test')"),
    ])
    def test_bad_split_refused(self, split, message):
        with pytest.raises(DatasetError) as exc:
            make_manual_dataset([[1.0], [2.0]], [0, 0], split)
        assert str(exc.value) == message

    def test_ragged_split_refused(self):
        # numpy's own words for a ragged sequence differ between versions.
        with pytest.raises(DatasetError, match="split"):
            Dataset(X=np.zeros((2, 10)), y=[0, 0], scenario_id=["a", "a"],
                    route_index=[0, 1], split=[["train"], "val"])


class TestSplitOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4),
        weights=st.tuples(*[st.floats(0.02, 1.0)] * 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_labels_match_per_row_reference(self, sizes, weights, seed, data):
        ids = np.repeat([f"s{k}" for k in range(len(sizes))], sizes)
        ids = ids[data.draw(st.permutations(range(len(ids))))].tolist()
        fractions = tuple(w / sum(weights) for w in weights)
        ds = Dataset(X=np.zeros((len(ids), 1)), y=np.zeros(len(ids)),
                     scenario_id=ids, route_index=range(len(ids)),
                     catalog=catalog_for(1))
        try:
            want = reference_split_labels(ids, fractions, seed)
        except DatasetError as exc:
            sid = str(exc).split("'")[1]
            with pytest.raises(DatasetError, match=f"'{sid}' too small"):
                split_dataset(ds, fractions, seed)
            return
        np.testing.assert_array_equal(split_dataset(ds, fractions, seed).split,
                                      want)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60),
           scale=st.floats(1e-3, 1e6), data=st.data())
    def test_standardize_matches_row_by_row(self, seed, n, scale, data):
        rng = np.random.default_rng(seed)
        X = (rng.normal(size=(n, 4)) + rng.normal(size=4)) * scale
        X[:, 2] = 7.0
        labels = ["train"] + data.draw(
            st.lists(st.sampled_from(SPLITS), min_size=n - 1,
                     max_size=n - 1))
        ds = make_manual_dataset(X, np.zeros(n), labels)
        out = standardize(ds)
        mean, std = out.standardization
        train = X[np.array(labels) == "train"]
        assert mean.tobytes() == train.mean(axis=0).tobytes()
        assert std[2] == 1.0 and out.constant_features[2]
        want = np.array([(x - mean) / std for x in X])
        assert out.X.tobytes() == want.tobytes()


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

    def test_standardization_is_read_only(self, two_scenes):
        # destandardize_features reads both arrays.
        out = standardize(split_dataset(build_dataset(two_scenes, ["a", "b"]),
                                        seed=1))
        for array in out.standardization:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_round_trip(self, two_scenes):
        ds = split_dataset(build_dataset(two_scenes, ["a", "b"]), seed=1)
        out = standardize(ds)
        back = destandardize_features(out, out.X)
        assert np.allclose(back, ds.X, atol=1e-12)

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


# Numbers whose 9-digit form is easy to get wrong: signed zeros,
# subnormals, ties at the ninth digit (exact 10-digit decimals ending in
# 5) and magnitudes near the ends of the float range.
CSV_NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072e-308,
                     1e300, -1e300, 1.7976931348623157e308]),
    st.integers(10 ** 8, 10 ** 9 - 1).map(lambda n: float(10 * n + 5)),
    st.integers(10 ** 8, 2 * 10 ** 8 - 1).map(lambda n: -(10 * n + 5) / 2),
)
# NUL is left out: numpy string columns drop trailing NULs.
CSV_IDS = st.text(st.sampled_from(',"\r\n a\xe9\u5b57\U0001f600')
                  | st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\x00"),
                  max_size=5)


@st.composite
def csv_datasets(draw):
    ids = draw(st.lists(CSV_IDS, min_size=1, max_size=3, unique=True))
    # Small route indices repeat often, as read_csv refuses.
    route = st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(0, 2)
    rows = draw(st.lists(st.tuples(
        st.sampled_from(ids), route,
        st.lists(CSV_NUMBERS, min_size=11, max_size=11)), max_size=8))
    values = np.array([row[2] for row in rows], dtype=float).reshape(-1, 11)
    return Dataset(X=values[:, :10], y=values[:, 10],
                   scenario_id=np.array([row[0] for row in rows], dtype=str),
                   route_index=[row[1] for row in rows])


class TestCsv:
    @settings(max_examples=100, deadline=None)
    @given(ds=csv_datasets())
    @example(ds=Dataset(X=np.zeros((2, 10)), y=np.zeros(2),
                        scenario_id=["a", "a"], route_index=[0, 0]))
    @example(ds=Dataset(X=np.zeros((2, 10)), y=[0.0, np.nan],
                        scenario_id=["a", "a"], route_index=[0, 0]))
    def test_bytes_match_csv_writer(self, tmp_path_factory, ds):
        """write_csv writes what csv.writer writes for each row's fields,
        its numbers formatted by format_number, in (id, route) order, and
        read_csv reads it back. Or it refuses the first row in that order
        that read_csv would refuse: one with a non-finite number or with
        the (id, route) of the row before it."""
        path = tmp_path_factory.getbasetemp() / "written.csv"
        ref = tmp_path_factory.getbasetemp() / "reference.csv"
        ids = ds.scenario_id.tolist()
        routes = ds.route_index.tolist()
        values = np.column_stack([ds.X, ds.y]).tolist()
        order = sorted(range(len(ds)), key=lambda i: (ids[i], routes[i]))
        for k, i in enumerate(order):
            if not np.isfinite(values[i]).all():
                fault = "non-finite feature or path loss"
            elif k and (ids[i], routes[i]) == (ids[order[k - 1]],
                                               routes[order[k - 1]]):
                fault = "repeats the row before it"
            else:
                continue
            with pytest.raises(DatasetError) as exc:
                write_csv(ds, path)
            assert str(exc.value) == (
                f"scenario {ids[i]!r}, route index {routes[i]}: {fault}")
            return
        write_csv(ds, path)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for i in order:
                writer.writerow([ids[i], routes[i]]
                                + [format_number(v) for v in values[i]])
        assert path.read_bytes() == ref.read_bytes()
        assert all(format_number(v) == f"{v:.9g}" for row in values
                   for v in row)
        back = read_csv(path)
        assert (back.scenario_id.tolist(), back.route_index.tolist()) == (
            [ids[i] for i in order], [routes[i] for i in order])

    def test_round_trip(self, two_scenes, tmp_path):
        ds = build_dataset(two_scenes, ["a", "b"])
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert len(back) == len(ds)
        np.testing.assert_array_equal(back.scenario_id, ds.scenario_id)
        np.testing.assert_array_equal(back.route_index, ds.route_index)
        # 9 significant digits survive the round trip
        assert np.allclose(back.X, ds.X, rtol=1e-8, atol=1e-8)
        assert np.allclose(back.y, ds.y, rtol=1e-8, atol=1e-8)

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

    def test_write_refuses_a_catalog_of_another_width(self, tmp_path):
        path = tmp_path / "wide.csv"
        with pytest.raises(DatasetError, match="holds 10 features, but the "
                           "dataset has 12"):
            write_csv(make_planted_dataset(n_features=12, n_samples=30), path)
        assert not path.exists()

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
            ("a,x,1,2,nan,4,5,6,7,8,9,10,11", "invalid literal for int()"),
            ("a,99999999999999999999,1,2,3,4,5,6,7,8,9,10,11",
             "route index 99999999999999999999 does not fit in int64"),
            ("a,-9223372036854775809,1,2,3,4,5,6,7,8,9,10,11",
             "route index -9223372036854775809 does not fit in int64"),
            ("a,0,1,2,3,4,5,6,7,8,9,10,11",
             "scenario 'a', route index 0 repeats line 2"),
        ],
        ids=["truncated", "overlong", "nan_feature", "inf_path_loss",
             "not_a_number", "oversized_field", "bad_route_index",
             "route_index_above_int64", "route_index_below_int64",
             "repeated_route_point"],
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

    def test_route_index_at_the_int64_limits_loads(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\n".join(
            [",".join(CSV_HEADER)]
            + [f"a,{i}," + ",".join(["1.5"] * 11)
               for i in (-2**63, 2**63 - 1)]) + "\n")
        assert read_csv(path).route_index.tolist() == [-2**63, 2**63 - 1]

    @pytest.mark.parametrize("first", ["a,0,1,2,nan,4,5,6,7,8,9,10,11",
                                       "a,0,1,2,3,4,5,6,7,8,9,10,loud",
                                       "a,x,1,2,3,4,5,6,7,8,9,10,11",
                                       "a,0,1,2,3"])
    @pytest.mark.parametrize("later", ["a,0,1,2,3,4,5,6,7,8,9,10,inf",
                                       "a,0,1,2,3,4,5,6,7,8,9,10,soft",
                                       "a,0,1,2", "a,0," + "1" * 200_000])
    def test_first_bad_row_is_named(self, tmp_path, first, later):
        path = tmp_path / "data.csv"
        good = "a,0," + ",".join(["1.5"] * 11)
        path.write_text("\n".join([",".join(CSV_HEADER), good, first, good,
                                   later, ""]))
        with pytest.raises(DatasetError, match=f"{path}, line 3: "):
            read_csv(path)

    @pytest.mark.parametrize("line", [1, 2, 401])
    def test_non_utf8_byte_names_its_line(self, tmp_path, line):
        path = tmp_path / "data.csv"
        rows = [",".join(CSV_HEADER).encode()] + [
            f"a,{i},".encode() + b",".join([b"1.5"] * 11) for i in range(500)]
        rows[line - 1] = rows[line - 1][:5] + b"\xff" + rows[line - 1][5:]
        path.write_bytes(b"\r\n".join(rows) + b"\r\n")
        with pytest.raises(DatasetError) as exc:
            read_csv(path)
        assert str(exc.value).startswith(
            f"{path}, line {line}: 'utf-8' codec can't decode byte 0xff")

    def test_fault_before_a_non_utf8_byte_is_named_first(self, tmp_path):
        path = tmp_path / "data.csv"
        good = "a,0," + ",".join(["1.5"] * 11)
        path.write_bytes("\n".join([",".join(CSV_HEADER), good, "a,0,1,2",
                                    good]).encode() + b"\xff\n")
        with pytest.raises(DatasetError, match=f"{path}, line 3: expected "):
            read_csv(path)

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
        assert np.isfinite(ds.X).all() and np.isfinite(ds.y).all()
