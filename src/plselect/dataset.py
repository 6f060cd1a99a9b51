"""Dataset columns, stratified splits, standardization, and CSV persistence.

A Dataset holds one row per route point as read-only columns: the
feature matrix X, the path loss y, and each row's scenario id and route
index. Route order within a scenario is preserved because the
trend-consistency metric differentiates consecutive route points.
"""

from __future__ import annotations

import csv
import io
from dataclasses import InitVar, dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .scenario import (
    DEFAULT_CORRIDOR_RADIUS,
    DEFAULT_SHADOWING_SIGMA,
    FEATURE_SYMBOLS,
    FeatureCatalog,
    Scene,
    scene_features_and_path_loss,
)

SPLITS = ("train", "val", "test")

# The fraction of each scenario's rows in each split, in SPLITS order.
DEFAULT_SPLIT_FRACTIONS = (0.7, 0.15, 0.15)

CSV_HEADER = ["scenario_id", "route_index"] + [
    f"f{i}" for i in range(1, len(FEATURE_SYMBOLS) + 1)
] + ["path_loss"]

# Each column of a Dataset with its dtype.
COLUMNS = {"X": float, "y": float, "scenario_id": str, "route_index": int}


class DatasetError(ValueError):
    """Raised for malformed dataset construction or split requests."""


@dataclass(frozen=True)
class Sample:
    """One row, for building a Dataset with Dataset(samples=...)."""

    features: np.ndarray  # length-N feature vector
    path_loss: float  # dB
    route_index: int
    scenario_id: str


@dataclass(frozen=True, eq=False)
class Dataset:
    """Read-only columns with an optional split and standardization.

    Built from the columns X (n x N), y, scenario_id and route_index, or
    from a sequence of Sample rows passed as samples, which replaces
    them. split, once assigned, is a read-only str array of one label in
    SPLITS per row, copied from the sequence given, which rows compares
    against. standardization holds per-feature (mean, std) fitted on the
    train split, both read-only; constant_features flags columns whose
    train std was zero (std stored as 1 so the transform stays
    invertible). derived holds what other modules compute from the contents,
    by their keys: normal equations, and the harness's prepared datasets on
    the pooled one; dataclasses.replace starts it empty.
    """

    X: np.ndarray = None
    y: np.ndarray = None  # path loss, dB
    scenario_id: np.ndarray = None
    route_index: np.ndarray = None
    catalog: FeatureCatalog = field(default_factory=FeatureCatalog)
    split: Optional[np.ndarray] = None
    standardization: Optional[tuple] = None  # (mean array, std array)
    constant_features: Optional[tuple] = None  # per-feature bool flags
    samples: InitVar[Optional[Sequence[Sample]]] = None
    derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self, samples):
        for name, dtype in COLUMNS.items():
            values = getattr(self, name)
            if samples is not None:
                attr = {"X": "features", "y": "path_loss"}.get(name, name)
                values = [getattr(s, attr) for s in samples]
            try:
                column = np.array(values, dtype=dtype, order="C")
            except (TypeError, ValueError, OverflowError) as exc:
                raise DatasetError(f"column {name}: {exc}") from None
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        shapes = {name: getattr(self, name).shape for name in COLUMNS}
        if ([len(s) for s in shapes.values()] != [2, 1, 1, 1]
                or len({s[0] for s in shapes.values()}) != 1):
            raise DatasetError("expected X of n rows and y, scenario_id and "
                               f"route_index of length n, got shapes {shapes}")
        if self.X.shape[1] != self.catalog.n_features:
            raise DatasetError(f"X has {self.X.shape[1]} features but the "
                               f"catalog has {self.catalog.n_features}")
        if self.split is not None:
            try:
                labels = np.array(self.split, dtype=str)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DatasetError(f"split: {exc}") from None
            if labels.shape != (len(self),):
                raise DatasetError("split length mismatch")
            unknown = set(labels[~np.isin(labels, SPLITS)].tolist())
            if unknown:
                raise DatasetError(f"split labels {sorted(unknown)} "
                                   f"are not in {SPLITS}")
            labels.flags.writeable = False
            object.__setattr__(self, "split", labels)

    def __len__(self) -> int:
        return len(self.y)

    @property
    def n_features(self) -> int:
        return self.catalog.n_features

    def scenario_ids(self) -> list:
        """The scenario ids in order of first appearance."""
        names, first = np.unique(self.scenario_id, return_index=True)
        return names[np.argsort(first)].tolist()

    def rows(self, split: Optional[str] = None):
        """A selector of the rows of one split, or of every row for None."""
        if split is None:
            return slice(None)
        if self.split is None:
            raise DatasetError("dataset has no split assigned")
        return self.split == split

    def feature_matrix(self, split: Optional[str] = None) -> np.ndarray:
        return self.X[self.rows(split)]

    def targets(self, split: Optional[str] = None) -> np.ndarray:
        return self.y[self.rows(split)]


def build_dataset(
    scenes: Sequence[Scene],
    scenario_ids: Sequence[str],
    shadowing_sigma: float = DEFAULT_SHADOWING_SIGMA,
    corridor_radius: float = DEFAULT_CORRIDOR_RADIUS,
) -> Dataset:
    """One row per route point per scene, in route order, the scenes
    pooled in turn under distinct scenario ids (no split carried)."""
    if len(scenes) != len(scenario_ids):
        raise DatasetError("one scenario id per scene required")
    if len(set(scenario_ids)) != len(scenario_ids):
        raise DatasetError("duplicate scenario_id across pooled scenes")
    Xs, ys = zip(*(scene_features_and_path_loss(
        scene, shadowing_sigma=shadowing_sigma,
        corridor_radius=corridor_radius) for scene in scenes))
    return Dataset(
        X=np.concatenate(Xs),
        y=np.concatenate(ys),
        scenario_id=np.repeat(scenario_ids, [len(y) for y in ys]),
        route_index=np.concatenate([np.arange(len(y)) for y in ys]),
    )


def select_scenarios(ds: Dataset, names: Sequence[str]) -> Dataset:
    """The rows of the named scenarios, in their order in ds (no split
    carried)."""
    keep = np.isin(ds.scenario_id, list(names))
    return Dataset(**{name: getattr(ds, name)[keep] for name in COLUMNS},
                   catalog=ds.catalog)


def _stratified_counts(n: int, fractions: Tuple[float, float, float]) -> list:
    """Largest-remainder apportionment of n samples over three splits."""
    raw = [n * f for f in fractions]
    counts = [int(np.floor(r)) for r in raw]
    remainder = n - sum(counts)
    order = sorted(range(3), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def check_split_fractions(fractions: Sequence[float]) -> None:
    """Raise DatasetError unless fractions holds one finite, positive
    fraction per split, summing to 1."""
    if len(fractions) != len(SPLITS):
        raise DatasetError(
            f"expected {len(SPLITS)} split fractions, got {len(fractions)}"
        )
    if not all(0 < f < np.inf for f in fractions):
        raise DatasetError("fractions must be finite and positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DatasetError("fractions must sum to 1")


def split_dataset(
    ds: Dataset,
    fractions: Tuple[float, float, float] = DEFAULT_SPLIT_FRACTIONS,
    seed: int = 0,
) -> Dataset:
    """Assign train/val/test labels, stratified by scenario_id: each
    scenario, in order of first appearance, draws one permutation of its
    rows, whose first positions go to train, the next to val and the rest
    to test."""
    check_split_fractions(fractions)
    labels = np.empty(len(ds), dtype=np.asarray(SPLITS).dtype)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    for sid in ds.scenario_ids():
        idx = np.flatnonzero(ds.scenario_id == sid)
        counts = _stratified_counts(len(idx), fractions)
        if any(c == 0 for c in counts):
            raise DatasetError(
                f"scenario {sid!r} too small to populate all three splits"
            )
        perm = rng.permutation(len(idx))
        labels[idx[perm]] = np.repeat(SPLITS, counts)
    return replace(ds, split=labels)


def standardize(ds: Dataset) -> Dataset:
    """Per-feature standardization fitted on the train split only.

    Population (1/n) std. Constant train columns keep their mean but get
    std 1 and are flagged; a non-finite mean or std raises DatasetError.
    """
    if ds.split is None:
        raise DatasetError("split must be assigned before standardization")
    train = ds.feature_matrix("train")
    if train.shape[0] == 0:
        raise DatasetError("empty train split")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.mean(axis=0)
        std = train.std(axis=0)  # population convention
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        raise DatasetError("train mean or std is not finite for " + ", ".join(
            f"f{j + 1} ({ds.catalog.symbols[j]})" for j in bad))
    constant = std == 0.0
    std = np.where(constant, 1.0, std)
    mean.flags.writeable = std.flags.writeable = False
    return replace(
        ds,
        X=(ds.X - mean) / std,
        standardization=(mean, std),
        constant_features=tuple(constant.tolist()),
    )


def destandardize_features(ds: Dataset, features: np.ndarray) -> np.ndarray:
    if ds.standardization is None:
        raise DatasetError("dataset is not standardized")
    mean, std = ds.standardization
    return np.asarray(features) * std + mean


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

_NUMBER_FORMAT = "%.9g"


def format_number(value: float) -> str:
    """A number as every CSV of plselect writes it: 9 significant
    digits."""
    return _NUMBER_FORMAT % value


def check_rows(ds: Dataset, source: Optional[str] = None) -> np.ndarray:
    """The row order of write_csv's file. Raises DatasetError naming the
    first row in it with a non-finite feature or path loss or with the
    (scenario id, route index) of the row before it, both of which
    read_csv refuses: by its route index and its source, by default its
    scenario id."""
    order = np.lexsort((ds.route_index, ds.scenario_id))
    ids, routes = ds.scenario_id[order], ds.route_index[order]
    finite = np.isfinite(np.column_stack([ds.X, ds.y])[order]).all(axis=1)
    bad = ~finite
    bad[1:] |= (ids[1:] == ids[:-1]) & (routes[1:] == routes[:-1])
    if bad.any():
        k = np.argmax(bad)
        source = source or f"scenario {str(ids[k])!r}"
        raise DatasetError(f"{source}, route index {routes[k]}: " + (
            "non-finite feature or path loss" if not finite[k]
            else "repeats the row before it"))
    return order


def write_csv(ds: Dataset, path) -> list:
    """Rows ordered by scenario then route_index, 9 significant digits.
    CSV_HEADER names the default catalog's features, so a dataset of
    another width raises DatasetError before anything is written, as
    does a non-finite value or a repeated route point (check_rows).
    Returns the data lines written, for write_csv_lines."""
    width = len(CSV_HEADER) - 3
    if ds.n_features != width:
        raise DatasetError(f"the CSV format holds {width} features, but the "
                           f"dataset has {ds.n_features}")
    order = check_rows(ds)
    values = np.column_stack([ds.X, ds.y])[order]
    ids = ds.scenario_id[order].tolist()
    routes = ds.route_index[order].tolist()
    # Each id is quoted once, as csv.writer quotes it in a row of two
    # fields: alone, an empty field would be quoted.
    quoted = {}
    for sid in dict.fromkeys(ids):
        csv.writer(buf := io.StringIO()).writerow([sid, ""])
        quoted[sid] = buf.getvalue()[:-len(",\r\n")]
    row_format = ",".join(["%s,%d"] + [_NUMBER_FORMAT] * (width + 1)) + "\r\n"
    lines = [row_format % (quoted[sid], route, *row) for sid, route, row
             in zip(ids, routes, values.tolist())]
    write_csv_lines(path, lines)
    return lines


def write_csv_lines(path, lines) -> None:
    """The CSV header, then data lines as write_csv returns them. The
    lines of distinct scenarios, in scenario-id order, make the file that
    write_csv writes for their pooled rows."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(CSV_HEADER)
        fh.writelines(lines)


def read_csv(path) -> Dataset:
    """Inverse of write_csv. The first row with the wrong number of
    fields, an unparsable number, a route index beyond int64, a
    non-finite value, the (scenario id, route index) of an earlier row, a
    field the csv module refuses or a byte that is not UTF-8 raises
    DatasetError naming the file and line."""
    width = len(CSV_HEADER)
    int64 = np.iinfo(np.int64)
    values, route_index, ids, lines, failure = [], [], [], [], None
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        # The lines before the byte's are read, so that a fault in them is
        # reported instead.
        text = raw[:raw.rfind(b"\n", 0, exc.start) + 1].decode()
        failure = (raw.count(b"\n", 0, exc.start) + 1, exc)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        # A header line that does not decode is reported as such.
        if next(reader, CSV_HEADER if failure else None) != CSV_HEADER:
            raise DatasetError(f"unexpected CSV header in {path}")
        for row in reader:
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            values.append([float(v) for v in row[2:]])
            route_index.append(int(row[1]))
            if not int64.min <= route_index[-1] <= int64.max:
                raise ValueError(f"route index {row[1]} does not fit in int64")
            ids.append(row[0])
            lines.append(reader.line_num)
    except DatasetError:
        raise
    except (csv.Error, ValueError) as exc:
        failure = (reader.line_num, exc)
    # Finiteness and repeats are checked once, over the rows read before
    # any failure: row first[k] is the first with row k's route point.
    values = np.array(values[:len(ids)], dtype=float).reshape(-1, width - 2)
    seen = {}
    first = [seen.setdefault(point, k)
             for k, point in enumerate(zip(ids, route_index))]
    finite = np.isfinite(values).all(axis=1)
    bad = ~finite | (np.array(first, dtype=np.intp) != np.arange(len(ids)))
    if bad.any():
        k = np.argmax(bad)
        failure = (lines[k], "non-finite feature or path loss" if not finite[k]
                   else f"scenario {ids[k]!r}, route index {route_index[k]} "
                   f"repeats line {lines[first[k]]}")
    if failure is not None:
        raise DatasetError(f"{path}, line {failure[0]}: {failure[1]}")
    return Dataset(X=values[:, :-1], y=values[:, -1], scenario_id=ids,
                   route_index=route_index)
