"""Sample assembly, split management, standardization, and CSV persistence.

A Dataset is an ordered collection of (feature vector, path loss) samples
tagged by scenario id and route index. Route order within a scenario is
preserved because the trend-consistency metric differentiates consecutive
route points.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .scenario import (
    DEFAULT_CORRIDOR_RADIUS,
    DEFAULT_SHADOWING_SIGMA,
    FEATURE_SYMBOLS,
    FeatureCatalog,
    Scene,
    scene_features_and_path_loss,
)

# The per-point scalar reference stays importable from this module, where
# perfbench/tracing.py looks up the names it traces; build_dataset no
# longer calls it.
from .scenario import extract_features, ground_truth_path_loss  # noqa: F401

SPLITS = ("train", "val", "test")

CSV_HEADER = ["scenario_id", "route_index"] + [
    f"f{i}" for i in range(1, len(FEATURE_SYMBOLS) + 1)
] + ["path_loss"]


class DatasetError(ValueError):
    """Raised for malformed dataset construction or split requests."""


@dataclass(frozen=True)
class Sample:
    features: np.ndarray  # length-N feature vector
    path_loss: float  # dB
    route_index: int
    scenario_id: str


@dataclass(frozen=True)
class Dataset:
    """Immutable sample collection with optional split and standardization.

    standardization holds per-feature (mean, std) fitted on the train split;
    constant_features flags columns whose train std was zero (std stored
    as 1 so the transform stays invertible).
    """

    samples: tuple
    catalog: FeatureCatalog = field(default_factory=FeatureCatalog)
    split: Optional[tuple] = None  # per-sample label in SPLITS
    standardization: Optional[tuple] = None  # (mean array, std array)
    constant_features: Optional[tuple] = None  # per-feature bool flags

    def __post_init__(self):
        if self.split is not None and len(self.split) != len(self.samples):
            raise DatasetError("split length mismatch")
        n = self.catalog.n_features
        for s in self.samples:
            if len(s.features) != n:
                raise DatasetError(
                    f"sample has {len(s.features)} features but the catalog "
                    f"has {n}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def n_features(self) -> int:
        return self.catalog.n_features

    def scenario_ids(self) -> list:
        seen = []
        for s in self.samples:
            if s.scenario_id not in seen:
                seen.append(s.scenario_id)
        return seen

    def feature_matrix(self, split: Optional[str] = None) -> np.ndarray:
        return self._features[self._split_indices(split)]

    def targets(self, split: Optional[str] = None) -> np.ndarray:
        return self._path_loss[self._split_indices(split)]

    def split_samples(self, split: str) -> list:
        return [self.samples[i] for i in self._split_indices(split)]

    # The arrays below are built on first use and kept on the instance
    # read-only; dataclasses.replace makes a new instance, which builds
    # its own.

    @cached_property
    def _features(self) -> np.ndarray:
        return _read_only(
            np.array([s.features for s in self.samples], dtype=float))

    @cached_property
    def _path_loss(self) -> np.ndarray:
        return _read_only(
            np.array([s.path_loss for s in self.samples], dtype=float))

    @cached_property
    def _split_index(self) -> dict:
        labels = np.array(self.split)
        return {lab: _read_only(np.flatnonzero(labels == lab))
                for lab in dict.fromkeys(self.split)}

    @cached_property
    def derived(self) -> dict:
        """Values computed from this dataset's contents by other modules,
        such as a learner's normal equations, by a key of theirs."""
        return {}

    def _split_indices(self, split: Optional[str]):
        if split is None:
            return slice(None)
        if self.split is None:
            raise DatasetError("dataset has no split assigned")
        return self._split_index.get(split, np.empty(0, dtype=int))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def build_dataset(
    scenes: Sequence[Scene],
    scenario_ids: Sequence[str],
    shadowing_sigma: float = DEFAULT_SHADOWING_SIGMA,
    corridor_radius: float = DEFAULT_CORRIDOR_RADIUS,
) -> Dataset:
    """One sample per route point per scene, in route order."""
    if len(scenes) != len(scenario_ids):
        raise DatasetError("one scenario id per scene required")
    if len(set(scenario_ids)) != len(scenario_ids):
        raise DatasetError("duplicate scenario_id")
    samples = []
    for scene, sid in zip(scenes, scenario_ids):
        features, path_loss = scene_features_and_path_loss(
            scene,
            shadowing_sigma=shadowing_sigma,
            corridor_radius=corridor_radius,
        )
        samples.extend(
            Sample(
                features=features[i],
                path_loss=float(path_loss[i]),
                route_index=i,
                scenario_id=sid,
            )
            for i in range(scene.n_route_points)
        )
    return Dataset(samples=tuple(samples))


def concat_datasets(datasets: Sequence[Dataset]) -> Dataset:
    """Pool several single-scenario datasets into one (no split carried)."""
    all_ids = [sid for ds in datasets for sid in ds.scenario_ids()]
    if len(set(all_ids)) != len(all_ids):
        raise DatasetError("duplicate scenario_id across pooled datasets")
    samples = tuple(s for ds in datasets for s in ds.samples)
    return Dataset(samples=samples, catalog=datasets[0].catalog)


def _stratified_counts(n: int, fractions: Tuple[float, float, float]) -> list:
    """Largest-remainder apportionment of n samples over three splits."""
    raw = [n * f for f in fractions]
    counts = [int(np.floor(r)) for r in raw]
    remainder = n - sum(counts)
    order = sorted(range(3), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def split_dataset(
    ds: Dataset,
    fractions: Tuple[float, float, float] = (0.7, 0.15, 0.15),
    seed: int = 0,
) -> Dataset:
    """Assign train/val/test labels, stratified by scenario_id."""
    if len(fractions) != len(SPLITS):
        raise DatasetError(
            f"expected {len(SPLITS)} split fractions, got {len(fractions)}"
        )
    if any(f <= 0 for f in fractions):
        raise DatasetError("fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DatasetError("fractions must sum to 1")
    labels = [None] * len(ds.samples)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    for sid in ds.scenario_ids():
        idx = [i for i, s in enumerate(ds.samples) if s.scenario_id == sid]
        counts = _stratified_counts(len(idx), fractions)
        if any(c == 0 for c in counts):
            raise DatasetError(
                f"scenario {sid!r} too small to populate all three splits"
            )
        perm = rng.permutation(len(idx))
        boundaries = np.cumsum(counts)
        for pos, j in enumerate(perm):
            split_idx = int(np.searchsorted(boundaries, pos, side="right"))
            labels[idx[j]] = SPLITS[split_idx]
    return replace(ds, split=tuple(labels))


def standardize(ds: Dataset) -> Dataset:
    """Per-feature standardization fitted on the train split only.

    Uses the population (1/n) standard deviation. Constant train columns
    keep their mean but get std 1 and are flagged.
    """
    if ds.split is None:
        raise DatasetError("split must be assigned before standardization")
    train = ds.feature_matrix("train")
    if train.shape[0] == 0:
        raise DatasetError("empty train split")
    mean = train.mean(axis=0)
    std = train.std(axis=0)  # population convention
    constant = std == 0.0
    std = np.where(constant, 1.0, std)
    samples = tuple(
        replace(s, features=(s.features - mean) / std) for s in ds.samples
    )
    return replace(
        ds,
        samples=samples,
        standardization=(mean, std),
        constant_features=tuple(bool(c) for c in constant),
    )


def destandardize_features(ds: Dataset, features: np.ndarray) -> np.ndarray:
    if ds.standardization is None:
        raise DatasetError("dataset is not standardized")
    mean, std = ds.standardization
    return np.asarray(features) * std + mean


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.9g}"


def write_csv(ds: Dataset, path) -> None:
    """Rows ordered by scenario then route_index, 9 significant digits."""
    ordered = sorted(
        ds.samples, key=lambda s: (s.scenario_id, s.route_index)
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for s in ordered:
            writer.writerow(
                [s.scenario_id, s.route_index]
                + [_fmt(v) for v in s.features]
                + [_fmt(s.path_loss)]
            )


def read_csv(path) -> Dataset:
    """Inverse of write_csv. A row with the wrong number of fields, an
    unparsable number, a non-finite value or a field the csv module
    refuses raises DatasetError naming the file and line."""
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != CSV_HEADER:
                raise DatasetError(f"unexpected CSV header in {path}")
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                if len(row) != len(CSV_HEADER):
                    raise DatasetError(
                        f"{where}: expected {len(CSV_HEADER)} fields, "
                        f"got {len(row)}"
                    )
                try:
                    values = np.array([float(v) for v in row[2:]])
                    route_index = int(row[1])
                except ValueError as exc:
                    raise DatasetError(f"{where}: {exc}") from None
                if not np.all(np.isfinite(values)):
                    raise DatasetError(
                        f"{where}: non-finite feature or path loss"
                    )
                samples.append(
                    Sample(
                        features=values[:-1],
                        path_loss=float(values[-1]),
                        route_index=route_index,
                        scenario_id=row[0],
                    )
                )
        except csv.Error as exc:
            raise DatasetError(
                f"{path}, line {reader.line_num}: {exc}"
            ) from None
    return Dataset(samples=tuple(samples))
