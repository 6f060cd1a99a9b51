"""Comparison strategies: full-feature input, random subsets of matched
cardinality, and mutual-information category subsets.

The MI estimator is a plug-in histogram estimator with equal-width bins,
reported in bits and clipped at zero. The two MI subsets combine the two
most relevant Geometry features with the two most relevant features of a
second category (Structure or EM Knowledge), always yielding four features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, DatasetError

DEFAULT_MI_BINS = 16

# Each MI subset variant with the category that joins Geometry in it.
MI_VARIANTS = {"GE_Struct": "Structure", "GE_EM": "Knowledge"}


@dataclass(frozen=True)
class MIRanking:
    mi_bits: np.ndarray  # per-feature MI against the target
    ranking: tuple  # 1-based feature indices, MI descending


def full_feature_mask(n_features: int) -> np.ndarray:
    return np.ones(n_features, dtype=np.int8)


def random_subset_mask(
    cardinality: int, n_features: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform draw over all subsets of the requested cardinality."""
    if not 1 <= cardinality <= n_features:
        raise ValueError("cardinality out of range")
    mask = np.zeros(n_features, dtype=np.int8)
    chosen = rng.choice(n_features, size=cardinality, replace=False)
    mask[chosen] = 1
    return mask


def mutual_information(
    x: Sequence[float],
    y: Sequence[float],
    bins: int = DEFAULT_MI_BINS,
) -> float:
    """Plug-in histogram MI in bits, equal-width bins, clipped at 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("columns must have equal length")
    if x.size < bins:
        raise ValueError("need at least as many samples as bins")
    joint, _, _ = np.histogram2d(x, y, bins=bins)
    p_joint = joint / joint.sum()
    p_x = p_joint.sum(axis=1, keepdims=True)
    p_y = p_joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p_joint * np.log2(p_joint / (p_x * p_y))
    mi = float(np.nansum(terms))
    return max(mi, 0.0)


def mi_ranking(ds: Dataset) -> MIRanking:
    """Per-feature MI against path loss on the training split, with
    DEFAULT_MI_BINS bins, computed once and kept in ds.derived."""
    if ds.split is None:
        raise DatasetError("dataset must be split before MI ranking")
    key = ("mi_ranking",)
    if key not in ds.derived:
        X = ds.feature_matrix("train")
        y = ds.targets("train")
        mi = np.array(
            [mutual_information(X[:, i], y) for i in range(X.shape[1])]
        )
        mi.flags.writeable = False
        order = sorted(range(len(mi)), key=lambda i: (-mi[i], i))
        ds.derived[key] = MIRanking(mi_bits=mi,
                                    ranking=tuple(i + 1 for i in order))
    return ds.derived[key]


def mi_category_subset(ds: Dataset, variant: str) -> np.ndarray:
    """Top-2 Geometry features plus top-2 of the variant's second category,
    by the categories of ds.catalog."""
    if variant not in MI_VARIANTS:
        raise ValueError(f"variant must be one of {tuple(MI_VARIANTS)}")
    ranking = mi_ranking(ds)
    mask = np.zeros(ds.n_features, dtype=np.int8)
    for category in ("Geometry", MI_VARIANTS[variant]):
        members = set(ds.catalog.indices_for_category(category))
        top = [i for i in ranking.ranking if i in members][:2]
        for i in top:
            mask[i - 1] = 1
    return mask
