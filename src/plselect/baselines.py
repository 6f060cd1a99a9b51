"""Comparison strategies: full-feature input, random subsets of matched
cardinality, and mutual-information category subsets.

The MI estimator is a plug-in histogram estimator with equal-width bins,
reported in bits and clipped at zero. The two MI subsets combine the two
most relevant Geometry features with the two most relevant features of a
second category (Structure or EM Knowledge), always yielding four features.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dataset import Dataset, DatasetError

DEFAULT_MI_BINS = 16

# Each MI subset variant with the category that joins Geometry in it.
MI_VARIANTS = {"GE_Struct": "Structure", "GE_EM": "Knowledge"}


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


def mutual_information(x: Sequence[float], y: Sequence[float]) -> float:
    """Plug-in histogram MI in bits, DEFAULT_MI_BINS equal-width bins,
    clipped at 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("columns must have equal length")
    if x.size < DEFAULT_MI_BINS:
        raise ValueError("need at least as many samples as bins")
    joint, _, _ = np.histogram2d(x, y, bins=DEFAULT_MI_BINS)
    p_joint = joint / joint.sum()
    p_x = p_joint.sum(axis=1, keepdims=True)
    p_y = p_joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p_joint * np.log2(p_joint / (p_x * p_y))
    mi = float(np.nansum(terms))
    return max(mi, 0.0)


def feature_mi(ds: Dataset) -> np.ndarray:
    """Read-only per-feature MI against path loss on the training split,
    computed once and kept in ds.derived."""
    if ds.split is None:
        raise DatasetError("dataset must be split before MI ranking")
    key = ("feature_mi",)
    if key not in ds.derived:
        X, y = ds.feature_matrix("train"), ds.targets("train")
        mi = np.array([mutual_information(x, y) for x in X.T])
        mi.flags.writeable = False
        ds.derived[key] = mi
    return ds.derived[key]


def mi_category_subset(ds: Dataset, variant: str) -> np.ndarray:
    """Top-2 Geometry features plus top-2 of the variant's second category,
    by the categories of ds.catalog; MI ties go to the lower index."""
    if variant not in MI_VARIANTS:
        raise ValueError(f"variant must be one of {tuple(MI_VARIANTS)}")
    order = np.argsort(-feature_mi(ds), kind="stable")
    categories = np.array(ds.catalog.categories)[order]
    mask = np.zeros(ds.n_features, dtype=np.int8)
    for category in ("Geometry", MI_VARIANTS[variant]):
        mask[order[categories == category][:2]] = 1
    return mask
