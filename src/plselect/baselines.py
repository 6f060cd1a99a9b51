"""Comparison strategies: full-feature input, random subsets of matched
cardinality, and mutual-information category subsets.

The MI estimator is a plug-in histogram estimator with equal-width bins,
reported in bits and clipped at zero. The two MI subsets combine the two
most relevant Geometry features with the two most relevant features of a
second category (Structure or EM Knowledge), always yielding four features.
"""

from __future__ import annotations

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


def joint_counts(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (N, b, b) float joint counts of each column of the (n, N) X
    against y, b = DEFAULT_MI_BINS: entry j is np.histogram2d(X[:, j], y,
    b)[0], counted for every column by one np.bincount.

    Each column and y are binned as np.histogram2d bins them: b + 1
    edges from np.linspace over the column's range, widened by 0.5 each
    way for a constant column, np.searchsorted(side="right") for the bin,
    and the last edge inside the last bin. A non-finite value raises
    ValueError."""
    columns = np.vstack([np.asarray(X, dtype=float).T,
                         np.asarray(y, dtype=float)])
    if columns.shape[1] < DEFAULT_MI_BINS:
        raise ValueError("need at least as many samples as bins")
    first, last = columns.min(axis=1), columns.max(axis=1)
    if not (np.isfinite(first).all() and np.isfinite(last).all()):
        raise ValueError("MI of a column with a non-finite value")
    flat = first == last
    first[flat] -= 0.5
    last[flat] += 0.5
    # Bins 0 and b + 1 hold values outside the edges, as np.histogram2d's
    # do; for finite data they stay empty.
    bins = np.empty(columns.shape, dtype=np.intp)
    for j, column in enumerate(columns):
        edges = np.linspace(first[j], last[j], DEFAULT_MI_BINS + 1)
        bins[j] = np.searchsorted(edges, column, side="right")
        bins[j, column == edges[-1]] -= 1
    side = DEFAULT_MI_BINS + 2
    n = len(columns) - 1
    flat_index = (np.arange(n)[:, None] * side + bins[:-1]) * side + bins[-1]
    counts = np.bincount(flat_index.ravel(), minlength=n * side * side)
    return counts.reshape(n, side, side)[:, 1:-1, 1:-1].astype(float)


def feature_mi(ds: Dataset) -> np.ndarray:
    """Per-feature MI against path loss on the training split, from one
    joint_counts pass; nothing is kept on ds. tests/reference_scoring.py's
    mutual_information, which applies its own copy of the formula to
    np.histogram2d's counts, is its per-column reference."""
    if ds.split is None:
        raise DatasetError("dataset must be split before MI ranking")
    joint = joint_counts(ds.feature_matrix("train"), ds.targets("train"))
    # MI in bits of each (b, b) table, clipped at 0: p log2(p / (p_x p_y)),
    # where an empty cell's nan term counts as 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        p = joint / joint.sum(axis=(1, 2), keepdims=True)
        terms = p * np.log2(p / (p.sum(axis=2, keepdims=True)
                                 * p.sum(axis=1, keepdims=True)))
    return np.maximum(np.nansum(terms, axis=(1, 2)), 0.0)


def mi_category_subset(ds: Dataset) -> dict[str, np.ndarray]:
    """Each MI_VARIANTS variant's int8 mask, in the table's order, from one
    feature_mi ranking: the top-2 Geometry features plus the top-2 of the
    variant's second category, by the categories of ds.catalog; MI ties go
    to the lower index."""
    order = np.argsort(-feature_mi(ds), kind="stable")
    categories = np.array(ds.catalog.categories)[order]
    masks = {}
    for variant, second in MI_VARIANTS.items():
        masks[variant] = mask = np.zeros(ds.n_features, dtype=np.int8)
        for category in ("Geometry", second):
            mask[order[categories == category][:2]] = 1
    return masks
