"""Ridge regression as the fitness oracle's learner.

The learner is closed-form ridge regression on a linear or quadratic
monomial basis over the selected features: deterministic, and fast
enough to sit inside the population search loop.

Every mask's basis is a column subset of the basis over all features, so
prepared_system builds that full basis's train normal equations and val
design once per dataset, basis and ridge_lambda, with the ridge penalty
added to the Gram matrix's diagonal once, there, and score_masks solves
each mask on their sub-block, one stacked solve per basis width,
returning rmse, trend error, cardinality and total as arrays. The
search calls score_masks on masks it has made itself; evaluate_masks
checks masks from elsewhere and then calls it. candidates is the one
builder of a Candidate from those columns, for both.
tests/test_predictor.py checks the scores against a least-squares solve
of each mask's own ridge-augmented design, sharing no code with
score_masks, and scoring.trend_consistency_error.

The scoring runs its BLAS and LAPACK calls on the calling thread. Its
solves and products are small, and OpenBLAS's worker threads spin
between them: on 2 cores a wide search used twice the CPU time of its
wall time. Scores are therefore independent of the OpenBLAS thread count
(OPENBLAS_NUM_THREADS, the number of cores). Where numpy's BLAS is not a
loaded OpenBLAS with openblas_set_num_threads_local, _CallingThreadBlas
is a no-op, and the BLAS keeps the threads it was configured with.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset, DatasetError
from .scoring import (
    ScoreBreakdown,
    ScoreWeights,
    route_order,
    total_scores,
)

# Train rows per block when the normal equations are accumulated, so that
# the full-basis train design never exists at once.
GRAM_BLOCK_ROWS = 128

# Matrix entries per stacked solve in score_masks, which bounds what a
# large batch of wide masks gathers at once. A stack holds
# g = SOLVE_BLOCK_ENTRIES // w**2 masks of basis width w (at least one),
# and three copies of their data: the Gram blocks, 8*g*w**2 bytes, so at
# most 1 MiB (or one mask's block, where that is larger); their int64 flat
# index into the Gram matrix, as large; and their val rows,
# 8*g*w*n_val bytes, so at most n_val / w MiB for n_val val samples.
SOLVE_BLOCK_ENTRIES = 1 << 17


@functools.cache
def _openblas_set_threads():
    """openblas_set_num_threads_local of the OpenBLAS numpy bundles and
    has loaded, which sets the thread count and returns the old one; None
    where there is no such library or call."""
    pkg = Path(np.__file__).parent
    for path in sorted([*pkg.parent.glob("numpy.libs/*openblas*"),
                        *pkg.glob(".dylibs/*openblas*")]):
        try:
            # RTLD_NOLOAD: only a library the process has already loaded.
            lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
            set_threads = lib.openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = ctypes.c_int
        return set_threads
    return None


class _CallingThreadBlas:
    """Inside `with`, OpenBLAS runs on the calling thread only: enter sets
    its thread count to 1 and exit restores the count enter found. The
    count is process-wide and the found count is kept on the instance, so
    scopes must neither nest nor be open in several Python threads at
    once; no caller opens them so.
    """

    def __enter__(self):
        set_threads = _openblas_set_threads()
        if set_threads is not None:
            self._saved = set_threads(1)

    def __exit__(self, *exc):
        set_threads = _openblas_set_threads()
        if set_threads is not None:
            set_threads(self._saved)


_CALLING_THREAD_BLAS = _CallingThreadBlas()


class PredictorError(ValueError):
    pass


class SingularSystemError(PredictorError):
    """Normal equations are singular; use ridge_lambda > 0."""


@dataclass(frozen=True)
class PredictorConfig:
    basis: str = "quadratic"  # linear | quadratic
    ridge_lambda: float = 1.0

    def __post_init__(self):
        if self.basis not in ("linear", "quadratic"):
            raise PredictorError(f"unknown basis {self.basis!r}")
        if not 0 <= self.ridge_lambda < np.inf:
            raise PredictorError("ridge_lambda must be finite and "
                                 "non-negative")


def _solve_ridge(gram: np.ndarray, moment: np.ndarray,
                 ridge_lambda: float) -> np.ndarray:
    """beta of gram beta = moment for each system of a (g, w, w) stack of
    penalized Gram blocks and its (g, w) moments. ridge_lambda is the
    penalty already on their diagonals: at 0, an ill-conditioned block
    is refused."""
    singular = "normal equations are singular; use ridge_lambda > 0"
    if ridge_lambda == 0 and np.any(np.linalg.cond(gram) > 1e12):
        raise SingularSystemError(singular)
    try:
        beta = np.linalg.solve(gram, moment[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(singular) from exc
    if not np.isfinite(beta).all():
        raise SingularSystemError(singular)
    return beta


@dataclass(frozen=True)
class Candidate:
    mask: tuple  # binary inclusion vector
    breakdown: ScoreBreakdown

    @property
    def score(self) -> float:
        return self.breakdown.total

    @property
    def cardinality(self) -> int:
        return self.breakdown.cardinality


@dataclass(frozen=True)
class _Prepared:
    """One dataset's full-basis system for one ridge_lambda, shared by all
    of its masks. Its arrays are read-only.

    Column 0 of the full basis is the intercept, columns 1..N the features,
    and, for the quadratic basis, then the products of features upper[0][c]
    and upper[1][c] for c = 0, 1, ..., in np.triu_indices order.

    The Gram matrix carries the ridge penalty: ridge_lambda is added once,
    here, to every diagonal entry but the intercept's [0, 0]. A mask's
    sub-block then has its penalty in place, with the bits of adding it
    after the gather.

    The val design is kept transposed and C-contiguous, so that each basis
    column's values over the val samples are one contiguous row.
    """

    n_features: int
    ridge_lambda: float
    gram: np.ndarray  # train design.T @ design + the penalty
    moment: np.ndarray  # train design.T @ y
    val_t: np.ndarray  # val design.T: row c is basis column c
    val_targets: np.ndarray
    # The val rows differenced by scoring.trend_consistency_error: step k
    # is row step_to[k] minus row step_from[k].
    step_from: np.ndarray
    step_to: np.ndarray
    val_steps: np.ndarray  # the targets' differences over those steps
    upper: Optional[tuple]  # quadratic basis only


def _full_design(X: np.ndarray, upper: Optional[tuple]) -> np.ndarray:
    cols = [np.ones((X.shape[0], 1)), X]
    if upper is not None:
        cols.append(X[:, upper[0]] * X[:, upper[1]])
    return np.hstack(cols)


def _prepare(ds: Dataset, config: PredictorConfig) -> _Prepared:
    X = ds.feature_matrix("train")
    y = ds.targets("train")
    if X.shape[0] < 2:
        raise PredictorError("need at least 2 training samples")
    n = X.shape[1]
    upper = np.triu_indices(n) if config.basis == "quadratic" else None
    width = 1 + n + (len(upper[0]) if upper is not None else 0)
    gram = np.zeros((width, width))
    moment = np.zeros(width)
    for start in range(0, X.shape[0], GRAM_BLOCK_ROWS):
        block = _full_design(X[start:start + GRAM_BLOCK_ROWS], upper)
        gram += block.T @ block
        moment += block.T @ y[start:start + GRAM_BLOCK_ROWS]
    # Every diagonal entry but [0, 0]: the intercept is not penalized.
    gram.flat[width + 1::width + 1] += config.ridge_lambda
    val = ds.rows("val")
    order, same = route_order(ds.scenario_id[val], ds.route_index[val])
    val_targets = ds.targets("val")
    arrays = dict(
        gram=gram,
        moment=moment,
        val_t=np.ascontiguousarray(
            _full_design(ds.feature_matrix("val"), upper).T),
        val_targets=val_targets,
        step_from=order[:-1][same],
        step_to=order[1:][same],
        val_steps=np.diff(val_targets[order])[same],
    )
    for array in arrays.values():
        array.flags.writeable = False
    return _Prepared(n_features=n, ridge_lambda=config.ridge_lambda,
                     upper=upper, **arrays)


def evaluate_mask(
    mask: Sequence[int],
    ds: Dataset,
    weights: ScoreWeights = ScoreWeights(),
    config: PredictorConfig = PredictorConfig(),
) -> Candidate:
    """Train on the mask's features and score on the validation split:
    evaluate_masks of a batch of one."""
    return evaluate_masks([mask], ds, weights, config)[0]


def evaluate_masks(
    masks: Sequence[Sequence[int]],
    ds: Dataset,
    weights: ScoreWeights = ScoreWeights(),
    config: PredictorConfig = PredictorConfig(),
) -> list:
    """One Candidate per mask, in order: score_masks of the checked masks.

    Deterministic per (mask, dataset, config): fits the learner on the
    train split restricted to the mask's features, then combines the
    validation RMSE, trend-consistency error, and cardinality penalty.
    Each mask is a sequence of N entries, each 0 or 1, at least one 1.
    """
    if len(masks) == 0:
        return []
    try:
        masks = np.asarray(masks)
    except ValueError as exc:
        raise PredictorError(f"masks must have equal lengths: {exc}") from None
    if masks.ndim != 2:
        raise PredictorError("masks must be a sequence of 1-D masks")
    bad = np.argwhere((masks != 0) & (masks != 1))
    if len(bad):
        i, j = bad[0]
        raise PredictorError(f"mask {i} entry {j} is {masks[i, j].item()!r}; "
                             "mask entries must be 0 or 1")
    masks = masks.astype(np.int8)
    if not masks.any(axis=1).all():
        raise PredictorError("mask must select at least one feature")
    prep = prepared_system(ds, config)
    if masks.shape[1] != prep.n_features:
        raise PredictorError(f"mask has {masks.shape[1]} entries but "
                             f"the dataset has {prep.n_features} features")
    return candidates(masks, *score_masks(masks, prep, weights))


def candidates(masks: np.ndarray, rmse: np.ndarray, trend: np.ndarray,
               cardinality: np.ndarray, total: np.ndarray) -> list:
    """One Candidate per row of the (k, N) masks, from its entries of
    score_masks's columns."""
    return [
        Candidate(mask=tuple(m), breakdown=ScoreBreakdown(
            rmse=e, trend_error=t, cardinality=c, total=s))
        for m, e, t, c, s in zip(masks.tolist(), rmse.tolist(),
                                 trend.tolist(), cardinality.tolist(),
                                 total.tolist())
    ]


def prepared_system(ds: Dataset, config: PredictorConfig) -> _Prepared:
    """ds's full-basis system for config.basis and config.ridge_lambda,
    built on first use and kept in ds.derived, one per such pair. ds must
    be split and standardized."""
    if ds.split is None or ds.standardization is None:
        raise DatasetError("dataset must be split and standardized")
    key = ("predictor", config.basis, config.ridge_lambda)
    prep = ds.derived.get(key)
    if prep is None:
        with _CALLING_THREAD_BLAS:
            prep = ds.derived[key] = _prepare(ds, config)
    return prep


def score_masks(masks: np.ndarray, prep: _Prepared,
                weights: ScoreWeights) -> tuple:
    """Val RMSE, trend-consistency error, cardinality and total score of
    each row of a (k, N) int8 array of 0s and 1s, as four arrays.

    The masks are not checked: each row must select at least one of
    prep's N features. The cardinality penalty divides by N. Each fit
    solves the mask's sub-block of prep's penalized normal equations;
    masks of one cardinality share a basis width and are solved as one
    stack. A stack's Gram sub-blocks are gathered by one take from the
    flattened Gram matrix, its val columns are taken as whole rows of
    prep.val_t, and its predictions are written in place into a buffer
    of masks in cardinality order, which one take puts back in mask
    order.
    """
    cardinality = np.count_nonzero(masks, axis=1)
    sel = masks.view(bool)
    # A mask's basis is the full basis's columns whose features are all
    # selected, in column order.
    keep = [np.ones((len(sel), 1), dtype=bool), sel]
    if prep.upper is not None:
        keep.append(sel.take(prep.upper[0], axis=1)
                    & sel.take(prep.upper[1], axis=1))
    keep = np.concatenate(keep, axis=1)
    # Masks sorted by cardinality, so that each basis width's columns are
    # one run of the nonzero columns of keep.
    order = np.argsort(cardinality, kind="stable")
    all_cols = np.nonzero(keep.take(order, axis=0))[1]
    # Where each column's row starts in the flattened Gram matrix.
    all_rows = all_cols * len(prep.gram)
    gram = prep.gram.ravel()
    # Predictions in cardinality order, one (1, n_val) row per mask.
    y_sorted = np.empty((len(sel), 1, len(prep.val_targets)))
    start = offset = 0
    with _CALLING_THREAD_BLAS:
        for k, count in enumerate(np.bincount(cardinality).tolist()):
            if count == 0:
                continue
            width = 1 + k if prep.upper is None else 1 + k + k * (k + 1) // 2
            step = max(1, SOLVE_BLOCK_ENTRIES // (width * width))
            for first in range(start, start + count, step):
                last = min(first + step, start + count)
                stop = offset + (last - first) * width
                cols = all_cols[offset:stop].reshape(last - first, width)
                rows = all_rows[offset:stop].reshape(last - first, width)
                offset = stop
                beta = _solve_ridge(
                    gram.take(rows[:, :, None] + cols[:, None, :]),
                    prep.moment.take(cols), prep.ridge_lambda)
                # One vector-matrix product per mask, as for a batch of
                # one, so that a mask's score does not depend on its batch.
                # The operands' layout decides the last bits: a contiguous
                # copy of the (g, n_val, w) block changes them, and so
                # would an output whose rows are not n_val apart.
                # TestRowMajorLayoutOracle pins them.
                np.matmul(beta[:, None, :], prep.val_t.take(cols, axis=0),
                          out=y_sorted[first:last])
            start += count
    # Row i of y_sorted is mask order[i]'s.
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    y_hat = y_sorted[:, 0, :].take(rank, axis=0)
    err = _rms_rows(y_hat - prep.val_targets)
    # np.take keeps each row contiguous, so that its sum runs in the
    # order a batch of one's does; fancy indexing would not.
    steps = (np.take(y_hat, prep.step_to, axis=1)
             - np.take(y_hat, prep.step_from, axis=1))
    trend = _rms_rows(steps - prep.val_steps)
    return (err, trend, cardinality,
            total_scores(err, trend, cardinality, masks.shape[1], weights))


def _rms_rows(d: np.ndarray) -> np.ndarray:
    """Root mean square of each row of d, with np.mean's bits: the same
    pairwise sum of each row, then one division by the row length."""
    return np.sqrt(np.add.reduce(d * d, axis=1) / d.shape[1])
