"""Pluggable path loss regressor used as the fitness oracle's learner.

The default learner is closed-form ridge regression on a linear or
quadratic monomial basis over the selected features. It is deterministic
and fast enough to sit inside the population search loop; alternative
learners can be dropped in through the same fit/predict surface.

Every mask's basis is a column subset of the basis over all features, so
evaluate_masks builds that full basis's train normal equations and val
design once per dataset and solves each mask on their sub-block, one
stacked solve per basis width. fit, predict and
scoring.trend_consistency_error are the reference it must match
(tests/test_predictor.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset, DatasetError
from .scoring import (
    ScoreBreakdown,
    ScoreWeights,
    route_order,
    score_breakdowns,
)

# The reference stays importable from this module, where
# perfbench/tracing.py looks up the names it traces; evaluate_masks does
# not call it.
from .scoring import trend_consistency_error  # noqa: F401

# Train rows per block when the normal equations are accumulated, so that
# the full-basis train design never exists at once.
GRAM_BLOCK_ROWS = 128

# Matrix entries per stacked solve in evaluate_masks, which bounds the
# stack a large batch of wide masks gathers at once.
SOLVE_BLOCK_ENTRIES = 1 << 17


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
        if self.ridge_lambda < 0:
            raise PredictorError("ridge_lambda must be non-negative")


@dataclass(frozen=True)
class PredictorModel:
    mask: tuple  # binary inclusion vector the model was trained under
    weights: np.ndarray  # coefficients over the expanded basis
    intercept: float
    basis: str
    ridge_lambda: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "mask": list(self.mask),
                "weights": self.weights.tolist(),
                "intercept": self.intercept,
                "basis": self.basis,
                "ridge_lambda": self.ridge_lambda,
            }
        )


def expand_basis(X: np.ndarray, basis: str) -> np.ndarray:
    """Monomials of the selected features: degree 1, plus degree 2 terms
    (x_i * x_j, i <= j) for the quadratic basis. No constant column; the
    intercept is handled separately."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if basis == "linear":
        return X
    cols = [X]
    k = X.shape[1]
    for i in range(k):
        for j in range(i, k):
            cols.append((X[:, i] * X[:, j])[:, None])
    return np.hstack(cols)


def fit(
    X: np.ndarray,
    y: np.ndarray,
    config: PredictorConfig = PredictorConfig(),
    mask: Optional[Sequence[int]] = None,
) -> PredictorModel:
    """Closed-form ridge solution of the normal equations.

    X holds only the selected (masked) feature columns, already
    standardized. The intercept is not penalized.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if X.shape[0] < 2:
        raise PredictorError("need at least 2 training samples")
    if X.shape[1] == 0:
        raise PredictorError("mask selects no features")
    phi = expand_basis(X, config.basis)
    design = np.hstack([np.ones((phi.shape[0], 1)), phi])
    gram = design.T @ design
    beta = _solve_ridge(gram[None], (design.T @ y)[None],
                        config.ridge_lambda)[0]
    mask_tuple = tuple(int(b) for b in mask) if mask is not None else tuple(
        [1] * X.shape[1]
    )
    return PredictorModel(
        mask=mask_tuple,
        weights=beta[1:],
        intercept=float(beta[0]),
        basis=config.basis,
        ridge_lambda=config.ridge_lambda,
    )


def _solve_ridge(gram: np.ndarray, moment: np.ndarray,
                 ridge_lambda: float) -> np.ndarray:
    """beta of (gram + ridge_lambda * I) beta = moment for each system of a
    (g, w, w) stack and its (g, w) moments, with column 0, the intercept,
    left unpenalized. Adds the penalty to gram in place."""
    g, w = moment.shape
    # Every diagonal entry but [0, 0]: the intercept is not penalized.
    gram.reshape(g, w * w)[:, w + 1::w + 1] += ridge_lambda
    singular = SingularSystemError(
        "normal equations are singular; use ridge_lambda > 0")
    if ridge_lambda == 0 and np.any(np.linalg.cond(gram) > 1e12):
        raise singular
    try:
        beta = np.linalg.solve(gram, moment[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise singular from exc
    if not np.all(np.isfinite(beta)):
        raise singular
    return beta


def predict(model: PredictorModel, X: np.ndarray) -> np.ndarray:
    """Predicted path loss for masked standardized feature rows."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    phi = expand_basis(X, model.basis)
    if phi.shape[1] != model.weights.shape[0]:
        raise PredictorError(
            f"feature dimension {X.shape[1]} does not match the model"
        )
    return phi @ model.weights + model.intercept


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

    def feature_indices(self) -> tuple:
        """1-based indices of the selected features."""
        return tuple(i + 1 for i, b in enumerate(self.mask) if b)


@dataclass(frozen=True)
class _Prepared:
    """One dataset's full-basis system, shared by all of its masks.

    Column 0 of the full basis is the intercept, columns 1..N the features,
    and, for the quadratic basis, then the products of features upper[0][c]
    and upper[1][c] for c = 0, 1, ..., in expand_basis order.
    """

    n_features: int
    gram: np.ndarray  # train design.T @ design
    moment: np.ndarray  # train design.T @ y
    val_design: np.ndarray
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


def _prepare(ds: Dataset, basis: str) -> _Prepared:
    X = ds.feature_matrix("train")
    y = ds.targets("train")
    if X.shape[0] < 2:
        raise PredictorError("need at least 2 training samples")
    n = X.shape[1]
    upper = np.triu_indices(n) if basis == "quadratic" else None
    width = 1 + n + (len(upper[0]) if upper is not None else 0)
    gram = np.zeros((width, width))
    moment = np.zeros(width)
    for start in range(0, X.shape[0], GRAM_BLOCK_ROWS):
        block = _full_design(X[start:start + GRAM_BLOCK_ROWS], upper)
        gram += block.T @ block
        moment += block.T @ y[start:start + GRAM_BLOCK_ROWS]
    val = ds.split_samples("val")
    order, same = route_order([s.scenario_id for s in val],
                              [s.route_index for s in val])
    val_targets = ds.targets("val")
    return _Prepared(
        n_features=n,
        gram=gram,
        moment=moment,
        val_design=_full_design(ds.feature_matrix("val"), upper),
        val_targets=val_targets,
        step_from=order[:-1][same],
        step_to=order[1:][same],
        val_steps=np.diff(val_targets[order])[same],
        upper=upper,
    )


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
    """One Candidate per mask, in order.

    Deterministic per (mask, dataset, config): fits the learner on the
    train split restricted to the mask's features, then combines the
    validation RMSE, trend-consistency error, and cardinality penalty.
    Each fit solves the mask's sub-block of the dataset's full-basis
    normal equations, which are built on the first call per basis; masks
    of one cardinality share a basis width and are solved as one stack.
    """
    if len(masks) == 0:
        return []
    try:
        masks = np.asarray(masks, dtype=int)
    except ValueError as exc:
        raise PredictorError(f"masks must have equal lengths: {exc}") from None
    if masks.ndim != 2:
        raise PredictorError("masks must be a sequence of 1-D masks")
    cardinality = np.count_nonzero(masks, axis=1)
    if not cardinality.all():
        raise PredictorError("mask must select at least one feature")
    if ds.split is None or ds.standardization is None:
        raise DatasetError("dataset must be split and standardized")
    key = ("predictor", config.basis)
    prep = ds.derived.get(key)
    if prep is None:
        prep = ds.derived[key] = _prepare(ds, config.basis)
    if masks.shape[1] != prep.n_features:
        raise PredictorError(f"mask has {masks.shape[1]} entries but the "
                             f"dataset has {prep.n_features} features")
    # A mask's basis, in expand_basis order, is the full basis's columns
    # whose features are all selected, in column order.
    sel = masks.astype(bool)
    keep = [np.ones((len(sel), 1), dtype=bool), sel]
    if prep.upper is not None:
        keep.append(sel[:, prep.upper[0]] & sel[:, prep.upper[1]])
    keep = np.concatenate(keep, axis=1)
    y_hat = np.empty((len(masks), len(prep.val_targets)))
    for k in np.flatnonzero(np.bincount(cardinality)):
        rows = np.flatnonzero(cardinality == k)
        width = int(keep[rows[0]].sum())
        step = max(1, SOLVE_BLOCK_ENTRIES // (width * width))
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            cols = np.nonzero(keep[block])[1].reshape(len(block), width)
            beta = _solve_ridge(prep.gram[cols[:, :, None], cols[:, None, :]],
                                prep.moment[cols], config.ridge_lambda)
            # One matrix-vector product per mask, as for a batch of one,
            # so that a mask's score does not depend on its batch.
            y_hat[block] = (prep.val_design[:, cols].transpose(1, 0, 2)
                            @ beta[:, :, None])[:, :, 0]
    err = np.sqrt(np.mean((y_hat - prep.val_targets) ** 2, axis=1))
    # np.take keeps each row contiguous, so that its mean sums in the
    # order a batch of one does; fancy indexing would not.
    steps = (np.take(y_hat, prep.step_to, axis=1)
             - np.take(y_hat, prep.step_from, axis=1))
    trend = np.sqrt(np.mean((steps - prep.val_steps) ** 2, axis=1))
    return [
        Candidate(mask=tuple(m), breakdown=b)
        for m, b in zip(masks.tolist(),
                        score_breakdowns(err, trend, masks, weights))
    ]
