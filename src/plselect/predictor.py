"""Pluggable path loss regressor used as the fitness oracle's learner.

The default learner is closed-form ridge regression on a linear or
quadratic monomial basis over the selected features. It is deterministic
and fast enough to sit inside the population search loop; alternative
learners can be dropped in through the same fit/predict surface.

Every mask's basis is a column subset of the basis over all features, so
evaluate_mask builds that full basis's train normal equations and val
design once per dataset and solves each mask on their sub-block. fit,
predict and scoring.trend_consistency_error are the reference it must
match (tests/test_predictor.py).
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
    rmse,
    route_order,
    total_score,
)

# The reference stays importable from this module, where
# perfbench/tracing.py looks up the names it traces; evaluate_mask no
# longer calls it.
from .scoring import trend_consistency_error  # noqa: F401

# Train rows per block when the normal equations are accumulated, so that
# the full-basis train design never exists at once.
GRAM_BLOCK_ROWS = 128


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
    beta = _solve_ridge(gram, design.T @ y, config.ridge_lambda)
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
    """beta of (gram + ridge_lambda * I) beta = moment, with column 0, the
    intercept, left unpenalized."""
    a = gram.copy()
    # Every diagonal entry but [0, 0]: the intercept is not penalized.
    a.flat[a.shape[0] + 1::a.shape[0] + 1] += ridge_lambda
    if ridge_lambda == 0 and np.linalg.cond(a) > 1e12:
        raise SingularSystemError(
            "normal equations are singular; use ridge_lambda > 0"
        )
    try:
        beta = np.linalg.solve(a, moment)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "normal equations are singular; use ridge_lambda > 0"
        ) from exc
    if not np.all(np.isfinite(beta)):
        raise SingularSystemError(
            "normal equations are singular; use ridge_lambda > 0"
        )
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
    order: np.ndarray  # val rows in route order (scoring.route_order)
    same: np.ndarray  # which consecutive pairs of that order to difference
    val_steps: np.ndarray  # the targets' differences over those pairs
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
        order=order,
        same=same,
        val_steps=np.diff(val_targets[order])[same],
        upper=upper,
    )


def evaluate_mask(
    mask: Sequence[int],
    ds: Dataset,
    weights: ScoreWeights = ScoreWeights(),
    config: PredictorConfig = PredictorConfig(),
) -> Candidate:
    """Train on the mask's features and score on the validation split.

    Deterministic per (mask, dataset, config): fits the learner on the
    train split restricted to the selected features, then combines the
    validation RMSE, trend-consistency error, and cardinality penalty.
    The fit solves the mask's sub-block of the dataset's full-basis
    normal equations, which are built on the first call per basis.
    """
    mask = np.asarray(mask, dtype=int)
    if mask.sum() == 0:
        raise PredictorError("mask must select at least one feature")
    if ds.split is None or ds.standardization is None:
        raise DatasetError("dataset must be split and standardized")
    key = ("predictor", config.basis)
    prep = ds.derived.get(key)
    if prep is None:
        prep = ds.derived[key] = _prepare(ds, config.basis)
    if mask.shape != (prep.n_features,):
        raise PredictorError(f"mask has {mask.size} entries but the dataset "
                             f"has {prep.n_features} features")
    # The mask's basis, in expand_basis order, is the full basis's columns
    # whose features are all selected, in column order.
    sel = mask.astype(bool)
    keep = [[True], sel]
    if prep.upper is not None:
        keep.append(sel[prep.upper[0]] & sel[prep.upper[1]])
    cols = np.flatnonzero(np.concatenate(keep))
    beta = _solve_ridge(prep.gram[np.ix_(cols, cols)], prep.moment[cols],
                        config.ridge_lambda)
    y_hat = prep.val_design[:, cols] @ beta
    err = rmse(y_hat, prep.val_targets)
    trend = rmse(np.diff(y_hat[prep.order])[prep.same], prep.val_steps)
    breakdown = total_score(err, trend, mask, weights)
    return Candidate(mask=tuple(mask.tolist()), breakdown=breakdown)
