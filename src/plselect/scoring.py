"""Composite task score: prediction RMSE, trend-consistency error, and a
feature-compactness penalty, combined into a single higher-is-better total.

The trend-consistency error is the RMSE of first-order differences of the
predicted vs. true path loss sequences along each scenario's route; it is
invariant to constant offsets and penalizes missed local dips.
predictor.score_masks computes it over the steps route_order gives;
tests/reference_scoring.py keeps the per-prediction reference.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Optional, Sequence

import numpy as np


class ScoringError(ValueError):
    pass


@dataclass(frozen=True)
class ScoreWeights:
    lambda_c: float = 0.3
    lambda_n: float = 0.3
    # Accepted and ignored: the cardinality penalty's N is the mask width.
    n_features: InitVar[Optional[int]] = None

    def __post_init__(self, n_features):
        if not np.isfinite(self.lambda_c) or self.lambda_c < 0:
            raise ScoringError("lambda_c must be finite and non-negative")
        if not np.isfinite(self.lambda_n) or self.lambda_n < 0:
            raise ScoringError("lambda_n must be finite and non-negative")


@dataclass(frozen=True)
class Candidate:
    """One scored mask: its val RMSE, trend error, cardinality and total."""

    mask: tuple  # binary inclusion vector
    rmse: float
    trend_error: float
    cardinality: int
    total: float  # higher is better

    @property
    def score(self) -> float:
        """total, under the name the benchmark scripts in perfbench/ read."""
        return self.total


def candidates(masks: np.ndarray, rmse: np.ndarray, trend_error: np.ndarray,
               cardinality: np.ndarray, total: np.ndarray) -> list:
    """One Candidate per row of the (k, N) masks, from its entries of the
    columns that predictor.score_masks returns; the one builder of a
    Candidate."""
    return [Candidate(tuple(m), e, t, c, s) for m, e, t, c, s in zip(
        masks.tolist(), rmse.tolist(), trend_error.tolist(),
        cardinality.tolist(), total.tolist())]


def route_order(scenario_ids: Sequence[str],
                route_indices: Sequence[int]):
    """Sample positions in route order, and which consecutive pairs of that
    order lie on one route.

    Scenarios come in order of first appearance, each sorted by route
    index (ties keep their input order). Returns (order, same): an index
    array, and a bool array one shorter that is False where the pair
    crosses a scenario boundary. Raises ScoringError if no pair is left.
    """
    _, first, group = np.unique(np.asarray(scenario_ids), return_index=True,
                                return_inverse=True)
    group = np.argsort(np.argsort(first))[group]  # rank of first appearance
    order = np.lexsort((route_indices, group))
    group = group[order]
    same = group[1:] == group[:-1]
    if not same.any():
        raise ScoringError("no scenario has two or more ordered samples")
    return order, same


def total_scores(rmse_db: np.ndarray, trend_error_db: np.ndarray,
                 cardinality: np.ndarray, n_features: int,
                 weights: ScoreWeights) -> np.ndarray:
    """Negated weighted sum of error, trend error, and cardinality over
    the masks' width n_features, as one array expression over a batch."""
    return -(
        rmse_db
        + weights.lambda_c * trend_error_db
        + weights.lambda_n * cardinality / n_features
    )


def total_score(
    rmse_db: float,
    trend_error_db: float,
    mask: Sequence[int],
    weights: ScoreWeights,
) -> Candidate:
    """total_scores of one (rmse, trend error, mask); N is len(mask)."""
    if rmse_db < 0 or trend_error_db < 0:
        raise ScoringError("rmse and trend error must be non-negative")
    cardinality = np.count_nonzero(mask)
    if cardinality == 0:
        raise ScoringError("mask must select at least one feature")
    rmse = np.array([rmse_db], float)
    trend = np.array([trend_error_db], float)
    cardinality = np.array([cardinality])
    total = total_scores(rmse, trend, cardinality, len(mask), weights)
    return candidates(np.array([mask]), rmse, trend, cardinality, total)[0]
