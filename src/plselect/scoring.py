"""Composite task score: prediction RMSE, trend-consistency error, and a
feature-compactness penalty, combined into a single higher-is-better total.

The trend-consistency error is the RMSE of first-order differences of the
predicted vs. true path loss sequences along each scenario's route; it is
invariant to constant offsets and penalizes missed local dips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class ScoringError(ValueError):
    pass


@dataclass(frozen=True)
class ScoreWeights:
    lambda_c: float = 0.3
    lambda_n: float = 0.3
    n_features: int = 10

    def __post_init__(self):
        if not np.isfinite(self.lambda_c) or self.lambda_c < 0:
            raise ScoringError("lambda_c must be finite and non-negative")
        if not np.isfinite(self.lambda_n) or self.lambda_n < 0:
            raise ScoringError("lambda_n must be finite and non-negative")


@dataclass(frozen=True)
class ScoreBreakdown:
    rmse: float
    trend_error: float
    cardinality: int
    total: float  # higher is better


def rmse(pred: Sequence[float], truth: Sequence[float]) -> float:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ScoringError("pred and truth must have equal length")
    if pred.size == 0:
        raise ScoringError("empty input")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def route_order(scenario_ids: Sequence[str],
                route_indices: Sequence[int]):
    """Sample positions in route order, and which consecutive pairs of that
    order lie on one route.

    Scenarios come in order of first appearance, each sorted by route
    index (ties keep their input order). Returns (order, same): an index
    array, and a bool array one shorter that is False where the pair
    crosses a scenario boundary. Raises ScoringError if no pair is left.
    """
    groups = {}
    for i, sid in enumerate(scenario_ids):
        groups.setdefault(sid, []).append(i)
    order, group = [], []
    for g, idx in enumerate(groups.values()):
        order.extend(sorted(idx, key=lambda i: route_indices[i]))
        group.extend([g] * len(idx))
    group = np.array(group, dtype=int)
    same = group[1:] == group[:-1]
    if not same.any():
        raise ScoringError("no scenario has two or more ordered samples")
    return np.array(order, dtype=int), same


def trend_consistency_error(
    pred: Sequence[float],
    truth: Sequence[float],
    scenario_ids: Sequence[str],
    route_indices: Sequence[int],
) -> float:
    """RMSE of first-order differences along each scenario's route order.

    Consecutive pairs never cross scenario boundaries; scenarios with fewer
    than two samples are excluded.
    """
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if not (len(pred) == len(truth) == len(scenario_ids) == len(route_indices)):
        raise ScoringError("all inputs must have equal length")
    order, same = route_order(scenario_ids, route_indices)
    return rmse(np.diff(pred[order])[same], np.diff(truth[order])[same])


def total_score(
    rmse_db: float,
    trend_error_db: float,
    mask: Sequence[int],
    weights: ScoreWeights,
) -> ScoreBreakdown:
    """Negated weighted sum of error, trend error, and normalized cardinality;
    the mask's length must equal ``weights.n_features``."""
    return score_breakdowns([rmse_db], [trend_error_db], [mask], weights)[0]


def score_breakdowns(
    rmse_db: Sequence[float],
    trend_error_db: Sequence[float],
    masks: Sequence[Sequence[int]],
    weights: ScoreWeights,
) -> list:
    """total_score of each (rmse, trend error, mask) triple, computed as
    array operations over the batch."""
    rmse_db = np.asarray(rmse_db, dtype=float)
    trend_error_db = np.asarray(trend_error_db, dtype=float)
    masks = np.asarray(masks)
    if np.any(rmse_db < 0) or np.any(trend_error_db < 0):
        raise ScoringError("rmse and trend error must be non-negative")
    if masks.shape[1] != weights.n_features:
        raise ScoringError(f"mask has {masks.shape[1]} features but "
                           f"weights.n_features is {weights.n_features}")
    cardinality = np.count_nonzero(masks, axis=1)
    if not cardinality.all():
        raise ScoringError("mask must select at least one feature")
    total = -(
        rmse_db
        + weights.lambda_c * trend_error_db
        + weights.lambda_n * cardinality / weights.n_features
    )
    return [
        ScoreBreakdown(rmse=e, trend_error=t, cardinality=c, total=s)
        for e, t, c, s in zip(rmse_db.tolist(), trend_error_db.tolist(),
                              cardinality.tolist(), total.tolist())
    ]
