"""Per-mask references for two score terms: the trend-consistency error of
one prediction, and the MI of one feature column against path loss.

plselect.predictor.score_masks computes the trend error of a batch of
masks from steps it prepares once per dataset, and
plselect.baselines.feature_mi computes the MI of every column from one
pass of joint counts. tests/test_predictor.py and tests/test_baselines.py
check them against the functions here, which order rows, count and sum
with code of their own: only constants and error types come from
plselect.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from plselect.baselines import DEFAULT_MI_BINS
from plselect.scoring import ScoringError


def reference_route_order(scenario_ids, route_indices):
    """Sample positions in route order, grouped by a dict and sorted one
    scenario at a time, and which consecutive pairs lie on one route."""
    groups = {}
    for i, sid in enumerate(scenario_ids):
        groups.setdefault(sid, []).append(i)
    order, group = [], []
    for g, idx in enumerate(groups.values()):
        order.extend(sorted(idx, key=lambda i: route_indices[i]))
        group.extend([g] * len(idx))
    group = np.array(group, dtype=int)
    return np.array(order, dtype=int), group[1:] == group[:-1]


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
    if not (len(pred) == len(truth) == len(scenario_ids)
            == len(route_indices)):
        raise ScoringError("all inputs must have equal length")
    order, same = reference_route_order(list(scenario_ids),
                                        list(route_indices))
    if not same.any():
        raise ScoringError("no scenario has two or more ordered samples")
    residual = np.diff(pred[order])[same] - np.diff(truth[order])[same]
    return float(np.sqrt(np.mean(residual ** 2)))


def mutual_information(x: Sequence[float], y: Sequence[float]) -> float:
    """Plug-in histogram MI in bits of np.histogram2d's counts with
    DEFAULT_MI_BINS equal-width bins, clipped at 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("columns must have equal length")
    if x.size < DEFAULT_MI_BINS:
        raise ValueError("need at least as many samples as bins")
    joint, _, _ = np.histogram2d(x, y, bins=DEFAULT_MI_BINS)
    p = joint / joint.sum()
    p_x = p.sum(axis=1, keepdims=True)
    p_y = p.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log2(p / (p_x * p_y))
    return max(float(np.nansum(terms)), 0.0)
