"""Task-oriented feature-subset optimization for path loss prediction.

A Bernoulli selection policy over binary feature masks, refined by
evolutionary search and elite-guided moving-average updates, scored by a
composite of prediction RMSE, trend-consistency error, and feature
compactness, on synthetic propagation scenarios.
"""
