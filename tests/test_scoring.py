import numpy as np
import pytest

from plselect.scoring import (
    ScoreWeights,
    ScoringError,
    rmse,
    total_score,
    trend_consistency_error,
)

W = ScoreWeights(lambda_c=0.3, lambda_n=0.3, n_features=10)


class TestRmse:
    def test_zero_for_identical(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_constant_magnitude(self):
        assert rmse([3.0, -3.0], [0.0, 0.0]) == pytest.approx(3.0)

    def test_hand_computed(self):
        # residuals {1, 2, 2} -> sqrt(9/3)
        assert rmse([1.0, 2.0, 2.0], [0.0, 0.0, 0.0]) == pytest.approx(
            np.sqrt(3.0), abs=1e-12
        )

    def test_empty_raises(self):
        with pytest.raises(ScoringError):
            rmse([], [])

    def test_length_mismatch(self):
        with pytest.raises(ScoringError):
            rmse([1.0], [1.0, 2.0])


class TestTrendError:
    def test_offset_invariance(self):
        truth = [100.0, 105.0, 103.0, 110.0]
        pred = [v + 7.5 for v in truth]
        e = trend_consistency_error(pred, truth, ["s"] * 4, [0, 1, 2, 3])
        assert e == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_dip(self):
        e = trend_consistency_error(
            [0.0, 0.0, 0.0], [0.0, 10.0, 0.0], ["s"] * 3, [0, 1, 2]
        )
        assert e == pytest.approx(10.0)

    def test_constant_sequences(self):
        e = trend_consistency_error(
            [5.0, 5.0, 5.0], [2.0, 2.0, 2.0], ["s"] * 3, [0, 1, 2]
        )
        assert e == 0.0

    def test_respects_route_order_not_input_order(self):
        # shuffled input, ordering restored by route_index
        pred = [0.0, 2.0, 1.0]
        truth = [0.0, 2.0, 1.0]
        e = trend_consistency_error(pred, truth, ["s"] * 3, [0, 2, 1])
        assert e == 0.0

    def test_no_cross_scenario_pairs(self):
        # two scenarios, each internally constant; a naive concatenation
        # would see a jump at the boundary
        pred = [0.0, 0.0, 100.0, 100.0]
        truth = [0.0, 0.0, 0.0, 0.0]
        e = trend_consistency_error(
            pred, truth, ["a", "a", "b", "b"], [0, 1, 0, 1]
        )
        assert e == 0.0

    def test_short_scenarios_excluded(self):
        e = trend_consistency_error(
            [0.0, 1.0, 2.0], [0.0, 1.0, 5.0], ["a", "a", "b"], [0, 1, 0]
        )
        assert e == pytest.approx(0.0)

    def test_all_excluded_raises(self):
        with pytest.raises(ScoringError):
            trend_consistency_error([1.0], [1.0], ["a"], [0])


class TestTotalScore:
    def test_table_row_inversion(self):
        # published row: rmse 3.736, 4 of 10 features, total -5.242
        implied_ec = (5.242 - 3.736 - 0.12) / 0.3
        bd = total_score(3.736, implied_ec, [1, 1, 1, 1, 0, 0, 0, 0, 0, 0], W)
        assert bd.total == pytest.approx(-5.242, abs=1e-12)
        assert implied_ec == pytest.approx(4.62, abs=1e-3)

    def test_sparsity_term_only(self):
        bd = total_score(0.0, 0.0, [1] * 10, W)
        assert bd.total == pytest.approx(-0.30, abs=1e-12)

    def test_arithmetic(self):
        bd = total_score(1.0, 1.0, [1] * 5 + [0] * 5, W)
        assert bd.total == pytest.approx(-1.45, abs=1e-12)

    def test_breakdown_identity(self):
        bd = total_score(2.5, 1.25, [1, 0, 1, 0, 0, 0, 0, 0, 0, 0], W)
        expected = -(bd.rmse + W.lambda_c * bd.trend_error
                     + W.lambda_n * bd.cardinality / W.n_features)
        assert bd.total == pytest.approx(expected, abs=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ScoringError):
            total_score(-1.0, 0.0, [1] * 10, W)
        with pytest.raises(ScoringError):
            total_score(0.0, -1.0, [1] * 10, W)

    def test_empty_mask_rejected(self):
        with pytest.raises(ScoringError):
            total_score(1.0, 1.0, [0] * 10, W)

    def test_mask_length_must_match_n_features(self):
        with pytest.raises(ScoringError, match="24 features.*is 10"):
            total_score(1.0, 1.0, [1] * 6 + [0] * 18, W)
        with pytest.raises(ScoringError, match="10 features.*is 24"):
            total_score(1.0, 1.0, [1] * 10, ScoreWeights(n_features=24))

    def test_wide_mask_with_matching_n_features(self):
        wide = ScoreWeights(lambda_c=0.3, lambda_n=0.3, n_features=24)
        bd = total_score(1.0, 1.0, [1] * 6 + [0] * 18, wide)
        assert bd.cardinality == 6
        assert bd.total == pytest.approx(-1.375, abs=1e-12)

    def test_monotonicity(self):
        base = total_score(1.0, 1.0, [1] * 4 + [0] * 6, W).total
        assert total_score(1.1, 1.0, [1] * 4 + [0] * 6, W).total < base
        assert total_score(1.0, 1.1, [1] * 4 + [0] * 6, W).total < base
        assert total_score(1.0, 1.0, [1] * 5 + [0] * 5, W).total < base

    def test_shift_invariance_of_order(self):
        rng = np.random.default_rng(0)
        truth = rng.normal(100, 5, size=20)
        pred_a = truth + rng.normal(0, 1, size=20)
        pred_b = truth + rng.normal(0, 2, size=20)
        ids = ["s"] * 20
        idx = list(range(20))

        def score(pred, truth):
            return total_score(
                rmse(pred, truth),
                trend_consistency_error(pred, truth, ids, idx),
                [1] * 4 + [0] * 6,
                W,
            ).total

        shift = 12.34
        assert (score(pred_a, truth) > score(pred_b, truth)) == (
            score(pred_a + shift, truth + shift)
            > score(pred_b + shift, truth + shift)
        )


class TestWeights:
    def test_negative_weight_rejected(self):
        with pytest.raises(ScoringError):
            ScoreWeights(lambda_c=-0.1)
        with pytest.raises(ScoringError):
            ScoreWeights(lambda_n=float("nan"))
