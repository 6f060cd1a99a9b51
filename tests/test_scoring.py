from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plselect.scoring import (
    ScoreWeights,
    ScoringError,
    route_order,
    total_score,
)
from reference_scoring import reference_route_order, trend_consistency_error

W = ScoreWeights(lambda_c=0.3, lambda_n=0.3)


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


class TestRouteOrder:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from("abcd"),
                                   st.integers(-3, 5)), max_size=30))
    def test_matches_per_scenario_sort(self, rows):
        ids = [sid for sid, _ in rows]
        route = [r for _, r in rows]
        want_order, want_same = reference_route_order(ids, route)
        if not want_same.any():
            with pytest.raises(ScoringError):
                route_order(ids, route)
            return
        order, same = route_order(np.array(ids), np.array(route))
        np.testing.assert_array_equal(order, want_order)
        np.testing.assert_array_equal(same, want_same)


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
        assert bd.mask == (1, 0, 1, 0, 0, 0, 0, 0, 0, 0)
        assert bd.score == bd.total
        expected = -(bd.rmse + W.lambda_c * bd.trend_error
                     + W.lambda_n * bd.cardinality / 10)
        assert bd.total == pytest.approx(expected, abs=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ScoringError):
            total_score(-1.0, 0.0, [1] * 10, W)
        with pytest.raises(ScoringError):
            total_score(0.0, -1.0, [1] * 10, W)

    def test_empty_mask_rejected(self):
        with pytest.raises(ScoringError):
            total_score(1.0, 1.0, [0] * 10, W)

    def test_penalty_divides_by_mask_width(self):
        for width in (5, 10, 24, 40):
            bd = total_score(1.0, 1.0, [1] * 3 + [0] * (width - 3),
                             ScoreWeights())
            assert bd.cardinality == 3
            assert bd.total == -(1.0 + 0.3 * 1.0 + 0.3 * 3 / width)

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
                np.sqrt(np.mean((pred - truth) ** 2)),
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
    def test_fields_are_the_two_weights(self):
        assert [f.name for f in fields(ScoreWeights)] == ["lambda_c",
                                                          "lambda_n"]

    @pytest.mark.parametrize("n", [10, 24])
    def test_n_features_is_accepted_and_ignored(self, n):
        assert ScoreWeights(n_features=n) == ScoreWeights()
        mask = [1] * 6 + [0] * 18
        assert (total_score(1.0, 1.0, mask, ScoreWeights(n_features=n))
                == total_score(1.0, 1.0, mask, ScoreWeights()))

    def test_replace_keeps_the_weights(self):
        # As config loading rebuilds its weights section.
        assert (replace(ScoreWeights(n_features=24), lambda_c=0.1)
                == replace(ScoreWeights(), lambda_c=0.1)
                == ScoreWeights(lambda_c=0.1))

    def test_negative_weight_rejected(self):
        with pytest.raises(ScoringError):
            ScoreWeights(lambda_c=-0.1)
        with pytest.raises(ScoringError):
            ScoreWeights(lambda_n=float("nan"))
