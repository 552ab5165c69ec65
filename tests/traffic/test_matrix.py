"""Tests for TrafficMatrix and TrafficMatrixSeries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrafficError
from repro.topology import NodePair
from repro.traffic import TrafficMatrix, TrafficMatrixSeries


PAIRS = (
    NodePair("A", "B"),
    NodePair("B", "A"),
    NodePair("A", "C"),
    NodePair("C", "A"),
    NodePair("B", "C"),
    NodePair("C", "B"),
)


def matrix(values) -> TrafficMatrix:
    return TrafficMatrix(PAIRS, values)


class TestConstruction:
    def test_basic_access(self):
        tm = matrix([10, 20, 30, 0, 5, 5])
        assert tm.total == pytest.approx(70)
        assert tm.demand(NodePair("A", "C")) == 30
        assert tm[NodePair("B", "A")] == 20
        assert len(tm) == 6
        assert dict(iter(tm))[NodePair("B", "C")] == 5

    def test_negative_values_rejected(self):
        with pytest.raises(TrafficError):
            matrix([1, 2, 3, 4, 5, -1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(TrafficError):
            TrafficMatrix(PAIRS, [1, 2])

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(TrafficError):
            TrafficMatrix((NodePair("A", "B"), NodePair("A", "B")), [1, 2])

    def test_duplicate_pairs_rejected_on_every_construction(self):
        # The pair index is memoised per tuple; the check must not be.
        pairs = (NodePair("A", "B"), NodePair("B", "A"), NodePair("A", "B"))
        for _ in range(3):
            with pytest.raises(TrafficError, match="duplicate"):
                TrafficMatrix(pairs, [1, 2, 3])

    def test_matrices_over_one_tuple_share_one_index(self):
        first = TrafficMatrix(PAIRS, np.arange(6.0))
        second = first.with_values(np.ones(6))
        third = TrafficMatrix(PAIRS, [0, 1, 2, 3, 4, 5])
        assert first._order.index is second._order.index is third._order.index
        assert first.origin_names() is third.origin_names()

    def test_ndarray_values_are_copied(self):
        values = np.arange(6, dtype=np.float32)
        tm = TrafficMatrix(PAIRS, values)
        values[0] = 99.0
        assert tm.vector[0] == 0.0
        assert tm.vector.dtype == np.float64
        assert not tm.vector.flags.writeable

    def test_from_mapping_fills_missing_with_zero(self):
        tm = TrafficMatrix.from_mapping(PAIRS, {NodePair("A", "B"): 7.0})
        assert tm.demand(NodePair("A", "B")) == 7.0
        assert tm.demand(NodePair("C", "B")) == 0.0

    def test_from_mapping_strict_rejects_unknown_pairs(self):
        with pytest.raises(TrafficError):
            TrafficMatrix.from_mapping(PAIRS[:2], {NodePair("A", "C"): 1.0}, strict=True)

    def test_zeros_and_unknown_pair_lookup(self):
        tm = TrafficMatrix.zeros(PAIRS)
        assert tm.total == 0.0
        with pytest.raises(TrafficError):
            tm.demand(NodePair("X", "Y"))

    def test_vector_is_read_only(self):
        tm = matrix([1, 2, 3, 4, 5, 6])
        with pytest.raises(ValueError):
            tm.vector[0] = 99.0

    def test_round_trip_mapping(self):
        tm = matrix([1, 2, 3, 4, 5, 6])
        rebuilt = TrafficMatrix.from_mapping(PAIRS, tm.to_mapping())
        assert np.allclose(rebuilt.vector, tm.vector)


class TestAggregates:
    def test_origin_and_destination_totals(self):
        tm = matrix([10, 20, 30, 0, 5, 5])
        assert tm.origin_totals() == {"A": 40, "B": 25, "C": 5}
        assert tm.destination_totals() == {"B": 15, "A": 20, "C": 35}

    def test_dense_view(self):
        tm = matrix([10, 20, 30, 0, 5, 5])
        names, dense = tm.to_dense()
        index = {name: i for i, name in enumerate(names)}
        assert dense[index["A"], index["B"]] == 10
        assert dense[index["C"], index["A"]] == 0
        assert np.trace(dense) == 0.0

    def test_distribution_sums_to_one(self):
        tm = matrix([10, 20, 30, 0, 5, 5])
        assert tm.as_distribution().sum() == pytest.approx(1.0)

    def test_distribution_of_zero_matrix_rejected(self):
        with pytest.raises(TrafficError):
            TrafficMatrix.zeros(PAIRS).as_distribution()

    def test_fanouts_sum_to_one_per_origin(self):
        tm = matrix([10, 20, 30, 0, 5, 5])
        fanouts = tm.fanouts()
        for origin in ("A", "B", "C"):
            share = sum(v for pair, v in fanouts.items() if pair.origin == origin)
            assert share == pytest.approx(1.0)

    def test_fanouts_of_zero_origin_are_uniform(self):
        tm = matrix([0, 20, 0, 0, 5, 5])
        fanouts = tm.fanouts()
        assert fanouts[NodePair("A", "B")] == pytest.approx(0.5)
        assert fanouts[NodePair("A", "C")] == pytest.approx(0.5)

    def test_fanout_vector_matches_mapping(self):
        tm = matrix([10, 20, 30, 0, 5, 5])
        vector = tm.fanout_vector()
        fanouts = tm.fanouts()
        assert np.allclose(vector, [fanouts[pair] for pair in PAIRS])


    def test_vectorised_views_equal_the_loop_reference(self):
        # Same additions in the same order as a per-pair Python loop, so
        # the results must be bit-identical, zero-traffic origins included.
        names = ("A", "B", "C", "D", "E")
        pairs = tuple(NodePair(a, b) for a in names for b in names if a != b)
        values = np.random.default_rng(5).random(len(pairs)) * 100.0
        values[[pair.origin == "C" for pair in pairs]] = 0.0
        tm = TrafficMatrix(pairs, values)

        origin_totals = {name: 0.0 for name in names}
        destination_totals = {name: 0.0 for name in names}
        for pair, value in zip(pairs, values):
            origin_totals[pair.origin] += float(value)
            destination_totals[pair.destination] += float(value)
        fanouts = {
            pair: float(value) / origin_totals[pair.origin]
            if origin_totals[pair.origin] > 0
            else 1.0 / (len(names) - 1)
            for pair, value in zip(pairs, values)
        }
        dense = np.zeros((len(names), len(names)))
        for pair, value in zip(pairs, values):
            dense[names.index(pair.origin), names.index(pair.destination)] = value

        assert tm.origin_totals() == origin_totals
        assert tm.destination_totals() == destination_totals
        assert tm.fanouts() == fanouts
        assert tm.fanout_vector().tolist() == [fanouts[pair] for pair in pairs]
        assert tm.to_dense()[0] == names
        np.testing.assert_array_equal(tm.to_dense()[1], dense)


class TestRankingHelpers:
    def test_top_demands(self):
        tm = matrix([10, 20, 30, 0, 5, 5])
        assert tm.top_demands(2) == (NodePair("A", "C"), NodePair("B", "A"))
        with pytest.raises(TrafficError):
            tm.top_demands(-1)

    def test_threshold_for_traffic_fraction(self):
        tm = matrix([50, 30, 10, 5, 3, 2])
        threshold = tm.threshold_for_traffic_fraction(0.8)
        retained = [v for v in tm.vector if v >= threshold]
        assert sum(retained) >= 0.8 * tm.total
        with pytest.raises(TrafficError):
            tm.threshold_for_traffic_fraction(0.0)

    def test_demands_above(self):
        tm = matrix([50, 30, 10, 5, 3, 2])
        assert set(tm.demands_above(9)) == {NodePair("A", "B"), NodePair("B", "A"), NodePair("A", "C")}

    def test_cumulative_distribution_is_monotone(self):
        tm = matrix([50, 30, 10, 5, 3, 2])
        ranks, cumulative = tm.cumulative_distribution()
        assert ranks[-1] == pytest.approx(1.0)
        assert cumulative[-1] == pytest.approx(1.0)
        assert np.all(np.diff(cumulative) >= 0)


class TestArithmetic:
    def test_scaled(self):
        tm = matrix([1, 2, 3, 4, 5, 6]).scaled(2.0)
        assert tm.total == pytest.approx(42)
        with pytest.raises(TrafficError):
            tm.scaled(-1.0)

    def test_addition_requires_same_pairs(self):
        a = matrix([1, 2, 3, 4, 5, 6])
        b = matrix([6, 5, 4, 3, 2, 1])
        assert np.allclose((a + b).vector, 7.0)
        other = TrafficMatrix(PAIRS[:2], [1, 1])
        with pytest.raises(TrafficError):
            a + other

    def test_with_values(self):
        tm = matrix([1, 2, 3, 4, 5, 6]).with_values([0, 0, 0, 0, 0, 1])
        assert tm.total == 1.0


class TestSeries:
    def build_series(self, num=5) -> TrafficMatrixSeries:
        snapshots = [matrix(np.arange(6) + k) for k in range(num)]
        return TrafficMatrixSeries(snapshots, interval_seconds=300.0, start_time_seconds=600.0)

    def test_basic_properties(self):
        series = self.build_series()
        assert len(series) == 5
        assert series[0].total == pytest.approx(15)
        assert series.as_array().shape == (5, 6)
        assert np.allclose(series.timestamps(), 600 + 300 * np.arange(5))

    def test_empty_series_rejected(self):
        with pytest.raises(TrafficError):
            TrafficMatrixSeries([])

    def test_inconsistent_pairs_rejected(self):
        bad = TrafficMatrix(PAIRS[:2], [1, 1])
        with pytest.raises(TrafficError):
            TrafficMatrixSeries([matrix([1] * 6), bad])

    def test_non_positive_interval_rejected(self):
        with pytest.raises(TrafficError):
            TrafficMatrixSeries([matrix([1] * 6)], interval_seconds=0.0)

    def test_statistics(self):
        series = self.build_series()
        assert np.allclose(series.demand_means(), np.arange(6) + 2)
        assert np.allclose(series.demand_variances(), 2.0)
        assert np.allclose(series.mean_matrix().vector, np.arange(6) + 2)
        assert np.allclose(series.total_traffic_series(), [15, 21, 27, 33, 39])

    def test_fanout_series_rows_sum_to_origin_count(self):
        series = self.build_series()
        fanouts = series.fanout_series()
        # Three origins, each with fanouts summing to one -> row sums to 3.
        assert np.allclose(fanouts.sum(axis=1), 3.0)

    def test_window_and_busy_window(self):
        series = self.build_series()
        window = series.window(1, 2)
        assert len(window) == 2
        assert window.start_time_seconds == pytest.approx(900.0)
        busy = series.busy_window(2)
        # Totals increase monotonically, so the busy window is the last two.
        assert np.allclose(busy.total_traffic_series(), [33, 39])

    def test_window_bounds_checked(self):
        series = self.build_series()
        with pytest.raises(TrafficError):
            series.window(4, 3)
        with pytest.raises(TrafficError):
            series.window(0, 0)
        with pytest.raises(TrafficError):
            series.busy_window(10)
        with pytest.raises(TrafficError):
            series.busy_window(0)
