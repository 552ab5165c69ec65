"""Tests for EstimationProblem / EstimationResult / Estimator plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimation import EstimationProblem, Estimator
from repro.routing import build_routing_matrix
from repro.topology import NodePair
from repro.traffic import TrafficMatrix


class TestEstimationProblem:
    def test_snapshot_problem_basics(self, line_network):
        routing = build_routing_matrix(line_network)
        traffic = TrafficMatrix.from_network(line_network, {NodePair("A", "D"): 10.0})
        loads = routing.link_loads(traffic.vector)
        problem = EstimationProblem(routing=routing, link_loads=loads)
        assert problem.num_pairs == routing.num_pairs
        assert problem.num_snapshots == 1
        assert np.allclose(problem.snapshot, loads)
        with pytest.raises(EstimationError):
            _ = problem.series

    def test_series_problem_defaults_snapshot_to_mean(self, line_network):
        routing = build_routing_matrix(line_network)
        series = np.stack([np.ones(routing.num_links), 3 * np.ones(routing.num_links)])
        problem = EstimationProblem(routing=routing, link_load_series=series)
        assert problem.num_snapshots == 2
        assert np.allclose(problem.snapshot, 2.0)

    def test_requires_some_load_information(self, triangle_routing):
        with pytest.raises(EstimationError):
            EstimationProblem(routing=triangle_routing)

    def test_shape_validation(self, triangle_routing):
        with pytest.raises(EstimationError):
            EstimationProblem(routing=triangle_routing, link_loads=np.ones(3))
        with pytest.raises(EstimationError):
            EstimationProblem(routing=triangle_routing, link_load_series=np.ones((2, 3)))
        with pytest.raises(EstimationError):
            EstimationProblem(
                routing=triangle_routing,
                link_loads=np.ones(triangle_routing.num_links),
                origin_totals_series=np.ones((2, 3)),
            )

    def test_negative_loads_rejected(self, triangle_routing):
        with pytest.raises(EstimationError):
            EstimationProblem(
                routing=triangle_routing, link_loads=-np.ones(triangle_routing.num_links)
            )

    def test_total_traffic_from_origin_totals(self, triangle_routing):
        problem = EstimationProblem(
            routing=triangle_routing,
            link_loads=np.ones(triangle_routing.num_links),
            origin_totals={"A": 5.0, "B": 3.0, "C": 2.0},
        )
        assert problem.total_traffic() == pytest.approx(10.0)

    def test_total_traffic_fallback_uses_path_lengths(self, triangle_network, triangle_routing):
        traffic = TrafficMatrix.from_network(
            triangle_network, {NodePair("A", "B"): 6.0, NodePair("B", "C"): 4.0}
        )
        loads = triangle_routing.link_loads(traffic.vector)
        problem = EstimationProblem(routing=triangle_routing, link_loads=loads)
        # Every pair is a single hop in the triangle, so the fallback is exact.
        assert problem.total_traffic() == pytest.approx(10.0)

    def test_augmented_system_adds_total_rows(self, line_network):
        routing = build_routing_matrix(line_network)
        traffic = TrafficMatrix.from_network(
            line_network, {NodePair("A", "D"): 10.0, NodePair("D", "A"): 4.0}
        )
        problem = EstimationProblem(
            routing=routing,
            link_loads=routing.link_loads(traffic.vector),
            origin_totals=traffic.origin_totals(),
            destination_totals=traffic.destination_totals(),
        )
        matrix, rhs = problem.augmented_system()
        num_origins = len(set(p.origin for p in routing.pairs))
        num_destinations = len(set(p.destination for p in routing.pairs))
        assert matrix.shape[0] == routing.num_links + num_origins + num_destinations
        # The augmented system must be consistent with the true demands.
        assert np.allclose(matrix @ traffic.vector, rhs)

    def test_with_snapshot_replaces_loads(self, triangle_routing):
        problem = EstimationProblem(
            routing=triangle_routing, link_loads=np.ones(triangle_routing.num_links)
        )
        replaced = problem.with_snapshot(2 * np.ones(triangle_routing.num_links))
        assert np.allclose(replaced.snapshot, 2.0)
        assert np.allclose(problem.snapshot, 1.0)


class _ConstantEstimator(Estimator):
    name = "constant"

    def __init__(self, value: float, wrong_shape: bool = False) -> None:
        self.value = value
        self.wrong_shape = wrong_shape

    def estimate(self, problem, *, start=None):
        size = problem.num_pairs + (1 if self.wrong_shape else 0)
        return self._result(problem, np.full(size, self.value), note=1.0)


class TestEstimatorBase:
    def test_result_packaging(self, triangle_routing):
        problem = EstimationProblem(
            routing=triangle_routing, link_loads=np.ones(triangle_routing.num_links)
        )
        result = _ConstantEstimator(2.0)(problem)
        assert result.method == "constant"
        assert result.diagnostics == {"note": 1.0}
        assert np.allclose(result.vector, 2.0)
        assert result.residual_norm(problem) > 0

    def test_wrong_shape_rejected(self, triangle_routing):
        problem = EstimationProblem(
            routing=triangle_routing, link_loads=np.ones(triangle_routing.num_links)
        )
        with pytest.raises(EstimationError):
            _ConstantEstimator(1.0, wrong_shape=True).estimate(problem)

    def test_negative_estimates_are_clipped(self, triangle_routing):
        problem = EstimationProblem(
            routing=triangle_routing, link_loads=np.ones(triangle_routing.num_links)
        )
        result = _ConstantEstimator(-1.0).estimate(problem)
        assert np.all(result.vector == 0.0)
