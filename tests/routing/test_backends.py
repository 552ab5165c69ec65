"""Tests for the routing-matrix storage backends (dense / sparse parity)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.routing import (
    DenseBackend,
    SparseBackend,
    build_routing_matrix,
    make_backend,
)
from repro.routing.backends import SPARSE_DENSITY_THRESHOLD, SPARSE_SIZE_THRESHOLD


@pytest.fixture(scope="module")
def europe():
    from repro.datasets import europe_scenario

    return europe_scenario()


@pytest.fixture(scope="module")
def europe_routing_pair(europe):
    """The europe routing matrix in both backends."""
    dense = europe.routing.with_backend("dense")
    sparse = europe.routing.with_backend("sparse")
    return dense, sparse


class TestSelection:
    def test_small_matrices_stay_dense(self, triangle_network):
        routing = build_routing_matrix(triangle_network)
        assert routing.backend_kind == "dense"

    def test_explicit_backend_is_honoured(self, triangle_network):
        sparse = build_routing_matrix(triangle_network, backend="sparse")
        dense = build_routing_matrix(triangle_network, backend="dense")
        assert sparse.backend_kind == "sparse"
        assert dense.backend_kind == "dense"

    def test_auto_picks_sparse_for_large_sparse_matrices(self):
        rows = 250
        cols = SPARSE_SIZE_THRESHOLD // rows + 1
        matrix = np.zeros((rows, cols))
        matrix[0, :] = 1.0  # density well below the threshold
        assert make_backend(matrix).kind == "sparse"

    def test_auto_keeps_dense_for_dense_matrices(self):
        rows = 250
        cols = SPARSE_SIZE_THRESHOLD // rows + 1
        density = min(1.0, 2 * SPARSE_DENSITY_THRESHOLD)
        rng = np.random.default_rng(7)
        matrix = (rng.random((rows, cols)) < density).astype(float)
        assert make_backend(matrix).kind == "dense"

    def test_unknown_backend_rejected(self, triangle_network):
        with pytest.raises(RoutingError):
            build_routing_matrix(triangle_network, backend="cuda")

    def test_entry_validation_applies_to_both_backends(self):
        bad = np.full((2, 2), 2.0)
        for backend in (DenseBackend(bad), SparseBackend(bad)):
            with pytest.raises(RoutingError):
                backend.validate_entries()


class TestOperatorParity:
    def test_link_loads_match(self, europe_routing_pair):
        dense, sparse = europe_routing_pair
        demands = np.linspace(0.0, 5.0, dense.num_pairs)
        np.testing.assert_allclose(
            dense.link_loads(demands), sparse.link_loads(demands), atol=1e-8
        )

    def test_transpose_products_match(self, europe_routing_pair):
        dense, sparse = europe_routing_pair
        loads = np.linspace(1.0, 2.0, dense.num_links)
        np.testing.assert_allclose(dense.rmatvec(loads), sparse.rmatvec(loads), atol=1e-8)
        block = np.outer(loads, np.arange(3.0))
        np.testing.assert_allclose(dense.rmatmat(block), sparse.rmatmat(block), atol=1e-8)

    def test_gram_and_dense_view_match(self, europe_routing_pair):
        dense, sparse = europe_routing_pair
        np.testing.assert_allclose(dense.gram(), sparse.gram(), atol=1e-8)
        np.testing.assert_allclose(dense.matrix, sparse.matrix, atol=0.0)

    def test_link_gram_matches_explicit_product(self, europe_routing_pair):
        dense, sparse = europe_routing_pair
        weights = np.linspace(0.0, 3.0, dense.num_pairs)
        expected = dense.matrix @ np.diag(weights) @ dense.matrix.T
        assert dense.link_gram(weights).shape == (dense.num_links, dense.num_links)
        np.testing.assert_allclose(dense.link_gram(weights), expected, atol=1e-9)
        np.testing.assert_allclose(sparse.link_gram(weights), expected, atol=1e-9)
        with pytest.raises(RoutingError):
            dense.link_gram(weights[:-1])

    def test_rank_and_path_lengths_match(self, europe_routing_pair):
        dense, sparse = europe_routing_pair
        assert dense.rank() == sparse.rank()
        np.testing.assert_allclose(dense.path_lengths(), sparse.path_lengths(), atol=1e-12)

    def test_rows_and_columns_match(self, europe_routing_pair):
        dense, sparse = europe_routing_pair
        name = dense.link_names[0]
        pair = dense.pairs[-1]
        np.testing.assert_allclose(dense.link_row(name), sparse.link_row(name))
        np.testing.assert_allclose(dense.pair_column(pair), sparse.pair_column(pair))


def _link_gram_weights(kind, num_pairs):
    """Per-pair weights shaped like the Newton solvers' Hessian weights."""
    rng = np.random.default_rng(5)
    if kind == "zeros":
        return np.zeros(num_pairs)
    if kind == "active-set":  # the Bayesian solver's 0/(1/w) mask
        return 1000.0 * (rng.random(num_pairs) < 0.6)
    return rng.lognormal(mean=2.0, sigma=3.0, size=num_pairs)  # entropy's p * exp(R'y)


class TestLinkGram:
    """``R diag(d) R'`` on the paper's three backbones, in both backends."""

    @pytest.fixture(scope="class", params=["europe", "abilene", "america"])
    def routing_pair(self, request):
        from repro import datasets

        routing = getattr(datasets, f"{request.param}_scenario")().routing
        return routing.with_backend("dense"), routing.with_backend("sparse")

    @pytest.mark.parametrize("kind", ["zeros", "active-set", "positive"])
    def test_matches_explicit_product_in_both_backends(self, routing_pair, kind):
        dense, sparse = routing_pair
        weights = _link_gram_weights(kind, dense.num_pairs)
        expected = (dense.matrix * weights) @ dense.matrix.T
        scale = max(1.0, float(np.abs(expected).max()))
        for routing in (dense, sparse):
            product = routing.link_gram(weights)
            assert isinstance(product, np.ndarray)
            assert product.shape == (dense.num_links, dense.num_links)
            np.testing.assert_allclose(product, expected, rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_array_equal(product, product.T)

    def test_sparse_product_never_densifies(self, monkeypatch):
        from repro.datasets import america_scenario

        sparse = america_scenario().routing.with_backend("sparse")
        expected = sparse.link_gram(np.ones(sparse.num_pairs))

        def refuse(self):
            raise AssertionError("link_gram densified the sparse routing matrix")

        monkeypatch.setattr(SparseBackend, "toarray", refuse)
        np.testing.assert_allclose(sparse.link_gram(np.ones(sparse.num_pairs)), expected)


class TestEstimateParity:
    """Acceptance criterion: dense and sparse estimates agree on europe."""

    def _problem(self, scenario, routing):
        """Problem with backend-independent observables.

        The link loads are computed once from the dense backend so both
        problems see bit-identical inputs; any estimate difference is then
        attributable to the backend itself (matvec rounding differences in
        the inputs would otherwise be amplified by iterative solvers).
        """
        from repro.estimation import EstimationProblem

        truth = scenario.busy_mean_matrix()
        loads = scenario.routing.with_backend("dense").link_loads(truth.vector)
        return EstimationProblem(
            routing=routing,
            link_loads=loads,
            origin_totals=truth.origin_totals(),
            destination_totals=truth.destination_totals(),
        )

    # The sparse paths no longer densify (they run CSR operator products
    # end to end), so iterative solvers agree with the dense path to
    # solver tolerance rather than bit for bit; closed-form methods stay
    # essentially exact.
    @pytest.mark.parametrize("method,params,rtol", [
        ("gravity", {}, 1e-12),
        ("kruithof", {}, 1e-12),
        ("bayesian", {"regularization": 1000.0, "prior": "gravity"}, 1e-6),
        ("entropy", {"regularization": 1000.0, "prior": "gravity"}, 1e-4),
    ])
    def test_estimates_identical_across_backends(
        self, europe, europe_routing_pair, method, params, rtol
    ):
        from repro.estimation import get_estimator

        dense, sparse = europe_routing_pair
        dense_result = get_estimator(method, **params).estimate(self._problem(europe, dense))
        sparse_result = get_estimator(method, **params).estimate(self._problem(europe, sparse))
        np.testing.assert_allclose(
            dense_result.vector, sparse_result.vector, rtol=rtol, atol=1e-6
        )

    def test_worst_case_bounds_identical_across_backends(self, europe, europe_routing_pair):
        from repro.estimation import get_estimator

        dense, sparse = europe_routing_pair
        subset = dense.pairs[:4]
        dense_result = get_estimator("worst-case-bounds", pairs=subset).estimate(
            self._problem(europe, dense)
        )
        sparse_result = get_estimator("worst-case-bounds", pairs=subset).estimate(
            self._problem(europe, sparse)
        )
        np.testing.assert_allclose(dense_result.vector, sparse_result.vector, atol=1e-6)
