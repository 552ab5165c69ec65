"""Tests for the certified QP solver and equality-constrained least squares."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import telemetry
from repro.errors import BudgetExceededError, SolverError
from repro.optimize import equality_constrained_least_squares, nnls_active_set, solve_qp
from repro.resilience import SolverBudget


class TestEqualityConstrainedLS:
    def test_constraint_satisfied_exactly(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(10, 4))
        b = rng.normal(size=10)
        E = np.ones((1, 4))
        f = np.array([1.0])
        result = equality_constrained_least_squares(A, b, E, f)
        assert result.equality_violation < 1e-8
        assert result.x.sum() == pytest.approx(1.0, abs=1e-8)

    def test_reduces_to_least_squares_without_binding_constraint(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(12, 3))
        x_true = np.array([1.0, 2.0, 3.0])
        b = A @ x_true
        E = np.array([[1.0, 1.0, 1.0]])
        f = np.array([6.0])  # already satisfied by the LS solution
        result = equality_constrained_least_squares(A, b, E, f)
        assert np.allclose(result.x, x_true, atol=1e-8)
        assert result.residual_norm < 1e-8

    def test_shape_validation(self):
        with pytest.raises(SolverError):
            equality_constrained_least_squares(np.ones((3, 2)), np.ones(3), np.ones((1, 3)), np.ones(1))
        with pytest.raises(SolverError):
            equality_constrained_least_squares(np.ones((3, 2)), np.ones(2), np.ones((1, 2)), np.ones(1))


def certified(solution, h):
    return solution.optimality <= 1e-10 * float(np.abs(h).max())


def support_enumeration(G, h, E, f):
    """Exact minimiser of a tiny QP: the best non-negative KKT point over all supports."""
    num_vars = len(h)
    best, best_value = None, np.inf
    for size in range(1, num_vars + 1):
        for support in itertools.combinations(range(num_vars), size):
            index = list(support)
            kkt = np.block(
                [
                    [G[np.ix_(index, index)], E[:, index].T],
                    [E[:, index], np.zeros((len(f), len(f)))],
                ]
            )
            try:
                solution = np.linalg.solve(kkt, np.concatenate([h[index], f]))
            except np.linalg.LinAlgError:
                continue
            if np.any(solution[: len(index)] < -1e-12):
                continue
            x = np.zeros(num_vars)
            x[index] = solution[: len(index)]
            value = 0.5 * x @ G @ x - h @ x
            if value < best_value:
                best, best_value = x, value
    return best


class TestSolveQP:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lawson_hanson_on_overdetermined_problems(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(30, 12))
        b = rng.normal(size=30)
        reference = nnls_active_set(A, b)
        solution = solve_qp(A.T @ A, A.T @ b)
        assert solution.converged
        assert certified(solution, A.T @ b)
        np.testing.assert_allclose(solution.x, reference.x, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lawson_hanson_residual_with_singular_gram(self, seed):
        # More columns than rows: R'R is singular, as on a routing matrix
        # with more pairs than links, and the minimiser need not be unique.
        rng = np.random.default_rng(100 + seed)
        A = (rng.random((8, 20)) < 0.4).astype(float)
        b = A @ (rng.random(20) * 5.0) + rng.normal(scale=0.5, size=8)
        reference = nnls_active_set(A, b)
        solution = solve_qp(A.T @ A, A.T @ b)
        assert np.all(solution.x >= 0)
        assert certified(solution, A.T @ b)
        assert np.linalg.norm(A @ solution.x - b) == pytest.approx(
            reference.residual_norm, rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_equality_constraints_hold_exactly(self, seed):
        rng = np.random.default_rng(200 + seed)
        A = rng.normal(size=(15, 6))
        b = rng.normal(size=15)
        E = np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]])
        f = np.array([1.0, 2.0])
        G, h = A.T @ A, A.T @ b
        solution = solve_qp(G, h, E, f)
        assert np.max(np.abs(E @ solution.x - f)) <= 1e-12
        assert np.all(solution.x >= 0)
        assert certified(solution, h)
        np.testing.assert_allclose(solution.x, support_enumeration(G, h, E, f), atol=1e-9)

    def test_interior_solution_is_the_unconstrained_minimiser(self):
        rng = np.random.default_rng(3)
        root = rng.normal(size=(6, 6))
        G = root.T @ root + np.eye(6)
        x_true = np.abs(rng.normal(size=6)) + 0.5
        solution = solve_qp(G, G @ x_true)
        np.testing.assert_allclose(solution.x, x_true, rtol=1e-10)

    def test_clamps_at_zero_when_unconstrained_solution_negative(self):
        solution = solve_qp(np.eye(2), np.array([-1.0, 2.0]))
        assert solution.x[0] == 0.0
        assert solution.x[1] == pytest.approx(2.0, rel=1e-12)
        assert solution.optimality == pytest.approx(0.0, abs=1e-12)

    def test_iteration_cap_reports_unconverged(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(40, 25))
        b = rng.normal(size=40)
        capped = solve_qp(A.T @ A, A.T @ b, max_iterations=1)
        full = solve_qp(A.T @ A, A.T @ b)
        assert capped.converged is False
        assert full.converged is True
        assert capped.iterations < full.iterations
        assert capped.optimality > 1e-10 * float(np.abs(A.T @ b).max())

    def test_start_at_the_optimum_costs_no_iterations(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(30, 15))
        b = rng.normal(size=30)
        G, h = A.T @ A, A.T @ b
        cold = solve_qp(G, h)
        warm = solve_qp(G, h, start=cold.x)
        assert cold.iterations > 0
        assert warm.iterations == 0
        assert warm.converged
        assert certified(warm, h)
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-12)

    def test_start_on_the_wrong_support_falls_back_to_the_solver(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(30, 15))
        b = rng.normal(size=30)
        G, h = A.T @ A, A.T @ b
        cold = solve_qp(G, h)
        warm = solve_qp(G, h, start=np.ones(15))
        assert warm.iterations > 0
        assert certified(warm, h)
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-9)

    @pytest.mark.parametrize(
        "arguments",
        [
            {"G": np.ones((2, 3)), "h": np.ones(2)},
            {"G": np.eye(2), "h": np.ones(3)},
            {"G": np.array([[1.0, 2.0], [0.0, 1.0]]), "h": np.ones(2)},
            {"G": np.eye(2), "h": np.ones(2), "E": np.ones((1, 2))},
            {"G": np.eye(2), "h": np.ones(2), "E": np.ones((1, 3)), "f": np.ones(1)},
            {"G": np.eye(2), "h": np.ones(2), "E": np.ones((1, 2)), "f": np.ones(2)},
            {"G": np.eye(2), "h": np.ones(2), "max_iterations": 0},
            {"G": np.eye(2), "h": np.ones(2), "start": np.ones(3)},
        ],
    )
    def test_validation(self, arguments):
        with pytest.raises(SolverError):
            solve_qp(**arguments)

    def test_infeasible_equality_raises(self):
        with pytest.raises(SolverError, match="infeasible"):
            solve_qp(np.eye(3), np.ones(3), np.ones((1, 3)), np.array([-1.0]))

    def test_iterations_are_charged_to_the_budget(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(30, 15))
        b = rng.normal(size=30)
        with SolverBudget(max_iterations=1):
            with pytest.raises(BudgetExceededError):
                solve_qp(A.T @ A, A.T @ b)

    def test_solve_opens_a_span_with_its_iterations(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(30, 15))
        b = rng.normal(size=30)
        telemetry.enable()
        try:
            with telemetry.capture() as spans:
                solution = solve_qp(A.T @ A, A.T @ b)
        finally:
            telemetry.disable()
            telemetry.reset_metrics()
        (record,) = [span for span in spans if span.name == "solver.qp"]
        assert record.attributes["iterations"] == solution.iterations > 0
        assert record.attributes["converged"] is True


# ----------------------------------------------------------------------
# the estimators' certificates on the paper's backbones
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=["europe", "america", "abilene"])
def backbone(request):
    from repro import datasets

    return getattr(datasets, f"{request.param}_scenario")()


class TestEstimatorCertificates:
    """``optimality <= 1e-10 * ||h||_inf`` for each QP-backed fit."""

    def test_vardi(self, backbone):
        from repro.estimation import get_estimator, link_load_moments

        problem = backbone.series_problem(window_length=50)
        diagnostics = get_estimator("vardi", poisson_weight=0.01).estimate(problem).diagnostics
        mean, covariance = link_load_moments(problem.series)
        routing = problem.routing
        h = routing.rmatvec(mean) + 0.01 * np.einsum(
            "lp,lp->p", routing.matrix, routing.rmatmat(covariance).T
        )
        assert diagnostics["converged"] is True
        assert diagnostics["optimality"] <= 1e-10 * float(np.abs(h).max())

    def test_fanout(self, backbone):
        from repro.estimation import FanoutEstimator

        problem = backbone.series_problem(window_length=10)
        estimator = FanoutEstimator()
        diagnostics = estimator.estimate(problem).diagnostics
        origins, _, origin_col, _ = problem.pair_positions()
        scaling = estimator._origin_totals_series(problem, 10, origins)[:, origin_col]
        h = np.einsum("kp,pk->p", scaling, problem.routing.rmatmat(problem.series.T))
        assert diagnostics["converged"] is True
        assert diagnostics["equality_violation"] <= 1e-12
        assert diagnostics["optimality"] <= 1e-10 * float(np.abs(h).max())

    def test_cao_seed(self, backbone):
        from repro.estimation import CaoEstimator

        problem = backbone.series_problem()
        estimator = CaoEstimator(prior=np.zeros(problem.num_pairs), max_iterations=1)
        diagnostics = estimator.estimate(problem).diagnostics
        h = problem.routing.rmatvec(problem.series.mean(axis=0))
        assert diagnostics["seed_optimality"] <= 1e-10 * float(np.abs(h).max())
