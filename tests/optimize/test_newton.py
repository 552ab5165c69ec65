"""Tests for the damped-Newton driver behind the link-space dual solvers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BudgetExceededError, SolverError
from repro.optimize import newton_minimize
from repro.resilience.budget import SolverBudget, budget_tick


def quadratic(matrix, rhs):
    """``y' A y / 2 - b' y`` with its gradient; the primal is ``y`` itself."""

    def evaluate(y):
        budget_tick()
        gradient = matrix @ y - rhs
        return float(0.5 * y @ matrix @ y - rhs @ y), gradient, y

    return evaluate, lambda _: matrix


class TestNewtonMinimize:
    def test_quadratic_needs_one_step(self):
        matrix = np.array([[4.0, 1.0], [1.0, 3.0]])
        rhs = np.array([1.0, 2.0])
        evaluate, hessian = quadratic(matrix, rhs)
        result = newton_minimize(evaluate, hessian, np.zeros(2))
        assert result.converged and result.iterations == 1
        np.testing.assert_allclose(result.y, np.linalg.solve(matrix, rhs))
        assert result.optimality < 1e-12

    def test_smooth_exponential_dual(self):
        # sum(exp(y)) - t'y + |y|^2 / 2: minimiser solves exp(y) + y = t.
        target = np.array([0.5, 2.0, 10.0])

        def evaluate(y):
            values = np.exp(y)
            return float(values.sum() - target @ y + 0.5 * y @ y), values - target + y, values

        result = newton_minimize(evaluate, lambda values: np.diag(values + 1.0), np.zeros(3))
        assert result.converged
        # The decrement stop at rounding level of the objective leaves a
        # gradient of order sqrt(eps) relative.
        np.testing.assert_allclose(np.exp(result.y) + result.y, target, rtol=1e-7)

    def test_semismooth_projection(self):
        # |y|^2 / 2 + |max(0, p + y)|^2 / 2 - t'y: generalised Hessian over
        # the active set, exact after the active set settles.
        prior = np.array([1.0, -2.0, 0.5])
        target = np.array([3.0, 0.1, -1.0])

        def evaluate(y):
            primal = np.maximum(prior + y, 0.0)
            value = 0.5 * y @ y + 0.5 * primal @ primal - target @ y
            return float(value), y + primal - target, primal

        result = newton_minimize(
            evaluate, lambda primal: np.eye(3) + np.diag(primal > 0), np.zeros(3)
        )
        assert result.converged
        # KKT of min |x - t|^2/2 + |x - p|^2/2 over x >= 0: x = max(0, (t + p) / 2)
        np.testing.assert_allclose(result.primal, np.maximum(0.0, (target + prior) / 2))

    def test_iteration_cap_is_reported(self):
        target = np.array([50.0])

        def evaluate(y):
            return float(np.exp(y[0]) - target @ y), np.exp(y) - target, np.exp(y)

        result = newton_minimize(
            evaluate, lambda values: np.diag(values), np.zeros(1), max_iterations=1
        )
        assert result.iterations == 1 and not result.converged
        assert result.optimality > 0.0

    def test_every_evaluation_ticks_the_budget(self):
        evaluate, hessian = quadratic(np.eye(2), np.ones(2))
        with pytest.raises(BudgetExceededError):
            with SolverBudget(max_iterations=1):
                newton_minimize(evaluate, hessian, np.zeros(2))

    def test_indefinite_hessian_raises(self):
        evaluate, _ = quadratic(np.eye(2), np.ones(2))
        with pytest.raises(SolverError):
            newton_minimize(evaluate, lambda _: -np.eye(2), np.zeros(2))

    def test_parameter_validation(self):
        evaluate, hessian = quadratic(np.eye(2), np.ones(2))
        with pytest.raises(SolverError):
            newton_minimize(evaluate, hessian, np.zeros(2), max_iterations=0)
        with pytest.raises(SolverError):
            newton_minimize(lambda y: (np.inf, y, y), hessian, np.zeros(2))

    def test_optimal_start_takes_no_step(self):
        matrix = np.array([[2.0, 0.5], [0.5, 1.0]])
        rhs = np.array([1.0, -1.0])
        evaluate, hessian = quadratic(matrix, rhs)
        optimum = np.linalg.solve(matrix, rhs)
        result = newton_minimize(evaluate, hessian, optimum)
        assert result.converged and result.iterations == 0
        np.testing.assert_array_equal(result.y, optimum)

    def test_line_search_backtracks_from_overflow(self):
        # exp(y) - 50 y from y = -20: the full Newton step lands near
        # y = 2.4e10, where the objective overflows; damping recovers.
        target = 50.0

        def evaluate(y):
            with np.errstate(over="ignore"):
                values = np.exp(y)
            return float(values.sum() - target * y.sum()), values - target, values

        result = newton_minimize(evaluate, lambda values: np.diag(values), np.array([-20.0]))
        assert result.converged
        np.testing.assert_allclose(result.y, [np.log(target)], rtol=1e-10)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_stopping_rule_is_invariant_to_objective_scale(self, scale):
        # Scaling the objective scales gradient and Hessian alike, so the
        # Newton iterates are unchanged and the relative decrement stop
        # fires at the same step.
        target = np.array([0.5, 2.0, 10.0])

        def evaluate(y):
            values = np.exp(y)
            value = scale * float(values.sum() - target @ y + 0.5 * y @ y)
            return value, scale * (values - target + y), values

        result = newton_minimize(
            evaluate, lambda values: scale * np.diag(values + 1.0), np.zeros(3)
        )
        reference = newton_minimize(
            lambda y: (float(np.exp(y).sum() - target @ y + 0.5 * y @ y),
                       np.exp(y) - target + y, np.exp(y)),
            lambda values: np.diag(values + 1.0),
            np.zeros(3),
        )
        assert result.converged
        assert result.iterations == reference.iterations
        np.testing.assert_allclose(result.y, reference.y, rtol=1e-12)

    def test_failed_line_search_reports_unconverged(self):
        start = np.zeros(2)

        def evaluate(y):
            # Finite only at the start point: no step can decrease it.
            if np.array_equal(y, start):
                return 1.0, np.ones(2), y
            return np.inf, np.ones(2), y

        result = newton_minimize(evaluate, lambda _: np.eye(2), start)
        assert not result.converged and result.iterations == 0
        np.testing.assert_array_equal(result.y, start)
        assert result.optimality == pytest.approx(np.sqrt(2.0))
