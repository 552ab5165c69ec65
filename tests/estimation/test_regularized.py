"""Tests for the Bayesian, entropy, Kruithof/KL-projection and tomogravity estimators."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize

from repro.errors import BudgetExceededError, EstimationError
from repro.estimation import (
    BayesianEstimator,
    EntropyEstimator,
    EstimationProblem,
    KLProjectionEstimator,
    KruithofEstimator,
    TomogravityEstimator,
    make_prior,
    sweep_regularization,
)
from repro.evaluation import mean_relative_error
from repro.optimize import kl_divergence, nnls_active_set
from repro.resilience.budget import SolverBudget
from repro.routing import build_routing_matrix
from repro.topology import NodePair
from repro.traffic import TrafficMatrix


@pytest.fixture
def line_problem(line_network):
    """An under-determined problem on the line network with known truth."""
    routing = build_routing_matrix(line_network)
    demands = {
        NodePair("A", "D"): 50.0,
        NodePair("A", "C"): 20.0,
        NodePair("B", "D"): 10.0,
        NodePair("B", "C"): 5.0,
        NodePair("D", "A"): 30.0,
        NodePair("C", "A"): 15.0,
        NodePair("A", "B"): 8.0,
        NodePair("B", "A"): 4.0,
        NodePair("C", "D"): 6.0,
        NodePair("D", "C"): 3.0,
        NodePair("C", "B"): 2.0,
        NodePair("D", "B"): 1.0,
    }
    truth = TrafficMatrix.from_network(line_network, demands)
    problem = EstimationProblem(
        routing=routing,
        link_loads=routing.link_loads(truth.vector),
        origin_totals=truth.origin_totals(),
        destination_totals=truth.destination_totals(),
    )
    return truth, problem


class TestBayesian:
    def test_large_regularization_fits_link_loads(self, line_problem):
        truth, problem = line_problem
        result = BayesianEstimator(regularization=1e6, prior="gravity").estimate(problem)
        residual = np.linalg.norm(problem.routing.link_loads(result.vector) - problem.snapshot)
        assert residual < 1e-3 * np.linalg.norm(problem.snapshot)

    def test_small_regularization_returns_prior(self, line_problem):
        truth, problem = line_problem
        prior = np.full(problem.num_pairs, 5.0)
        result = BayesianEstimator(regularization=1e-8, prior=prior).estimate(problem)
        assert np.allclose(result.vector, prior, rtol=1e-3, atol=1e-3)

    def test_exact_recovery_when_prior_is_truth(self, line_problem):
        truth, problem = line_problem
        result = BayesianEstimator(regularization=1.0, prior=truth.vector).estimate(problem)
        assert np.allclose(result.vector, truth.vector, atol=1e-4)

    def test_regularization_must_be_positive(self):
        with pytest.raises(EstimationError):
            BayesianEstimator(regularization=0.0)

    def test_prior_shape_checked(self, line_problem):
        _, problem = line_problem
        with pytest.raises(EstimationError):
            BayesianEstimator(prior=np.ones(3)).estimate(problem)
        with pytest.raises(EstimationError):
            BayesianEstimator(prior=-np.ones(problem.num_pairs)).estimate(problem)

    def test_diagnostics_reported(self, line_problem):
        _, problem = line_problem
        result = BayesianEstimator(regularization=10.0).estimate(problem)
        assert "residual_norm" in result.diagnostics
        assert "prior_distance" in result.diagnostics


class TestEntropy:
    def test_large_regularization_fits_link_loads(self, line_problem):
        truth, problem = line_problem
        result = EntropyEstimator(regularization=1e5, prior="gravity").estimate(problem)
        residual = np.linalg.norm(problem.routing.link_loads(result.vector) - problem.snapshot)
        assert residual < 1e-2 * np.linalg.norm(problem.snapshot)

    def test_small_regularization_returns_prior(self, line_problem):
        _, problem = line_problem
        prior = np.full(problem.num_pairs, 7.0)
        result = EntropyEstimator(regularization=1e-8, prior=prior).estimate(problem)
        assert np.allclose(result.vector, prior, rtol=1e-2)

    @pytest.mark.parametrize("num_zeros", [1, 12])
    def test_zero_prior_entries_stay_zero(self, line_problem, num_zeros):
        _, problem = line_problem
        prior = np.full(problem.num_pairs, 5.0)
        prior[:num_zeros] = 0.0
        result = EntropyEstimator(regularization=100.0, prior=prior).estimate(problem)
        assert np.all(result.vector[:num_zeros] == 0.0)
        assert result.diagnostics["converged"] is True

    def test_better_than_gravity_prior_alone(self, small_snapshot_problem, small_truth):
        from repro.estimation import SimpleGravityEstimator

        gravity_mre = mean_relative_error(
            SimpleGravityEstimator().estimate(small_snapshot_problem).estimate, small_truth
        )
        entropy_mre = mean_relative_error(
            EntropyEstimator(regularization=1000.0).estimate(small_snapshot_problem).estimate,
            small_truth,
        )
        assert entropy_mre < gravity_mre

    def test_parameter_validation(self):
        with pytest.raises(EstimationError):
            EntropyEstimator(regularization=-1.0)
        with pytest.raises(EstimationError):
            EntropyEstimator(max_iterations=0)


class TestKruithof:
    def test_matches_edge_totals(self, line_problem):
        truth, problem = line_problem
        result = KruithofEstimator(prior="uniform").estimate(problem)
        estimate = result.estimate
        for origin, total in truth.origin_totals().items():
            assert estimate.origin_totals()[origin] == pytest.approx(total, rel=1e-4)
        for destination, total in truth.destination_totals().items():
            assert estimate.destination_totals()[destination] == pytest.approx(total, rel=1e-4)

    def test_requires_edge_totals(self, triangle_routing):
        problem = EstimationProblem(
            routing=triangle_routing, link_loads=np.ones(triangle_routing.num_links)
        )
        with pytest.raises(EstimationError):
            KruithofEstimator().estimate(problem)


class TestKLProjection:
    def test_satisfies_link_constraints(self, line_problem):
        truth, problem = line_problem
        result = KLProjectionEstimator(prior="gravity").estimate(problem)
        assert np.allclose(
            problem.routing.link_loads(result.vector), problem.snapshot, rtol=1e-3, atol=1e-3
        )

    def test_exact_prior_is_fixed_point(self, line_problem):
        truth, problem = line_problem
        result = KLProjectionEstimator(prior=truth.vector).estimate(problem)
        assert np.allclose(result.vector, truth.vector, rtol=1e-6)


class TestTomogravity:
    def test_flavours(self, small_snapshot_problem):
        entropy = TomogravityEstimator(flavour="entropy").estimate(small_snapshot_problem)
        bayes = TomogravityEstimator(flavour="bayesian").estimate(small_snapshot_problem)
        assert entropy.method == "tomogravity"
        assert bayes.diagnostics["flavour"] == "bayesian"
        with pytest.raises(EstimationError):
            TomogravityEstimator(flavour="magic")

    def test_sweep_returns_one_result_per_value(self, small_snapshot_problem):
        sweep = sweep_regularization(small_snapshot_problem, [0.1, 10.0, 1000.0])
        assert [value for value, _ in sweep] == [0.1, 10.0, 1000.0]
        with pytest.raises(EstimationError):
            sweep_regularization(small_snapshot_problem, [])

    def test_matches_underlying_entropy_estimator(self, small_snapshot_problem):
        tomo = TomogravityEstimator(flavour="entropy", regularization=500.0).estimate(
            small_snapshot_problem
        )
        entropy = EntropyEstimator(regularization=500.0, prior="gravity").estimate(
            small_snapshot_problem
        )
        assert np.allclose(tomo.vector, entropy.vector)


# ----------------------------------------------------------------------
# the link-space Newton solvers against independent references
# ----------------------------------------------------------------------


def noisy_problem(problem, backend, seed=3):
    """``problem`` on the given backend with link loads perturbed enough
    that the regularised fits want some negative demands."""
    rng = np.random.default_rng(seed)
    loads = problem.snapshot * (1.0 + 0.6 * rng.standard_normal(problem.snapshot.shape))
    return EstimationProblem(
        routing=problem.routing.with_backend(backend),
        link_loads=np.maximum(loads, 0.0),
        origin_totals=problem.origin_totals,
        destination_totals=problem.destination_totals,
    )


def stacked_nnls_reference(problem, prior, regularization):
    """Bayesian MAP estimate as the NNLS fit of ``[R; sigma^-1 I] s ~ [t; sigma^-1 p]``."""
    weight = 1.0 / np.sqrt(regularization)
    stacked = np.vstack([problem.routing.matrix, weight * np.eye(problem.num_pairs)])
    rhs = np.concatenate([problem.snapshot, weight * prior])
    return nnls_active_set(stacked, rhs).x


def entropy_objective(problem, prior, regularization, values):
    residual = problem.routing.matvec(values) - problem.snapshot
    return float(residual @ residual) + prior.sum() / regularization * kl_divergence(
        values, prior
    )


def lbfgsb_entropy_reference(problem, prior, regularization):
    """The entropy objective minimised over the demands by L-BFGS-B,
    with the tolerances of the quasi-Newton solver the estimator once used."""
    free = prior > 0
    routing = problem.routing.matrix[:, free]
    support = prior[free]
    weight = prior.sum() / regularization

    def objective(x):
        residual = routing @ x - problem.snapshot
        ratio = x / support
        value = residual @ residual + weight * np.sum(x * np.log(ratio) - x + support)
        return value, 2.0 * routing.T @ residual + weight * np.log(ratio)

    outcome = scipy.optimize.minimize(
        objective,
        support.copy(),
        jac=True,
        method="L-BFGS-B",
        bounds=[(1e-9, None)] * support.size,
        options={"maxiter": 2000, "ftol": 1e-12, "gtol": 1e-10},
    )
    values = np.zeros(problem.num_pairs)
    values[free] = outcome.x
    return values


class TestNewtonSolversAgainstReferences:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("regularization", [0.5, 1000.0])
    def test_bayesian_equals_stacked_active_set_nnls(
        self, small_snapshot_problem, backend, regularization
    ):
        problem = noisy_problem(small_snapshot_problem, backend)
        prior = make_prior(problem, "gravity")
        reference = stacked_nnls_reference(problem, prior, regularization)
        assert np.any(reference == 0.0), "the non-negativity constraint must bind"
        result = BayesianEstimator(regularization=regularization).estimate(problem)
        assert result.diagnostics["converged"] is True
        np.testing.assert_allclose(
            result.vector, reference, atol=1e-8 * max(1.0, float(reference.max()))
        )

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("regularization", [1.0, 1000.0])
    def test_entropy_objective_at_or_below_lbfgsb(
        self, small_snapshot_problem, backend, regularization
    ):
        problem = noisy_problem(small_snapshot_problem, backend)
        prior = make_prior(problem, "gravity")
        reference = entropy_objective(
            problem, prior, regularization, lbfgsb_entropy_reference(problem, prior, regularization)
        )
        result = EntropyEstimator(regularization=regularization).estimate(problem)
        assert result.diagnostics["converged"] is True
        newton = entropy_objective(problem, prior, regularization, result.vector)
        assert newton <= reference
        assert newton == pytest.approx(reference, rel=1e-7)

    @pytest.mark.parametrize("estimator", [EntropyEstimator(), BayesianEstimator()])
    def test_optimality_certificate_is_the_dual_gradient_norm(
        self, small_snapshot_problem, estimator
    ):
        result = estimator.estimate(small_snapshot_problem)
        diagnostics = result.diagnostics
        assert diagnostics["converged"] is True
        assert 0 < diagnostics["iterations"] <= 20
        assert diagnostics["optimality"] <= 1e-6 * np.linalg.norm(small_snapshot_problem.snapshot)

    def test_iteration_cap_reports_unconverged(self, small_snapshot_problem):
        result = EntropyEstimator(max_iterations=1).estimate(small_snapshot_problem)
        assert result.diagnostics["converged"] is False
        assert result.diagnostics["iterations"] == 1
        assert result.diagnostics["optimality"] > 0.0


def test_tomogravity_and_bayesian_converge_on_every_busy_n100_snapshot():
    from repro.datasets import large_scenario

    scenario = large_scenario(100)
    for index in range(scenario.busy_length):
        problem = scenario.snapshot_problem(scenario.busy_snapshot(index))
        for estimator in (TomogravityEstimator(), BayesianEstimator()):
            diagnostics = estimator.estimate(problem).diagnostics
            assert diagnostics["converged"] is True, (estimator.name, index)


# ----------------------------------------------------------------------
# the link-space Newton solvers on the paper's backbones
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=["europe", "abilene", "america"])
def paper_scenario(request):
    from repro import datasets

    return getattr(datasets, f"{request.param}_scenario")()


def scaled_problem(problem, factor):
    """``problem`` with every traffic observable multiplied by ``factor``."""
    return EstimationProblem(
        routing=problem.routing,
        link_loads=factor * problem.snapshot,
        origin_totals={node: factor * total for node, total in problem.origin_totals.items()},
        destination_totals={
            node: factor * total for node, total in problem.destination_totals.items()
        },
    )


class TestNewtonSolversOnPaperScenarios:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_bayesian_equals_stacked_active_set_nnls(self, paper_scenario, backend):
        problem = paper_scenario.snapshot_problem()
        problem = EstimationProblem(
            routing=problem.routing.with_backend(backend),
            link_loads=problem.snapshot,
            origin_totals=problem.origin_totals,
            destination_totals=problem.destination_totals,
        )
        prior = make_prior(problem, "gravity")
        reference = stacked_nnls_reference(problem, prior, 1000.0)
        result = BayesianEstimator(regularization=1000.0).estimate(problem)
        assert result.diagnostics["converged"] is True
        np.testing.assert_allclose(result.vector, reference, atol=1e-9 * float(reference.max()))

    def test_entropy_objective_at_or_below_lbfgsb(self, paper_scenario):
        problem = paper_scenario.snapshot_problem()
        prior = make_prior(problem, "gravity")
        reference = entropy_objective(
            problem, prior, 1000.0, lbfgsb_entropy_reference(problem, prior, 1000.0)
        )
        result = EntropyEstimator(regularization=1000.0).estimate(problem)
        newton = entropy_objective(problem, prior, 1000.0, result.vector)
        assert newton <= reference
        assert newton == pytest.approx(reference, rel=1e-7)

    @pytest.mark.parametrize(
        "estimator",
        [EntropyEstimator(), TomogravityEstimator(), BayesianEstimator()],
        ids=["entropy", "tomogravity", "bayesian"],
    )
    def test_converges_on_every_busy_snapshot(self, paper_scenario, estimator):
        for index in range(paper_scenario.busy_length):
            problem = paper_scenario.snapshot_problem(paper_scenario.busy_snapshot(index))
            diagnostics = estimator.estimate(problem).diagnostics
            assert diagnostics["converged"] is True, index
            assert diagnostics["iterations"] <= 20, index


class TestNewtonSolverContracts:
    # Both objectives are homogeneous of degree two in (s, t, p) (the
    # scale-invariant KL weight grows with the prior total), so scaling
    # every traffic input scales the minimiser; the relative stopping rule
    # must converge alike at any traffic unit.
    @pytest.mark.parametrize("factor", [1e-6, 1e6])
    @pytest.mark.parametrize("estimator_class", [EntropyEstimator, BayesianEstimator])
    def test_minimiser_scales_with_the_traffic_unit(
        self, small_snapshot_problem, estimator_class, factor
    ):
        prior = make_prior(small_snapshot_problem, "gravity")
        base = estimator_class(prior=prior).estimate(small_snapshot_problem)
        scaled = estimator_class(prior=factor * prior).estimate(
            scaled_problem(small_snapshot_problem, factor)
        )
        assert scaled.diagnostics["converged"] is True
        np.testing.assert_allclose(
            scaled.vector, factor * base.vector, rtol=1e-6, atol=1e-9 * factor * base.vector.max()
        )

    @pytest.mark.parametrize(
        "estimator",
        [EntropyEstimator(), TomogravityEstimator(), BayesianEstimator()],
        ids=["entropy", "tomogravity", "bayesian"],
    )
    def test_every_objective_evaluation_ticks_the_budget(self, small_snapshot_problem, estimator):
        with pytest.raises(BudgetExceededError):
            with SolverBudget(max_iterations=2):
                estimator.estimate(small_snapshot_problem)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_entropy_large_regularization_fits_link_loads(self, small_snapshot_problem, backend):
        problem = EstimationProblem(
            routing=small_snapshot_problem.routing.with_backend(backend),
            link_loads=small_snapshot_problem.snapshot,
            origin_totals=small_snapshot_problem.origin_totals,
            destination_totals=small_snapshot_problem.destination_totals,
        )
        result = EntropyEstimator(regularization=1e8).estimate(problem)
        assert result.diagnostics["converged"] is True
        assert result.diagnostics["residual_norm"] < 1e-4 * np.linalg.norm(problem.snapshot)
