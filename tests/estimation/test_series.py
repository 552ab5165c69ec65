"""Tests for the batched series-estimation path (``estimate_series``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.estimation import get_estimator

WINDOW = 8


@pytest.fixture(scope="module")
def scenario():
    from repro.datasets import small_scenario

    return small_scenario(seed=11, num_nodes=6, busy_length=20, num_samples=60)


@pytest.fixture(scope="module")
def series_problem(scenario):
    return scenario.series_problem(window_length=WINDOW)


def per_snapshot_loop(estimator, problem):
    """The reference semantics every batched override must reproduce."""
    return np.stack(
        [
            estimator.estimate(problem.at_snapshot(index)).vector
            for index in range(problem.series.shape[0])
        ]
    )


class TestBatchedOverridesMatchLoop:
    @pytest.mark.parametrize("method,params", [
        ("gravity", {}),
        ("kruithof", {}),
        ("kruithof", {"prior": "gravity"}),
        ("bayesian", {"regularization": 1000.0, "prior": "gravity"}),
        ("bayesian", {"regularization": 10.0, "prior": "uniform"}),
        ("tomogravity", {"flavour": "bayesian"}),
        ("entropy", {"regularization": 100.0}),
    ])
    def test_batch_equals_per_snapshot_estimates(self, series_problem, method, params):
        estimator = get_estimator(method, **params)
        batched = estimator.estimate_series(series_problem)
        loop = per_snapshot_loop(estimator, series_problem)
        scale = max(float(loop.max()), 1.0)
        assert batched.estimates.shape == loop.shape
        np.testing.assert_allclose(batched.estimates, loop, atol=1e-6 * scale)

    def test_generic_fallback_matches_loop_by_construction(self, series_problem):
        estimator = get_estimator("kl-projection")
        batched = estimator.estimate_series(series_problem)
        loop = per_snapshot_loop(estimator, series_problem)
        np.testing.assert_allclose(batched.estimates, loop, atol=1e-9)
        assert batched.diagnostics["batched"] is False

    def test_bayesian_explicit_prior_batches(self, series_problem):
        prior = np.full(series_problem.num_pairs, 10.0)
        estimator = get_estimator("bayesian", regularization=50.0, prior=prior)
        batched = estimator.estimate_series(series_problem)
        loop = per_snapshot_loop(estimator, series_problem)
        np.testing.assert_allclose(batched.estimates, loop, atol=1e-6 * float(loop.max()))


class TestWindowLevelMethods:
    def test_vardi_batch_repeats_the_window_estimate(self, series_problem):
        estimator = get_estimator("vardi", poisson_weight=0.01)
        batched = estimator.estimate_series(series_problem)
        single = estimator.estimate(series_problem).vector
        assert len(batched) == WINDOW
        for index in range(WINDOW):
            np.testing.assert_allclose(batched.estimates[index], single)

    def test_vardi_warm_start_reduces_iterations(self, series_problem):
        estimator = get_estimator("vardi", poisson_weight=0.01)
        cold_result = estimator.estimate(series_problem)
        warm_result = estimator.estimate(series_problem, start=cold_result.vector)
        assert (
            warm_result.diagnostics["iterations"]
            < cold_result.diagnostics["iterations"]
        )
        scale = max(1.0, float(cold_result.vector.max()))
        np.testing.assert_allclose(
            warm_result.vector, cold_result.vector, atol=1e-3 * scale
        )
        # The start lives only in the call: the next call on the same
        # instance is cold again and reproduces the cold result exactly.
        np.testing.assert_array_equal(
            estimator.estimate(series_problem).vector, cold_result.vector
        )

    def test_fanout_batch_scales_by_snapshot_ingress(self, series_problem):
        estimator = get_estimator("fanout")
        batched = estimator.estimate_series(series_problem)
        # Averaging the per-snapshot estimates recovers the window estimate.
        window = estimator.estimate(series_problem).vector
        np.testing.assert_allclose(batched.estimates.mean(axis=0), window, atol=1e-8)
        # And the snapshots genuinely differ (they track the ingress totals).
        assert not np.allclose(batched.estimates[0], batched.estimates[-1])


class TestSeriesResultContainer:
    def test_container_views(self, series_problem):
        batched = get_estimator("gravity").estimate_series(series_problem)
        assert batched.num_snapshots == WINDOW
        assert batched.matrix(0).pairs == series_problem.pairs
        np.testing.assert_allclose(
            batched.mean_matrix().vector, batched.estimates.mean(axis=0)
        )
        assert batched.result(1).method == "gravity"
        with pytest.raises(EstimationError):
            batched.matrix(WINDOW)

    def test_snapshot_only_problem_has_no_series(self, scenario):
        problem = scenario.snapshot_problem()
        with pytest.raises(EstimationError):
            get_estimator("gravity").estimate_series(problem)

    def test_at_snapshot_bounds_checked(self, series_problem):
        with pytest.raises(EstimationError):
            series_problem.at_snapshot(WINDOW)


class TestScenarioSweep:
    def test_sweep_scores_registered_methods(self, scenario):
        records = scenario.sweep(
            methods=("gravity", "kruithof", "bayesian", "fanout"), window_length=5
        )
        assert [record.method for record in records] == [
            "gravity",
            "kruithof",
            "bayesian",
            "fanout",
        ]
        for record in records:
            assert not record.skipped
            assert np.isfinite(record.mre)
            assert record.per_snapshot_mre.shape == (5,)

    def test_sweep_default_covers_every_registered_method(self, scenario):
        from repro.estimation import available_estimators

        records = scenario.sweep(window_length=3)
        assert [record.method for record in records] == list(available_estimators())
        ran = {record.method for record in records if not record.skipped}
        assert {"gravity", "kruithof", "bayesian", "entropy", "vardi", "fanout"} <= ran

    def test_sweep_reports_skips_instead_of_raising(self, scenario):
        records = scenario.sweep(methods=("generalized-gravity",), window_length=3)
        assert records[0].skipped
        assert "generalised gravity" in records[0].error

    def test_sweep_accepts_parameterised_methods(self, scenario):
        records = scenario.sweep(
            methods=(("bayesian", {"regularization": 10.0}),), window_length=3
        )
        assert records[0].method == "bayesian"
        assert not records[0].skipped
