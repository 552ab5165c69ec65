"""Estimators hold no hidden state: a warm start lives only in its call.

``Estimator.estimate(problem, *, start=None)`` is the one entry point, and
its answer depends on the problem, the constructor parameters and
``start`` only.  A warm-started call must therefore leave nothing behind
on the instance, must not mutate the start it was given, and the methods
that do not use a start must return exactly their cold answer.

The registry-wide test is total over :func:`available_estimators`, so a
newly registered method is checked without being listed here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import europe_scenario
from repro.estimation.registry import available_estimators, get_estimator

#: Constructor parameters for methods whose defaults need scenario data.
PARAMS = {"generalized-gravity": {"peering_nodes": set()}}

#: The methods that read ``start``; every other method ignores it.
WARM_STARTED = {"kruithof", "vardi"}


@pytest.fixture(scope="module")
def europe():
    return europe_scenario()


@pytest.fixture(scope="module")
def europe_problem(europe):
    """The Europe busy-period window: every registered method runs on it."""
    return europe.series_problem()


def positive_start(problem) -> np.ndarray:
    """A seeded strictly positive start at the traffic scale of ``problem``."""
    rng = np.random.default_rng(0)
    scale = float(np.sum(problem.snapshot)) / problem.num_pairs
    return rng.uniform(0.5, 1.5, size=problem.num_pairs) * scale


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", available_estimators())
def test_warm_call_leaves_the_instance_cold(name, europe_problem):
    start = positive_start(europe_problem)
    untouched = start.copy()
    shared = get_estimator(name, **PARAMS.get(name, {}))

    warm = shared.estimate(europe_problem, start=start)
    again = shared.estimate(europe_problem)
    cold = get_estimator(name, **PARAMS.get(name, {})).estimate(europe_problem)

    np.testing.assert_array_equal(again.vector, cold.vector)
    assert again.diagnostics.get("iterations") == cold.diagnostics.get("iterations")
    np.testing.assert_array_equal(start, untouched)
    if name not in WARM_STARTED:
        np.testing.assert_array_equal(warm.vector, cold.vector)


class TestKruithofWarmAgainstCold:
    """Incremental IPF: a start in the prior's class keeps the fixed point."""

    @pytest.mark.parametrize("prior", ["uniform", "gravity"])
    def test_restart_from_the_fixed_point_costs_no_more_sweeps(self, europe, prior):
        problem = europe.series_problem()
        estimator = get_estimator("kruithof", prior=prior)
        for index in range(0, problem.num_snapshots, 7):
            snapshot = problem.at_snapshot(index)
            cold = estimator.estimate(snapshot)
            warm = estimator.estimate(snapshot, start=cold.vector)
            assert warm.diagnostics["converged"]
            assert warm.diagnostics["iterations"] <= cold.diagnostics["iterations"]
            scale = float(cold.vector.max())
            np.testing.assert_allclose(warm.vector, cold.vector, rtol=0, atol=1e-6 * scale)

    @pytest.mark.parametrize("prior", ["uniform", "gravity"])
    def test_previous_fit_start_reaches_the_cold_fixed_point(self, europe, prior):
        # Consecutive snapshots differ, so a previous fit is not always
        # fewer sweeps away on this window; the fixed point must not move.
        problem = europe.series_problem()
        estimator = get_estimator("kruithof", prior=prior)
        previous = estimator.estimate(problem.at_snapshot(0)).vector
        for index in range(1, problem.num_snapshots, 5):
            snapshot = problem.at_snapshot(index)
            cold = estimator.estimate(snapshot)
            warm = estimator.estimate(snapshot, start=previous)
            assert cold.diagnostics["converged"] and warm.diagnostics["converged"]
            scale = float(cold.vector.max())
            np.testing.assert_allclose(warm.vector, cold.vector, rtol=0, atol=1e-6 * scale)
            previous = cold.vector

    def test_start_off_the_prior_support_is_ignored(self, europe):
        snapshot = europe.series_problem().at_snapshot(3)
        estimator = get_estimator("kruithof")
        start = positive_start(snapshot)
        start[0] = 0.0  # the uniform prior is positive on every pair
        cold = estimator.estimate(snapshot)
        warm = estimator.estimate(snapshot, start=start)
        np.testing.assert_array_equal(warm.vector, cold.vector)
        assert warm.diagnostics["iterations"] == cold.diagnostics["iterations"]
