"""Tests for the batched worst-case-bound engine.

Three layers of guarantees:

* **parity** — :func:`bound_variables_batch` must reproduce the per-pair
  LP bounds exactly (within solver tolerance), with and without presolve,
  in-process and across a process pool, on hand-built systems, random
  feasible systems, and the europe/abilene scenarios (slow);
* **presolve soundness** — the combinatorial intervals of
  :func:`presolve_variable_bounds` always *contain* the LP bounds
  (property test on random routing systems);
* **failure modes** — infeasible and unbounded systems raise
  :class:`~repro.errors.SolverError` exactly like the per-pair path, even
  when the presolve resolves every requested coordinate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.parallel import clear_worker_faults, install_worker_faults
from repro.resilience import WorkerFaultPlan
from repro.optimize.linear_program import (
    bound_variable,
    bound_variables_batch,
    presolve_variable_bounds,
    solve_linear_program,
)


def reference_bounds(matrix, rhs):
    """The serial per-pair LP loop the batch engine replaces."""
    num_vars = matrix.shape[1]
    lower = np.empty(num_vars)
    upper = np.empty(num_vars)
    for index in range(num_vars):
        cost = np.zeros(num_vars)
        cost[index] = 1.0
        lower[index] = solve_linear_program(cost, matrix, rhs, maximise=False).objective
        upper[index] = solve_linear_program(cost, matrix, rhs, maximise=True).objective
    return lower, upper


def random_routing_system(rng, num_rows=12, num_vars=18):
    """A random 0/1 routing-like system with a known feasible point."""
    matrix = (rng.random((num_rows, num_vars)) < 0.3).astype(float)
    matrix[rng.integers(num_rows, size=num_vars), np.arange(num_vars)] = 1.0
    truth = rng.random(num_vars) * 10.0
    return matrix, matrix @ truth


class TestBatchMatchesPerPairLoop:
    def test_hand_built_system(self):
        matrix = np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 1.0, 1.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
            ]
        )
        rhs = matrix @ np.array([2.0, 3.0, 1.0, 4.0])
        lower_ref, upper_ref = reference_bounds(matrix, rhs)
        result = bound_variables_batch(range(4), matrix, rhs)
        np.testing.assert_allclose(result.lower, lower_ref, atol=1e-8)
        np.testing.assert_allclose(result.upper, upper_ref, atol=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_systems(self, seed):
        rng = np.random.default_rng(seed)
        matrix, rhs = random_routing_system(rng)
        lower_ref, upper_ref = reference_bounds(matrix, rhs)
        scale = max(1.0, float(rhs.max()))
        result = bound_variables_batch(range(matrix.shape[1]), matrix, rhs)
        np.testing.assert_allclose(result.lower, lower_ref, atol=1e-7 * scale)
        np.testing.assert_allclose(result.upper, upper_ref, atol=1e-7 * scale)

    def test_presolve_off_matches_presolve_on(self):
        rng = np.random.default_rng(7)
        matrix, rhs = random_routing_system(rng)
        on = bound_variables_batch(range(matrix.shape[1]), matrix, rhs, presolve=True)
        off = bound_variables_batch(range(matrix.shape[1]), matrix, rhs, presolve=False)
        scale = max(1.0, float(rhs.max()))
        np.testing.assert_allclose(on.lower, off.lower, atol=1e-7 * scale)
        np.testing.assert_allclose(on.upper, off.upper, atol=1e-7 * scale)
        assert off.num_pinned == 0 and off.num_tight == 0

    def test_subset_and_order_preserved(self):
        rng = np.random.default_rng(11)
        matrix, rhs = random_routing_system(rng)
        subset = [5, 2, 9]
        full = bound_variables_batch(range(matrix.shape[1]), matrix, rhs)
        partial = bound_variables_batch(subset, matrix, rhs)
        assert partial.indices == tuple(subset)
        np.testing.assert_allclose(partial.lower, full.lower[subset], atol=1e-8)
        np.testing.assert_allclose(partial.upper, full.upper[subset], atol=1e-8)

    def test_process_pool_matches_in_process(self, monkeypatch):
        # Present at least two cores so the CPU clamp (which keeps
        # single-core boxes serial) does not bypass the pool under test.
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rng = np.random.default_rng(13)
        matrix, rhs = random_routing_system(rng, num_rows=8, num_vars=12)
        serial = bound_variables_batch(range(12), matrix, rhs, n_jobs=1)
        pooled = bound_variables_batch(range(12), matrix, rhs, n_jobs=2, chunk_size=3)
        assert pooled.n_jobs == 2
        np.testing.assert_allclose(pooled.lower, serial.lower, atol=1e-8)
        np.testing.assert_allclose(pooled.upper, serial.upper, atol=1e-8)

    def test_worker_crash_keeps_pooled_bounds_bit_identical(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rng = np.random.default_rng(21)
        matrix, rhs = random_routing_system(rng, num_rows=20, num_vars=40)
        serial = bound_variables_batch(range(40), matrix, rhs, n_jobs=1, chunk_size=10)
        install_worker_faults(WorkerFaultPlan(crash_tasks=(0,), crash_rounds=1))
        try:
            with pytest.warns(RuntimeWarning, match="broken-pool"):
                pooled = bound_variables_batch(
                    range(40), matrix, rhs, n_jobs=2, chunk_size=10
                )
        finally:
            clear_worker_faults()
        assert pooled.n_jobs == 2
        assert pooled.num_lps_solved == serial.num_lps_solved
        np.testing.assert_array_equal(pooled.lower, serial.lower)
        np.testing.assert_array_equal(pooled.upper, serial.upper)

    def test_sparse_input_accepted(self):
        import scipy.sparse

        rng = np.random.default_rng(17)
        matrix, rhs = random_routing_system(rng)
        dense = bound_variables_batch(range(matrix.shape[1]), matrix, rhs)
        sparse = bound_variables_batch(
            range(matrix.shape[1]), scipy.sparse.csr_matrix(matrix), rhs
        )
        np.testing.assert_allclose(sparse.lower, dense.lower, atol=1e-9)
        np.testing.assert_allclose(sparse.upper, dense.upper, atol=1e-9)

    def test_thin_wrapper_bound_variable(self):
        matrix = np.array([[1.0, 1.0], [0.0, 1.0]])
        rhs = np.array([10.0, 4.0])
        assert bound_variable(0, matrix, rhs) == pytest.approx((6.0, 6.0))
        assert bound_variable(1, matrix, rhs) == pytest.approx((4.0, 4.0))


class TestPresolveSoundness:
    @pytest.mark.parametrize("seed", range(8))
    def test_combinatorial_interval_contains_lp_bounds(self, seed):
        """Property: presolve bounds always contain the exact LP bounds."""
        rng = np.random.default_rng(100 + seed)
        matrix, rhs = random_routing_system(
            rng, num_rows=int(rng.integers(6, 14)), num_vars=int(rng.integers(8, 20))
        )
        lower_lp, upper_lp = reference_bounds(matrix, rhs)
        lower_pre, upper_pre, pinned = presolve_variable_bounds(matrix, rhs)
        scale = max(1.0, float(rhs.max()))
        assert np.all(lower_pre <= lower_lp + 1e-6 * scale)
        assert np.all(upper_lp <= upper_pre + 1e-6 * scale)
        # Pinned coordinates are exact, not just contained.
        np.testing.assert_allclose(
            lower_pre[pinned], lower_lp[pinned], atol=1e-6 * scale
        )
        np.testing.assert_allclose(
            upper_pre[pinned], upper_lp[pinned], atol=1e-6 * scale
        )

    def test_fractional_entries_supported(self):
        """ECMP-style fractional coefficients keep the bounds sound."""
        rng = np.random.default_rng(42)
        matrix = (rng.random((10, 14)) < 0.3).astype(float)
        matrix[rng.integers(10, size=14), np.arange(14)] = 1.0
        matrix *= rng.choice([0.5, 1.0], size=matrix.shape)
        rhs = matrix @ (rng.random(14) * 5.0)
        lower_lp, upper_lp = reference_bounds(matrix, rhs)
        lower_pre, upper_pre, _ = presolve_variable_bounds(matrix, rhs)
        scale = max(1.0, float(rhs.max()))
        assert np.all(lower_pre <= lower_lp + 1e-6 * scale)
        assert np.all(upper_lp <= upper_pre + 1e-6 * scale)

    def test_negative_coefficients_fall_back_to_trivial_interval(self):
        matrix = np.array([[1.0, -1.0]])
        rhs = np.array([1.0])
        lower, upper, pinned = presolve_variable_bounds(matrix, rhs)
        assert np.all(lower == 0.0)
        assert np.all(np.isinf(upper) | pinned)


class TestFailureModes:
    def test_infeasible_system_raises(self):
        matrix = np.array([[1.0, 0.0]])
        rhs = np.array([-1.0])
        with pytest.raises(SolverError):
            bound_variables_batch([0, 1], matrix, rhs)

    def test_infeasible_detected_even_when_fully_presolved(self):
        # x1 = 5 and x1 = 7 cannot both hold; both coordinates are pinned
        # by rank, so no bounding LP would ever run without the explicit
        # feasibility check.
        matrix = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        rhs = np.array([5.0, 7.0, 1.0])
        with pytest.raises(SolverError):
            bound_variables_batch([0, 1], matrix, rhs)

    def test_unbounded_coordinate_raises(self):
        matrix = np.array([[1.0, 0.0]])
        rhs = np.array([5.0])
        with pytest.raises(SolverError):
            bound_variables_batch([1], matrix, rhs)

    def test_index_out_of_range(self):
        matrix = np.array([[1.0, 1.0]])
        rhs = np.array([1.0])
        with pytest.raises(SolverError):
            bound_variables_batch([2], matrix, rhs)
        with pytest.raises(SolverError):
            bound_variables_batch([-1], matrix, rhs)

    def test_empty_request(self):
        matrix = np.array([[1.0, 1.0]])
        rhs = np.array([1.0])
        result = bound_variables_batch([], matrix, rhs)
        assert result.indices == ()
        assert result.lower.shape == (0,)


@pytest.mark.slow
class TestScenarioParity:
    """The acceptance parity: batch == per-pair loop on real scenarios."""

    @pytest.mark.parametrize("builder", ["europe_scenario", "abilene_scenario"])
    def test_batch_reproduces_per_pair_bounds(self, builder):
        import repro.datasets as datasets

        scenario = getattr(datasets, builder)()
        problem = scenario.snapshot_problem()
        matrix, rhs = problem.augmented_system()
        num_pairs = problem.num_pairs
        lower_ref, upper_ref = reference_bounds(matrix, rhs)
        result = bound_variables_batch(range(num_pairs), matrix, rhs)
        scale = max(1.0, float(np.asarray(rhs).max()))
        np.testing.assert_allclose(result.lower, lower_ref, atol=1e-6 * scale)
        np.testing.assert_allclose(result.upper, upper_ref, atol=1e-6 * scale)
        # The reductions must actually bite: between rank pinning, tight
        # combinatorial intervals and zero witnesses, strictly fewer than
        # the naive two LPs per pair may run.  (Rank pinning specifically
        # only fires on the denser scenarios, e.g. europe.)
        assert result.num_lps_solved < 2 * num_pairs
        assert result.num_pinned + result.num_tight + result.num_lower_skipped > 0
