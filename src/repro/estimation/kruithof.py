"""Kruithof's projection method (iterative proportional fitting).

Kruithof's 1937 method adjusts a prior traffic matrix so that its row and
column sums match the measured totals of traffic entering and leaving each
node.  Krupp later showed the iteration computes the matrix minimising the
Kullback-Leibler distance to the prior subject to those constraints, and
generalised it to arbitrary linear constraints ``R s = t`` — the direct
ancestor of today's entropy-regularised estimators.

Two estimators are provided:

* :class:`KruithofEstimator` — the classical biproportional fit of a prior
  matrix to the measured edge totals ``t_e(n)`` / ``t_x(m)``; it never looks
  at interior links;
* :class:`KLProjectionEstimator` — Krupp's generalisation: the I-projection
  of the prior onto ``{s >= 0 : R s = t}`` using all link measurements,
  computed by generalised iterative scaling.  This is the ``sigma -> inf``
  limit of the entropy estimator when the linear system is consistent.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import EstimationError
from repro.estimation.base import (
    EstimationProblem,
    EstimationResult,
    Estimator,
    SeriesEstimationResult,
)
from repro.estimation.gravity import gravity_vector_series
from repro.estimation.priors import make_prior
from repro.estimation.registry import register
from repro.optimize.ipf import (
    generalized_iterative_scaling,
    kruithof_scaling,
    kruithof_scaling_batch,
)

__all__ = ["KruithofEstimator", "KLProjectionEstimator"]


def _resolve_prior(problem: EstimationProblem, prior: str | np.ndarray) -> np.ndarray:
    if isinstance(prior, str):
        return make_prior(problem, prior)
    vector = np.asarray(prior, dtype=float)
    if vector.shape != (problem.num_pairs,):
        raise EstimationError(
            f"prior has shape {vector.shape}, expected ({problem.num_pairs},)"
        )
    if np.any(vector < 0):
        raise EstimationError("prior demands must be non-negative")
    return vector


@register()
class KruithofEstimator(Estimator):
    """Classical Kruithof biproportional fitting to edge totals.

    Parameters
    ----------
    prior:
        Prior vector or prior name (default ``"uniform"``: Kruithof's method
        is often started from a uniform matrix when no better information
        exists; use ``"gravity"`` to adjust a gravity estimate).
    max_iterations, tolerance:
        Forwarded to :func:`repro.optimize.ipf.kruithof_scaling`.
    """

    name = "kruithof"

    def __init__(
        self,
        prior: str | np.ndarray = "uniform",
        max_iterations: int = 500,
        tolerance: float = 1e-9,
    ) -> None:
        self.prior = prior
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)

    def estimate(
        self, problem: EstimationProblem, *, start: Optional[np.ndarray] = None
    ) -> EstimationResult:
        """Fit the prior to the measured origin/destination totals.

        ``start`` seeds the IPF iteration (*incremental IPF*): the fixed
        point depends on the starting table only through its
        biproportional equivalence class, so a previous fit of the same
        prior — which is what the series loop and the streaming daemon
        pass — starts the solve already scaled to nearly the right totals
        and converges in a handful of sweeps without changing the
        minimiser.  The start is used only when it shares the prior's
        support (a previous fit always does); otherwise the solve
        cold-starts from the prior, keeping the projection target intact.
        """
        if problem.origin_totals is None or problem.destination_totals is None:
            raise EstimationError(
                "Kruithof's method needs origin_totals and destination_totals"
            )
        prior = _resolve_prior(problem, self.prior)
        origins, destinations, origin_cols, destination_cols = problem.pair_positions()

        prior_matrix = np.zeros((len(origins), len(destinations)))
        prior_matrix[origin_cols, destination_cols] = prior
        initial = None
        if start is not None:
            warm = np.asarray(start, dtype=float)
            if (
                warm.shape == prior.shape
                and np.all(warm >= 0)
                and np.array_equal(warm > 0, prior > 0)
            ):
                initial = np.zeros_like(prior_matrix)
                initial[origin_cols, destination_cols] = warm
        row_targets = np.array([problem.origin_totals.get(name, 0.0) for name in origins])
        column_targets = np.array(
            [problem.destination_totals.get(name, 0.0) for name in destinations]
        )
        fit = kruithof_scaling(
            prior_matrix,
            row_targets,
            column_targets,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            initial=initial,
        )
        values = fit.values[origin_cols, destination_cols]
        return self._result(
            problem,
            values,
            iterations=fit.iterations,
            converged=fit.converged,
            max_violation=fit.max_violation,
            prior_kind=self.prior if isinstance(self.prior, str) else "explicit",
        )

    # ------------------------------------------------------------------
    # batched path
    # ------------------------------------------------------------------
    def _prior_series(self, problem: EstimationProblem) -> Optional[np.ndarray]:
        """Per-snapshot prior vectors ``(K, P)``; ``None`` for the WCB prior."""
        num_snapshots = problem.series.shape[0]
        if not isinstance(self.prior, str):
            return np.tile(_resolve_prior(problem, self.prior), (num_snapshots, 1))
        kind = self.prior.lower()
        if kind == "uniform":
            if problem.origin_totals_series is not None:
                totals = problem.origin_totals_series.sum(axis=1)
            elif problem.origin_totals is not None:
                totals = np.full(num_snapshots, float(sum(problem.origin_totals.values())))
            else:
                return None
            return np.repeat(totals[:, None] / problem.num_pairs, problem.num_pairs, axis=1)
        if kind == "gravity":
            return gravity_vector_series(problem)
        return None

    def _totals_series(self, problem: EstimationProblem, kind: str) -> np.ndarray:
        """Per-snapshot edge totals ``(K, N)`` in first-appearance label order."""
        num_snapshots = problem.series.shape[0]
        if kind == "origin":
            labels, series, names, fallback = (
                problem.origin_order(),
                problem.origin_totals_series,
                problem.origin_names,
                problem.origin_totals,
            )
        else:
            labels, series, names, fallback = (
                problem.destination_order(),
                problem.destination_totals_series,
                problem.destination_names,
                problem.destination_totals,
            )
        if series is not None:
            index = {name: col for col, name in enumerate(names)}
            columns = [index.get(label) for label in labels]
            totals = np.zeros((num_snapshots, len(labels)))
            for position, column in enumerate(columns):
                if column is not None:
                    totals[:, position] = series[:, column]
            return totals
        row = np.array([fallback.get(label, 0.0) for label in labels])
        return np.tile(row, (num_snapshots, 1))

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """Batched biproportional fit: every snapshot iterated as one stack."""
        if problem.origin_totals is None and problem.origin_totals_series is None:
            raise EstimationError("Kruithof's method needs origin_totals and destination_totals")
        if problem.destination_totals is None and problem.destination_totals_series is None:
            raise EstimationError("Kruithof's method needs origin_totals and destination_totals")
        priors = self._prior_series(problem)
        if priors is None:
            return super().estimate_series(problem)
        num_snapshots = problem.series.shape[0]
        origins, destinations, row_positions, column_positions = problem.pair_positions()

        prior_stack = np.zeros((num_snapshots, len(origins), len(destinations)))
        prior_stack[:, row_positions, column_positions] = priors
        fit = kruithof_scaling_batch(
            prior_stack,
            self._totals_series(problem, "origin"),
            self._totals_series(problem, "destination"),
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
        )
        estimates = fit.values[:, row_positions, column_positions]
        return self._series_result(
            problem,
            estimates,
            batched=True,
            iterations=fit.iterations,
            converged=fit.converged,
            max_violation=fit.max_violation,
            prior_kind=self.prior if isinstance(self.prior, str) else "explicit",
        )


@register()
class KLProjectionEstimator(Estimator):
    """Krupp's generalisation: KL projection of a prior onto ``R s = t``.

    Parameters
    ----------
    prior:
        Prior vector or prior name (default ``"gravity"``).
    max_iterations, tolerance:
        Forwarded to
        :func:`repro.optimize.ipf.generalized_iterative_scaling`.
    """

    name = "kl-projection"

    def __init__(
        self,
        prior: str | np.ndarray = "gravity",
        max_iterations: int = 2000,
        tolerance: float = 1e-7,
    ) -> None:
        self.prior = prior
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)

    def estimate(
        self, problem: EstimationProblem, *, start: Optional[np.ndarray] = None
    ) -> EstimationResult:
        """Project the prior onto the link-load constraints."""
        prior = _resolve_prior(problem, self.prior)
        # ``native`` hands iterative scaling the CSR matrix on sparse
        # backends, so the projection never densifies the routing matrix.
        fit = generalized_iterative_scaling(
            prior,
            problem.routing.native,
            problem.snapshot,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
        )
        return self._result(
            problem,
            fit.values,
            iterations=fit.iterations,
            converged=fit.converged,
            max_violation=fit.max_violation,
            prior_kind=self.prior if isinstance(self.prior, str) else "explicit",
        )
