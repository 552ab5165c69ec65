"""Cao et al. style estimation under a generalised linear model.

The paper discusses (Section 4.2.2) but does not evaluate the method of Cao,
Davis, Vander Wiel and Yu, which generalises Vardi's Poisson assumption to

    ``s_p ~ N(lambda_p, phi * lambda_p ** c)``

with independent demands and scaling parameters ``phi`` and ``c``.  The
paper's conclusion explicitly lists implementing this method as missing from
its comparison; this module supplies it so the comparison can be completed.

For a fixed exponent ``c``, the estimator runs the pseudo-EM iteration of
Cao et al.:

* **E-step** — given the current intensities ``lambda`` (and the variances
  ``phi * lambda ** c`` they imply), compute the conditional expectation of
  each demand snapshot given the observed link loads under the joint
  Gaussian model:

  ``E[s[k] | t[k]] = lambda + Sigma R' (R Sigma R')^+ (t[k] - R lambda)``

  where ``Sigma = diag(phi * lambda ** c)``;

* **M-step** — update ``lambda`` to the average of the conditional
  expectations (projected onto the non-negative orthant) and, optionally,
  re-fit ``phi`` by moment matching of the link-load covariance.

The iteration is a fixed-point scheme rather than an exact EM (the true
M-step for ``c != 1`` has no closed form), which is why Cao et al. call it
pseudo-EM; it inherits the same practical weakness the paper demonstrates
for Vardi — the estimate depends on a link-load covariance that converges
slowly.
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
from repro.estimation.priors import make_prior
from repro.estimation.registry import register
from repro.estimation.vardi import link_load_moments
from repro.optimize.nnls import nnls

__all__ = ["CaoEstimator"]


@register()
class CaoEstimator(Estimator):
    """Pseudo-EM estimation under ``s_p ~ N(lambda_p, phi lambda_p^c)``.

    Parameters
    ----------
    c:
        Fixed power-law exponent of the mean-variance relation (the paper's
        data suggests values around 1.5-1.6; ``c = 1`` with ``phi`` free
        approximates the Poisson model).
    phi:
        Initial scale of the mean-variance relation; refined during the
        iteration when ``estimate_phi`` is ``True``.
    estimate_phi:
        Re-fit ``phi`` after every M-step by matching the total variance of
        the observed link loads.
    max_iterations:
        Number of EM sweeps.
    tolerance:
        Relative change of ``lambda`` below which the iteration stops.
    prior:
        Prior used to initialise ``lambda`` (a vector or a prior name).
    """

    name = "cao"

    def __init__(
        self,
        c: float = 1.5,
        phi: float = 1.0,
        estimate_phi: bool = True,
        max_iterations: int = 50,
        tolerance: float = 1e-6,
        prior: str | np.ndarray = "gravity",
    ) -> None:
        if c < 0:
            raise EstimationError("the exponent c must be non-negative")
        if phi <= 0:
            raise EstimationError("phi must be positive")
        if max_iterations <= 0:
            raise EstimationError("max_iterations must be positive")
        self.c = float(c)
        self.phi = float(phi)
        self.estimate_phi = bool(estimate_phi)
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self.prior = prior

    # ------------------------------------------------------------------
    def _initial_lambda(self, problem: EstimationProblem, mean_loads: np.ndarray) -> np.ndarray:
        if isinstance(self.prior, str):
            try:
                start = make_prior(problem, self.prior)
            # Probing whether the named prior is constructible; the
            # documented nnls fallback below is the designed default.
            except EstimationError:  # reprolint: allow[fault-handling]
                start = None
        else:
            start = np.asarray(self.prior, dtype=float)
            if start.shape != (problem.num_pairs,):
                raise EstimationError(
                    f"prior has shape {start.shape}, expected ({problem.num_pairs},)"
                )
        if start is None or not np.any(start > 0):
            # Fall back to the non-negative first-moment fit.
            start = nnls(problem.routing.matrix, mean_loads).x
        return np.maximum(start, 0.0)

    def estimate(
        self, problem: EstimationProblem, *, start: Optional[np.ndarray] = None
    ) -> EstimationResult:
        """Run the pseudo-EM iteration on the problem's link-load series."""
        series = problem.series
        mean_loads, covariance = link_load_moments(series)
        routing = problem.routing.matrix
        num_snapshots = series.shape[0]

        lam = self._initial_lambda(problem, mean_loads)
        phi = self.phi
        floor = max(float(lam[lam > 0].min(initial=1.0)) * 1e-6, 1e-9)
        iterations_used = 0
        for iterations_used in range(1, self.max_iterations + 1):
            variances = phi * np.power(np.maximum(lam, floor), self.c)
            sigma_rt = variances[:, None] * routing.T
            load_cov = routing @ sigma_rt
            load_cov_inv = np.linalg.pinv(load_cov, rcond=1e-10)
            gain = sigma_rt @ load_cov_inv

            residuals = series - (routing @ lam)[None, :]
            conditional = lam[None, :] + residuals @ gain.T
            new_lam = np.maximum(conditional.mean(axis=0), 0.0)

            if self.estimate_phi:
                # Match the total variance of the observed link loads.
                model_trace = float(np.trace(routing @ (np.power(np.maximum(new_lam, floor), self.c)[:, None] * routing.T)))
                observed_trace = float(np.trace(covariance))
                if model_trace > 0 and observed_trace > 0:
                    phi = observed_trace / model_trace

            change = float(np.linalg.norm(new_lam - lam) / max(np.linalg.norm(lam), 1e-12))
            lam = new_lam
            if change < self.tolerance:
                break

        return self._result(
            problem,
            lam,
            c=self.c,
            phi=phi,
            iterations=iterations_used,
            num_snapshots=num_snapshots,
            first_moment_residual=float(np.linalg.norm(routing @ lam - mean_loads)),
        )

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """One window-level pseudo-EM fit, reported for every snapshot.

        Like Vardi, the method estimates the stationary intensities of the
        window, so the batch repeats the window estimate per snapshot.
        """
        result = self.estimate(problem)
        estimates = np.tile(result.vector, (problem.num_snapshots, 1))
        return self._series_result(
            problem, estimates, batched=True, window_estimate=True, **result.diagnostics
        )
