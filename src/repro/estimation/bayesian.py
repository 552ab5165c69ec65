"""Bayesian / regularised least-squares estimation (paper Section 4.2.3).

Modelling the prior knowledge of the traffic matrix as
``s ~ N(s^(p), sigma^2 I)`` and the link measurements as
``t = R s + v`` with unit-variance white noise, the maximum a posteriori
estimate solves

    minimise ``|| R s - t ||_2^2 + sigma^{-2} || s - s^(p) ||_2^2``
    subject to ``s >= 0``

(the non-negativity constraint is added because demands cannot be negative).
The *regularisation parameter* swept in the paper's Figure 13/15 is
``sigma^2``: small values trust the prior, large values trust the link
measurements and only use the prior to select among the solutions of
``R s = t``.

Its optimality conditions give the minimiser as ``x = max(0, p + R' y / w)``
with ``w = sigma^{-2}`` and one multiplier ``y`` per link, so the estimator
solves for ``y`` by semismooth Newton on the strongly convex dual

    ``psi(y) = ||y||^2 / 2 + (w / 2) ||max(0, p + R' y / w)||^2 - t' y``

whose generalised Hessian ``I + R_A R_A' / w`` over the active demands
``A = {x > 0}`` is a small dense ``(L, L)`` matrix.  At the minimiser
``y = t - R x``, and the dual gradient ``y + R x - t`` certifies the answer.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimationError
from repro.estimation.base import EstimationProblem, EstimationResult, Estimator
from repro.estimation.priors import make_prior
from repro.estimation.registry import register
from repro.optimize.newton import newton_minimize
from repro.resilience.budget import budget_tick

__all__ = ["BayesianEstimator"]


@register()
class BayesianEstimator(Estimator):
    """MAP estimation with a Gaussian prior around a prior traffic matrix.

    Parameters
    ----------
    regularization:
        The parameter ``sigma^2``; larger values emphasise the link-load
        measurements over the prior.  Must be positive.
    prior:
        Either an explicit prior vector or the name of a prior constructor
        understood by :func:`repro.estimation.priors.make_prior`
        (``"gravity"``, ``"wcb"``, ``"uniform"``).
    """

    name = "bayesian"

    def __init__(
        self,
        regularization: float = 1000.0,
        prior: str | np.ndarray = "gravity",
    ) -> None:
        if regularization <= 0:
            raise EstimationError("regularization (sigma^2) must be positive")
        self.regularization = float(regularization)
        self.prior = prior

    # ------------------------------------------------------------------
    def _prior_vector(self, problem: EstimationProblem) -> np.ndarray:
        if isinstance(self.prior, str):
            return make_prior(problem, self.prior)
        prior = np.asarray(self.prior, dtype=float)
        if prior.shape != (problem.num_pairs,):
            raise EstimationError(
                f"prior has shape {prior.shape}, expected ({problem.num_pairs},)"
            )
        if np.any(prior < 0):
            raise EstimationError("prior demands must be non-negative")
        return prior

    def estimate(self, problem: EstimationProblem) -> EstimationResult:
        """Solve the regularised non-negative least-squares problem."""
        prior = self._prior_vector(problem)
        snapshot = problem.snapshot
        routing = problem.routing
        weight = 1.0 / self.regularization

        def evaluate(y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
            budget_tick()
            demands = np.maximum(prior + routing.rmatvec(y) / weight, 0.0)
            value = float(0.5 * (y @ y) + 0.5 * weight * (demands @ demands) - snapshot @ y)
            gradient = y + routing.matvec(demands) - snapshot
            return value, gradient, demands

        def hessian(demands: np.ndarray) -> np.ndarray:
            matrix = routing.link_gram((demands > 0) / weight)
            matrix[np.diag_indices_from(matrix)] += 1.0
            return matrix

        solution = newton_minimize(evaluate, hessian, np.zeros(routing.num_links))
        values = solution.primal
        return self._result(
            problem,
            values,
            regularization=self.regularization,
            prior_kind=self.prior if isinstance(self.prior, str) else "explicit",
            residual_norm=float(np.linalg.norm(routing.matvec(values) - snapshot)),
            prior_distance=float(np.linalg.norm(values - prior)),
            iterations=solution.iterations,
            converged=solution.converged,
            optimality=solution.optimality,
        )
