"""Entropy-regularised (Kullback-Leibler) estimation (paper Section 4.2.1).

Following Zhang et al.'s information-theoretic formulation, the entropy
approach estimates the traffic matrix by

    minimise ``|| R s - t ||_2^2 + sigma^{-2} D(s || s^(p))``
    subject to ``s >= 0``

where ``D`` is the (generalised) Kullback-Leibler distance to the prior
``s^(p)``.  Compared to projecting the prior exactly onto ``R s = t``
(Kruithof/Krupp), this regularised form still produces an estimate when the
linear system is inconsistent, and the parameter ``sigma^2`` tunes how much
the link measurements are trusted — it is the regularisation parameter swept
in the paper's Figure 13.

The objective is strictly convex, and its optimality conditions give the
minimiser as ``s = p * exp(R' y)`` for one multiplier ``y`` per link.  The
estimator finds ``y`` by Newton's method on the smooth, strongly convex dual

    ``phi(y) = sum(p * exp(R' y)) - t' y + (c / 4) ||y||^2``

with ``c = scale / sigma^2``, whose Hessian ``R diag(s) R' + (c / 2) I`` is a
small dense ``(L, L)`` matrix.  Demands whose prior is zero stay zero, the
KL convention, without any special casing.  The dual gradient ``R s - t +
(c / 2) y`` certifies the answer: the primal gradient is ``2 R'`` times it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import EstimationError
from repro.estimation.base import EstimationProblem, EstimationResult, Estimator
from repro.estimation.priors import make_prior
from repro.estimation.registry import register
from repro.optimize.ipf import kl_divergence
from repro.optimize.newton import newton_minimize
from repro.resilience.budget import budget_tick

__all__ = ["EntropyEstimator"]


@register()
class EntropyEstimator(Estimator):
    """Estimation by least-squares fit plus KL-distance regularisation.

    Parameters
    ----------
    regularization:
        The parameter ``sigma^2``; larger values emphasise the link-load
        measurements, smaller values pull the estimate towards the prior.
    prior:
        Explicit prior vector or a prior name understood by
        :func:`repro.estimation.priors.make_prior`.
    max_iterations:
        Cap on Newton iterations.
    scale_invariant:
        When ``True`` (default) the KL term is computed on demands scaled by
        the total prior traffic, which keeps the trade-off between the two
        objective terms comparable across networks of different absolute
        traffic volumes (the paper sweeps one dimensionless parameter).
    """

    name = "entropy"

    def __init__(
        self,
        regularization: float = 1000.0,
        prior: str | np.ndarray = "gravity",
        max_iterations: int = 100,
        scale_invariant: bool = True,
    ) -> None:
        if regularization <= 0:
            raise EstimationError("regularization (sigma^2) must be positive")
        if max_iterations <= 0:
            raise EstimationError("max_iterations must be positive")
        self.regularization = float(regularization)
        self.prior = prior
        self.max_iterations = int(max_iterations)
        self.scale_invariant = bool(scale_invariant)

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

    def estimate(
        self, problem: EstimationProblem, *, start: Optional[np.ndarray] = None
    ) -> EstimationResult:
        """Minimise the regularised objective by Newton's method on its dual."""
        prior = self._prior_vector(problem)
        snapshot = problem.snapshot
        routing = problem.routing
        # Optional scale normalisation keeps sigma^2 dimensionless.
        scale = float(prior.sum()) if self.scale_invariant else 1.0
        if scale <= 0:
            scale = 1.0
        weight = scale / self.regularization
        support = prior > 0

        def evaluate(y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
            budget_tick()
            # Zero-prior demands stay zero whatever their exponent; a trial
            # point whose exponent overflows gets an infinite value, which
            # the line search backtracks from.
            with np.errstate(over="ignore"):
                growth = np.exp(routing.rmatvec(y), where=support, out=np.zeros_like(prior))
            demands = prior * growth
            value = float(demands.sum() - snapshot @ y + 0.25 * weight * (y @ y))
            gradient = routing.matvec(demands) - snapshot + 0.5 * weight * y
            return value, gradient, demands

        def hessian(demands: np.ndarray) -> np.ndarray:
            matrix = routing.link_gram(demands)
            matrix[np.diag_indices_from(matrix)] += 0.5 * weight
            return matrix

        solution = newton_minimize(
            evaluate,
            hessian,
            np.zeros(routing.num_links),
            max_iterations=self.max_iterations,
        )
        values = solution.primal
        return self._result(
            problem,
            values,
            regularization=self.regularization,
            prior_kind=self.prior if isinstance(self.prior, str) else "explicit",
            residual_norm=float(np.linalg.norm(routing.matvec(values) - snapshot)),
            kl_to_prior=kl_divergence(values, prior),
            iterations=solution.iterations,
            converged=solution.converged,
            optimality=solution.optimality,
        )
