"""Damped Newton minimisation of smooth (or semismooth) convex objectives.

The regularised estimators (entropy/tomogravity and Bayesian) minimise
strictly convex objectives over the ``P`` demands, but their optimality
conditions give the minimiser in closed form from one multiplier per link:
``s = p * exp(R' y)`` for the KL regulariser and ``x = max(0, p + R' y / w)``
for the quadratic one.  Each estimator therefore minimises a dual objective
over the ``L`` link multipliers ``y`` (``L`` is a few times the node count,
``P`` its square), whose Hessian is the small dense matrix
``R diag(d) R' + c I``.  :func:`newton_minimize` is the shared driver:
Cholesky Newton steps with Armijo backtracking, stopped on the Newton
decrement relative to the objective value.

The same driver runs semismooth Newton when the caller's Hessian is a
generalised Hessian of a piecewise-smooth gradient (Qi & Sun, "A nonsmooth
version of Newton's method", Math. Prog. 1993): the Armijo search
globalises it and the iteration terminates once the active set settles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from repro.errors import SolverError

__all__ = ["NewtonResult", "newton_minimize"]

#: Armijo sufficient-decrease constant.
_ARMIJO = 1e-4

#: Step halvings before the line search gives up (2**-60 ~ 1e-18).
_MAX_BACKTRACKS = 60

#: Stop once half the squared Newton decrement is at most this fraction of
#: the objective's magnitude: the predicted remaining decrease sits at the
#: objective's own rounding level, one quadratically convergent step past
#: any coarser choice.  Unlike an absolute gradient test this is invariant
#: to the data's scale.
_DECREMENT_TOLERANCE = 1e-15


@dataclass(frozen=True)
class NewtonResult:
    """Minimiser of a dual objective and its convergence certificate.

    Attributes
    ----------
    y:
        The minimiser.
    gradient:
        Objective gradient at ``y``.
    primal:
        The primal point the objective evaluation derived from ``y``.
    iterations:
        Newton steps taken.
    converged:
        Whether the Newton decrement met the stopping rule before the cap.
    """

    y: np.ndarray
    gradient: np.ndarray
    primal: np.ndarray
    iterations: int
    converged: bool

    @property
    def optimality(self) -> float:
        """Euclidean norm of the gradient at ``y`` (zero at the minimiser)."""
        return float(np.linalg.norm(self.gradient))


def newton_minimize(
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]],
    hessian: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    max_iterations: int = 100,
) -> NewtonResult:
    """Minimise a strictly convex objective by damped Newton steps.

    Parameters
    ----------
    evaluate:
        ``y -> (value, gradient, primal)``.  A non-finite ``value`` marks a
        point outside the numerically usable domain; the line search
        backtracks away from it.
    hessian:
        ``primal -> H``, the symmetric positive-definite (generalised)
        Hessian at the point that produced ``primal``.
    start:
        Initial point.
    max_iterations:
        Cap on Newton steps.

    The iteration stops once half the squared Newton decrement, ``-g'd / 2``
    for the Newton direction ``d``, is at most ``_DECREMENT_TOLERANCE *
    |value|``.
    """
    if max_iterations <= 0:
        raise SolverError("max_iterations must be positive")
    y = np.asarray(start, dtype=float)
    value, gradient, primal = evaluate(y)
    if not np.isfinite(value):
        raise SolverError("Newton start point has a non-finite objective")
    iterations = 0
    converged = False
    while True:
        try:
            factor = scipy.linalg.cho_factor(hessian(primal), check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"Newton Hessian is not positive definite: {exc}") from exc
        direction = -scipy.linalg.cho_solve(factor, gradient, check_finite=False)
        slope = float(gradient @ direction)
        if -0.5 * slope <= _DECREMENT_TOLERANCE * abs(value):
            converged = True
            break
        if iterations >= max_iterations:
            break
        step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            candidate = y + step * direction
            candidate_value, candidate_gradient, candidate_primal = evaluate(candidate)
            if candidate_value <= value + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            # No representable step decreases the objective: the iterate
            # sits at the floating-point floor short of the stopping rule.
            break
        iterations += 1
        y, value = candidate, candidate_value
        gradient, primal = candidate_gradient, candidate_primal
    return NewtonResult(
        y=y,
        gradient=gradient,
        primal=primal,
        iterations=iterations,
        converged=converged,
    )
