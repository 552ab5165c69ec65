"""Non-negative least squares (NNLS) solvers.

Most estimators in the paper reduce to a least-squares problem with a
non-negativity constraint on the demands:

    minimize ``|| A x - b ||_2^2``  subject to ``x >= 0``.

Two solvers are provided:

* :func:`nnls_active_set` — a thin wrapper around SciPy's Lawson-Hanson
  implementation, exact but cubic in the number of variables;
* :func:`nnls_projected_gradient` — a projected-gradient (FISTA-accelerated)
  solver that scales to larger problems.

:func:`nnls` picks a solver automatically based on problem size; all
functions return a :class:`NNLSResult` carrying the solution, the residual
norm and convergence diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from repro.resilience.budget import budget_tick
import scipy.sparse

from repro.errors import SolverError

__all__ = [
    "NNLSResult",
    "nnls_active_set",
    "nnls_projected_gradient",
    "nnls",
]


@dataclass(frozen=True)
class NNLSResult:
    """Solution of a non-negative least-squares problem.

    Attributes
    ----------
    x:
        The non-negative minimiser.
    residual_norm:
        ``|| A x - b ||_2`` at the solution.
    iterations:
        Number of iterations used (0 for the active-set wrapper).
    converged:
        Whether the stopping tolerance was reached before the iteration cap.
    """

    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def _validate(A, b: np.ndarray):
    """Normalise inputs; ``A`` may be dense or a SciPy sparse matrix."""
    if not scipy.sparse.issparse(A):
        A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise SolverError("A must be a two-dimensional array")
    if b.ndim != 1 or b.shape[0] != A.shape[0]:
        raise SolverError(f"b has shape {b.shape}, expected ({A.shape[0]},)")
    return A, b


def nnls_active_set(A: np.ndarray, b: np.ndarray) -> NNLSResult:
    """Exact NNLS via the Lawson-Hanson active-set algorithm (SciPy).

    Suitable for problems with up to a few thousand variables; raises
    :class:`~repro.errors.SolverError` if SciPy reports failure.  Sparse
    inputs are densified (the algorithm is inherently dense).
    """
    A, b = _validate(A, b)
    if scipy.sparse.issparse(A):
        A = A.toarray()
    try:
        x, residual = scipy.optimize.nnls(A, b)
    except Exception as exc:  # pragma: no cover - scipy failure is exceptional
        raise SolverError(f"active-set NNLS failed: {exc}") from exc
    return NNLSResult(x=x, residual_norm=float(residual), iterations=0, converged=True)


def nnls_projected_gradient(
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    max_iterations: int = 5000,
    tolerance: float = 1e-9,
) -> NNLSResult:
    """NNLS via FISTA (accelerated projected gradient).

    Parameters
    ----------
    A, b:
        Problem data.
    x0:
        Optional starting point (negative entries are clipped).
    max_iterations:
        Iteration cap.
    tolerance:
        Convergence is declared when the relative change of the objective
        between iterations falls below this value.
    """
    A, b = _validate(A, b)
    if max_iterations <= 0:
        raise SolverError("max_iterations must be positive")
    num_vars = A.shape[1]
    x = np.zeros(num_vars) if x0 is None else np.maximum(np.asarray(x0, dtype=float), 0.0)
    if x.shape != (num_vars,):
        raise SolverError(f"x0 has shape {x.shape}, expected ({num_vars},)")

    gram = A.T @ A
    if scipy.sparse.issparse(gram):
        gram = gram.toarray()
    atb = A.T @ b
    # Lipschitz constant of the gradient is the largest eigenvalue of A^T A.
    lipschitz = float(np.linalg.norm(gram, 2)) if num_vars > 0 else 1.0
    if lipschitz <= 0:
        return NNLSResult(x=x, residual_norm=float(np.linalg.norm(b)), iterations=0, converged=True)
    step = 1.0 / lipschitz

    def objective(v: np.ndarray) -> float:
        residual = A @ v - b
        return 0.5 * float(residual @ residual)

    y = x.copy()
    momentum = 1.0
    previous_objective = objective(x)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        budget_tick()
        gradient = gram @ y - atb
        x_next = np.maximum(y - step * gradient, 0.0)
        momentum_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum**2))
        y = x_next + (momentum - 1.0) / momentum_next * (x_next - x)
        x, momentum = x_next, momentum_next
        current_objective = objective(x)
        denominator = max(abs(previous_objective), 1e-12)
        if abs(previous_objective - current_objective) / denominator < tolerance:
            converged = True
            break
        previous_objective = current_objective
    residual_norm = float(np.linalg.norm(A @ x - b))
    return NNLSResult(x=x, residual_norm=residual_norm, iterations=iterations, converged=converged)


def nnls(
    A: np.ndarray,
    b: np.ndarray,
    prefer: str = "auto",
    max_iterations: int = 5000,
    tolerance: float = 1e-9,
) -> NNLSResult:
    """Solve NNLS with an automatically chosen solver.

    ``prefer`` may be ``"auto"`` (active set for small problems, projected
    gradient otherwise), ``"active-set"`` or ``"projected-gradient"``.
    """
    A, b = _validate(A, b)
    if prefer not in ("auto", "active-set", "projected-gradient"):
        raise SolverError(f"unknown solver preference {prefer!r}")
    if prefer == "active-set":
        return nnls_active_set(A, b)
    if prefer == "projected-gradient":
        return nnls_projected_gradient(A, b, max_iterations=max_iterations, tolerance=tolerance)
    if A.shape[1] <= 800:
        return nnls_active_set(A, b)
    return nnls_projected_gradient(A, b, max_iterations=max_iterations, tolerance=tolerance)
