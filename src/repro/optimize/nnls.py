"""Non-negative least squares (NNLS): the Lawson–Hanson reference.

    minimize ``|| A x - b ||_2^2``  subject to ``x >= 0``.

The estimators solve their least-squares problems in Gram form with
:func:`repro.optimize.qp.solve_qp`.  :func:`nnls_active_set` wraps SciPy's
Lawson–Hanson active-set implementation, which works on ``A`` itself; it is
kept as an independent reference the QP solver is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse

from repro.errors import SolverError

__all__ = [
    "NNLSResult",
    "nnls_active_set",
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
        Always 0 (SciPy does not report the active-set iterations).
    converged:
        Always ``True`` (SciPy raises instead of stopping early).
    """

    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def nnls_active_set(A: np.ndarray, b: np.ndarray) -> NNLSResult:
    """Exact NNLS via the Lawson-Hanson active-set algorithm (SciPy).

    Suitable for problems with up to a few thousand variables; raises
    :class:`~repro.errors.SolverError` if SciPy reports failure.  Sparse
    inputs are densified (the algorithm is inherently dense).
    """
    if not scipy.sparse.issparse(A):
        A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise SolverError("A must be a two-dimensional array")
    if b.ndim != 1 or b.shape[0] != A.shape[0]:
        raise SolverError(f"b has shape {b.shape}, expected ({A.shape[0]},)")
    if scipy.sparse.issparse(A):
        A = A.toarray()
    try:
        x, residual = scipy.optimize.nnls(A, b)
    except Exception as exc:  # pragma: no cover - scipy failure is exceptional
        raise SolverError(f"active-set NNLS failed: {exc}") from exc
    return NNLSResult(x=x, residual_norm=float(residual), iterations=0, converged=True)
