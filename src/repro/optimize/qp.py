"""Quadratic programming: one certified solver for the least-squares methods.

Three of the paper's methods are non-negative least-squares fits over a
window of link loads, and all three reduce to the convex quadratic program

    minimise ``½ x'Gx − h'x``  subject to  ``E x = f``,  ``x >= 0``

in Gram form (``G`` is ``P × P`` whatever the window length):

* **Vardi** (Section 4.2.2) — ``G = R'R + w (R'R)^{∘2}`` from the first and
  second moments of the link loads;
* **fanout estimation** (Section 4.2.4) — ``G = (R'R) ∘ (S'S)`` with the
  equality rows "every origin's fanouts sum to one";
* **Cao's seed** — plain NNLS, ``G = R'R`` and ``h = R't``.

:func:`solve_qp` hands the problem to the QP solver of the HiGHS build that
SciPy vendors (``scipy>=1.15``), then polishes its answer with one dense
KKT solve on the free set, and certifies the result: ``optimality`` is the
complementarity residual ``max|min(x, ∇f + E'ν)|`` with least-squares
multipliers ``ν``, which is zero exactly at the minimiser.

:func:`equality_constrained_least_squares` solves the sign-free problem
``min ||A x - b||²`` subject to ``E x = f`` by its KKT system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse
from scipy.optimize._highspy import _core as highs_core  # type: ignore[attr-defined]

from repro import telemetry
from repro.errors import SolverError
from repro.resilience.budget import budget_tick

__all__ = [
    "ConstrainedLSResult",
    "equality_constrained_least_squares",
    "QPSolution",
    "solve_qp",
]

#: A point certifies as the minimiser when its complementarity residual is
#: at most this fraction of ``||h||_inf``.
CERTIFICATE_TOLERANCE = 1e-10

#: Relative eigenvalue below which ``G_FF + E_F'E_F`` counts as singular.
_RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class ConstrainedLSResult:
    """Solution of a constrained least-squares problem.

    Attributes
    ----------
    x:
        The minimiser.
    residual_norm:
        ``||A x - b||_2`` at the solution.
    equality_violation:
        ``||E x - f||_inf`` at the solution (0 for the exact KKT solver).
    """

    x: np.ndarray
    residual_norm: float
    equality_violation: float


def equality_constrained_least_squares(
    A: np.ndarray, b: np.ndarray, E: np.ndarray, f: np.ndarray
) -> ConstrainedLSResult:
    """Solve ``min ||A x - b||^2`` subject to ``E x = f`` via the KKT system.

    The KKT matrix is solved with a least-squares fallback so that redundant
    equality constraints (common when fanout rows are linearly dependent on
    the routing rows) do not cause a hard failure.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    E = np.asarray(E, dtype=float)
    f = np.asarray(f, dtype=float)
    if A.ndim != 2 or E.ndim != 2:
        raise SolverError("A and E must be two-dimensional")
    if A.shape[1] != E.shape[1]:
        raise SolverError(
            f"A has {A.shape[1]} columns but E has {E.shape[1]}; they must match"
        )
    if b.shape != (A.shape[0],):
        raise SolverError(f"b has shape {b.shape}, expected ({A.shape[0]},)")
    if f.shape != (E.shape[0],):
        raise SolverError(f"f has shape {f.shape}, expected ({E.shape[0]},)")
    num_vars = A.shape[1]
    num_eq = E.shape[0]
    kkt = np.zeros((num_vars + num_eq, num_vars + num_eq))
    kkt[:num_vars, :num_vars] = 2.0 * A.T @ A
    kkt[:num_vars, num_vars:] = E.T
    kkt[num_vars:, :num_vars] = E
    rhs = np.concatenate([2.0 * A.T @ b, f])
    solution, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    x = solution[:num_vars]
    return ConstrainedLSResult(
        x=x,
        residual_norm=float(np.linalg.norm(A @ x - b)),
        equality_violation=float(np.max(np.abs(E @ x - f))) if num_eq else 0.0,
    )


@dataclass(frozen=True)
class QPSolution:
    """Minimiser of ``½ x'Gx − h'x`` over ``{x >= 0 : E x = f}`` and its certificate.

    Attributes
    ----------
    x:
        The non-negative solution.
    iterations:
        HiGHS QP iterations (0 when a start certified on its own support).
    converged:
        Whether HiGHS reported an optimal solve within the iteration cap.
    optimality:
        ``max|min(x, G x − h + E'ν)|`` with least-squares multipliers ``ν``:
        the KKT residual, zero exactly at the minimiser.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    optimality: float


def _validate(G, h, E, f) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise SolverError("G must be a square matrix")
    num_vars = G.shape[0]
    if h.shape != (num_vars,):
        raise SolverError(f"h has shape {h.shape}, expected ({num_vars},)")
    if not np.allclose(G, G.T, rtol=1e-10, atol=1e-12 * float(np.abs(G).max(initial=1.0))):
        raise SolverError("G must be symmetric")
    if (E is None) != (f is None):
        raise SolverError("E and f must be given together")
    E = np.zeros((0, num_vars)) if E is None else np.asarray(E, dtype=float)
    f = np.zeros(0) if f is None else np.asarray(f, dtype=float)
    if E.ndim != 2 or E.shape[1] != num_vars:
        raise SolverError(f"E has shape {E.shape}, expected (m, {num_vars})")
    if f.shape != (E.shape[0],):
        raise SolverError(f"f has shape {f.shape}, expected ({E.shape[0]},)")
    return G, h, E, f


def _optimality(G: np.ndarray, h: np.ndarray, E: np.ndarray, x: np.ndarray) -> float:
    """``max|min(x, ∇f + E'ν)|``, ``ν`` the least-squares multipliers on ``x > 0``."""
    gradient = G @ x - h
    if E.shape[0]:
        free = x > 0
        multipliers = np.linalg.lstsq(E[:, free].T, -gradient[free], rcond=None)[0]
        gradient = gradient + E.T @ multipliers
    return float(np.max(np.abs(np.minimum(x, gradient)), initial=0.0))


def _well_conditioned(weights: np.ndarray) -> bool:
    """Whether the PSD matrix ``weights`` is non-singular beyond rounding.

    One Cholesky factorisation (a fraction of an eigendecomposition's cost)
    answers it for the common, full-rank case.
    """
    try:
        factor = np.linalg.cholesky(weights)
    except np.linalg.LinAlgError:
        return False
    smallest_pivot = np.min(np.diag(factor), initial=np.inf) ** 2
    return bool(smallest_pivot > _RANK_TOLERANCE * np.max(np.diag(weights), initial=0.0))


def _independent_support(
    G: np.ndarray, E: np.ndarray, x: np.ndarray, index: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink the free set ``index`` until ``[G_FF; E_F]`` has full column rank.

    A direction ``d`` with ``G_FF d = 0`` and ``E_F d = 0`` changes neither
    the objective at a KKT point nor the constraints, so the minimiser is
    not unique along it.  Each such direction is followed until a variable
    reaches zero (the shorter of the two ways), and that variable leaves
    the free set: the result is a basic minimiser, as Lawson–Hanson's.
    Returns the shrunken ``index`` and the values ``x`` takes on it.
    """
    point = x[index].copy()
    G_FF, E_F = G[np.ix_(index, index)], E[:, index]
    weights = G_FF + E_F.T @ E_F  # PSD; its null space is that of [G_FF; E_F]
    if _well_conditioned(weights):
        return index, point
    eigenvalues, eigenvectors = np.linalg.eigh(weights)
    null = eigenvectors[:, eigenvalues <= _RANK_TOLERANCE * eigenvalues[-1]]
    keep = np.ones(len(index), dtype=bool)
    for column in range(null.shape[1]):
        direction = null[:, column]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(keep & (direction != 0), point / np.abs(direction), np.inf)
        forward = np.where(direction < 0, ratios, np.inf)
        backward = np.where(direction > 0, ratios, np.inf)
        if min(forward.min(), backward.min()) == np.inf:
            continue
        if forward.min() <= backward.min():
            leaving, step = int(forward.argmin()), forward.min()
        else:
            leaving, step = int(backward.argmin()), -backward.min()
        point = point + step * direction
        point[leaving] = 0.0
        keep[leaving] = False
        # The remaining directions must leave the dropped variable at zero.
        later = null[:, column + 1 :]
        later -= np.outer(direction / direction[leaving], later[leaving])
    return index[keep], np.maximum(point[keep], 0.0)


def _kkt_point(
    G: np.ndarray, h: np.ndarray, E: np.ndarray, f: np.ndarray, x: np.ndarray, free: np.ndarray
) -> Optional[np.ndarray]:
    """The KKT point on the free set ``F`` nearest to ``x``, zero off ``F``.

    After :func:`_independent_support` has made the free columns
    independent, solves ``[G_FF E_F'; E_F 0] [d; ν] = [h_F − G_FF x_F; f −
    E_F x_F]`` and steps to ``x_F + d``.  Returns ``None`` when that point
    is not non-negative, i.e. when ``F`` is not the free set of a minimiser.
    """
    index, base = _independent_support(G, E, x, np.flatnonzero(free))
    G_FF, E_F = G[np.ix_(index, index)], E[:, index]
    size = len(index) + E.shape[0]
    kkt = np.zeros((size, size))
    kkt[: len(index), : len(index)] = G_FF
    kkt[: len(index), len(index) :] = E_F.T
    kkt[len(index) :, : len(index)] = E_F
    rhs = np.concatenate([h[index] - G_FF @ base, f - E_F @ base])
    try:
        step = np.linalg.solve(kkt, rhs)[: len(index)]
    except np.linalg.LinAlgError:
        return None
    point = base + step
    if not np.all(point >= 0):
        return None
    polished = np.zeros(len(h))
    polished[index] = point
    return polished


def _highs_qp(
    G: np.ndarray, h: np.ndarray, E: np.ndarray, f: np.ndarray, max_iterations: Optional[int]
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """One HiGHS QP solve; returns ``(x, free, iterations, optimal)``.

    HiGHS solves for ``y = x / c`` with ``c = ||h||_inf``, so the linear
    term it sees has unit norm and its absolute dual-feasibility tolerance,
    set to :data:`CERTIFICATE_TOLERANCE`, matches the certificate's.
    ``free`` marks the variables HiGHS holds off their bound of zero.  Its
    active set, not ``x > 0``, defines the free set: a variable at its bound
    can come back as a rounding-level positive value.
    """
    num_vars = len(h)
    unit = float(np.abs(h).max(initial=0.0)) or 1.0
    row_lower = row_upper = f / unit
    if not E.shape[0]:
        # Given no rows, HiGHS 1.12 can stop at x = 0 after 0 iterations and
        # call it optimal when G is singular; one free row sidesteps that.
        E = np.ones((1, num_vars))
        row_lower, row_upper = np.array([-highs_core.kHighsInf]), np.array([highs_core.kHighsInf])
    lp = highs_core.HighsLp()
    lp.num_col_ = num_vars
    lp.num_row_ = E.shape[0]
    lp.col_cost_ = -h / unit
    lp.col_lower_ = np.zeros(num_vars)
    lp.col_upper_ = np.full(num_vars, highs_core.kHighsInf)
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    constraints = scipy.sparse.csc_matrix(E)
    lp.a_matrix_.format_ = highs_core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = constraints.indptr.astype(np.int32)
    lp.a_matrix_.index_ = constraints.indices.astype(np.int32)
    lp.a_matrix_.value_ = constraints.data.astype(float)
    # HiGHS reads the lower triangle of the Hessian, column by column.
    lower = scipy.sparse.csc_matrix(np.tril(G))
    hessian = highs_core.HighsHessian()
    hessian.dim_ = num_vars
    hessian.format_ = highs_core.HessianFormat.kTriangular
    hessian.start_ = lower.indptr.astype(np.int32)
    hessian.index_ = lower.indices.astype(np.int32)
    hessian.value_ = lower.data.astype(float)
    model = highs_core.HighsModel()
    model.lp_ = lp
    model.hessian_ = hessian

    highs = highs_core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("dual_feasibility_tolerance", CERTIFICATE_TOLERANCE)
    if max_iterations is not None:
        highs.setOptionValue("qp_iteration_limit", int(max_iterations))
    status = highs.passModel(model)
    if status not in (highs_core.HighsStatus.kOk, highs_core.HighsStatus.kWarning):
        raise SolverError(f"HiGHS rejected the QP: {status}")
    highs.run()
    model_status = highs.getModelStatus()
    if model_status == highs_core.HighsModelStatus.kInfeasible:
        raise SolverError("quadratic program is infeasible")
    x = unit * np.maximum(np.asarray(highs.getSolution().col_value, dtype=float), 0.0)
    at_bound = highs_core.HighsBasisStatus.kLower
    free = np.array([column != at_bound for column in highs.getBasis().col_status], dtype=bool)
    iterations = int(highs.getInfo().qp_iteration_count)
    return x, free, iterations, model_status == highs_core.HighsModelStatus.kOptimal


def solve_qp(
    G: np.ndarray,
    h: np.ndarray,
    E: Optional[np.ndarray] = None,
    f: Optional[np.ndarray] = None,
    *,
    start: Optional[np.ndarray] = None,
    max_iterations: Optional[int] = None,
) -> QPSolution:
    """Minimise ``½ x'Gx − h'x`` subject to ``E x = f`` and ``x >= 0``.

    ``G`` must be symmetric positive semi-definite.  HiGHS's QP solver
    (an active-set method) finds the free set.  Where the free columns are
    dependent the point moves, at constant objective, to a basic minimiser;
    one dense KKT solve on the free set then polishes it, and the polished
    point is kept when it is non-negative and its certificate is no worse.

    Parameters
    ----------
    G, h:
        Hessian and linear term.
    E, f:
        Optional equality constraints ``E x = f`` (given together).
    start:
        A previous solution.  Its support seeds the free set: when the KKT
        point on that support certifies (``optimality <= 1e-10 ·
        ||h||_inf``) it is returned after 0 iterations, otherwise HiGHS runs.
    max_iterations:
        HiGHS's ``qp_iteration_limit``; a solve that hits it reports
        ``converged=False``.

    Every solve charges its iterations to the active
    :class:`~repro.resilience.SolverBudget` and opens a ``solver.qp`` span.

    Raises
    ------
    SolverError
        On malformed input or an infeasible constraint set.
    """
    G, h, E, f = _validate(G, h, E, f)
    if max_iterations is not None and max_iterations < 1:
        raise SolverError("max_iterations must be positive")
    tolerance = CERTIFICATE_TOLERANCE * float(np.abs(h).max(initial=0.0))
    # Dividing G and h by max(diag G) leaves the minimiser where it is, and
    # puts the Hessian on the scale of the equality rows, for HiGHS and for
    # the rank cut-off of the KKT solve.  Certificates use the caller's G, h.
    scale = float(np.max(np.abs(np.diag(G)), initial=0.0)) or 1.0
    unit_G, unit_h = G / scale, h / scale
    with telemetry.span("solver.qp", variables=len(h), equalities=E.shape[0]) as qp_span:
        solution = None
        if start is not None:
            start = np.asarray(start, dtype=float)
            if start.shape != h.shape:
                raise SolverError(f"start has shape {start.shape}, expected {h.shape}")
            seeded = _kkt_point(unit_G, unit_h, E, f, start, start > 0)
            if seeded is not None:
                optimality = _optimality(G, h, E, seeded)
                if optimality <= tolerance:
                    solution = QPSolution(seeded, 0, True, optimality)
        if solution is None:
            x, free, iterations, converged = _highs_qp(unit_G, unit_h, E, f, max_iterations)
            optimality = _optimality(G, h, E, x)
            polished = _kkt_point(unit_G, unit_h, E, f, x, free)
            if polished is not None:
                polished_optimality = _optimality(G, h, E, polished)
                if polished_optimality <= optimality:
                    x, optimality = polished, polished_optimality
            solution = QPSolution(x, iterations, converged, optimality)
        qp_span.set_attributes(
            iterations=solution.iterations,
            converged=solution.converged,
            optimality=solution.optimality,
        )
        budget_tick(solution.iterations)
    return solution
