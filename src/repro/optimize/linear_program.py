"""Linear programming wrappers and the batched worst-case-bound engine.

The worst-case bounds of the paper (Section 4.3.1) solve, for every
origin-destination pair ``p``, the two linear programs

    maximise / minimise ``s_p``  subject to ``R s = t``, ``s >= 0``.

Solved naively this is two cold-start LPs per pair — the computational
bottleneck the paper itself warns about.  This module provides three layers:

* :func:`solve_linear_program` — one LP through SciPy's HiGHS interface,
  with infeasibility / unboundedness normalised into
  :class:`~repro.errors.SolverError`;
* :func:`bound_variable` — the lower/upper bound pair of one coordinate
  (now a thin wrapper over the batched engine);
* :func:`bound_variables_batch` — the batched engine: the sparse constraint
  model is built **once**, a structural presolve removes every pair whose
  bounds follow without an LP (rank-pinned coordinates of the equality
  system, and combinatorially tight intervals), and the surviving LPs are
  solved either on an incremental HiGHS model that primal simplex
  re-solves from the previous optimal basis (objective changes only), or
  fanned out in chunks across a process pool when ``n_jobs`` asks for it.

The presolve reductions are exact:

* **rank pinning** — coordinates on which the null space of ``A`` vanishes
  take the same value at every solution of ``A x = b``; that value is read
  off the minimum-norm solution, no LP needed;
* **combinatorial bounds** — ``a_ip x_p <= b_i`` gives the upper bound
  ``min_i b_i / a_ip`` over the rows traversed, and subtracting every
  competitor's upper bound from a row's right-hand side gives a lower
  bound; both always *contain* the LP bounds, so an interval that is
  already tight lets the pair skip both LPs;
* **zero witnesses** — every LP solution is a feasible point, so any
  coordinate at zero in one certifies that the minimum of that coordinate
  is exactly zero, letting later minimisation LPs be skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import scipy.optimize
import scipy.sparse
from scipy.optimize._highspy import _core as highs_core  # type: ignore[attr-defined]

from repro.errors import SolverError
from repro.parallel import (
    PayloadRef,
    effective_jobs,
    release_payload,
    resolve_payload,
    run_supervised_tasks,
    share_payload,
)

__all__ = [
    "LPResult",
    "BatchBoundsResult",
    "solve_linear_program",
    "bound_variable",
    "bound_variables_batch",
    "presolve_variable_bounds",
]

#: Relative tolerance deciding that a presolved interval is already tight.
_TIGHT_TOLERANCE = 1e-9

#: Null-space magnitude below which a coordinate counts as rank-pinned.
_PIN_TOLERANCE = 1e-10

#: Solution values below this certify "this coordinate can be zero".
_ZERO_WITNESS_TOLERANCE = 1e-11

#: HiGHS ``simplex_strategy`` value selecting primal simplex.
_PRIMAL_SIMPLEX = 4


@dataclass(frozen=True)
class LPResult:
    """Solution of one linear program.

    Attributes
    ----------
    x:
        Optimal point.
    objective:
        Optimal objective value (in the *original* sense — maximisation
        results are reported as the maximum, not its negation).
    status:
        Human-readable solver status.
    """

    x: np.ndarray
    objective: float
    status: str


@dataclass(frozen=True)
class BatchBoundsResult:
    """Lower/upper bounds of a batch of coordinates over ``{x >= 0 : A x = b}``.

    Attributes
    ----------
    indices:
        The variable indices that were bounded, in request order.
    lower, upper:
        Bound arrays aligned with ``indices``.
    num_pinned:
        Coordinates resolved by rank pinning (no LP).
    num_tight:
        Coordinates whose combinatorial interval was already tight (no LP).
    num_lps_solved:
        Linear programs actually handed to the solver.
    num_lower_skipped:
        Minimisation LPs skipped thanks to a zero witness.
    engine:
        ``"highs-incremental"`` or ``"presolve-only"``.
    n_jobs:
        Number of worker processes used (1 = in-process).
    """

    indices: tuple[int, ...]
    lower: np.ndarray
    upper: np.ndarray
    num_pinned: int = 0
    num_tight: int = 0
    num_lps_solved: int = 0
    num_lower_skipped: int = 0
    engine: str = "presolve-only"
    n_jobs: int = 1

    def pairs(self) -> list[tuple[float, float]]:
        """The ``(lower, upper)`` tuples in request order."""
        return [(float(lo), float(up)) for lo, up in zip(self.lower, self.upper)]


def solve_linear_program(
    cost: np.ndarray,
    equality_matrix: Optional[np.ndarray] = None,
    equality_rhs: Optional[np.ndarray] = None,
    upper_bounds: Optional[np.ndarray] = None,
    maximise: bool = False,
) -> LPResult:
    """Solve ``min/max cost @ x`` s.t. ``equality_matrix @ x = equality_rhs``, ``0 <= x <= ub``.

    Parameters
    ----------
    cost:
        Objective coefficients.
    equality_matrix, equality_rhs:
        Equality constraints (may be omitted together).  The matrix may be
        dense or a SciPy sparse matrix; sparse constraints are passed to the
        HiGHS solver without densification.
    upper_bounds:
        Optional per-variable upper bounds (``None`` entries mean unbounded).
    maximise:
        Maximise instead of minimise.

    Raises
    ------
    SolverError
        On infeasible, unbounded or otherwise failed problems.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 1:
        raise SolverError("cost must be a one-dimensional array")
    if (equality_matrix is None) != (equality_rhs is None):
        raise SolverError("equality_matrix and equality_rhs must be given together")
    if equality_matrix is not None:
        if not scipy.sparse.issparse(equality_matrix):
            equality_matrix = np.asarray(equality_matrix, dtype=float)
        equality_rhs = np.asarray(equality_rhs, dtype=float)
        if equality_matrix.shape != (len(equality_rhs), len(cost)):
            raise SolverError(
                f"equality matrix shape {equality_matrix.shape} inconsistent with "
                f"{len(equality_rhs)} constraints and {len(cost)} variables"
            )
    if upper_bounds is None:
        bounds = [(0.0, None)] * len(cost)
    else:
        upper_bounds = np.asarray(upper_bounds, dtype=float)
        if upper_bounds.shape != cost.shape:
            raise SolverError("upper_bounds must match the number of variables")
        bounds = [(0.0, float(ub) if np.isfinite(ub) else None) for ub in upper_bounds]

    sign = -1.0 if maximise else 1.0
    outcome = scipy.optimize.linprog(
        c=sign * cost,
        A_eq=equality_matrix,
        b_eq=equality_rhs,
        bounds=bounds,
        method="highs",
    )
    if not outcome.success:
        raise SolverError(f"linear program failed: {outcome.message}")
    return LPResult(x=np.asarray(outcome.x), objective=float(sign * outcome.fun), status=outcome.message)


# ----------------------------------------------------------------------
# structural presolve
# ----------------------------------------------------------------------
def _as_csr(matrix: Union[np.ndarray, scipy.sparse.spmatrix]) -> scipy.sparse.csr_matrix:
    if scipy.sparse.issparse(matrix):
        return matrix.tocsr()
    return scipy.sparse.csr_matrix(np.asarray(matrix, dtype=float))


def presolve_variable_bounds(
    matrix: Union[np.ndarray, scipy.sparse.spmatrix],
    rhs: np.ndarray,
    propagation_rounds: int = 3,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Structural bounds on every coordinate of ``{x >= 0 : A x = b}``.

    Returns ``(lower, upper, pinned)``:

    * ``upper[p] = min_i b_i / a_ip`` over rows with ``a_ip > 0`` — the
      "minimum traversed link load" bound (``inf`` when no row covers the
      variable);
    * ``lower[p]`` from interval propagation: a row's load minus the upper
      bounds of every competing variable on that row, iterated
      ``propagation_rounds`` times;
    * ``pinned`` marks coordinates on which the null space of ``A``
      vanishes; for those, ``lower == upper`` equals the unique value the
      equality system allows.

    These intervals always **contain** the exact LP bounds, and they are
    valid for any feasible system; infeasibility is *not* detected here.
    """
    csr = _as_csr(matrix)
    rhs = np.asarray(rhs, dtype=float)
    num_rows, num_vars = csr.shape
    if rhs.shape != (num_rows,):
        raise SolverError(f"rhs has shape {rhs.shape}, expected ({num_rows},)")

    coo = csr.tocoo()
    # The combinatorial reasoning below assumes non-negative coefficients
    # (true for routing systems); with mixed signs fall back to the trivial
    # intervals and let the rank analysis do what it can.
    combinatorial = not np.any(coo.data < 0)
    positive = coo.data > 0
    rows, cols, vals = coo.row[positive], coo.col[positive], coo.data[positive]

    upper = np.full(num_vars, np.inf)
    if combinatorial and len(vals):
        np.minimum.at(upper, cols, rhs[rows] / vals)

    lower = np.zeros(num_vars)
    if combinatorial and len(vals):
        covered = np.zeros(num_vars, dtype=bool)
        covered[cols] = True
        for _ in range(max(1, propagation_rounds)):
            finite = np.isfinite(upper)
            capped = np.where(finite, upper, 0.0)
            row_cap = np.zeros(num_rows)
            np.add.at(row_cap, rows, vals * capped[cols])
            row_free_count = np.zeros(num_rows)
            np.add.at(row_free_count, rows, (~finite[cols]).astype(float))
            # b_i - (row cap without p's own contribution), valid only when
            # every *other* variable on the row has a finite upper bound:
            # either the row has no unbounded variable at all, or exactly
            # one and it is p itself.
            candidate = (rhs[rows] - row_cap[rows] + vals * capped[cols]) / vals
            usable = (row_free_count[rows] == 0) | (
                (row_free_count[rows] == 1) & ~finite[cols]
            )
            new_lower = lower.copy()
            np.maximum.at(new_lower, cols[usable], candidate[usable])
            new_lower = np.maximum(new_lower, 0.0)
            # Tighter lower bounds tighten nothing else in this scheme, so
            # one extra round with refreshed uppers is enough to converge.
            if np.allclose(new_lower, lower):
                lower = new_lower
                break
            lower = new_lower
        lower = np.minimum(lower, np.where(np.isfinite(upper), upper, lower))
        lower[~covered] = 0.0

    pinned = _rank_pinned_values(csr, rhs, num_vars)
    if pinned is not None:
        pinned_mask, pinned_values = pinned
        lower = np.where(pinned_mask, pinned_values, lower)
        upper = np.where(pinned_mask, pinned_values, upper)
        return lower, upper, pinned_mask
    return lower, upper, np.zeros(num_vars, dtype=bool)


def _rank_pinned_values(
    csr: scipy.sparse.csr_matrix, rhs: np.ndarray, num_vars: int
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Coordinates fixed by the equality system alone, and their values.

    A coordinate whose component vanishes on the whole null space of ``A``
    takes the same value at *every* solution of ``A x = b``; the value is
    read off the minimum-norm solution.  Returns ``None`` when the dense
    decomposition would be unreasonably large.
    """
    num_rows = csr.shape[0]
    # The SVD is O(min(m,n)^2 * max(m,n)) on the dense matrix; routing
    # systems are small on the row side, so this stays far below one LP.
    if num_rows * num_vars > 4_000_000:
        return None
    dense = csr.toarray()
    try:
        _, singular, vt = np.linalg.svd(dense, full_matrices=True)
    except np.linalg.LinAlgError:
        return None
    tol = (singular.max(initial=0.0)) * max(dense.shape) * np.finfo(float).eps
    rank = int((singular > tol).sum())
    if rank >= num_vars:
        pinned_mask = np.ones(num_vars, dtype=bool)
    else:
        null_basis = vt[rank:]
        pinned_mask = np.abs(null_basis).max(axis=0) < _PIN_TOLERANCE
    if not pinned_mask.any():
        return pinned_mask, np.zeros(num_vars)
    min_norm, *_ = np.linalg.lstsq(dense, rhs, rcond=None)
    values = np.where(pinned_mask, np.maximum(min_norm, 0.0), 0.0)
    return pinned_mask, values


# ----------------------------------------------------------------------
# incremental HiGHS engine
# ----------------------------------------------------------------------
class _IncrementalBoundSolver:
    """One HiGHS model, re-solved per coordinate with a warm basis.

    The constraint matrix and right-hand side are loaded once; bounding a
    coordinate is then two objective flips (`changeColCost` +
    `changeObjectiveSense`), each re-solved by HiGHS from the basis of the
    previous solve — orders of magnitude cheaper than cold-start LPs.
    The model runs on the HiGHS bindings vendored by SciPy (``scipy>=1.15``).

    Only the objective changes between solves, so the previous optimal
    basis stays *primal* feasible; the model therefore runs primal simplex,
    which starts from that basis directly, where HiGHS's default dual
    simplex would first repair its dual infeasibilities in a phase 1.
    """

    def __init__(self, csc: scipy.sparse.csc_matrix, rhs: np.ndarray) -> None:
        num_rows, num_vars = csc.shape
        lp = highs_core.HighsLp()
        lp.num_col_ = num_vars
        lp.num_row_ = num_rows
        lp.col_cost_ = np.zeros(num_vars)
        lp.col_lower_ = np.zeros(num_vars)
        lp.col_upper_ = np.full(num_vars, highs_core.kHighsInf)
        lp.row_lower_ = np.asarray(rhs, dtype=float)
        lp.row_upper_ = np.asarray(rhs, dtype=float)
        lp.a_matrix_.format_ = highs_core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = csc.indptr.astype(np.int32)
        lp.a_matrix_.index_ = csc.indices.astype(np.int32)
        lp.a_matrix_.value_ = csc.data.astype(float)
        self._highs = highs_core._Highs()
        self._highs.setOptionValue("output_flag", False)
        self._highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
        status = self._highs.passModel(lp)
        if status not in (highs_core.HighsStatus.kOk, highs_core.HighsStatus.kWarning):
            raise SolverError(f"HiGHS rejected the bounds model: {status}")

    def solve(self, index: int, maximise: bool) -> tuple[float, np.ndarray]:
        """Optimal value and solution of ``min/max x_index``."""
        highs = self._highs
        highs.changeColCost(index, 1.0)
        sense = highs_core.ObjSense.kMaximize if maximise else highs_core.ObjSense.kMinimize
        highs.changeObjectiveSense(sense)
        highs.run()
        model_status = highs.getModelStatus()
        if model_status != highs_core.HighsModelStatus.kOptimal:
            highs.changeColCost(index, 0.0)
            raise SolverError(
                f"linear program failed: {highs.modelStatusToString(model_status)}"
            )
        objective = float(highs.getObjectiveValue())
        solution = np.asarray(highs.getSolution().col_value, dtype=float)
        highs.changeColCost(index, 0.0)
        return objective, solution


def _solve_bound_chunk(
    csc: scipy.sparse.csc_matrix,
    rhs: np.ndarray,
    indices: Sequence[int],
    presolve_lower: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Bound ``indices`` on one solver instance, sharing zero witnesses.

    Returns ``(lower, upper, num_lps, num_lower_skipped)`` with the
    bound arrays aligned to ``indices``.  The maximisation LP runs first:
    its solution is a feasible point, and every coordinate at zero in a
    feasible point has an exact lower bound of zero — so later minimisation
    LPs whose propagated lower bound is already zero can be skipped.
    """
    solver = _IncrementalBoundSolver(csc, rhs)
    zero_witness = np.zeros(csc.shape[1], dtype=bool)
    lower = np.empty(len(indices))
    upper = np.empty(len(indices))
    num_lps = 0
    num_skipped = 0
    for out, index in enumerate(indices):
        up, solution = solver.solve(index, maximise=True)
        num_lps += 1
        zero_witness |= solution <= _ZERO_WITNESS_TOLERANCE
        if presolve_lower[index] <= _ZERO_WITNESS_TOLERANCE and zero_witness[index]:
            lo = 0.0
            num_skipped += 1
        else:
            lo, solution = solver.solve(index, maximise=False)
            num_lps += 1
            zero_witness |= solution <= _ZERO_WITNESS_TOLERANCE
        lower[out] = lo
        upper[out] = up
    return lower, upper, num_lps, num_skipped


def _solve_shared_chunk(model_ref: PayloadRef, indices: Sequence[int]):
    """Pool entry point: the constraint model arrives as a shared-payload ref.

    ``(csc, rhs, presolve_lower)`` is registered once via
    :func:`repro.parallel.share_payload`; fork workers inherit it without
    pickling, spawn workers receive it once per worker — never per chunk.
    """
    csc, rhs, presolve_lower = resolve_payload(model_ref)
    return _solve_bound_chunk(csc, rhs, indices, presolve_lower)


def bound_variables_batch(
    indices: Sequence[int],
    equality_matrix: Union[np.ndarray, scipy.sparse.spmatrix],
    equality_rhs: np.ndarray,
    n_jobs: Optional[int] = 1,
    presolve: bool = True,
    chunk_size: Optional[int] = None,
) -> BatchBoundsResult:
    """Lower and upper bounds of many coordinates over ``{x >= 0 : A x = b}``.

    The batched replacement for per-coordinate :func:`bound_variable` calls:
    the sparse constraint model is built once, the structural presolve
    (see :func:`presolve_variable_bounds`) resolves rank-pinned and
    combinatorially tight coordinates without any LP, and the surviving LPs
    run on an incremental HiGHS model re-solved from the previous basis —
    in-process for ``n_jobs=1``, or chunked across a process pool.

    Parameters
    ----------
    indices:
        Variable indices to bound (request order is preserved).
    equality_matrix, equality_rhs:
        The constraint system; dense or SciPy sparse.
    n_jobs:
        Worker processes for the surviving LPs.  ``1`` (default) solves
        in-process; ``None`` uses ``os.cpu_count()``.  The chunks run on
        :func:`repro.parallel.run_supervised_tasks`, so a crashed worker's
        chunk is resubmitted and, failing that, re-solved in the parent;
        each chunk builds its model once from the shared arrays.
    presolve:
        Disable to force every requested coordinate through the LPs
        (used by the parity tests).
    chunk_size:
        Pairs per chunk (default: survivors split evenly per worker, so a
        single chunk for ``n_jobs=1``).  Each chunk runs on its own solver
        instance, so the bounds depend on the chunking in the last bits,
        but not on which process solves a chunk: with the same
        ``chunk_size``, any ``n_jobs`` and any worker crash give the same
        bounds bit for bit.

    Raises
    ------
    SolverError
        On invalid input, or when any surviving LP is infeasible/unbounded.
    """
    csr = _as_csr(equality_matrix)
    rhs = np.asarray(equality_rhs, dtype=float)
    num_rows, num_vars = csr.shape
    if rhs.shape != (num_rows,):
        raise SolverError(f"rhs has shape {rhs.shape}, expected ({num_rows},)")
    index_list = [int(i) for i in indices]
    for index in index_list:
        if not 0 <= index < num_vars:
            raise SolverError(f"variable index {index} out of range for {num_vars} variables")
    if not index_list:
        return BatchBoundsResult(indices=(), lower=np.empty(0), upper=np.empty(0))

    lower = np.empty(len(index_list))
    upper = np.empty(len(index_list))
    num_pinned = 0
    num_tight = 0
    surviving: list[int] = []  # positions into index_list
    if presolve:
        pre_lower, pre_upper, pinned = presolve_variable_bounds(csr, rhs)
        scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
        for pos, index in enumerate(index_list):
            if pinned[index]:
                lower[pos] = upper[pos] = pre_lower[index]
                num_pinned += 1
            elif (
                np.isfinite(pre_upper[index])
                and pre_upper[index] - pre_lower[index] <= _TIGHT_TOLERANCE * scale
            ):
                lower[pos] = pre_lower[index]
                upper[pos] = pre_upper[index]
                num_tight += 1
            else:
                surviving.append(pos)
    else:
        pre_lower = np.zeros(num_vars)
        surviving = list(range(len(index_list)))

    engine = "presolve-only"
    num_lps = 0
    num_skipped = 0
    jobs = effective_jobs(n_jobs, len(surviving), error=SolverError)
    if not surviving and presolve:
        # Every requested coordinate was resolved structurally, so no LP ran
        # to certify feasibility; presolve on an infeasible system produces
        # garbage silently.  One zero-objective LP settles it.
        solve_linear_program(np.zeros(num_vars), csr, rhs)
    if surviving:
        if chunk_size is None:
            chunk_size = max(1, -(-len(surviving) // jobs))
        chunks = [
            surviving[start : start + chunk_size]
            for start in range(0, len(surviving), chunk_size)
        ]
        model_ref = share_payload((csr.tocsc(), rhs, pre_lower))
        try:
            chunk_results, _pool_report = run_supervised_tasks(
                _solve_shared_chunk,
                [(model_ref, [index_list[pos] for pos in chunk]) for chunk in chunks],
                jobs=jobs,
            )
        finally:
            release_payload(model_ref)
        engine = "highs-incremental"
        for chunk, (chunk_lower, chunk_upper, lps, skipped) in zip(
            chunks, chunk_results
        ):
            for offset, pos in enumerate(chunk):
                lower[pos] = chunk_lower[offset]
                upper[pos] = chunk_upper[offset]
            num_lps += lps
            num_skipped += skipped

    return BatchBoundsResult(
        indices=tuple(index_list),
        lower=lower,
        upper=upper,
        num_pinned=num_pinned,
        num_tight=num_tight,
        num_lps_solved=num_lps,
        num_lower_skipped=num_skipped,
        engine=engine,
        n_jobs=jobs,
    )


def bound_variable(
    index: int,
    equality_matrix: np.ndarray,
    equality_rhs: np.ndarray,
    num_variables: Optional[int] = None,
) -> tuple[float, float]:
    """Lower and upper bound of coordinate ``index`` over ``{x >= 0 : A x = b}``.

    Returns ``(lower, upper)``.  This is exactly the per-demand bound pair
    of the paper's worst-case-bound method, kept as a thin wrapper over
    :func:`bound_variables_batch` — callers bounding more than one
    coordinate should use the batch API directly.
    """
    if num_variables is not None:
        matrix_cols = (
            equality_matrix.shape[1]
            if scipy.sparse.issparse(equality_matrix)
            else np.asarray(equality_matrix, dtype=float).shape[1]
        )
        if matrix_cols != num_variables:
            raise SolverError(
                f"equality matrix has {matrix_cols} columns, expected {num_variables}"
            )
    result = bound_variables_batch([index], equality_matrix, equality_rhs, n_jobs=1)
    return float(result.lower[0]), float(result.upper[0])
