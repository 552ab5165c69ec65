"""Numerical substrate: Newton, QP, LP, scaling.

These solvers back the estimation methods:

* :mod:`~repro.optimize.newton` — the damped-Newton driver behind the
  link-space duals of the entropy/tomogravity and Bayesian estimators;
* :mod:`~repro.optimize.qp` — :func:`solve_qp`, the certified Gram-form QP
  (HiGHS plus a KKT polish) behind Vardi, fanout and Cao's seed;
* :mod:`~repro.optimize.nnls` — SciPy's Lawson–Hanson NNLS, kept as an
  independent reference for the QP solver;
* :mod:`~repro.optimize.linear_program` — the LP wrapper and the
  incremental primal-simplex engine of the worst-case bounds;
* :mod:`~repro.optimize.ipf` — Kruithof's biproportional fitting and the
  generalised iterative scaling / KL projection.
"""

from repro.optimize.ipf import (
    IPFResult,
    generalized_iterative_scaling,
    kl_divergence,
    kruithof_scaling,
)
from repro.optimize.linear_program import (
    BatchBoundsResult,
    LPResult,
    bound_variable,
    bound_variables_batch,
    presolve_variable_bounds,
    solve_linear_program,
)
from repro.optimize.newton import NewtonResult, newton_minimize
from repro.optimize.nnls import NNLSResult, nnls_active_set
from repro.optimize.qp import (
    ConstrainedLSResult,
    QPSolution,
    equality_constrained_least_squares,
    solve_qp,
)

__all__ = [
    "NewtonResult",
    "newton_minimize",
    "NNLSResult",
    "nnls_active_set",
    "ConstrainedLSResult",
    "equality_constrained_least_squares",
    "QPSolution",
    "solve_qp",
    "LPResult",
    "BatchBoundsResult",
    "solve_linear_program",
    "bound_variable",
    "bound_variables_batch",
    "presolve_variable_bounds",
    "IPFResult",
    "kruithof_scaling",
    "generalized_iterative_scaling",
    "kl_divergence",
]
