"""Worst-case bounds on demands (paper Section 4.3.1) and the WCB prior.

With no statistical assumptions at all, a single link-load snapshot confines
the demand vector to the polytope ``{s >= 0 : R s = t}``.  The tightest
possible deterministic statement about an individual demand ``s_p`` is then
the pair of linear programs

    ``maximise / minimise s_p  subject to  R s = t, s >= 0``.

The paper computes these bounds for every demand, observes that they are
usually loose but non-trivial, and — importantly — finds that the *midpoint*
of each bound pair is a surprisingly good estimate, good enough to serve as
the prior of the regularised methods (its "WCB prior", Figures 9 and 15).

Two LPs per pair is the computational cost the paper warns about.  The
heavy lifting now happens in
:func:`repro.optimize.linear_program.bound_variables_batch`: the constraint
model is built once, rank-pinned and combinatorially tight pairs are
resolved without any LP, and the surviving LPs run on an incremental HiGHS
model (optionally fanned out over a process pool via ``n_jobs``).  The
paper's own mitigation — bounding only the large demands — is available
through :func:`select_large_pairs` and the estimator's ``max_pairs`` /
``top_fraction`` parameters; pairs left unbounded fall back to an even
split of the residual traffic.

:class:`WorstCaseBoundsEstimator` computes the bounds and uses the midpoints
as its point estimate; the bounds themselves are returned in the result
diagnostics under ``"lower_bounds"`` and ``"upper_bounds"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import EstimationError, SolverError
from repro.estimation.base import EstimationProblem, EstimationResult, Estimator
from repro.estimation.registry import register
from repro.optimize.linear_program import bound_variables_batch, presolve_variable_bounds
from repro.topology.elements import NodePair

__all__ = [
    "DemandBounds",
    "WorstCaseBoundsEstimator",
    "worst_case_bounds",
    "select_large_pairs",
]


@dataclass(frozen=True)
class DemandBounds:
    """Lower and upper worst-case bounds for one demand."""

    pair: NodePair
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower < -1e-9:
            raise EstimationError(f"negative lower bound for {self.pair}")
        if self.upper < self.lower - 1e-6:
            raise EstimationError(f"upper bound below lower bound for {self.pair}")

    @property
    def midpoint(self) -> float:
        """The centre of the bound interval (the WCB prior value)."""
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> float:
        """Width of the interval; zero means the demand is exactly identified."""
        return self.upper - self.lower

    def is_exact(self, tolerance: float = 1e-6) -> bool:
        """Whether the bounds pin the demand down to within ``tolerance``."""
        return self.width <= tolerance

    def contains(self, value: float, tolerance: float = 1e-6) -> bool:
        """Whether ``value`` lies inside the interval (with tolerance)."""
        return self.lower - tolerance <= value <= self.upper + tolerance


def _constraint_system(problem: EstimationProblem, use_edge_totals: bool):
    """The (matrix, rhs) pair the bounds are computed over."""
    routing = problem.routing
    if use_edge_totals:
        return problem.augmented_system()
    if routing.backend_kind == "sparse":
        return routing.backend.raw, problem.snapshot
    return routing.matrix, problem.snapshot


def worst_case_bounds(
    problem: EstimationProblem,
    pairs: Optional[Sequence[NodePair]] = None,
    use_edge_totals: bool = True,
    n_jobs: Optional[int] = 1,
) -> list[DemandBounds]:
    """Compute the per-demand LP bounds for ``pairs`` (default: all pairs).

    The bounds come from the batched engine
    (:func:`repro.optimize.linear_program.bound_variables_batch`): one
    constraint model, structural presolve, and incremental LP re-solves for
    whatever survives — restricting ``pairs`` to the large demands (see
    :func:`select_large_pairs`) remains the paper's standard mitigation on
    top of that.

    With ``use_edge_totals`` (the default) the constraint set is the
    augmented system including the per-node ingress/egress totals, matching
    the paper's network view where access and peering links are measured
    like any other link; without them the bounds come from interior links
    only and are considerably looser.

    Parameters
    ----------
    problem, pairs, use_edge_totals:
        As before.
    n_jobs:
        Worker processes for the surviving LPs (``1`` in-process,
        ``None`` = all cores); forwarded to the batch engine.
    """
    routing = problem.routing
    constraint_matrix, constraint_rhs = _constraint_system(problem, use_edge_totals)
    target_pairs = list(pairs) if pairs is not None else list(problem.pairs)
    indices = [routing.pair_index(pair) for pair in target_pairs]
    try:
        batch = bound_variables_batch(
            indices, constraint_matrix, constraint_rhs, n_jobs=n_jobs
        )
    except SolverError as exc:
        raise EstimationError(f"worst-case bound LPs failed: {exc}") from exc
    bounds: list[DemandBounds] = []
    for pair, lower, upper in zip(target_pairs, batch.lower, batch.upper):
        lower = max(0.0, float(lower))
        upper = max(lower, float(upper))
        bounds.append(DemandBounds(pair=pair, lower=lower, upper=upper))
    return bounds


def select_large_pairs(
    problem: EstimationProblem,
    max_pairs: Optional[int] = None,
    top_fraction: Optional[float] = None,
    use_edge_totals: bool = True,
) -> list[NodePair]:
    """The pairs most likely to carry large demands (the paper's subset).

    Section 4.3.1's mitigation for the LP cost is to bound only the large
    demands.  The selection proxy here is the *combinatorial upper bound*
    of each pair — the minimum load over the rows it traverses — which
    needs no LP and no prior: a pair whose every link carries little
    traffic cannot be large.  The ``max_pairs`` and/or ``top_fraction``
    pairs with the largest proxies are selected; the result is returned in
    the problem's canonical pair order (not by proxy size), matching how
    every other pair list in the library is ordered.
    """
    if max_pairs is None and top_fraction is None:
        return list(problem.pairs)
    if max_pairs is not None and max_pairs < 1:
        raise EstimationError("max_pairs must be at least 1")
    if top_fraction is not None and not 0 < top_fraction <= 1:
        raise EstimationError("top_fraction must lie in (0, 1]")
    matrix, rhs = _constraint_system(problem, use_edge_totals)
    _, upper, _ = presolve_variable_bounds(matrix, rhs)
    routing = problem.routing
    proxy = np.array([upper[routing.pair_index(pair)] for pair in problem.pairs])
    proxy = np.where(np.isfinite(proxy), proxy, np.inf)
    keep = len(proxy)
    if top_fraction is not None:
        keep = min(keep, max(1, int(round(top_fraction * len(proxy)))))
    if max_pairs is not None:
        keep = min(keep, max_pairs)
    order = np.argsort(-proxy, kind="stable")[:keep]
    return [problem.pairs[idx] for idx in sorted(order.tolist())]


@register()
class WorstCaseBoundsEstimator(Estimator):
    """Point estimation by the midpoints of the worst-case bounds.

    Parameters
    ----------
    pairs:
        Optional explicit subset of pairs to bound exactly.
    max_pairs, top_fraction:
        Bound only the ``max_pairs`` (or ``top_fraction`` of all) pairs
        with the largest combinatorial upper bounds — the paper's
        large-demands-only mitigation (see :func:`select_large_pairs`).
        Ignored when ``pairs`` is given.  By default every pair is bounded.
    use_edge_totals:
        Include the per-node ingress/egress totals in the constraint set
        (default ``True``; see :func:`worst_case_bounds`).
    n_jobs:
        Worker processes for the LP batch (``1`` in-process, ``None`` =
        all cores).

    Pairs left outside the bounded subset fall back to an even split of
    the residual traffic (total traffic minus the bounded midpoints) —
    cheap, and only used for the small demands the subset excludes.  Their
    entries in the ``lower_bounds`` / ``upper_bounds`` diagnostics stay
    ``0`` / ``NaN`` since no bound was computed for them.
    """

    name = "worst-case-bounds"

    def __init__(
        self,
        pairs: Optional[Sequence[NodePair]] = None,
        use_edge_totals: bool = True,
        max_pairs: Optional[int] = None,
        top_fraction: Optional[float] = None,
        n_jobs: Optional[int] = 1,
    ) -> None:
        self.pairs = tuple(pairs) if pairs is not None else None
        self.use_edge_totals = bool(use_edge_totals)
        if max_pairs is not None and max_pairs < 1:
            raise EstimationError("max_pairs must be at least 1")
        if top_fraction is not None and not 0 < top_fraction <= 1:
            raise EstimationError("top_fraction must lie in (0, 1]")
        self.max_pairs = max_pairs
        self.top_fraction = top_fraction
        self.n_jobs = n_jobs

    def _target_pairs(self, problem: EstimationProblem) -> list[NodePair]:
        if self.pairs is not None:
            return list(self.pairs)
        if self.max_pairs is None and self.top_fraction is None:
            return list(problem.pairs)
        return select_large_pairs(
            problem,
            max_pairs=self.max_pairs,
            top_fraction=self.top_fraction,
            use_edge_totals=self.use_edge_totals,
        )

    def estimate(
        self, problem: EstimationProblem, *, start: Optional[np.ndarray] = None
    ) -> EstimationResult:
        """Bound every selected demand and return the interval midpoints.

        Unselected pairs receive an even share of the residual traffic:
        the problem's total traffic minus the sum of the bounded midpoints,
        clipped at zero.
        """
        target_pairs = self._target_pairs(problem)
        bounds = worst_case_bounds(
            problem,
            target_pairs,
            use_edge_totals=self.use_edge_totals,
            n_jobs=self.n_jobs,
        )
        by_pair = {b.pair: b for b in bounds}
        values = np.zeros(problem.num_pairs)
        lower_bounds = np.zeros(problem.num_pairs)
        upper_bounds = np.full(problem.num_pairs, np.nan)
        unbounded: list[int] = []
        for idx, pair in enumerate(problem.pairs):
            if pair in by_pair:
                values[idx] = by_pair[pair].midpoint
                lower_bounds[idx] = by_pair[pair].lower
                upper_bounds[idx] = by_pair[pair].upper
            else:
                unbounded.append(idx)
        fallback_share = 0.0
        if unbounded:
            residual = max(0.0, problem.total_traffic() - float(values.sum()))
            fallback_share = residual / len(unbounded)
            values[unbounded] = fallback_share
        exact = sum(1 for b in bounds if b.is_exact())
        return self._result(
            problem,
            values,
            lower_bounds=lower_bounds,
            upper_bounds=upper_bounds,
            num_bounded=len(bounds),
            num_exact=exact,
            num_fallback=len(unbounded),
            fallback_share=fallback_share,
            mean_width=float(np.mean([b.width for b in bounds])) if bounds else 0.0,
        )
