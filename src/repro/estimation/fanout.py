"""Fanout estimation from a time series of link loads (paper Section 4.2.4).

The fanout formulation writes every demand as ``s_nm[k] = alpha_nm *
t_e(n)[k]``: the fraction ``alpha_nm`` of the traffic entering the network
at ``n`` that leaves at ``m``, times the (observable) total ingress traffic
of ``n``.  Section 5.2.2 of the paper shows that fanouts are much more
stable over the day than the demands themselves, which motivates estimating
a *single* fanout vector from a whole window of measurements:

    minimise ``sum_k || R S[k] alpha - t[k] ||_2^2``
    subject to ``sum_m alpha_nm = 1`` for every origin ``n``,  ``alpha >= 0``

where ``S[k] = diag(t_e(origin(p))[k])`` converts fanouts into demands for
snapshot ``k``.  Already for window length 3 the stacked system becomes
overdetermined; the paper's Figure 11 shows the error dropping quickly with
the first few snapshots and then levelling out.

:class:`FanoutEstimator` solves this constrained least-squares problem with
:func:`repro.optimize.qp.constrained_nnls` and reports, as its point
estimate, the window-average demands ``mean_k t_e(n)[k] * alpha_nm`` (the
quantity the paper plots in Figure 10).
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
from repro.estimation.registry import register
from repro.optimize.qp import constrained_nnls

__all__ = ["FanoutEstimator"]


@register()
class FanoutEstimator(Estimator):
    """Constant-fanout estimation over a window of link-load measurements.

    Parameters
    ----------
    window_length:
        Number of snapshots (from the start of the problem's series) to use;
        ``None`` uses the full series.
    solver:
        NNLS solver preference forwarded to the constrained solver.
    """

    name = "fanout"

    def __init__(self, window_length: Optional[int] = None, solver: str = "auto") -> None:
        if window_length is not None and window_length < 1:
            raise EstimationError("window_length must be at least 1")
        self.window_length = window_length
        self.solver = solver

    # ------------------------------------------------------------------
    def _origin_totals_series(
        self, problem: EstimationProblem, num_snapshots: int, origins: list[str]
    ) -> np.ndarray:
        """Per-snapshot ingress totals per origin, shape ``(K, N_origins)``."""
        if problem.origin_totals_series is not None:
            series = np.asarray(problem.origin_totals_series, dtype=float)
            if series.shape[0] < num_snapshots:
                raise EstimationError(
                    "origin_totals_series has fewer snapshots than the link-load series"
                )
            name_to_col = {name: i for i, name in enumerate(problem.origin_names)}
            missing = [origin for origin in origins if origin not in name_to_col]
            if missing:
                raise EstimationError(f"origin totals series missing origins {missing}")
            columns = [name_to_col[origin] for origin in origins]
            return series[:num_snapshots, columns]
        if problem.origin_totals is not None:
            row = np.array([problem.origin_totals.get(origin, 0.0) for origin in origins])
            return np.tile(row, (num_snapshots, 1))
        raise EstimationError(
            "fanout estimation needs origin ingress totals "
            "(origin_totals_series or origin_totals)"
        )

    def estimate(
        self, problem: EstimationProblem, *, start: Optional[np.ndarray] = None
    ) -> EstimationResult:
        """Fit a single fanout vector to the measurement window."""
        if problem.link_load_series is None:
            raise EstimationError("fanout estimation requires a link-load time series")
        series = problem.link_load_series
        num_snapshots = series.shape[0]
        if self.window_length is not None:
            if self.window_length > num_snapshots:
                raise EstimationError(
                    f"window_length {self.window_length} exceeds available "
                    f"{num_snapshots} snapshots"
                )
            num_snapshots = self.window_length
            series = series[:num_snapshots]

        pairs = problem.pairs
        origins = list(dict.fromkeys(pair.origin for pair in pairs))
        origin_index = {origin: idx for idx, origin in enumerate(origins)}
        ingress = self._origin_totals_series(problem, num_snapshots, origins)

        routing = problem.routing.matrix
        num_links, num_pairs = routing.shape
        pair_origin_col = np.array([origin_index[pair.origin] for pair in pairs])

        # Stack R * diag(t_e(origin(p))[k]) for every snapshot in the window.
        blocks = np.empty((num_snapshots * num_links, num_pairs))
        rhs = np.empty(num_snapshots * num_links)
        for k in range(num_snapshots):
            scaling = ingress[k, pair_origin_col]
            blocks[k * num_links : (k + 1) * num_links] = routing * scaling[None, :]
            rhs[k * num_links : (k + 1) * num_links] = series[k]

        # One equality row per origin: its fanouts sum to one.
        equality = np.zeros((len(origins), num_pairs))
        for col, pair in enumerate(pairs):
            equality[origin_index[pair.origin], col] = 1.0
        targets = np.ones(len(origins))

        scale = float(np.abs(blocks).max(initial=1.0))
        solution = constrained_nnls(
            blocks / scale,
            rhs / scale,
            equality,
            targets,
            solver=self.solver,
        )
        fanouts = np.maximum(solution.x, 0.0)

        # Point estimate: window-average demands implied by the fanouts.
        mean_ingress = ingress.mean(axis=0)
        values = fanouts * mean_ingress[pair_origin_col]
        return self._result(
            problem,
            values,
            fanouts=fanouts,
            window_length=num_snapshots,
            equality_violation=solution.equality_violation,
            residual_norm=solution.residual_norm,
        )

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """Fit the fanouts once, then scale by every snapshot's ingress totals.

        This is the fanout model's native batch form: ``s_nm[k] = alpha_nm *
        t_e(n)[k]``, so one constrained fit serves the whole series and the
        per-snapshot estimates are a single broadcast multiply.
        """
        result = self.estimate(problem)
        fanouts = np.asarray(result.diagnostics["fanouts"], dtype=float)
        pairs = problem.pairs
        origins = list(dict.fromkeys(pair.origin for pair in pairs))
        origin_index = {origin: idx for idx, origin in enumerate(origins)}
        pair_origin_col = np.array([origin_index[pair.origin] for pair in pairs])
        num_snapshots = problem.series.shape[0]
        ingress = self._origin_totals_series(problem, num_snapshots, origins)
        estimates = fanouts[None, :] * ingress[:, pair_origin_col]
        return self._series_result(
            problem,
            estimates,
            batched=True,
            window_length=result.diagnostics["window_length"],
            equality_violation=result.diagnostics["equality_violation"],
            residual_norm=result.diagnostics["residual_norm"],
        )
