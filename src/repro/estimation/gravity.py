"""Gravity models for traffic-matrix estimation (paper Section 4.1).

The simple gravity model predicts the demand from node ``n`` to node ``m``
as proportional to the product of the total traffic entering the network at
``n`` and the total traffic exiting at ``m``:

    ``s_nm = C * t_e(n) * t_x(m)``

with ``C`` chosen so the estimated total equals the measured total traffic.
With ``C = 1 / sum_m t_x(m)`` this is equivalent to the fanout model
``alpha_nm = t_x(m) / sum_m t_x(m)``.

The generalised gravity model additionally forces demands between two
peering nodes to zero; the paper focuses on the simple model because the
peering information of the measured network was not available, but the
generalised form is implemented here for completeness.

Gravity estimates ignore the interior link loads entirely and are generally
*not* consistent with them; they are most useful as the prior of the
regularised estimators (tomogravity).
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.errors import EstimationError
from repro.estimation.base import (
    EstimationProblem,
    EstimationResult,
    Estimator,
    SeriesEstimationResult,
)
from repro.estimation.registry import register
from repro.topology.elements import NodeRole
from repro.topology.network import Network

__all__ = [
    "SimpleGravityEstimator",
    "GeneralizedGravityEstimator",
    "gravity_vector",
    "gravity_vector_series",
]


def _edge_totals(problem: EstimationProblem) -> tuple[dict[str, float], dict[str, float]]:
    """Origin and destination totals, which the gravity model requires."""
    if problem.origin_totals is None or problem.destination_totals is None:
        raise EstimationError(
            "gravity estimation requires origin_totals and destination_totals "
            "(the edge-link measurements t_e(n) and t_x(m))"
        )
    origins = {pair.origin for pair in problem.pairs}
    destinations = {pair.destination for pair in problem.pairs}
    missing_origins = origins - set(problem.origin_totals)
    missing_destinations = destinations - set(problem.destination_totals)
    if missing_origins:
        raise EstimationError(f"origin totals missing for {sorted(missing_origins)}")
    if missing_destinations:
        raise EstimationError(f"destination totals missing for {sorted(missing_destinations)}")
    return dict(problem.origin_totals), dict(problem.destination_totals)


def gravity_vector(
    problem: EstimationProblem,
    excluded_pairs: Optional[set] = None,
) -> np.ndarray:
    """Raw (unnormalised-then-rescaled) gravity estimate as a demand vector.

    Parameters
    ----------
    problem:
        The estimation problem; its edge totals drive the model.
    excluded_pairs:
        Pairs forced to zero (the peering-to-peering exclusions of the
        generalised model).

    The result is scaled so its total equals the measured total traffic
    (the sum of the origin totals).  The exclusion-free form is cached in
    the problem's shared workspace (and returned read-only), so the many
    estimators that use a gravity prior pay the model once per problem.
    """

    def compute() -> np.ndarray:
        origin_totals, destination_totals = _edge_totals(problem)
        origins, destinations, origin_cols, destination_cols = problem.pair_positions()
        origin_values = np.array([origin_totals[name] for name in origins])
        destination_values = np.array([destination_totals[name] for name in destinations])
        values = origin_values[origin_cols] * destination_values[destination_cols]
        if excluded_pairs:
            mask = np.fromiter(
                (pair in excluded_pairs for pair in problem.pairs),
                dtype=bool,
                count=len(problem.pairs),
            )
            values[mask] = 0.0
        total = values.sum()
        measured_total = float(sum(origin_totals.values()))
        if total <= 0:
            if measured_total > 0:
                raise EstimationError(
                    "gravity model produced a zero matrix for non-zero traffic"
                )
            return np.zeros(len(problem.pairs))
        return values * (measured_total / total)

    if excluded_pairs:
        return compute()

    def cached() -> np.ndarray:
        values = compute()
        values.setflags(write=False)
        return values

    return problem.shared(("gravity_vector",), cached)


def gravity_vector_series(
    problem: EstimationProblem,
    excluded_pairs: Optional[set] = None,
) -> np.ndarray:
    """Vectorised gravity estimates for every snapshot of a series.

    Returns a ``(K, num_pairs)`` array whose row ``k`` equals
    ``gravity_vector(problem.at_snapshot(k))``: per-snapshot edge totals are
    taken from the totals series when present and fall back to the
    problem-level totals otherwise.  All snapshots are evaluated in a
    handful of array operations — no per-snapshot Python loop — which is
    what makes the batched gravity/Kruithof/Bayesian paths cheap.  The
    exclusion-free batch is cached (read-only) in the problem's shared
    workspace, so a sweep whose methods all use gravity priors builds it
    once.
    """
    if not excluded_pairs:

        def cached() -> np.ndarray:
            values = _gravity_series_uncached(problem, set())
            values.setflags(write=False)
            return values

        return problem.shared(("gravity_vector_series",), cached)
    return _gravity_series_uncached(problem, set(excluded_pairs))


def _gravity_series_uncached(problem: EstimationProblem, excluded_pairs: set) -> np.ndarray:
    num_snapshots = problem.series.shape[0]
    pairs = problem.pairs
    excluded_pairs = excluded_pairs or set()

    def totals_matrix(kind: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-snapshot totals aligned to pairs: ``(K, P)`` plus row sums ``(K,)``."""
        if kind == "origin":
            series, names, fallback = (
                problem.origin_totals_series,
                problem.origin_names,
                problem.origin_totals,
            )
            labels = [pair.origin for pair in pairs]
        else:
            series, names, fallback = (
                problem.destination_totals_series,
                problem.destination_names,
                problem.destination_totals,
            )
            labels = [pair.destination for pair in pairs]
        if series is not None:
            index = {name: col for col, name in enumerate(names)}
            missing = sorted({label for label in labels if label not in index})
            if missing:
                raise EstimationError(f"{kind} totals missing for {missing}")
            columns = np.array([index[label] for label in labels])
            return series[:, columns], series.sum(axis=1)
        if fallback is None:
            raise EstimationError(
                "gravity estimation requires origin_totals and destination_totals "
                "(the edge-link measurements t_e(n) and t_x(m))"
            )
        missing = sorted({label for label in labels if label not in fallback})
        if missing:
            raise EstimationError(f"{kind} totals missing for {missing}")
        row = np.array([fallback[label] for label in labels])
        total = float(sum(fallback.values()))
        return np.tile(row, (num_snapshots, 1)), np.full(num_snapshots, total)

    origin_values, origin_row_sums = totals_matrix("origin")
    destination_values, _ = totals_matrix("destination")
    values = origin_values * destination_values
    if excluded_pairs:
        mask = np.array([pair in excluded_pairs for pair in pairs])
        values[:, mask] = 0.0
    totals = values.sum(axis=1)
    measured = origin_row_sums
    bad = (totals <= 0) & (measured > 0)
    if np.any(bad):
        raise EstimationError("gravity model produced a zero matrix for non-zero traffic")
    scale = np.where(totals > 0, measured / np.where(totals > 0, totals, 1.0), 0.0)
    return values * scale[:, None]


@register()
class SimpleGravityEstimator(Estimator):
    """The simple gravity model ``s_nm = C t_e(n) t_x(m)``."""

    name = "gravity"

    def estimate(
        self, problem: EstimationProblem, *, start: Optional[np.ndarray] = None
    ) -> EstimationResult:
        """Estimate demands from edge totals only (interior links are ignored)."""
        values = gravity_vector(problem)
        return self._result(problem, values, normalisation_total=float(values.sum()))

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """Vectorised batch: every snapshot's totals evaluated in one expression."""
        estimates = gravity_vector_series(problem)
        return self._series_result(problem, estimates, batched=True)


@register()
class GeneralizedGravityEstimator(Estimator):
    """Gravity model with peer-to-peer demands forced to zero.

    Parameters
    ----------
    network:
        Network whose node roles identify the peering PoPs.  Alternatively
        ``peering_nodes`` can be given explicitly.
    peering_nodes:
        Explicit set of peering node names (overrides the network roles).
    """

    name = "generalized-gravity"

    def __init__(
        self,
        network: Optional[Network] = None,
        peering_nodes: Optional[set[str]] = None,
    ) -> None:
        if network is None and peering_nodes is None:
            raise EstimationError(
                "generalised gravity needs a network or an explicit peering node set"
            )
        if peering_nodes is not None:
            self.peering_nodes = set(peering_nodes)
        else:
            # The guard above rules out both being None.
            assert network is not None
            self.peering_nodes = {
                node.name for node in network.nodes if node.role is NodeRole.PEERING
            }

    def _excluded(self, problem: EstimationProblem) -> set:
        return {
            pair
            for pair in problem.pairs
            if pair.origin in self.peering_nodes and pair.destination in self.peering_nodes
        }

    def estimate(
        self, problem: EstimationProblem, *, start: Optional[np.ndarray] = None
    ) -> EstimationResult:
        """Estimate demands, zeroing every peer-to-peer pair."""
        excluded = self._excluded(problem)
        values = gravity_vector(problem, excluded_pairs=excluded)
        return self._result(
            problem,
            values,
            excluded_pairs=len(excluded),
            normalisation_total=float(values.sum()),
        )

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """Vectorised batch with the peer-to-peer exclusions applied."""
        excluded = self._excluded(problem)
        estimates = gravity_vector_series(problem, excluded_pairs=excluded)
        return self._series_result(problem, estimates, batched=True, excluded_pairs=len(excluded))
