"""Combining tomography with direct measurements (paper Section 5.3.6).

The final experiment of the paper asks how much the estimation error drops
when a handful of demands are measured *directly* (e.g. with dedicated LSP
counters or NetFlow on selected routers) while the rest are still inferred
from link loads.  Measuring a demand removes it from the unknowns: its
contribution is subtracted from the link loads and from the edge totals, and
the estimator runs on the reduced problem.

This module provides:

* :func:`reduce_problem` — build the reduced estimation problem given a set
  of directly measured demands;
* :class:`DirectMeasurementCombiner` — wrap any base estimator so that it
  accepts direct measurements and returns a full-size estimate;
* :func:`greedy_measurement_selection` — the paper's exhaustive greedy
  search: at every step measure the demand whose measurement reduces the
  error metric the most;
* :func:`largest_demand_selection` — the practical alternative also
  discussed in the paper: measure the largest (estimated) demands first.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import EstimationError
from repro.estimation.base import EstimationProblem, EstimationResult, Estimator
from repro.routing.routing_matrix import RoutingMatrix
from repro.topology.elements import NodePair
from repro.traffic.matrix import TrafficMatrix

__all__ = [
    "reduce_problem",
    "DirectMeasurementCombiner",
    "greedy_measurement_selection",
    "largest_demand_selection",
]


def reduce_problem(
    problem: EstimationProblem, measured: Mapping[NodePair, float]
) -> EstimationProblem:
    """Remove directly measured demands from an estimation problem.

    The measured demands' contribution ``R_measured @ s_measured`` is
    subtracted from the link loads (snapshot and series) and from the edge
    totals, and the corresponding columns are dropped from the routing
    matrix.  The returned problem estimates only the remaining pairs.
    """
    if not measured:
        return problem
    unknown = set(measured) - set(problem.pairs)
    if unknown:
        raise EstimationError(f"measured pairs not in the problem: {sorted(map(str, unknown))}")
    for pair, value in measured.items():
        if value < 0:
            raise EstimationError(f"measured demand for {pair} is negative")

    routing = problem.routing
    keep_indices = [i for i, pair in enumerate(problem.pairs) if pair not in measured]
    drop_indices = [i for i, pair in enumerate(problem.pairs) if pair in measured]
    measured_vector = np.array([measured[problem.pairs[i]] for i in drop_indices])
    measured_columns = routing.matrix[:, drop_indices]
    measured_loads = measured_columns @ measured_vector

    reduced_matrix = routing.matrix[:, keep_indices]
    reduced_pairs = tuple(problem.pairs[i] for i in keep_indices)
    reduced_routing = RoutingMatrix(
        reduced_matrix, routing.link_names, reduced_pairs, network=routing.network
    )

    link_loads = None
    if problem.link_loads is not None:
        link_loads = np.maximum(problem.link_loads - measured_loads, 0.0)
    series = None
    if problem.link_load_series is not None:
        series = np.maximum(problem.link_load_series - measured_loads[None, :], 0.0)

    origin_totals = None
    if problem.origin_totals is not None:
        origin_totals = dict(problem.origin_totals)
        for pair, value in measured.items():
            if pair.origin in origin_totals:
                origin_totals[pair.origin] = max(0.0, origin_totals[pair.origin] - value)
    destination_totals = None
    if problem.destination_totals is not None:
        destination_totals = dict(problem.destination_totals)
        for pair, value in measured.items():
            if pair.destination in destination_totals:
                destination_totals[pair.destination] = max(
                    0.0, destination_totals[pair.destination] - value
                )

    return EstimationProblem(
        routing=reduced_routing,
        link_loads=link_loads,
        link_load_series=series,
        origin_totals=origin_totals,
        destination_totals=destination_totals,
        origin_totals_series=problem.origin_totals_series,
        origin_names=problem.origin_names,
        destination_totals_series=problem.destination_totals_series,
        destination_names=problem.destination_names,
    )


class DirectMeasurementCombiner(Estimator):
    """Wrap a base estimator so it can exploit directly measured demands.

    Parameters
    ----------
    base_estimator:
        Any snapshot estimator (entropy, Bayesian, ...).
    measured:
        Mapping from pair to its directly measured demand.
    """

    def __init__(self, base_estimator: Estimator, measured: Mapping[NodePair, float]) -> None:
        self.base_estimator = base_estimator
        self.measured = dict(measured)
        self.name = f"{base_estimator.name}+direct"

    def estimate(
        self, problem: EstimationProblem, *, start: Optional[np.ndarray] = None
    ) -> EstimationResult:
        """Estimate the unmeasured demands and splice the measured ones back in."""
        reduced = reduce_problem(problem, self.measured)
        if reduced.num_pairs == 0:
            values = np.array([self.measured[pair] for pair in problem.pairs])
            return self._result(problem, values, measured_pairs=len(self.measured))
        partial_result = self.base_estimator.estimate(reduced)
        partial = dict(zip(reduced.pairs, partial_result.vector))
        values = np.array(
            [
                self.measured[pair] if pair in self.measured else partial[pair]
                for pair in problem.pairs
            ]
        )
        return self._result(
            problem,
            values,
            measured_pairs=len(self.measured),
            base_method=self.base_estimator.name,
            base_diagnostics=partial_result.diagnostics,
        )


def _evaluate(
    estimator: Estimator,
    problem: EstimationProblem,
    measured: Mapping[NodePair, float],
    error_metric: Callable[[TrafficMatrix], float],
) -> float:
    combiner = DirectMeasurementCombiner(estimator, measured)
    return float(error_metric(combiner.estimate(problem).estimate))


def greedy_measurement_selection(
    problem: EstimationProblem,
    truth: TrafficMatrix,
    estimator: Estimator,
    error_metric: Callable[[TrafficMatrix], float],
    max_measurements: int,
    candidates: Optional[Sequence[NodePair]] = None,
) -> list[tuple[NodePair, float]]:
    """Greedy exhaustive selection of demands to measure (paper Figure 16).

    At each step every remaining candidate demand is tried: it is measured
    (taking its true value from ``truth``), the estimator re-runs on the
    reduced problem, and the candidate yielding the lowest error is kept.

    Parameters
    ----------
    problem:
        The estimation problem.
    truth:
        The true traffic matrix (measured values are read from it).
    estimator:
        Base estimator (e.g. the entropy method as in the paper).
    error_metric:
        Callable mapping an estimated traffic matrix to an error value
        (typically the MRE against ``truth``).
    max_measurements:
        Number of demands to select.
    candidates:
        Optional candidate subset; defaults to all pairs.

    Returns
    -------
    list of ``(pair, error_after_measuring_it)`` in selection order.
    """
    if max_measurements < 1:
        raise EstimationError("max_measurements must be at least 1")
    remaining = list(candidates) if candidates is not None else list(problem.pairs)
    selected: dict[NodePair, float] = {}
    history: list[tuple[NodePair, float]] = []
    for _ in range(min(max_measurements, len(remaining))):
        best_pair: Optional[NodePair] = None
        best_error = float("inf")
        for pair in remaining:
            trial = dict(selected)
            trial[pair] = truth.demand(pair)
            error = _evaluate(estimator, problem, trial, error_metric)
            if error < best_error:
                best_error, best_pair = error, pair
        if best_pair is None:
            # Every candidate scored infinity — measuring more demands
            # cannot improve anything, so stop early.
            break
        selected[best_pair] = truth.demand(best_pair)
        remaining.remove(best_pair)
        history.append((best_pair, best_error))
    return history


def largest_demand_selection(
    problem: EstimationProblem,
    truth: TrafficMatrix,
    estimator: Estimator,
    error_metric: Callable[[TrafficMatrix], float],
    max_measurements: int,
) -> list[tuple[NodePair, float]]:
    """Measure the largest *estimated* demands first (the practical strategy).

    The paper notes that most estimators rank demands accurately, so
    identifying the largest estimated demands and measuring those is a
    viable approach even though it is not optimal for the relative-error
    metric.  Returns the same ``(pair, error)`` history format as
    :func:`greedy_measurement_selection`.
    """
    if max_measurements < 1:
        raise EstimationError("max_measurements must be at least 1")
    baseline = estimator.estimate(problem).estimate
    ranked = baseline.top_demands(max_measurements)
    selected: dict[NodePair, float] = {}
    history: list[tuple[NodePair, float]] = []
    for pair in ranked:
        selected[pair] = truth.demand(pair)
        error = _evaluate(estimator, problem, selected, error_metric)
        history.append((pair, error))
    return history
