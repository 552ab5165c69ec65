"""Common interfaces of the traffic-matrix estimation methods.

Every method in the paper consumes the same observable data — the routing
matrix and link-load measurements (a single snapshot or a time series),
possibly augmented with edge-node totals — and produces an estimated demand
vector.  This module defines:

* :class:`EstimationProblem` — the immutable bundle of observations handed
  to an estimator;
* :class:`EstimationResult` — the estimate plus method metadata and
  diagnostics;
* :class:`SeriesEstimationResult` — a batch of per-snapshot estimates
  produced by :meth:`Estimator.estimate_series`;
* :class:`Estimator` — the abstract interface (``estimate(problem)`` for a
  snapshot, ``estimate_series(problem)`` for a whole series) implemented by
  every method in :mod:`repro.estimation`.

The batched path matters at scale: ``estimate_series`` has a generic
per-snapshot fallback, but estimators override it where one factorisation
or one vectorised expression serves all ``K`` right-hand sides (gravity
and Kruithof evaluate every snapshot's totals in single array operations).
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Union

import numpy as np
import scipy.sparse

from repro import telemetry
from repro.errors import EstimationError
from repro.routing.routing_matrix import RoutingMatrix
from repro.topology.elements import NodePair
from repro.traffic.matrix import TrafficMatrix

__all__ = [
    "EstimationProblem",
    "EstimationResult",
    "SeriesEstimationResult",
    "Estimator",
]


@dataclass(frozen=True)
class EstimationProblem:
    """Observable inputs to a traffic-matrix estimation method.

    Attributes
    ----------
    routing:
        The routing matrix ``R`` (links x pairs).
    link_loads:
        A single snapshot ``t`` of link loads (length ``L``).  Methods that
        work from a snapshot (gravity, Bayesian, entropy, worst-case bounds)
        use this field.
    link_load_series:
        Optional time series of link loads, shape ``(K, L)``.  Methods that
        need a series (fanout estimation, Vardi) use this field; when it is
        present but ``link_loads`` is not, the snapshot defaults to the
        series mean.
    origin_totals:
        Optional per-origin total ingress traffic ``t_e(n)`` for the
        snapshot.  Gravity models and Kruithof need these; they are
        observable from the access links of each PoP.
    destination_totals:
        Optional per-destination total egress traffic ``t_x(m)``.
    origin_totals_series:
        Optional time series of per-origin totals, shape ``(K, N_origins)``,
        with origins ordered as in ``origin_names``; used by fanout
        estimation and by the batched gravity/Kruithof paths.
    origin_names:
        Origin ordering for ``origin_totals_series``.
    destination_totals_series:
        Optional time series of per-destination totals, shape
        ``(K, N_destinations)``; used by the batched gravity/Kruithof paths.
    destination_names:
        Destination ordering for ``destination_totals_series``.
    """

    routing: RoutingMatrix
    link_loads: Optional[np.ndarray] = None
    link_load_series: Optional[np.ndarray] = None
    origin_totals: Optional[Mapping[str, float]] = None
    destination_totals: Optional[Mapping[str, float]] = None
    origin_totals_series: Optional[np.ndarray] = None
    origin_names: Optional[tuple[str, ...]] = None
    destination_totals_series: Optional[np.ndarray] = None
    destination_names: Optional[tuple[str, ...]] = None
    # Lazy per-problem caches (excluded from init/repr/eq; the frozen
    # dataclass machinery still initialises them via object.__setattr__).
    _augmented_cache: dict[tuple[bool, bool], tuple[Any, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _shared_cache: dict[tuple, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        num_links = self.routing.num_links
        if self.link_loads is not None:
            loads = np.asarray(self.link_loads, dtype=float)
            if loads.shape != (num_links,):
                raise EstimationError(
                    f"link_loads has shape {loads.shape}, expected ({num_links},)"
                )
            if np.any(loads < -1e-9):
                raise EstimationError("link loads must be non-negative")
            object.__setattr__(self, "link_loads", np.maximum(loads, 0.0))
        if self.link_load_series is not None:
            series = np.asarray(self.link_load_series, dtype=float)
            if series.ndim != 2 or series.shape[1] != num_links:
                raise EstimationError(
                    f"link_load_series has shape {series.shape}, expected (K, {num_links})"
                )
            if np.any(series < -1e-9):
                raise EstimationError("link load series must be non-negative")
            object.__setattr__(self, "link_load_series", np.maximum(series, 0.0))
        if self.link_loads is None and self.link_load_series is None:
            raise EstimationError("an estimation problem needs link loads or a series of them")
        if self.origin_totals_series is not None:
            if self.origin_names is None:
                raise EstimationError("origin_totals_series requires origin_names")
            series = np.asarray(self.origin_totals_series, dtype=float)
            if series.ndim != 2 or series.shape[1] != len(self.origin_names):
                raise EstimationError(
                    "origin_totals_series must have one column per origin name"
                )
            object.__setattr__(self, "origin_totals_series", series)
        if self.destination_totals_series is not None:
            if self.destination_names is None:
                raise EstimationError("destination_totals_series requires destination_names")
            series = np.asarray(self.destination_totals_series, dtype=float)
            if series.ndim != 2 or series.shape[1] != len(self.destination_names):
                raise EstimationError(
                    "destination_totals_series must have one column per destination name"
                )
            object.__setattr__(self, "destination_totals_series", series)

    # ------------------------------------------------------------------
    @property
    def pairs(self) -> tuple[NodePair, ...]:
        """The origin-destination pairs being estimated."""
        return self.routing.pairs

    @property
    def num_pairs(self) -> int:
        """Number of unknown demands."""
        return self.routing.num_pairs

    @property
    def snapshot(self) -> np.ndarray:
        """The link-load snapshot (mean of the series when only a series is given)."""
        if self.link_loads is not None:
            return self.link_loads
        # __post_init__ guarantees at least one of the two is present.
        assert self.link_load_series is not None
        return self.link_load_series.mean(axis=0)

    @property
    def series(self) -> np.ndarray:
        """The link-load series, raising if the problem only has a snapshot."""
        if self.link_load_series is None:
            raise EstimationError("this problem does not contain a link-load time series")
        return self.link_load_series

    @property
    def num_snapshots(self) -> int:
        """Number of snapshots available (1 when only a single load vector exists)."""
        if self.link_load_series is None:
            return 1
        return self.link_load_series.shape[0]

    def total_traffic(self) -> float:
        """Total network traffic for the snapshot.

        Uses the origin totals when available (their sum is exactly the
        total traffic entering the network); otherwise falls back to a
        routing-aware estimate ``sum(t) / mean path length``, which is exact
        when all demands traverse the same number of links and a reasonable
        approximation otherwise.
        """
        if self.origin_totals is not None:
            return float(sum(self.origin_totals.values()))
        snapshot = self.snapshot
        path_lengths = self.routing.path_lengths()
        mean_length = float(path_lengths.mean()) if len(path_lengths) else 1.0
        if mean_length <= 0:
            raise EstimationError("routing matrix has empty paths; cannot infer total traffic")
        return float(snapshot.sum() / mean_length)

    # ------------------------------------------------------------------
    # shared per-problem workspace
    # ------------------------------------------------------------------
    def shared(self, key: tuple, builder: Callable[[], Any]) -> Any:
        """Compute-once workspace shared by every estimator run on this problem.

        ``sweep()`` and ``method_comparison`` hand the *same* problem object
        to K methods, most of which redo identical setup — the gravity
        prior, pair-position index arrays, per-snapshot prior series.  This
        cache lets that setup run once per problem instead of once per
        method: the first caller pays ``builder()``, later callers get the
        cached value.  Cached arrays are returned as-is, so treat them as
        read-only (the prior helpers mark theirs immutable).
        """
        cache = self._shared_cache
        if key in cache:
            telemetry.counter_inc("workspace.cache_hits")
            return cache[key]
        telemetry.counter_inc("workspace.cache_misses")
        cache[key] = builder()
        return cache[key]

    def pair_positions(self) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray, np.ndarray]:
        """``(origins, destinations, origin_cols, destination_cols)`` for the pairs.

        ``origin_cols[p]`` / ``destination_cols[p]`` are the indices of pair
        ``p``'s origin and destination within the first-appearance label
        orders — the index arrays every vectorised totals/gravity/Kruithof
        path needs, built once per problem.
        """

        def build() -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray, np.ndarray]:
            origins = self.origin_order()
            destinations = self.destination_order()
            origin_index = {name: idx for idx, name in enumerate(origins)}
            destination_index = {name: idx for idx, name in enumerate(destinations)}
            origin_cols = np.array([origin_index[pair.origin] for pair in self.pairs])
            destination_cols = np.array(
                [destination_index[pair.destination] for pair in self.pairs]
            )
            origin_cols.setflags(write=False)
            destination_cols.setflags(write=False)
            return origins, destinations, origin_cols, destination_cols

        return self.shared(("pair_positions",), build)

    # ------------------------------------------------------------------
    # edge-total incidence structure
    # ------------------------------------------------------------------
    def origin_order(self) -> tuple[str, ...]:
        """Origins in first-appearance pair order (the canonical row order)."""
        return tuple(dict.fromkeys(pair.origin for pair in self.pairs))

    def destination_order(self) -> tuple[str, ...]:
        """Destinations in first-appearance pair order."""
        return tuple(dict.fromkeys(pair.destination for pair in self.pairs))

    def _incidence_block(self, labels: tuple[str, ...], attribute: str) -> np.ndarray:
        """0/1 block mapping pairs to their origin (or destination) row."""
        index = {name: row for row, name in enumerate(labels)}
        block = np.zeros((len(labels), self.num_pairs))
        rows = [index[getattr(pair, attribute)] for pair in self.pairs]
        block[rows, np.arange(self.num_pairs)] = 1.0
        return block

    def augmented_system(
        self,
        include_origin_totals: bool = True,
        include_destination_totals: bool = True,
    ) -> tuple[Union[np.ndarray, scipy.sparse.spmatrix], np.ndarray]:
        """Routing constraints augmented with edge-total rows.

        The paper's network view includes the access/peering links over
        which traffic enters and exits, so the observable data also contains
        the per-node totals ``t_e(n)`` and ``t_x(m)``.  Each total adds one
        linear constraint: the sum of demands originating at (terminating
        at) the node equals the measured total.  The worst-case-bound
        estimator uses this augmented system; other methods may opt in.

        Returns ``(matrix, rhs)`` where ``matrix`` stacks the routing matrix
        and the requested total rows and ``rhs`` stacks the link-load
        snapshot and the totals.  The matrix is dense for a dense routing
        backend and a CSR sparse matrix for a sparse one; results are cached
        per flag combination, so treat them as read-only.
        """
        key = (bool(include_origin_totals), bool(include_destination_totals))
        cached = self._augmented_cache.get(key)
        if cached is not None:
            return cached
        sparse = self.routing.backend_kind == "sparse"
        rows: list[Any] = [
            self.routing.backend.raw if sparse else self.routing.matrix
        ]
        rhs = [self.snapshot]
        if include_origin_totals and self.origin_totals is not None:
            origins = self.origin_order()
            rows.append(self._incidence_block(origins, "origin"))
            rhs.append(np.array([self.origin_totals.get(origin, 0.0) for origin in origins]))
        if include_destination_totals and self.destination_totals is not None:
            destinations = self.destination_order()
            rows.append(self._incidence_block(destinations, "destination"))
            rhs.append(
                np.array([self.destination_totals.get(dest, 0.0) for dest in destinations])
            )
        if sparse:
            matrix: Union[np.ndarray, scipy.sparse.spmatrix] = scipy.sparse.vstack(
                [scipy.sparse.csr_matrix(block) for block in rows], format="csr"
            )
        else:
            matrix = np.vstack(rows)
        result = (matrix, np.concatenate(rhs))
        self._augmented_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # derived problems
    # ------------------------------------------------------------------
    def with_snapshot(self, link_loads: np.ndarray) -> "EstimationProblem":
        """Return a copy of the problem with a different load snapshot."""
        return EstimationProblem(
            routing=self.routing,
            link_loads=np.asarray(link_loads, dtype=float),
            link_load_series=self.link_load_series,
            origin_totals=self.origin_totals,
            destination_totals=self.destination_totals,
            origin_totals_series=self.origin_totals_series,
            origin_names=self.origin_names,
            destination_totals_series=self.destination_totals_series,
            destination_names=self.destination_names,
        )

    def at_snapshot(self, index: int) -> "EstimationProblem":
        """Single-snapshot sub-problem for series index ``index``.

        The link loads are the series row ``index``; per-snapshot edge
        totals are taken from the totals series when available (falling back
        to the problem-level totals otherwise).  This is what the generic
        :meth:`Estimator.estimate_series` loop feeds to ``estimate``, and
        what the vectorised overrides must match.
        """
        series = self.series
        num = series.shape[0]
        if not 0 <= index < num:
            raise EstimationError(f"snapshot index {index} out of range for {num} snapshots")
        origin_totals = self.origin_totals
        if self.origin_totals_series is not None:
            # __post_init__ guarantees the names accompany the series.
            assert self.origin_names is not None
            origin_totals = dict(
                zip(self.origin_names, self.origin_totals_series[index].tolist())
            )
        destination_totals = self.destination_totals
        if self.destination_totals_series is not None:
            assert self.destination_names is not None
            destination_totals = dict(
                zip(self.destination_names, self.destination_totals_series[index].tolist())
            )
        return EstimationProblem(
            routing=self.routing,
            link_loads=series[index],
            origin_totals=origin_totals,
            destination_totals=destination_totals,
        )


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of running one estimation method.

    Attributes
    ----------
    estimate:
        The estimated traffic matrix.
    method:
        Human-readable method name (e.g. ``"bayesian"``).
    diagnostics:
        Free-form numeric diagnostics: residual norms, iteration counts,
        chosen regularisation parameters, per-pair bounds, ...
    """

    estimate: TrafficMatrix
    method: str
    diagnostics: dict[str, Any] = field(default_factory=dict)

    @property
    def vector(self) -> np.ndarray:
        """The estimated demand vector."""
        return self.estimate.vector

    def residual_norm(self, problem: EstimationProblem) -> float:
        """``||R s_hat - t||_2`` of the estimate against the problem snapshot."""
        return float(np.linalg.norm(problem.routing.link_loads(self.vector) - problem.snapshot))


@dataclass(frozen=True)
class SeriesEstimationResult:
    """Per-snapshot estimates for a whole link-load series.

    Attributes
    ----------
    estimates:
        Array of shape ``(K, num_pairs)``: one demand vector per snapshot.
    pairs:
        The pair ordering of the columns.
    method:
        Name of the estimation method that produced the batch.
    diagnostics:
        Free-form diagnostics of the batched run (e.g. whether a
        vectorised override produced it).
    """

    estimates: np.ndarray
    pairs: tuple[NodePair, ...]
    method: str
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return self.estimates.shape[0]

    @property
    def num_snapshots(self) -> int:
        """Number of snapshots estimated."""
        return self.estimates.shape[0]

    def matrix(self, index: int) -> TrafficMatrix:
        """The estimate of snapshot ``index`` as a :class:`TrafficMatrix`."""
        num = self.estimates.shape[0]
        if not 0 <= index < num:
            raise EstimationError(f"snapshot index {index} out of range for {num} snapshots")
        return TrafficMatrix(self.pairs, self.estimates[index])

    def mean_matrix(self) -> TrafficMatrix:
        """Mean of the per-snapshot estimates (comparable to a window truth)."""
        return TrafficMatrix(self.pairs, self.estimates.mean(axis=0))

    def result(self, index: int) -> EstimationResult:
        """Wrap snapshot ``index`` as a plain :class:`EstimationResult`."""
        return EstimationResult(estimate=self.matrix(index), method=self.method)


def _span_diagnostics(diagnostics: Mapping[str, Any]) -> dict[str, Any]:
    """Scalar diagnostics, for span attributes."""
    folded: dict[str, Any] = {}
    for key, value in diagnostics.items():
        if isinstance(value, (bool, np.bool_)):
            folded[key] = bool(value)
        elif isinstance(value, (int, np.integer)):
            folded[key] = int(value)
        elif isinstance(value, (float, np.floating)):
            folded[key] = float(value)
        elif isinstance(value, str):
            folded[key] = value
    return folded


def _traced_estimate(impl: Callable[..., Any], kind: str) -> Callable[..., Any]:
    """Wrap an ``estimate``/``estimate_series`` override in a stage span.

    The wrapper adds one flag check when telemetry is disabled.  When
    enabled it opens ``span(kind, method=..., n_pairs=...)`` around the
    call and folds the result's scalar diagnostics into the span
    attributes, so every method's convergence data lands on the trace
    without per-method instrumentation.
    """

    @functools.wraps(impl)
    def traced(self: "Estimator", problem: "EstimationProblem", *args: Any, **kwargs: Any) -> Any:
        if not telemetry.is_enabled():
            return impl(self, problem, *args, **kwargs)
        with telemetry.span(
            kind, method=self.name, n_pairs=problem.num_pairs
        ) as active:
            result = impl(self, problem, *args, **kwargs)
            diagnostics = getattr(result, "diagnostics", None)
            if diagnostics:
                active.set_attributes(**_span_diagnostics(diagnostics))
            return result

    traced._repro_span_wrapped = True  # type: ignore[attr-defined]
    return traced


class Estimator(abc.ABC):
    """Abstract base class of all traffic-matrix estimation methods."""

    #: Short identifier used in result objects, summary tables and the
    #: estimator registry (:mod:`repro.estimation.registry`).
    name: str = "estimator"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        """Auto-span every concrete ``estimate``/``estimate_series`` override.

        Each subclass-defined entry point is wrapped by
        :func:`_traced_estimate` exactly once (re-wrapping on further
        subclassing is prevented by the ``_repro_span_wrapped`` marker, and
        inherited implementations are already wrapped on the class that
        defined them).
        """
        super().__init_subclass__(**kwargs)
        for attr in ("estimate", "estimate_series"):
            impl = cls.__dict__.get(attr)
            if (
                impl is not None
                and callable(impl)
                and not getattr(impl, "__isabstractmethod__", False)
                and not getattr(impl, "_repro_span_wrapped", False)
            ):
                setattr(cls, attr, _traced_estimate(impl, attr))

    @abc.abstractmethod
    def estimate(
        self, problem: EstimationProblem, *, start: Optional[np.ndarray] = None
    ) -> EstimationResult:
        """Estimate the traffic matrix for ``problem``.

        ``start`` is an optional starting point for the solver, one demand
        per pair (typically the previous snapshot's estimate).  The
        iterative solvers that can use one (Kruithof's scaling, the Vardi
        QP) start from it; every other method ignores it.  A previous
        estimate as the start (what the series loop and the streaming
        daemon pass) changes the iteration count, not the minimiser; the
        estimator never mutates ``start``.  The answer depends on ``problem``,
        the constructor parameters and ``start`` only, so one instance can
        serve any number of calls, in any order.
        """

    def estimate_series(self, problem: EstimationProblem) -> SeriesEstimationResult:
        """Estimate every snapshot of the problem's link-load series.

        The generic implementation estimates each snapshot independently via
        :meth:`EstimationProblem.at_snapshot`; subclasses override it where
        one factorisation or one vectorised expression serves all ``K``
        right-hand sides.  Overrides must agree with this loop on the same
        problem (they are the fast path, not a different method).

        Each snapshot after the first starts from the previous snapshot's
        estimate: consecutive snapshots are highly correlated, so iterative
        solvers (the Vardi QP, Kruithof's scaling) converge in a fraction
        of their cold-start iterations without changing the answer they
        converge to.
        """
        num_snapshots = problem.series.shape[0]
        estimates = np.empty((num_snapshots, problem.num_pairs))
        start: Optional[np.ndarray] = None
        for index in range(num_snapshots):
            estimates[index] = self.estimate(problem.at_snapshot(index), start=start).vector
            start = estimates[index]
        return self._series_result(problem, estimates, batched=False)

    def __call__(self, problem: EstimationProblem) -> EstimationResult:
        return self.estimate(problem)

    def _result(
        self,
        problem: EstimationProblem,
        values: np.ndarray,
        **diagnostics: Any,
    ) -> EstimationResult:
        """Package a demand vector into an :class:`EstimationResult`."""
        values = np.asarray(values, dtype=float)
        if values.shape != (problem.num_pairs,):
            raise EstimationError(
                f"{self.name} produced {values.shape} values for {problem.num_pairs} pairs"
            )
        matrix = TrafficMatrix(problem.pairs, np.maximum(values, 0.0))
        return EstimationResult(estimate=matrix, method=self.name, diagnostics=dict(diagnostics))

    def _series_result(
        self,
        problem: EstimationProblem,
        estimates: np.ndarray,
        **diagnostics: Any,
    ) -> SeriesEstimationResult:
        """Package a ``(K, num_pairs)`` batch into a :class:`SeriesEstimationResult`."""
        estimates = np.asarray(estimates, dtype=float)
        if estimates.ndim != 2 or estimates.shape[1] != problem.num_pairs:
            raise EstimationError(
                f"{self.name} produced a {estimates.shape} batch for "
                f"{problem.num_pairs} pairs"
            )
        return SeriesEstimationResult(
            estimates=np.maximum(estimates, 0.0),
            pairs=problem.pairs,
            method=self.name,
            diagnostics=dict(diagnostics),
        )
