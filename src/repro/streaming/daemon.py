"""Crash-safe streaming traffic-matrix estimation.

:class:`StreamingEstimator` is the long-running counterpart of the batch
``estimate_series`` loop: it consumes SNMP poll rounds one at a time,
derives interval rates causally through a
:class:`~repro.streaming.stream.CounterTracker`, and updates its estimate
incrementally by passing the previous estimate as the ``start`` of
:meth:`~repro.estimation.base.Estimator.estimate` (warm-started solves /
incremental IPF).  A bounded ring buffer keeps the recent measurement
window; everything older is forgotten, so memory is constant regardless of
stream length.

The daemon is built to *survive* the faults the resilience layer injects:

* **partial data** — polls lost for some links still produce an update;
  missing links use the tracker's held rates;
* **collector outages** — when the fraction of freshly-measured links
  drops below ``min_valid_fraction`` the daemon holds its last estimate
  and emits a record explicitly flagged ``stale`` instead of solving on
  fabricated data;
* **divergence** — every ``watchdog_every`` updates (and after every
  degradation or topology change) a *divergence watchdog* re-solves the
  current snapshot cold through a
  :class:`~repro.resilience.SupervisedEstimator` chain and compares; if
  the incremental estimate drifted beyond ``watchdog_threshold`` the full
  re-solve is adopted and the record says so;
* **routing churn** — :meth:`apply_reroute` re-routes incrementally via
  :class:`~repro.routing.IncrementalRerouter`, bumps the routing *epoch*
  tagged on every record, and invalidates exactly the warm-start entries
  of the pairs the failure actually moved;
* **crashes** — the whole daemon state checkpoints to one ``.npz`` file
  (see :mod:`repro.streaming.checkpoint`); ``kill -9`` followed by
  :meth:`restore` and resuming the stream reproduces the uninterrupted
  run's records bit for bit, because no daemon path consults wall-clock
  time or unseeded randomness.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.errors import EstimationError, SolverError, StreamingError
from repro.estimation.base import EstimationProblem
from repro.estimation.priors import make_prior
from repro.estimation.registry import get_estimator
from repro.resilience.supervisor import SupervisedEstimator
from repro.routing.incremental import IncrementalRerouter, RerouteResult
from repro.routing.routing_matrix import RoutingMatrix
from repro.streaming.stream import PollRound, PollStream, CounterTracker

__all__ = ["StreamRecord", "StreamingEstimator"]

_DRIFT_FLOOR = 1e-12


def _hex(value: float) -> str:
    return float(value).hex()


@dataclass(frozen=True)
class StreamRecord:
    """One emitted per-interval estimate with its provenance flags.

    Attributes
    ----------
    sequence:
        Zero-based interval index (poll round index minus one — the first
        round only primes the counters).
    timestamp:
        Scheduled time of the poll round that closed the interval.
    epoch:
        Routing epoch the estimate was computed under; bumped by
        :meth:`StreamingEstimator.apply_reroute`.
    method:
        Method that produced the estimate (``"held"`` for stale records).
    estimate:
        Estimated demand vector in the routing matrix's pair order.
    stale:
        True when the daemon held its previous estimate instead of solving
        (too few freshly-measured links).
    stale_intervals:
        Consecutive stale records ending at this one (0 when not stale).
    valid_fraction:
        Fraction of links whose rate was derived from this round's polls.
    degraded:
        True when the incremental update failed and the supervised
        fallback chain produced the estimate instead.
    watchdog_checked / watchdog_drift / watchdog_resolved:
        Whether the divergence watchdog ran, the relative drift it
        measured, and whether it replaced the incremental estimate with
        the full re-solve.
    iterations / converged:
        Solver diagnostics of the producing method, when reported.
    """

    sequence: int
    timestamp: float
    epoch: int
    method: str
    estimate: np.ndarray
    stale: bool
    stale_intervals: int
    valid_fraction: float
    degraded: bool
    watchdog_checked: bool
    watchdog_drift: Optional[float]
    watchdog_resolved: bool
    iterations: Optional[int]
    converged: Optional[bool]

    def to_payload(self) -> dict:
        """JSON-safe dict with floats hex-encoded for bit-exact comparison."""
        return {
            "sequence": self.sequence,
            "timestamp": _hex(self.timestamp),
            "epoch": self.epoch,
            "method": self.method,
            "estimate": [_hex(value) for value in self.estimate.tolist()],
            "stale": self.stale,
            "stale_intervals": self.stale_intervals,
            "valid_fraction": _hex(self.valid_fraction),
            "degraded": self.degraded,
            "watchdog_checked": self.watchdog_checked,
            "watchdog_drift": None if self.watchdog_drift is None else _hex(self.watchdog_drift),
            "watchdog_resolved": self.watchdog_resolved,
            "iterations": self.iterations,
            "converged": self.converged,
        }

    def payload_line(self) -> str:
        """Canonical one-line JSON encoding (the chaos drill's record format)."""
        return json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))


class StreamingEstimator:
    """Incremental estimation daemon over a live poll stream.

    Parameters
    ----------
    routing:
        The routing matrix of the measured mesh (its ``network`` must be
        set for :meth:`apply_reroute` to work).
    link_names:
        Streamed object names carrying the per-link byte counters, in
        ``routing.link_names`` order (what
        :attr:`~repro.measurement.collector.DistributedCollector.link_object_names`
        provides).
    lsp_names:
        Optional streamed object names carrying per-pair LSP counters in
        ``routing.pairs`` order.  When present, per-poll origin/destination
        totals are derived from them, enabling gravity-prior and Kruithof
        methods; without them only methods that work from link loads alone
        can run.
    method / method_params:
        Registry name (and constructor kwargs) of the incremental method.
    fallbacks:
        Fallback chain for the supervised full re-solve (watchdog and
        degradation paths).
    watchdog_every:
        Run the divergence watchdog every this many non-stale updates
        (0 disables periodic checks; forced checks still run after
        degradation or reroutes).
    watchdog_threshold:
        Relative L2 drift between incremental and full estimates above
        which the full re-solve is adopted.
    min_valid_fraction:
        Minimum fraction of freshly-measured links required to solve;
        below it the previous estimate is held and flagged stale.
    ring_rounds:
        Ring-buffer capacity, in poll rounds, of the retained measurement
        window (timestamps, link rates, freshness masks).
    budget_iterations / retries:
        Supervision knobs for the full re-solve chain.  Only iteration
        budgets are offered: a wall-clock budget would make degradation
        depend on machine speed and break bit-identical crash recovery.
    """

    def __init__(
        self,
        routing: RoutingMatrix,
        link_names: Sequence[str],
        lsp_names: Optional[Sequence[str]] = None,
        method: str = "tomogravity",
        method_params: Optional[Mapping[str, object]] = None,
        fallbacks: Sequence[str] = ("gravity",),
        watchdog_every: int = 12,
        watchdog_threshold: float = 0.25,
        min_valid_fraction: float = 0.5,
        ring_rounds: int = 64,
        budget_iterations: Optional[int] = None,
        retries: int = 1,
    ) -> None:
        if len(link_names) != routing.num_links:
            raise StreamingError(
                f"{len(link_names)} link names for {routing.num_links} routing links"
            )
        if lsp_names is not None and len(lsp_names) != routing.num_pairs:
            raise StreamingError(
                f"{len(lsp_names)} LSP names for {routing.num_pairs} routing pairs"
            )
        if watchdog_every < 0:
            raise StreamingError("watchdog_every must be non-negative")
        if not 0.0 <= float(min_valid_fraction) <= 1.0:
            raise StreamingError("min_valid_fraction must be within [0, 1]")
        if ring_rounds < 1:
            raise StreamingError("ring_rounds must be positive")
        self.routing = routing
        self.base_routing = routing
        self.link_names = tuple(link_names)
        self.lsp_names = None if lsp_names is None else tuple(lsp_names)
        self.method = str(method)
        self.method_params = dict(method_params or {})
        self.fallbacks = tuple(fallbacks)
        self.watchdog_every = int(watchdog_every)
        self.watchdog_threshold = float(watchdog_threshold)
        self.min_valid_fraction = float(min_valid_fraction)
        self.ring_rounds = int(ring_rounds)
        self.budget_iterations = budget_iterations
        self.retries = int(retries)

        self.object_names: tuple[str, ...] = (self.lsp_names or ()) + self.link_names
        self._num_lsps = len(self.lsp_names or ())
        self.tracker = CounterTracker(len(self.object_names))
        self._estimator = get_estimator(self.method, **self.method_params)
        self._supervisor = SupervisedEstimator(
            primary=self.method,
            fallbacks=self.fallbacks,
            primary_params=self.method_params,
            max_iterations=self.budget_iterations,
            retries=self.retries,
        )
        self._rerouter: Optional[IncrementalRerouter] = None
        self._perm_cache: Optional[tuple[tuple[str, ...], np.ndarray]] = None

        # Totals scatter structure (pair -> origin/destination rows).
        pairs = routing.pairs
        self._origins = tuple(dict.fromkeys(pair.origin for pair in pairs))
        self._destinations = tuple(dict.fromkeys(pair.destination for pair in pairs))
        origin_index = {name: idx for idx, name in enumerate(self._origins)}
        destination_index = {name: idx for idx, name in enumerate(self._destinations)}
        self._origin_cols = np.array([origin_index[pair.origin] for pair in pairs])
        self._destination_cols = np.array(
            [destination_index[pair.destination] for pair in pairs]
        )

        # Mutable daemon state (everything below is checkpointed).
        self.rounds_seen = 0
        self.sequence = 0
        self.epoch = 0
        self.failed_links: set[str] = set()
        self.failed_nodes: set[str] = set()
        self.estimate: Optional[np.ndarray] = None
        self.pending_invalid = np.zeros(routing.num_pairs, dtype=bool)
        self.stale_streak = 0
        self.since_watchdog = 0
        self.watchdog_forced = False
        self.stale_polls = 0
        self.degraded_updates = 0
        self.watchdog_checks = 0
        self.watchdog_resolves = 0
        self.invalidated_total = 0

        num_links = routing.num_links
        self._ring_times = np.zeros(self.ring_rounds, dtype=float)
        self._ring_rates = np.zeros((self.ring_rounds, num_links), dtype=float)
        self._ring_valid = np.zeros((self.ring_rounds, num_links), dtype=bool)
        self._ring_count = 0
        self._ring_pos = 0

    @classmethod
    def from_collector(cls, collector, **kwargs) -> "StreamingEstimator":
        """Daemon wired to a :class:`~repro.measurement.collector.DistributedCollector`.

        Uses the collector's routing matrix and its LSP/link SNMP object
        names, so ``daemon.run(PollStream.from_collector(collector, series))``
        works out of the box.
        """
        return cls(
            routing=collector.routing,
            link_names=collector.link_object_names,
            lsp_names=collector.lsp_object_names,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # configuration echo (used by the checkpoint layer)
    # ------------------------------------------------------------------
    def config(self) -> dict:
        """JSON-safe constructor arguments (sans routing) of this daemon."""
        return {
            "link_names": list(self.link_names),
            "lsp_names": None if self.lsp_names is None else list(self.lsp_names),
            "method": self.method,
            "method_params": dict(self.method_params),
            "fallbacks": list(self.fallbacks),
            "watchdog_every": self.watchdog_every,
            "watchdog_threshold": self.watchdog_threshold,
            "min_valid_fraction": self.min_valid_fraction,
            "ring_rounds": self.ring_rounds,
            "budget_iterations": self.budget_iterations,
            "retries": self.retries,
        }

    # ------------------------------------------------------------------
    # ring buffer
    # ------------------------------------------------------------------
    def _ring_append(self, timestamp: float, rates: np.ndarray, valid: np.ndarray) -> None:
        pos = self._ring_pos
        self._ring_times[pos] = timestamp
        self._ring_rates[pos] = rates
        self._ring_valid[pos] = valid
        self._ring_pos = (pos + 1) % self.ring_rounds
        self._ring_count = min(self._ring_count + 1, self.ring_rounds)

    def window(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Retained measurement window, oldest first.

        Returns ``(timestamps, link_rates, valid)`` with shapes ``(W,)``,
        ``(W, L)`` and ``(W, L)`` where ``W <= ring_rounds``.
        """
        if self._ring_count < self.ring_rounds:
            order = np.arange(self._ring_count)
        else:
            order = (np.arange(self.ring_rounds) + self._ring_pos) % self.ring_rounds
        return (
            self._ring_times[order].copy(),
            self._ring_rates[order].copy(),
            self._ring_valid[order].copy(),
        )

    # ------------------------------------------------------------------
    # routing churn
    # ------------------------------------------------------------------
    def _get_rerouter(self) -> IncrementalRerouter:
        if self._rerouter is None:
            if self.base_routing.network is None:
                raise StreamingError(
                    "routing matrix carries no network; cannot apply reroutes"
                )
            self._rerouter = IncrementalRerouter(self.base_routing.network)
        return self._rerouter

    def apply_reroute(
        self,
        failed_links: Iterable[str] = (),
        failed_nodes: Iterable[str] = (),
    ) -> RerouteResult:
        """Fold a topology change into the stream mid-flight.

        Failures accumulate: each call re-routes the *base* mesh around the
        union of every failure reported so far (established paths stay put,
        exactly like the incremental rerouter's RSVP-TE semantics).  The
        routing epoch is bumped, the warm-start entries of precisely the
        pairs whose paths moved are invalidated (they re-seed from the
        prior at the next update), and the next update is forced through
        the divergence watchdog.
        """
        self.failed_links |= set(failed_links)
        self.failed_nodes |= set(failed_nodes)
        new_routing, result = self._get_rerouter().reroute_matrix(
            sorted(self.failed_links), sorted(self.failed_nodes)
        )
        if new_routing.pairs != self.routing.pairs or new_routing.num_links != len(
            self.link_names
        ):
            raise StreamingError("rerouted matrix does not match the streamed mesh")
        affected = np.zeros(self.routing.num_pairs, dtype=bool)
        pair_position = {pair: idx for idx, pair in enumerate(self.routing.pairs)}
        for pair in result.rerouted:
            affected[pair_position[pair]] = True
        self.routing = new_routing
        self.epoch += 1
        self.pending_invalid |= affected
        self.watchdog_forced = True
        telemetry.counter_inc("stream.reroutes")
        telemetry.add_event(
            "stream.reroute",
            epoch=self.epoch,
            rerouted=len(result.rerouted),
            infeasible=len(result.infeasible),
        )
        return result

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def _problem(
        self, link_rates: np.ndarray, lsp_rates: Optional[np.ndarray]
    ) -> EstimationProblem:
        origin_totals = destination_totals = None
        if lsp_rates is not None:
            origin_vec = np.zeros(len(self._origins))
            destination_vec = np.zeros(len(self._destinations))
            np.add.at(origin_vec, self._origin_cols, lsp_rates)
            np.add.at(destination_vec, self._destination_cols, lsp_rates)
            origin_totals = dict(zip(self._origins, origin_vec.tolist()))
            destination_totals = dict(zip(self._destinations, destination_vec.tolist()))
        return EstimationProblem(
            routing=self.routing,
            link_loads=link_rates,
            origin_totals=origin_totals,
            destination_totals=destination_totals,
        )

    def _prepare_warm(self, problem: EstimationProblem) -> Optional[np.ndarray]:
        """Previous estimate as warm start, with churned pairs re-seeded."""
        if self.estimate is None:
            self.pending_invalid[:] = False
            return None
        warm = self.estimate.copy()
        if self.pending_invalid.any():
            kind = "gravity" if problem.origin_totals is not None else "uniform"
            replacement = make_prior(problem, kind)
            count = int(self.pending_invalid.sum())
            warm[self.pending_invalid] = replacement[self.pending_invalid]
            self.pending_invalid[:] = False
            self.invalidated_total += count
            telemetry.counter_inc("stream.invalidated_pairs", count)
        return warm

    def _full_resolve(self, problem: EstimationProblem):
        """Cold supervised re-solve of the current snapshot."""
        with telemetry.span("stream.resolve", method=self.method):
            return self._supervisor.estimate(problem)

    @staticmethod
    def _diagnostic_ints(result) -> tuple[Optional[int], Optional[bool]]:
        iterations = result.diagnostics.get("iterations")
        converged = result.diagnostics.get("converged")
        return (
            None if iterations is None else int(iterations),
            None if converged is None else bool(converged),
        )

    def _step(
        self,
        timestamp: float,
        response_times: np.ndarray,
        counters: np.ndarray,
        lost: np.ndarray,
        counter_bits: np.ndarray,
    ) -> Optional[StreamRecord]:
        rates, fresh = self.tracker.observe(response_times, counters, lost, counter_bits)
        self.rounds_seen += 1
        if self.rounds_seen == 1:
            # The first round only primes the counters; no interval exists yet.
            return None

        num_lsps = self._num_lsps
        link_rates = rates[num_lsps:]
        fresh_links = fresh[num_lsps:]
        lsp_rates = rates[:num_lsps] if num_lsps else None
        valid_fraction = float(fresh_links.mean())
        self._ring_append(timestamp, link_rates, fresh_links)

        telemetry.counter_inc("stream.polls")
        telemetry.gauge_set("stream.valid_fraction", valid_fraction)
        telemetry.gauge_set("stream.ring_rounds", float(self._ring_count))
        telemetry.gauge_set("stream.epoch", float(self.epoch))

        stale = valid_fraction < self.min_valid_fraction
        sequence = self.sequence
        self.sequence += 1

        if stale:
            self.stale_streak += 1
            self.stale_polls += 1
            telemetry.counter_inc("stream.stale_polls")
            telemetry.add_event(
                "stream.stale", sequence=sequence, valid_fraction=valid_fraction
            )
            held = (
                np.zeros(self.routing.num_pairs)
                if self.estimate is None
                else self.estimate.copy()
            )
            return StreamRecord(
                sequence=sequence,
                timestamp=timestamp,
                epoch=self.epoch,
                method="held",
                estimate=held,
                stale=True,
                stale_intervals=self.stale_streak,
                valid_fraction=valid_fraction,
                degraded=False,
                watchdog_checked=False,
                watchdog_drift=None,
                watchdog_resolved=False,
                iterations=None,
                converged=None,
            )

        self.stale_streak = 0
        problem = self._problem(link_rates, lsp_rates)
        warm = self._prepare_warm(problem)

        degraded = False
        with telemetry.span("stream.update", sequence=sequence, epoch=self.epoch):
            try:
                result = self._estimator.estimate(problem, start=warm)
            except (EstimationError, SolverError) as exc:
                degraded = True
                self.degraded_updates += 1
                telemetry.counter_inc("stream.degraded_updates")
                warnings.warn(
                    f"incremental update failed at sequence {sequence} "
                    f"({type(exc).__name__}: {exc}); falling back to a "
                    "supervised full re-solve",
                    RuntimeWarning,
                    stacklevel=2,
                )
                result = self._full_resolve(problem)
        estimate = np.maximum(np.asarray(result.vector, dtype=float), 0.0)
        method = result.method
        iterations, converged = self._diagnostic_ints(result)

        watchdog_checked = False
        watchdog_resolved = False
        drift: Optional[float] = None
        self.since_watchdog += 1
        due = self.watchdog_every > 0 and self.since_watchdog >= self.watchdog_every
        if degraded:
            # The supervised chain already produced a full re-solve.
            self.since_watchdog = 0
            self.watchdog_forced = False
        elif due or self.watchdog_forced:
            watchdog_checked = True
            self.watchdog_checks += 1
            self.since_watchdog = 0
            self.watchdog_forced = False
            with telemetry.span("stream.watchdog", sequence=sequence):
                reference = self._full_resolve(problem)
                full = np.maximum(np.asarray(reference.vector, dtype=float), 0.0)
                scale = max(float(np.linalg.norm(full)), _DRIFT_FLOOR)
                drift = float(np.linalg.norm(estimate - full) / scale)
                telemetry.counter_inc("stream.watchdog_checks")
                telemetry.gauge_set("stream.watchdog_drift", drift)
                if drift > self.watchdog_threshold:
                    watchdog_resolved = True
                    self.watchdog_resolves += 1
                    telemetry.counter_inc("stream.watchdog_resolves")
                    telemetry.add_event(
                        "stream.watchdog_resolve", sequence=sequence, drift=drift
                    )
                    estimate = full
                    method = reference.method
                    iterations, converged = self._diagnostic_ints(reference)

        self.estimate = estimate.copy()
        return StreamRecord(
            sequence=sequence,
            timestamp=timestamp,
            epoch=self.epoch,
            method=method,
            estimate=estimate,
            stale=False,
            stale_intervals=0,
            valid_fraction=valid_fraction,
            degraded=degraded,
            watchdog_checked=watchdog_checked,
            watchdog_drift=drift,
            watchdog_resolved=watchdog_resolved,
            iterations=iterations,
            converged=converged,
        )

    # ------------------------------------------------------------------
    # crash safety
    # ------------------------------------------------------------------
    def checkpoint(self, path: str) -> None:
        """Write the daemon's full state to ``path`` (see :mod:`repro.streaming.checkpoint`)."""
        from repro.streaming.checkpoint import save_checkpoint

        with telemetry.span("stream.checkpoint", rounds=self.rounds_seen):
            save_checkpoint(self, path)
        telemetry.counter_inc("stream.checkpoints")

    @classmethod
    def restore(cls, path: str, routing: RoutingMatrix) -> "StreamingEstimator":
        """Reconstruct a daemon from a checkpoint and its base routing matrix."""
        from repro.streaming.checkpoint import restore_daemon

        return restore_daemon(path, routing)

    # ------------------------------------------------------------------
    # stream consumption
    # ------------------------------------------------------------------
    def _stream_permutation(self, stream: PollStream) -> np.ndarray:
        if self._perm_cache is not None and self._perm_cache[0] == stream.object_names:
            return self._perm_cache[1]
        index = {name: pos for pos, name in enumerate(stream.object_names)}
        missing = [name for name in self.object_names if name not in index]
        if missing:
            raise StreamingError(
                f"stream is missing {len(missing)} configured objects "
                f"(first: {missing[0]!r})"
            )
        perm = np.array([index[name] for name in self.object_names], dtype=np.int64)
        self._perm_cache = (stream.object_names, perm)
        return perm

    def process_round(self, poll_round: PollRound, stream: PollStream) -> Optional[StreamRecord]:
        """Fold one :class:`~repro.streaming.stream.PollRound` into the daemon.

        Returns the emitted record, or ``None`` for the priming round.
        Rounds must be consumed in order; feeding a round the daemon has
        already consumed (or skipping ahead) raises.
        """
        if poll_round.index != self.rounds_seen:
            raise StreamingError(
                f"expected round {self.rounds_seen}, got round {poll_round.index} "
                "(streams must be consumed in order; resume from a checkpoint "
                "re-enters at the recorded round)"
            )
        perm = self._stream_permutation(stream)
        with telemetry.span("stream.poll", round=poll_round.index, epoch=self.epoch):
            return self._step(
                poll_round.scheduled_time,
                poll_round.response_times[perm],
                poll_round.counters[perm],
                poll_round.lost[perm],
                stream.object_bits[perm],
            )

    def run(self, stream: PollStream) -> Iterator[StreamRecord]:
        """Consume ``stream`` from the daemon's current position.

        A fresh daemon starts at round 0; a restored daemon picks up at
        the first round the checkpoint had not consumed, which is what
        makes kill/resume reproduce the uninterrupted run exactly.
        """
        for poll_round in stream.rounds(self.rounds_seen):
            record = self.process_round(poll_round, stream)
            if record is not None:
                yield record
