"""SNMP polling simulation.

Section 5.1.2 of the paper describes the collection infrastructure: SNMP
counters for every link and LSP are polled every five minutes at fixed
timestamps; because SNMP runs over unreliable UDP some samples are lost, the
exact response time of each router varies slightly, and the reported byte
counts are converted to rates using the *actual* measurement interval (e.g.
"5 minutes and 3 seconds") so that the time series stays uniform.

This module models that pipeline for a single poller:

* :class:`CounterState` — a monotonically increasing 64-bit byte counter for
  one measured object (link or LSP), advanced by the true traffic process;
* :class:`SNMPPoller` — polls a set of counters on a fixed schedule with
  per-poll jitter and optional UDP loss.  The counters are stored as one
  ``uint64`` array and advanced/polled with array operations, so a poller
  tracking hundreds of objects over a day of five-minute intervals costs a
  handful of NumPy calls instead of a Python loop per (object, round);
* :class:`PollMatrix` — the dense ``(rounds, objects)`` outcome of a polling
  schedule (response times, counter values, loss mask), convertible to and
  from per-round :class:`PollResult` lists;
* :func:`rates_from_poll_matrix` — turns consecutive poll rounds into the
  rate samples the estimation pipeline consumes, interpolating over lost
  polls and reporting :class:`RateDiagnostics` (how many samples were lost
  to UDP, degenerate because no time elapsed between responses, or filled
  by interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import MeasurementError

__all__ = [
    "CounterState",
    "PollResult",
    "PollMatrix",
    "RateDiagnostics",
    "SNMPPoller",
    "rates_from_poll_matrix",
]

_COUNTER64_WRAP = 2**64
#: Bytes accumulated per second at 1 Mbit/s.
_BYTES_PER_MBPS_SECOND = 1e6 / 8.0


@dataclass
class CounterState:
    """A monotonically increasing byte counter for one measured object.

    Parameters
    ----------
    name:
        Object identifier (a link or LSP name).
    value_bytes:
        Current counter value; wraps modulo 2**64 like a Counter64 MIB object.
    """

    name: str
    value_bytes: int = 0

    def advance(self, rate_mbps: float, duration_seconds: float) -> None:
        """Advance the counter by ``rate_mbps`` sustained for ``duration_seconds``."""
        if rate_mbps < 0:
            raise MeasurementError(f"counter {self.name!r} advanced with negative rate")
        if duration_seconds < 0:
            raise MeasurementError("duration must be non-negative")
        added_bytes = int(round(rate_mbps * _BYTES_PER_MBPS_SECOND * duration_seconds))
        self.value_bytes = (self.value_bytes + added_bytes) % _COUNTER64_WRAP


class _CounterView:
    """:class:`CounterState`-compatible live view into a poller's counter array."""

    __slots__ = ("name", "_values", "_column")

    def __init__(self, name: str, values: np.ndarray, column: int) -> None:
        self.name = name
        self._values = values
        self._column = column

    @property
    def value_bytes(self) -> int:
        return int(self._values[self._column])

    @value_bytes.setter
    def value_bytes(self, value: int) -> None:
        self._values[self._column] = np.uint64(value % _COUNTER64_WRAP)

    def advance(self, rate_mbps: float, duration_seconds: float) -> None:
        """Advance the counter by ``rate_mbps`` sustained for ``duration_seconds``."""
        if rate_mbps < 0:
            raise MeasurementError(f"counter {self.name!r} advanced with negative rate")
        if duration_seconds < 0:
            raise MeasurementError("duration must be non-negative")
        added = int(round(rate_mbps * _BYTES_PER_MBPS_SECOND * duration_seconds))
        self.value_bytes = self.value_bytes + added

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterState(name={self.name!r}, value_bytes={self.value_bytes})"


@dataclass(frozen=True)
class PollResult:
    """Outcome of polling one object at one scheduled timestamp.

    Attributes
    ----------
    object_name:
        The polled link/LSP.
    scheduled_time:
        Nominal poll timestamp (e.g. 09:05:00) in seconds.
    response_time:
        Actual response time including jitter, in seconds.
    counter_bytes:
        The counter value read, or ``None`` when the poll was lost (UDP).
    """

    object_name: str
    scheduled_time: float
    response_time: float
    counter_bytes: Optional[int]

    @property
    def lost(self) -> bool:
        """Whether this poll produced no data."""
        return self.counter_bytes is None


@dataclass(frozen=True)
class PollMatrix:
    """Dense outcome of a polling schedule: ``(rounds, objects)`` arrays.

    Attributes
    ----------
    object_names:
        Column labels.
    scheduled_times:
        Nominal poll timestamps, shape ``(rounds,)``.
    response_times:
        Actual (jittered) response times, shape ``(rounds, objects)``.
    counters:
        Counter values read, shape ``(rounds, objects)``, ``uint64``; entries
        where ``lost`` is true are undefined (stored as zero).
    lost:
        Boolean UDP-loss mask, shape ``(rounds, objects)``.
    counter_bits:
        Width of the underlying MIB counters (64 for Counter64, 32 for the
        legacy ifInOctets Counter32).  Rate derivation wraps deltas modulo
        ``2**counter_bits``.
    """

    object_names: tuple[str, ...]
    scheduled_times: np.ndarray
    response_times: np.ndarray
    counters: np.ndarray
    lost: np.ndarray
    counter_bits: int = 64

    def __post_init__(self) -> None:
        rounds = len(self.scheduled_times)
        shape = (rounds, len(self.object_names))
        for attribute in ("response_times", "counters", "lost"):
            if getattr(self, attribute).shape != shape:
                raise MeasurementError(
                    f"poll matrix field {attribute} has shape "
                    f"{getattr(self, attribute).shape}, expected {shape}"
                )
        if not 1 <= self.counter_bits <= 64:
            raise MeasurementError(
                f"counter_bits must lie in [1, 64], got {self.counter_bits}"
            )

    @property
    def num_rounds(self) -> int:
        """Number of poll rounds (intervals + 1)."""
        return len(self.scheduled_times)

    @property
    def num_objects(self) -> int:
        """Number of polled objects."""
        return len(self.object_names)

    @classmethod
    def from_rounds(
        cls,
        poll_rounds: Sequence[Sequence[PollResult]],
        object_names: Sequence[str],
        counter_bits: int = 64,
    ) -> "PollMatrix":
        """Assemble a matrix from per-round :class:`PollResult` lists.

        Every round must contain a result for every requested object.
        """
        names = tuple(object_names)
        rounds = len(poll_rounds)
        scheduled = np.empty(rounds)
        response = np.empty((rounds, len(names)))
        counters = np.zeros((rounds, len(names)), dtype=np.uint64)
        lost = np.zeros((rounds, len(names)), dtype=bool)
        for row, round_results in enumerate(poll_rounds):
            indexed = {result.object_name: result for result in round_results}
            missing = set(names) - set(indexed)
            if missing:
                raise MeasurementError(f"poll round missing objects: {sorted(missing)}")
            scheduled[row] = indexed[names[0]].scheduled_time if names else 0.0
            for col, name in enumerate(names):
                result = indexed[name]
                response[row, col] = result.response_time
                if result.lost:
                    lost[row, col] = True
                else:
                    counters[row, col] = np.uint64(result.counter_bytes % (2**counter_bits))
        return cls(
            object_names=names,
            scheduled_times=scheduled,
            response_times=response,
            counters=counters,
            lost=lost,
            counter_bits=counter_bits,
        )

    def round_results(self, index: int) -> list[PollResult]:
        """Round ``index`` as a list of :class:`PollResult` (compatibility view)."""
        if not 0 <= index < self.num_rounds:
            raise MeasurementError(
                f"round index {index} out of range for {self.num_rounds} rounds"
            )
        return [
            PollResult(
                object_name=name,
                scheduled_time=float(self.scheduled_times[index]),
                response_time=float(self.response_times[index, col]),
                counter_bytes=None if self.lost[index, col] else int(self.counters[index, col]),
            )
            for col, name in enumerate(self.object_names)
        ]

    def to_rounds(self) -> list[list[PollResult]]:
        """The whole schedule as per-round :class:`PollResult` lists."""
        return [self.round_results(index) for index in range(self.num_rounds)]


@dataclass(frozen=True)
class RateDiagnostics:
    """Sample accounting of one poll-rounds → rates conversion.

    Attributes
    ----------
    num_intervals:
        Number of measurement intervals (poll rounds minus one).
    num_objects:
        Number of measured objects.
    lost_samples:
        ``(interval, object)`` samples unusable because at least one of the
        two bounding polls was lost to UDP.
    degenerate_samples:
        Samples where both polls answered but no time elapsed between the
        responses (``elapsed <= 0``), so no rate can be derived.
    interpolated_samples:
        Samples filled by interpolation from neighbouring valid samples
        (every lost, degenerate or reset-invalidated sample is filled, so
        this equals their sum).
    reset_samples:
        Samples discarded because the counter went backwards by more than
        half the counter space — a device reset/reboot rather than a wrap.
    wrap_samples:
        Samples where the counter went backwards by *less* than half the
        counter space: a legitimate modulo-``2**counter_bits`` wrap whose
        delta was recovered (these samples stay valid).
    validity:
        Optional boolean ``(num_intervals, num_objects)`` mask: ``True``
        where the rate was derived from two good polls, ``False`` where it
        was filled by interpolation (lost / degenerate / reset samples).
        Callers that must not consume fabricated data — the streaming
        estimator, quality gates — read this instead of re-deriving the
        loss pattern from the poll matrix.  Excluded from equality
        comparisons so diagnostics records stay cheaply comparable.
    """

    num_intervals: int
    num_objects: int
    lost_samples: int
    degenerate_samples: int
    interpolated_samples: int
    reset_samples: int = 0
    wrap_samples: int = 0
    validity: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @property
    def total_samples(self) -> int:
        """Total number of ``(interval, object)`` samples."""
        return self.num_intervals * self.num_objects

    @property
    def interpolated_fraction(self) -> float:
        """Fraction of samples that had to be interpolated."""
        if self.total_samples == 0:
            return 0.0
        return self.interpolated_samples / self.total_samples

    def merged(self, other: "RateDiagnostics") -> "RateDiagnostics":
        """Combine the accounting of two conversions (e.g. of two pollers)."""
        if self.num_intervals != other.num_intervals:
            raise MeasurementError("cannot merge diagnostics over different interval counts")
        validity = None
        if self.validity is not None and other.validity is not None:
            validity = np.hstack([self.validity, other.validity])
        return RateDiagnostics(
            num_intervals=self.num_intervals,
            num_objects=self.num_objects + other.num_objects,
            lost_samples=self.lost_samples + other.lost_samples,
            degenerate_samples=self.degenerate_samples + other.degenerate_samples,
            interpolated_samples=self.interpolated_samples + other.interpolated_samples,
            reset_samples=self.reset_samples + other.reset_samples,
            wrap_samples=self.wrap_samples + other.wrap_samples,
            validity=validity,
        )


class SNMPPoller:
    """Simulates one SNMP poller and its polling schedule.

    Counters are held as a single ``uint64`` array (one entry per object) so
    that advancing and polling the whole object set are array operations;
    :meth:`counter` exposes a per-object view for tests and advanced use.

    Parameters
    ----------
    object_names:
        Names of the measured objects (links or LSPs).
    interval_seconds:
        Nominal polling interval (the paper uses 300 s).
    jitter_std_seconds:
        Standard deviation of the response-time jitter around the scheduled
        timestamp.
    loss_probability:
        Probability that an individual poll is lost (SNMP over UDP).
    seed:
        Seed of the internal random generator.
    counter_bits:
        Width of the simulated MIB counters: 64 (Counter64, the default) or
        32 (legacy Counter32 / ifInOctets), which wraps every 2**32 bytes.
    fault_plan:
        Optional seeded fault plan (duck-typed; see
        :class:`repro.resilience.FaultPlan`).  Applied to every poll matrix
        this poller produces, after the clean schedule ran.
    fault_salt:
        Salt mixed into the fault plan's generator so several pollers under
        one plan draw distinct, reproducible fault streams.
    """

    def __init__(
        self,
        object_names: Sequence[str],
        interval_seconds: float = 300.0,
        jitter_std_seconds: float = 2.0,
        loss_probability: float = 0.0,
        seed: Optional[int] = None,
        counter_bits: int = 64,
        fault_plan: Optional[object] = None,
        fault_salt: int = 0,
    ) -> None:
        if not object_names:
            raise MeasurementError("poller needs at least one object to poll")
        if len(set(object_names)) != len(object_names):
            raise MeasurementError("duplicate object names")
        if interval_seconds <= 0:
            raise MeasurementError("interval_seconds must be positive")
        if jitter_std_seconds < 0:
            raise MeasurementError("jitter_std_seconds must be non-negative")
        if not 0 <= loss_probability < 1:
            raise MeasurementError("loss_probability must lie in [0, 1)")
        if counter_bits not in (32, 64):
            raise MeasurementError("counter_bits must be 32 or 64")
        self.object_names = tuple(object_names)
        self.interval_seconds = float(interval_seconds)
        self.jitter_std_seconds = float(jitter_std_seconds)
        self.loss_probability = float(loss_probability)
        self.counter_bits = int(counter_bits)
        self.fault_plan = fault_plan
        self.fault_salt = int(fault_salt)
        self._rng = np.random.default_rng(seed)
        self._values = np.zeros(len(self.object_names), dtype=np.uint64)
        self._column = {name: col for col, name in enumerate(self.object_names)}

    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        """Number of objects this poller tracks."""
        return len(self.object_names)

    def counter(self, name: str) -> _CounterView:
        """A live counter view of ``name`` (for tests and advanced use)."""
        try:
            return _CounterView(name, self._values, self._column[name])
        except KeyError as exc:
            raise MeasurementError(f"poller does not track object {name!r}") from exc

    def counter_values(self) -> np.ndarray:
        """Current counter values as a ``uint64`` array in object order."""
        return self._values.copy()

    def _rates_array(
        self, rates_mbps: Union[Mapping[str, float], np.ndarray, Sequence[float]]
    ) -> np.ndarray:
        if isinstance(rates_mbps, Mapping):
            rates = np.array(
                [float(rates_mbps.get(name, 0.0)) for name in self.object_names]
            )
        else:
            rates = np.asarray(rates_mbps, dtype=float)
            if rates.shape != (self.num_objects,):
                raise MeasurementError(
                    f"rate vector has shape {rates.shape}, "
                    f"expected ({self.num_objects},)"
                )
        if np.any(rates < 0):
            raise MeasurementError("counters cannot be advanced with negative rates")
        return rates

    def advance_counters(
        self,
        rates_mbps: Union[Mapping[str, float], np.ndarray, Sequence[float]],
        duration_seconds: float,
    ) -> None:
        """Advance every tracked counter with the given sustained rates.

        ``rates_mbps`` may be a ``name -> rate`` mapping (missing names count
        as zero) or an array aligned with :attr:`object_names`.
        """
        if duration_seconds < 0:
            raise MeasurementError("duration must be non-negative")
        rates = self._rates_array(rates_mbps)
        added = np.rint(rates * (_BYTES_PER_MBPS_SECOND * duration_seconds))
        self._values = self._values + added.astype(np.uint64)
        if self.counter_bits < 64:
            self._values %= np.uint64(2**self.counter_bits)

    def _poll_arrays(self, scheduled_time: float) -> tuple[np.ndarray, np.ndarray]:
        """One poll round: jittered response times and the loss mask."""
        jitter = np.abs(self._rng.normal(scale=self.jitter_std_seconds, size=self.num_objects))
        lost = self._rng.random(self.num_objects) < self.loss_probability
        return scheduled_time + jitter, lost

    def poll(self, scheduled_time: float) -> list[PollResult]:
        """Poll every object once at ``scheduled_time``.

        Returns one :class:`PollResult` per object; lost polls have
        ``counter_bytes = None``.
        """
        response_times, lost = self._poll_arrays(scheduled_time)
        return [
            PollResult(
                object_name=name,
                scheduled_time=scheduled_time,
                response_time=float(response_times[col]),
                counter_bytes=None if lost[col] else int(self._values[col]),
            )
            for col, name in enumerate(self.object_names)
        ]

    def run_schedule_matrix(
        self,
        rate_matrix_mbps: np.ndarray,
        start_time: float = 0.0,
    ) -> PollMatrix:
        """Drive the counters with a rate matrix and poll after every interval.

        ``rate_matrix_mbps`` has shape ``(K, num_objects)``: the sustained
        per-object rates during each of the ``K`` intervals, columns aligned
        with :attr:`object_names`.  Counter trajectories are one cumulative
        sum and each round's jitter/loss one vectorised draw, so the whole
        schedule is O(K) NumPy calls instead of O(K * objects) Python steps.
        The random stream is drawn in the same order as repeated
        :meth:`poll` calls, so this is a faster path, not a different model.

        Returns a :class:`PollMatrix` with ``K + 1`` rounds, *including* an
        initial poll at ``start_time`` so that rates can be derived from
        consecutive counter differences.
        """
        rates = np.asarray(rate_matrix_mbps, dtype=float)
        if rates.ndim != 2 or rates.shape[1] != self.num_objects:
            raise MeasurementError(
                f"rate matrix has shape {rates.shape}, "
                f"expected (K, {self.num_objects})"
            )
        if np.any(rates < 0):
            raise MeasurementError("counters cannot be advanced with negative rates")
        num_intervals = rates.shape[0]

        added = np.rint(rates * (_BYTES_PER_MBPS_SECOND * self.interval_seconds))
        counters = np.empty((num_intervals + 1, self.num_objects), dtype=np.uint64)
        counters[0] = self._values
        counters[1:] = self._values + np.cumsum(added.astype(np.uint64), axis=0)
        if self.counter_bits < 64:
            counters %= np.uint64(2**self.counter_bits)
        self._values = counters[-1].copy()

        scheduled = start_time + self.interval_seconds * np.arange(num_intervals + 1)
        response = np.empty((num_intervals + 1, self.num_objects))
        lost = np.empty((num_intervals + 1, self.num_objects), dtype=bool)
        for row in range(num_intervals + 1):
            response[row], lost[row] = self._poll_arrays(float(scheduled[row]))
        polls = PollMatrix(
            object_names=self.object_names,
            scheduled_times=scheduled,
            response_times=response,
            counters=counters,
            lost=lost,
            counter_bits=self.counter_bits,
        )
        if self.fault_plan is not None:
            polls = self.fault_plan.apply_to_polls(polls, salt=self.fault_salt)
        return polls

def rates_from_poll_matrix(
    polls: PollMatrix,
    max_interpolated_fraction: float = 1.0,
) -> tuple[np.ndarray, RateDiagnostics]:
    """Convert a :class:`PollMatrix` into interval rates plus diagnostics.

    The rate of object ``o`` during interval ``k`` is the counter difference
    between round ``k+1`` and round ``k`` divided by the *actual* elapsed
    time between the two responses — the interval-length adjustment the
    paper describes.  Samples where either poll was lost (UDP) or where no
    time elapsed between the responses (degenerate jitter) are linearly
    interpolated from the nearest valid samples of the same object (constant
    extrapolation at the boundaries), and both kinds are counted separately
    in the returned :class:`RateDiagnostics`.

    Counter deltas are wrap-aware: a counter that goes *backwards* between
    two valid polls either wrapped modulo ``2**polls.counter_bits`` (the
    modular delta stays below half the counter space — kept as a valid
    sample, counted in ``wrap_samples``) or was reset by a device reboot
    (the modular delta exceeds half the counter space, which no plausible
    rate produces in one interval — the sample is invalidated, counted in
    ``reset_samples`` and interpolated like a lost poll).

    Parameters
    ----------
    polls:
        The ``(K + 1, objects)`` poll outcome.
    max_interpolated_fraction:
        Raise :class:`~repro.errors.MeasurementError` when the fraction of
        interpolated samples exceeds this threshold (the default ``1.0``
        never raises); archives built from heavily interpolated data are not
        measurements any more.

    Returns ``(rates, diagnostics)`` with ``rates`` of shape
    ``(K, num_objects)``; ``diagnostics.validity`` carries the per-sample
    boolean mask (``False`` where the returned rate was interpolated), so
    callers can skip fabricated samples without re-deriving the loss
    pattern.
    """
    if polls.num_rounds < 2:
        raise MeasurementError("need at least two poll rounds to derive rates")
    if not 0 <= max_interpolated_fraction <= 1:
        raise MeasurementError("max_interpolated_fraction must lie in [0, 1]")
    num_intervals = polls.num_rounds - 1

    # uint64 subtraction wraps modulo 2**64 exactly like the Counter64 MIB;
    # narrower counters (Counter32) reduce the same difference modulo their
    # own space, which recovers the true delta across a legitimate wrap.
    deltas = polls.counters[1:] - polls.counters[:-1]
    if polls.counter_bits < 64:
        deltas = deltas % np.uint64(2**polls.counter_bits)
    backwards = polls.counters[1:] < polls.counters[:-1]
    half_space = np.uint64(2 ** (polls.counter_bits - 1))

    elapsed = polls.response_times[1:] - polls.response_times[:-1]
    pair_lost = polls.lost[1:] | polls.lost[:-1]
    degenerate = ~pair_lost & (elapsed <= 0)
    # A backwards counter whose modular delta exceeds half the counter
    # space is a reset (reboot), not a wrap: the sample is unusable.
    reset = ~pair_lost & ~degenerate & backwards & (deltas > half_space)
    wrapped = ~pair_lost & ~degenerate & backwards & ~reset
    valid = ~pair_lost & ~degenerate & ~reset

    rates = np.full((num_intervals, polls.num_objects), np.nan)
    rates[valid] = (
        deltas[valid].astype(float) * (8.0 / 1e6) / elapsed[valid]
    )

    valid_per_object = valid.any(axis=0)
    if not valid_per_object.all():
        name = polls.object_names[int(np.argmin(valid_per_object))]
        raise MeasurementError(f"all polls lost for object {name!r}")

    validity = valid.copy()
    validity.setflags(write=False)
    diagnostics = RateDiagnostics(
        num_intervals=num_intervals,
        num_objects=polls.num_objects,
        lost_samples=int(pair_lost.sum()),
        degenerate_samples=int(degenerate.sum()),
        interpolated_samples=int((~valid).sum()),
        reset_samples=int(reset.sum()),
        wrap_samples=int(wrapped.sum()),
        validity=validity,
    )
    if diagnostics.interpolated_fraction > max_interpolated_fraction:
        raise MeasurementError(
            f"{diagnostics.interpolated_samples} of {diagnostics.total_samples} samples "
            f"({diagnostics.interpolated_fraction:.1%}) would be interpolated, "
            f"exceeding the allowed fraction {max_interpolated_fraction:.1%}"
        )

    indices = np.arange(num_intervals)
    for col in np.nonzero(~valid.all(axis=0))[0]:
        column = rates[:, col]
        known = ~np.isnan(column)
        column[~known] = np.interp(indices[~known], indices[known], column[known])
    return rates, diagnostics
