"""Workload-independent pieces of the layered estimator-stack benchmark.

Everything here is plain Python over numbers and span records, so the
fast tests in ``test_stackbench.py`` exercise it without running a
workload:

* the metric catalogue (names, units, direction) that ``BENCHMARK.json``
  mirrors, with the name rule both must follow;
* :func:`tail_percentile` — the highest percentile with at least ten
  samples beyond it;
* :func:`self_times` — a span's duration minus the part of it covered
  by its children;
* :func:`cpu_seconds` and :class:`Stopwatch` — the CPU clock the
  end-to-end times read, next to the wall clock, and :class:`HostSpeed`
  — the calibration that scales them to a reference host;
* :class:`Tally` — operations attempted, failed outright, and flagged
  (unconverged, stale, degraded);
* :func:`environment` — the record stamp (git SHA, CPU count, Python,
  numpy, scipy, BLAS threads);
* :func:`result_line` — the one-line JSON result the benchmark ends with.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import re
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent

#: Names of metrics and workloads: a letter or digit, then at most 63 of
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_RULE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def valid_name(name: str) -> bool:
    """Whether ``name`` is a valid metric or workload name."""
    return bool(NAME_RULE.match(name))


@dataclass(frozen=True)
class Metric:
    """One reported metric: name, unit, which direction is better, and
    (for per-layer metrics) the end-to-end metric it should move."""

    name: str
    unit: str
    better: str = "lower"
    moves: str = ""


#: End-to-end metrics, printed by every workload with tracing off.  The
#: two times are CPU seconds (see :func:`cpu_seconds`) scaled to the
#: reference host's speed (see :class:`HostSpeed`).
END_TO_END = (
    Metric("setup_s", "s"),
    Metric("cpu_s", "s"),
    Metric("peak_rss_mb", "MB"),
    Metric("mre_mean", "ratio"),
    Metric("ok_ratio", "ratio", better="higher"),
)

#: Estimation methods the workloads run, in the order their per-layer
#: metrics are listed.
METHODS = (
    "worst-case-bounds",
    "gravity",
    "entropy",
    "bayesian",
    "fanout",
    "vardi",
    "kruithof",
    "tomogravity",
)

_SOLVE_TARGET = {
    "worst-case-bounds": "cpu_s on table2",
    "entropy": "cpu_s on table2 and snapshot-n100 (tomogravity's inner solve)",
    "fanout": "cpu_s on table2",
    "vardi": "cpu_s on table2",
    "tomogravity": "cpu_s on snapshot-n100",
    "bayesian": "cpu_s on table2 and snapshot-n100",
    "gravity": "cpu_s on table2 and snapshot-n100",
    "kruithof": "cpu_s on snapshot-n100 and stream-n200",
}


def _estimation_metrics() -> tuple[Metric, ...]:
    metrics: list[Metric] = []
    for method in METHODS:
        target = _SOLVE_TARGET[method]
        prefix = f"estimation.{method}"
        metrics += [
            Metric(f"{prefix}.solve_s", "s", moves=target),
            Metric(f"{prefix}.iterations", "count", moves=target),
            Metric(f"{prefix}.ms_per_iter", "ms", moves=target),
            Metric(f"{prefix}.calls", "count", better="lower", moves="(count of work)"),
            Metric(f"{prefix}.unconverged", "count", moves="ok_ratio"),
        ]
    return tuple(metrics)


#: Per-layer metrics (layer = module), printed by the traced run.  A
#: workload that does not exercise a layer reports 0 for it.
PER_LAYER = (
    Metric("routing.build_s", "s", moves="setup_s on snapshot-n100 and stream-n200"),
    Metric("routing.reroute_s", "s", moves="cpu_s on stream-n200"),
    Metric("routing.nnz", "count", moves="(size of the routing matrix)"),
    Metric("datasets.scenario_s", "s", moves="setup_s on every workload"),
    Metric("measurement.stream_build_s", "s", moves="setup_s on stream-n200"),
    *_estimation_metrics(),
    Metric("estimation.workspace_hit_ratio", "ratio", better="higher", moves="cpu_s on table2"),
    Metric("optimize.ipf_sweeps", "count", moves="cpu_s on stream-n200"),
    Metric("evaluation.engine_self_s", "s", moves="cpu_s on table2"),
    Metric("streaming.poll_ms_p50", "ms", moves="cpu_s on stream-n200"),
    Metric("streaming.poll_ms_tail", "ms", moves="cpu_s on stream-n200"),
    Metric("streaming.checkpoint_ms", "ms", moves="cpu_s on stream-n200"),
    Metric("streaming.update_ms_p50", "ms", moves="streaming.poll_ms_p50"),
    Metric("streaming.poll_self_ms_p50", "ms", moves="streaming.poll_ms_p50"),
    Metric("streaming.watchdog_ms_p50", "ms", moves="streaming.poll_ms_tail"),
    Metric("streaming.watchdog_checks", "count", moves="streaming.poll_ms_tail"),
    Metric("streaming.checkpoint_save_ms", "ms", moves="streaming.checkpoint_ms"),
    Metric("streaming.restore_ms", "ms", moves="streaming.checkpoint_ms"),
    Metric("streaming.checkpoint_bytes", "bytes", moves="streaming.checkpoint_ms"),
    Metric("streaming.stale_polls", "count", moves="ok_ratio on stream-n200"),
    Metric("streaming.degraded_updates", "count", moves="ok_ratio on stream-n200"),
    Metric("planning.sweep_serial_s", "s", moves="cpu_s on sweep-america"),
    Metric("planning.records", "count", moves="(count of work)"),
    Metric("planning.infeasible_cases", "count", moves="(count of outcomes)"),
    Metric("parallel.speedup", "ratio", better="higher", moves="cpu_s on sweep-america"),
    # Summed over the pool's tasks: task-seconds waited and executed.
    Metric("parallel.queue_wait_s", "s", moves="cpu_s on sweep-america"),
    Metric("parallel.execute_s", "s", moves="cpu_s on sweep-america"),
    Metric("resilience.fallbacks", "count", moves="ok_ratio on stream-n200"),
    Metric("telemetry.overhead_ratio", "ratio", moves="(traced over untraced cpu_s, minus 1)"),
)


def catalogue(trace: bool) -> tuple[Metric, ...]:
    """The metrics a run prints: per-layer when traced, end-to-end otherwise."""
    return PER_LAYER if trace else END_TO_END


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (mean of the middle two when even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return float(ordered[middle - 1] + ordered[middle]) / 2.0


def tail_percentile(samples: Sequence[float]) -> Optional[tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``: ``value`` is the ``(n - 10)``-th
    smallest of the ``n`` samples, so exactly ten lie beyond it in sorted
    order, and ``percentile = 100 * (n - 10) / n``.  Fewer than eleven
    samples have no such percentile and give ``None``.
    """
    count = len(samples)
    if count < TAIL_BEYOND + 1:
        return None
    ordered = sorted(samples)
    rank = count - TAIL_BEYOND
    return 100.0 * rank / count, float(ordered[rank - 1])


def covered_seconds(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    covered = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        covered += run_hi - run_lo
    return covered


def self_times(spans: Sequence[Any]) -> dict[str, float]:
    """Self time of every span, keyed by span id.

    A span's self time is its duration minus the part of its interval
    that the union of its children's intervals covers, so overlapping
    children (pool workers running side by side) are not subtracted twice
    and a child outliving its parent is clipped.  Spans are duck-typed
    :class:`repro.telemetry.SpanRecord` objects (``span_id``,
    ``parent_id``, ``start_wall``, ``duration``).
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for record in spans:
        if record.parent_id is not None:
            children.setdefault(record.parent_id, []).append(
                (record.start_wall, record.start_wall + record.duration)
            )
    result: dict[str, float] = {}
    for record in spans:
        start = record.start_wall
        end = start + record.duration
        covered = covered_seconds(start, end, children.get(record.span_id, ()))
        result[record.span_id] = max(0.0, record.duration - covered)
    return result


# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------


def cpu_seconds() -> float:
    """CPU time of this process plus that of the child processes it has
    waited for (pool workers count once their pool has shut down).

    Unlike wall time it leaves out the time the process sat waiting for
    a processor, whether other processes held it or the hypervisor took
    the virtual CPU away (steal time), so it reads the same on a busy
    shared host as on an idle one.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Stopwatch:
    """Wall and CPU seconds, summed over the sections it timed."""

    wall: float = 0.0
    cpu: float = 0.0

    @contextmanager
    def timing(self) -> Iterator[None]:
        wall, cpu = time.perf_counter(), cpu_seconds()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += cpu_seconds() - cpu


#: Median CPU seconds of one :meth:`HostSpeed.kernel` call on the host the
#: bounds in ``BENCHMARK.json`` were set on (Intel Xeon VM, 2 vCPUs,
#: Python 3.11, numpy/scipy on single-threaded OpenBLAS).
CALIBRATION_REFERENCE_S = 0.0265


class HostSpeed:
    """How fast the host runs while the benchmark runs.

    A shared host's speed drifts by tens of percent over minutes, and CPU
    time drifts with it (neighbours share caches, memory bandwidth and
    cores), so two runs of the same code can differ by more than any
    regression bound.  :meth:`sample` times a fixed kernel that does not
    touch the program: sparse products, memory-bound array work, a dense
    product and an interpreter loop, the kinds of work the estimators do.
    The benchmark samples it before every set-up and every timed pass,
    and :meth:`scale` turns the run's CPU seconds into seconds on the
    reference host: a change to the program moves them, the host's
    drift during the run does not.
    """

    #: Kernel calls per :meth:`sample`.
    REPEATS = 3

    def __init__(self) -> None:
        import numpy as np
        from scipy import sparse

        rng = np.random.default_rng(0)
        entries = 270_000
        self._sparse = sparse.csr_matrix(
            (
                rng.random(entries),
                (rng.integers(0, 3000, entries), rng.integers(0, 30000, entries)),
            ),
            shape=(3000, 30000),
        )
        self._vector = rng.random(30000)
        self._array = rng.random(200_000)
        self._dense = rng.random((160, 160))
        self.samples: list[float] = []

    def kernel(self) -> None:
        import numpy as np

        vector = self._vector
        for _ in range(20):
            vector = self._sparse.T @ (self._sparse @ vector)
            vector /= vector.max()
        for _ in range(10):
            values = np.exp(-self._array) * self._array + np.sqrt(self._array)
            values.sort()
        for _ in range(10):
            self._dense @ self._dense
        buckets: dict[int, int] = {}
        for index in range(30000):
            buckets[index % 97] = buckets.get(index % 97, 0) + index

    def sample(self) -> None:
        """Time :attr:`REPEATS` kernel calls in CPU seconds."""
        for _ in range(self.REPEATS):
            start = time.process_time()
            self.kernel()
            self.samples.append(time.process_time() - start)

    def scale(self) -> float:
        """Factor from this run's CPU seconds to reference-host seconds."""
        return CALIBRATION_REFERENCE_S / median(self.samples)


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

#: Outcomes that count as failed outright: the operation raised, was
#: skipped, or returned output that failed its check.
HARD_FAILURES = ("raised", "skipped", "invalid")
#: Outcomes that completed but do not count as clean: the solver stopped
#: unconverged, the poll was held stale, or the update degraded to the
#: fallback chain.
SOFT_FAILURES = ("unconverged", "stale", "degraded")


@dataclass
class Tally:
    """Operations attempted and how each ended.

    ``failed`` counts hard failures only; ``fail_ratio`` counts every
    operation that did not end clean (hard or soft) against the number
    attempted, and ``ok_ratio`` is its complement.
    """

    attempted: int = 0
    outcomes: Counter = field(default_factory=Counter)

    def add(self, outcome: Optional[str] = None) -> None:
        """Record one operation; ``outcome`` is ``None`` for a clean one."""
        if outcome is not None and outcome not in HARD_FAILURES + SOFT_FAILURES:
            raise ValueError(f"unknown operation outcome {outcome!r}")
        self.attempted += 1
        if outcome is not None:
            self.outcomes[outcome] += 1

    def mark(self, outcome: str) -> None:
        """Re-classify one operation already counted as clean."""
        if outcome not in HARD_FAILURES + SOFT_FAILURES:
            raise ValueError(f"unknown operation outcome {outcome!r}")
        if self.not_clean >= self.attempted:
            raise ValueError("no clean operation left to re-classify")
        self.outcomes[outcome] += 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.outcomes.update(other.outcomes)

    @property
    def failed(self) -> int:
        return sum(self.outcomes[name] for name in HARD_FAILURES)

    @property
    def not_clean(self) -> int:
        return sum(self.outcomes.values())

    @property
    def fail_ratio(self) -> float:
        return self.not_clean / self.attempted if self.attempted else 0.0

    @property
    def ok_ratio(self) -> float:
        return 1.0 - self.fail_ratio

    def describe(self) -> str:
        detail = ", ".join(f"{name} {count}" for name, count in sorted(self.outcomes.items()))
        return (
            f"{self.not_clean} of {self.attempted} operations not clean"
            + (f" ({detail})" if detail else "")
            + f"; {self.failed} failed outright"
        )


# ----------------------------------------------------------------------
# environment stamp and result line
# ----------------------------------------------------------------------


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy links against, if it can be read."""
    import numpy as np

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict[str, Any]:
    """``record_meta()`` fields plus the scipy version and BLAS threads."""
    import scipy

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from benchrecord import record_meta
    finally:
        sys.path.remove(str(REPO_ROOT / "benchmarks"))
    meta = record_meta()
    meta["scipy_version"] = scipy.__version__
    meta["blas_threads"] = blas_threads()
    return meta


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is in bytes there
        kilobytes /= 1024.0
    return kilobytes / 1024.0


def result_line(
    correct: bool,
    tally: Tally,
    values: Mapping[str, float],
    metrics: Sequence[Metric],
) -> str:
    """The benchmark's final JSON line, holding exactly ``metrics``."""
    if tally.attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    missing = [metric.name for metric in metrics if metric.name not in values]
    if missing:
        raise ValueError(f"metrics not measured: {missing}")
    body = {}
    for metric in metrics:
        value = float(values[metric.name])
        if not math.isfinite(value):
            raise ValueError(f"metric {metric.name} is not finite: {value}")
        body[metric.name] = {"value": value, "unit": metric.unit}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(tally.attempted),
            "failed": int(tally.failed),
            "metrics": body,
        }
    )


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")


def output_dir() -> Path:
    """Where runs leave traces, records and temporary files (git-ignored)."""
    return REPO_ROOT / ".stackbench"

