"""Per-layer metrics of a traced run, derived from spans and counters.

The program already emits ``estimate`` spans (with the solver's
``iterations``/``converged`` diagnostics), ``experiment.spec``,
``stream.*``, ``pool.*`` and ``routing.build_matrix`` spans, and the
``ipf.sweeps``, ``workspace.cache_*``, ``stream.*`` and
``supervisor.fallbacks`` counters.  The benchmark adds its own
``bench.<call>`` span around every public call it makes.  This module
turns one run's records into the ``PER_LAYER`` catalogue of
:mod:`stackbench`; it reads span records by attribute only, so the fast
tests feed it plain stand-ins.

Additive quantities (seconds, calls, iterations, counters) are reported
per traced pass; latencies are medians over every traced sample.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Mapping, Optional, Sequence

from stackbench import (
    METHODS,
    PER_LAYER,
    covered_seconds,
    median,
    self_times,
    tail_percentile,
)

ESTIMATE_SPANS = ("estimate", "estimate_series")


def _median_ms(durations: Sequence[float]) -> float:
    return 1e3 * median(durations) if durations else 0.0


def _descendants(span_id: str, children: Mapping[str, list]) -> list:
    found: list = []
    stack = list(children.get(span_id, ()))
    while stack:
        record = stack.pop()
        found.append(record)
        stack.extend(children.get(record.span_id, ()))
    return found


def estimation_metrics(spans: Sequence[Any], passes: int) -> dict[str, float]:
    """``estimation.<method>.*`` from the ``estimate`` spans.

    ``solve_s`` is self time, so a wrapper estimator (tomogravity around
    its entropy solve) keeps only its own share.  Iterations count on the
    innermost ``estimate`` span that reports them, never twice.
    """
    selfs = self_times(spans)
    nested_parents = {
        record.parent_id
        for record in spans
        if record.name in ESTIMATE_SPANS and record.parent_id is not None
    }
    totals: dict[str, Counter] = {method: Counter() for method in METHODS}
    for record in spans:
        if record.name not in ESTIMATE_SPANS:
            continue
        method = record.attributes.get("method")
        if method not in totals:
            continue
        row = totals[method]
        row["calls"] += 1
        row["solve_s"] += selfs[record.span_id]
        if record.span_id not in nested_parents:
            row["iterations"] += int(record.attributes.get("iterations", 0) or 0)
        if record.attributes.get("converged") is False:
            row["unconverged"] += 1
    values: dict[str, float] = {}
    scale = 1.0 / max(passes, 1)
    for method, row in totals.items():
        prefix = f"estimation.{method}"
        values[f"{prefix}.solve_s"] = row["solve_s"] * scale
        values[f"{prefix}.iterations"] = row["iterations"] * scale
        values[f"{prefix}.ms_per_iter"] = (
            1e3 * row["solve_s"] / row["iterations"] if row["iterations"] else 0.0
        )
        values[f"{prefix}.calls"] = row["calls"] * scale
        values[f"{prefix}.unconverged"] = row["unconverged"] * scale
    return values


def engine_self_seconds(spans: Sequence[Any]) -> float:
    """Time inside ``bench.method_comparison`` not covered by ``estimate`` spans."""
    children: dict[str, list] = {}
    for record in spans:
        if record.parent_id is not None:
            children.setdefault(record.parent_id, []).append(record)
    total = 0.0
    for record in spans:
        if record.name != "bench.method_comparison":
            continue
        estimates = [
            (child.start_wall, child.start_wall + child.duration)
            for child in _descendants(record.span_id, children)
            if child.name in ESTIMATE_SPANS
        ]
        start = record.start_wall
        total += record.duration - covered_seconds(start, start + record.duration, estimates)
    return total


def setup_metrics(setups: Sequence[Sequence[Any]]) -> dict[str, float]:
    """Set-up layers: median over the traced set-ups of each one's total."""

    def per_setup(predicate) -> float:
        totals = [sum(r.duration for r in spans if predicate(r.name)) for spans in setups]
        return median(totals) if totals else 0.0

    return {
        "datasets.scenario_s": per_setup(
            lambda name: name.startswith("bench.") and name.endswith("_scenario")
        ),
        "routing.build_s": per_setup(lambda name: name == "routing.build_matrix"),
        "measurement.stream_build_s": per_setup(
            lambda name: name in ("bench.DistributedCollector", "bench.PollStream.from_collector")
        ),
    }


def layer_metrics(
    *,
    setups: Sequence[Sequence[Any]],
    spans: Sequence[Any],
    counters: Mapping[str, float],
    histograms: Mapping[str, Sequence[float]],
    passes: int,
    samples: Mapping[str, Sequence[float]],
    extras: Mapping[str, float],
    wall_s: float,
    overhead_ratio: float,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced run (0 for unused layers).

    ``spans``/``counters``/``histograms`` come from the ``passes`` traced
    passes; ``samples`` holds latencies the workload timed itself on its
    untraced passes (``poll_ms``, ``checkpoint_ms``); ``extras`` holds
    values the workload measured directly (sizes, the serial sweep);
    ``wall_s`` is the median untraced pass, the base of ``parallel.speedup``.
    """
    scale = 1.0 / max(passes, 1)
    by_name: dict[str, list] = {}
    for record in spans:
        by_name.setdefault(record.name, []).append(record)
    selfs = self_times(spans)

    def durations(name: str) -> list[float]:
        return [record.duration for record in by_name.get(name, ())]

    hits = counters.get("workspace.cache_hits", 0.0)
    misses = counters.get("workspace.cache_misses", 0.0)
    poll_ms = list(samples.get("poll_ms", ()))
    tail: Optional[tuple[float, float]] = tail_percentile(poll_ms)
    serial = extras.get("planning.sweep_serial_s", 0.0)

    values: dict[str, float] = {
        "routing.reroute_s": median(durations("bench.apply_reroute"))
        if by_name.get("bench.apply_reroute")
        else 0.0,
        "routing.nnz": extras.get("routing.nnz", 0.0),
        **setup_metrics(setups),
        **estimation_metrics(spans, passes),
        "estimation.workspace_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "optimize.ipf_sweeps": counters.get("ipf.sweeps", 0.0) * scale,
        "evaluation.engine_self_s": engine_self_seconds(spans) * scale,
        "streaming.poll_ms_p50": median(poll_ms) if poll_ms else 0.0,
        "streaming.poll_ms_tail": tail[1] if tail else 0.0,
        "streaming.checkpoint_ms": median(samples["checkpoint_ms"])
        if samples.get("checkpoint_ms")
        else 0.0,
        "streaming.update_ms_p50": _median_ms(durations("stream.update")),
        "streaming.poll_self_ms_p50": _median_ms(
            [selfs[record.span_id] for record in by_name.get("stream.poll", ())]
        ),
        "streaming.watchdog_ms_p50": _median_ms(durations("stream.watchdog")),
        "streaming.watchdog_checks": counters.get("stream.watchdog_checks", 0.0) * scale,
        "streaming.checkpoint_save_ms": _median_ms(durations("bench.checkpoint")),
        "streaming.restore_ms": _median_ms(durations("bench.restore")),
        "streaming.checkpoint_bytes": extras.get("streaming.checkpoint_bytes", 0.0),
        "streaming.stale_polls": counters.get("stream.stale_polls", 0.0) * scale,
        "streaming.degraded_updates": counters.get("stream.degraded_updates", 0.0) * scale,
        "planning.sweep_serial_s": serial,
        "planning.records": extras.get("planning.records", 0.0),
        "planning.infeasible_cases": extras.get("planning.infeasible_cases", 0.0),
        "parallel.speedup": serial / wall_s if serial and wall_s else 0.0,
        "parallel.queue_wait_s": sum(histograms.get("pool.queue_wait_seconds", ())) * scale,
        "parallel.execute_s": sum(histograms.get("pool.execute_seconds", ())) * scale,
        "resilience.fallbacks": counters.get("supervisor.fallbacks", 0.0) * scale,
        "telemetry.overhead_ratio": overhead_ratio,
    }
    expected = {metric.name for metric in PER_LAYER}
    if set(values) != expected:
        raise ValueError(f"per-layer metrics out of step: {sorted(set(values) ^ expected)}")
    return values
