"""Tracing an estimation run with repro.telemetry.

This example turns telemetry on, runs a method comparison over a mid-size
synthetic backbone (fanning the methods over two pool workers when more
than one CPU is available), and then shows the three ways out of the
collected trace:

1. the per-stage summary rollup (``format_summary``) — count, total,
   mean, max and *self* time per stage, straight to the terminal;
2. a Chrome trace-event file (``trace_estimation.json``) — open it at
   ``chrome://tracing`` or https://ui.perfetto.dev to see the parent
   process and every pool worker on one wall-clock timeline, with the
   worker spans re-parented under the submitting ``pool.run`` span;
3. a JSONL span dump (``trace_estimation_spans.jsonl``) — one JSON
   object per span, for ad-hoc analysis.

It also prints the metrics registry: solver iterations (counted at the
``budget_tick`` call sites inside the Newton/FISTA/IPF loops), IPF
sweeps, workspace cache hits and the pool queue-wait/execute histograms.

Run with::

    python examples/trace_estimation.py
"""

from __future__ import annotations

from repro import telemetry
from repro.datasets import large_scenario
from repro.evaluation.experiments import MethodSpec, method_comparison


def main() -> None:
    print("Building a 60-PoP synthetic backbone (3540 demands)...")
    scenario = large_scenario(num_nodes=60, seed=1, busy_length=8, num_samples=16)
    specs = [
        MethodSpec(label="Gravity", estimator="gravity"),
        MethodSpec(label="Kruithof", estimator="kruithof"),
        MethodSpec(label="Tomogravity", estimator="tomogravity"),
        MethodSpec(label="Bayesian", estimator="bayesian"),
    ]

    print("Tracing a method comparison on two workers...")
    telemetry.enable()
    records = method_comparison(scenario, specs=specs, n_jobs=2)
    telemetry.disable()

    for record in records:
        print(f"  {record.method:<12} MRE {record.mre:.3f}")

    print("\nWhere did the seconds go?\n")
    print(telemetry.format_summary())

    snapshot = telemetry.metrics_snapshot()
    print("\nCounters:")
    for name, value in sorted(snapshot["counters"].items()):
        print(f"  {name:<28} {value:>10.0f}")
    if snapshot["histograms"]:
        print("Histograms (mean / p95 / max):")
        for name, stats in sorted(snapshot["histograms"].items()):
            print(
                f"  {name:<28} {stats['mean']:.4f} / {stats['p95']:.4f} / "
                f"{stats['max']:.4f}  (n={stats['count']:.0f})"
            )

    spans = telemetry.export_chrome_trace("trace_estimation.json")
    telemetry.export_spans_jsonl("trace_estimation_spans.jsonl")
    print(
        f"\nWrote {spans} spans to trace_estimation.json "
        "(open in chrome://tracing or https://ui.perfetto.dev) "
        "and trace_estimation_spans.jsonl"
    )


if __name__ == "__main__":
    main()
