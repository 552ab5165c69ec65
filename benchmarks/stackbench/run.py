"""Layered benchmark of the estimator stack: one command, four workloads.

Run from the repository root::

    python3 benchmarks/stackbench/run.py --workload table2 --seed 2004 --seconds 15 --trace 0
    python3 benchmarks/stackbench/run.py --workload stream-n200 --trace 1
    python3 benchmarks/stackbench/run.py            # every workload, one process

A run sets the workload up three to ten times (the median is
``setup_s``), then repeats the workload's timed pass for
``--seconds`` seconds and at least three passes (the median is
``cpu_s``), then checks the outputs.  Both times are CPU seconds, the
process's own plus those of the pool workers it waited for, scaled to
the reference host's speed by a calibration kernel timed before every
set-up and pass (``stackbench.HostSpeed``).  On a shared host, wall time
also counts the time the process waited for a processor, and the host's
speed drifts, each by more than any regression bound from run to run.
The report also prints the unscaled CPU and wall medians and the scale,
and the record keeps every pass in both clocks.  With ``--trace 0`` it
prints the
end-to-end metrics with tracing off.  With ``--trace 1`` it alternates
untraced and traced passes for twice as long, prints the per-layer
metrics of the traced ones, and writes a Chrome trace of the set-ups and
traced passes.  Records and traces land in ``.stackbench/`` at the root.

The last line of standard output is the JSON result::

    {"correct": true, "attempted": 56, "failed": 0, "metrics": {"cpu_s": {...}, ...}}

``attempted`` counts operations (one estimator result in ``table2`` and
``snapshot-n100``, one poll in ``stream-n200``, one (case, method)
record in ``sweep-america``); ``failed`` counts those that raised, were
skipped or returned invalid output.  ``ok_ratio`` also holds unconverged
solves and stale or degraded polls against the operation.

``--record-reference`` stores the MREs that ``table2`` and
``snapshot-n100`` check against in ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from typing import Any, Optional, Sequence

# One BLAS thread per process: the sweep's two workers then keep the load
# at two busy threads on a two-CPU machine, and a solve does not stall on
# a second thread that a neighbouring process holds up.  Set before numpy
# is first imported, which is when OpenBLAS reads it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import stack_layers  # after the BLAS setting; neither module imports numpy
from stackbench import (
    REPO_ROOT,
    HostSpeed,
    Metric,
    Stopwatch,
    Tally,
    catalogue,
    environment,
    median,
    output_dir,
    peak_rss_mb,
    result_line,
    tail_percentile,
    write_json,
)

#: Set-ups per run: at least ``SETUP_MIN``, and more (up to ``SETUP_MAX``)
#: while they have taken under ``SETUP_BUDGET_S`` CPU seconds, so cheap
#: set-ups get a steadier median.  ``setup_s`` is their median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 10, 3.0
#: Timed passes a run makes at least, whatever ``--seconds`` says.
MIN_PASSES = 3


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    return parser.parse_args(argv)


def timed_phase(workload, seconds: float, trace: bool, min_passes: int, speed: HostSpeed):
    """Repeat the workload's pass, sampling ``speed`` before each; with
    ``trace`` every other pass is traced."""
    from repro import telemetry

    untraced: list = []
    traced: list = []
    spans: list = []
    counters: Counter = Counter()
    histograms: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds * (2 if trace else 1)
    index = 0
    while True:
        tracing = trace and index % 2 == 1
        speed.sample()
        if tracing:
            telemetry.enable()
        try:
            # A traced pass repeats the input of the untraced pass before it,
            # so telemetry.overhead_ratio compares like with like.
            result = workload.run_pass(index // 2 if trace else index)
        finally:
            if tracing:
                telemetry.disable()
        if tracing:
            spans += telemetry.drain_spans()
            raw = telemetry.drain_metrics()
            counters.update(raw["counters"])
            for name, values in raw["histograms"].items():
                histograms.setdefault(name, []).extend(values)
            traced.append(result)
        else:
            untraced.append(result)
        index += 1
        enough = len(untraced) >= min_passes and (not trace or len(traced) >= min_passes)
        if enough and time.perf_counter() >= deadline:
            return untraced, traced, spans, counters, histograms


def prepare(cls, seed: int, trace: bool, speed: HostSpeed):
    """Set the workload up repeatedly, sampling ``speed`` before each;
    returns the last one, the set-up clocks and, when tracing, each
    set-up's spans."""
    from repro import telemetry

    setups: list[Stopwatch] = []
    setup_spans: list[list] = []
    workload = None
    while len(setups) < SETUP_MIN or (
        len(setups) < SETUP_MAX and sum(clock.cpu for clock in setups) < SETUP_BUDGET_S
    ):
        workload = None  # release the previous inputs before building new ones
        workload = cls(seed)
        speed.sample()
        if trace:
            telemetry.enable()
        clock = Stopwatch()
        setups.append(clock)
        try:
            with clock.timing():
                workload.setup()
        finally:
            if trace:
                telemetry.disable()
                setup_spans.append(telemetry.drain_spans())
                telemetry.reset_metrics()
    return workload, setups, setup_spans


def run_workload(cls, seed: int, seconds: float, trace: bool):
    """One workload run; returns ``(correct, tally, values, report)``."""
    speed = HostSpeed()
    workload, setups, setup_spans = prepare(cls, seed, trace, speed)
    untraced, traced, spans, counters, histograms = timed_phase(
        workload, seconds, trace, MIN_PASSES, speed
    )
    passes = untraced + traced
    problems = workload.verify(passes)
    tally = Tally()
    for result in passes:
        tally.merge(result.tally)
    mres = [value for result in passes for value in result.mres]
    cpu_s = median([result.clock.cpu for result in untraced])
    wall_s = median([result.clock.wall for result in untraced])
    scale = speed.scale()
    values: dict[str, float] = {
        "setup_s": median([clock.cpu for clock in setups]) * scale,
        "cpu_s": cpu_s * scale,
        "peak_rss_mb": peak_rss_mb(),
        "mre_mean": sum(mres) / len(mres) if mres else float("nan"),
        "ok_ratio": tally.ok_ratio,
    }
    report: dict[str, Any] = {
        "workload": cls.name,
        "seed": seed,
        "why": cls.why,
        "setup_cpu_seconds": [clock.cpu for clock in setups],
        "setup_wall_seconds": [clock.wall for clock in setups],
        "pass_cpu_seconds": [result.clock.cpu for result in untraced],
        "pass_wall_seconds": [result.clock.wall for result in untraced],
        "calibration_cpu_seconds": speed.samples,
        "host_speed_scale": scale,
        "operations": tally.describe(),
        "problems": problems,
    }
    if trace:
        samples: dict[str, list[float]] = {}
        for result in untraced:
            for key, series in result.samples.items():
                samples.setdefault(key, []).extend(series)
        values.update(
            stack_layers.layer_metrics(
                setups=setup_spans,
                spans=spans,
                counters=counters,
                histograms=histograms,
                passes=len(traced),
                samples=samples,
                extras=workload.extras,
                wall_s=wall_s,
                overhead_ratio=median([r.clock.cpu for r in traced]) / cpu_s - 1.0,
            )
        )
        report["traced_pass_cpu_seconds"] = [result.clock.cpu for result in traced]
        report["samples"] = {key: len(series) for key, series in samples.items()}
        report["workspace_lookups"] = {
            "hits": counters.get("workspace.cache_hits", 0.0),
            "misses": counters.get("workspace.cache_misses", 0.0),
        }
        report["all_spans"] = [record for batch in setup_spans for record in batch] + spans
    correct = not problems and tally.failed == 0
    return correct, tally, values, report


def print_report(report: dict, values: dict, trace: bool) -> None:
    name = report["workload"]
    print(f"== {name} (seed {report['seed']}): {report['why']}")
    print(
        f"   set-ups {len(report['setup_cpu_seconds'])}, untraced passes "
        f"{len(report['pass_cpu_seconds'])}"
        + (f", traced passes {len(report['traced_pass_cpu_seconds'])}" if trace else "")
    )
    for clock in ("cpu", "wall"):
        print(
            f"   unscaled {clock} time: set-up median "
            f"{median(report[f'setup_{clock}_seconds']):.4f} s, "
            f"pass median {median(report[f'pass_{clock}_seconds']):.4f} s"
        )
    print(
        f"   host speed scale {report['host_speed_scale']:.4f} "
        f"({len(report['calibration_cpu_seconds'])} calibration samples)"
    )
    fail_ratio = 1.0 - values["ok_ratio"]
    print(f"   operations: {report['operations']}; fail_ratio {fail_ratio:.4f}")
    for metric in catalogue(trace):
        line = f"   {metric.name:40s} {values[metric.name]:14.6g} {metric.unit:6s} {metric.better}"
        print(f"{line:74s}  moves {metric.moves}" if metric.moves else line)
    polls = report.get("samples", {}).get("poll_ms", 0)
    tail = tail_percentile(range(polls))
    if trace and tail is not None:
        print(f"   streaming.poll_ms_tail is p{tail[0]:.1f} of {polls} untraced polls")
    lookups = report.get("workspace_lookups")
    if lookups and lookups["hits"] + lookups["misses"]:
        print(
            f"   estimation.workspace_hit_ratio base: {lookups['hits']:.0f} hits, "
            f"{lookups['misses']:.0f} misses over "
            f"{len(report['traced_pass_cpu_seconds'])} traced passes"
        )
    if trace and values["parallel.speedup"]:
        print(
            f"   parallel.speedup bases: serial {values['planning.sweep_serial_s']:.4f} s, "
            f"{median(report['pass_wall_seconds']):.4f} s on the workers (wall time)"
        )
    for problem in report["problems"]:
        print(f"   CHECK FAILED: {problem}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    source = str(REPO_ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    from repro import telemetry
    from repro.datasets import DEFAULT_SEED

    import stack_workloads

    workloads = stack_workloads.WORKLOADS
    names = list(workloads) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads]
    if unknown:
        raise SystemExit(f"unknown workload {unknown[0]!r}; known: {sorted(workloads)}")

    if args.record_reference:
        path = stack_workloads.REFERENCE_PATH
        reference = stack_workloads.load_reference() if path.exists() else {}
        for name in names:
            cls = workloads[name]
            speed = HostSpeed()
            workload, _, _ = prepare(cls, DEFAULT_SEED, False, speed)
            passes = timed_phase(workload, 0.0, False, cls.reference_passes, speed)[0]
            recorded = workload.record_reference(passes)
            if recorded:
                reference[name] = recorded
            print(f"recorded {len(recorded)} reference MREs for {name}")
        write_json(path, reference)
        return 0

    seed = DEFAULT_SEED if args.seed is None else args.seed
    trace = bool(args.trace)
    meta = environment()
    print("meta " + json.dumps(meta, sort_keys=True))
    outputs = output_dir()
    all_correct = True
    total = Tally()
    combined: dict[str, float] = {}
    combined_metrics: list[Metric] = []
    for name in names:
        correct, tally, values, report = run_workload(workloads[name], seed, args.seconds, trace)
        print_report(report, values, trace)
        metrics = catalogue(trace)
        line = result_line(correct, tally, values, metrics)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        if trace:
            trace_path = outputs / f"{stem}.chrome.json"
            outputs.mkdir(parents=True, exist_ok=True)
            count = telemetry.export_chrome_trace(str(trace_path), report.pop("all_spans"))
            print(f"   trace: {count} spans in {trace_path.relative_to(REPO_ROOT)}")
        write_json(
            outputs / f"{stem}.record.json",
            {
                "meta": meta,
                "report": report,
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in metrics},
            },
        )
        all_correct = all_correct and correct
        total.merge(tally)
        for metric in metrics:
            combined[f"{name}.{metric.name}"] = values[metric.name]
            combined_metrics.append(Metric(f"{name}.{metric.name}", metric.unit, metric.better))
    if len(names) > 1:
        line = result_line(all_correct, total, combined, combined_metrics)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
