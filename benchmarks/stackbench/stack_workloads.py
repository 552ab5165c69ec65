"""The four workloads of the estimator-stack benchmark.

Each workload drives the stack only through public calls, each wrapped
in a ``bench.<call>`` span (a no-op while telemetry is off).  One timed
pass is:

* ``table2`` — ``method_comparison`` on the Europe- and America-like
  scenarios: the paper's headline on small problems;
* ``snapshot-n100`` — gravity, Kruithof, tomogravity and Bayesian
  ``estimate`` calls on one busy-window snapshot of
  ``large_scenario(100)``: solver-dominated;
* ``stream-n200`` — a fresh Kruithof ``StreamingEstimator`` replaying the
  48 poll intervals of ``large_scenario(200)`` back to back, with a
  checkpoint/restore round trip every 12 polls and one link failure
  halfway: streaming machinery, little solver work.  The pass times sum
  the ``process_round``, round-trip and ``apply_reroute`` calls; the
  check that each restored daemon repeats the next record is untimed;
* ``sweep-america`` — ``failure_sweep`` over every single-link and
  single-node failure of the America scenario, at growth 1.0 and 1.5,
  on two workers: planning and the process pool, no solver work.

A workload builds its inputs in :meth:`Workload.setup`, times one unit
of work per :meth:`Workload.run_pass` on a :class:`Stopwatch`, in wall
and CPU seconds (each workload is a closed loop with one client), and
checks the outputs in :meth:`Workload.verify`, outside the timed passes.

Every workload runs on the repository's reference scenarios, built with
``DEFAULT_SEED``, so that two runs always solve the same problems.  The
run's seed orders the busy snapshots of ``snapshot-n100`` and seeds the
collector of ``stream-n200`` (which has no effect without jitter or
loss); ``table2`` and ``sweep-america`` are fixed computations.
Scenarios built from the run's seed would move the figures by more than
any regression bound: over five seeds the quartile spread was 22 % of
the median for ``table2`` wall time, 17 % for ``snapshot-n100``
wall time and ``ok_ratio`` (Bayesian converges on some topologies) and
14-16 % for ``mre_mean``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.datasets import DEFAULT_SEED, america_scenario, europe_scenario, large_scenario
from repro.errors import ReproError
from repro.estimation import get_estimator
from repro.evaluation.experiments import (
    default_method_specs,
    estimate_method_specs,
    method_comparison,
)
from repro.evaluation.metrics import mean_relative_error
from repro.measurement.collector import DistributedCollector
from repro.planning import enumerate_failures, failure_sweep
from repro.resilience.report import FailureReason
from repro.streaming import PollStream, StreamingEstimator

from stackbench import BENCH_DIR, Stopwatch, Tally, output_dir

REFERENCE_PATH = BENCH_DIR / "reference.json"
#: Absolute MRE tolerance against the recorded reference: loose enough
#: for a solver that reaches the same optimum by another path, far
#: tighter than the gaps between methods that Table 2 compares.
MRE_TOLERANCE = 0.01


@dataclass
class PassResult:
    """One timed unit of work."""

    clock: Stopwatch
    tally: Tally
    mres: list[float]
    outputs: Any = None
    samples: dict[str, list[float]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def estimate_outcome(vector: np.ndarray, converged: Optional[bool]) -> Optional[str]:
    """How one estimate ended: invalid output, unconverged, or clean."""
    if not np.all(np.isfinite(vector)) or np.any(vector < 0):
        return "invalid"
    if converged is False:
        return "unconverged"
    return None


def lsps_per_link(routing) -> np.ndarray:
    """Demands routed over each link: the nonzeros of each routing-matrix row."""
    native = routing.native
    if hasattr(native, "getnnz"):
        return native.getnnz(axis=1)
    return np.count_nonzero(native, axis=1)


def routing_nnz(routing) -> int:
    return int(lsps_per_link(routing).sum())


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def compare_reference(observed: dict[str, float], expected: dict[str, float]) -> list[str]:
    problems = []
    for key, value in observed.items():
        if key not in expected:
            problems.append(f"no reference MRE for {key}")
        elif abs(value - expected[key]) > MRE_TOLERANCE:
            problems.append(f"MRE {key} = {value:.6f}, reference {expected[key]:.6f}")
    return problems


class Workload:
    """Base class: set-up, one timed pass, and the output checks."""

    name = ""
    why = ""
    #: Passes ``--record-reference`` runs so every checked input is covered.
    reference_passes = 1

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.extras: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def verify(self, passes: Sequence[PassResult]) -> list[str]:
        """Untimed checks after the timed phase; returns the problems found."""
        return [problem for result in passes for problem in result.problems]

    def record_reference(self, passes: Sequence[PassResult]) -> dict[str, float]:
        """MREs to store as this workload's reference (none by default)."""
        return {}


# ----------------------------------------------------------------------
# table2
# ----------------------------------------------------------------------


class Table2(Workload):
    name = "table2"
    why = (
        "The paper's Table 2 on Europe and America (14 cells, P = 132 / 600): "
        "worst-case-bound LPs, fanout and the small-P check for any solver change"
    )

    def setup(self) -> None:
        with telemetry.span("bench.europe_scenario"):
            self.europe = europe_scenario(seed=DEFAULT_SEED)
        with telemetry.span("bench.america_scenario"):
            self.america = america_scenario(seed=DEFAULT_SEED)
        self.extras["routing.nnz"] = routing_nnz(self.europe.routing) + routing_nnz(
            self.america.routing
        )

    def _comparison(self) -> dict[str, float]:
        mres: dict[str, float] = {}
        for scenario in (self.europe, self.america):
            with telemetry.span("bench.method_comparison", scenario=scenario.name):
                records = method_comparison(scenario, n_jobs=1)
            for record in records:
                mres[f"{record.scenario}/{record.method}"] = (
                    float("nan") if record.skipped else record.mre
                )
        return mres

    def run_pass(self, index: int) -> PassResult:
        tally = Tally()
        clock = Stopwatch()
        try:
            with clock.timing():
                mres = self._comparison()
        except ReproError as exc:
            reason = FailureReason.from_exception(exc, spec="method_comparison")
            for _ in range(2 * len(default_method_specs())):
                tally.add("raised")
            return PassResult(clock, tally, [], problems=[reason.describe()])
        for value in mres.values():
            tally.add(None if math.isfinite(value) else "skipped")
        return PassResult(clock, tally, [v for v in mres.values() if math.isfinite(v)], mres)

    def _traced_comparison(self) -> tuple[dict[str, float], set[str]]:
        """One more Table 2, with the cells whose estimator reports
        ``converged=False``.

        ``method_comparison`` records carry no solver health, so this
        untimed pass runs with telemetry collecting the ``estimate`` spans
        and their ``experiment.spec`` parents.
        """
        was_enabled = telemetry.is_enabled()
        telemetry.enable()
        try:
            with telemetry.capture() as spans:
                mres = self._comparison()
        finally:
            if not was_enabled:
                telemetry.disable()
            telemetry.reset_metrics()
        by_id = {record.span_id: record for record in spans}
        cells = set()
        for record in spans:
            if record.name != "estimate" or record.attributes.get("converged") is not False:
                continue
            spec = by_id.get(record.parent_id)
            specs = by_id.get(spec.parent_id) if spec is not None else None
            if spec is not None and specs is not None:
                cells.add(f"{specs.attributes['scenario']}/{spec.attributes['spec']}")
        return mres, cells

    def verify(self, passes: Sequence[PassResult]) -> list[str]:
        problems = super().verify(passes)
        mres, unconverged = self._traced_comparison()
        for result in passes:
            for cell in unconverged:
                if cell in (result.outputs or {}):
                    result.tally.mark("unconverged")
        if any(r.outputs and r.outputs != mres for r in passes):
            problems.append("Table 2 MREs differ between passes of one input")
        problems += table2_orderings(mres)
        problems += compare_reference(mres, load_reference()[self.name])
        return problems

    def record_reference(self, passes: Sequence[PassResult]) -> dict[str, float]:
        return dict(passes[0].outputs)


def table2_orderings(mres: dict[str, float]) -> list[str]:
    """The qualitative Table 2 orderings of ``bench_table2_summary.py``."""
    problems = []
    for region in ("europe", "america"):
        def mre(label: str) -> float:
            return mres[f"{region}/{label}"]

        gravity = mre("Simple gravity prior")
        checks = {
            "entropy < gravity": mre("Entropy w. gravity prior") < gravity,
            "worst-case bound < gravity": mre("Worst-case bound prior") < gravity,
            "Bayes w. WCB < gravity": mre("Bayes w. WCB prior") < gravity,
            "Vardi > entropy": mre("Vardi") > mre("Entropy w. gravity prior"),
        }
        problems += [f"{region}: ordering {name} fails" for name, ok in checks.items() if not ok]
    return problems


# ----------------------------------------------------------------------
# snapshot-n100
# ----------------------------------------------------------------------

SNAPSHOT_METHODS = (
    ("gravity", {}),
    ("kruithof", {}),
    ("tomogravity", {}),
    ("bayesian", {"prior": "gravity", "regularization": 1000.0}),
)


class SnapshotN100(Workload):
    name = "snapshot-n100"
    why = (
        "Four estimators on busy snapshots of large_scenario(100), 9,900 demands: "
        "solver-dominated; Bayesian stops at its 5,000-iteration cap, lowering ok_ratio"
    )
    #: Snapshots in the reference scenario's busy window.
    reference_passes = 24

    def setup(self) -> None:
        with telemetry.span("bench.large_scenario", num_nodes=100):
            self.scenario = large_scenario(100, seed=DEFAULT_SEED)
        self.extras["routing.nnz"] = routing_nnz(self.scenario.routing)
        self.order = self.rng.permutation(self.scenario.busy_length)

    def run_pass(self, index: int) -> PassResult:
        snapshot = int(self.order[index % len(self.order)])
        tally = Tally()
        outputs: dict[str, float] = {}
        clock = Stopwatch()
        results = []
        problems = []
        with clock.timing():
            truth = self.scenario.busy_snapshot(snapshot)
            problem = self.scenario.snapshot_problem(truth)
            for method, params in SNAPSHOT_METHODS:
                with telemetry.span("bench.estimate", method=method, snapshot=snapshot):
                    try:
                        estimator = get_estimator(method, **params)
                        results.append((method, estimator.estimate(problem)))
                    except ReproError as exc:
                        results.append((method, None))
                        problems.append(FailureReason.from_exception(exc, spec=method).describe())
        mres = []
        for method, result in results:
            if result is None:
                tally.add("raised")
                continue
            tally.add(estimate_outcome(result.vector, result.diagnostics.get("converged")))
            mre = mean_relative_error(result.estimate, truth)
            outputs[f"{snapshot}/{method}"] = mre
            mres.append(mre)
        return PassResult(clock, tally, mres, outputs, problems=problems)

    def verify(self, passes: Sequence[PassResult]) -> list[str]:
        problems = super().verify(passes)
        reference = load_reference()[self.name]
        for result in passes:
            problems += compare_reference(result.outputs, reference)
        return problems

    def record_reference(self, passes: Sequence[PassResult]) -> dict[str, float]:
        merged: dict[str, float] = {}
        for result in passes:
            merged.update(result.outputs)
        return merged


# ----------------------------------------------------------------------
# stream-n200
# ----------------------------------------------------------------------

#: Checkpoint + restore round trip after every this many poll rounds.
CHECKPOINT_EVERY = 12


class StreamN200(Workload):
    name = "stream-n200"
    why = (
        "Kruithof daemon replaying large_scenario(200) polls back to back, with "
        "checkpoint/restore every 12 polls and one link failure halfway: no solver work"
    )

    def setup(self) -> None:
        with telemetry.span("bench.large_scenario", num_nodes=200):
            self.scenario = large_scenario(200, seed=DEFAULT_SEED)
        with telemetry.span("bench.DistributedCollector"):
            self.collector = DistributedCollector(
                self.scenario.routing,
                num_pollers=2,
                jitter_std_seconds=0.0,
                loss_probability=0.0,
                seed=self.seed,
            )
        with telemetry.span("bench.PollStream.from_collector"):
            self.stream = PollStream.from_collector(self.collector, self.scenario.day_series)
        # The link carrying the median number of LSPs fails: the reroute and
        # every later restore replay re-signal the LSPs that crossed it, so
        # a link drawn from the seed would move the pass time by up to 25 %.
        by_load = np.argsort(lsps_per_link(self.scenario.routing), kind="stable")
        self.failed_link = self.scenario.routing.link_names[int(by_load[len(by_load) // 2])]
        self.extras["routing.nnz"] = routing_nnz(self.scenario.routing)

    def run_pass(self, index: int) -> PassResult:
        outputs = output_dir()
        outputs.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="stream-", dir=outputs) as workdir:
            return self._replay(os.path.join(workdir, "daemon.ckpt"))

    def _replay(self, path: str) -> PassResult:
        stream = self.stream
        last = stream.num_rounds - 1
        halfway = stream.num_rounds // 2
        daemon = StreamingEstimator.from_collector(self.collector, method="kruithof")
        tally = Tally()
        poll_ms: list[float] = []
        checkpoint_ms: list[float] = []
        records = []
        problems: list[str] = []
        restored: Optional[StreamingEstimator] = None
        clock = Stopwatch()
        for poll_round in stream.rounds():
            before = clock.wall
            with clock.timing(), telemetry.span("bench.process_round", round=poll_round.index):
                try:
                    record = daemon.process_round(poll_round, stream)
                except ReproError as exc:
                    reason = FailureReason.from_exception(exc, spec=f"round {poll_round.index}")
                    problems.append(reason.describe())
                    tally.add("raised")
                    break
            elapsed = clock.wall - before
            if restored is not None:
                resumed = restored.process_round(poll_round, stream)
                if resumed is None or record is None or (
                    resumed.payload_line() != record.payload_line()
                ):
                    problems.append(f"restored daemon diverges at round {poll_round.index}")
                restored = None
            if record is not None:
                poll_ms.append(elapsed * 1e3)
                records.append(record)
                if record.stale:
                    tally.add("stale")
                elif record.degraded:
                    tally.add("degraded")
                else:
                    tally.add(estimate_outcome(record.estimate, record.converged))
            if poll_round.index == halfway:
                with clock.timing(), telemetry.span("bench.apply_reroute", link=self.failed_link):
                    daemon.apply_reroute(failed_links=[self.failed_link])
            if poll_round.index % CHECKPOINT_EVERY == 0 and 0 < poll_round.index < last:
                before = clock.wall
                with clock.timing():
                    with telemetry.span("bench.checkpoint"):
                        daemon.checkpoint(path)
                    with telemetry.span("bench.restore"):
                        restored = StreamingEstimator.restore(path, self.scenario.routing)
                checkpoint_ms.append((clock.wall - before) * 1e3)
                self.extras["streaming.checkpoint_bytes"] = float(os.path.getsize(path))
        series = self.scenario.day_series
        mres = [mean_relative_error(
            series[record.sequence].with_values(record.estimate), series[record.sequence]
        ) for record in records]
        return PassResult(
            clock,
            tally,
            mres,
            outputs=len(records),
            samples={"poll_ms": poll_ms, "checkpoint_ms": checkpoint_ms},
            problems=problems,
        )

    def verify(self, passes: Sequence[PassResult]) -> list[str]:
        problems = super().verify(passes)
        expected = self.stream.num_rounds - 1
        problems += [
            f"pass emitted {r.outputs} records, expected {expected}"
            for r in passes
            if r.outputs != expected
        ]
        return problems


# ----------------------------------------------------------------------
# sweep-america
# ----------------------------------------------------------------------

SWEEP_GROWTHS = (1.0, 1.5)
#: Worker processes of the sweep: two, never more than the machine has.
SWEEP_JOBS = max(1, min(2, os.cpu_count() or 1))


class SweepAmerica(Workload):
    name = "sweep-america"
    why = (
        "failure_sweep over all single-link and single-node failures of America at "
        "growth 1.0 and 1.5 on two workers: planning and the process pool, no solver work"
    )

    def setup(self) -> None:
        with telemetry.span("bench.america_scenario"):
            self.scenario = america_scenario(seed=DEFAULT_SEED)
        with telemetry.span("bench.estimate_method_specs"):
            self.estimates = estimate_method_specs(
                self.scenario, default_method_specs(include_vardi=False), n_jobs=1
            )
        self.cases = enumerate_failures(
            self.scenario.network, kinds=("link", "node"), include_baseline=True
        )
        self.extras["routing.nnz"] = routing_nnz(self.scenario.routing)

    def _sweeps(self, jobs: int) -> list:
        records = []
        for growth in SWEEP_GROWTHS:
            with telemetry.span("bench.failure_sweep", growth=growth, jobs=jobs):
                records.append(
                    failure_sweep(
                        self.scenario,
                        cases=self.cases,
                        estimates=self.estimates,
                        n_jobs=jobs,
                        growth=growth,
                    )
                )
        return records

    def run_pass(self, index: int) -> PassResult:
        clock = Stopwatch()
        with clock.timing():
            sweeps = self._sweeps(SWEEP_JOBS)
        tally = Tally()
        for records in sweeps:
            for record in records:
                if record.skipped:
                    tally.add("skipped")
                elif not math.isfinite(record.predicted_max_utilisation):
                    tally.add("invalid")
                else:
                    tally.add(None)
        mres = [
            mean_relative_error(result.estimate, result.truth)
            for result in self.estimates
            if not result.skipped
        ]
        return PassResult(clock, tally, mres, outputs=sweeps)

    def verify(self, passes: Sequence[PassResult]) -> list[str]:
        problems = super().verify(passes)
        start = time.perf_counter()
        serial = self._sweeps(1)
        self.extras["planning.sweep_serial_s"] = time.perf_counter() - start
        problems += [
            f"pass {index}: {SWEEP_JOBS}-worker records differ from the serial sweep"
            for index, result in enumerate(passes)
            if result.outputs != serial
        ]
        first = serial[0]
        self.extras["planning.records"] = float(sum(len(records) for records in serial))
        self.extras["planning.infeasible_cases"] = float(
            len({record.case for record in first if not record.feasible})
        )
        return problems


WORKLOADS = {cls.name: cls for cls in (Table2, SnapshotN100, StreamN200, SweepAmerica)}

