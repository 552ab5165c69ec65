"""Acceptance benchmark: the robustness-grid experiment engine.

A robustness grid evaluates every registered estimation method on measured
(noisy) data for each ``(jitter, loss)`` combination.  Before this engine,
each grid cell re-ran the entropy and tomogravity methods through the
generic per-snapshot loop with a cold L-BFGS-B solve over the demands — the
dominant cost of a cell — and the grid itself ran strictly serially.

The engine (``robustness_sweep(n_jobs=...)``) shares each cell's scenario
problems, solves entropy and tomogravity by Newton's method on their
link-space duals, and fans independent grid cells out over a process pool.
This benchmark times the legacy engine (re-implemented below: same cells,
same scoring, entropy/tomogravity through a benchmark-local cold L-BFGS-B
solve exactly as the pre-engine estimator ran them) against the new one,
verifies that serial and parallel runs of the new engine return identical
records, and appends the measurement to ``BENCH_PR3.json``.

Run directly (CI uses a relaxed threshold for slower shared runners)::

    PYTHONPATH=src python benchmarks/bench_experiment_engine.py
    PYTHONPATH=src BENCH_PR3_MIN_GRID_SPEEDUP=2.0 python benchmarks/bench_experiment_engine.py
"""

from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from benchrecord import REPO_ROOT, merge_record

RECORD_PATH = REPO_ROOT / "BENCH_PR3.json"

JITTER_VALUES = (0.0, 2.0, 10.0)
LOSS_VALUES = (0.0, 0.02)
METHODS = (
    "gravity",
    "kruithof",
    "bayesian",
    "entropy",
    "tomogravity",
    "vardi",
    "fanout",
    "cao",
    "worst-case-bounds",
)
SEED = 0

#: Methods the pre-engine grid solved by cold L-BFGS-B per snapshot; with
#: their default parameters both minimise the same entropy objective.
LEGACY_GENERIC = {"entropy", "tomogravity"}

#: The pre-engine entropy solver: regularisation and gravity prior of the
#: default estimator, L-BFGS-B with a tiny positive lower bound.
LEGACY_REGULARIZATION = 1000.0
LEGACY_FLOOR = 1e-9


def legacy_entropy_estimate(problem):
    """Cold L-BFGS-B minimisation of the entropy objective over the demands."""
    import scipy.optimize

    from repro.estimation.priors import make_prior

    prior = make_prior(problem, "gravity")
    free = prior > 0
    routing = problem.routing.select_pairs(np.flatnonzero(free))
    support = prior[free]
    snapshot = problem.snapshot
    weight = float(prior.sum()) / LEGACY_REGULARIZATION

    def objective_and_gradient(x):
        residual = routing.matvec(x) - snapshot
        ratio = np.maximum(x, LEGACY_FLOOR) / support
        value = residual @ residual + weight * np.sum(x * np.log(ratio) - x + support)
        return float(value), 2.0 * routing.rmatvec(residual) + weight * np.log(ratio)

    outcome = scipy.optimize.minimize(
        objective_and_gradient,
        x0=support.copy(),
        jac=True,
        method="L-BFGS-B",
        bounds=[(LEGACY_FLOOR, None)] * support.size,
        options={"maxiter": 2000, "ftol": 1e-12, "gtol": 1e-10},
    )
    values = np.zeros(problem.num_pairs)
    values[free] = outcome.x
    return values


def legacy_generic_series(problem):
    """The pre-engine series path: independent cold-start snapshot solves."""
    series = problem.series
    estimates = np.empty((series.shape[0], problem.num_pairs))
    for index in range(series.shape[0]):
        estimates[index] = legacy_entropy_estimate(problem.at_snapshot(index))
    return estimates


def legacy_robustness_grid(scenario):
    """The pre-engine serial grid: same cells, same scoring, no batching."""
    from repro.errors import EstimationError, SolverError
    from repro.estimation.registry import get_estimator
    from repro.evaluation.metrics import mean_relative_error
    from repro.traffic.matrix import TrafficMatrix

    records = []
    for jitter in JITTER_VALUES:
        for loss in LOSS_VALUES:
            measured = scenario.measured(
                jitter_std_seconds=float(jitter),
                loss_probability=float(loss),
                seed=SEED,
            )
            problem = measured.series_problem()
            truth_series = measured.busy_series()
            truth_mean = truth_series.mean_matrix()
            for name in METHODS:
                try:
                    if name in LEGACY_GENERIC:
                        estimates = legacy_generic_series(problem)
                    else:
                        estimates = get_estimator(name).estimate_series(problem).estimates
                    mean_estimate = TrafficMatrix(
                        problem.pairs, np.maximum(estimates.mean(axis=0), 0.0)
                    )
                    mre = mean_relative_error(mean_estimate, truth_mean)
                    records.append((scenario.name, name, jitter, loss, mre, ""))
                except (EstimationError, SolverError) as exc:
                    records.append(
                        (scenario.name, name, jitter, loss, float("nan"), str(exc))
                    )
    return records


def records_agree(legacy, new_records, tolerance=1e-3):
    """Legacy and new grids must report the same skips and close MREs."""
    assert len(legacy) == len(new_records)
    worst = 0.0
    for old, new in zip(legacy, new_records):
        assert old[0] == new.scenario and old[1] == new.method
        assert old[2] == new.parameters["jitter_std_seconds"]
        assert old[3] == new.parameters["loss_probability"]
        assert bool(old[5]) == new.skipped, (old, new)
        if not old[5]:
            if math.isnan(old[4]):
                assert math.isnan(new.mre)
            else:
                worst = max(worst, abs(old[4] - new.mre) / max(abs(old[4]), 1e-9))
    assert worst < tolerance, f"legacy/new MRE drift {worst:.2e} above {tolerance:.0e}"
    return worst


def main() -> dict:
    from repro.datasets import europe_scenario
    from repro.evaluation.experiments import robustness_sweep

    minimum_speedup = float(os.environ.get("BENCH_PR3_MIN_GRID_SPEEDUP", "3.0"))
    num_cells = len(JITTER_VALUES) * len(LOSS_VALUES)

    print("[experiment engine] building the Europe scenario ...")
    scenario = europe_scenario()
    kwargs = dict(
        jitter_values=JITTER_VALUES,
        loss_values=LOSS_VALUES,
        methods=METHODS,
        seed=SEED,
    )

    print(f"[experiment engine] new engine, serial ({num_cells} cells) ...")
    start = time.perf_counter()
    serial_records = robustness_sweep(scenario, n_jobs=1, **kwargs)
    serial_seconds = time.perf_counter() - start

    print("[experiment engine] new engine, n_jobs=2 ...")
    start = time.perf_counter()
    parallel_records = robustness_sweep(scenario, n_jobs=2, **kwargs)
    parallel_seconds = time.perf_counter() - start

    # Acceptance: parallel records identical to the serial run.
    assert len(parallel_records) == len(serial_records)
    for a, b in zip(serial_records, parallel_records):
        assert a.scenario == b.scenario and a.method == b.method
        assert a.parameters == b.parameters
        assert a.failure == b.failure
        assert (math.isnan(a.mre) and math.isnan(b.mre)) or a.mre == b.mre

    print("[experiment engine] legacy serial grid (cold L-BFGS-B loops) ...")
    start = time.perf_counter()
    legacy = legacy_robustness_grid(scenario)
    legacy_seconds = time.perf_counter() - start
    mre_drift = records_agree(legacy, serial_records)

    best_seconds = min(serial_seconds, parallel_seconds)
    speedup = legacy_seconds / best_seconds
    payload = {
        "scenario": "europe",
        "grid_cells": num_cells,
        "methods": list(METHODS),
        "legacy_seconds": legacy_seconds,
        "engine_serial_seconds": serial_seconds,
        "engine_parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "minimum_speedup": minimum_speedup,
        "parallel_identical_to_serial": True,
        "max_relative_mre_drift_vs_legacy": mre_drift,
        "cpu_count": os.cpu_count(),
    }
    merge_record(RECORD_PATH, "experiment_engine", payload)

    print(
        f"[experiment engine] legacy {legacy_seconds:6.2f}s  "
        f"engine serial {serial_seconds:6.2f}s  n_jobs=2 {parallel_seconds:6.2f}s  "
        f"speedup {speedup:5.2f}x  (MRE drift {mre_drift:.2e})"
    )

    assert speedup >= minimum_speedup, (
        f"experiment engine speedup {speedup:.2f}x below the "
        f"required {minimum_speedup:.1f}x"
    )
    print(f"[experiment engine] OK (>= {minimum_speedup:.1f}x), recorded in {RECORD_PATH.name}")
    return payload


if __name__ == "__main__":
    main()
