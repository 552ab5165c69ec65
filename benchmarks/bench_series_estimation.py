"""Batched series estimation versus the per-snapshot loop.

Acceptance benchmark for the ``estimate_series`` path: on the 50-sample
busy period of the Europe scenario, the batched Kruithof estimator (every
snapshot iterated as one IPF stack) must beat estimating the snapshots one
at a time, while producing the same estimates.  The vectorised gravity
batch and the Bayesian per-snapshot Newton solves (which have no batch
form) are timed alongside for the record.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import run_once, save_result

from repro.estimation import get_estimator

WINDOW = 50
METHODS = (
    ("bayesian", {"regularization": 1000.0, "prior": "gravity"}),
    ("gravity", {}),
    ("kruithof", {}),
)


def _time_once(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def test_series_estimation_beats_per_snapshot_loop(benchmark, europe):
    window = min(WINDOW, europe.busy_length)
    problem = europe.series_problem(window_length=window)

    def run():
        report = {}
        for name, params in METHODS:
            estimator = get_estimator(name, **params)
            batched, batched_seconds = _time_once(lambda: estimator.estimate_series(problem))
            loop, loop_seconds = _time_once(
                lambda: np.stack(
                    [
                        estimator.estimate(problem.at_snapshot(k)).vector
                        for k in range(window)
                    ]
                )
            )
            scale = max(float(loop.max()), 1.0)
            max_difference = float(np.abs(batched.estimates - loop).max())
            report[name] = {
                "batched_seconds": batched_seconds,
                "loop_seconds": loop_seconds,
                "speedup": loop_seconds / batched_seconds,
                "max_difference": max_difference,
                "relative_difference": max_difference / scale,
                "window": window,
            }
        return report

    report = run_once(benchmark, run)
    save_result("series_estimation", report)
    print(f"\n[Series estimation] batched vs per-snapshot loop (K={window}):")
    for name, row in report.items():
        print(
            f"  {name:10s} batched {row['batched_seconds']*1e3:7.1f} ms   "
            f"loop {row['loop_seconds']*1e3:7.1f} ms   "
            f"speedup {row['speedup']:5.1f}x   "
            f"max diff {row['max_difference']:.2e}"
        )

    # The headline acceptance: the stacked Kruithof batch beats the loop
    # while agreeing with it numerically.
    kruithof = report["kruithof"]
    assert kruithof["speedup"] > 1.0
    # Every batch must agree with its per-snapshot loop.
    for name in ("bayesian", "gravity", "kruithof"):
        assert report[name]["relative_difference"] < 1e-6
