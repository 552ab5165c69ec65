"""One failure convention across the evaluation engine.

Every runner built on :func:`~repro.evaluation.experiments.estimate_method_specs`
reports a method that cannot run the same way: its rows are ``skipped``
exactly when they carry a structured ``failure``, the failure names the
pipeline stage, and the scores are ``NaN`` instead of numbers; the rows of
a method that ran carry neither.
"""

from __future__ import annotations

import math

import pytest

from repro.datasets import small_scenario
from repro.evaluation.experiments import (
    MethodSpec,
    method_sweep,
    robustness_sweep,
    run_method_specs,
)
from repro.planning.sweep import failure_sweep

#: Constructor parameters the gravity estimator does not take.
BAD_PARAMS = {"no_such_parameter": 1.0}
SPECS = (
    MethodSpec(label="gravity", estimator="gravity", params=BAD_PARAMS),
    MethodSpec(label="kruithof", estimator="kruithof"),
)
METHODS = (("gravity", BAD_PARAMS), "kruithof")

RUNNERS = {
    "run_method_specs": lambda scenario: run_method_specs(
        scenario, SPECS, skip_errors=True
    ),
    "method_sweep": lambda scenario: method_sweep(
        scenario, methods=METHODS, window_length=4
    ),
    "robustness_sweep": lambda scenario: robustness_sweep(
        scenario,
        jitter_values=(0.0,),
        loss_values=(0.0,),
        methods=METHODS,
        window_length=4,
    ),
    "failure_sweep": lambda scenario: failure_sweep(scenario, specs=SPECS),
}


@pytest.fixture(scope="module")
def scenario():
    return small_scenario(seed=11, num_nodes=5, busy_length=6, num_samples=24)


def scores(row) -> list[float]:
    """The numbers a row reports: its MRE, or its planning errors."""
    if hasattr(row, "mre"):
        return [row.mre]
    return [
        row.predicted_max_utilisation,
        row.max_utilisation_error,
        row.mean_utilisation_error,
    ]


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_a_construct_failure_reads_the_same_everywhere(scenario, runner):
    rows = RUNNERS[runner](scenario)
    bad = [row for row in rows if row.method == "gravity"]
    good = [row for row in rows if row.method == "kruithof"]
    assert bad and good and len(bad) + len(good) == len(rows)
    for row in bad:
        assert row.skipped
        assert row.failure.stage == "construct"
        assert row.failure.exception == "TypeError"
        assert row.failure.spec == "gravity"
        assert all(math.isnan(value) for value in scores(row))
    for row in good:
        assert not row.skipped and row.failure is None
        assert all(math.isfinite(value) for value in scores(row))
