"""Parallel experiment runner: ``n_jobs`` must not change any record.

The acceptance requirement of the batched-bounds/parallel-runner work:
``run_method_specs`` and ``robustness_sweep`` with ``n_jobs > 1`` return
records identical — values and order — to the serial run.  The grid cells
and spec evaluations are deterministic (fixed seeds, fresh estimator
instances), so identity here means equality, not approximation.
"""

from __future__ import annotations

import math

import pytest

from repro.datasets import small_scenario
from repro.errors import EstimationError
from repro.evaluation.experiments import (
    MethodSpec,
    default_method_specs,
    method_comparison,
    robustness_sweep,
    run_method_specs,
    vardi_table,
)


@pytest.fixture(scope="module")
def scenario():
    return small_scenario(seed=21, num_nodes=5, busy_length=12, num_samples=40)


def assert_records_equal(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert type(a) is type(b)
        for field in a.__dataclass_fields__:
            left, right = getattr(a, field), getattr(b, field)
            if isinstance(left, float) and math.isnan(left):
                assert math.isnan(right)
            else:
                assert left == right, (field, left, right)


class TestRunMethodSpecsParallel:
    def test_parallel_records_identical_to_serial(self, scenario):
        specs = default_method_specs(include_vardi=True)
        serial = run_method_specs(scenario, specs, n_jobs=1)
        parallel = run_method_specs(scenario, specs, n_jobs=2)
        assert_records_equal(serial, parallel)

    def test_prior_from_waves_resolve_in_parallel(self, scenario):
        specs = [
            MethodSpec(label="WCB", estimator="worst-case-bounds"),
            MethodSpec(
                label="Bayes-on-WCB",
                estimator="bayesian",
                params={"regularization": 100.0},
                prior_from="WCB",
            ),
            MethodSpec(label="Gravity", estimator="gravity"),
        ]
        serial = run_method_specs(scenario, specs, n_jobs=1)
        parallel = run_method_specs(scenario, specs, n_jobs=3)
        assert_records_equal(serial, parallel)
        assert [record.method for record in parallel] == ["WCB", "Bayes-on-WCB", "Gravity"]

    def test_forward_reference_rejected_before_any_work(self, scenario):
        specs = [
            MethodSpec(
                label="Bayes",
                estimator="bayesian",
                params={"regularization": 100.0},
                prior_from="Later",
            ),
            MethodSpec(label="Later", estimator="gravity"),
        ]
        for n_jobs in (1, 2):
            with pytest.raises(EstimationError):
                run_method_specs(scenario, specs, n_jobs=n_jobs)

    def test_invalid_n_jobs_rejected(self, scenario):
        with pytest.raises(EstimationError):
            run_method_specs(scenario, default_method_specs()[:2], n_jobs=0)

    def test_method_comparison_and_vardi_table_forward_n_jobs(self, scenario):
        serial = method_comparison(scenario, include_vardi=False)
        parallel = method_comparison(scenario, include_vardi=False, n_jobs=2)
        assert_records_equal(serial, parallel)
        assert_records_equal(
            vardi_table(scenario, window_length=8),
            vardi_table(scenario, window_length=8, n_jobs=2),
        )


class TestRobustnessSweepParallel:
    def test_parallel_records_identical_to_serial(self, scenario):
        kwargs = dict(
            jitter_values=(0.0, 2.0),
            loss_values=(0.0, 0.05),
            methods=("gravity", "bayesian", "entropy", "worst-case-bounds"),
            seed=3,
        )
        serial = robustness_sweep(scenario, n_jobs=1, **kwargs)
        parallel = robustness_sweep(scenario, n_jobs=2, **kwargs)
        assert_records_equal(serial, parallel)
        # The grid order is preserved: jitter-major, then loss, then method.
        coords = [
            (r.parameters["jitter_std_seconds"], r.parameters["loss_probability"])
            for r in parallel
        ]
        assert coords == sorted(coords, key=lambda c: (c[0], c[1]))

    def test_multiple_scenarios_preserve_order(self, scenario):
        other = small_scenario(seed=22, num_nodes=4, busy_length=8, num_samples=24)
        serial = robustness_sweep(
            [scenario, other],
            jitter_values=(0.0,),
            loss_values=(0.0, 0.1),
            methods=("gravity",),
        )
        parallel = robustness_sweep(
            [scenario, other],
            jitter_values=(0.0,),
            loss_values=(0.0, 0.1),
            methods=("gravity",),
            n_jobs=2,
        )
        assert_records_equal(serial, parallel)
        names = [record.scenario for record in parallel]
        assert names == sorted(names, key=names.index)
