"""Tests for the measurement-noise robustness sweep runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.experiments import (
    ExperimentRecord,
    method_comparison,
    method_sweep,
    robustness_sweep,
    robustness_table,
)

METHODS = ("gravity", "kruithof")
JITTER = (0.0, 5.0)
LOSS = (0.0, 0.05)


def noise(record):
    """The ``(jitter, loss)`` cell a robustness record belongs to."""
    return (
        record.parameters["jitter_std_seconds"],
        record.parameters["loss_probability"],
    )


@pytest.fixture(scope="module")
def records(small_scenario_session):
    return robustness_sweep(
        small_scenario_session,
        jitter_values=JITTER,
        loss_values=LOSS,
        methods=METHODS,
        window_length=10,
        seed=4,
    )


class TestRobustnessSweep:
    def test_full_grid_is_covered(self, records):
        assert len(records) == len(JITTER) * len(LOSS) * len(METHODS)
        cells = {(r.method, noise(r)) for r in records}
        assert len(cells) == len(records)
        assert all(isinstance(record, ExperimentRecord) for record in records)
        assert all(not record.skipped for record in records)

    def test_zero_noise_cell_matches_consistent_sweep(
        self, small_scenario_session, records
    ):
        consistent = {
            record.method: record.mre
            for record in method_sweep(
                small_scenario_session, methods=METHODS, window_length=10
            )
        }
        for record in records:
            if noise(record) == (0.0, 0.0):
                assert record.mre == pytest.approx(
                    consistent[record.method], rel=1e-4, abs=1e-6
                )

    def test_noise_changes_the_scores(self, records):
        by_cell = {(r.method, *noise(r)): r.mre for r in records}
        changed = [
            method
            for method in METHODS
            if not np.isclose(
                by_cell[(method, 0.0, 0.0)],
                by_cell[(method, JITTER[-1], LOSS[-1])],
                rtol=1e-9,
            )
        ]
        assert changed, "noisiest cell scored identically to the noise-free cell"

    def test_table_layout(self, records, small_scenario_session):
        table = robustness_table(records)
        assert set(table) == {small_scenario_session.name}
        methods = table[small_scenario_session.name]
        assert set(methods) == set(METHODS)
        for cells in methods.values():
            assert set(cells) == {(j, l) for j in JITTER for l in LOSS}

    def test_accepts_a_sequence_of_scenarios(self, small_scenario_session):
        records = robustness_sweep(
            [small_scenario_session],
            jitter_values=(0.0,),
            loss_values=(0.0,),
            methods=("gravity",),
            window_length=5,
        )
        assert len(records) == 1
        assert records[0].scenario == small_scenario_session.name


class TestMethodComparisonOnMeasuredData:
    def test_runner_consumes_measured_problems(self, small_scenario_session):
        measured = small_scenario_session.measured(
            jitter_std_seconds=0.0, loss_probability=0.0, seed=1
        )
        consistent_records = method_comparison(
            small_scenario_session, include_vardi=False, fanout_window=5
        )
        measured_records = method_comparison(
            measured, include_vardi=False, fanout_window=5
        )
        consistent = {record.method: record.mre for record in consistent_records}
        for record in measured_records:
            assert record.mre == pytest.approx(
                consistent[record.method], rel=1e-4, abs=1e-6
            ), record.method
