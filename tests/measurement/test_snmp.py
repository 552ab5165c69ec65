"""Tests for the SNMP counter/poller simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.measurement import (
    CounterState,
    PollMatrix,
    PollResult,
    SNMPPoller,
    rates_from_poll_matrix,
)
from repro.measurement.snmp import classify_counter_deltas


def rates_from_rounds(poll_rounds, object_names, counter_bits=64, **kwargs):
    """``(rates, diagnostics)`` of per-round :class:`PollResult` lists."""
    polls = PollMatrix.from_rounds(poll_rounds, object_names, counter_bits=counter_bits)
    return rates_from_poll_matrix(polls, **kwargs)


class TestCounterState:
    def test_advance_accumulates_bytes(self):
        counter = CounterState("link")
        counter.advance(rate_mbps=8.0, duration_seconds=1.0)  # 1 MB
        assert counter.value_bytes == 1_000_000
        counter.advance(rate_mbps=8.0, duration_seconds=1.0)
        assert counter.value_bytes == 2_000_000

    def test_negative_rate_rejected(self):
        with pytest.raises(MeasurementError):
            CounterState("link").advance(-1.0, 1.0)

    def test_counter_wraps_at_64_bits(self):
        counter = CounterState("link", value_bytes=2**64 - 10)
        counter.advance(rate_mbps=8.0, duration_seconds=1.0)
        assert 0 <= counter.value_bytes < 2**64


class TestPoller:
    def test_validation(self):
        with pytest.raises(MeasurementError):
            SNMPPoller([])
        with pytest.raises(MeasurementError):
            SNMPPoller(["a", "a"])
        with pytest.raises(MeasurementError):
            SNMPPoller(["a"], interval_seconds=0)
        with pytest.raises(MeasurementError):
            SNMPPoller(["a"], loss_probability=1.0)
        with pytest.raises(MeasurementError):
            SNMPPoller(["a"], jitter_std_seconds=-1.0)

    def test_poll_returns_one_result_per_object(self):
        poller = SNMPPoller(["a", "b"], seed=1)
        results = poller.poll(0.0)
        assert {r.object_name for r in results} == {"a", "b"}
        assert all(not r.lost for r in results)

    def test_unknown_counter_rejected(self):
        poller = SNMPPoller(["a"], seed=1)
        with pytest.raises(MeasurementError):
            poller.counter("z")

    def test_loss_probability_produces_lost_polls(self):
        poller = SNMPPoller([f"o{i}" for i in range(200)], loss_probability=0.3, seed=2)
        results = poller.poll(0.0)
        lost = sum(r.lost for r in results)
        assert 20 < lost < 120

    def test_run_schedule_produces_rounds(self):
        poller = SNMPPoller(["a"], interval_seconds=300.0, jitter_std_seconds=0.0, seed=3)
        polls = poller.run_schedule_matrix(np.array([[100.0], [200.0]]), start_time=0.0)
        assert polls.num_rounds == 3
        assert len(polls.to_rounds()) == 3


class TestRatesFromPolls:
    def run_pipeline(self, rates, loss=0.0, jitter=0.0, seed=0):
        poller = SNMPPoller(
            ["x"], interval_seconds=300.0, jitter_std_seconds=jitter, loss_probability=loss, seed=seed
        )
        polls = poller.run_schedule_matrix(np.array(rates)[:, None], start_time=0.0)
        return rates_from_poll_matrix(polls)[0]

    def test_exact_recovery_without_jitter(self):
        recovered = self.run_pipeline([100.0, 250.0, 50.0])
        assert recovered.shape == (3, 1)
        assert np.allclose(recovered[:, 0], [100.0, 250.0, 50.0], rtol=1e-6)

    def test_jitter_adjustment_keeps_rates_close(self):
        recovered = self.run_pipeline([100.0] * 10, jitter=3.0, seed=5)
        assert np.allclose(recovered[:, 0], 100.0, rtol=0.05)

    def test_lost_polls_are_interpolated(self):
        recovered = self.run_pipeline([100.0] * 20, loss=0.3, seed=7)
        assert recovered.shape == (20, 1)
        assert np.all(np.isfinite(recovered))
        assert np.allclose(recovered[:, 0], 100.0, rtol=0.2)

    def test_requires_two_rounds(self):
        poller = SNMPPoller(["x"], seed=1)
        with pytest.raises(MeasurementError):
            rates_from_rounds([poller.poll(0.0)], ["x"])

    def test_missing_object_in_round_rejected(self):
        round_a = [PollResult("x", 0.0, 0.0, 0)]
        round_b = [PollResult("y", 300.0, 300.0, 0)]
        with pytest.raises(MeasurementError):
            PollMatrix.from_rounds([round_a, round_b], ["x"])

    def test_all_lost_rejected(self):
        rounds = [
            [PollResult("x", 0.0, 0.0, None)],
            [PollResult("x", 300.0, 300.0, None)],
        ]
        with pytest.raises(MeasurementError):
            rates_from_rounds(rounds, ["x"])


def _reference_rates(poll_rounds, object_names):
    """The pre-vectorization per-sample loop, kept as the agreement oracle."""
    name_index = {name: idx for idx, name in enumerate(object_names)}
    num_intervals = len(poll_rounds) - 1
    rates = np.full((num_intervals, len(object_names)), np.nan)
    by_round = [{r.object_name: r for r in round_results} for round_results in poll_rounds]
    for name, col in name_index.items():
        for k in range(num_intervals):
            first, second = by_round[k][name], by_round[k + 1][name]
            if first.lost or second.lost:
                continue
            elapsed = second.response_time - first.response_time
            if elapsed <= 0:
                continue
            delta = (second.counter_bytes - first.counter_bytes) % 2**64
            rates[k, col] = delta * 8.0 / 1e6 / elapsed
        column = rates[:, col]
        valid = ~np.isnan(column)
        if not valid.all():
            indices = np.arange(num_intervals)
            column[~valid] = np.interp(indices[~valid], indices[valid], column[valid])
    return rates


class TestVectorizedPoller:
    def test_matrix_and_mapping_schedules_share_the_random_stream(self):
        names = ["a", "b", "c"]
        rate_rows = [{"a": 100.0, "b": 50.0}, {"a": 75.0, "c": 25.0}]
        rate_matrix = np.array([[100.0, 50.0, 0.0], [75.0, 0.0, 25.0]])

        by_rounds = SNMPPoller(names, jitter_std_seconds=2.0, loss_probability=0.2, seed=9)
        by_matrix = SNMPPoller(names, jitter_std_seconds=2.0, loss_probability=0.2, seed=9)
        rounds = [by_rounds.poll(600.0)]
        for k, rates in enumerate(rate_rows, start=1):
            by_rounds.advance_counters(rates, by_rounds.interval_seconds)
            rounds.append(by_rounds.poll(600.0 + k * by_rounds.interval_seconds))
        matrix = by_matrix.run_schedule_matrix(rate_matrix, start_time=600.0)

        assert matrix.num_rounds == len(rounds) == 3
        for k, round_results in enumerate(rounds):
            for col, result in enumerate(round_results):
                assert result.response_time == pytest.approx(
                    float(matrix.response_times[k, col])
                )
                assert result.lost == bool(matrix.lost[k, col])
                if not result.lost:
                    assert result.counter_bytes == int(matrix.counters[k, col])

    def test_counter_view_reads_and_advances_the_array(self):
        poller = SNMPPoller(["a", "b"], jitter_std_seconds=0.0, seed=1)
        poller.counter("a").advance(rate_mbps=8.0, duration_seconds=1.0)
        assert poller.counter("a").value_bytes == 1_000_000
        assert poller.counter("b").value_bytes == 0
        assert poller.counter_values().tolist() == [1_000_000, 0]

    def test_counters_wrap_like_counter64(self):
        poller = SNMPPoller(["a"], jitter_std_seconds=0.0, seed=1)
        poller.counter("a").value_bytes = 2**64 - 10
        poller.advance_counters({"a": 8.0}, duration_seconds=1.0)
        assert 0 <= poller.counter("a").value_bytes < 2**64
        rates, _ = rates_from_poll_matrix(
            poller.run_schedule_matrix(np.array([[100.0]]), start_time=0.0)
        )
        assert rates[0, 0] == pytest.approx(100.0, rel=1e-6)

    def test_round_lists_wrap_like_counter32(self):
        interval_bytes = 300 * 125_000  # 1 Mbit/s for 300 s
        rounds = [
            [PollResult("x", 0.0, 0.0, 2**32 - interval_bytes // 2)],
            [PollResult("x", 300.0, 300.0, interval_bytes // 2)],
        ]
        rates, diagnostics = rates_from_rounds(rounds, ["x"], counter_bits=32)
        assert diagnostics.wrap_samples == 1
        assert diagnostics.reset_samples == 0
        assert rates[0, 0] == pytest.approx(1.0)

    def test_negative_rates_rejected(self):
        poller = SNMPPoller(["a"], seed=1)
        with pytest.raises(MeasurementError):
            poller.advance_counters({"a": -1.0}, 1.0)
        with pytest.raises(MeasurementError):
            poller.run_schedule_matrix(np.array([[-1.0]]))

    def test_vectorized_rates_agree_with_reference_loop(self):
        names = [f"o{i}" for i in range(7)]
        poller = SNMPPoller(
            names, jitter_std_seconds=3.0, loss_probability=0.2, seed=42
        )
        rng = np.random.default_rng(0)
        rate_matrix = rng.uniform(10.0, 500.0, size=(30, len(names)))
        polls = poller.run_schedule_matrix(rate_matrix, start_time=0.0)

        vectorized, _ = rates_from_poll_matrix(polls)
        reference = _reference_rates(polls.to_rounds(), names)
        assert np.allclose(vectorized, reference, rtol=0, atol=1e-12)


class TestClassifyCounterDeltas:
    def test_each_object_is_reduced_in_its_own_counter_space(self):
        # One call, mixed widths: a 64-bit step, a Counter32 wrap, a
        # Counter32 reset, a 64-bit reset, a degenerate and an unusable pair.
        previous = np.array([2**40, 2**32 - 100, 1000, 1000, 0, 0], dtype=np.uint64)
        current = np.array([2**40 + 3000, 50, 10, 10, 500, 500], dtype=np.uint64)
        bits = np.array([64, 32, 32, 64, 64, 64], dtype=np.uint64)
        elapsed = np.array([300.0, 300.0, 300.0, 300.0, 0.0, 300.0])
        usable = np.array([True, True, True, True, True, False])
        deltas = classify_counter_deltas(previous, current, elapsed, usable, bits)
        np.testing.assert_array_equal(deltas.valid, [1, 1, 0, 0, 0, 0])
        np.testing.assert_array_equal(deltas.wrapped, [0, 1, 0, 0, 0, 0])
        np.testing.assert_array_equal(deltas.reset, [0, 0, 1, 1, 0, 0])
        np.testing.assert_array_equal(deltas.degenerate, [0, 0, 0, 0, 1, 0])
        assert deltas.rates[0] == 3000 * (8.0 / 1e6) / 300.0
        assert deltas.rates[1] == 150 * (8.0 / 1e6) / 300.0
        assert np.isnan(deltas.rates[2:]).all()


class TestRateDiagnostics:
    def test_clean_run_has_no_interpolation(self):
        poller = SNMPPoller(["a", "b"], jitter_std_seconds=0.0, seed=1)
        polls = poller.run_schedule_matrix(np.tile([10.0, 0.0], (5, 1)))
        _, diagnostics = rates_from_poll_matrix(polls)
        assert diagnostics.num_intervals == 5
        assert diagnostics.num_objects == 2
        assert diagnostics.total_samples == 10
        assert diagnostics.lost_samples == 0
        assert diagnostics.degenerate_samples == 0
        assert diagnostics.interpolated_samples == 0
        assert diagnostics.interpolated_fraction == 0.0

    def test_lost_polls_are_counted(self):
        rounds = [
            [PollResult("x", 0.0, 0.0, 0)],
            [PollResult("x", 300.0, 300.0, None)],
            [PollResult("x", 600.0, 600.0, 2 * 300 * 125_000)],
            [PollResult("x", 900.0, 900.0, 3 * 300 * 125_000)],
        ]
        rates, diagnostics = rates_from_rounds(rounds, ["x"])
        # The lost middle poll invalidates the two adjacent intervals.
        assert diagnostics.lost_samples == 2
        assert diagnostics.degenerate_samples == 0
        assert diagnostics.interpolated_samples == 2
        # The only valid interval carries 125 kB/s = 1 Mbit/s; the two
        # invalidated intervals are filled by constant extrapolation.
        assert np.allclose(rates[:, 0], 1.0)

    def test_degenerate_intervals_counted_separately_from_loss(self):
        # Second response arrives *before* the first (elapsed <= 0): both
        # polls answered, so this is degenerate, not UDP loss.
        rounds = [
            [PollResult("x", 0.0, 10.0, 0)],
            [PollResult("x", 300.0, 5.0, 1000)],
            [PollResult("x", 600.0, 605.0, 2000)],
        ]
        rates, diagnostics = rates_from_rounds(rounds, ["x"])
        assert diagnostics.degenerate_samples == 1
        assert diagnostics.lost_samples == 0
        assert diagnostics.interpolated_samples == 1
        assert np.all(np.isfinite(rates))

    def test_excessive_interpolation_raises(self):
        rounds = [
            [PollResult("x", 0.0, 0.0, 0)],
            [PollResult("x", 300.0, 300.0, None)],
            [PollResult("x", 600.0, 600.0, 2000)],
            [PollResult("x", 900.0, 900.0, 3000)],
        ]
        with pytest.raises(MeasurementError, match="interpolated"):
            rates_from_rounds(rounds, ["x"], max_interpolated_fraction=0.5)
        # The same data passes with a permissive threshold.
        rates_from_rounds(rounds, ["x"], max_interpolated_fraction=0.7)

    def test_merged_accumulates_counts(self):
        poller = SNMPPoller(["a"], jitter_std_seconds=0.0, seed=1)
        _, first = rates_from_poll_matrix(poller.run_schedule_matrix(np.full((4, 1), 10.0)))
        merged = first.merged(first)
        assert merged.num_objects == 2
        assert merged.total_samples == 8


class TestPollMatrix:
    def test_shape_validation(self):
        with pytest.raises(MeasurementError):
            PollMatrix(
                object_names=("a",),
                scheduled_times=np.zeros(2),
                response_times=np.zeros((3, 1)),
                counters=np.zeros((2, 1), dtype=np.uint64),
                lost=np.zeros((2, 1), dtype=bool),
            )

    def test_roundtrip_through_rounds(self):
        poller = SNMPPoller(["a", "b"], jitter_std_seconds=1.0, loss_probability=0.3, seed=3)
        matrix = poller.run_schedule_matrix(np.full((4, 2), 50.0), start_time=100.0)
        rebuilt = PollMatrix.from_rounds(matrix.to_rounds(), matrix.object_names)
        assert np.allclose(rebuilt.response_times, matrix.response_times)
        assert np.array_equal(rebuilt.lost, matrix.lost)
        assert np.array_equal(
            rebuilt.counters[~rebuilt.lost], matrix.counters[~matrix.lost]
        )
