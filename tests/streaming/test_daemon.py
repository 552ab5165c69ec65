"""Tests for the streaming estimation daemon."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.errors import EstimationError, StreamingError
from repro.estimation.base import EstimationProblem
from repro.estimation.priors import make_prior
from repro.estimation.registry import get_estimator
from repro.resilience.faults import PollLossBurst, fault_plan
from repro.streaming import PollStream, StreamingEstimator


def batch_problem(routing, collector):
    """Batch series problem from a collected archive (the reference path)."""
    loads = collector.measured_link_loads()
    demands = collector.measured_traffic_series().as_array()
    pairs = routing.pairs
    origins = tuple(dict.fromkeys(pair.origin for pair in pairs))
    destinations = tuple(dict.fromkeys(pair.destination for pair in pairs))
    origin_index = {name: idx for idx, name in enumerate(origins)}
    destination_index = {name: idx for idx, name in enumerate(destinations)}
    origin_cols = np.array([origin_index[pair.origin] for pair in pairs])
    destination_cols = np.array([destination_index[pair.destination] for pair in pairs])
    num_snapshots = loads.shape[0]
    origin_totals = np.zeros((num_snapshots, len(origins)))
    destination_totals = np.zeros((num_snapshots, len(destinations)))
    for snapshot in range(num_snapshots):
        np.add.at(origin_totals[snapshot], origin_cols, demands[snapshot])
        np.add.at(destination_totals[snapshot], destination_cols, demands[snapshot])
    return EstimationProblem(
        routing=routing,
        link_load_series=loads,
        origin_totals_series=origin_totals,
        origin_names=origins,
        destination_totals_series=destination_totals,
        destination_names=destinations,
    )


class TestBatchAgreement:
    @pytest.mark.parametrize("method", ["tomogravity", "kruithof", "entropy"])
    def test_streaming_matches_estimate_series_on_clean_day(
        self, method, stream_scenario, collector_factory
    ):
        series = stream_scenario.day_series
        routing = stream_scenario.routing
        stream = PollStream.from_collector(collector_factory(), series)
        daemon = StreamingEstimator.from_collector(
            collector_factory(), method=method, watchdog_every=0
        )
        records = list(daemon.run(stream))
        assert len(records) == len(series)
        assert not any(record.stale for record in records)
        assert all(record.method == method for record in records)

        reference_collector = collector_factory()
        reference_collector.collect(series)
        problem = batch_problem(routing, reference_collector)
        reference = get_estimator(method).estimate_series(problem)
        streamed = np.stack([record.estimate for record in records])
        np.testing.assert_allclose(
            streamed, np.maximum(reference.estimates, 0.0), rtol=1e-3, atol=1e-2
        )

    def test_incremental_estimate_equals_a_fresh_warm_started_estimate(
        self, stream_scenario, collector_factory
    ):
        collector = collector_factory()
        collector.collect(stream_scenario.day_series)
        problem = batch_problem(stream_scenario.routing, collector).at_snapshot(1)
        previous = make_prior(problem, "gravity") * 1.1
        untouched = previous.copy()

        shared = get_estimator("kruithof")
        shared.estimate(problem, start=previous * 0.5)
        updated = shared.estimate(problem, start=previous)
        expected = get_estimator("kruithof").estimate(problem, start=previous)
        np.testing.assert_array_equal(updated.vector, expected.vector)
        np.testing.assert_array_equal(previous, untouched)

    def test_start_is_ignored_by_cold_methods(self, stream_scenario, collector_factory):
        collector = collector_factory()
        collector.collect(stream_scenario.day_series)
        problem = batch_problem(stream_scenario.routing, collector).at_snapshot(0)
        previous = make_prior(problem, "gravity") * 1.1
        updated = get_estimator("tomogravity").estimate(problem, start=previous)
        expected = get_estimator("tomogravity").estimate(problem)
        np.testing.assert_array_equal(updated.vector, expected.vector)


class TestStaleness:
    def test_total_outage_holds_estimate_with_stale_flags(
        self, stream_scenario, collector_factory
    ):
        plan = fault_plan(PollLossBurst(start_round=4, num_rounds=3, fraction=1.0), seed=0)
        stream = PollStream.from_collector(
            collector_factory(fault_plan=plan), stream_scenario.day_series
        )
        daemon = StreamingEstimator.from_collector(
            collector_factory(fault_plan=plan), method="tomogravity", watchdog_every=0
        )
        records = list(daemon.run(stream))
        stale = [record for record in records if record.stale]
        # Rounds 4-6 lost: intervals 3-6 have no fresh closing poll for any
        # link until the catch-up poll at round 7.
        assert stale, "outage produced no stale records"
        streaks = [record.stale_intervals for record in stale]
        assert streaks == list(range(1, len(stale) + 1))
        held_from = records[stale[0].sequence - 1]
        for record in stale:
            assert record.method == "held"
            assert record.valid_fraction == 0.0
            np.testing.assert_array_equal(record.estimate, held_from.estimate)
        # Recovery: the poll after the outage produces a real update again.
        after = records[stale[-1].sequence + 1]
        assert not after.stale and after.method == "tomogravity"

    def test_partial_loss_still_updates(self, stream_scenario, collector_factory):
        plan = fault_plan(PollLossBurst(start_round=4, num_rounds=2, fraction=0.4), seed=2)
        stream = PollStream.from_collector(
            collector_factory(fault_plan=plan), stream_scenario.day_series
        )
        daemon = StreamingEstimator.from_collector(
            collector_factory(fault_plan=plan),
            method="tomogravity",
            watchdog_every=0,
            min_valid_fraction=0.25,
        )
        records = list(daemon.run(stream))
        assert not any(record.stale for record in records)
        degraded_rounds = [r for r in records if r.valid_fraction < 1.0]
        assert degraded_rounds, "loss burst left no partially-valid rounds"

    def test_cold_start_during_outage_emits_zero_estimate(
        self, stream_scenario, collector_factory
    ):
        plan = fault_plan(PollLossBurst(start_round=0, num_rounds=3, fraction=1.0), seed=0)
        stream = PollStream.from_collector(
            collector_factory(fault_plan=plan), stream_scenario.day_series
        )
        daemon = StreamingEstimator.from_collector(
            collector_factory(fault_plan=plan), method="tomogravity", watchdog_every=0
        )
        records = list(daemon.run(stream))
        assert records[0].stale
        np.testing.assert_array_equal(records[0].estimate, 0.0)


class TestWatchdog:
    def test_periodic_checks_at_configured_cadence(
        self, stream_scenario, collector_factory
    ):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(
            collector_factory(), method="tomogravity", watchdog_every=4
        )
        records = list(daemon.run(stream))
        checked = [record.sequence for record in records if record.watchdog_checked]
        assert checked == [3, 7, 11]
        for record in records:
            if record.watchdog_checked:
                assert record.watchdog_drift is not None
                assert record.watchdog_drift < 0.01  # clean day: no divergence
                assert not record.watchdog_resolved

    def test_trip_adopts_full_resolve(self, stream_scenario, collector_factory):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(
            collector_factory(),
            method="tomogravity",
            watchdog_every=3,
            watchdog_threshold=-1.0,  # any drift (even zero) trips
        )
        records = list(daemon.run(stream))
        resolved = [record for record in records if record.watchdog_resolved]
        assert resolved
        assert daemon.watchdog_resolves == len(resolved)
        for record in resolved:
            assert record.method == "supervised"

    def test_degraded_update_falls_back_to_supervised_chain(
        self, stream_scenario, collector_factory, monkeypatch
    ):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(
            collector_factory(), method="tomogravity", watchdog_every=0
        )

        original = daemon._estimator.estimate
        failures = {"left": 2}

        def flaky_estimate(problem, *, start=None):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise EstimationError("injected incremental failure")
            return original(problem, start=start)

        monkeypatch.setattr(daemon._estimator, "estimate", flaky_estimate)
        with pytest.warns(RuntimeWarning, match="incremental update failed"):
            records = list(daemon.run(stream))
        degraded = [record for record in records if record.degraded]
        assert [record.sequence for record in degraded] == [0, 1]
        assert daemon.degraded_updates == 2
        for record in degraded:
            assert record.method == "supervised"
            assert not record.stale


class TestEpochChurn:
    def test_reroute_bumps_epoch_and_invalidates_exactly_affected_pairs(
        self, stream_scenario, collector_factory
    ):
        routing = stream_scenario.routing
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(
            collector_factory(), method="tomogravity", watchdog_every=0
        )

        captured = {}
        original = daemon._estimator.estimate

        def capture_estimate(problem, *, start=None):
            if start is not None and "warm" not in captured and daemon.epoch == 1:
                captured["warm"] = start.copy()
                captured["problem"] = problem
            return original(problem, start=start)

        daemon._estimator.estimate = capture_estimate

        failed_link = routing.link_names[0]
        records = []
        previous_estimate = None
        result = None
        for record in daemon.run(stream):
            records.append(record)
            if record.sequence == 2:
                previous_estimate = record.estimate.copy()
                result = daemon.apply_reroute(failed_links=[failed_link])

        assert result is not None and result.rerouted
        affected = np.zeros(routing.num_pairs, dtype=bool)
        position = {pair: idx for idx, pair in enumerate(routing.pairs)}
        for pair in result.rerouted:
            affected[position[pair]] = True

        # Epoch tagging: records before the reroute are epoch 0, after 1.
        assert [record.epoch for record in records] == [0] * 3 + [1] * (len(records) - 3)
        # The reroute forces a watchdog pass on the next update.
        assert records[3].watchdog_checked

        # Exactly the affected pairs were re-seeded from the prior; the
        # surviving pairs kept the previous estimate as their warm start.
        warm = captured["warm"]
        replacement = make_prior(captured["problem"], "gravity")
        np.testing.assert_array_equal(warm[~affected], previous_estimate[~affected])
        np.testing.assert_array_equal(warm[affected], replacement[affected])
        assert daemon.invalidated_total == int(affected.sum())

    def test_reroute_without_network_rejected(self, stream_scenario, collector_factory):
        from repro.routing.routing_matrix import RoutingMatrix

        routing = stream_scenario.routing
        bare = RoutingMatrix(routing.native, routing.link_names, routing.pairs)
        daemon = StreamingEstimator(
            routing=bare,
            link_names=[f"link:{name}" for name in routing.link_names],
        )
        with pytest.raises(StreamingError):
            daemon.apply_reroute(failed_links=[routing.link_names[0]])


class TestRingBuffer:
    def test_window_is_bounded_and_ordered(self, stream_scenario, collector_factory):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(
            collector_factory(), method="tomogravity", watchdog_every=0, ring_rounds=5
        )
        list(daemon.run(stream))
        times, rates, valid = daemon.window()
        assert times.shape == (5,)
        assert rates.shape == (5, stream_scenario.routing.num_links)
        assert valid.shape == rates.shape
        assert np.all(np.diff(times) > 0)
        # The window ends at the last poll round's scheduled time.
        assert times[-1] == stream.scheduled_times[-1]


class TestValidationAndTelemetry:
    def test_constructor_validation(self, stream_scenario):
        routing = stream_scenario.routing
        names = [f"link:{name}" for name in routing.link_names]
        with pytest.raises(StreamingError):
            StreamingEstimator(routing=routing, link_names=names[:-1])
        with pytest.raises(StreamingError):
            StreamingEstimator(routing=routing, link_names=names, lsp_names=["x"])
        with pytest.raises(StreamingError):
            StreamingEstimator(routing=routing, link_names=names, ring_rounds=0)
        with pytest.raises(StreamingError):
            StreamingEstimator(routing=routing, link_names=names, min_valid_fraction=1.5)
        with pytest.raises(StreamingError):
            StreamingEstimator(routing=routing, link_names=names, watchdog_every=-1)

    def test_out_of_order_rounds_rejected(self, stream_scenario, collector_factory):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(collector_factory())
        daemon.process_round(stream.round(0), stream)
        with pytest.raises(StreamingError):
            daemon.process_round(stream.round(2), stream)

    def test_stream_missing_objects_rejected(self, stream_scenario, collector_factory):
        collector = collector_factory()
        matrices = collector.poll_matrices(stream_scenario.day_series)
        stream = PollStream(matrices[:1])  # half the objects
        daemon = StreamingEstimator.from_collector(collector_factory())
        with pytest.raises(StreamingError):
            daemon.process_round(stream.round(0), stream)

    def test_stream_stage_telemetry(self, telemetry_on, stream_scenario, collector_factory):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = StreamingEstimator.from_collector(
            collector_factory(), method="tomogravity", watchdog_every=4
        )
        list(daemon.run(stream))
        snapshot = telemetry.metrics_snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        assert counters["stream.polls"] == len(stream_scenario.day_series)
        assert counters["stream.watchdog_checks"] == 3
        assert gauges["stream.valid_fraction"] == 1.0
        assert gauges["stream.ring_rounds"] > 0
