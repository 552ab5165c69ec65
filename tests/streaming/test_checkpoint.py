"""Checkpoint/restore and crash-recovery tests for the streaming daemon."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.errors import StreamingError
from repro.resilience.faults import (
    ClockSkew,
    CollectorOutage,
    Counter32Wrap,
    CounterReset,
    FaultPlan,
    PollLossBurst,
    StuckCounter,
    fault_plan,
)
from repro.streaming import (
    CHECKPOINT_VERSION,
    PollStream,
    StreamingEstimator,
    load_checkpoint,
    routing_fingerprint,
)

FAULT_PLANS = {
    "clean": None,
    "loss-burst": fault_plan(
        PollLossBurst(start_round=3, num_rounds=2, fraction=0.6), seed=1
    ),
    "collector-outage": fault_plan(
        CollectorOutage(poller_index=0, start_round=5, num_rounds=3), seed=2
    ),
    "counter-reset": fault_plan(CounterReset(round_index=7), seed=3),
    "counter32-wrap": fault_plan(Counter32Wrap(), seed=4),
    "clock-skew": fault_plan(ClockSkew(offset_seconds=15.0, start_round=4), seed=5),
    "stuck-counter": fault_plan(StuckCounter(start_round=6, num_rounds=2), seed=6),
    "composed": fault_plan(
        PollLossBurst(start_round=2, num_rounds=2, fraction=0.5),
        Counter32Wrap(),
        ClockSkew(offset_seconds=8.0, start_round=6),
        CounterReset(round_index=9),
        seed=7,
    ),
}


def make_daemon(collector_factory, plan):
    return StreamingEstimator.from_collector(
        collector_factory(fault_plan=plan),
        method="tomogravity",
        watchdog_every=4,
        min_valid_fraction=0.5,
    )


def run_stream(daemon, stream, kill_after=None, checkpoint_path=None):
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for record in daemon.run(stream):
            lines.append(record.payload_line())
            if kill_after is not None and len(lines) == kill_after:
                daemon.checkpoint(checkpoint_path)
                break
    return lines


class TestResumeIdentity:
    @pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
    def test_kill_and_resume_reproduces_records_bit_identically(
        self, plan_name, stream_scenario, collector_factory, tmp_path
    ):
        plan = FAULT_PLANS[plan_name]
        series = stream_scenario.day_series
        loss = 0.05 if plan is not None else 0.0

        def stream_factory():
            return PollStream.from_collector(
                collector_factory(fault_plan=plan, loss_probability=loss,
                                  jitter_std_seconds=1.0),
                series,
            )

        daemon_kwargs = dict(fault_plan=plan, loss_probability=loss,
                             jitter_std_seconds=1.0)
        full_daemon = StreamingEstimator.from_collector(
            collector_factory(**daemon_kwargs), method="tomogravity",
            watchdog_every=4, min_valid_fraction=0.5,
        )
        full = run_stream(full_daemon, stream_factory())
        assert len(full) == len(series)

        path = tmp_path / f"{plan_name}.ckpt"
        killed = StreamingEstimator.from_collector(
            collector_factory(**daemon_kwargs), method="tomogravity",
            watchdog_every=4, min_valid_fraction=0.5,
        )
        head = run_stream(killed, stream_factory(), kill_after=6, checkpoint_path=str(path))
        resumed = StreamingEstimator.restore(str(path), stream_scenario.routing)
        tail = run_stream(resumed, stream_factory())
        assert head + tail == full


class TestCheckpointRoundtrip:
    def test_state_survives_roundtrip_exactly(
        self, stream_scenario, collector_factory, tmp_path
    ):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = make_daemon(collector_factory, None)
        iterator = daemon.run(stream)
        for _ in range(7):
            next(iterator)

        path = tmp_path / "daemon.ckpt"
        daemon.checkpoint(str(path))
        restored = StreamingEstimator.restore(str(path), stream_scenario.routing)

        assert restored.rounds_seen == daemon.rounds_seen
        assert restored.sequence == daemon.sequence
        assert restored.epoch == daemon.epoch
        assert restored.since_watchdog == daemon.since_watchdog
        assert restored.stale_polls == daemon.stale_polls
        np.testing.assert_array_equal(restored.estimate, daemon.estimate)
        np.testing.assert_array_equal(
            restored.tracker.last_counter, daemon.tracker.last_counter
        )
        np.testing.assert_array_equal(
            restored.tracker.last_response, daemon.tracker.last_response
        )
        np.testing.assert_array_equal(restored.tracker.rate, daemon.tracker.rate)
        for restored_part, original_part in zip(restored.window(), daemon.window()):
            np.testing.assert_array_equal(restored_part, original_part)

    def test_checkpoint_before_first_estimate(self, stream_scenario, collector_factory, tmp_path):
        daemon = make_daemon(collector_factory, None)
        path = tmp_path / "cold.ckpt"
        daemon.checkpoint(str(path))
        restored = StreamingEstimator.restore(str(path), stream_scenario.routing)
        assert restored.estimate is None
        assert restored.rounds_seen == 0

    def test_checkpoint_after_reroute_restores_epoch_routing(
        self, stream_scenario, collector_factory, tmp_path
    ):
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = make_daemon(collector_factory, None)
        iterator = daemon.run(stream)
        for _ in range(3):
            next(iterator)
        failed = stream_scenario.routing.link_names[0]
        daemon.apply_reroute(failed_links=[failed])
        next(iterator)

        path = tmp_path / "rerouted.ckpt"
        daemon.checkpoint(str(path))
        restored = StreamingEstimator.restore(str(path), stream_scenario.routing)
        assert restored.epoch == 1
        assert restored.failed_links == {failed}
        assert routing_fingerprint(restored.routing) == routing_fingerprint(daemon.routing)
        assert routing_fingerprint(restored.routing) != routing_fingerprint(
            stream_scenario.routing
        )

    def test_reroute_and_restore_run_in_compiled_code(
        self, stream_scenario, collector_factory, tmp_path, monkeypatch
    ):
        import repro.routing.incremental as incremental_module

        def refuse(*args, **kwargs):
            raise AssertionError("python Dijkstra called in IGP mode")

        monkeypatch.setattr(incremental_module, "constrained_dijkstra", refuse)
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = make_daemon(collector_factory, None)
        iterator = daemon.run(stream)
        next(iterator)
        assert daemon.apply_reroute(failed_links=[stream_scenario.routing.link_names[0]]).rerouted
        next(iterator)
        path = tmp_path / "compiled.ckpt"
        daemon.checkpoint(str(path))
        restored = StreamingEstimator.restore(str(path), stream_scenario.routing)
        assert routing_fingerprint(restored.routing) == routing_fingerprint(daemon.routing)
        assert [record.payload_line() for record in restored.run(stream)] == [
            record.payload_line() for record in iterator
        ]

    def test_reroute_and_restore_never_route_the_intact_mesh(
        self, stream_scenario, collector_factory, tmp_path, monkeypatch
    ):
        # The rerouter reads the base routing matrix; routing the whole
        # mesh again, in the reroute or in the restore's replay, is a bug.
        from repro.routing.shortest_path import ShortestPathRouter

        def refuse(self, *args, **kwargs):
            raise AssertionError("the intact mesh was routed again")

        monkeypatch.setattr(ShortestPathRouter, "route_all", refuse)
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        daemon = make_daemon(collector_factory, None)
        iterator = daemon.run(stream)
        for _ in range(3):
            next(iterator)
        result = daemon.apply_reroute(failed_links=[stream_scenario.routing.link_names[0]])
        assert result.rerouted
        assert daemon.routing.pairs is stream_scenario.routing.pairs
        next(iterator)

        path = tmp_path / "rerouted.ckpt"
        daemon.checkpoint(str(path))
        restored = StreamingEstimator.restore(str(path), stream_scenario.routing)
        assert routing_fingerprint(restored.routing) == routing_fingerprint(daemon.routing)
        assert [record.payload_line() for record in restored.run(stream)] == [
            record.payload_line() for record in iterator
        ]


class TestCheckpointValidation:
    def _checkpoint(self, stream_scenario, collector_factory, path):
        daemon = make_daemon(collector_factory, None)
        stream = PollStream.from_collector(collector_factory(), stream_scenario.day_series)
        iterator = daemon.run(stream)
        next(iterator)
        daemon.checkpoint(str(path))
        return daemon

    def test_version_mismatch_rejected(self, stream_scenario, collector_factory, tmp_path):
        path = tmp_path / "versioned.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        meta, arrays = load_checkpoint(str(path))
        assert meta["version"] == CHECKPOINT_VERSION
        meta["version"] = CHECKPOINT_VERSION + 1
        with open(path, "wb") as handle:
            np.savez(handle, meta=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(StreamingError):
            StreamingEstimator.restore(str(path), stream_scenario.routing)

    def test_fingerprint_mismatch_rejected(
        self, stream_scenario, collector_factory, tmp_path
    ):
        path = tmp_path / "fingerprint.ckpt"
        self._checkpoint(stream_scenario, collector_factory, path)
        from repro.routing.incremental import IncrementalRerouter

        other, _ = IncrementalRerouter(stream_scenario.network).reroute_matrix(
            failed_links=[stream_scenario.routing.link_names[0]]
        )
        with pytest.raises(StreamingError):
            StreamingEstimator.restore(str(path), other)

    def test_garbage_file_rejected(self, stream_scenario, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(StreamingError):
            load_checkpoint(str(path))

    def test_fingerprint_is_backend_independent(self, stream_scenario):
        routing = stream_scenario.routing
        sparse = routing.with_backend("sparse")
        assert routing_fingerprint(routing) == routing_fingerprint(sparse)

    def test_fingerprint_digest_is_pinned(self):
        # A checkpoint written before the pair labels were memoised must
        # still restore: the digest of a fixed routing is pinned byte for byte.
        from repro.routing import build_routing_matrix
        from repro.topology import Link, Network, Node

        network = Network("tri")
        for name in "ABC":
            network.add_node(Node(name=name))
        for a, b, metric in (("A", "B", 1.0), ("B", "C", 2.0), ("A", "C", 2.5)):
            network.add_bidirectional_link(Link(source=a, target=b, metric=metric))
        routing = build_routing_matrix(network)
        expected = "37e3695bc221f74af30db4bf7d85897639f03d7b3acaf7041569163f7d13a88d"
        assert routing_fingerprint(routing) == expected
        assert routing_fingerprint(routing) == expected
        assert routing_fingerprint(routing.with_backend("sparse")) == expected
        assert CHECKPOINT_VERSION == 1


class TestKillDashNine:
    def test_sigkill_drill_reproduces_uninterrupted_records(self, tmp_path):
        """End-to-end: SIGKILL a real daemon process, resume, compare logs."""
        repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        script = os.path.join(repo, "examples", "streaming_daemon.py")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo, "src")
        env["CHAOS_SEED"] = "0"
        result = subprocess.run(
            [sys.executable, script, "--drill", "--samples", "12", "--kill-after", "4"],
            env=env,
            cwd=str(tmp_path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "bit-identical" in result.stdout
