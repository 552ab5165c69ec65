"""Fast tests of the benchmark's own logic; no workload runs here."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import pytest

import stack_layers
from stackbench import (
    CALIBRATION_REFERENCE_S,
    END_TO_END,
    PER_LAYER,
    REPO_ROOT,
    HostSpeed,
    Metric,
    Stopwatch,
    Tally,
    result_line,
    self_times,
    tail_percentile,
    valid_name,
)


@dataclass
class Span:
    name: str
    span_id: str
    parent_id: Optional[str]
    start_wall: float
    duration: float
    attributes: dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------


def test_tail_percentile_needs_eleven_samples():
    assert tail_percentile([1.0] * 10) is None
    percentile, value = tail_percentile([float(v) for v in range(11)])
    assert value == 0.0
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_percentile_leaves_exactly_ten_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]  # unsorted on purpose
    percentile, value = tail_percentile(samples)
    assert percentile == 90.0
    assert value == 90.0
    assert sum(sample > value for sample in samples) == 10
    percentile, value = tail_percentile([float(v) for v in range(1000)])
    assert percentile == 99.0 and value == 989.0


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("parent", "p", None, 0.0, 10.0),
        Span("a", "a", "p", 1.0, 2.0),  # [1, 3]
        Span("b", "b", "p", 2.0, 3.0),  # [2, 5] overlaps a
        Span("c", "c", "p", 8.0, 4.0),  # [8, 12] outlives the parent
        Span("grandchild", "g", "a", 1.5, 1.0),
    ]
    selfs = self_times(spans)
    assert selfs["p"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs["a"] == pytest.approx(1.0)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["g"] == pytest.approx(1.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([Span("leaf", "x", None, 5.0, 0.25)]) == {"x": 0.25}


def test_wrapper_estimator_keeps_only_its_own_share_and_iterations_count_once():
    spans = [
        Span("estimate", "t", None, 0.0, 2.0, {"method": "tomogravity", "iterations": 40}),
        Span(
            "estimate",
            "e",
            "t",
            0.5,
            1.5,
            {"method": "entropy", "iterations": 40, "converged": True},
        ),
        Span("estimate", "b", None, 3.0, 1.0, {"method": "bayesian", "iterations": 5000,
                                                 "converged": False}),
    ]
    values = stack_layers.estimation_metrics(spans, passes=2)
    assert values["estimation.tomogravity.solve_s"] == pytest.approx(0.25)
    assert values["estimation.tomogravity.iterations"] == 0.0
    assert values["estimation.entropy.solve_s"] == pytest.approx(0.75)
    assert values["estimation.entropy.iterations"] == 20.0
    assert values["estimation.entropy.ms_per_iter"] == pytest.approx(1e3 * 1.5 / 40)
    assert values["estimation.bayesian.unconverged"] == 0.5
    assert values["estimation.bayesian.calls"] == 0.5
    assert values["estimation.vardi.calls"] == 0.0


def test_engine_self_time_excludes_nested_estimate_spans():
    spans = [
        Span("bench.method_comparison", "m", None, 0.0, 4.0),
        Span("experiment.spec", "s1", "m", 0.5, 1.5),
        Span("estimate", "e1", "s1", 0.6, 1.0),
        Span("experiment.spec", "s2", "m", 2.0, 1.0),
        Span("estimate", "e2", "s2", 2.0, 1.0),
    ]
    assert stack_layers.engine_self_seconds(spans) == pytest.approx(2.0)


def test_layer_metrics_cover_the_catalogue_and_zero_unused_layers():
    values = stack_layers.layer_metrics(
        setups=[[Span("bench.europe_scenario", "s", None, 0.0, 0.5)]],
        spans=[],
        counters={"workspace.cache_hits": 3.0, "workspace.cache_misses": 1.0},
        histograms={},
        passes=1,
        samples={"poll_ms": [float(v) for v in range(20)]},
        extras={"planning.sweep_serial_s": 3.0},
        wall_s=2.0,
        overhead_ratio=0.01,
    )
    assert set(values) == {metric.name for metric in PER_LAYER}
    assert values["datasets.scenario_s"] == 0.5
    assert values["estimation.workspace_hit_ratio"] == 0.75
    assert values["streaming.poll_ms_tail"] == 9.0
    assert values["parallel.speedup"] == 1.5
    assert values["routing.reroute_s"] == 0.0


# ----------------------------------------------------------------------
# failure counting
# ----------------------------------------------------------------------


def test_tally_separates_outright_failures_from_unclean_operations():
    tally = Tally()
    for outcome in (None, None, "unconverged", "stale", "raised", None, "skipped", None):
        tally.add(outcome)
    assert tally.attempted == 8
    assert tally.failed == 2
    assert tally.fail_ratio == pytest.approx(4 / 8)
    assert tally.ok_ratio == pytest.approx(0.5)
    tally.mark("degraded")
    assert tally.fail_ratio == pytest.approx(5 / 8)
    assert "degraded 1" in tally.describe()


def test_tally_rejects_unknown_outcomes_and_over_marking():
    tally = Tally()
    with pytest.raises(ValueError):
        tally.add("slow")
    tally.add("invalid")
    with pytest.raises(ValueError):
        tally.mark("unconverged")


def test_tally_merge_adds_counts():
    first, second = Tally(), Tally()
    first.add(None)
    second.add("unconverged")
    second.add(None)
    first.merge(second)
    assert (first.attempted, first.failed, first.not_clean) == (3, 0, 1)


def test_result_line_holds_exactly_the_catalogue():
    tally = Tally()
    tally.add(None)
    metrics = (Metric("wall_s", "s"), Metric("ok_ratio", "ratio", "higher"))
    line = json.loads(result_line(True, tally, {"wall_s": 1.5, "ok_ratio": 1.0, "x": 2}, metrics))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {
        "wall_s": {"value": 1.5, "unit": "s"},
        "ok_ratio": {"value": 1.0, "unit": "ratio"},
    }
    with pytest.raises(ValueError):
        result_line(True, tally, {"wall_s": 1.5}, metrics)
    with pytest.raises(ValueError):
        result_line(True, Tally(), {"wall_s": 1.5, "ok_ratio": 1.0}, metrics)


# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------


def _spin(seconds: float) -> None:
    """Busy-wait until this process has used ``seconds`` of CPU."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_stopwatch_sums_sections_and_leaves_out_waiting():
    clock = Stopwatch()
    with clock.timing():
        time.sleep(0.2)
    assert clock.wall >= 0.2
    assert clock.cpu < 0.1
    waited = clock.wall
    with clock.timing():
        _spin(0.2)
    assert clock.wall >= waited + 0.2
    assert clock.cpu >= 0.2


def test_stopwatch_counts_child_processes_it_waited_for():
    clock = Stopwatch()
    spin = "import time\nend = time.process_time() + 0.3\nwhile time.process_time() < end: pass"
    with clock.timing():
        subprocess.run([sys.executable, "-c", spin], check=True)
    assert clock.cpu >= 0.3


def test_host_speed_scales_by_the_median_calibration_sample():
    speed = HostSpeed()
    speed.samples = [0.02, 0.06, 0.03]
    assert speed.scale() == pytest.approx(CALIBRATION_REFERENCE_S / 0.03)
    speed.samples = []
    speed.sample()
    assert len(speed.samples) == HostSpeed.REPEATS
    assert all(sample > 0 for sample in speed.samples)


# ----------------------------------------------------------------------
# metric names and BENCHMARK.json
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, ok",
    [
        ("wall_s", True),
        ("estimation.worst-case-bounds.solve_s", True),
        ("9lives", True),
        ("_hidden", False),
        ("poll ms", False),
        ("latency/p99", False),
        ("", False),
        ("x" * 65, False),
    ],
)
def test_name_rule(name, ok):
    assert valid_name(name) is ok


def test_catalogue_names_are_valid_and_unique():
    names = [metric.name for metric in END_TO_END + PER_LAYER]
    assert all(valid_name(name) for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in {metric.name for metric in END_TO_END}


def test_benchmark_json_mirrors_the_catalogue():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    for key, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == [(m.name, m.unit, m.better) for m in catalogue]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(valid_name(w["name"]) for w in spec["workloads"])
