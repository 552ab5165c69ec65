"""Measurement substrate: link loads, SNMP polling, collection, NetFlow emulation.

* :mod:`~repro.measurement.linkloads` — the consistent ``t = R s`` link-load
  computation the paper's evaluation data set is built on, plus optional
  measurement-noise models;
* :mod:`~repro.measurement.snmp` — per-object counter simulation with polling
  jitter, interval-length rate adjustment and UDP loss;
* :mod:`~repro.measurement.collector` — distributed pollers feeding a central
  archive, reconstructing the measured LSP traffic matrix and link loads;
* :mod:`~repro.measurement.netflow` — NetFlow-style flow aggregation used to
  demonstrate why flow-averaged data loses within-flow variance.
"""

from repro.measurement.collector import DistributedCollector, MeasurementArchive
from repro.measurement.linkloads import (
    GaussianNoiseModel,
    LinkLoadObservation,
    NoiselessModel,
    link_load_series,
    link_loads_from_matrix,
)
from repro.measurement.netflow import (
    FlowRecord,
    NetFlowAggregator,
    flows_from_series,
    netflow_smoothed_series,
)
from repro.measurement.snmp import (
    CounterState,
    PollMatrix,
    PollResult,
    RateDiagnostics,
    SNMPPoller,
    rates_from_poll_matrix,
)

__all__ = [
    "LinkLoadObservation",
    "link_loads_from_matrix",
    "link_load_series",
    "NoiselessModel",
    "GaussianNoiseModel",
    "CounterState",
    "PollResult",
    "PollMatrix",
    "RateDiagnostics",
    "SNMPPoller",
    "rates_from_poll_matrix",
    "MeasurementArchive",
    "DistributedCollector",
    "FlowRecord",
    "flows_from_series",
    "NetFlowAggregator",
    "netflow_smoothed_series",
]
