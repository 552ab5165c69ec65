"""The compiled IGP reroute: path parity, float costs and the python fallback.

In IGP mode :class:`~repro.routing.incremental.IncrementalRerouter` routes a
failure case with one masked ``scipy.sparse.csgraph.dijkstra`` call and a
walk back along the tight links.  These tests pin it to the python
reference, :func:`~repro.routing.shortest_path.constrained_dijkstra` over
the surviving links — node sequences, link sequences *and* float costs —
on the named backbones and on random ones with tied metrics, parallel
links, multi-element failures and partitions.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.routing.incremental as incremental_module
import repro.routing.shortest_path as shortest_path_module
from repro.datasets import abilene_scenario, america_scenario, europe_scenario
from repro.planning import enumerate_failures
from repro.routing import IncrementalRerouter, build_routing_matrix
from repro.routing.shortest_path import constrained_dijkstra
from repro.topology import Link, Network, NodePair
from repro.topology.generators import random_backbone

NAMED = [
    europe_scenario,
    # Hundreds of python reference Dijkstras per case; the compiled side is fast.
    pytest.param(america_scenario, marks=pytest.mark.slow),
    abilene_scenario,
]


def reference_paths(network, result):
    """Python Dijkstra over the surviving links for every rerouted pair."""
    banned = set(result.failed_links)
    for node in result.failed_nodes:
        banned.update(link.name for link in network.outgoing_links(node))
        banned.update(link.name for link in network.incoming_links(node))
    failed_nodes = set(result.failed_nodes)
    reference = {}
    for pair in result.rerouted:
        if pair.origin in failed_nodes or pair.destination in failed_nodes:
            reference[pair] = None
            continue
        reference[pair] = constrained_dijkstra(
            network, pair, lambda link: link.metric, usable=lambda link: link.name not in banned
        )
    return reference


def assert_matches_reference(network, result, label):
    reference = reference_paths(network, result)
    assert list(result.paths) == list(reference), label
    for pair, path in result.paths.items():
        expected = reference[pair]
        if expected is None:
            assert path is None, (label, pair)
            continue
        assert path is not None, (label, pair)
        assert path.nodes == expected.nodes, (label, pair)
        assert path.link_names() == expected.link_names(), (label, pair)
        assert path.cost == expected.cost, (label, pair)
    assert result.infeasible == tuple(p for p, path in reference.items() if path is None)


def link_sum(path):
    total = 0.0
    for link in path.links:
        total += link.metric
    return total


def tied_backbone(seed, num_nodes=24, avg_degree=2.6):
    """A random backbone with metrics 1 or 2 and some equal-metric parallel links."""
    base = random_backbone(num_nodes, avg_degree=avg_degree, seed=seed, name=f"tied-{seed}")
    network = Network(base.name, nodes=base.nodes)
    rng = np.random.default_rng(seed)
    for link in base.links:
        metric = float(1 + int(link.metric) % 2)
        network.add_link(
            Link(source=link.source, target=link.target, capacity_mbps=link.capacity_mbps,
                 metric=metric, name=link.name)
        )
        if rng.random() < 0.15:
            network.add_link(
                Link(source=link.source, target=link.target, capacity_mbps=link.capacity_mbps,
                     metric=metric, name=f"{link.name}#2")
            )
    return network


class TestNamedBackbones:
    @pytest.mark.parametrize("build", NAMED, ids=lambda build: build.__name__)
    def test_every_single_link_and_node_failure_matches_python(self, build):
        scenario = build()
        rerouter = IncrementalRerouter.from_routing(scenario.routing)
        for case in enumerate_failures(scenario.network, kinds=("link", "node")):
            result = rerouter.reroute(case.failed_links, case.failed_nodes)
            assert_matches_reference(scenario.network, result, case.name)

    @pytest.mark.parametrize(
        "build", [europe_scenario, america_scenario, abilene_scenario],
        ids=lambda build: build.__name__,
    )
    def test_path_cost_is_the_sum_of_its_link_metrics(self, build):
        # Europe's FRA->MAD failure reroutes VIE->MAD over an equal-cost,
        # lexicographically smaller route whose cost is 24.980000000000004
        # summed link by link; the route must not carry the 24.98 of the
        # route it replaced.
        scenario = build()
        rerouter = IncrementalRerouter.from_routing(scenario.routing)
        for case in enumerate_failures(scenario.network, kinds=("link", "node")):
            result = rerouter.reroute(case.failed_links, case.failed_nodes)
            for pair, path in result.paths.items():
                if path is not None:
                    assert path.cost == link_sum(path), (case.name, pair)

    def test_europe_tie_keeps_the_summed_cost(self):
        scenario = europe_scenario()
        rerouter = IncrementalRerouter.from_routing(scenario.routing)
        path = rerouter.reroute(["FRA->MAD"]).paths[NodePair("VIE", "MAD")]
        assert path.cost == link_sum(path)


class TestRandomBackbones:
    @pytest.mark.parametrize("seed", range(4))
    def test_multi_element_failures_and_partitions(self, seed):
        network = tied_backbone(seed)
        rerouter = IncrementalRerouter(network)
        rng = np.random.default_rng(100 + seed)
        names, nodes = network.link_names, network.node_names
        cases = [((name,), ()) for name in names[::3]]
        for _ in range(12):
            picked = rng.choice(len(names), size=2, replace=False)
            cases.append((tuple(names[i] for i in picked), ()))
        for _ in range(6):
            picked = rng.choice(len(nodes), size=2, replace=False)
            cases.append(((), tuple(nodes[i] for i in picked)))
        infeasible = 0
        for links, failed_nodes in cases:
            result = rerouter.reroute(links, failed_nodes)
            assert_matches_reference(network, result, (links, failed_nodes))
            infeasible += len(result.infeasible)
        assert infeasible > 0

    def test_ring_partition_reports_infeasible_pairs(self):
        ring = tied_backbone(7, num_nodes=8, avg_degree=2.0)
        rerouter = IncrementalRerouter(ring)
        failed = ("P00->P01", "P01->P00", "P04->P05", "P05->P04")
        result = rerouter.reroute(failed)
        assert NodePair("P01", "P05") in result.infeasible
        assert_matches_reference(ring, result, failed)
        matrix, _ = rerouter.reroute_matrix(failed)
        for pair in result.infeasible:
            assert not matrix.pair_column(pair).any()


class TestCompiledPathIsUsed:
    def test_igp_reroute_never_calls_the_python_dijkstra(self, monkeypatch):
        scenario = abilene_scenario()
        rerouter = IncrementalRerouter.from_routing(scenario.routing)
        expected = [
            rerouter.reroute_matrix(case.failed_links, case.failed_nodes)
            for case in enumerate_failures(scenario.network, kinds=("link", "node"))
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("python Dijkstra called in IGP mode")

        monkeypatch.setattr(incremental_module, "constrained_dijkstra", refuse)
        fresh = IncrementalRerouter.from_routing(scenario.routing)
        for case, (matrix, result) in zip(
            enumerate_failures(scenario.network, kinds=("link", "node")), expected
        ):
            again, again_result = fresh.reroute_matrix(case.failed_links, case.failed_nodes)
            np.testing.assert_array_equal(again.matrix, matrix.matrix)
            assert again_result.paths == result.paths

    def test_bandwidth_mode_still_runs_the_python_dijkstra(self, monkeypatch):
        scenario = europe_scenario()
        network = scenario.network
        bandwidths = {pair: 10.0 for pair in network.node_pairs()[:20]}
        rerouter = IncrementalRerouter(network, bandwidths=bandwidths)
        calls = []
        original = incremental_module.constrained_dijkstra

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(incremental_module, "constrained_dijkstra", counting)
        busiest = max(network.link_names, key=lambda name: rerouter.base_matrix.matrix[
            network.link_index(name)].sum())
        result = rerouter.reroute([busiest])
        assert result.rerouted
        assert calls

    def test_unavailable_csgraph_falls_back_with_warning(self, monkeypatch):
        scenario = europe_scenario()
        rerouter = IncrementalRerouter.from_routing(scenario.routing)
        cases = enumerate_failures(scenario.network, kinds=("link",))[::7]
        expected = [rerouter.reroute(c.failed_links, c.failed_nodes) for c in cases]
        assert all(result.rerouted for result in expected)

        def broken():
            raise ImportError("forced by test")

        monkeypatch.setattr(shortest_path_module, "_load_csgraph", broken)
        for case, reference in zip(cases, expected):
            with pytest.warns(RuntimeWarning, match="falling back to the python Dijkstra"):
                result = rerouter.reroute(case.failed_links, case.failed_nodes)
            assert result == reference, case.name

    def test_reroute_raises_no_warnings(self):
        ring = tied_backbone(7, num_nodes=8, avg_degree=2.0)
        scenario = abilene_scenario()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for network, routing in (
                (ring, build_routing_matrix(ring)),
                (scenario.network, scenario.routing),
            ):
                rerouter = IncrementalRerouter.from_routing(routing)
                for case in enumerate_failures(network, kinds=("link", "link-pair", "node")):
                    rerouter.reroute_matrix(case.failed_links, case.failed_nodes)
                rerouter.reroute_matrix(failed_nodes=network.node_names[:3])
