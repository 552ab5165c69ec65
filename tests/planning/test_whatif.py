"""What-if engine tests: incremental reroute parity, caching, partitions.

The load-bearing property is *parity*: the incremental rerouter — which
re-signals only the demands whose path traversed a failed element — must
produce exactly the routing matrix a from-scratch mesh re-signal of the
surviving topology produces, for every failure case.  The Europe and
Abilene parity tests below are the acceptance criterion of the planning
subsystem.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import abilene_scenario, america_scenario, europe_scenario
from repro.planning import (
    BASELINE,
    FailureCase,
    WhatIfEngine,
    enumerate_failures,
    full_rebuild_routing,
)
from repro.routing import (
    IncrementalRerouter,
    build_ecmp_routing_matrix,
    build_routing_matrix,
)
from repro.topology.elements import NodePair


def assert_parity(network, cases):
    """Incremental reroute must match the from-scratch rebuild on every case."""
    rerouter = IncrementalRerouter(network)
    for case in cases:
        incremental, result = rerouter.reroute_matrix(case.failed_links, case.failed_nodes)
        full, infeasible = full_rebuild_routing(network, case)
        np.testing.assert_array_equal(
            incremental.matrix, full.matrix, err_msg=f"matrix mismatch for {case.name}"
        )
        assert tuple(result.infeasible) == infeasible, case.name


class TestIncrementalParity:
    def test_dumbbell_all_kinds(self, dumbbell_network):
        cases = enumerate_failures(
            dumbbell_network, kinds=("link", "link-pair", "node"), include_baseline=True
        )
        assert_parity(dumbbell_network, cases)

    def test_europe_single_link_failures(self):
        scenario = europe_scenario()
        cases = enumerate_failures(scenario.network, kinds=("link",))
        assert_parity(scenario.network, cases)

    def test_abilene_single_link_failures(self):
        scenario = abilene_scenario()
        cases = enumerate_failures(scenario.network, kinds=("link",))
        assert_parity(scenario.network, cases)

    def test_abilene_node_failures(self):
        scenario = abilene_scenario()
        cases = enumerate_failures(scenario.network, kinds=("node",))
        assert_parity(scenario.network, cases)


class TestIncrementalRerouter:
    def test_base_matrix_matches_builder(self, dumbbell_network):
        rerouter = IncrementalRerouter(dumbbell_network)
        built = build_routing_matrix(dumbbell_network)
        np.testing.assert_array_equal(rerouter.base_matrix.matrix, built.matrix)

    def test_only_affected_pairs_rerouted(self, dumbbell_network):
        rerouter = IncrementalRerouter(dumbbell_network)
        matrix, result = rerouter.reroute_matrix(failed_links=("A->B",))
        assert NodePair("A", "B") in result.rerouted
        # Demands inside the other triangle never touched A->B.
        assert NodePair("D", "E") not in result.rerouted
        np.testing.assert_array_equal(
            matrix.pair_column(NodePair("D", "E")),
            rerouter.base_matrix.pair_column(NodePair("D", "E")),
        )

    def test_bridge_failure_reports_infeasible_pairs(self, dumbbell_network):
        rerouter = IncrementalRerouter(dumbbell_network)
        result = rerouter.reroute(failed_links=("C->D",))
        # Every left->right demand crossed C->D; the reverse direction is fine.
        left, right = {"A", "B", "C"}, {"D", "E", "F"}
        expected = {
            NodePair(a, b)
            for a in left
            for b in right
        }
        assert set(result.infeasible) == expected
        assert not result.is_feasible
        assert all(result.paths[pair] is None for pair in expected)

    def test_failed_endpoint_pairs_infeasible(self, dumbbell_network):
        rerouter = IncrementalRerouter(dumbbell_network)
        result = rerouter.reroute(failed_nodes=("A",))
        assert all(
            "A" in (pair.origin, pair.destination) for pair in result.infeasible
        )
        assert len(result.infeasible) == 2 * (dumbbell_network.num_nodes - 1)

    def test_infeasible_pair_has_zero_column(self, dumbbell_network):
        rerouter = IncrementalRerouter(dumbbell_network)
        matrix, result = rerouter.reroute_matrix(failed_links=("C->D",))
        for pair in result.infeasible:
            assert matrix.pair_column(pair).sum() == 0.0

    def test_fallback_lsps_hold_no_reservation(self):
        # Line A-B-C-D: the 90 Mbit/s A->D LSP reserves every link; the
        # 50 Mbit/s B->C LSP cannot be placed (only 10 left on its only
        # route) and falls back unreserved.  The rerouter's replayed
        # reservation state must match the CSPF router's exactly — treating
        # the fallback as a holder would release phantom capacity on repair.
        from repro.routing import CSPFRouter, LSPMesh
        from repro.topology import Link, Network, Node

        network = Network("line4")
        for name in ("A", "B", "C", "D"):
            network.add_node(Node(name=name))
        for a, b in (("A", "B"), ("B", "C"), ("C", "D")):
            network.add_bidirectional_link(
                Link(source=a, target=b, capacity_mbps=100.0, metric=1.0)
            )
        bandwidths = {pair: 0.0 for pair in network.node_pairs()}
        bandwidths[NodePair("A", "D")] = 90.0
        bandwidths[NodePair("B", "C")] = 50.0

        rerouter = IncrementalRerouter(network, bandwidths=bandwidths)
        router = CSPFRouter(network)
        router.signal_mesh(LSPMesh(network, bandwidths=bandwidths), order="bandwidth")
        assert rerouter._base_reserved == router.reservations.snapshot()
        assert NodePair("A", "D") in rerouter._reservation_holders
        assert NodePair("B", "C") not in rerouter._reservation_holders

    def test_cspf_bandwidth_mode_respects_capacity(self):
        # Two parallel two-hop routes between access nodes; the second LSP
        # must avoid the link the first one filled.
        from repro.topology import Link, Network, Node

        network = Network("diamond")
        for name in ("S", "X", "Y", "T"):
            network.add_node(Node(name=name))
        for a, b in (("S", "X"), ("X", "T"), ("S", "Y"), ("Y", "T")):
            network.add_bidirectional_link(
                Link(source=a, target=b, capacity_mbps=100.0, metric=1.0)
            )
        bandwidths = {pair: 0.0 for pair in network.node_pairs()}
        bandwidths[NodePair("S", "T")] = 90.0
        bandwidths[NodePair("X", "Y")] = 90.0
        rerouter = IncrementalRerouter(network, bandwidths=bandwidths)
        st_links = np.flatnonzero(rerouter.base_matrix.pair_column(NodePair("S", "T")))
        xy_links = np.flatnonzero(rerouter.base_matrix.pair_column(NodePair("X", "Y")))
        # Both demands need 90 of 100 Mbit/s: their paths cannot share a link.
        assert not (set(st_links) & set(xy_links))


class TestWhatIfEngine:
    def test_baseline_routing_is_base_matrix(self, dumbbell_network):
        engine = WhatIfEngine(dumbbell_network)
        routing, result = engine.routing_for(BASELINE)
        assert routing is engine.base_routing
        assert result.is_feasible and not result.rerouted

    def test_case_routing_is_cached(self, dumbbell_network):
        engine = WhatIfEngine(dumbbell_network)
        case = FailureCase(name="link:A->B", kind="link", failed_links=("A->B",))
        first = engine.routing_for(case)
        assert engine.routing_for(case) is first

    def test_cache_keys_on_failed_elements_not_name(self, dumbbell_network):
        engine = WhatIfEngine(dumbbell_network)
        first = FailureCase(name="same", kind="link", failed_links=("A->B",))
        second = FailureCase(name="same", kind="link", failed_links=("C->D",))
        engine.routing_for(first)
        _, result = engine.routing_for(second)
        assert result.failed_links == ("C->D",)
        assert not result.is_feasible  # the bridge failure partitions

    def test_unknown_elements_raise_planning_error(self, dumbbell_network):
        from repro.errors import PlanningError

        engine = WhatIfEngine(dumbbell_network)
        case = FailureCase(name="link:X", kind="link", failed_links=("X->Y",))
        with pytest.raises(PlanningError):
            engine.routing_for(case)

    def test_cache_is_bounded(self, dumbbell_network):
        engine = WhatIfEngine(dumbbell_network, cache_size=2)
        cases = enumerate_failures(dumbbell_network, kinds=("link",))[:4]
        for case in cases:
            engine.routing_for(case)
        assert len(engine._case_cache) == 2

    def test_worst_case_picks_binding_failure(self, dumbbell_scenario):
        engine = dumbbell_scenario.planning()
        truth = dumbbell_scenario.busy_mean_matrix()
        cases = enumerate_failures(dumbbell_scenario.network, kinds=("link",))
        worst = engine.worst_case(truth, cases=cases, feasible_only=True)
        projections = [
            engine.project(truth, case)
            for case in cases
        ]
        feasible = [p for p in projections if p.is_feasible]
        assert worst.max_utilisation == max(p.max_utilisation for p in feasible)

    def test_from_routing_adopts_the_matrix(self, dumbbell_scenario):
        routing = dumbbell_scenario.routing
        adopted = WhatIfEngine.from_routing(routing, utilisation_threshold=0.5, cache_size=4)
        routed = WhatIfEngine(dumbbell_scenario.network)
        assert adopted.base_routing is routing
        assert adopted.network is dumbbell_scenario.network
        assert adopted.utilisation_threshold == 0.5
        truth = dumbbell_scenario.busy_mean_matrix()
        for case in enumerate_failures(
            dumbbell_scenario.network, kinds=("link", "node"), include_baseline=True
        ):
            matrix, result = adopted.routing_for(case)
            reference, reference_result = routed.routing_for(case)
            assert matrix.pairs is routing.pairs
            np.testing.assert_array_equal(matrix.matrix, reference.matrix)
            assert result == reference_result
            np.testing.assert_array_equal(
                adopted.project(truth, case).utilisations,
                routed.project(truth, case).utilisations,
            )

    def test_scenario_projections_share_one_pair_tuple(self):
        scenario = europe_scenario()
        engine = scenario.planning()
        truth = scenario.busy_mean_matrix()
        assert truth.pairs is scenario.routing.pairs
        case = enumerate_failures(scenario.network, kinds=("link",))[0]
        assert engine.routing_for(case)[0].pairs is truth.pairs

    def test_from_routing_rejects_bad_input(self, dumbbell_network):
        from repro.errors import PlanningError, RoutingError
        from repro.routing import RoutingMatrix

        base = build_routing_matrix(dumbbell_network)
        with pytest.raises(PlanningError):
            WhatIfEngine.from_routing(base, cache_size=0)
        bare = RoutingMatrix(base.matrix, base.link_names, base.pairs)
        with pytest.raises(RoutingError):
            WhatIfEngine.from_routing(bare)

    def test_scenario_planning_entry_point(self, dumbbell_scenario):
        engine = dumbbell_scenario.planning(utilisation_threshold=0.5)
        assert isinstance(engine, WhatIfEngine)
        assert engine.utilisation_threshold == 0.5
        assert engine.base_routing is dumbbell_scenario.routing
        np.testing.assert_array_equal(
            engine.base_routing.matrix, dumbbell_scenario.routing.matrix
        )


def failure_cases(network):
    return enumerate_failures(network, kinds=("link", "node"))


def banned_rows(network, case):
    """Rows of the failed links and of every link incident to a failed node."""
    names = set(case.failed_links)
    for node in case.failed_nodes:
        names.update(link.name for link in network.outgoing_links(node))
        names.update(link.name for link in network.incoming_links(node))
    return [network.link_index(name) for name in names]


class TestFromRoutingParity:
    """A rerouter over a scenario's routing matrix matches a full rebuild."""

    @pytest.mark.parametrize(
        "build",
        [
            europe_scenario,
            # ~25 s, nearly all of it in the from-scratch reference rebuilds.
            pytest.param(america_scenario, marks=pytest.mark.slow),
            abilene_scenario,
        ],
        ids=lambda build: build.__name__,
    )
    def test_every_single_link_and_node_failure(self, build):
        scenario = build()
        network, base = scenario.network, scenario.routing
        rerouter = IncrementalRerouter.from_routing(base)
        routed = IncrementalRerouter(network)
        for case in failure_cases(network):
            matrix, result = rerouter.reroute_matrix(case.failed_links, case.failed_nodes)
            full, infeasible = full_rebuild_routing(network, case)
            np.testing.assert_array_equal(matrix.matrix, full.matrix, err_msg=case.name)
            assert result.infeasible == infeasible, case.name
            touched = np.flatnonzero(base.matrix[banned_rows(network, case)].any(axis=0))
            assert result.rerouted == tuple(base.pairs[col] for col in touched), case.name
            _, reference = routed.reroute_matrix(case.failed_links, case.failed_nodes)
            assert result.rerouted == reference.rerouted, case.name
            assert result.infeasible == reference.infeasible, case.name
            assert matrix.pairs is base.pairs

    def test_requires_a_network(self, dumbbell_network):
        from repro.errors import RoutingError
        from repro.routing import RoutingMatrix

        base = build_routing_matrix(dumbbell_network)
        bare = RoutingMatrix(base.matrix, base.link_names, base.pairs)
        with pytest.raises(RoutingError):
            IncrementalRerouter.from_routing(bare)

    def test_ecmp_base_keeps_fractional_columns(self):
        # Square A-B-D / A-C-D splits A->D (and A->E through D) over two
        # equal-cost paths; the detour C->E is longer.  Failing D->E moves
        # only the pairs that crossed it.
        from repro.topology import Link, Network, Node

        network = Network("square")
        for name in ("A", "B", "C", "D", "E"):
            network.add_node(Node(name=name))
        for a, b, metric in (
            ("A", "B", 1.0), ("B", "D", 1.0), ("A", "C", 1.0),
            ("C", "D", 1.0), ("D", "E", 1.0), ("C", "E", 5.0),
        ):
            network.add_bidirectional_link(
                Link(source=a, target=b, capacity_mbps=100.0, metric=metric)
            )
        base = build_ecmp_routing_matrix(network)
        rerouter = IncrementalRerouter.from_routing(base)
        matrix, result = rerouter.reroute_matrix(failed_links=("D->E",))

        split = NodePair("A", "D")
        assert split not in result.rerouted
        assert set(base.pair_column(split)) == {0.0, 0.5}
        moved = np.zeros(base.num_pairs, dtype=bool)
        moved[[base.pair_index(pair) for pair in result.rerouted]] = True
        assert moved[base.pair_index(NodePair("A", "E"))]
        np.testing.assert_array_equal(matrix.matrix[:, ~moved], base.matrix[:, ~moved])
        # The rerouted A->E takes the single surviving shortest path A-C-E.
        rerouted = matrix.pair_column(NodePair("A", "E"))
        assert set(np.flatnonzero(rerouted)) == {
            network.link_index("A->C"), network.link_index("C->E")
        }
        assert set(rerouted) == {0.0, 1.0}
