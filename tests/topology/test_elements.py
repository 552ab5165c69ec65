"""Unit tests for nodes, links and node pairs."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.topology import Link, LinkKind, Node, NodePair, NodeRole, pair_order
from repro.topology.elements import pair_labels


class TestNode:
    def test_defaults(self):
        node = Node(name="LON")
        assert node.role is NodeRole.ACCESS
        assert node.population == 1.0
        assert node.pop_name == "LON"
        assert node.is_edge()

    def test_city_defines_pop_name(self):
        node = Node(name="NYC-cr2", city="NYC")
        assert node.pop_name == "NYC"

    def test_transit_node_is_not_edge(self):
        node = Node(name="T1", role=NodeRole.TRANSIT)
        assert not node.is_edge()
        assert not NodeRole.TRANSIT.terminates_traffic()

    def test_peering_node_is_edge(self):
        assert Node(name="P1", role=NodeRole.PEERING).is_edge()

    def test_empty_name_rejected(self):
        with pytest.raises(TopologyError):
            Node(name="")

    def test_negative_population_rejected(self):
        with pytest.raises(TopologyError):
            Node(name="X", population=-1.0)

    def test_nodes_are_hashable_and_orderable(self):
        nodes = {Node(name="B"), Node(name="A")}
        assert len(nodes) == 2
        assert sorted(nodes)[0].name == "A"


class TestLink:
    def test_autogenerated_name(self):
        link = Link(source="A", target="B")
        assert link.name == "A->B"
        assert link.endpoints == ("A", "B")

    def test_explicit_name_preserved(self):
        link = Link(source="A", target="B", name="core-1")
        assert link.name == "core-1"

    def test_reversed_swaps_endpoints_and_keeps_attributes(self):
        link = Link(source="A", target="B", capacity_mbps=2500.0, metric=7.0, kind=LinkKind.PEERING)
        back = link.reversed()
        assert back.source == "B" and back.target == "A"
        assert back.capacity_mbps == 2500.0
        assert back.metric == 7.0
        assert back.kind is LinkKind.PEERING

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link(source="A", target="A")

    @pytest.mark.parametrize("capacity", [0.0, -10.0])
    def test_non_positive_capacity_rejected(self, capacity):
        with pytest.raises(TopologyError):
            Link(source="A", target="B", capacity_mbps=capacity)

    @pytest.mark.parametrize("metric", [0.0, -1.0])
    def test_non_positive_metric_rejected(self, metric):
        with pytest.raises(TopologyError):
            Link(source="A", target="B", metric=metric)

    def test_edge_link_classification(self):
        assert LinkKind.ACCESS.is_edge()
        assert LinkKind.PEERING.is_edge()
        assert not LinkKind.INTERIOR.is_edge()

    def test_empty_endpoint_rejected(self):
        with pytest.raises(TopologyError):
            Link(source="", target="B")


class TestNodePair:
    def test_string_form(self):
        assert str(NodePair("A", "B")) == "A->B"

    def test_reversed(self):
        assert NodePair("A", "B").reversed() == NodePair("B", "A")

    def test_identical_endpoints_rejected(self):
        with pytest.raises(TopologyError):
            NodePair("A", "A")

    def test_empty_endpoint_rejected(self):
        with pytest.raises(TopologyError):
            NodePair("", "B")

    def test_pairs_are_hashable(self):
        pairs = {NodePair("A", "B"), NodePair("B", "A"), NodePair("A", "B")}
        assert len(pairs) == 2


class TestPairOrder:
    PAIRS = (NodePair("B", "A"), NodePair("A", "C"), NodePair("B", "C"), NodePair("C", "A"))

    def test_positions(self):
        order = pair_order(self.PAIRS)
        assert order.index == {pair: position for position, pair in enumerate(self.PAIRS)}
        assert order.origins == ("B", "A", "C")
        assert order.destinations == ("A", "C")
        assert order.origin_cols.tolist() == [0, 1, 0, 2]
        assert order.destination_cols.tolist() == [0, 1, 1, 0]
        assert not order.origin_cols.flags.writeable
        assert not order.destination_cols.flags.writeable

    def test_memoised_by_tuple_identity(self):
        assert pair_order(self.PAIRS) is pair_order(self.PAIRS)
        equal_copy = tuple(list(self.PAIRS))
        assert pair_order(equal_copy) is not pair_order(self.PAIRS)
        assert pair_order(equal_copy).index == pair_order(self.PAIRS).index

    def test_memo_is_bounded(self):
        from repro.topology import elements

        kept = pair_order(self.PAIRS)
        for _ in range(2 * elements.PAIR_ORDER_CACHE_SIZE):
            pair_order(tuple(list(self.PAIRS)))
        assert len(elements._pair_orders) <= elements.PAIR_ORDER_CACHE_SIZE
        assert pair_order(self.PAIRS) is not kept

    def test_labels_are_memoised_with_the_order(self):
        labels = pair_labels(self.PAIRS)
        assert labels == "B->A\x00A->C\x00B->C\x00C->A".encode()
        assert pair_labels(self.PAIRS) is labels
        assert pair_labels(tuple(list(self.PAIRS))) == labels

    def test_duplicates_shorten_the_index(self):
        pairs = (NodePair("A", "B"), NodePair("A", "B"))
        assert len(pair_order(pairs).index) == 1

    def test_concurrent_lookups_stay_correct_and_bounded(self):
        # More tuples than the memo holds, so threads evict each other's entries.
        import sys
        import threading

        from repro.topology import elements

        tuples = [tuple(NodePair(f"o{i}", f"d{j}") for j in range(50)) for i in range(12)]
        errors: list[BaseException] = []

        def work(offset):
            try:
                for step in range(200):
                    pairs = tuples[(offset + step) % len(tuples)]
                    order = pair_order(pairs)
                    assert order.index[pairs[-1]] == 49 and order.origins == (pairs[0].origin,)
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(elements._pair_orders) <= elements.PAIR_ORDER_CACHE_SIZE
