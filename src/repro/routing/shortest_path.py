"""Shortest-path (IGP) routing over a :class:`~repro.topology.network.Network`.

The paper assumes single-path routing for each demand (its routing matrix is
0/1) but notes that fractional routing matrices cover multi-path cases.  This
module provides both:

* :class:`ShortestPathRouter` — Dijkstra routing on link metrics, producing a
  single path per origin-destination pair with deterministic tie-breaking;
* equal-cost multi-path (ECMP) enumeration via
  :meth:`ShortestPathRouter.all_shortest_paths`, used by the fractional
  routing-matrix builder.

Paths are represented as :class:`Path` objects carrying both the node
sequence and the link sequence, which is what the routing-matrix builder
needs.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.errors import RoutingError
from repro.topology.elements import Link, NodePair
from repro.topology.network import Network

__all__ = [
    "Path",
    "ShortestPathRouter",
    "constrained_dijkstra",
    "single_source_shortest_paths",
]

#: Below this many nodes the pure-python sweep wins (no csgraph call
#: overhead, no reconstruction pass); ``engine="auto"`` only batches
#: through scipy at or above it.
_CSGRAPH_MIN_NODES = 64

#: Cost tolerance shared with :func:`_dijkstra_sweep`: paths within this
#: of the optimum count as equal cost for tie-breaking purposes.
_TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Path:
    """A routed path through the network.

    Attributes
    ----------
    pair:
        The origin-destination pair this path serves.
    nodes:
        Node names from origin to destination, inclusive.
    links:
        The directed links traversed, in order.
    cost:
        Total metric of the path.
    """

    pair: NodePair
    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    cost: float

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise RoutingError(f"path for {self.pair} must visit at least two nodes")
        if len(self.links) != len(self.nodes) - 1:
            raise RoutingError(
                f"path for {self.pair} has {len(self.links)} links "
                f"but {len(self.nodes)} nodes"
            )
        if self.nodes[0] != self.pair.origin or self.nodes[-1] != self.pair.destination:
            raise RoutingError(f"path endpoints do not match pair {self.pair}")

    @property
    def hop_count(self) -> int:
        """Number of links traversed."""
        return len(self.links)

    def link_names(self) -> tuple[str, ...]:
        """Names of the traversed links, in order."""
        return tuple(link.name for link in self.links)

    def uses_link(self, link_name: str) -> bool:
        """Return whether the path traverses the named link."""
        return any(link.name == link_name for link in self.links)

    def bottleneck_capacity(self) -> float:
        """Smallest capacity along the path in Mbit/s."""
        return min(link.capacity_mbps for link in self.links)

    def __iter__(self) -> Iterator[Link]:
        return iter(self.links)

    def __len__(self) -> int:
        return len(self.links)


def _dijkstra_sweep(
    network: Network,
    origin: str,
    link_cost: Callable[[Link], float],
    usable: Optional[Callable[[Link], bool]],
    target: Optional[str],
) -> tuple[dict[str, float], dict[str, tuple[tuple[str, ...], tuple[Link, ...]]]]:
    """The one Dijkstra relaxation of the routing substrate.

    Deterministic tie-breaking — the lexicographically smallest node
    sequence among equal-cost paths, with heap order matching — lives only
    here, so it cannot drift between the per-pair and the single-source
    entry points.  ``target`` enables the classic early exit; it cannot
    change any recorded route because link costs are strictly positive
    (``Link`` validates this), so once a node is popped no later
    relaxation can reach it at an equal-or-better cost.
    """
    best_cost: dict[str, float] = {origin: 0.0}
    best_route: dict[str, tuple[tuple[str, ...], tuple[Link, ...]]] = {origin: ((origin,), ())}
    heap: list[tuple[float, tuple[str, ...], str]] = [(0.0, (origin,), origin)]
    visited: set[str] = set()
    while heap:
        _, _, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == target:
            break
        # Relax from the recorded route's cost, not the popped one: an
        # equal-cost, lexicographically smaller route may have replaced the
        # route that was pushed, and a path's cost must be its links' sum.
        cost = best_cost[node]
        for link in network.outgoing_links(node):
            if usable is not None and not usable(link):
                continue
            next_cost = cost + link_cost(link)
            nodes, links = best_route[node]
            candidate = (nodes + (link.target,), links + (link,))
            current = best_cost.get(link.target)
            if (
                current is None
                or next_cost < current - 1e-12
                or (
                    abs(next_cost - current) <= 1e-12
                    and candidate[0] < best_route[link.target][0]
                )
            ):
                best_cost[link.target] = next_cost
                best_route[link.target] = candidate
                heapq.heappush(heap, (next_cost, candidate[0], link.target))
    return best_cost, best_route


def constrained_dijkstra(
    network: Network,
    pair: NodePair,
    link_cost: Callable[[Link], float],
    usable: Optional[Callable[[Link], bool]] = None,
) -> Optional[Path]:
    """Deterministic Dijkstra with an optional link filter.

    This is the python shortest-path implementation of the routing
    substrate: :class:`ShortestPathRouter` (IGP),
    :class:`~repro.routing.cspf.CSPFRouter` (bandwidth admission via
    ``usable``) and the CSPF repair of
    :class:`~repro.routing.incremental.IncrementalRerouter` call it, and
    :func:`single_source_shortest_paths` runs the same sweep without the
    early exit.  The compiled engine (:func:`_csgraph_routes`) rebuilds
    exactly the routes of :func:`_dijkstra_sweep`, so tie-breaking — the
    lexicographically smallest node sequence among equal-cost paths —
    cannot drift between callers.

    Returns ``None`` when the destination is unreachable over the usable
    links (callers decide whether that is an error, a fallback, or an
    infeasible planning record).
    """
    best_cost, best_route = _dijkstra_sweep(
        network, pair.origin, link_cost, usable, pair.destination
    )
    if pair.destination not in best_route:
        return None
    nodes, links = best_route[pair.destination]
    if len(nodes) < 2:
        return None
    return Path(pair=pair, nodes=nodes, links=links, cost=best_cost[pair.destination])


def single_source_shortest_paths(
    network: Network,
    origin: str,
    link_cost: Callable[[Link], float],
    usable: Optional[Callable[[Link], bool]] = None,
) -> dict[str, tuple[tuple[str, ...], tuple[Link, ...], float]]:
    """One Dijkstra serving every destination reachable from ``origin``.

    Returns ``{destination: (nodes, links, cost)}`` for every node other
    than ``origin`` that the usable links reach.  This runs the shared
    :func:`_dijkstra_sweep` with no early-exit target, so the route
    recorded for each destination is exactly what
    :func:`constrained_dijkstra` would return for it.

    This is the all-pairs fast path: routing ``N`` origins costs ``N`` full
    Dijkstras instead of the ``N * (N - 1)`` truncated ones of a per-pair
    loop, which is what makes 200+-node backbones routable in well under a
    second.
    """
    best_cost, best_route = _dijkstra_sweep(network, origin, link_cost, usable, None)
    return {
        node: (nodes, links, best_cost[node])
        for node, (nodes, links) in best_route.items()
        if node != origin
    }


def _load_csgraph():
    """Import hook for :mod:`scipy.sparse.csgraph` (monkeypatchable).

    Kept as a module-level seam so tests can force the python fallback by
    patching it to raise, and so a scipy build missing the feature degrades
    gracefully instead of crashing ``route_all``.
    """
    from scipy.sparse import csgraph

    if not hasattr(csgraph, "dijkstra"):
        raise ImportError("scipy.sparse.csgraph has no dijkstra")
    return csgraph


Routes = dict[str, dict[str, tuple[tuple[str, ...], tuple[Link, ...], float]]]


def _csgraph_routes(
    network: Network,
    wanted: Mapping[str, Sequence[str]],
    weights: np.ndarray,
    usable: Optional[np.ndarray] = None,
) -> Optional[Routes]:
    """Routes of many origins from one vectorised csgraph Dijkstra.

    ``wanted`` maps each origin to the destinations to route; ``weights``
    and ``usable`` (optional mask) are per link.  Returns ``{origin:
    {destination: (nodes, links, cost)}}``, exactly as :func:`_dijkstra_sweep`
    records them, unreachable destinations left out — or ``None``, after a
    ``RuntimeWarning``, when scipy lacks csgraph or its distances cannot be
    reconciled; callers then run the python sweep.

    A node's route extends that of one of its *tight* predecessors (on a
    shortest path of the distance row), resolved first by a memoised walk
    back.  Only at a tie are full candidate sequences compared (predecessor
    route plus the node: a route that is a proper prefix of another sorts
    first alone, not always once extended), and the first of parallel
    tight links wins.  Costs are summed link by link.
    """
    try:
        csgraph = _load_csgraph()
    except (ImportError, AttributeError) as exc:
        return _csgraph_unavailable(str(exc))
    view = network.graph_view()
    names, links = view.names, network.links
    sources, costs = view.sources.tolist(), weights.tolist()
    origins = list(wanted)
    distances = np.atleast_2d(
        csgraph.dijkstra(
            view.adjacency(weights, usable),
            directed=True,
            indices=[view.index[origin] for origin in origins],
        )
    )
    routes: Routes = {}
    for origin, row in zip(origins, distances):
        # Unreachable sources are masked before subtracting (inf - inf).
        reached = np.isfinite(row[view.sources])
        if usable is not None:
            reached &= usable
        start = np.where(reached, row[view.sources], 0.0)
        end = np.where(reached, row[view.targets], 0.0)
        tight = (
            reached & (start < end) & (np.abs(start + weights - end) <= _TIE_TOLERANCE)
        ).tolist()
        home = view.index[origin]
        tree = {home: ((origin,), (), 0.0)}
        targets = [view.index[name] for name in wanted[origin]]
        targets = [node for node in targets if node != home and np.isfinite(row[node])]
        for target in targets:
            stack = [target]
            while stack:
                node = stack[-1]
                if node in tree:
                    stack.pop()
                    continue
                best = None
                pending = False
                for link in view.incoming[node]:
                    if not tight[link]:
                        continue
                    route = tree.get(sources[link])
                    if route is None:
                        stack.append(sources[link])
                        pending = True
                    elif not pending:
                        nodes = route[0] + (names[node],)
                        if best is None or nodes < best[0]:
                            best = (nodes, route[1] + (links[link],), route[2] + costs[link])
                if pending:
                    continue
                if best is None:
                    return _csgraph_unavailable(
                        f"csgraph distance for node {names[node]!r} has no optimal "
                        "predecessor; tie tolerance diverged from the python sweep"
                    )
                tree[node] = best
                stack.pop()
        routes[origin] = {names[node]: tree[node] for node in targets}
    return routes


def _csgraph_unavailable(reason: str) -> None:
    warnings.warn(
        f"csgraph routing unavailable ({reason}); falling back to the python Dijkstra sweep",
        RuntimeWarning,
        stacklevel=4,
    )


class ShortestPathRouter:
    """Dijkstra single-path and ECMP routing on link metrics.

    Parameters
    ----------
    network:
        The topology to route over.
    metric_attribute:
        Which link attribute to minimise; ``"metric"`` (default) gives IGP
        routing, ``"hops"`` gives minimum-hop routing.
    engine:
        Batched-routing backend for :meth:`route_all`: ``"auto"``
        (default) uses the vectorised :mod:`scipy.sparse.csgraph` path on
        networks of :data:`_CSGRAPH_MIN_NODES` or more nodes, ``"csgraph"``
        forces it, ``"python"`` forces the pure-python sweep.  Whatever the
        engine, the routes are identical — the csgraph path reconstructs
        the same tie-breaking and falls back to the python sweep (with a
        warning) if scipy is missing the feature or its distances cannot
        be reconciled.

    Notes
    -----
    Tie-breaking is deterministic: when two paths have equal cost the one
    whose node sequence is lexicographically smaller wins.  Deterministic
    routing matters because the routing matrix must be reproducible for the
    estimation benchmarks.
    """

    def __init__(
        self,
        network: Network,
        metric_attribute: str = "metric",
        engine: str = "auto",
    ) -> None:
        if metric_attribute not in ("metric", "hops"):
            raise RoutingError(
                f"unsupported metric attribute {metric_attribute!r}; "
                "expected 'metric' or 'hops'"
            )
        if engine not in ("auto", "csgraph", "python"):
            raise RoutingError(
                f"unsupported routing engine {engine!r}; "
                "expected 'auto', 'csgraph' or 'python'"
            )
        self.network = network
        self.metric_attribute = metric_attribute
        self.engine = engine

    # ------------------------------------------------------------------
    def _link_cost(self, link: Link) -> float:
        return 1.0 if self.metric_attribute == "hops" else link.metric

    def _use_csgraph(self) -> bool:
        if self.engine == "python":
            return False
        if self.engine == "csgraph":
            return True
        return self.network.num_nodes >= _CSGRAPH_MIN_NODES

    def shortest_path(self, pair: NodePair) -> Path:
        """Return the single shortest path for ``pair``.

        Raises
        ------
        RoutingError
            If the destination is unreachable from the origin.
        """
        self.network.node(pair.origin)
        self.network.node(pair.destination)
        path = constrained_dijkstra(self.network, pair, self._link_cost)
        if path is None:
            raise RoutingError(
                f"no path from {pair.origin!r} to {pair.destination!r} "
                f"in network {self.network.name!r}"
            )
        return path

    def all_shortest_paths(self, pair: NodePair, tolerance: float = 1e-9) -> tuple[Path, ...]:
        """Return every equal-cost shortest path for ``pair`` (ECMP set).

        Parameters
        ----------
        pair:
            Origin-destination pair.
        tolerance:
            Paths whose cost is within ``tolerance`` of the optimum are
            considered equal cost.
        """
        optimum = self.shortest_path(pair).cost
        paths: list[Path] = []

        def extend(node: str, nodes: tuple[str, ...], links: tuple[Link, ...], cost: float) -> None:
            if cost > optimum + tolerance:
                return
            if node == pair.destination:
                paths.append(Path(pair=pair, nodes=nodes, links=links, cost=cost))
                return
            for link in self.network.outgoing_links(node):
                if link.target in nodes:
                    continue
                extend(
                    link.target,
                    nodes + (link.target,),
                    links + (link,),
                    cost + self._link_cost(link),
                )

        extend(pair.origin, (pair.origin,), (), 0.0)
        if not paths:
            raise RoutingError(f"no path found for pair {pair}")
        paths.sort(key=lambda p: p.nodes)
        return tuple(paths)

    def route_all(self, pairs: Optional[Sequence[NodePair]] = None) -> dict[NodePair, Path]:
        """Route every pair (default: all pairs of the network).

        Pairs are grouped by origin and served by one single-source
        Dijkstra each (:func:`single_source_shortest_paths`), so an
        ``N``-node all-pairs mesh costs ``N`` shortest-path trees instead
        of ``N * (N - 1)`` per-pair runs.  The paths — node sequences, link
        sequences and costs — are identical to calling
        :meth:`shortest_path` per pair (same relaxation, same
        tie-breaking), which the parity tests pin on every named scenario.

        Returns a mapping ordered like the canonical pair enumeration so
        that downstream consumers can build positional structures from it.
        """
        if pairs is None:
            pairs = self.network.node_pairs()
        with telemetry.span("routing.route_all", pairs=len(pairs)):
            return self._route_all_grouped(pairs)

    def _route_all_grouped(self, pairs: Sequence[NodePair]) -> dict[NodePair, Path]:
        by_origin: dict[str, list[NodePair]] = {}
        for pair in pairs:
            self.network.node(pair.origin)
            self.network.node(pair.destination)
            by_origin.setdefault(pair.origin, []).append(pair)
        # Origins serving a single requested destination keep the early
        # exit of the per-pair search; the full tree only pays off when
        # one origin amortises it over several destinations.
        tree_origins = [
            origin for origin, origin_pairs in by_origin.items() if len(origin_pairs) > 1
        ]
        trees: Optional[Routes] = None
        if tree_origins and self._use_csgraph():
            view = self.network.graph_view()
            weights = view.metrics
            if self.metric_attribute == "hops":
                weights = np.ones(len(weights))
            wanted = dict.fromkeys(tree_origins, view.names)
            trees = _csgraph_routes(self.network, wanted, weights)
        if trees is None:
            trees = {
                origin: single_source_shortest_paths(self.network, origin, self._link_cost)
                for origin in tree_origins
            }
        routed: dict[NodePair, Path] = {}
        for pair in pairs:
            tree = trees.get(pair.origin)
            if tree is None:
                routed[pair] = self.shortest_path(pair)
                continue
            route = tree.get(pair.destination)
            if route is None:
                raise RoutingError(
                    f"no path from {pair.origin!r} to {pair.destination!r} "
                    f"in network {self.network.name!r}"
                )
            nodes, links, cost = route
            routed[pair] = Path(pair=pair, nodes=nodes, links=links, cost=cost)
        return routed

    def route_all_pairwise(
        self, pairs: Optional[Sequence[NodePair]] = None
    ) -> dict[NodePair, Path]:
        """Legacy per-pair routing loop: one truncated Dijkstra per pair.

        Kept as the reference baseline the batched :meth:`route_all` is
        benchmarked and parity-tested against; production code should call
        :meth:`route_all`.
        """
        if pairs is None:
            pairs = self.network.node_pairs()
        return {pair: self.shortest_path(pair) for pair in pairs}
