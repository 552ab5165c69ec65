"""Incremental re-routing of an LSP mesh after element failures.

Failure what-if analysis asks the same question for hundreds of cases: "if
these links or nodes go down, where does every demand flow?".  Re-signalling
the full mesh from scratch for each case repeats work — most demands never
touched the failed element and keep their path (removing links or nodes can
only *remove* candidate paths, so a surviving shortest path stays shortest,
and the deterministic lexicographic tie-breaking keeps the same winner).

:class:`IncrementalRerouter` exploits that: it reads the base routing matrix
instead of routing the mesh again.  The CSR rows of the failed links name
the affected pairs, and for each failure case only those are re-routed —
over the *base* network with the failed elements masked out, so no
per-case topology object is ever constructed.  The post-failure routing
matrix is likewise rebuilt incrementally: the base coordinates are kept
and only the affected columns are replaced.

In the default zero-bandwidth (pure IGP) mode a case costs one
``scipy.sparse.csgraph.dijkstra`` call over the affected origins on the
network's cached, masked ``graph_view``, and the result — paths and costs
included — is *identical* to a from-scratch re-signal of the surviving
topology.  With per-LSP ``bandwidths`` the rerouter mimics RSVP-TE repair
with one python Dijkstra per LSP: the reservations of the torn-down LSPs
are released and the affected LSPs are re-signalled in descending
bandwidth order against the surviving reservation state (falling back to
the unconstrained shortest path exactly like non-strict
:class:`~repro.routing.cspf.CSPFRouter`); the signalling order of the
unaffected LSPs then differs from a global re-optimisation, as it would on
a real network where established tunnels stay put.

Demands whose endpoints fail, or that a partition leaves with no surviving
path, are reported as *infeasible* (``None`` paths / all-zero routing
columns) rather than raising, so planning layers can produce structured
"this failure disconnects the network" records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np
import scipy.sparse

from repro.errors import RoutingError
from repro.routing.cspf import CSPFRouter
from repro.routing.lsp import LSPMesh
from repro.routing.routing_matrix import RoutingMatrix, build_routing_matrix
from repro.routing.shortest_path import Path, _csgraph_routes, constrained_dijkstra
from repro.topology.elements import Link, NodePair, pair_order
from repro.topology.network import Network

__all__ = ["RerouteResult", "IncrementalRerouter"]


@dataclass(frozen=True)
class RerouteResult:
    """Outcome of re-routing the mesh around a set of failed elements.

    Attributes
    ----------
    failed_links, failed_nodes:
        The failed elements (links incident to failed nodes are implied).
    paths:
        Post-failure path of every rerouted pair, in canonical order;
        ``None`` marks a pair the failure disconnects.  Pairs not listed
        kept their base path (their column of the base routing matrix).
    rerouted:
        Pairs whose base path traversed a failed element (in canonical
        order); all other pairs kept their base path.
    infeasible:
        The subset of ``rerouted`` left without any surviving path.
    """

    failed_links: tuple[str, ...]
    failed_nodes: tuple[str, ...]
    paths: dict[NodePair, Optional[Path]]
    rerouted: tuple[NodePair, ...]
    infeasible: tuple[NodePair, ...]

    @property
    def is_feasible(self) -> bool:
        """Whether every demand still has a path."""
        return not self.infeasible


class IncrementalRerouter:
    """Re-route only the demands a failure actually touches.

    The rerouter keeps one representation of the intact mesh, its base
    :class:`~repro.routing.routing_matrix.RoutingMatrix`: the CSR rows of
    the failed links name the affected pairs, and the base coordinates
    (with their values, so a fractional ECMP base keeps its splits in the
    unaffected columns) seed the post-failure rebuild.
    :meth:`from_routing` adopts an existing matrix without routing
    anything; the constructor routes the mesh itself.  An IGP failure case
    costs one masked csgraph Dijkstra; CSPF repair one python Dijkstra per
    affected LSP.

    Parameters
    ----------
    network:
        The base topology.
    bandwidths:
        Optional per-pair LSP bandwidth values.  When given, the base mesh
        is signalled with CSPF (largest LSPs first) and failure repair
        honours the surviving reservations; when omitted (default) routing
        is pure IGP shortest path and incremental re-routing is provably
        identical to a from-scratch rebuild.  Only this mode keeps the
        intact mesh's :class:`~repro.routing.shortest_path.Path` objects,
        which repair needs to release the torn-down reservations.
    """

    def __init__(
        self,
        network: Network,
        bandwidths: Optional[Mapping[NodePair, float]] = None,
    ) -> None:
        values = {pair: float(value) for pair, value in (bandwidths or {}).items()}
        unknown = set(values) - set(network.node_pairs())
        if unknown:
            raise RoutingError(
                f"bandwidths reference unknown pairs: {sorted(map(str, unknown))}"
            )
        paths: dict[NodePair, Path] = {}
        if values:
            mesh = LSPMesh(network, bandwidths=values)
            paths = dict(CSPFRouter(network).signal_mesh(mesh, order="bandwidth"))
        self._adopt(build_routing_matrix(network, paths=paths or None), values, paths)

    @classmethod
    def from_routing(cls, routing: RoutingMatrix) -> "IncrementalRerouter":
        """Rerouter over an existing IGP routing matrix (no routing is redone).

        ``routing`` must carry its ``network``; post-failure matrices share
        its pair tuple and link order.
        """
        rerouter = cls.__new__(cls)
        rerouter._adopt(routing, {}, {})
        return rerouter

    def _adopt(
        self,
        routing: RoutingMatrix,
        bandwidths: dict[NodePair, float],
        paths: dict[NodePair, Path],
    ) -> None:
        if routing.network is None:
            raise RoutingError("routing matrix carries no network; cannot re-route it")
        if routing.link_names != routing.network.link_names:
            raise RoutingError("routing matrix rows do not follow its network's link order")
        self.network = routing.network
        self.base_matrix = routing
        self.pairs = routing.pairs
        self.bandwidths = bandwidths
        self._base_paths = paths
        self._pair_position = pair_order(self.pairs).index
        # Rows of the failed links -> affected pairs; the canonical CSR ->
        # rebuilds (copied first: csr_matrix shares the routing's arrays).
        by_link = scipy.sparse.csr_matrix(routing.native)
        if not by_link.has_canonical_format:
            by_link = by_link.copy()
            by_link.sum_duplicates()
        self._by_link = by_link
        # Which LSPs actually hold a reservation: non-strict CSPF routes an
        # unplaceable LSP along the unconstrained shortest path *without*
        # reserving bandwidth, so the repair path must not release for it.
        self._base_reserved, self._reservation_holders = self._replay_reservations(paths)

    def _replay_reservations(
        self, paths: Mapping[NodePair, Path]
    ) -> tuple[dict[str, float], set[NodePair]]:
        """Reconstruct the RSVP reservation state behind ``paths``.

        Replays admission in the CSPF signalling order (largest bandwidth
        first, pair-name tie-break): an LSP whose path has enough free
        capacity at its turn reserves it; one that does not was a
        non-strict fallback and holds nothing.  For paths produced by
        :meth:`CSPFRouter.signal_mesh` this reproduces the router's exact
        reserved table and holder set.
        """
        reserved = {name: 0.0 for name in self.network.link_names}
        holders: set[NodePair] = set()
        capacity = {name: self.network.link(name).capacity_mbps for name in reserved}
        order = sorted(
            (pair for pair, bandwidth in self.bandwidths.items() if bandwidth > 0.0),
            key=lambda pair: (-self.bandwidths[pair], str(pair)),
        )
        for pair in order:
            bandwidth = self.bandwidths[pair]
            links = paths[pair].link_names()
            if all(capacity[name] - reserved[name] >= bandwidth - 1e-9 for name in links):
                for name in links:
                    reserved[name] += bandwidth
                holders.add(pair)
        return reserved, holders

    # ------------------------------------------------------------------
    # failure analysis
    # ------------------------------------------------------------------
    def _expand_failed(
        self, failed_links: Iterable[str], failed_nodes: Iterable[str]
    ) -> tuple[set[str], set[str]]:
        links = set(failed_links)
        nodes = set(failed_nodes)
        for name in links:
            self.network.link(name)
        for name in nodes:
            self.network.node(name)
            for link in self.network.outgoing_links(name):
                links.add(link.name)
            for link in self.network.incoming_links(name):
                links.add(link.name)
        return links, nodes

    def _affected_from(self, banned_links: set[str]) -> tuple[NodePair, ...]:
        """Pairs whose base path crosses a banned link, in canonical order.

        A failed node's incident links are banned too, so the rows of the
        banned links cover every path through, from or to it.
        """
        rows = [self.network.link_index(name) for name in banned_links]
        columns = np.unique(self._by_link[rows].indices)
        return tuple(self.pairs[column] for column in columns)

    def _shortest_path_excluding(
        self,
        pair: NodePair,
        banned_links: set[str],
        banned_nodes: set[str],
        available: Optional[dict[str, float]] = None,
        bandwidth: float = 0.0,
    ) -> Optional[Path]:
        """Python Dijkstra over the surviving elements (CSPF and fallback path).

        With ``available`` it also skips links with less unreserved
        bandwidth than ``bandwidth`` (the CSPF admission test); returns
        ``None`` when the destination is unreachable.
        """

        def usable(link: Link) -> bool:
            if link.name in banned_links or link.target in banned_nodes:
                return False
            if available is not None and bandwidth > 0.0:
                return available[link.name] >= bandwidth - 1e-9
            return True

        return constrained_dijkstra(
            self.network, pair, lambda link: link.metric, usable=usable
        )

    def reroute(
        self, failed_links: Iterable[str] = (), failed_nodes: Iterable[str] = ()
    ) -> RerouteResult:
        """Re-route the mesh around the failed elements.

        Only the affected pairs are re-routed; everything else keeps its
        base path.  Pairs whose origin or destination failed, and pairs the
        failure partitions away from their destination, come back with a
        ``None`` path in :attr:`RerouteResult.paths`.
        """
        failed_links = tuple(failed_links)
        failed_nodes = tuple(failed_nodes)
        banned_links, banned_nodes = self._expand_failed(failed_links, failed_nodes)
        affected = self._affected_from(banned_links)
        paths: dict[NodePair, Optional[Path]] = dict.fromkeys(affected)
        live = [pair for pair in affected if not {pair.origin, pair.destination} & banned_nodes]

        routes = None
        if live and not self.bandwidths:
            # IGP: one masked csgraph Dijkstra over every affected origin.
            usable = np.ones(self.network.num_links, dtype=bool)
            usable[[self.network.link_index(name) for name in banned_links]] = False
            wanted: dict[str, list[str]] = {}
            for pair in live:
                wanted.setdefault(pair.origin, []).append(pair.destination)
            metrics = self.network.graph_view().metrics
            routes = _csgraph_routes(self.network, wanted, metrics, usable)
        if routes is not None:
            for pair in live:
                route = routes[pair.origin].get(pair.destination)
                paths[pair] = None if route is None else Path(pair, *route)
            live = []  # nothing left for the python Dijkstra below

        available: Optional[dict[str, float]] = None
        if self.bandwidths:
            # RSVP-TE repair: release the torn-down reservations — only for
            # LSPs that actually hold one; non-strict fallbacks reserved
            # nothing — then re-signal the affected LSPs largest-first
            # against what is left.
            reserved = dict(self._base_reserved)
            for pair in affected:
                bandwidth = self.bandwidths.get(pair, 0.0)
                if bandwidth and pair in self._reservation_holders:
                    for link in self._base_paths[pair].links:
                        reserved[link.name] -= bandwidth
            available = {
                name: self.network.link(name).capacity_mbps - reserved[name]
                for name in self.network.link_names
            }
            live.sort(key=lambda pair: (-self.bandwidths.get(pair, 0.0), str(pair)))

        for pair in live:
            bandwidth = self.bandwidths.get(pair, 0.0)
            path = self._shortest_path_excluding(
                pair, banned_links, banned_nodes, available=available, bandwidth=bandwidth
            )
            if path is None and bandwidth > 0.0:
                # Non-strict CSPF: fall back to the unconstrained surviving
                # shortest path without reserving bandwidth.
                path = self._shortest_path_excluding(pair, banned_links, banned_nodes)
                bandwidth = 0.0
            if available is not None and path is not None and bandwidth > 0.0:
                for link in path.links:
                    available[link.name] -= bandwidth
            paths[pair] = path

        return RerouteResult(
            failed_links=tuple(sorted(set(failed_links))),
            failed_nodes=tuple(sorted(set(failed_nodes))),
            paths=paths,
            rerouted=affected,
            infeasible=tuple(pair for pair, path in paths.items() if path is None),
        )

    def reroute_matrix(
        self,
        failed_links: Iterable[str] = (),
        failed_nodes: Iterable[str] = (),
        backend: str = "auto",
    ) -> tuple[RoutingMatrix, RerouteResult]:
        """Post-failure routing matrix, rebuilt incrementally.

        The base matrix's coordinates are reused: entries of unaffected
        columns are kept as-is (values included) and only the affected
        columns are replaced with the re-routed paths (infeasible pairs
        become all-zero columns).  Rows and columns stay the *base*
        matrix's, pair tuple included, so post-failure matrices of
        different cases stay directly comparable.
        """
        result = self.reroute(failed_links, failed_nodes)
        base = self.base_matrix
        if not result.rerouted:
            return (base if backend == "auto" else base.with_backend(backend)), result

        moved = np.zeros(len(self.pairs), dtype=bool)
        moved[[self._pair_position[pair] for pair in result.rerouted]] = True
        # Drop the moved columns' entries row by row; both summands are
        # canonical, so their sum is the canonical post-failure CSR.
        by_link = self._by_link
        keep = ~moved[by_link.indices]
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        kept = scipy.sparse.csr_matrix(
            (by_link.data[keep], by_link.indices[keep], kept_before[by_link.indptr]),
            shape=base.shape,
        )
        new_rows: list[int] = []
        new_cols: list[int] = []
        for pair, path in result.paths.items():
            if path is None:
                continue
            col = self._pair_position[pair]
            for link in path.links:
                new_rows.append(self.network.link_index(link.name))
                new_cols.append(col)
        routed = scipy.sparse.coo_matrix(
            (np.ones(len(new_rows)), (new_rows, new_cols)), shape=base.shape
        ).tocsr()
        matrix = RoutingMatrix(
            kept + routed, base.link_names, self.pairs, network=self.network, backend=backend
        )
        return matrix, result
