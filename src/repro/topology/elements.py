"""Basic network elements: nodes (PoPs / routers) and directed links.

The paper studies PoP-to-PoP traffic matrices on Global Crossing's backbone,
where core routers located in the same city are aggregated into a point of
presence (PoP).  The data model therefore distinguishes three concepts:

* :class:`Node` — a PoP or a core router.  A node has a *role*
  (:class:`NodeRole`) that records whether the node terminates traffic as an
  access point, exchanges traffic with other carriers as a peering point, or
  only transits traffic (some PoPs in the paper contain routers that only
  carry transit traffic).
* :class:`Link` — a directed link with a capacity, a propagation metric used
  by the IGP/CSPF routing algorithms, and a *kind* (:class:`LinkKind`)
  distinguishing interior backbone links from the access and peering links
  over which demand enters and exits the network (the paper's ``e(n)`` and
  ``x(m)`` links).
* :class:`NodePair` — an ordered origin-destination pair, the unit at which
  demands are expressed.

All elements are immutable value objects; the mutable container that ties
them together is :class:`repro.topology.network.Network`.

A routing matrix, the traffic matrices estimated over it and the problems
built from it all share one pair tuple.  :func:`pair_order` indexes such a
tuple once and hands every one of them the same :class:`PairOrder`.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from repro.errors import TopologyError

__all__ = [
    "NodeRole",
    "LinkKind",
    "Node",
    "Link",
    "NodePair",
    "PairOrder",
    "pair_order",
    "pair_labels",
]


class NodeRole(enum.Enum):
    """Functional role of a node in the backbone.

    The generalised gravity model of Zhang et al. treats access and peering
    nodes differently (traffic between two peering points is forced to
    zero), so the role must be part of the data model even though the simple
    gravity model studied in most of the paper ignores it.
    """

    ACCESS = "access"
    PEERING = "peering"
    TRANSIT = "transit"

    def terminates_traffic(self) -> bool:
        """Return ``True`` if demands may originate or terminate here.

        Transit nodes only forward traffic; they never appear as the source
        or destination of a point-to-point demand.
        """
        return self is not NodeRole.TRANSIT


class LinkKind(enum.Enum):
    """Classification of a directed link.

    ``INTERIOR`` links connect core routers / PoPs inside the backbone;
    ``ACCESS`` and ``PEERING`` links attach edge traffic.  Following the
    paper's Section 3.1, the access/peering link of node *n* is the link over
    which the total traffic entering (or exiting) the network at *n* is
    observed.
    """

    INTERIOR = "interior"
    ACCESS = "access"
    PEERING = "peering"

    def is_edge(self) -> bool:
        """Return ``True`` for access or peering links."""
        return self is not LinkKind.INTERIOR


@dataclass(frozen=True, order=True)
class Node:
    """A PoP or core router.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"LON"`` or ``"NYC-cr2"``.
    role:
        Functional role (access, peering or transit).
    region:
        Optional label used for sub-network extraction, e.g. ``"europe"``
        or ``"america"``.
    population:
        Relative size of the user population served by the node.  The
        synthetic traffic generators use it to shape the spatial demand
        distribution; it has no meaning for estimation methods.
    city:
        Optional human-readable city name, used when aggregating routers
        into PoPs.
    """

    name: str
    role: NodeRole = NodeRole.ACCESS
    region: Optional[str] = None
    population: float = 1.0
    city: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("node name must be a non-empty string")
        if self.population < 0:
            raise TopologyError(
                f"node {self.name!r} has negative population {self.population}"
            )

    @property
    def pop_name(self) -> str:
        """Return the PoP this node belongs to (its city, or its own name)."""
        return self.city if self.city is not None else self.name

    def is_edge(self) -> bool:
        """Return ``True`` if the node can originate or sink demands."""
        return self.role.terminates_traffic()


@dataclass(frozen=True)
class Link:
    """A directed link between two nodes.

    Parameters
    ----------
    source, target:
        Names of the endpoint nodes.  Links are directed: traffic flows
        from ``source`` to ``target``.
    capacity_mbps:
        Link capacity in Mbit/s.  Used by the CSPF routing substrate for
        bandwidth-constrained path selection and by the measurement layer
        for utilisation computation.
    metric:
        IGP metric / administrative weight used by shortest-path routing.
    kind:
        Interior, access or peering link.
    name:
        Optional explicit identifier.  When omitted a canonical
        ``"source->target"`` name is generated.
    """

    source: str
    target: str
    capacity_mbps: float = 10_000.0
    metric: float = 1.0
    kind: LinkKind = LinkKind.INTERIOR
    name: str = field(default="")

    def __post_init__(self) -> None:
        if not self.source or not self.target:
            raise TopologyError("link endpoints must be non-empty strings")
        if self.source == self.target:
            raise TopologyError(f"self-loop link at node {self.source!r}")
        if self.capacity_mbps <= 0:
            raise TopologyError(
                f"link {self.source}->{self.target} has non-positive capacity"
            )
        if self.metric <= 0:
            raise TopologyError(
                f"link {self.source}->{self.target} has non-positive metric"
            )
        if not self.name:
            object.__setattr__(self, "name", f"{self.source}->{self.target}")

    @property
    def endpoints(self) -> tuple[str, str]:
        """Return the ``(source, target)`` node names."""
        return (self.source, self.target)

    def reversed(self) -> "Link":
        """Return the link in the opposite direction with identical attributes."""
        return Link(
            source=self.target,
            target=self.source,
            capacity_mbps=self.capacity_mbps,
            metric=self.metric,
            kind=self.kind,
        )


@dataclass(frozen=True, order=True)
class NodePair:
    """An ordered origin-destination pair ``(origin, destination)``.

    The traffic matrix is indexed by node pairs; a network with ``N`` edge
    nodes has ``P = N * (N - 1)`` distinct pairs (diagonal excluded, as in
    the paper).
    """

    origin: str
    destination: str

    def __post_init__(self) -> None:
        if not self.origin or not self.destination:
            raise TopologyError("node pair endpoints must be non-empty strings")
        if self.origin == self.destination:
            raise TopologyError(
                f"node pair with identical endpoints {self.origin!r}"
            )

    def reversed(self) -> "NodePair":
        """Return the pair for the opposite direction."""
        return NodePair(self.destination, self.origin)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.origin}->{self.destination}"


class PairOrder(NamedTuple):
    """Positions within one pair tuple.

    ``index`` maps each pair to its position; ``origins`` and
    ``destinations`` list the endpoint names in first-appearance order, and
    ``origin_cols[p]`` / ``destination_cols[p]`` are the positions of pair
    ``p``'s endpoints in them (read-only arrays).  A tuple holding a pair
    twice gets an ``index`` shorter than the tuple.
    """

    index: dict[NodePair, int]
    origins: tuple[str, ...]
    destinations: tuple[str, ...]
    origin_cols: np.ndarray
    destination_cols: np.ndarray


#: How many distinct pair tuples :func:`pair_order` keeps indexed.
PAIR_ORDER_CACHE_SIZE = 8

# id(pairs) -> [pairs, order, labels], least recently used first.  Holding
# the tuple keeps its id from being reused while the entry lives; the
# labels are encoded on first request.
_pair_orders: dict[int, list] = {}
_pair_orders_lock = threading.Lock()


def pair_order(pairs: tuple[NodePair, ...]) -> PairOrder:
    """The :class:`PairOrder` of ``pairs``, built once per tuple object.

    Results are memoised by the identity of the tuple, so everything
    indexed by one tuple (a routing matrix, the traffic matrices and
    problems over it) shares one index instead of re-hashing every pair.
    """
    return _pair_entry(pairs)[1]


def pair_labels(pairs: tuple[NodePair, ...]) -> bytes:
    """The pair names joined by NUL characters, UTF-8 encoded; memoised likewise."""
    entry = _pair_entry(pairs)
    if entry[2] is None:
        entry[2] = "\x00".join(map(str, pairs)).encode()
    return entry[2]


def _pair_entry(pairs: tuple[NodePair, ...]) -> list:
    key = id(pairs)
    with _pair_orders_lock:
        entry = _pair_orders.pop(key, None)
        if entry is None or entry[0] is not pairs:
            entry = [pairs, _build_pair_order(pairs), None]
        _pair_orders[key] = entry
        if len(_pair_orders) > PAIR_ORDER_CACHE_SIZE:
            del _pair_orders[next(iter(_pair_orders))]
    return entry


def _build_pair_order(pairs: tuple[NodePair, ...]) -> PairOrder:
    origins, origin_cols = _first_seen([pair.origin for pair in pairs])
    destinations, destination_cols = _first_seen([pair.destination for pair in pairs])
    index = {pair: position for position, pair in enumerate(pairs)}
    return PairOrder(index, origins, destinations, origin_cols, destination_cols)


def _first_seen(names: list[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct ``names`` in first-seen order, and each name's position among them."""
    position: dict[str, int] = {}
    cols = np.array([position.setdefault(name, len(position)) for name in names], dtype=np.intp)
    cols.setflags(write=False)
    return tuple(position), cols
