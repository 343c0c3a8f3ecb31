"""Network topologies of the Network-on-Chip (Section 1.1, generalised).

"In this paper we assume a regular two dimensional mesh topology of the
routers.  Every router is connected with its four neighboring routers via
bidirectional point-to-point links and with a single processor tile via the
tile interface."  This module provides that mesh — and, beyond the paper, a
wraparound torus and a faulty-link decorator — behind one small
:class:`Topology` protocol shared by the circuit-switched network, the
packet-switched network, the best-effort network and the CCN's allocators.

Every topology places routers on integer ``(x, y)`` coordinates and connects
them through the four :data:`~repro.common.NEIGHBOR_PORTS`; what varies is
which neighbour (if any) sits behind a port.  All consumers are written
against the protocol, so adding a topology means implementing
:meth:`Topology.neighbor` (and a hop metric) — link enumeration, the NetworkX
view and port geometry fall out of the shared base class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Protocol, Tuple, runtime_checkable

import networkx as nx

from repro.common import NEIGHBOR_PORTS, Port, port_offset

__all__ = [
    "Position",
    "Topology",
    "GridTopology",
    "Mesh2D",
    "Torus2D",
    "IrregularMesh",
]

Position = Tuple[int, int]
Link = Tuple[Position, Position]


@runtime_checkable
class Topology(Protocol):
    """What every NoC consumer may assume about a router fabric.

    A topology is a finite set of ``(x, y)`` router positions inside a
    ``width × height`` bounding box, connected by bidirectional point-to-point
    links hanging off the four neighbour ports.  Implementations must keep the
    directed links *symmetric*: whenever ``(a, b)`` is a link, so is
    ``(b, a)`` (the routers' rx/tx bundles are attached in pairs).
    """

    width: int
    height: int

    @property
    def size(self) -> int: ...

    def contains(self, position: Position) -> bool: ...

    def positions(self) -> Iterator[Position]: ...

    def router_name(self, position: Position) -> str: ...

    def neighbor(self, position: Position, port: Port) -> Position | None: ...

    def neighbors(self, position: Position) -> Dict[Port, Position]: ...

    def port_towards(self, src: Position, dst: Position) -> Port: ...

    def distance(self, a: Position, b: Position) -> int: ...

    def directed_links(self) -> List[Link]: ...

    def to_networkx(self) -> "nx.DiGraph": ...


class GridTopology:
    """Shared machinery for rectangular-grid topologies.

    Subclasses provide ``width``/``height`` attributes and override
    :meth:`neighbor`; membership, enumeration, link listing, the NetworkX view
    and the port geometry all derive from it.
    """

    width: int
    height: int

    # -- membership -----------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of routers (= tiles) in the topology."""
        return self.width * self.height

    def contains(self, position: Position) -> bool:
        """True when *position* is a valid router coordinate."""
        x, y = position
        return 0 <= x < self.width and 0 <= y < self.height

    def positions(self) -> Iterator[Position]:
        """All router positions in row-major order (south row first)."""
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def router_name(self, position: Position) -> str:
        """Canonical component name of the router at *position*."""
        if not self.contains(position):
            raise ValueError(
                f"position {position} is outside the {self.width}x{self.height} {type(self).__name__}"
            )
        return f"router_{position[0]}_{position[1]}"

    # -- neighbourhood -----------------------------------------------------------------

    def neighbor(self, position: Position, port: Port) -> Position | None:
        """The position behind *port*, or ``None`` where no link exists."""
        raise NotImplementedError

    def neighbors(self, position: Position) -> Dict[Port, Position]:
        """All existing neighbours of *position*, keyed by port."""
        result: Dict[Port, Position] = {}
        for port in NEIGHBOR_PORTS:
            neighbor = self.neighbor(position, port)
            if neighbor is not None:
                result[port] = neighbor
        return result

    def port_towards(self, src: Position, dst: Position) -> Port:
        """The port of *src* whose link leads to the adjacent position *dst*."""
        for port in NEIGHBOR_PORTS:
            if self.neighbor(src, port) == dst:
                return port
        raise ValueError(f"{src} and {dst} are not adjacent in the {type(self).__name__}")

    def distance(self, a: Position, b: Position) -> int:
        """Hop distance between two positions."""
        raise NotImplementedError

    # -- link enumeration --------------------------------------------------------------

    def directed_links(self) -> List[Link]:
        """All directed router-to-router links ``(src, dst)`` of the topology."""
        links: List[Link] = []
        for position in self.positions():
            for neighbor in self.neighbors(position).values():
                links.append((position, neighbor))
        return links

    def to_networkx(self) -> "nx.DiGraph":
        """Directed-graph view used by the allocators (one edge per link direction)."""
        graph = nx.DiGraph()
        for position in self.positions():
            graph.add_node(position)
        for src, dst in self.directed_links():
            graph.add_edge(src, dst)
        return graph


@dataclass(frozen=True)
class Mesh2D(GridTopology):
    """A ``width × height`` mesh of router positions (the paper's topology).

    Coordinates follow the convention of :mod:`repro.common`: ``x`` grows to
    the east, ``y`` grows to the north, and ``(0, 0)`` is the south-west
    corner.  Links stop at the mesh edge.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be positive")

    def neighbor(self, position: Position, port: Port) -> Position | None:
        """The position behind *port*, or ``None`` at the mesh edge."""
        if port not in NEIGHBOR_PORTS:
            raise ValueError("only neighbour ports have a neighbouring position")
        dx, dy = port_offset(port)
        candidate = (position[0] + dx, position[1] + dy)
        return candidate if self.contains(candidate) else None

    def manhattan_distance(self, a: Position, b: Position) -> int:
        """Hop distance between two positions."""
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    distance = manhattan_distance


@dataclass(frozen=True)
class Torus2D(GridTopology):
    """A ``width × height`` folded mesh whose edge links wrap around.

    Every router has degree 4: the east port of the rightmost column connects
    back to column 0 of the same row, and likewise north/south.  Dimensions
    must be at least 3 so that the two wraparound neighbours of a router stay
    distinct and every directed link ``(src, dst)`` identifies one physical
    channel.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 3 or self.height < 3:
            raise ValueError("torus dimensions must be at least 3x3")

    def neighbor(self, position: Position, port: Port) -> Position | None:
        """The position behind *port* (always exists on a torus)."""
        if port not in NEIGHBOR_PORTS:
            raise ValueError("only neighbour ports have a neighbouring position")
        dx, dy = port_offset(port)
        return ((position[0] + dx) % self.width, (position[1] + dy) % self.height)

    def distance(self, a: Position, b: Position) -> int:
        """Wraparound hop distance between two positions."""
        dx = abs(a[0] - b[0])
        dy = abs(a[1] - b[1])
        return min(dx, self.width - dx) + min(dy, self.height - dy)


def _undirected(link: Link) -> Link:
    a, b = link
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class IrregularMesh(GridTopology):
    """A topology with selected links or routers removed (fault model / holes).

    Decorates any base topology and drops the given links in *both*
    directions — modelling broken wires or routers placed around hard
    macros — and/or removes whole router positions (a dead router takes its
    tile and every incident link with it).  Construction validates that every
    removed link and router exists in the base topology and that the
    surviving network is still connected, so routing and allocation always
    succeed.
    """

    base: Topology
    broken_links: Iterable[Link] = ()
    broken_routers: Iterable[Position] = ()
    _broken: frozenset = field(init=False, repr=False, compare=False)
    _dead: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dead = frozenset(tuple(position) for position in self.broken_routers)
        outside = sorted(p for p in dead if not self.base.contains(p))
        if outside:
            raise ValueError(f"cannot break routers absent from the base topology: {outside}")
        if len(dead) >= self.base.size:
            raise ValueError("cannot break every router of the topology")
        broken = frozenset(_undirected(link) for link in self.broken_links)
        base_links = {_undirected(link) for link in self.base.directed_links()}
        missing = sorted(link for link in broken if link not in base_links)
        if missing:
            raise ValueError(f"cannot break links absent from the base topology: {missing}")
        object.__setattr__(self, "broken_links", tuple(sorted(broken)))
        object.__setattr__(self, "broken_routers", tuple(sorted(dead)))
        object.__setattr__(self, "_broken", broken)
        object.__setattr__(self, "_dead", dead)
        graph = self.to_networkx()
        if not nx.is_strongly_connected(graph):
            raise ValueError("removing these links/routers disconnects the topology")

    # -- delegation to the base topology ---------------------------------------------

    @property
    def width(self) -> int:  # type: ignore[override]
        return self.base.width

    @property
    def height(self) -> int:  # type: ignore[override]
        return self.base.height

    @property
    def size(self) -> int:
        """Number of surviving routers (= tiles)."""
        return self.base.size - len(self._dead)

    def contains(self, position: Position) -> bool:
        return self.base.contains(position) and position not in self._dead

    def positions(self) -> Iterator[Position]:
        for position in self.base.positions():
            if position not in self._dead:
                yield position

    def router_name(self, position: Position) -> str:
        if position in self._dead:
            raise ValueError(f"router at {position} is broken in this topology")
        return self.base.router_name(position)

    def neighbor(self, position: Position, port: Port) -> Position | None:
        neighbor = self.base.neighbor(position, port)
        if (
            neighbor is None
            or neighbor in self._dead
            or position in self._dead
            or _undirected((position, neighbor)) in self._broken
        ):
            return None
        return neighbor

    def distance(self, a: Position, b: Position) -> int:
        """Hop distance on the degraded graph (breadth-first search, cached)."""
        try:
            return self._distances(a)[b]
        except KeyError:
            raise ValueError(f"no path from {a} to {b} in the degraded topology") from None

    def _distances(self, source: Position) -> Dict[Position, int]:
        cache = self.__dict__.setdefault("_distance_cache", {})
        if source not in cache:
            cache[source] = dict(nx.single_source_shortest_path_length(self.to_networkx(), source))
        return cache[source]

