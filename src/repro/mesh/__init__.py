"""Mesh substrate: topology, packets, queues, and the synchronous simulator.

This package implements the machine model of Section 2 of Chinn, Leighton &
Tompa (1994): an ``n x n`` mesh (or torus) of nodes, each holding a bounded
queue of packets, advancing in synchronous steps.  Each step follows the
paper's phase order (Section 3):

    (a) outqueue policies schedule packets on outlinks,
    (b) an optional interceptor runs (used by the adversary to exchange
        destination addresses),
    (c) inqueue policies accept or refuse scheduled packets,
    (d) accepted packets are transmitted (and delivered packets removed),
    (e) node and packet states are updated.

Destination-exchangeability (the key model restriction of the lower bound)
is enforced structurally: policies of a destination-exchangeable algorithm
receive :class:`~repro.mesh.visibility.PacketView` objects that expose only a
packet's mutable state, source address, and profitable outlinks -- never its
destination.
"""

from repro.mesh.directions import Direction, DIRECTIONS, Port, ports
from repro.mesh.topology import Mesh, Torus, Topology
from repro.mesh.ndtopology import (
    MeshND,
    SparsePillarMesh,
    TorusND,
    TOPOLOGY_NAMES,
    build_topology,
)
from repro.mesh.packet import Packet
from repro.mesh.batch import PacketBatch
from repro.mesh.queues import QueueSpec, CENTRAL
from repro.mesh.visibility import PacketView, FullPacketView, Offer
from repro.mesh.interfaces import RoutingAlgorithm, RoutingContract, NodeContext
from repro.mesh.simulator import Simulator, RunResult
from repro.mesh.trace import PathTracer
from repro.mesh.errors import (
    QueueOverflowError,
    NonMinimalMoveError,
    InvalidScheduleError,
)


def __getattr__(name: str):
    # Lazy: the array backend pulls in numpy and the routing package, so it
    # is imported only when actually requested (``Simulator(engine="array")``
    # also imports it lazily, at dispatch time).
    if name == "ArraySimulator":
        from repro.mesh.array_engine import ArraySimulator

        return ArraySimulator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArraySimulator",
    "Direction",
    "DIRECTIONS",
    "Mesh",
    "Torus",
    "Topology",
    "MeshND",
    "Port",
    "SparsePillarMesh",
    "TorusND",
    "TOPOLOGY_NAMES",
    "build_topology",
    "ports",
    "Packet",
    "PacketBatch",
    "QueueSpec",
    "CENTRAL",
    "PacketView",
    "FullPacketView",
    "Offer",
    "RoutingAlgorithm",
    "RoutingContract",
    "NodeContext",
    "Simulator",
    "RunResult",
    "PathTracer",
    "QueueOverflowError",
    "NonMinimalMoveError",
    "InvalidScheduleError",
]
