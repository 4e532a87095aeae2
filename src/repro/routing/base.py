"""Shared policy building blocks.

Everything here consumes only destination-exchangeable information (packet
state, source, profitable outlinks, node state, step number), so any
algorithm assembled from these helpers stays inside the lower bound's model.
"""

from __future__ import annotations

from typing import Sequence

from repro.mesh.directions import DIRECTIONS, Direction
from repro.mesh.interfaces import NodeContext
from repro.mesh.visibility import Offer

# Re-exported for algorithm implementations.
from repro.mesh.interfaces import RoutingAlgorithm, RoutingContract  # noqa: F401
from repro.mesh.queues import CENTRAL, QueueSpec  # noqa: F401


def desired_dimension_order_direction(profitable: frozenset[Direction]) -> Direction | None:
    """The dimension-order (row-first) move implied by a profitable set.

    A packet travels along its row until it reaches its destination column,
    then moves in the column (Section 1.1).  Horizontal profit therefore
    takes precedence; ties (possible only on the torus at exact half
    circumference) break toward the lower direction value for determinism.
    Returns None when nothing is profitable (the packet is at its
    destination, which the simulator never lets a policy see).
    """
    cached = DOR_DIRECTION_CACHE.get(profitable)
    if cached is not None or profitable in DOR_DIRECTION_CACHE:
        return cached
    horizontal = [d for d in (Direction.E, Direction.W) if d in profitable]
    if horizontal:
        result: Direction | None = min(horizontal)
    else:
        vertical = [d for d in (Direction.N, Direction.S) if d in profitable]
        result = min(vertical) if vertical else None
    DOR_DIRECTION_CACHE[profitable] = result
    return result


#: Memo for :func:`desired_dimension_order_direction`.  The domain is tiny
#: (at most one horizontal and one vertical direction can be profitable, so
#: nine sets plus torus half-circumference ties) and the topology layer
#: interns the frozensets, making lookups cheap on the simulator hot path.
#: Public so per-view hot loops (the bounded dimension-order outqueue) can
#: probe it directly and fall back to the function only on a miss; a cached
#: None is indistinguishable from a miss, which is harmless -- the function
#: recomputes None cheaply and in-network packets never map to None anyway.
DOR_DIRECTION_CACHE: dict[frozenset[Direction], Direction | None] = {}


def rotation_order(time: int) -> tuple[Direction, ...]:
    """Direction priority rotated by the step number.

    A stateless stand-in for the round-robin inqueue pointer: each node
    could maintain an identical counter as node state (the model allows a
    counter that increments every step), so deriving it from the global
    clock changes no behaviour while avoiding per-node state churn.
    """
    r = time % 4
    return DIRECTIONS[r:] + DIRECTIONS[:r]


def accept_up_to_central_space(
    ctx: NodeContext, offers: Sequence[Offer], capacity: int
) -> list[Offer]:
    """Accept offers in rotating-priority order while central space remains.

    Conservative: counts space against beginning-of-step occupancy, never
    against hoped-for departures, as required to guarantee no overflow.
    """
    free = capacity - ctx.total_occupancy
    if free <= 0:
        return []
    order = {d: i for i, d in enumerate(rotation_order(ctx.time))}
    ranked = sorted(offers, key=lambda off: order[off.came_from])
    return ranked[:free]
