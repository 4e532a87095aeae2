"""The Theorem 15 algorithm: dimension order with four incoming queues.

"There is a destination-exchangeable version of the dimension order routing
algorithm that routes any permutation on the n x n mesh in time
O((n^2/k) + n), where k is the size of the queue."

Each node has four incoming queues (North, South, East, West), each of size
``k``.  The outqueue gives priority to packets going *straight* (continuing
in the direction they arrived), resolving ties FIFO.  The inqueue policies
are asymmetric and are the heart of the proof:

- North and South queues always accept.  They can, because a nonempty
  N/S queue ejects a packet every step (straight column packets have
  priority, column arrivals always find room, deliveries always succeed).
- East and West queues accept only when holding fewer than ``k`` packets at
  the beginning of the step.

Because horizontal movement happens before vertical movement, packets in
N/S queues only ever move vertically, and the always-eject invariant holds.
This algorithm terminates on every permutation -- unlike the central-queue
variant -- and matches the Section 5 dimension-order lower bound
Omega(n^2/k).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.mesh.directions import DIRECTIONS, OPPOSITE, Direction
from repro.mesh.interfaces import NodeContext, RoutingAlgorithm
from repro.mesh.queues import QueueSpec
from repro.mesh.visibility import Offer, PacketView
from repro.routing.base import (
    DOR_DIRECTION_CACHE,
    desired_dimension_order_direction,
)

#: ``direction -> (opposite queue << 2) | direction``: the packed slot of a
#: straight-continuing packet for each outlink (see ``outqueue``).
_STRAIGHT_SLOT: tuple[int, ...] = tuple(
    (OPPOSITE[d] << 2) | d for d in DIRECTIONS
)

#: The always-accepting inlink queues of the Theorem 15 organization.
_VERTICAL = (Direction.N, Direction.S)


class BoundedDimensionOrderRouter(RoutingAlgorithm):
    """Theorem 15's bounded-queue dimension-order router.

    Args:
        queue_capacity: ``k``, the size of each of the four incoming queues.
    """

    name = "bounded-dimension-order"
    destination_exchangeable = True
    minimal = True
    dimension_ordered = True
    # Every inlink queue of an empty node has occupancy 0 < k, so inqueue
    # accepts all offers in the order given (see the simulator fast path).
    accepts_all_into_empty = True

    def __init__(self, queue_capacity: int) -> None:
        super().__init__(QueueSpec(queue_capacity, kind="incoming"))

    def permutation_step_bound(self, n: int) -> int:
        # Theorem 15: any permutation routes in O(n^2/k + n) steps.
        from repro.core.bounds import theorem15_upper_bound

        return theorem15_upper_bound(n, self.queue_spec.capacity)

    def enumerate_transitions(self, topology, k):
        # The Theorem 15 proof invariant, handed to the static analyzer: a
        # nonempty N/S queue ejects every step, so those queues always
        # accept and can never be waited on.  Only E/W queues may refuse.
        # The ejection half of the invariant (a nonempty N/S queue transmits
        # one packet every step) is what lets the queue-bound certifier put
        # a static capacity bound on the always-accepting queues.
        from repro.mesh.transitions import model_from_contract

        return model_from_contract(
            queue_kind=self.queue_spec.kind,
            minimal=self.minimal,
            dimension_ordered=self.dimension_ordered,
            blocking_keys=frozenset({Direction.E, Direction.W}),
            note=f"{self.name}: Theorem 15 N/S queues always accept",
            drain_keys=frozenset({Direction.N, Direction.S}),
        )

    def outqueue(self, ctx: NodeContext) -> Mapping[Direction, PacketView]:
        views_by_key = {key: ctx.queue(key) for key in ctx.queue_keys}
        # For each outlink, straight-moving packets (those sitting in the
        # queue of the opposite inlink) have priority; FIFO within a class.
        # A packet's desired direction is a function of the view alone, so
        # one pass records the FIFO-first view per (queue, direction) slot
        # -- packed into the int ``(queue key << 2) | direction`` -- and the
        # straight-priority scan reduces to int-keyed dict lookups.
        dd_get = DOR_DIRECTION_CACHE.get
        if len(views_by_key) == 1:
            (views,) = views_by_key.values()
            if len(views) == 1:
                # Lone packet: it is trivially first in its slot, and its
                # desired direction always has an outlink (it is profitable),
                # so the scan below would pick exactly this.
                view = views[0]
                d = dd_get(view.profitable)
                if d is None:
                    d = desired_dimension_order_direction(view.profitable)
                return {d: view}
        chosen: dict[Direction, PacketView] = {}
        firsts: dict[int, PacketView] = {}
        for key, views in views_by_key.items():
            base = key << 2
            for view in views:
                d = dd_get(view.profitable)
                if d is None:  # cache miss (first steps only): fill it
                    d = desired_dimension_order_direction(view.profitable)
                slot = base | d
                if slot not in firsts:
                    firsts[slot] = view
        get = firsts.get
        for direction in ctx.out_directions:
            pick = get(_STRAIGHT_SLOT[direction])
            if pick is None:
                straight_key = OPPOSITE[direction]
                for key in views_by_key:
                    if key is not straight_key:
                        pick = get(key << 2 | direction)
                        if pick is not None:
                            break
            if pick is not None:
                chosen[direction] = pick
        return chosen

    def inqueue(self, ctx: NodeContext, offers: Sequence[Offer]) -> Iterable[Offer]:
        capacity = self.queue_spec.capacity
        if len(offers) == 1:
            # Lone offer: return the given sequence itself (all-or-nothing),
            # sparing a list allocation on the commonest inqueue shape.
            queue_key = offers[0].came_from
            if queue_key in _VERTICAL or ctx.occupancy(queue_key) < capacity:
                return offers
            return ()
        accepted: list[Offer] = []
        # Offers arrive at most one per inlink, so no within-queue contention.
        for off in offers:
            queue_key = off.came_from
            if queue_key in _VERTICAL:
                accepted.append(off)  # N/S queues always accept (Thm 15 proof)
            elif ctx.occupancy(queue_key) < capacity:
                accepted.append(off)
        return accepted
