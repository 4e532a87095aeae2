"""Credit-based minimal adaptive routing with an escape channel (any d).

Among the minimal (profitable) outports of a packet, the router picks the
neighbour with the most downstream free space — *credits*, read through the
simulator's destination-free occupancy probe — so load spreads over every
minimal path.  Unrestricted minimal adaptivity deadlocks (the classic turn
cycle; see ``greedy-adaptive``'s CYCLIC verdict), so adaptivity is fenced
by two structural rules that generalise Theorem 15's four-queue
organization to d dimensions:

1. **Negative-first adaptive order.**  The adaptive axes (all but the
   highest) are corrected first, and every profitable *negative* adaptive
   direction is taken before any positive one.  Chains of negative moves
   strictly decrease the coordinate sum and positive chains strictly
   increase it, with only a negative->positive bridge, so the blockable
   sub-relation of the channel-dependency graph is acyclic on any mesh.
2. **Dimension-ordered escape channel.**  The highest axis is entered only
   once the adaptive axes are done, and escape traffic runs strictly
   straight with priority on its straight outlink.  Escape queues therefore
   drain every step they are nonempty (straight arrivals land in escape
   queues, which always accept; deliveries always succeed), which is
   exactly the Theorem 15 N/S invariant — so escape queues always accept,
   and the static certifier bounds every queue by ``k``.

In 2D the turn relation this produces coincides exactly with the
dimension-order turn set, and the CDG/bounds verdicts match
``bounded-dor``: DEADLOCK_FREE and BOUNDED(b=k) on meshes of any
dimension, CYCLIC/UNBOUNDED[wedged-backlog] on tori (the wrap re-closes
the escape ring).  On irregular topologies (``regular = False``, e.g. the
sparse-pillar mesh) the escape axis does not exist at every node, so the
router falls back to plain credit-steered minimal routing with every queue
capacity-gated, and the analyzers get the conservative all-blocking
minimal model.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.mesh.directions import Direction
from repro.mesh.interfaces import NodeContext, RoutingAlgorithm
from repro.mesh.queues import QueueSpec
from repro.mesh.topology import Topology
from repro.mesh.visibility import Offer, PacketView


class CreditAdaptiveRouter(RoutingAlgorithm):
    """Minimal adaptive routing by downstream credits, deadlock-fenced by a
    dimension-ordered escape channel.

    Args:
        queue_capacity: ``k``, the size of each incoming queue.
    """

    name = "credit-adaptive"
    destination_exchangeable = True
    minimal = True
    dimension_ordered = False
    # Every inlink queue of an empty node has occupancy 0 < k, so inqueue
    # accepts all offers regardless of regularity (simulator fast path).
    accepts_all_into_empty = True
    uses_credit = True

    def __init__(self, queue_capacity: int) -> None:
        super().__init__(QueueSpec(queue_capacity, kind="incoming"))
        # Defaults cover direct (simulator-free) use on the 2D mesh; the
        # simulator rebinds both before any packet moves.
        self._escape_axis = 1
        self._regular = True
        self._credit: Callable[[tuple[int, ...], Any], int] | None = None

    def bind_topology(self, topology: Topology) -> None:
        self._escape_axis = max(d.axis for d in topology.directions)
        self._regular = topology.regular

    def attach_credit_probe(self, probe: Callable[[tuple[int, ...], Any], int]) -> None:
        self._credit = probe

    def enumerate_transitions(self, topology, k):
        from repro.mesh.transitions import (
            TransitionModel,
            escape_channel_turns,
            model_from_contract,
        )

        directions = topology.directions
        if not topology.regular:
            # No node-independent escape axis: every queue is capacity-gated
            # at runtime, so the sound model is the all-blocking minimal one.
            return model_from_contract(
                queue_kind=self.queue_spec.kind,
                minimal=True,
                dimension_ordered=False,
                note=f"{self.name}: irregular topology, conservative minimal model",
                directions=directions,
            )
        last_axis = max(d.axis for d in directions)
        escape = frozenset(d for d in directions if d.axis == last_axis)
        return TransitionModel(
            queue_kind=self.queue_spec.kind,
            turns=escape_channel_turns(directions),
            blocking_keys=frozenset(directions) - escape,
            note=(
                f"{self.name}: negative-first adaptive axes, "
                "escape queues on the highest axis always accept"
            ),
            drain_keys=escape,
        )

    # -- scheduling ----------------------------------------------------------

    def _allowed(self, profitable: frozenset[Direction]) -> list[Direction]:
        """The outports the discipline permits, in deterministic order."""
        if not self._regular:
            return sorted(profitable)
        adaptive = sorted(d for d in profitable if d.axis != self._escape_axis)
        if adaptive:
            negative = [d for d in adaptive if d.sign < 0]
            return negative or adaptive
        return sorted(profitable)

    def outqueue(self, ctx: NodeContext) -> Mapping[Direction, PacketView]:
        chosen: dict[Direction, PacketView] = {}
        scheduled: set[int] = set()
        keys = ctx.queue_keys
        # Escape packets first, straight with priority: this is the drain
        # invariant the static model declares, so it must hold by schedule
        # construction, not by luck of the credit comparison.
        if self._regular:
            for key in keys:
                if key.axis != self._escape_axis:
                    continue
                views = ctx.queue(key)
                if not views:
                    continue
                head = views[0]
                straight = key.opposite
                if straight in head.profitable and straight not in chosen:
                    chosen[straight] = head
                    scheduled.add(id(head))
        # Everything else steers by credit: most downstream free space wins,
        # ties to the smallest port id.  Credits are start-of-step queue
        # occupancies (destination-free), identical for every node.
        credit = self._credit
        for key in keys:
            for view in ctx.queue(key):
                if id(view) in scheduled:
                    continue
                best = None
                best_rank = None
                for direction in self._allowed(view.profitable):
                    if direction in chosen:
                        continue
                    occupancy = credit(ctx.node, direction) if credit is not None else 0
                    rank = (occupancy, direction)
                    if best_rank is None or rank < best_rank:
                        best, best_rank = direction, rank
                if best is not None:
                    chosen[best] = view
                    scheduled.add(id(view))
        return chosen

    def inqueue(self, ctx: NodeContext, offers: Sequence[Offer]) -> Iterable[Offer]:
        capacity = self.queue_spec.capacity
        escape_axis = self._escape_axis if self._regular else None
        if len(offers) == 1:
            key = offers[0].came_from
            if key.axis == escape_axis or ctx.occupancy(key) < capacity:
                return offers
            return ()
        accepted: list[Offer] = []
        # Offers arrive at most one per inlink, so no within-queue contention.
        for off in offers:
            key = off.came_from
            if key.axis == escape_axis:
                accepted.append(off)  # escape queues always accept (drain inv.)
            elif ctx.occupancy(key) < capacity:
                accepted.append(off)
        return accepted
