"""The resilience layer: surviving faults instead of merely observing them.

Two mechanisms, both end-to-end (the routing algorithms stay oblivious):

- :class:`ConservativeBoundedDimensionOrderRouter` -- Theorem 15's router
  with the synchrony assumption removed: every queue accepts only while it
  holds fewer than ``k`` packets, so queue safety survives arbitrary link
  failures (at the price of Theorem 15's termination proof).
- :class:`ResilienceManager` -- per-packet delivery timeouts with source
  retransmission and duplicate suppression, plus node-failure handling:
  packets resident at a node when it goes down are *dropped* (recorded in
  ``Simulator.dropped``), and their sources re-inject fresh copies after
  the timeout.  The first copy of a packet to arrive counts as the
  delivery; surviving duplicates are suppressed (dropped) as soon as the
  original is resolved, so conservation-modulo-dropped always holds:
  ``delivered + queued + pending + dropped == total``.

The manager attaches through the simulator's pre/post-step hook points
(the same mechanism the verify oracles use) and never reaches into a
policy: retransmitted copies are ordinary dynamic packets with fresh ids.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.faults.plan import FaultPlan
from repro.mesh.interfaces import NodeContext
from repro.mesh.packet import Packet
from repro.mesh.simulator import ScheduledMove, Simulator
from repro.mesh.visibility import Offer
from repro.routing.bounded_dor import BoundedDimensionOrderRouter


class ConservativeBoundedDimensionOrderRouter(BoundedDimensionOrderRouter):
    """Theorem 15's router with the synchrony assumption removed.

    The original's North/South queues accept unconditionally because the
    synchronous model *guarantees* they eject every step.  Under flaky
    links that guarantee is void, so this variant accepts into every queue
    only while it holds fewer than ``k`` packets -- always safe, at the
    price of Theorem 15's termination proof (vertical flows can now suffer
    the refusal stalls the always-accept rule existed to preclude).
    """

    name = "conservative-bounded-dor"
    # An empty node's queues all hold 0 < k packets, so the inherited
    # accepts_all_into_empty contract still holds for this inqueue too.

    def inqueue(self, ctx: NodeContext, offers: Sequence[Offer]) -> Iterable[Offer]:
        capacity = self.queue_spec.capacity
        if len(offers) == 1:
            if ctx.occupancy(offers[0].came_from) < capacity:
                return offers
            return ()
        return [
            off for off in offers if ctx.occupancy(off.came_from) < capacity
        ]

    def enumerate_transitions(self, topology, k):
        # Unlike Theorem 15's organization, *every* queue may refuse here,
        # so the contract-derived model (all queues blockable) is the
        # sound one -- skip the always-accepting N/S override.
        from repro.mesh.transitions import model_from_contract

        return model_from_contract(
            queue_kind=self.queue_spec.kind,
            minimal=self.minimal,
            dimension_ordered=self.dimension_ordered,
            note=f"{self.name}: every queue accept-if-space (no synchrony)",
        )


class ResilienceManager:
    """Source retransmission with duplicate suppression, on one simulator.

    Args:
        sim: The simulator to protect.  Must be freshly constructed (the
            manager snapshots the instance's packets at attach time).
        plan: The fault plan driving the run.  Node outages are read from
            it: packets resident at a down node are dropped at the top of
            the step.
        timeout: Steps a source waits after (re-)injection before
            re-injecting a fresh copy of an undelivered packet.
        max_retransmits: Retransmission budget per original packet.

    Attributes:
        delivered_at: original pid -> step its first copy arrived.
        retransmissions: Total copies injected.
        dropped_by_outage: Packets dropped because their node went down.
    """

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        *,
        timeout: int,
        max_retransmits: int = 3,
    ) -> None:
        if timeout < 1:
            raise ValueError(f"timeout must be >= 1, got {timeout}")
        if max_retransmits < 0:
            raise ValueError(
                f"max_retransmits must be >= 0, got {max_retransmits}"
            )
        if getattr(sim, "engine_name", "reference") != "reference":
            raise NotImplementedError(
                "ResilienceManager needs packet drops and dynamic"
                " retransmission, which the array engine does not support;"
                " construct the simulator with engine='reference'"
            )
        self.sim = sim
        self.plan = plan
        self.timeout = timeout
        self.max_retransmits = max_retransmits

        #: copy pid -> original pid (originals map to themselves).
        self.origin_of: dict[int, int] = {}
        #: original pid -> (source, dest, injection_time).
        self._original: dict[int, tuple[tuple[int, int], tuple[int, int], int]] = {}
        #: original pid -> live copy pids (queued or pending, undelivered).
        self._live: dict[int, set[int]] = {}
        #: pid -> Packet for every packet the manager may need to drop.
        self._packet_of: dict[int, Packet] = {}
        self.delivered_at: dict[int, int] = {}
        self._deadline: dict[int, int] = {}
        self._attempts: dict[int, int] = {}
        self.retransmissions = 0
        self.dropped_by_outage = 0
        self._read = sim.deliveries.size  # ledger rows already handled

        for p in list(sim.iter_packets()) + list(sim._pending):
            self._register_original(p)
        for pid, t in sim.delivery_times.items():  # delivered at load
            self.origin_of[pid] = pid
            self._original[pid] = ((0, 0), (0, 0), 0)
            self._live[pid] = set()
            self.delivered_at[pid] = t
        self._next_pid = max(self.origin_of, default=-1) + 1

        sim.pre_step_hooks.append(self._pre_step)
        sim.post_step_hooks.append(self._post_step)

    def _register_original(self, p: Packet) -> None:
        self.origin_of[p.pid] = p.pid
        self._original[p.pid] = (p.source, p.dest, p.injection_time)
        self._live[p.pid] = {p.pid}
        self._packet_of[p.pid] = p
        self._deadline[p.pid] = p.injection_time + self.timeout
        self._attempts[p.pid] = 0

    # -- step hooks ----------------------------------------------------------

    def _pre_step(self, sim: Simulator) -> None:
        now = sim.time
        self._drop_at_down_nodes(now)
        for orig, deadline in self._deadline.items():
            if (
                orig not in self.delivered_at
                and now >= deadline
                and self._attempts[orig] < self.max_retransmits
            ):
                self._retransmit(orig, now)

    def _drop_at_down_nodes(self, now: int) -> None:
        sim = self.sim
        for node in list(sim.queues):
            if self.plan.node_up(node, now):
                continue
            for p in sim.packets_at(node):
                sim.drop_packet(p)
                self._forget_copy(p.pid)
                self.dropped_by_outage += 1

    def _retransmit(self, orig: int, now: int) -> None:
        source, dest, _ = self._original[orig]
        pid = self._next_pid
        self._next_pid += 1
        copy = Packet(pid, source, dest, injection_time=now)
        self.sim.inject_packet(copy)
        self.origin_of[pid] = orig
        self._live[orig].add(pid)
        self._packet_of[pid] = copy
        self._attempts[orig] += 1
        self._deadline[orig] = now + self.timeout
        self.retransmissions += 1

    def _post_step(self, sim: Simulator, moves: list[ScheduledMove]) -> None:
        led = sim.deliveries
        start, self._read = self._read, led.size
        for pid, t in zip(led.pid[start:].tolist(), led.step[start:].tolist()):
            orig = self.origin_of[pid]
            self.delivered_at.setdefault(orig, t)
            self._forget_copy(pid)
            self._suppress_duplicates(orig)

    def _forget_copy(self, pid: int) -> None:
        self._live[self.origin_of[pid]].discard(pid)
        self._packet_of.pop(pid, None)

    def _suppress_duplicates(self, orig: int) -> None:
        """Drop every still-live copy of a resolved original."""
        for pid in sorted(self._live[orig]):
            packet = self._packet_of.pop(pid)
            if pid in self.sim._queue_of:
                self.sim.drop_packet(packet)
            else:
                self.sim.drop_pending(pid)
        self._live[orig].clear()

    # -- reporting -----------------------------------------------------------

    @property
    def settled(self) -> bool:
        """No future retransmission can occur: every original is either
        delivered or out of retransmission budget.  The faulty run loop
        keeps stepping past ``Simulator.done`` until this holds (dropped
        packets count as resolved there, but their sources may still owe
        a retransmit)."""
        return all(
            orig in self.delivered_at
            or self._attempts.get(orig, self.max_retransmits)
            >= self.max_retransmits
            for orig in self._original
        )

    @property
    def originals(self) -> int:
        return len(self._original)

    @property
    def delivered_fraction(self) -> float:
        if not self._original:
            return 1.0
        return len(self.delivered_at) / len(self._original)

    def latencies(self) -> list[int]:
        """Per delivered original: first-arrival step minus injection."""
        return sorted(
            t - self._original[orig][2] for orig, t in self.delivered_at.items()
        )

    def counters(self) -> dict[str, float | int]:
        return {
            "originals": self.originals,
            "delivered_originals": len(self.delivered_at),
            "retransmissions": self.retransmissions,
            "dropped_by_outage": self.dropped_by_outage,
        }
