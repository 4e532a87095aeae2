"""The synchronous multi-port mesh simulator (Sections 2 and 3).

Each :meth:`Simulator.step` executes the paper's exact phase order:

    (a) every node's outqueue policy schedules at most one packet per
        outlink;
    (b) the interceptor hook runs -- this is where the Section 3 adversary
        performs its destination exchanges;
    (c) every node's inqueue policy accepts or refuses the packets scheduled
        to enter it;
    (d) accepted packets are transmitted (departures before arrivals);
        packets arriving at their destination are delivered and removed;
    (e) node and packet states are updated from end-of-step contents.

The simulator enforces the model: at most one packet per outlink, minimal
moves for minimal algorithms (rechecked *after* the interceptor so adversary
bugs are caught too), and queue capacities after every transmission.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Literal, NamedTuple, Sequence

import numpy as np

from repro.mesh.batch import PacketBatch
from repro.mesh.directions import Direction
from repro.mesh.errors import (
    InvalidScheduleError,
    NonMinimalMoveError,
    QueueOverflowError,
)
from repro.mesh.interfaces import NodeContext, RoutingAlgorithm
from repro.mesh.packet import Packet
from repro.mesh.stepview import PacketLedger, StepView
from repro.mesh.topology import Topology
from repro.mesh.visibility import FullPacketView, Offer, PacketView


class ScheduledMove(NamedTuple):
    """One packet scheduled on one outlink during phase (a).

    A NamedTuple: one is allocated per scheduled move every step, and the
    tuple layout keeps both construction and field access at C speed.
    """

    packet: Packet
    src: tuple[int, int]
    direction: Direction
    target: tuple[int, int]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScheduledMove({self.packet!r} {self.src}-{self.direction.name}->{self.target})"


@dataclass
class StepRecord:
    """Optional per-step series entry (enable with ``record_series=True``)."""

    time: int
    in_flight: int
    delivered_total: int
    moves: int
    max_queue_len: int


#: Consecutive idle steps (no move, no packet pending) after which
#: :meth:`Simulator.run` with ``stop_on_stall`` ends a run ``"stalled"``.
#: Central-queue routers can *exchange-deadlock* (full neighbours refusing
#: each other's head forever -- the Section 2 caveat that motivates
#: Theorem 15's four incoming queues); a wedged network never moves again,
#: but phase-based routers may legitimately idle a few steps, hence a
#: threshold rather than one step.
STALL_STEPS = 16

#: Why :meth:`Simulator.run` returned (see :attr:`RunResult.stop`).
StopReason = Literal["done", "limit", "stalled"]


@dataclass
class RunResult:
    """Outcome of :meth:`Simulator.run`.

    Attributes:
        completed: True when every packet was resolved (delivered, or
            dropped or rejected) within the budget.
        steps: Steps executed (equals the delivery time of the last packet
            when ``completed``).
        total_packets: Number of packets in the problem instance.
        delivered: Number delivered.
        max_queue_len: Maximum occupancy any single queue ever reached.
        max_node_load: Maximum total packets any node ever held at once.
        total_moves: Total packet transmissions (network load).
        delivery_times: pid -> step at which the packet was delivered.
        series: Per-step records when series recording was enabled.
        stop: Why the run ended: ``"done"``, ``"limit"`` or ``"stalled"``
            (see :meth:`Simulator.run`).
    """

    completed: bool
    steps: int
    total_packets: int
    delivered: int
    max_queue_len: int
    max_node_load: int
    total_moves: int
    delivery_times: dict[int, int] = field(repr=False, default_factory=dict)
    series: list[StepRecord] = field(repr=False, default_factory=list)
    #: Instrumentation counters (see docs/PERFORMANCE.md).  Always contains
    #: the deterministic scheduling counters (``scheduled_moves``,
    #: ``accepted_moves``, ``refused_moves``, ``injected_packets``); when a
    #: :class:`repro.perf.StepInstrumentation` was attached it additionally
    #: carries wall-clock fields (``wall_s``, per-phase ``phase_*_s`` and
    #: ``hooks_s``), which are *not* deterministic.
    counters: dict[str, Any] = field(repr=False, default_factory=dict)
    stop: StopReason = "done"


Interceptor = Callable[["Simulator", list[ScheduledMove]], None]


class Simulator:
    """Synchronous simulator for one routing problem instance.

    Args:
        topology: The mesh or torus.
        algorithm: The routing algorithm under test.
        packets: The problem instance.  Packets whose source equals their
            destination are delivered at step 0.  Packets with
            ``injection_time > 0`` wait outside the network and enter at the
            first step at or after that time at which their source node has
            queue space (the dynamic setting of Section 5).
        interceptor: Optional phase-(b) hook; the lower-bound adversary.
        validate: Enforce model rules every step -- schedule legality,
            minimality, and queue capacity, raising the typed
            :mod:`repro.mesh.errors` exceptions (small overhead; leave on
            except in the innermost benchmark loops, where the
            :mod:`repro.verify` oracles can re-check independently).
        record_series: Record a :class:`StepRecord` per step.
        engine: ``"reference"`` (this class) or ``"array"`` (the
            vectorized :class:`repro.mesh.array_engine.ArraySimulator`).
            The string alone picks the class; ``"array"`` on a run the
            array engine does not support (an unported router or a router
            subclass, a topology other than ``Mesh``/``Torus``, an
            interceptor) raises ``ValueError`` naming the supported set.
    """

    #: The engine running this simulator ("reference" here; the array
    #: backend overrides this with "array").
    engine_name = "reference"
    # Set on use: the step of the last offer_packets call, the last
    # step_view as (moves, step, view), and the reference view's node ->
    # flat id and queue key -> index tables.
    _offer_time = -1
    _step_view: tuple[Any, int, StepView] | None = None
    _view_ids: tuple[dict[Any, int], dict[Any, int]] | None = None

    def __new__(cls, *args: Any, **kwargs: Any) -> "Simulator":
        engine = kwargs.get("engine", "reference")
        if engine not in ("reference", "array"):
            raise ValueError(f"unknown engine {engine!r}")
        if cls is Simulator and engine == "array":
            from repro.mesh.array_engine import ArraySimulator

            return object.__new__(ArraySimulator)
        return object.__new__(cls)

    def __init__(
        self,
        topology: Topology,
        algorithm: RoutingAlgorithm,
        packets: Iterable[Packet],
        *,
        interceptor: Interceptor | None = None,
        validate: bool = True,
        record_series: bool = False,
        engine: str = "reference",
    ) -> None:
        self.topology = topology
        self.algorithm = algorithm
        self.interceptor = interceptor
        self.validate = validate
        self.record_series = record_series
        #: Optional (src, direction, time) -> bool availability hook; see
        #: repro.faults.plan (fault plans install their filter here).
        self.link_filter: Callable[[tuple[int, int], Direction, int], bool] | None = None
        self.spec = algorithm.queue_spec
        # Topology-as-data hooks (docs/TOPOLOGY.md): the opposite table and
        # the queue-key vocabulary come from the topology, so d-dimensional
        # grids run through the same step loop; routers that adapt to
        # dimension metadata learn it here, before any packet is loaded.
        self._opp = topology.opposites
        self.spec.bind_directions(topology.directions)
        algorithm.bind_topology(topology)
        if algorithm.uses_credit:
            algorithm.attach_credit_probe(self._downstream_occupancy)

        self._default_after_step = (
            type(algorithm).after_step is RoutingAlgorithm.after_step
        )
        self.time = 0
        self.queues: dict[tuple[int, int], dict[Any, list[Packet]]] = {}
        self.node_states: dict[tuple[int, int], Any] = {}
        #: Every delivery, one (pid, step) row each, in delivery order.
        self.deliveries = PacketLedger()
        #: Every drop (fault handling; see repro.faults), one row each.
        #: Empty in fault-free runs.  Dropped packets count as resolved for
        #: :attr:`done` and for conservation.
        self.drops = PacketLedger()
        #: Every offer refused admission (open-loop injection backpressure;
        #: see repro.streaming), one row each.  Rejected packets never
        #: enter the network but stay in the conservation accounting:
        #: delivered + queued + pending + dropped + rejected == total.
        self.rejections = PacketLedger()
        self.total_packets = 0
        self.total_moves = 0
        self.max_queue_len = 0
        self.max_node_load = 0
        #: Deterministic scheduling counters (see docs/PERFORMANCE.md):
        #: moves scheduled by outqueue policies, moves refused (inqueue
        #: refusals plus link-filter drops), and dynamic packets injected.
        #: Accepted moves equal :attr:`total_moves`.
        self.scheduled_moves = 0
        self.refused_moves = 0
        self.injected_packets = 0
        #: Optional perf probe (:class:`repro.perf.StepInstrumentation`).
        #: When None -- the default -- the step loop pays only a few
        #: ``is not None`` checks; when attached, it is called at every
        #: phase boundary to accumulate per-phase wall time.
        self.instrument: Any = None
        self.series: list[StepRecord] = []
        self._pending: list[Packet] = []
        self._in_flight = 0
        # Precomputed geometry (built once per topology, shared across
        # simulators): per-node outlink targets and outlink direction sets.
        self._neighbors: dict[tuple[int, int], tuple[tuple[int, int] | None, ...]] = (
            dict(zip(topology.nodes(), topology.neighbor_table()))
        )
        self._out_dirs: dict[tuple[int, int], tuple[Direction, ...]] = (
            dict(zip(topology.nodes(), topology.out_directions_table()))
        )
        # Per-node view-factory closures, so _context() does not allocate a
        # fresh lambda for every (node, phase, step) triple.
        self._view_factories: dict[
            tuple[int, int], Callable[[list[Packet]], list[PacketView]]
        ] = {}
        # pid -> the queue (list object) the packet currently sits in, so
        # departures reach into the right queue directly instead of scanning
        # every queue.  Queue lists are mutated in place, never replaced,
        # while occupied, so the reference stays valid until the packet moves.
        self._queue_of: dict[int, list[Packet]] = {}
        # Occupied nodes in sorted order, maintained incrementally (insort on
        # first arrival/injection at a node, bisect-delete on prune) so phase
        # (a) does not re-sort ~every node each step.
        self._sorted_nodes: list[tuple[int, int]] = []
        # node -> total packets held, maintained incrementally (injection and
        # arrival increment, departure decrements).  Lets the transmit phase
        # update the load maxima without re-summing each receiving node.
        self._node_load: dict[tuple[int, int], int] = {}
        # Hoisted hot-path attributes (bound once; see docs/PERFORMANCE.md).
        self._dest_exchangeable = algorithm.destination_exchangeable
        self._profitable = topology.profitable_directions
        #: Hook points for observers (the repro.verify oracle layer).  Pre
        #: hooks run at the top of :meth:`step` (before injection and
        #: scheduling); post hooks run at the very end with the transmitted
        #: moves.  Both lists are empty by default and cost nothing then.
        self.pre_step_hooks: list[Callable[["Simulator"], None]] = []
        self.post_step_hooks: list[
            Callable[["Simulator", list[ScheduledMove]], None]
        ] = []

        self._load(packets)

    # -- setup ---------------------------------------------------------------

    def attach_fault_plan(self, plan: Any) -> None:
        """Install ``plan`` (a :class:`repro.faults.plan.FaultPlan`).

        The reference engine evaluates plans through the scalar
        ``link_filter`` closure; the array engine overrides this to keep
        the plan itself and query its vectorized methods per step.
        """
        self.link_filter = plan.as_link_filter(self.topology)

    def _load(self, packets: Iterable[Packet]) -> None:
        # The batch refuses repeated pids and foreign endpoints up front;
        # loading then walks its Packet objects (built here if need be).
        batch = PacketBatch.of(packets, self.topology)
        self.total_packets += len(batch)
        originating: dict[tuple[int, int], list[Packet]] = {}
        for p in batch:
            if p.injection_time > 0:
                self._pending.append(p)
                continue
            p.pos = p.source
            if p.source == p.dest:
                self.deliveries.append([p.pid], 0)
                continue
            originating.setdefault(p.source, []).append(p)

        self._pending.sort(key=lambda p: (p.injection_time, p.pid))

        for node in sorted(originating):
            plist = sorted(originating[node], key=lambda p: p.pid)
            node_queues = self.queues.setdefault(node, {})
            views = []
            for p in plist:
                profitable = self.topology.profitable_directions(node, p.dest)
                p.state = self.algorithm.initial_packet_state(self._make_view(p, profitable))
                key = self.spec.initial_key(profitable)
                q = node_queues.setdefault(key, [])
                q.append(p)
                self._queue_of[p.pid] = q
                views.append(self._make_view(p, profitable))
                self._in_flight += 1
            state = self.algorithm.initial_node_state(node, views)
            if state is not None:
                self.node_states[node] = state
            self._check_capacity(node)
            self._note_load(node)
        self._sorted_nodes = sorted(self.queues)

    # -- credit probe --------------------------------------------------------

    def _downstream_occupancy(self, node: tuple[int, int], direction: Direction) -> int:
        """Occupancy of the queue a packet sent along ``direction`` lands in.

        Read from the start-of-step configuration (phase (a) never mutates
        queues), so every node sees the same deterministic credit values
        regardless of scheduling order.  Exposes only queue *lengths* --
        destination-free state -- so credit-steering routers stay
        destination-exchangeable.
        """
        target = self._neighbors[node][direction]
        if target is None:
            return 0
        node_queues = self.queues.get(target)
        if not node_queues:
            return 0
        queue = node_queues.get(self.spec._arrival_map[self._opp[direction]])
        return len(queue) if queue else 0

    # -- views ---------------------------------------------------------------

    def _make_view(self, packet: Packet, profitable: frozenset[Direction]) -> PacketView:
        if self._dest_exchangeable:
            return PacketView(packet, profitable)
        disp = self.topology.displacement(packet.pos, packet.dest)
        return FullPacketView(packet, profitable, disp)

    def _view_at(self, packet: Packet, node: tuple[int, int]) -> PacketView:
        return self._view_factory(node)([packet])[0]

    def _view_factory(
        self, node: tuple[int, int]
    ) -> Callable[[list[Packet]], list[PacketView]]:
        # One flat closure per node, mapping a whole raw queue to its view
        # list in a single call (the step loop builds a view for nearly
        # every in-flight packet every step, so the factory avoids both the
        # method-dispatch chain and a per-packet call frame).
        factory = self._view_factories.get(node)
        if factory is None:
            profitable = self._profitable
            # Construct views via ``__new__`` + slot writes rather than the
            # constructor: same fields, same values, but no ``__init__``
            # call frame for the hottest allocation in the step loop.
            if self._dest_exchangeable:

                def factory(
                    raw: list[Packet],
                    node: tuple[int, int] = node,
                    profitable: Callable[..., frozenset[Direction]] = profitable,
                    view_cls: type[PacketView] = PacketView,
                    new: Callable[..., Any] = PacketView.__new__,
                ) -> list[PacketView]:
                    out = []
                    for p in raw:
                        v = new(view_cls)
                        v._packet = p
                        v.key = p.pid
                        v.source = p.source
                        v.profitable = profitable(node, p.dest)
                        out.append(v)
                    return out

            else:
                displacement = self.topology.displacement

                def factory(
                    raw: list[Packet],
                    node: tuple[int, int] = node,
                    profitable: Callable[..., frozenset[Direction]] = profitable,
                    view_cls: type[FullPacketView] = FullPacketView,
                    new: Callable[..., Any] = FullPacketView.__new__,
                ) -> list[PacketView]:
                    out = []
                    for p in raw:
                        v = new(view_cls)
                        v._packet = p
                        v.key = p.pid
                        v.source = p.source
                        v.profitable = profitable(node, p.dest)
                        v.dest = p.dest
                        v.displacement = displacement(node, p.dest)
                        out.append(v)
                    return out

            self._view_factories[node] = factory
        return factory

    def _context(
        self, node: tuple[int, int], raw: dict[Any, list[Packet]] | None = None
    ) -> NodeContext:
        return NodeContext(
            node,
            self.node_states.get(node),
            self._out_dirs[node],
            self.time,
            self.queues.get(node, {}) if raw is None else raw,
            self._view_factory(node),
        )

    # -- introspection (used by adversaries, tests, and metrics) ---------------

    def iter_packets(self) -> Iterator[Packet]:
        """All undelivered, injected packets."""
        for node_queues in self.queues.values():
            for q in node_queues.values():
                yield from q

    def packets_at(self, node: tuple[int, int]) -> list[Packet]:
        out: list[Packet] = []
        for q in self.queues.get(node, {}).values():
            out.extend(q)
        return out

    def queue_occupancy(self, node: tuple[int, int], key: Any) -> int:
        """Current occupancy of one (node, queue-key) queue.

        The engine-portable accessor: the array engine overrides it with a
        direct occupancy-array read, so admission checks (the streaming
        layer) need never materialize queue contents.
        """
        node_queues = self.queues.get(node)
        if not node_queues:
            return 0
        q = node_queues.get(key)
        return len(q) if q else 0

    @property
    def in_flight(self) -> int:
        """Undelivered packets currently in the network."""
        return self._in_flight

    @property
    def delivery_times(self) -> dict[int, int]:
        """pid -> delivery step, built from :attr:`deliveries` when read."""
        return self.deliveries.as_dict()

    @property
    def dropped(self) -> dict[int, int]:
        """pid -> drop step, built from :attr:`drops` when read."""
        return self.drops.as_dict()

    @property
    def rejected(self) -> dict[int, int]:
        """pid -> rejection step, built from :attr:`rejections` when read."""
        return self.rejections.as_dict()

    @property
    def delivered_count(self) -> int:
        """Packets delivered so far."""
        return self.deliveries.size

    @property
    def undelivered(self) -> int:
        return self.total_packets - self.delivered_count

    @property
    def pending_count(self) -> int:
        """Dynamic packets waiting outside the network for injection."""
        return len(self._pending)

    def configuration(self) -> tuple:
        """Canonical hashable snapshot of the network configuration.

        Captures, per node, the per-queue packet sequences (pid, source,
        dest, state) plus the node's state -- the paper's "configuration of
        a network" (Section 4.2).  Used to verify Lemma 12 replay equality.
        Packet and node states must be hashable.
        """
        items = []
        for node in sorted(self.queues):
            node_queues = self.queues[node]
            qitems = []
            for key in sorted(node_queues, key=repr):
                q = node_queues[key]
                if q:
                    qitems.append(
                        (repr(key), tuple((p.pid, p.source, p.dest, p.state) for p in q))
                    )
            if qitems:
                items.append((node, tuple(qitems), self.node_states.get(node)))
        return tuple(items)

    def step_view(self, moves: Sequence[Any] | None = None) -> StepView:
        """The state as a :class:`~repro.mesh.stepview.StepView` whose moves
        are ``moves`` (a step's returned moves, or none); the oracles of
        one step share one view."""
        cached = self._step_view
        if cached is None or cached[0] is not moves or cached[1] != self.time:
            cached = self._step_view = (moves, self.time, self._make_step_view(moves))
        return cached[2]

    def _make_step_view(self, moves: Sequence[Any] | None) -> StepView:
        if self._view_ids is None:
            self._view_ids = (
                {node: i for i, node in enumerate(self._neighbors)},
                {key: i for i, key in enumerate(self.spec.keys)},
            )
        return _PacketStepView(self, *self._view_ids, moves or ())

    # -- the step ---------------------------------------------------------------

    def step(self) -> list[ScheduledMove]:
        """Run one synchronous step; returns the moves that were transmitted."""
        instr = self.instrument
        if instr is not None:
            instr.begin_step()
        self.time += 1
        if self.pre_step_hooks:
            for hook in self.pre_step_hooks:
                hook(self)
            if instr is not None:
                instr.mark("hooks")
        if self._pending:
            self._inject_pending()

        # (a) outqueue policies.  Every node present in ``queues`` holds at
        # least one packet: _prune_empty() maintains that invariant at the
        # end of every step and _load()/_inject_pending() only ever add
        # occupied nodes.
        schedule: list[ScheduledMove] = []
        neighbors = self._neighbors
        outqueue = self.algorithm.outqueue
        validate = self.validate
        # Contexts built here are reused by phase (c) (same step, queues
        # untouched in between) unless an interceptor runs: its destination
        # exchanges would leave already-materialized views stale.
        contexts: dict[tuple[int, int], NodeContext] = {}
        # When nothing between scheduling and the inqueue phase can change a
        # chosen view (no interceptor, no link filter), the offers are built
        # right here in phase (a); otherwise phase (c) rebuilds them from
        # post-exchange state.
        build_offers = self.interceptor is None and self.link_filter is None
        offers_by_target: dict[tuple[int, int], list[tuple[Offer, ScheduledMove]]] = {}
        obt_get = offers_by_target.get
        make_offer = Offer
        make_move = ScheduledMove
        opp = self._opp
        node_states = self.node_states
        node_state = node_states.get
        out_dirs = self._out_dirs
        view_factory = self._view_factory
        factories = self._view_factories
        queues = self.queues
        now = self.time
        if validate and len(self._sorted_nodes) != len(queues):
            raise InvalidScheduleError(
                "occupied-node index out of sync with queues (internal error)"
            )
        for node in self._sorted_nodes:
            node_queues = queues[node]
            factory = factories.get(node)
            if factory is None:
                factory = view_factory(node)
            # Build every queue's views up front: outqueue policies read
            # (nearly) all of their node's queues, so eager construction
            # skips the per-queue lazy plumbing entirely.
            views_map: dict[Any, list[PacketView]] = {}
            for key, q in node_queues.items():
                if q:
                    views_map[key] = factory(q)
            ctx = NodeContext(
                node,
                node_state(node) if node_states else None,
                out_dirs[node],
                now,
                node_queues,
                factory,
            )
            ctx._views = views_map
            contexts[node] = ctx
            chosen = outqueue(ctx)
            if not chosen:
                continue
            if validate:
                if len(chosen) > 1:
                    self._validate_schedule(node, chosen)
                else:
                    # One scheduled outlink: only the position check applies.
                    for view in chosen.values():
                        if view._packet.pos != node:
                            raise InvalidScheduleError(
                                f"{self.algorithm.name}: node {node} scheduled packet "
                                f"{view._packet.pid} which is at {view._packet.pos}"
                            )
            nbr_row = neighbors[node]
            for direction, view in chosen.items():
                target = nbr_row[direction]
                if target is None:
                    raise InvalidScheduleError(
                        f"{self.algorithm.name}: node {node} scheduled on missing "
                        f"outlink {direction.name}"
                    )
                mv = make_move(view._packet, node, direction, target)
                schedule.append(mv)
                if build_offers:
                    pairs = obt_get(target)
                    if pairs is None:
                        offers_by_target[target] = [
                            (make_offer(view, opp[direction], node), mv)
                        ]
                    else:
                        pairs.append((make_offer(view, opp[direction], node), mv))
        scheduled_count = len(schedule)
        self.scheduled_moves += scheduled_count
        if instr is not None:
            instr.mark("a")

        # (b) interceptor (the adversary's exchanges happen here).
        if self.interceptor is not None:
            self.interceptor(self, schedule)
            if instr is not None:
                instr.mark("hooks")

        # Minimality is checked against post-exchange destinations: the
        # adversary must leave every scheduled move profitable (Section 3's
        # exchange rules guarantee this; we verify).
        if self.validate and self.algorithm.minimal:
            profitable_of = self._profitable
            for mv in schedule:
                if mv.direction not in profitable_of(mv.src, mv.packet.dest):
                    raise NonMinimalMoveError(
                        f"packet {mv.packet.pid} at {mv.src} scheduled "
                        f"{mv.direction.name}, unprofitable for dest {mv.packet.dest}"
                    )

        # Optional link filter (the asynchronous extension): a scheduled
        # move over an unavailable link silently fails this step, exactly
        # like a refusal -- the policies cannot tell the difference.
        if self.link_filter is not None:
            schedule = [
                mv
                for mv in schedule
                if self.link_filter(mv.src, mv.direction, self.time)
            ]
        if instr is not None:
            instr.mark("b")

        # (c) inqueue policies.  Offer views carry profitable-from-sender
        # sets; the views chosen in phase (a) are exactly that (and the
        # offers were already built there) unless an interceptor exchanged
        # destinations or a link filter dropped moves, in which case the
        # offers are rebuilt here from post-exchange state.
        if not build_offers:
            offers_by_target = {}
            view_at = self._view_at
            for mv in schedule:
                offer = Offer(view_at(mv.packet, mv.src), opp[mv.direction], mv.src)
                pairs = offers_by_target.get(mv.target)
                if pairs is None:
                    offers_by_target[mv.target] = [(offer, mv)]
                else:
                    pairs.append((offer, mv))

        accepted_moves: list[ScheduledMove] = []
        touched: set[tuple[int, int]] = set()
        reuse_contexts = self.interceptor is None
        # ``touched`` feeds phase (e) only; with the default no-op
        # after_step, phase (e) is skipped and tracking would be waste.
        track_touched = not self._default_after_step
        inqueue = self.algorithm.inqueue
        get_ctx = contexts.get
        accepts_all_empty = self.algorithm.accepts_all_into_empty
        for target, pairs in sorted(offers_by_target.items()):
            multi = len(pairs) > 1
            if multi:
                pairs.sort(key=lambda pair: pair[0].came_from)
            if accepts_all_empty and target not in queues:
                # Declared contract (accepts_all_into_empty): the policy
                # accepts every offer into an unoccupied node, in inlink
                # order -- exactly what calling it would return, so the
                # context build and the inqueue call are skipped.
                if multi:
                    accepted_moves.extend(pair[1] for pair in pairs)
                else:
                    accepted_moves.append(pairs[0][1])
                if track_touched:
                    touched.add(target)
                    for pair in pairs:
                        touched.add(pair[1].src)
                continue
            offers: Any = [pair[0] for pair in pairs] if multi else (pairs[0][0],)
            ctx = get_ctx(target) if reuse_contexts else None
            if ctx is None:
                # Mostly unoccupied targets: build the context inline with
                # the locals phase (a) already hoisted.
                factory = factories.get(target)
                if factory is None:
                    factory = view_factory(target)
                ctx = NodeContext(
                    target,
                    node_state(target) if node_states else None,
                    out_dirs[target],
                    now,
                    queues.get(target) or {},
                    factory,
                )
            accepted = inqueue(ctx, offers)
            if not isinstance(accepted, (list, tuple)):
                accepted = list(accepted)
            if accepted:
                # Moves are appended in (target, inlink-direction) order:
                # targets iterate sorted, and multi-accept groups are sorted
                # by inlink here, so phase (d) needs no global re-sort.
                if len(accepted) == 1 and len(pairs) == 1 and accepted[0] is pairs[0][0]:
                    # The returned offer *is* the single offer given, so the
                    # validate identity checks below hold vacuously.
                    accepted_moves.append(pairs[0][1])
                else:
                    if validate:
                        ids = {id(o) for o in offers}
                        for off in accepted:
                            if id(off) not in ids:
                                raise InvalidScheduleError(
                                    f"{self.algorithm.name}: inqueue at {target} accepted "
                                    "an offer it was not given"
                                )
                        if len({id(o) for o in accepted}) != len(accepted):
                            raise InvalidScheduleError(
                                f"{self.algorithm.name}: inqueue at {target} accepted "
                                "an offer twice"
                            )
                    by_offer = {id(pair[0]): pair[1] for pair in pairs}
                    if len(accepted) == 1:
                        accepted_moves.append(by_offer[id(accepted[0])])
                    else:
                        moves = [by_offer[id(off)] for off in accepted]
                        moves.sort(key=lambda m: opp[m.direction])
                        accepted_moves.extend(moves)
            if track_touched:
                touched.add(target)
                for pair in pairs:
                    touched.add(pair[1].src)
        self.refused_moves += scheduled_count - len(accepted_moves)
        if instr is not None:
            instr.mark("c")

        # (d) transmit: departures first, then arrivals.  ``accepted_moves``
        # is already in (target, inlink-direction) order (see phase (c)).
        queue_of = self._queue_of
        node_load = self._node_load
        sources: set[tuple[int, int]] = set()
        for mv in accepted_moves:
            src = mv.src
            p = mv.packet
            # Inlined _remove_packet fast path: _queue_of holds the queue
            # (exceptions are free until raised on 3.11+, and the fallback
            # scan below re-raises the typed error for truly absent packets).
            try:
                queue_of[p.pid].remove(p)
            except (KeyError, ValueError):
                self._remove_packet(src, p)
            node_load[src] -= 1
            sources.add(src)
        arrivals: set[tuple[int, int]] = set()
        arrival_map = self.spec._arrival_map
        delivered: list[int] = []
        self.total_moves += len(accepted_moves)
        max_queue_len = self.max_queue_len
        max_node_load = self.max_node_load
        capacity = self.spec.capacity
        for mv in accepted_moves:
            p = mv.packet
            target = mv.target
            p.pos = target
            if target == p.dest:
                delivered.append(p.pid)
                self._in_flight -= 1
                queue_of.pop(p.pid, None)
            else:
                key = arrival_map[opp[mv.direction]]
                node_queues = queues.get(target)
                if node_queues is None:
                    queues[target] = node_queues = {}
                    insort(self._sorted_nodes, target)
                q = node_queues.get(key)
                if q is None:
                    node_queues[key] = q = [p]
                else:
                    q.append(p)
                queue_of[p.pid] = q
                load = node_load.get(target, 0) + 1
                node_load[target] = load
                arrivals.add(target)
                # Maxima update fused into the arrival: loads only grow
                # during this loop (departures already happened), so the
                # running values reach exactly the per-step maxima.  Only an
                # appended-to queue can newly exceed capacity, so the check
                # lives here too, reporting the first offending arrival.
                n = len(q)
                if n > max_queue_len:
                    max_queue_len = n
                if load > max_node_load:
                    max_node_load = load
                if validate and n > capacity:
                    raise QueueOverflowError(
                        self.algorithm.name, target, key, n, capacity
                    )
        self.max_queue_len = max_queue_len
        self.max_node_load = max_node_load
        if delivered:
            self.deliveries.append(delivered, self.time)
        if instr is not None:
            instr.mark("d")

        # (e) state updates from end-of-step contents.  Skipped entirely for
        # algorithms that keep the base-class no-op after_step: they can
        # neither change node state nor packet states here.
        if not self._default_after_step:
            if self.algorithm.needs_idle_updates:
                update_nodes: Iterable[tuple[int, int]] = self.topology.nodes()
            else:
                touched.update(arrivals)
                occupied = {n for n, qs in self.queues.items() if any(qs.values())}
                update_nodes = sorted(occupied | touched)
            for node in update_nodes:
                ctx = self._context(node)
                new_state = self.algorithm.after_step(ctx)
                if new_state is None:
                    self.node_states.pop(node, None)
                else:
                    self.node_states[node] = new_state

        # Only a node that sent without receiving can have emptied this step.
        self._prune_empty(sources - arrivals)
        if instr is not None:
            instr.mark("e")

        if self.record_series:
            self.series.append(
                StepRecord(
                    time=self.time,
                    in_flight=self._in_flight,
                    delivered_total=self.deliveries.size,
                    moves=len(accepted_moves),
                    max_queue_len=self.max_queue_len,
                )
            )
        if self.post_step_hooks:
            for hook in self.post_step_hooks:
                hook(self, accepted_moves)
            if instr is not None:
                instr.mark("hooks")
        if instr is not None:
            instr.end_step()
        return accepted_moves

    # -- step helpers ---------------------------------------------------------

    def _inject_pending(self) -> None:
        if not self._pending:
            return
        still_pending: list[Packet] = []
        for p in self._pending:
            # A packet with injection_time = t is present from the end of
            # step t, so its first move happens during step t+1 -- matching
            # static packets (t = 0, first move at step 1).
            if p.injection_time >= self.time:
                still_pending.append(p)
                continue
            if p.source == p.dest:
                self.deliveries.append([p.pid], self.time)
                continue
            profitable = self.topology.profitable_directions(p.source, p.dest)
            key = self.spec.initial_key(profitable)
            if len(self.queues.get(p.source, {}).get(key, ())) >= self.spec.capacity:
                still_pending.append(p)  # its queue is full; retry next step
                continue
            p.pos = p.source
            p.state = self.algorithm.initial_packet_state(self._make_view(p, profitable))
            node_queues = self.queues.get(p.source)
            if node_queues is None:
                self.queues[p.source] = node_queues = {}
                insort(self._sorted_nodes, p.source)
            q = node_queues.setdefault(key, [])
            q.append(p)
            self._queue_of[p.pid] = q
            self._in_flight += 1
            self.injected_packets += 1
            self._check_capacity(p.source)
            self._note_load(p.source)
        self._pending = still_pending

    def _validate_schedule(
        self,
        node: tuple[int, int],
        chosen: dict[Direction, PacketView],
    ) -> None:
        if len(chosen) == 1:
            # Common case: one scheduled outlink, so no duplicate to detect.
            for view in chosen.values():
                p = view._packet
                if p.pos != node:
                    raise InvalidScheduleError(
                        f"{self.algorithm.name}: node {node} scheduled packet "
                        f"{p.pid} which is at {p.pos}"
                    )
            return
        seen_packets: set[int] = set()
        for direction, view in chosen.items():
            p = view._packet
            if p.pos != node:
                raise InvalidScheduleError(
                    f"{self.algorithm.name}: node {node} scheduled packet "
                    f"{p.pid} which is at {p.pos}"
                )
            if p.pid in seen_packets:
                raise InvalidScheduleError(
                    f"{self.algorithm.name}: node {node} scheduled packet "
                    f"{p.pid} on two outlinks"
                )
            seen_packets.add(p.pid)

    def _remove_packet(self, node: tuple[int, int], packet: Packet) -> None:
        # Fast path: _queue_of holds the queue list the packet sits in, so
        # removal needs no per-queue trial scans (list.remove raising
        # ValueError per miss is measurable at transmit volume).
        q = self._queue_of.get(packet.pid)
        if q is not None and packet in q:
            q.remove(packet)
            return
        for q in self.queues.get(node, {}).values():
            try:
                q.remove(packet)
                return
            except ValueError:
                continue
        raise InvalidScheduleError(
            f"packet {packet.pid} not found at {node} during transmit"
        )

    def _check_capacity(self, node: tuple[int, int]) -> None:
        if not self.validate:
            return
        for key, q in sorted(self.queues.get(node, {}).items()):
            if len(q) > self.spec.capacity:
                raise QueueOverflowError(
                    self.algorithm.name, node, key, len(q), self.spec.capacity
                )

    def _note_load(self, node: tuple[int, int]) -> None:
        load = 0
        for q in self.queues.get(node, {}).values():
            n = len(q)
            load += n
            if n > self.max_queue_len:
                self.max_queue_len = n
        self._node_load[node] = load
        if load > self.max_node_load:
            self.max_node_load = load

    def _prune_empty(self, candidates: Iterable[tuple[int, int]] | None = None) -> None:
        queues = self.queues
        if candidates is None:  # full sweep
            for node in [n for n, qs in queues.items() if not any(qs.values())]:
                del queues[node]
            self._sorted_nodes = sorted(queues)
            return
        sorted_nodes = self._sorted_nodes
        for node in candidates:
            qs = queues.get(node)
            if qs is not None and not any(qs.values()):
                del queues[node]
                del sorted_nodes[bisect_left(sorted_nodes, node)]

    # -- fault handling (used by repro.faults; no-ops in fault-free runs) -------

    def drop_packet(self, packet: Packet) -> None:
        """Remove an in-network packet and record it as dropped.

        Dropped packets count as resolved for :attr:`done`; the faults
        conservation invariant is ``delivered + queued + pending + dropped
        == total``.
        """
        q = self._queue_of.pop(packet.pid, None)
        if q is not None and packet in q:
            q.remove(packet)
        else:
            self._remove_packet(packet.pos, packet)
        self._node_load[packet.pos] -= 1
        self._in_flight -= 1
        self.drops.append([packet.pid], self.time)
        self._prune_empty((packet.pos,))

    def drop_pending(self, pid: int) -> None:
        """Drop a packet still waiting outside the network."""
        for i, p in enumerate(self._pending):
            if p.pid == pid:
                del self._pending[i]
                self.drops.append([pid], self.time)
                return
        raise ValueError(f"packet {pid} is not pending")

    def inject_packet(self, packet: Packet) -> None:
        """Add a dynamic packet mid-run (fault-layer retransmissions).

        The packet joins the pending pool and enters the network at the
        first step strictly after its ``injection_time`` at which its
        source queue has space -- the same rule as load-time dynamic
        packets.
        """
        self._check_new_pid(packet)
        self.total_packets += 1
        self._pending.append(packet)
        self._pending.sort(key=lambda p: (p.injection_time, p.pid))

    def offer_packets(
        self, first_pid: int, sources: np.ndarray, dests: np.ndarray
    ) -> np.ndarray:
        """Offer new packets for admission at the current step; returns the
        admitted mask.

        Offer ``i`` is packet ``first_pid + i`` from flat node
        ``sources[i]`` to ``dests[i]`` (:meth:`Topology.node_index` ids),
        injected now.  Admission is purely local: per (source,
        ``queue_spec.initial_key``) slot, an offer is admitted iff fewer
        than ``capacity - occupancy`` earlier offers of the call reached
        that slot, so a burst cannot overbook the queue it lands in.  A
        step takes one call: a second one in the same step raises
        ``ValueError``.  Admitted packets join the pending pool and enter
        the network at the next step.

        A rejected offer -- the open-loop analogue of a dropped call --
        never enters the network but counts toward ``total_packets`` and is
        recorded in :attr:`rejections`, so packet conservation still holds as
        delivered + queued + pending + dropped + rejected == total, and
        :attr:`done` treats it as resolved.  The array engine implements
        the same rule over arrays.
        """
        nodes = tuple(self._neighbors)  # flat id -> node
        src_l, dst_l = list(map(int, sources)), list(map(int, dests))
        pending_pids = {p.pid for p in self._pending}
        delivered = self.delivery_times
        for i, (s, d) in enumerate(zip(src_l, dst_l)):
            pid = first_pid + i
            if (
                pid in self._queue_of
                or pid in delivered
                or pid in self.dropped
                or pid in self.rejected
                or pid in pending_pids
            ):
                raise ValueError(f"duplicate packet id {pid}")
            if not (0 <= s < len(nodes) and 0 <= d < len(nodes)):
                raise ValueError(f"packet {pid} endpoints outside topology")
        time = self._offer_once()
        offers: dict[tuple[tuple[int, int], Any], int] = {}
        spec = self.spec
        m = len(src_l)
        admitted = np.zeros(m, dtype=bool)
        rejected: list[int] = []
        for i, (s, d) in enumerate(zip(src_l, dst_l)):
            src, dst = nodes[s], nodes[d]
            key = spec.initial_key(self._profitable(src, dst))
            slot = (src, key)
            earlier = offers.get(slot, 0)
            offers[slot] = earlier + 1
            if earlier < spec.capacity - self.queue_occupancy(src, key):
                self._pending.append(Packet(first_pid + i, src, dst, injection_time=time))
                admitted[i] = True
            else:
                rejected.append(first_pid + i)
        self.rejections.append(rejected, time)
        self.total_packets += m
        if admitted.any():
            self._pending.sort(key=lambda p: (p.injection_time, p.pid))
        return admitted

    def _offer_once(self) -> int:
        """Mark this step as offered; a second call in it raises."""
        if self._offer_time == self.time:
            raise ValueError(f"offer_packets was already called at step {self.time}")
        self._offer_time = self.time
        return self.time

    def _check_new_pid(self, packet: Packet) -> None:
        pid = packet.pid
        if (
            pid in self._queue_of
            or pid in self.delivery_times
            or pid in self.dropped
            or pid in self.rejected
            or any(p.pid == pid for p in self._pending)
        ):
            raise ValueError(f"duplicate packet id {pid}")
        if not self.topology.contains(packet.source) or not self.topology.contains(
            packet.dest
        ):
            raise ValueError(f"packet {pid} endpoints outside topology")

    # -- driving -----------------------------------------------------------------

    @property
    def done(self) -> bool:
        return (
            self.deliveries.size + self.drops.size + self.rejections.size
            == self.total_packets
        )

    def run(
        self,
        max_steps: int,
        *,
        stop_on_stall: bool = False,
        until: Callable[[], bool] | None = None,
    ) -> RunResult:
        """Step until the run ends; :attr:`RunResult.stop` says why.

        The run ends ``"done"`` once every packet is resolved and
        ``until()`` also holds (the resilience manager's ``settled``), and
        ``"limit"`` at step ``max_steps``.  With ``stop_on_stall`` it also
        ends ``"stalled"`` after :data:`STALL_STEPS` consecutive idle steps
        while not done: a step is idle when it makes no move and no packet
        is pending, so with nothing waiting to enter, the network has
        wedged and the rest of the budget would change nothing but the
        step count.
        """
        idle = 0
        while True:
            if self.done and (until is None or until()):
                return self.result("done")
            if idle == STALL_STEPS:
                return self.result("stalled")
            if self.time >= max_steps:
                return self.result("limit")
            moves = self.total_moves
            self.step()
            if stop_on_stall and not self.done:
                busy = self.total_moves != moves or self.pending_count
                idle = 0 if busy else idle + 1

    def run_steps(self, steps: int) -> None:
        """Run exactly ``steps`` further steps (used by the construction)."""
        for _ in range(steps):
            self.step()

    def counter_snapshot(self) -> dict[str, Any]:
        """The instrumentation counters as of now (see docs/PERFORMANCE.md).

        The scheduling counters are deterministic functions of (spec, seed);
        the wall-clock fields contributed by an attached instrumentation
        probe are not and live under distinct keys.
        """
        counters: dict[str, Any] = {
            "scheduled_moves": self.scheduled_moves,
            "accepted_moves": self.total_moves,
            "refused_moves": self.refused_moves,
            "injected_packets": self.injected_packets,
        }
        if self.instrument is not None:
            counters.update(self.instrument.snapshot())
        return counters

    def result(self, stop: StopReason | None = None) -> RunResult:
        """The run's outcome so far; ``stop`` defaults to ``"done"`` when
        done and ``"limit"`` otherwise."""
        delivery_times = dict(self.delivery_times)
        return RunResult(
            completed=self.done,
            steps=self.time,
            total_packets=self.total_packets,
            delivered=len(delivery_times),
            max_queue_len=self.max_queue_len,
            max_node_load=self.max_node_load,
            total_moves=self.total_moves,
            delivery_times=delivery_times,
            series=list(self.series),
            counters=self.counter_snapshot(),
            stop=stop or ("done" if self.done else "limit"),
        )


class _PacketStepView(StepView):
    """The reference engine's :class:`StepView`, built from its Packets:
    rows carry no slot, and a move's endpoints are its packet's current
    ones (an interceptor may have exchanged the destination).  As on the
    array engine, the columns the oracles seldom read are built on first
    read, by walking the queues again in the same order."""

    slots_made = 0

    def __init__(
        self,
        sim: Simulator,
        flat: dict[Any, int],
        index: dict[Any, int],
        moves: Sequence[ScheduledMove],
    ) -> None:
        self._sim, self._flat, self._index = sim, flat, index
        rows = [
            (p.pid, at, i)
            for node, node_queues in sim.queues.items()
            for at in (flat[node],)
            for key, q in node_queues.items()
            for i in (index.get(key, -1),)
            for p in q
        ]
        self.pid, self.node, self.key = _columns(rows, 3)
        moved = [
            (p.pid, flat[mv.src], flat[mv.target], flat[p.source], flat[p.dest])
            for mv in moves
            for p in (mv.packet,)
        ]
        (self.move_pid, self.move_src, self.move_target, self.move_source,
         self.move_dest) = _columns(moved, 5)

    def _queues(self) -> Iterator[tuple[Any, list[Packet]]]:
        """Each queue's key and packets, in row order."""
        for node_queues in self._sim.queues.values():
            yield from node_queues.items()

    @cached_property
    def outside_keys(self) -> list[Any]:
        if not len(self.key) or self.key.min() >= 0:
            return []
        index = self._index
        return [key for key, q in self._queues() if key not in index for _ in q]

    @cached_property
    def dest(self) -> np.ndarray:
        flat = self._flat
        return np.fromiter(
            [flat[p.dest] for _, q in self._queues() for p in q], np.int64, len(self.pid)
        )

    @cached_property
    def order(self) -> np.ndarray:
        fifo = chain.from_iterable(range(len(q)) for _, q in self._queues())
        return np.fromiter(fifo, np.int64, len(self.pid))

    @cached_property
    def slot(self) -> np.ndarray:
        return np.full(len(self.pid), -1, dtype=np.int64)

    @cached_property
    def pending(self) -> tuple[np.ndarray, ...]:
        flat = self._flat
        rows = [
            (p.injection_time, p.pid, flat[p.source], flat[p.dest])
            for p in self._sim._pending
        ]
        return tuple(_columns(rows, 4))


def _columns(rows: list[tuple[int, ...]], width: int) -> np.ndarray:
    """``rows`` of ``width`` ints, as ``width`` int64 columns."""
    flat = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * width)
    return flat.reshape(-1, width).T
