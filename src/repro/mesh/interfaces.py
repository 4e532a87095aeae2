"""The routing-algorithm interface (Section 2's model, as an ABC).

A routing algorithm supplies, for every node, an *outqueue policy* (which
packets to attempt to transmit on which outlinks), an *inqueue policy*
(which scheduled packets to accept), and state-transition functions for node
and packet state.  The simulator drives these through the paper's per-step
phase order.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Iterable, Mapping, Sequence

from repro.mesh.directions import DIRECTIONS, Direction
from repro.mesh.queues import QueueSpec
from repro.mesh.visibility import Offer, PacketView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.mesh.topology import Topology
    from repro.mesh.transitions import TransitionModel


#: Memoized ``repr`` strings for queue keys.  Queue keys are drawn from a
#: handful of values (``"central"`` or the four directions), but the step
#: loop sorts them constantly; caching the repr preserves the exact
#: ``sorted(..., key=repr)`` ordering contract without re-stringifying.
_KEY_REPRS: dict[Any, str] = {}


def _key_repr(key: Any) -> str:
    s = _KEY_REPRS.get(key)
    if s is None:
        s = _KEY_REPRS.setdefault(key, repr(key))
    return s


@dataclass(frozen=True)
class RoutingContract:
    """The machine-checkable claims a routing algorithm makes about itself.

    The verify layer (:mod:`repro.verify`) reads this to decide which
    oracles apply: a minimal router is held to distance-monotonicity, an
    ``excursion_delta``-bounded router to the Section 5 rectangle bound,
    a router with a ``step_bound`` to its theorem's step budget.

    Attributes:
        name: The algorithm's report name.
        minimal: Never schedules a packet on an unprofitable outlink.
        destination_exchangeable: Policies see :class:`PacketView` only.
        excursion_delta: How far a packet may stray (in hops) beyond the
            rectangle spanned by its source and destination: 0 for minimal
            routers, Section 5's ``delta`` for bounded-excursion routers,
            and None when excursions are unbounded (hot potato).
        queue_kind: ``"central"`` or ``"incoming"`` (the queue regime).
        queue_capacity: The paper's ``k`` -- packets per queue.
        step_bound: Proven worst-case step count for routing any (partial)
            permutation on an ``n x n`` mesh, or None when the paper proves
            no upper bound for this algorithm.
        dimension_ordered: Paths are strictly row-first-then-column; the
            static analyzer derives the permitted turn set from this.
    """

    name: str
    minimal: bool
    destination_exchangeable: bool
    excursion_delta: int | None
    queue_kind: str
    queue_capacity: int
    step_bound: int | None
    dimension_ordered: bool = False


class NodeContext:
    """Everything a policy may see of one node at one step.

    Attributes:
        node: The node's coordinates.  (Positional self-knowledge is
            slightly more than the paper's strictest reading of node state
            grants, but it cannot break Lemma 10: views of exchanged packets
            remain identical regardless of which nodes observe them.  All
            built-in destination-exchangeable policies ignore it.)
        state: The node's algorithm state (read-only here; return a new
            state from :meth:`RoutingAlgorithm.after_step` to change it).
        out_directions: Directions in which the node has outlinks.
        time: Current step number (a global clock; used only by globally
            scheduled algorithms, which are not destination-exchangeable).
    """

    __slots__ = (
        "node",
        "state",
        "out_directions",
        "time",
        "_raw",
        "_view_factory",
        "_views",
        "_packets",
        "_keys",
    )

    def __init__(
        self,
        node: tuple[int, int],
        state: Any,
        out_directions: tuple[Direction, ...],
        time: int,
        raw_queues: dict[Any, list],
        view_factory,
    ) -> None:
        self.node = node
        self.state = state
        self.out_directions = out_directions
        self.time = time
        # Views are materialized lazily: policies that only inspect
        # occupancies (most inqueue policies) never pay for them.
        self._raw = raw_queues
        self._view_factory = view_factory
        self._views: dict[Any, list[PacketView]] = {}
        self._packets: tuple[PacketView, ...] | None = None
        self._keys: list[Any] | None = None

    @property
    def packets(self) -> tuple[PacketView, ...]:
        """All packet views in the node, queue by queue, in arrival order."""
        if self._packets is None:
            flat: list[PacketView] = []
            for key in sorted(self._raw, key=_key_repr):
                flat.extend(self.queue(key))
            self._packets = tuple(flat)
        return self._packets

    def queue(self, key: Any) -> Sequence[PacketView]:
        """Views in one queue, in arrival (FIFO) order."""
        views = self._views.get(key)
        if views is None:
            raw = self._raw.get(key)
            if not raw:
                return ()
            views = self._view_factory(raw)
            self._views[key] = views
        return views

    @property
    def queue_keys(self) -> Iterable[Any]:
        """The node's occupied queue keys, in ascending key order.

        The model's one queue order: a policy that scans a node's queues
        (a turning packet's fallback, a turner ranking) sees them in key
        value order -- N, E, S, W on a 2D grid -- however the queues came
        to be occupied.  Load overflows are reported at the lowest
        (node, key) too.
        """
        if self._keys is None:
            self._keys = sorted(k for k, q in self._raw.items() if q)
        return self._keys

    def occupancy(self, key: Any) -> int:
        """Number of packets currently in queue ``key``."""
        return len(self._raw.get(key, ()))

    @property
    def total_occupancy(self) -> int:
        return sum(len(q) for q in self._raw.values())


class RoutingAlgorithm(abc.ABC):
    """Base class for routing algorithms in the Section 2 model.

    Class attributes:
        name: Human-readable identifier used in reports.
        destination_exchangeable: When True (the default), policies receive
            :class:`PacketView` objects without destination information and
            the algorithm is subject to the paper's lower bounds.  When
            False, policies receive :class:`FullPacketView`.
        minimal: When True (the default), the simulator rejects any schedule
            that moves a packet along an unprofitable outlink.
        needs_idle_updates: When True, :meth:`after_step` is invoked for
            every node every step, even nodes holding no packets.  All
            built-in algorithms leave this False; their node states evolve
            only in response to local packet activity.

    Instance attribute:
        queue_spec: The node queue organization (set in ``__init__``).
    """

    name: ClassVar[str] = "unnamed"
    destination_exchangeable: ClassVar[bool] = True
    minimal: ClassVar[bool] = True
    needs_idle_updates: ClassVar[bool] = False
    #: Declares that the inqueue policy accepts *every* offer made to a node
    #: holding no packets at all.  Purely an optimization contract: when
    #: True, the simulator may skip the inqueue call for unoccupied target
    #: nodes and accept all offers in inlink order -- exactly what the
    #: policy would return.  Leave False (the default) unless the policy
    #: provably never refuses into an empty node (e.g. Theorem 15's
    #: organization, where every per-inlink queue has capacity >= 1 and
    #: occupancy 0).  Declaring it untruthfully changes behaviour.
    accepts_all_into_empty: ClassVar[bool] = False
    #: True for algorithms that route strictly row-first then column (the
    #: Section 5 dimension-order constructions require this path structure).
    dimension_ordered: ClassVar[bool] = False
    #: True for routers that steer by downstream free space.  The simulator
    #: then calls :meth:`attach_credit_probe` with a destination-free
    #: occupancy reader before the run starts (see docs/TOPOLOGY.md).
    uses_credit: ClassVar[bool] = False

    def __init__(self, queue_spec: QueueSpec) -> None:
        self.queue_spec = queue_spec

    def bind_topology(self, topology: "Topology") -> None:
        """One-time hook: the simulator announces the topology it will run on.

        Called before any packet is loaded.  The default accepts only the
        four compass directions, which is all a 2D router's policies speak,
        and raises ``ValueError`` naming the router on any other grid.
        Routers that adapt to dimension metadata (axis count, escape axis,
        regularity) override this.
        """
        if tuple(topology.directions) != DIRECTIONS:
            raise ValueError(
                f"router {type(self).__name__} ({self.name!r}) routes only on "
                f"2D grids (directions N, E, S, W), not on {topology!r}"
            )

    def attach_credit_probe(self, probe: Any) -> None:
        """Receive the simulator's downstream-occupancy reader.

        ``probe(node, direction)`` returns the occupancy of the queue that a
        packet sent from ``node`` along ``direction`` would land in, read
        from the current configuration.  Occupancy is destination-free
        information, so credit steering preserves destination
        exchangeability.  Only called when :attr:`uses_credit` is True.
        """
        return None

    # -- contract metadata ---------------------------------------------------

    def excursion_delta(self) -> int | None:
        """Max hops beyond the source-destination rectangle (see
        :class:`RoutingContract`).  Minimal routers return 0; nonminimal
        routers must override (a bounded delta, or None for unbounded)."""
        return 0 if self.minimal else None

    def permutation_step_bound(self, n: int) -> int | None:
        """Proven worst-case steps for any permutation on an ``n x n`` mesh.

        None (the default) means the paper proves no upper bound for this
        algorithm; routers with a theorem behind them override this.
        """
        return None

    def contract(self, n: int) -> RoutingContract:
        """This algorithm's claims, instantiated for an ``n x n`` mesh."""
        return RoutingContract(
            name=self.name,
            minimal=self.minimal,
            destination_exchangeable=self.destination_exchangeable,
            excursion_delta=self.excursion_delta(),
            queue_kind=self.queue_spec.kind,
            queue_capacity=self.queue_spec.capacity,
            step_bound=self.permutation_step_bound(n),
            dimension_ordered=self.dimension_ordered,
        )

    def enumerate_transitions(
        self, topology: "Topology", k: int
    ) -> "TransitionModel | None":
        """The symbolic queue-transition model this algorithm can exhibit.

        Used by the static analyzers (:mod:`repro.analysis.static_check`):
        the returned :class:`~repro.mesh.transitions.TransitionModel`
        overapproximates every turn the outqueue policy can schedule, marks
        which queues the inqueue policy may refuse, and declares any
        per-step drain guarantees the scheduling discipline proves.  The
        default derives the turn set from the :class:`RoutingContract`
        (dimension order > minimal > unrestricted), conservatively marks
        *every* queue as blockable, and claims no drain guarantees.

        Routers with provably always-accepting queues (Theorem 15's N/S
        queues, bufferless deflection) override this to shrink
        ``blocking_keys`` and declare ``drain_keys`` / ``drain_all_keys``
        so the queue-bound certifier can bound their occupancy.  Return
        None when no sound static model exists for the algorithm; the
        analyzers then report ``UNKNOWN``.
        """
        from repro.mesh.transitions import model_from_contract

        contract = self.contract(max(topology.width, topology.height))
        return model_from_contract(
            queue_kind=contract.queue_kind,
            minimal=contract.minimal,
            dimension_ordered=contract.dimension_ordered,
            note=f"{contract.name}: contract-derived",
            directions=topology.directions,
        )

    # -- initialization ------------------------------------------------------

    def initial_node_state(
        self, node: tuple[int, int], originating: Sequence[PacketView]
    ) -> Any:
        """Node state at step 0 (default: none)."""
        return None

    def initial_packet_state(self, view: PacketView) -> Any:
        """Packet state at step 0 (default: none).

        ``view.state`` is None at this point; the returned value becomes the
        packet's state.
        """
        return None

    # -- the per-step policies -------------------------------------------------

    @abc.abstractmethod
    def outqueue(self, ctx: NodeContext) -> Mapping[Direction, PacketView]:
        """Choose at most one packet per outlink to attempt to transmit.

        Returns a mapping from outlink direction to the view of the packet
        scheduled on it.  A packet may be scheduled on at most one outlink.
        """

    @abc.abstractmethod
    def inqueue(self, ctx: NodeContext, offers: Sequence[Offer]) -> Iterable[Offer]:
        """Choose which scheduled packets to accept.

        ``offers`` is ordered by inlink direction (N, E, S, W).  Returns the
        accepted subset.  The policy must guarantee no queue overflows after
        this step's departures and arrivals are applied; the simulator
        verifies and raises :class:`~repro.mesh.errors.QueueOverflowError`
        otherwise.
        """

    # -- state transitions ------------------------------------------------------

    def after_step(self, ctx: NodeContext) -> Any:
        """Compute the node's state for the next step; may update packet states.

        Called after transmission with the node's end-of-step contents.  The
        default keeps the state unchanged.
        """
        return ctx.state
