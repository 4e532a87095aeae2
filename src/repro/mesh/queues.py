"""Queue models (Section 2 and the "Other Queue Types" extension of Section 5).

The paper's base model gives each node one *central* queue holding up to
``k`` packets.  Section 5 extends the lower bound to nodes with four
*incoming* queues (one per inlink) of size ``k`` each; Theorem 15's
algorithm uses exactly that organization.  :class:`QueueSpec` describes
which queues a node has, their capacity, and how packets map to queues on
arrival and at injection time.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.mesh.directions import DIRECTIONS, Direction

#: Queue key used by the central-queue model.
CENTRAL = "central"

#: Queue kinds.
KIND_CENTRAL = "central"
KIND_INCOMING = "incoming"


def default_incoming_initial_key(profitable: frozenset[Direction]) -> Direction:
    """Queue for a freshly injected packet in the incoming-queue model.

    The packet is placed in the queue of the inlink it *would* have arrived
    on if it were already travelling dimension-order: an east-bound packet
    sits in the West queue, and so on.  This depends only on the packet's
    profitable outlinks, so it is a legal initial assignment for a
    destination-exchangeable algorithm (Section 2 allows the initial state
    of a node to depend on the profitable outlinks of the packet that
    originates there).

    The rule is dimension-agnostic (works for :class:`Direction` and for
    d-dimensional :class:`~repro.mesh.directions.Port` keys alike): take the
    profitable direction on the lowest axis, positive side first, and use
    its opposite as the inlink — which reduces to the historical
    E->W, W->E, N->S, S->N table in 2D.
    """
    if profitable:
        travel = min(profitable, key=lambda d: (d.axis, -d.sign))
        return travel.opposite
    # Delivered-at-source packets never actually enter a queue.
    return Direction.S


class QueueSpec:
    """Describes the queue organization of every node.

    Args:
        capacity: Maximum number of packets per queue (the paper's ``k``).
        kind: ``"central"`` (one queue per node) or ``"incoming"`` (one
            queue per inlink direction).
        initial_key: For the incoming model, maps a packet's profitable
            outlinks to the queue it is injected into.  Ignored for the
            central model.
    """

    def __init__(
        self,
        capacity: int,
        kind: str = KIND_CENTRAL,
        initial_key: Callable[[frozenset[Direction]], Any] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        if kind not in (KIND_CENTRAL, KIND_INCOMING):
            raise ValueError(f"unknown queue kind {kind!r}")
        self.capacity = capacity
        self.kind = kind
        self._initial_key = initial_key or default_incoming_initial_key
        # Hot-path tables: arrival_key / initial_key are called once per
        # transmitted packet per step, so precompute the per-direction
        # arrival map and memoize initial keys per profitable set (at most
        # one direction, or a torus tie's two, per axis: few distinct sets,
        # so this cache stays tiny).
        self._central = self.kind == KIND_CENTRAL
        self._directions: tuple[Any, ...] = DIRECTIONS
        self._arrival_map: dict[Any, Any] = {
            d: (CENTRAL if self._central else d) for d in DIRECTIONS
        }
        self._initial_cache: dict[frozenset[Any], Any] = {}

    def bind_directions(self, directions: tuple[Any, ...]) -> None:
        """Rebuild the per-direction tables for a topology's link set.

        Called once by the simulator before any packet is loaded, so specs
        written for the 2D compass directions work unchanged on
        d-dimensional topologies whose links are ports.  Binding the same
        direction tuple again is a no-op.
        """
        directions = tuple(directions)
        if directions == self._directions:
            return
        self._directions = directions
        self._arrival_map = {
            d: (CENTRAL if self._central else d) for d in directions
        }
        self._initial_cache = {}

    @property
    def keys(self) -> tuple[Any, ...]:
        """All queue keys a node may use."""
        if self.kind == KIND_CENTRAL:
            return (CENTRAL,)
        return self._directions

    @property
    def node_capacity(self) -> int:
        """Total packets a node can hold across all of its queues."""
        return self.capacity * len(self.keys)

    def arrival_key(self, came_from: Direction) -> Any:
        """Queue for a packet arriving on the inlink from ``came_from``."""
        return self._arrival_map[came_from]

    def initial_key(self, profitable: frozenset[Direction]) -> Any:
        """Queue for a packet injected at its source node."""
        if self._central:
            return CENTRAL
        key = self._initial_cache.get(profitable)
        if key is None:
            key = self._initial_cache.setdefault(
                profitable, self._initial_key(profitable)
            )
        return key

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"QueueSpec(capacity={self.capacity}, kind={self.kind!r})"
