"""Structure-of-arrays state for the vectorized array engine.

The reference simulator keeps the network as Python objects: ``Packet``
instances inside per-node dicts of per-queue lists.  The array engine
(:mod:`repro.mesh.array_engine`) keeps the same information as flat numpy
arrays so each simulator phase becomes a handful of batched operations:

- **Packet arrays**, indexed by a dense internal slot id: position
  (coordinates and flat node id), destination, queue key, FIFO sequence
  number, and per-packet age (hot-potato state).  Slots are append-only;
  delivered packets simply leave the active-index set.  Only the order
  of the FIFO sequence numbers matters, so the engine may renumber them.
- **Queue arrays**, indexed by flat node id: per-(node, key) occupancy
  and per-node load.
- **Geometry tables** derived from the topology once: the flat neighbor
  ids of :meth:`repro.mesh.topology.Topology.link_array` (the table the
  reference engine's ``neighbor_table`` comes from too), an outlink
  bitmask per node, and the
  bit widths of the node and distance fields of packed sort keys.

Everything here is layout and geometry; the per-router scheduling kernels
live in :mod:`repro.mesh.array_engine`.  Flat node ids follow
:meth:`repro.mesh.topology.Topology.node_index` (column-major,
``x * height + y``), so sorting by flat id equals sorting by ``(x, y)``
tuples -- the order the reference engine iterates nodes in.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.topology import Topology

#: Direction values (N=0, E=1, S=2, W=3) as an indexable array.
DIR_N, DIR_E, DIR_S, DIR_W = 0, 1, 2, 3

#: ``OPP[d]`` is the opposite direction, as a numpy lookup table.
OPP = np.array([DIR_S, DIR_W, DIR_N, DIR_E], dtype=np.int64)

#: Maps an isolated low bit (``b & -b`` of a 4-bit direction mask) to its
#: direction value; index 0 (no bit set) maps to -1.
LOWBIT_DIR = np.full(16, -1, dtype=np.int64)
LOWBIT_DIR[1] = DIR_N
LOWBIT_DIR[2] = DIR_E
LOWBIT_DIR[4] = DIR_S
LOWBIT_DIR[8] = DIR_W


class GridGeometry:
    """Vectorized per-node geometry tables for one 2D mesh or torus.

    The kernels' 4-bit direction masks are the compass ``N, E, S, W``, so
    the topology is a regular 2D grid with both axes wrapped or neither
    (the array engine's constructor checks this).

    Attributes:
        width / height / num_nodes: Grid dimensions.
        wraps: True for the torus.
        nbr_flat: ``(num_nodes, 4)`` flat neighbor ids, -1 where the
            outlink does not exist (mesh boundary): the topology's
            :meth:`~repro.mesh.topology.Topology.link_array`.
        out_mask: ``(num_nodes,)`` bitmask of existing outlinks
            (bit ``d`` set when direction ``d`` has a link).
    """

    def __init__(self, topology: Topology) -> None:
        width, height = topology.shape
        self.width = width
        self.height = height
        self.num_nodes = topology.num_nodes
        self.wraps = topology.wraps
        self.nbr_flat = nbr = topology.link_array()
        self.out_mask = (
            (nbr >= 0).astype(np.int64) << np.arange(4, dtype=np.int64)
        ).sum(axis=1)
        # Bit widths of packed sort-key fields: a flat node id, and a
        # distance along one axis (below max(width, height)).
        self.node_bits = max(self.num_nodes - 1, 1).bit_length()
        self.dist_bits = max(width, height).bit_length()

    def displacement(
        self, pos: np.ndarray, dest: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Signed minimal displacement ``(dx, dy)`` from ``pos`` to ``dest``
        (flat node ids).

        Matches :meth:`repro.mesh.topology.Topology.displacement`: on the
        torus the shorter way around is chosen and an exact
        half-circumference tie is reported positive.
        """
        h = self.height
        px, py = pos // h, pos % h
        dx_, dy_ = dest // h, dest % h
        if self.wraps:
            dx = (dx_ - px) % self.width
            dx -= self.width * (dx > self.width // 2)
            dy = (dy_ - py) % h
            dy -= h * (dy > h // 2)
        else:
            dx = dx_ - px
            dy = dy_ - py
        return dx, dy

    def profitable_mask(self, pos: np.ndarray, dest: np.ndarray) -> np.ndarray:
        """4-bit profitable-outlink mask from ``pos`` toward ``dest`` (bit
        ``d`` = profitable).

        Matches :meth:`Topology.profitable_directions`, including the torus
        tie case where *both* directions of an axis are profitable.
        """
        dx, dy = self.displacement(pos, dest)
        if self.wraps:
            e = dx > 0
            w = (dx < 0) | ((dx > 0) & (2 * dx == self.width))
            n = dy > 0
            s = (dy < 0) | ((dy > 0) & (2 * dy == self.height))
        else:
            e, w, n, s = dx > 0, dx < 0, dy > 0, dy < 0
        return (
            n.astype(np.int64) * (1 << DIR_N)
            | e.astype(np.int64) * (1 << DIR_E)
            | s.astype(np.int64) * (1 << DIR_S)
            | w.astype(np.int64) * (1 << DIR_W)
        )


class ArrayState:
    """The packet and queue arrays of one array-engine run.

    Packet slots are dense internal ids (0.., in load/injection order) --
    *not* pids; ``pids[slot]`` carries the external id.  ``num_keys`` is 1
    for the central-queue regime (key index 0) and 4 for the incoming
    regime (key index = ``Direction`` value).

    ``qseq`` is the FIFO tiebreaker: unique sequence numbers that
    increase, within each (node, key) queue, in the order the reference
    engine appends packets to that queue's list, so ascending ``qseq``
    within one queue *is* the reference queue order.  Across queues they
    follow no append order (an arrival is numbered by its (target,
    inlink) cell), and they need not be dense.
    """

    def __init__(self, geometry: GridGeometry, num_keys: int, track_age: bool) -> None:
        self.geom = geometry
        self.num_keys = num_keys
        self.track_age = track_age
        cap = 64
        self.pids = np.zeros(cap, dtype=np.int64)
        self.posf = np.zeros(cap, dtype=np.int64)
        self.destf = np.zeros(cap, dtype=np.int64)
        self.qkey = np.zeros(cap, dtype=np.int64)
        self.qseq = np.zeros(cap, dtype=np.int64)
        self.age = np.zeros(cap, dtype=np.int64) if track_age else None
        self.in_net = np.zeros(cap, dtype=bool)
        self.size = 0  # slots in use
        n = geometry.num_nodes
        self.occ = np.zeros((n, num_keys), dtype=np.int64)
        self.load = np.zeros(n, dtype=np.int64)

    def ensure_capacity(self, extra: int) -> None:
        """Grow the packet arrays to hold ``extra`` more slots (amortized)."""
        need = self.size + extra
        cap = len(self.pids)
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in ("pids", "posf", "destf", "qkey", "qseq", "age", "in_net"):
            arr = getattr(self, name)
            if arr is None:
                continue
            grown = np.zeros(cap, dtype=arr.dtype)
            grown[: self.size] = arr[: self.size]
            setattr(self, name, grown)

    def new_slots(
        self,
        pids: np.ndarray,
        posf: np.ndarray,
        destf: np.ndarray,
        qkey: np.ndarray,
        qseq: np.ndarray,
    ) -> np.ndarray:
        """Append one packet slot per entry; returns their dense ids."""
        n = len(pids)
        self.ensure_capacity(n)
        start = self.size
        self.size = end = start + n
        self.pids[start:end] = pids
        self.posf[start:end] = posf
        self.destf[start:end] = destf
        self.qkey[start:end] = qkey
        self.qseq[start:end] = qseq
        self.in_net[start:end] = True
        if self.age is not None:
            self.age[start:end] = 0
        return np.arange(start, end, dtype=np.int64)

    # -- vectorized displacement geometry -----------------------------------

    def displacement(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Signed minimal displacement ``(dx, dy)`` per packet slot."""
        return self.geom.displacement(self.posf[slots], self.destf[slots])

    def desired_direction(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """The dimension-order (row-first) move per packet.

        Vectorized :func:`repro.routing.base.desired_dimension_order_direction`
        over signed displacements: horizontal first, ties (torus
        half-circumference, reported positive by :meth:`displacement`)
        break toward the lower direction value (E over W, N over S).
        """
        return np.where(
            dx > 0,
            DIR_E,
            np.where(dx < 0, DIR_W, np.where(dy > 0, DIR_N, DIR_S)),
        )

    def profitable_mask(self, slots: np.ndarray) -> np.ndarray:
        """4-bit profitable-outlink mask per packet slot."""
        return self.geom.profitable_mask(self.posf[slots], self.destf[slots])
