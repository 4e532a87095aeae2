"""The vectorized array-backend step engine.

:class:`ArraySimulator` re-implements the reference
:class:`~repro.mesh.simulator.Simulator` step loop over the
structure-of-arrays state of :mod:`repro.mesh.array_state`: each phase
(outqueue selection, inqueue acceptance, transmit) is a handful of batched
numpy operations instead of a Python loop over nodes and packets.  It is
**bit-identical** to the reference engine -- same configurations after
every step, same counters, same ``RunResult`` -- which the equivalence
harness (:mod:`repro.verify.engine_equivalence`), the golden step tables,
and the hypothesis lockstep suite enforce.

Only the *ported* routers run here, each as a :class:`RouterKernel`:
one :class:`DimensionOrderKernel` serves central-queue and bounded
dimension order (and, with a farthest-first rank, farthest-first), and
hot-potato, greedy-adaptive and credit-adaptive have their own.  The
kernels share four primitives over sorted arrays -- :func:`_firsts` (run
starts), :func:`_ranks` (run index and rank within the run),
:func:`_up_to_free` (the first ``free`` entries per key get in) and
:func:`_claim` (outlink claims, rank by rank) -- so a policy is a sort
key plus these.  They run only on regular 2D grids with both axes
wrapped or neither (``Mesh``, ``Torus``, ``MeshND((w, h))``, ...) without
interceptors.  ``Simulator(engine="array")`` always constructs
:class:`ArraySimulator`, whose constructor raises ``ValueError`` naming
the supported set for anything else.  Fault plans
(:mod:`repro.faults.plan`) attach through
:meth:`ArraySimulator.attach_fault_plan` and run as a vectorized
per-step availability mask over the scheduled moves, evaluated from the
same pure counter-hash draws as the reference engine's ``link_filter``
path -- so faulty runs are byte-identical across engines too.

Packets are loaded from a :class:`~repro.mesh.batch.PacketBatch`'s flat
arrays (a Packet list is converted to one first), and a slot's Packet
object is resolved only when something asks for it.  The compatibility
surface (``queues``, ``configuration()``, ``iter_packets`` and the
observer hooks' move lists) is provided by materializing those objects
on demand.  Deliveries, drops and rejections go to the engine-neutral
array ledgers (:class:`~repro.mesh.stepview.PacketLedger`), and
:meth:`~repro.mesh.simulator.Simulator.step_view` hands observers the
engine's own arrays, gathered per field on first read.  The hot path
never touches the objects, and the verify oracles read only the ledgers
and the view, so a run without object-level observers -- checked or not
-- builds no Packet from a batch and stays fully vectorized.  Nor does a
step sort its moves: a packet's FIFO place comes from its arrival cell
(target, inlink), and the moves are put in that order only when
something reads them (:class:`ArrayMoves`).  See
docs/PERFORMANCE.md for the memory layout, the porting checklist, and the
equivalence-gate protocol.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Iterable, Iterator, Sequence, Sized

import numpy as np

from repro.mesh.array_state import (
    DIR_E,
    DIR_N,
    DIR_S,
    DIR_W,
    LOWBIT_DIR,
    OPP,
    ArrayState,
    GridGeometry,
)
from repro.mesh.batch import PacketBatch
from repro.mesh.directions import DIRECTIONS, Direction
from repro.mesh.errors import QueueOverflowError
from repro.mesh.packet import Packet
from repro.mesh.queues import CENTRAL
from repro.mesh.simulator import ScheduledMove, Simulator, StepRecord
from repro.mesh.stepview import PacketLedger, StepView
from repro.mesh.topology import Topology

_EMPTY = np.empty(0, dtype=np.int64)

#: ``NodeContext.packets`` iterates queues in repr-sorted key order -- for
#: the four compass directions that is E, N, S, W -- so kernels that mirror
#: it rank queue keys through this table (index = ``Direction`` value).
_REPR_RANK = np.array([1, 0, 2, 3], dtype=np.int64)

#: Sentinel cost larger than any queue occupancy (credit steering).
_BIG = np.int64(1) << 60


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Run-start mask of the sorted ``keys``: True where an entry's key
    differs from the previous entry's, and at entry 0."""
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _ranks(first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per entry of the run-start mask ``first``: its run's index, and its
    rank within the run (0 at the run's start)."""
    grp = np.cumsum(first) - 1
    rank = np.arange(len(first), dtype=np.int64) - np.flatnonzero(first)[grp]
    return grp, rank


def _up_to_free(order: np.ndarray, keys: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Admission mask: per key, the first ``free`` entries in ``order``.

    ``order`` is a permutation that sorts ``keys`` (ties in the order the
    entries are to be admitted); ``free[i]`` is the room of entry ``i``'s
    key.  Entry ``i`` is admitted iff fewer than ``free[i]`` entries with
    its key come before it in ``order``.
    """
    _, rank = _ranks(_firsts(keys[order]))
    ok = np.empty(len(order), dtype=bool)
    ok[order] = rank < free[order]
    return ok


def _claim(
    grp: np.ndarray, rank: np.ndarray, *passes: tuple[np.ndarray, int]
) -> np.ndarray:
    """Outlink claims: returns each entry's claimed direction (-1: none).

    Entries are grouped by ``grp`` (their node) and processed rank by rank
    (``rank`` is contiguous from 0 within a group).  In each pass
    ``(masks, pref)``, every entry still without an outlink takes the
    first direction of its 4-bit ``masks`` entry that no one in its group
    has taken yet, in the preference order ``pref, pref + 1, ...`` (mod 4).
    """
    taken = np.zeros(int(grp[-1]) + 1 if len(grp) else 0, dtype=np.int64)
    cdir = np.full(len(grp), -1, dtype=np.int64)
    by_rank = [np.flatnonzero(rank == r) for r in range(int(rank.max(initial=-1)) + 1)]
    for npass, (masks, pref) in enumerate(passes):
        for idx in by_rank:
            if npass:  # skip the entries an earlier pass placed
                idx = idx[cdir[idx] < 0]
            if not len(idx):
                continue
            nn = grp[idx]
            free = masks[idx] & ~taken[nn]
            # Rotate so bit j means direction (j + pref) % 4; the lowest set
            # bit is then the first free direction in preference order.
            rot = ((free >> pref) | (free << (4 - pref))) & 15
            dd = LOWBIT_DIR[rot & -rot]
            placed = dd >= 0
            d = (dd[placed] + pref) & 3
            cdir[idx[placed]] = d
            taken[nn[placed]] |= 1 << d
    return cdir


class RouterKernel:
    """Vectorized scheduling policy of one ported router.

    A kernel supplies the router-specific phases over the shared
    :class:`ArrayState`: ``schedule`` (phase (a): at most one packet per
    outlink), ``accept`` (phase (c): which scheduled moves enter their
    target), and ``after_step`` (phase (e): packet-state updates).  The
    engine owns everything else -- injection, transmit, counters, maxima.

    The queue regime (one central queue or four incoming ones per node)
    comes from the router's queue spec (``engine._central``);
    ``track_age`` declares that packet state is an integer age.
    """

    track_age = False

    def __init__(self, engine: "ArraySimulator") -> None:
        self.engine = engine

    def schedule(self, act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Phase (a): return (packet slots, source flat ids, directions)."""
        raise NotImplementedError

    def accept(self, pkt: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """Phase (c): boolean acceptance mask over the scheduled moves of
        packet slots ``pkt`` into arrival cells ``(target << 2) | inlink``
        (the flat incoming-queue index)."""
        raise NotImplementedError

    def after_step(self) -> None:
        """Phase (e): packet-state updates from end-of-step contents."""


class DimensionOrderKernel(RouterKernel):
    """Dimension order: per outlink, one winner among the packets whose
    dimension-order direction it is.

    Serves Section 2's central-queue dimension order and Theorem 15's
    bounded dimension order (four incoming queues), by the queue spec.
    Per (node, direction) the winner is the least
    ``(notstraight, [closeness,] key, FIFO)``, where ``notstraight`` and
    ``key`` count only in the incoming regime: a straight-continuing
    packet (in the queue opposite the outlink) beats every turner, and
    turners rank by the node's queues in key order.  ``closeness`` ranks
    farthest-first (:class:`FarthestFirstKernel`).  Central accept is the
    rotating accept-up-to-space; incoming N/S inqueues always accept and
    E/W accept only below capacity.
    """

    farthest = False

    def schedule(self, act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        engine = self.engine
        st = engine._state
        geom = st.geom
        node = st.posf[act]
        dx, dy = st.displacement(act)
        desired = st.desired_direction(dx, dy)
        group = (node << 2) | desired
        fields = [(group, geom.node_bits + 2)]
        incoming = not engine._central
        if incoming:
            qkey = st.qkey[act]
            fields.append(((qkey != OPP[desired]).astype(np.int64), 1))
        if self.farthest:
            # E/W are the odd direction values, so parity selects the axis;
            # the complement of the distance sorts farthest first.
            dist = np.where((desired & 1) == 1, np.abs(dx), np.abs(dy))
            fields.append((((1 << geom.dist_bits) - 1) - dist, geom.dist_bits))
        if incoming:
            fields.append((qkey, 2))
        order = engine._fifo_order(act, *fields)
        sel = order[_firsts(group[order])]
        return act[sel], node[sel], desired[sel]

    def accept(self, pkt, cell):
        engine = self.engine
        if engine._central:
            return _rotating_central_accept(engine, cell)
        return _vertical_or_room(engine, cell)


def _vertical_or_room(engine: "ArraySimulator", cell: np.ndarray) -> np.ndarray:
    """Incoming regime: N/S inqueues always accept, E/W ones below
    capacity."""
    came = cell & 3
    vertical = (came == DIR_N) | (came == DIR_S)
    return vertical | (engine._state.occ.ravel()[cell] < engine.spec.capacity)


def _rotating_central_accept(engine: "ArraySimulator", cell: np.ndarray) -> np.ndarray:
    """``accept_up_to_central_space``, batched: per target, the first
    ``capacity - occupancy`` offers in rotating round-robin priority
    (``rotation_order(time)``) are accepted."""
    tgt = cell >> 2
    free = engine.spec.capacity - engine._state.occ.ravel()[tgt]
    prio = ((cell & 3) - (engine.time & 3)) & 3
    return _up_to_free(np.lexsort((prio, tgt)), tgt, free)


class HotPotatoKernel(RouterKernel):
    """Age-based deflection: oldest first, profitable else rotating free link."""

    track_age = True

    def schedule(self, act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        engine = self.engine
        st = engine._state
        node = st.posf[act]
        # Rank within each node by (-age, pid): the reference outqueue's
        # processing order.
        order = np.lexsort((st.pids[act], -st.age[act], node))
        slots = act[order]
        snode = node[order]
        grp, rank = _ranks(_firsts(snode))
        # Pass 1: each packet takes its lowest free profitable outlink
        # (sorted(profitable) is ascending direction value).  Pass 2:
        # deflection onto the first free outlink in rotation_order(time)
        # preference.
        cdir = _claim(
            grp,
            rank,
            (st.profitable_mask(slots), 0),
            (st.geom.out_mask[snode], engine.time & 3),
        )
        sel = cdir >= 0
        return slots[sel], snode[sel], cdir[sel]

    def accept(self, pkt, cell):
        return np.ones(len(pkt), dtype=bool)  # bufferless: accept everything

    def after_step(self) -> None:
        engine = self.engine
        act = engine._act
        if act.size:
            engine._state.age[act] += 1  # everyone in the network ages


class GreedyAdaptiveKernel(RouterKernel):
    """Greedy adaptive: packets claim free profitable outlinks in order.

    Mirrors ``GreedyAdaptiveRouter.outqueue``: packets are processed in
    ``ctx.packets`` order (queues in repr-sorted key order, FIFO within)
    and each claims the first unclaimed profitable outlink in
    ``rotation_order(time)`` preference.  Central accept is the rotating
    accept-up-to-space; incoming accepts below per-queue capacity.
    """

    def schedule(self, act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        engine = self.engine
        st = engine._state
        node = st.posf[act]
        nbits = st.geom.node_bits
        if engine._central:
            order = engine._fifo_order(act, (node, nbits))
        else:
            order = engine._fifo_order(
                act, (node, nbits), (_REPR_RANK[st.qkey[act]], 2)
            )
        slots = act[order]
        snode = node[order]
        grp, rank = _ranks(_firsts(snode))
        cdir = _claim(grp, rank, (st.profitable_mask(slots), engine.time & 3))
        sel = cdir >= 0
        return slots[sel], snode[sel], cdir[sel]

    def accept(self, pkt, cell):
        engine = self.engine
        if engine._central:
            return _rotating_central_accept(engine, cell)
        return engine._state.occ.ravel()[cell] < engine.spec.capacity


class FarthestFirstKernel(DimensionOrderKernel):
    """Farthest-first dimension order (the Section 5 E4 victim).

    Per (node, direction) the packet with the most remaining distance in
    that dimension wins; the rest of the rank is
    :class:`DimensionOrderKernel`'s (straight class first in the incoming
    regime, then key, then FIFO).  Inqueue: delivering offers always
    accept; incoming N/S always accept; otherwise space-gated (central
    ranks transit offers farthest-first against free space).
    """

    farthest = True

    def accept(self, pkt, cell):
        engine = self.engine
        st = engine._state
        tgt = cell >> 2
        delivering = tgt == st.destf[pkt]
        if not engine._central:
            return delivering | _vertical_or_room(engine, cell)
        # Central: delivering offers consume no space and always accept;
        # transit offers rank farthest-first (total remaining distance,
        # inlink value tie) against beginning-of-step free space.
        acc = delivering.copy()
        transit = np.flatnonzero(~delivering)
        if len(transit):
            dx, dy = st.displacement(pkt[transit])
            ttgt = tgt[transit]
            order = np.lexsort((cell[transit] & 3, -(np.abs(dx) + np.abs(dy)), ttgt))
            free = engine.spec.capacity - st.occ[ttgt, 0]
            acc[transit] = _up_to_free(order, ttgt, free)
        return acc


class CreditAdaptiveKernel(RouterKernel):
    """Credit-steered minimal adaptive with a dimension-ordered escape axis.

    Phase 1 enforces the escape-channel drain invariant: the FIFO head of
    each vertical (escape-axis) queue goes straight when that move is
    profitable.  Phase 2 walks the remaining packets in (queue value,
    FIFO) order; each takes the unclaimed allowed direction with the
    least downstream occupancy -- the credit probe readback, which is
    ``occ[neighbor, opposite(direction)]`` at start of phase (a) -- with
    ties to the smaller direction value.  Negative-first adaptivity: a
    packet with any profitable horizontal direction is restricted to W
    when W is profitable, else E; vertical-only packets use their
    profitable vertical directions.  Incoming-only; escape (vertical)
    inqueues always accept, adaptive queues accept below capacity.
    """

    def schedule(self, act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        engine = self.engine
        st = engine._state
        node = st.posf[act]
        qkey = st.qkey[act]
        order = engine._fifo_order(act, (node, st.geom.node_bits), (qkey, 2))
        slots = act[order]
        snode = node[order]
        skey = qkey[order]
        grp, rank = _ranks(_firsts(snode))
        pmask = st.profitable_mask(slots)
        taken = np.zeros(int(grp[-1]) + 1, dtype=np.int64)
        cdir = np.full(len(slots), -1, dtype=np.int64)
        # Phase 1 (escape drain): the FIFO head of each vertical queue
        # goes straight when profitable.  N-heads claim S and S-heads
        # claim N, so the two sweeps can never collide.
        for k in (DIR_N, DIR_S):
            straight = int(OPP[k])
            idxk = np.flatnonzero(skey == k)
            if len(idxk) == 0:
                continue
            heads = idxk[_firsts(snode[idxk])]
            ok = heads[((pmask[heads] >> straight) & 1) == 1]
            cdir[ok] = straight
            taken[grp[ok]] |= 1 << straight
        # Phase 2 (credit steering): negative-first allowed set per packet.
        wbit = (pmask >> DIR_W) & 1
        ebit = (pmask >> DIR_E) & 1
        amask = np.where(
            wbit == 1,
            1 << DIR_W,
            np.where(ebit == 1, 1 << DIR_E, pmask & ((1 << DIR_N) | (1 << DIR_S))),
        )
        nbr = st.geom.nbr_flat
        occ = st.occ
        for r in range(int(rank.max()) + 1):
            idx = np.flatnonzero((rank == r) & (cdir < 0))
            if len(idx) == 0:
                continue  # phase-1 heads may hollow out a rank; keep going
            nn = grp[idx]
            free = amask[idx] & ~taken[nn]
            nodes = snode[idx]
            costs = np.full((len(idx), 4), _BIG, dtype=np.int64)
            for d in range(4):
                has = ((free >> d) & 1) == 1
                if not bool(has.any()):
                    continue
                tgtd = nbr[nodes[has], d]
                costs[has, d] = occ[tgtd, OPP[d]]
            pick = np.argmin(costs, axis=1)  # ties -> smaller direction
            placed = costs[np.arange(len(idx), dtype=np.int64), pick] < _BIG
            d = pick[placed]
            cdir[idx[placed]] = d
            taken[nn[placed]] |= 1 << d
        sel = cdir >= 0
        return slots[sel], snode[sel], cdir[sel]

    def accept(self, pkt, cell):
        return _vertical_or_room(self.engine, cell)


class ArrayMoves(Sequence[ScheduledMove]):
    """One step's accepted moves: parallel arrays, read as a lazy move list.

    The engine hands over the moves in schedule order with their arrival
    cells, ``(target << 2) | inlink``.  Each cell takes at most one move
    per step, so sorting by cell gives the reference engine's
    accepted-move order, (target, inlink); that sort runs the first time
    ``slots`` (packet slots), ``src`` and ``target`` (flat node ids) or
    ``direction`` (direction values) is read, so a step nobody reads
    never sorts.  Array-aware observers read
    :meth:`ArraySimulator.step_view`, which takes the unsorted columns
    (:attr:`scheduled`), so a checked step does not sort either.
    Indexing or iterating builds the
    ``ScheduledMove`` list the reference engine hands its hooks, once; a
    build during the step that made the moves also moves each Packet's
    ``pos`` to its target, as the reference engine does.
    """

    __slots__ = ("_raw", "_cols", "_engine", "_time", "_moves")

    def __init__(
        self,
        engine: "ArraySimulator",
        slots: np.ndarray,
        src: np.ndarray,
        direction: np.ndarray,
        cell: np.ndarray,
    ) -> None:
        self._raw = (slots, src, direction, cell)
        self._cols: tuple[np.ndarray, ...] | None = None  # in cell order
        self._engine = engine
        self._time = engine.time
        self._moves: list[ScheduledMove] | None = None

    def _sorted(self) -> tuple[np.ndarray, ...]:
        cols = self._cols
        if cols is None:
            slots, src, direction, cell = self._raw
            order = np.argsort(cell)  # noqa: SC007 -- unique keys
            cell = cell[order]
            self._cols = cols = (slots[order], src[order], direction[order], cell >> 2)
        return cols

    @property
    def scheduled(self) -> tuple[np.ndarray, ...]:
        """``(slots, src, direction, cell)`` in schedule order: the same
        rows as the sorted columns, for a reader that needs no order."""
        return self._raw

    @property
    def slots(self) -> np.ndarray:
        return self._sorted()[0]

    @property
    def src(self) -> np.ndarray:
        return self._sorted()[1]

    @property
    def direction(self) -> np.ndarray:
        return self._sorted()[2]

    @property
    def target(self) -> np.ndarray:
        return self._sorted()[3]

    def __len__(self) -> int:
        return len(self._raw[0])

    def __getitem__(self, index: Any) -> Any:
        return self._build()[index]

    def __iter__(self) -> Iterator[ScheduledMove]:
        return iter(self._build())

    def _build(self) -> list[ScheduledMove]:
        moves = self._moves
        if moves is not None:
            return moves
        engine = self._engine
        height = engine._height
        packet_of = engine._slots.objects()
        current = engine.time == self._time
        moves = []
        for slot, src_f, d, tgt_f in zip(
            self.slots.tolist(),
            self.src.tolist(),
            self.direction.tolist(),
            self.target.tolist(),
        ):
            p = packet_of[slot]
            target = (tgt_f // height, tgt_f % height)
            if current:
                p.pos = target
            moves.append(
                ScheduledMove(
                    p, (src_f // height, src_f % height), DIRECTIONS[d], target
                )
            )
        self._moves = moves
        return moves


class SlotPackets:
    """The packet behind each array-engine slot, built only when read.

    Slots are numbered in placement order.  Per slot the store keeps the
    source and destination flat ids the caller gave, written once when the
    slot is created and never from the engine's working arrays, so the
    verify oracles measure each move against them independently.  It
    resolves each slot to its Packet only when :meth:`objects` is first
    called: the loaded slots to the loaded batch's own objects, a later
    slot to the Packet its caller passed (``inject_packet``), and an
    admitted offer's slot to a Packet built from the pid and injection
    time its :meth:`append` call gave.
    """

    def __init__(self, topology: Topology) -> None:
        self.size = 0
        self._ends = np.zeros((2, 64), dtype=np.int64)  # [source/dest, slot]
        self._topology = topology
        self._batch: PacketBatch | None = None
        self._index = _EMPTY  # batch index of each loaded slot
        # (pid, injection_time) arrays of each append not yet built.
        self._unbuilt: list[tuple[np.ndarray, np.ndarray]] = []
        self._given: dict[int, Packet] = {}  # later slot -> caller's Packet
        self._objects: list[Packet] | None = None

    @property
    def source(self) -> np.ndarray:
        """Source flat id per slot, as the caller gave it."""
        return self._ends[0, : self.size]

    @property
    def dest(self) -> np.ndarray:
        """Destination flat id per slot, as the caller gave it."""
        return self._ends[1, : self.size]

    def _add_ends(self, src: np.ndarray, dst: np.ndarray) -> None:
        start = self.size
        self.size = end = start + len(src)
        if end > self._ends.shape[1]:
            grown = np.zeros((2, max(end, 2 * self._ends.shape[1])), dtype=np.int64)
            grown[:, :start] = self._ends[:, :start]
            self._ends = grown
        self._ends[0, start:end] = src
        self._ends[1, start:end] = dst

    def load(self, batch: PacketBatch, index: np.ndarray) -> None:
        """The first slots (called before any :meth:`append`) are
        ``batch``'s packets at ``index``."""
        self._add_ends(batch.source[index], batch.dest[index])
        self._batch = batch
        self._index = index

    def append(
        self,
        pid: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        time: np.ndarray,
        given: dict[int, Packet],
    ) -> None:
        """New slots for packets ``pid`` (flat endpoints ``src``/``dst``,
        injection times ``time``); a pid in ``given`` keeps that Packet,
        which is moved out of ``given``."""
        start = self.size
        self._add_ends(src, dst)
        self._unbuilt.append((pid, time))
        if given:
            for slot, p in enumerate(pid.tolist(), start):
                obj = given.pop(p, None)
                if obj is not None:
                    self._given[slot] = obj

    def objects(self) -> list[Packet]:
        """Slot -> Packet, for every slot created so far."""
        objects = self._objects
        if objects is None:
            objects = []
            if self._batch is not None:
                loaded = self._batch.objects()
                objects = [loaded[i] for i in self._index.tolist()]
            self._objects = objects
        if self._unbuilt:
            # The appended slots not built yet are the last ones, in order.
            nodes = tuple(self._topology.nodes())
            given = self._given
            start = len(objects)
            for slot, pid, src, dst, time in zip(
                range(start, self.size),
                np.concatenate([pid for pid, _ in self._unbuilt]).tolist(),
                self.source[start:].tolist(),
                self.dest[start:].tolist(),
                np.concatenate([time for _, time in self._unbuilt]).tolist(),
            ):
                p = given.pop(slot, None)
                if p is None:
                    p = Packet(pid, nodes[src], nodes[dst], injection_time=time)
                objects.append(p)
            self._unbuilt = []
        return objects


class ArraySimulator(Simulator):
    """Array-backend drop-in for :class:`~repro.mesh.simulator.Simulator`.

    Construct through ``Simulator(..., engine="array")``.  This
    constructor is the one place that decides support: an unported router
    (subclasses of ported routers included), a topology other than a
    regular 2D grid with both axes wrapped or neither, or an interceptor
    raises ``ValueError`` naming the supported set.  Capabilities used after
    construction fail fast too: arbitrary ``link_filter`` assignment
    raises at assignment time (fault plans attach through
    :meth:`attach_fault_plan` instead), and packet drops raise at the call.

    The observable surface matches the reference engine exactly, built
    only when an object-level observer looks: ``queues`` materializes
    Packet objects lazily (cached per step), so inherited
    ``configuration()``/``iter_packets``/``result()`` work unchanged, and
    :meth:`step` returns (and hands post-step hooks) the step's moves as
    :class:`ArrayMoves`, which builds the ``ScheduledMove`` list only when
    iterated.  The verify oracles read :meth:`step_view` and the outcome
    ledgers (:attr:`deliveries`, :attr:`drops`, :attr:`rejections`)
    instead, so a checked run builds none of these.
    """

    engine_name = "array"

    def __init__(
        self,
        topology: Topology,
        algorithm: Any,
        packets: Iterable[Packet],
        *,
        interceptor: Any = None,
        validate: bool = True,
        record_series: bool = False,
        engine: str = "array",
    ) -> None:
        if interceptor is not None:
            raise ValueError(
                f"array engine does not support interceptors; {_supported()}"
            )
        if not (
            topology.dims == 2 and topology.regular and len(set(topology.wrap)) == 1
        ):
            raise ValueError(
                f"array engine does not support topology {topology!r}; {_supported()}"
            )
        kernel_cls = _KERNELS.get(type(algorithm))
        if kernel_cls is None:
            raise ValueError(
                f"router {type(algorithm).__name__} ({algorithm.name!r}) is not "
                f"ported to the array engine; {_supported()}"
            )
        self.topology = topology
        self.algorithm = algorithm
        self.interceptor = None
        self.validate = validate
        self.record_series = record_series
        self._fault_plan: Any = None
        self._plan_filter: Any = None
        self.spec = algorithm.queue_spec
        self.time = 0
        self.node_states: dict = {}
        self.deliveries = PacketLedger()
        self.drops = PacketLedger()
        self.rejections = PacketLedger()
        self.total_packets = 0
        self.total_moves = 0
        self.max_queue_len = 0
        self.max_node_load = 0
        self.scheduled_moves = 0
        self.refused_moves = 0
        self.injected_packets = 0
        self.instrument: Any = None
        self.series: list[StepRecord] = []
        # Packets waiting outside the network: parallel (time, pid, source,
        # dest) arrays, sorted by (injection_time, pid) unless marked
        # stale, and the caller's Packet of each pending pid that has one.
        # ``inject_packet`` only appends to ``_pend_new``; admitted offers
        # have no Packet.  ``pending_arrays`` merges and re-sorts.
        self._pend: tuple[np.ndarray, ...] = (_EMPTY,) * 4
        self._pend_given: dict[int, Packet] = {}
        self._pend_new: list[Packet] = []
        self._pending_dirty = False
        self._in_flight = 0
        self.pre_step_hooks: list = []
        self.post_step_hooks: list = []
        self._central = self.spec.kind == "central"
        self._height = topology.height
        self.spec.bind_directions(topology.directions)
        algorithm.bind_topology(topology)
        self._kernel = kernel_cls(self)
        self._state = ArrayState(
            GridGeometry(topology), 1 if self._central else 4, kernel_cls.track_age
        )
        # Injection queue index per 4-bit profitable mask (made on first use).
        self._initial_kidx: np.ndarray | None = None
        if algorithm.uses_credit:
            algorithm.attach_credit_probe(self._downstream_occupancy)
        self._slots = SlotPackets(topology)
        # The loaded pids; the set of every pid seen is made from them on
        # the first inject_packet/offer_packets call (see _known).
        self._loaded_pids = _EMPTY
        self._known_pids: set[int] | None = None
        self._act = _EMPTY  # slots currently in the network
        self._seq = 0
        self._mat: dict | None = None  # cached materialized queues
        self._load_packets(packets)

    # -- construction ------------------------------------------------------

    def _flat(self, node: tuple[int, int]) -> int:
        return node[0] * self._height + node[1]

    def _node_tuple(self, flat: int) -> tuple[int, int]:
        return (flat // self._height, flat % self._height)

    def _key_object(self, kidx: int) -> Any:
        """The queue key of a key index; one outside the regime (corrupted
        state) reads as the incoming regime's direction, or as itself."""
        if self._central and kidx == 0:
            return CENTRAL
        return DIRECTIONS[kidx] if 0 <= kidx < len(DIRECTIONS) else kidx

    def _load_packets(self, packets: Iterable[Packet]) -> None:
        if isinstance(packets, Sized) and not len(packets):
            return  # nothing to load, so no packet arrays to build
        # The batch refuses repeated pids and foreign endpoints.
        batch = PacketBatch.of(packets, self.topology)
        pid, src, dst, time = batch.pid, batch.source, batch.dest, batch.injection_time
        self.total_packets += len(pid)
        self._loaded_pids = pid
        later = time > 0
        home = ~later & (src == dst)
        if bool(later.any()):
            wait = np.flatnonzero(later)
            wait = wait[np.lexsort((pid[wait], time[wait]))]
            objects = batch.objects()
            self._pend_given = {objects[i].pid: objects[i] for i in wait.tolist()}
            self._pend = (time[wait], pid[wait], src[wait], dst[wait])
        if bool(home.any()):
            self.deliveries.append(pid[home], 0, -1)
        index = np.flatnonzero(~later & ~home)
        if not len(index):
            return
        pid, src, dst = pid[index], src[index], dst[index]
        # Load-time FIFO sequence = pid: per-queue load order is
        # pid-ascending, matching the reference append order, whatever
        # order the batch lists its packets in.
        self._place(pid, src, dst, qseq=pid)
        self._slots.load(batch, index)
        self._seq = int(pid.max()) + 1
        if int(pid.min()) < 0:
            self._renumber_qseq()  # packed sort keys need qseq >= 0

    def _injection_slots(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Injection queue index and flat (node, key) slot of each packet."""
        table = self._initial_kidx
        if table is None:
            # ``spec.initial_key`` of the direction set each mask encodes.
            self._initial_kidx = table = np.array(
                [
                    0
                    if self._central
                    else int(
                        self.spec.initial_key(
                            frozenset(d for d in DIRECTIONS if mask >> d & 1)
                        )
                    )
                    for mask in range(16)
                ],
                dtype=np.int64,
            )
        st = self._state
        kidx = table[st.geom.profitable_mask(src, dst)]
        return kidx, src * st.num_keys + kidx

    def _place(
        self,
        pid: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        *,
        qseq: np.ndarray | None = None,
    ) -> np.ndarray:
        """Queue packets at their sources, in the given order; returns the
        placed mask.  The caller registers the placed packets' slots with
        :class:`SlotPackets`.

        ``qseq=None`` is dynamic injection: a packet whose injection queue
        is full stays out (the caller keeps it pending) -- per queue, the
        first ``capacity - occupancy`` packets in order get in, exactly as
        the reference engine's one-at-a-time retry rule admits them -- and
        FIFO sequence numbers continue the engine's counter.  With ``qseq``
        (load time) every packet is placed with the given sequence numbers.
        """
        st = self._state
        kidx, slot = self._injection_slots(src, dst)
        if qseq is None:
            free = self.spec.capacity - st.occ.ravel()[slot]
            placed = _up_to_free(np.argsort(slot, kind="stable"), slot, free)
            if not bool(placed.all()):
                pid, src, dst = pid[placed], src[placed], dst[placed]
                kidx, slot = kidx[placed], slot[placed]
            n = len(pid)
            qseq = self._seq + np.arange(n, dtype=np.int64)
            self._seq += n
            self.injected_packets += n
        else:
            placed = np.ones(len(pid), dtype=bool)
        if not len(pid):
            return placed
        slots = st.new_slots(pid, src, dst, kidx, qseq)
        np.add.at(st.occ.ravel(), slot, 1)
        np.add.at(st.load, src, 1)
        self._in_flight += len(pid)
        # Every queue and node load increase updates the maxima, so the
        # maxima over all queues are the maxima over the touched ones.
        qmax = int(st.occ.max())
        self.max_queue_len = max(self.max_queue_len, qmax)
        self.max_node_load = max(self.max_node_load, int(st.load.max()))
        capacity = self.spec.capacity
        if self.validate and qmax > capacity:
            over = st.occ.ravel()[slot] > capacity
            if bool(over.any()):
                # Only a load overflows (injection admits up to the free
                # space); like the reference engine, report the lowest
                # over-capacity (node, key).
                flat, k = divmod(int(slot[over].min()), st.num_keys)
                raise QueueOverflowError(
                    self.algorithm.name,
                    self._node_tuple(flat),
                    self._key_object(k),
                    int(st.occ[flat, k]),
                    capacity,
                )
        self._act = np.concatenate([self._act, slots])
        self._mat = None
        return placed

    # -- compatibility surface ---------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self._pend[1]) + len(self._pend_new)

    @property
    def queues(self) -> dict:
        """Materialized node -> key -> packet-list view of the array state.

        Built lazily and cached until the arrays next change; mutating the
        returned structure does not affect the simulation.
        """
        mat = self._mat
        if mat is None:
            self._mat = mat = self._materialize()
        return mat

    def _materialize(self) -> dict:
        st = self._state
        act = self._act
        out: dict[tuple[int, int], dict[Any, list[Packet]]] = {}
        if act.size == 0:
            return out
        order = self._fifo_order(
            act, (st.posf[act], st.geom.node_bits), (st.qkey[act], 2)
        )
        slots = act[order]
        height = self._height
        central = self._central
        packet_of = self._slots.objects()
        pos_l = st.posf[slots].tolist()
        key_l = st.qkey[slots].tolist()
        age_l = st.age[slots].tolist() if st.track_age else None
        for i, slot in enumerate(slots.tolist()):
            p = packet_of[slot]
            flat = pos_l[i]
            p.pos = (flat // height, flat % height)
            if age_l is not None:
                p.state = age_l[i]
            node_queues = out.get(p.pos)
            if node_queues is None:
                out[p.pos] = node_queues = {}
            key = CENTRAL if central else DIRECTIONS[key_l[i]]
            q = node_queues.get(key)
            if q is None:
                node_queues[key] = [p]
            else:
                q.append(p)
        return out

    def _fifo_order(
        self, act: np.ndarray, *fields: tuple[np.ndarray, int]
    ) -> np.ndarray:
        """The permutation sorting slots ``act`` by ``fields``, then FIFO.

        Each field is ``(values, bits)``: non-negative values below
        ``2**bits``, most significant field first.  The fields and ``qseq``
        pack into one int64 key per slot, which is unique (``qseq`` is), so
        one unstable argsort gives the order of the equivalent multi-key
        ``lexsort`` at a fraction of its cost.  When ``qseq`` would not fit
        the bits the fields leave, the in-network sequence numbers are
        renumbered densely first (their order, hence every queue's order,
        is unchanged).
        """
        st = self._state
        key, used = fields[0]
        for values, bits in fields[1:]:
            key = (key << bits) | values
            used += bits
        qbits = 63 - used
        if self._seq > 1 << qbits:  # every in-network qseq is below _seq
            self._renumber_qseq()
            if self._seq > 1 << qbits:
                # More packets in flight than the field can number: sort by
                # FIFO order, then stably by the fields.
                order = np.argsort(st.qseq[act], kind="stable")
                return order[np.argsort(key[order], kind="stable")]
        return np.argsort((key << qbits) | st.qseq[act])  # noqa: SC007 -- unique keys

    def _renumber_qseq(self) -> None:
        """Renumber the in-network FIFO sequence numbers 0, 1, ... in their
        current order, and continue the counter after them."""
        st = self._state
        act = self._act
        order = np.argsort(st.qseq[act], kind="stable")
        st.qseq[act[order]] = np.arange(len(act), dtype=np.int64)
        self._seq = len(act)

    def queue_occupancy(self, node: tuple[int, int], key: Any) -> int:
        kidx = 0 if self._central else int(key)
        return int(self._state.occ[self._flat(node), kidx])

    def _downstream_occupancy(self, node: tuple[int, int], direction: Any) -> int:
        """Destination-free credit probe over the array state.

        Parity with the reference simulator's probe: occupancy of the
        queue a packet sent from ``node`` along ``direction`` would land
        in.  The credit kernel reads ``occ`` directly on the hot path;
        this exists so the algorithm object stays introspectable.
        """
        st = self._state
        tgt = int(st.geom.nbr_flat[self._flat(node), int(direction)])
        if tgt < 0:
            return 0
        kidx = 0 if self._central else int(OPP[int(direction)])
        return int(st.occ[tgt, kidx])

    # -- fault plans ---------------------------------------------------------

    @property
    def link_filter(self) -> Any:
        """The scalar equivalent of the attached fault plan (None without).

        The engine itself never calls it -- faults run through the plan's
        vectorized per-step mask in :meth:`step` -- but the readback keeps
        the reference-engine contract for tests and observers.
        """
        return self._plan_filter

    @link_filter.setter
    def link_filter(self, value: Any) -> None:
        if value is not None:
            raise NotImplementedError(
                "array engine does not support arbitrary link filters; "
                "attach a FaultPlan (plan.attach(sim)) for fault support, "
                "or construct with engine='reference'"
            )
        self._fault_plan = None
        self._plan_filter = None

    def attach_fault_plan(self, plan: Any) -> None:
        """Register ``plan`` for the vectorized per-step availability mask.

        The counterpart of the reference engine's scalar ``link_filter``
        installation (see :meth:`repro.faults.plan.FaultPlan.attach`);
        results are byte-identical because the plan's array queries make
        the same pure counter-hash draws.
        """
        self._fault_plan = plan
        self._plan_filter = plan.as_link_filter(self.topology)

    def _known(self) -> set[int]:
        known = self._known_pids
        if known is None:
            self._known_pids = known = set(self._loaded_pids.tolist())
        return known

    def _check_new_pid(self, packet: Packet) -> None:
        if packet.pid in self._known():
            raise ValueError(f"duplicate packet id {packet.pid}")
        if not self.topology.contains(packet.source) or not self.topology.contains(
            packet.dest
        ):
            raise ValueError(f"packet {packet.pid} endpoints outside topology")

    def _check_new_offers(
        self, pids: range, sources: np.ndarray, dests: np.ndarray
    ) -> None:
        known = self._known()
        if not known.isdisjoint(pids):
            dup = min(set(pids) & known)
            raise ValueError(f"duplicate packet id {dup}")
        n = self._state.geom.num_nodes
        bad = (sources < 0) | (sources >= n) | (dests < 0) | (dests >= n)
        if bool(bad.any()):
            raise ValueError(
                f"packet {pids[int(np.argmax(bad))]} endpoints outside topology"
            )

    def inject_packet(self, packet: Packet) -> None:
        """Add a dynamic packet mid-run (same admission rule as load time)."""
        self._check_new_pid(packet)
        self._known().add(packet.pid)
        self.total_packets += 1
        self._pend_new.append(packet)

    def offer_packets(
        self, first_pid: int, sources: np.ndarray, dests: np.ndarray
    ) -> np.ndarray:
        """The reference engine's admission rule over arrays (see
        :meth:`Simulator.offer_packets`): per (source, injection key) slot,
        an offer is admitted iff fewer than ``capacity - occupancy``
        earlier offers of the call reached that slot."""
        sources = np.asarray(sources, dtype=np.int64)
        dests = np.asarray(dests, dtype=np.int64)
        m = len(sources)
        pids = range(first_pid, first_pid + m)
        self._check_new_offers(pids, sources, dests)
        time = self._offer_once()
        self._known().update(pids)
        self.total_packets += m
        _, slot = self._injection_slots(sources, dests)
        free = self.spec.capacity - self._state.occ.ravel()[slot]
        admitted = _up_to_free(np.argsort(slot, kind="stable"), slot, free)
        pid = first_pid + np.arange(m, dtype=np.int64)
        self.rejections.append(pid[~admitted], time)
        if bool(admitted.any()):
            self._queue_offers(pid[admitted], sources[admitted], dests[admitted])
        return admitted

    def _queue_offers(self, pid: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
        """Append admitted offers (injection time = now) to the pending
        pool's arrays; their Packets are built only if an object-level
        reader asks (see :class:`SlotPackets`)."""
        time = self.time
        ptime, ppid, psrc, pdst = self._pend
        if len(ppid) and (ptime[-1], ppid[-1]) > (time, pid[0]):
            self._pending_dirty = True  # out of order: re-sort before use
        self._pend = (
            np.concatenate([ptime, np.full(len(pid), time, dtype=np.int64)]),
            np.concatenate([ppid, pid]),
            np.concatenate([psrc, src]),
            np.concatenate([pdst, dst]),
        )

    def pending_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The pending pool as ``(injection_time, pid, source flat, dest
        flat)`` arrays, sorted by (injection_time, pid)."""
        if self._pend_new:
            added = PacketBatch.of(self._pend_new, self.topology)
            self._pend_given.update(zip(added.pid.tolist(), self._pend_new))
            self._pend_new = []
            new = (added.injection_time, added.pid, added.source, added.dest)
            self._pend = tuple(np.concatenate(ab) for ab in zip(self._pend, new))
            self._pending_dirty = True
        if self._pending_dirty:
            order = np.lexsort((self._pend[1], self._pend[0]))
            self._pend = tuple(a[order] for a in self._pend)
            self._pending_dirty = False
        return self._pend

    def drop_packet(self, packet: Packet) -> None:
        raise NotImplementedError(
            "array engine does not support packet drops; use engine='reference'"
        )

    def drop_pending(self, pid: int) -> None:
        raise NotImplementedError(
            "array engine does not support packet drops; use engine='reference'"
        )

    def _make_step_view(self, moves: Sequence[Any] | None) -> StepView:
        return _ArrayStepView(self, moves)

    # -- the step ----------------------------------------------------------

    def step(self) -> ArrayMoves:  # type: ignore[override]
        """Run one synchronous step (the reference phase order, batched).

        Returns the accepted moves as :class:`ArrayMoves`, the same
        sequence the post-step hooks receive: a hook that iterates it gets
        the reference engine's ``ScheduledMove`` list, and one that reads
        its arrays makes no per-move object at all.
        """
        instr = self.instrument
        if instr is not None:
            instr.begin_step()
        self.time += 1
        # Invalidate the materialized-queue cache up front: even a step
        # with zero accepted moves (every scheduled move refused by a
        # fault plan) advances packet ages in phase (e).
        self._mat = None
        if self.pre_step_hooks:
            for hook in self.pre_step_hooks:
                hook(self)
            if instr is not None:
                instr.mark("hooks")
        if self.pending_count:
            self._inject_pending()

        # (a) outqueue policies, batched in the kernel.
        act = self._act
        if act.size:
            sched_pkt, sched_src, sched_dir = self._kernel.schedule(act)
        else:
            sched_pkt = sched_src = sched_dir = _EMPTY
        n_scheduled = len(sched_pkt)
        self.scheduled_moves += n_scheduled
        if instr is not None:
            instr.mark("a")

        # (b) no interceptor by construction; minimality holds by kernel
        # construction (desired moves are profitable).  An attached fault
        # plan drops scheduled moves over down links/nodes here, exactly
        # where the reference engine applies its link_filter -- a dropped
        # move counts as a refusal, like a refused offer.
        plan = self._fault_plan
        if plan is not None and n_scheduled:
            t = self.time
            geom = self._state.geom
            coords = self.topology.coords
            sx, sy = coords.take(sched_src, axis=1)
            keep = plan.link_up_array(sx, sy, sched_dir, t)
            if plan.has_node_faults:
                keep &= plan.node_up_array(sx, sy, t)
                # Scheduled moves are profitable, so the target always exists.
                tx, ty = coords.take(geom.nbr_flat[sched_src, sched_dir], axis=1)
                keep &= plan.node_up_array(tx, ty, t)
            if not bool(keep.all()):
                sched_pkt = sched_pkt[keep]
                sched_src = sched_src[keep]
                sched_dir = sched_dir[keep]
        if instr is not None:
            instr.mark("b")

        # (c) inqueue policies, batched in the kernel.  A move's arrival
        # cell is its (target, inlink) pair, (target << 2) | came_from.
        if sched_pkt.size:
            tgt = self._state.geom.nbr_flat[sched_src, sched_dir]
            came = OPP[sched_dir]
            cell = (tgt << 2) | came
            acc = self._kernel.accept(sched_pkt, cell)
            apkt = sched_pkt[acc]
            asrc = sched_src[acc]
            adir = sched_dir[acc]
            acell = cell[acc]
        else:
            apkt = asrc = adir = acell = _EMPTY
        self.refused_moves += n_scheduled - len(apkt)
        if instr is not None:
            instr.mark("c")

        # (d) transmit: departures, then arrivals.
        moves = self._transmit(apkt, asrc, adir, acell)
        if instr is not None:
            instr.mark("d")

        # (e) packet-state updates (reference phase (e) / after_step).
        self._kernel.after_step()
        if instr is not None:
            instr.mark("e")

        if self.record_series:
            self.series.append(
                StepRecord(
                    time=self.time,
                    in_flight=self._in_flight,
                    delivered_total=self.deliveries.size,
                    moves=len(apkt),
                    max_queue_len=self.max_queue_len,
                )
            )
        if self.post_step_hooks:
            for hook in self.post_step_hooks:
                hook(self, moves)
            if instr is not None:
                instr.mark("hooks")
        if instr is not None:
            instr.end_step()
        return moves

    def _transmit(
        self, apkt: np.ndarray, asrc: np.ndarray, adir: np.ndarray, acell: np.ndarray
    ) -> "ArrayMoves":
        """Phase (d) over the accepted moves, in schedule order, arriving
        at cells ``(target << 2) | inlink``: one move per cell, in the
        reference append order.  A survivor's FIFO number is the counter
        plus its cell, which orders it within its queue; only deliveries
        are sorted (for the ledger), and :class:`ArrayMoves` sorts the
        moves if read."""
        st = self._state
        n_acc = len(apkt)
        self.total_moves += n_acc
        if n_acc == 0:
            return ArrayMoves(self, _EMPTY, _EMPTY, _EMPTY, _EMPTY)
        atgt = acell >> 2
        # Departures first.
        num_keys = st.num_keys
        occ = st.occ.ravel()
        np.subtract.at(occ, asrc * num_keys + st.qkey[apkt], 1)
        np.subtract.at(st.load, asrc, 1)
        # Arrivals: split deliveries from survivors.
        delivered = atgt == st.destf[apkt]
        st.posf[apkt] = atgt
        surv = ~delivered
        spkt = apkt[surv]
        n_surv = len(spkt)
        if n_surv:
            scell = acell[surv]
            stgt = scell >> 2
            skey = np.zeros(n_surv, dtype=np.int64) if self._central else scell & 3
            squeue = stgt if self._central else scell  # flat queue index
            st.qkey[spkt] = skey
            st.qseq[spkt] = self._seq + scell
            self._seq += 4 * st.geom.num_nodes
            np.add.at(occ, squeue, 1)
            np.add.at(st.load, stgt, 1)
            qlen = occ[squeue]
            max_q = int(qlen.max())
            if max_q > self.max_queue_len:
                self.max_queue_len = max_q
            max_l = int(st.load[stgt].max())
            if max_l > self.max_node_load:
                self.max_node_load = max_l
            if self.validate and max_q > self.spec.capacity:
                # Report the queue of the first overflowing arrival in
                # (target, inlink) order, at the length the reference
                # engine meets it: the first append past capacity.
                over = np.flatnonzero(qlen > self.spec.capacity)
                i = int(over[np.argmin(scell[over])])
                before = int(qlen[i]) - int(np.count_nonzero(squeue == squeue[i]))
                raise QueueOverflowError(
                    self.algorithm.name,
                    self._node_tuple(int(stgt[i])),
                    self._key_object(int(skey[i])),
                    max(before, self.spec.capacity) + 1,
                    self.spec.capacity,
                )
        if n_surv < n_acc:
            dpkt = apkt[delivered]
            dpkt = dpkt[np.argsort(acell[delivered])]  # noqa: SC007 -- unique keys
            self.deliveries.append(st.pids[dpkt], self.time, dpkt)
            self._in_flight -= len(dpkt)
            st.in_net[dpkt] = False
            act = self._act
            self._act = act[st.in_net[act]]
        return ArrayMoves(self, apkt, asrc, adir, acell)

    def _inject_pending(self) -> None:
        ptime, ppid, psrc, pdst = self.pending_arrays()
        due = int(np.searchsorted(ptime, self.time))  # injection_time < now
        if due == 0:
            return
        given = self._pend_given
        pid, src, dst, time = ppid[:due], psrc[:due], pdst[:due], ptime[:due]
        routed = src != dst
        if not bool(routed.all()):
            # Source == destination: delivered on entry, never queued.
            home = pid[~routed]
            self.deliveries.append(home, self.time, -1)
            if given:
                for p in home.tolist():
                    given.pop(p, None)
            pid, src, dst, time = pid[routed], src[routed], dst[routed], time[routed]
        placed = self._place(pid, src, dst)
        if not bool(placed.all()):
            pid, src, dst, time = pid[placed], src[placed], dst[placed], time[placed]
        self._slots.append(pid, src, dst, time, given)
        # Packets whose queue was full keep their place in the pool.
        keep = routed.copy()
        keep[routed] = ~placed
        if bool(keep.any()):
            self._pend = tuple(
                np.concatenate([a[:due][keep], a[due:]]) for a in self._pend
            )
        else:
            self._pend = tuple(a[due:] for a in self._pend)


class _ArrayStepView(StepView):
    """The array engine's :class:`StepView`: the engine's own arrays, and
    gathers from them (the rarely read ``dest`` and ``order`` on first
    read).  The move rows are :class:`ArrayMoves` in schedule order, never
    sorted; :meth:`move_rows` sorts just the rows asked for by arrival
    cell.  A move's source and destination are the ones its caller gave
    (:class:`SlotPackets`), not the engine's working destination array."""

    def __init__(self, engine: "ArraySimulator", moves: Any) -> None:
        st, act = engine._state, engine._act
        self._engine = engine
        self.slot, self.slots_made = act, st.size
        self.pid, self.node = st.pids[act], st.posf[act]
        self.key, self.outside_keys = _key_column(engine, st.qkey[act])
        slots, self.move_src, _, cell = (
            moves.scheduled if moves is not None else (_EMPTY,) * 4
        )
        self._move_cell = cell
        self.move_target = cell >> 2
        self.move_pid = st.pids[slots]
        self.move_source = engine._slots.source[slots]
        self.move_dest = engine._slots.dest[slots]

    def move_rows(self, mask: np.ndarray) -> np.ndarray:
        rows = np.flatnonzero(mask)
        return rows[np.argsort(self._move_cell[rows])]  # noqa: SC007 -- unique keys

    @cached_property
    def dest(self) -> np.ndarray:
        return self._engine._slots.dest[self.slot]

    @cached_property
    def order(self) -> np.ndarray:
        return self._engine._state.qseq[self.slot]

    @property
    def pending(self) -> tuple[np.ndarray, ...]:
        return self._engine.pending_arrays()


def _key_column(engine: "ArraySimulator", key: np.ndarray) -> tuple[np.ndarray, list]:
    """Queued key indices, and the key objects of those outside the regime
    (corrupted state only), which read as -1."""
    num_keys = engine._state.num_keys
    if not len(key) or key.view(np.uint64).max() < num_keys:  # negatives wrap
        return key, []
    outside = (key < 0) | (key >= num_keys)
    return np.where(outside, -1, key), [
        engine._key_object(k) for k in key[outside].tolist()
    ]


#: Exact router type -> kernel.  Exact types, not subclasses: a subclass may
#: override policy methods the kernels do not model.
_KERNELS: dict[type, type[RouterKernel]] = {}


def _register_kernels() -> None:
    from repro.routing.adaptive import GreedyAdaptiveRouter
    from repro.routing.bounded_dor import BoundedDimensionOrderRouter
    from repro.routing.credit_adaptive import CreditAdaptiveRouter
    from repro.routing.dimension_order import DimensionOrderRouter
    from repro.routing.farthest_first import FarthestFirstRouter
    from repro.routing.hot_potato import HotPotatoRouter

    _KERNELS[BoundedDimensionOrderRouter] = DimensionOrderKernel
    _KERNELS[DimensionOrderRouter] = DimensionOrderKernel
    _KERNELS[HotPotatoRouter] = HotPotatoKernel
    _KERNELS[GreedyAdaptiveRouter] = GreedyAdaptiveKernel
    _KERNELS[FarthestFirstRouter] = FarthestFirstKernel
    _KERNELS[CreditAdaptiveRouter] = CreditAdaptiveKernel


_register_kernels()


def ported_router_types() -> tuple[type, ...]:
    """The router classes the array engine can run (exact types)."""
    return tuple(_KERNELS)


def _supported() -> str:
    """The supported set, for the constructor's rejection messages."""
    routers = ", ".join(cls.__name__ for cls in _KERNELS)
    return (
        f"it runs exact instances of {routers} on Mesh or Torus (a regular "
        "2D grid with both axes wrapped or neither), without interceptors; "
        "use engine='reference' otherwise"
    )
