"""Invariant oracles: the paper's guarantees, checked on every step.

Each oracle watches one claim the paper proves (or the model demands) and
is attached to a :class:`~repro.mesh.simulator.Simulator` through its
pre/post-step hook points by an :class:`InvariantChecker`:

- :class:`PacketConservationOracle` -- packets are never created,
  destroyed, or duplicated; deliveries happen exactly at destinations.
- :class:`QueueBoundOracle` -- no queue ever exceeds its capacity ``k``,
  per queue regime (Section 2's inqueue obligation).
- :class:`MinimalityOracle` -- minimal routers only make profitable moves;
  delta-bounded routers stay within the Section 5 excursion rectangle.
- :class:`StepBoundOracle` -- runs finish within the algorithm's proven
  step budget (Theorem 15 for bounded dimension order) and never beat the
  per-packet distance floor.

Checkers run in one of three modes:

- ``strict``: a violation raises :class:`VerificationError` immediately
  (tests, the differential runner).
- ``record``: violations are appended to ``checker.violations`` and
  tallied in ``checker.counters`` -- cheap enough for benchmark sweeps
  that want invariant telemetry without aborting.
- ``off``: nothing is attached; zero per-step cost.

The oracles deliberately re-derive everything from public simulator state
instead of trusting the simulator's own ``validate`` flag, so they catch
regressions in the enforcement code itself (run with ``validate=False`` to
see them work alone).

The conservation, queue-bound and minimality oracles each have two paths,
and the simulator being checked picks one.  ``check_objects`` walks Packet
objects and ``ScheduledMove`` lists; it runs on the reference engine.
``check_arrays`` runs on :class:`~repro.mesh.array_engine.ArraySimulator`
and makes the same checks as numpy reductions over its packet arrays and
the step's :class:`~repro.mesh.array_engine.ArrayMoves`, so a checked
array run never builds per-packet objects.  Both report the same
violations, with the same messages in the same order.  The array paths
re-derive their figures rather than read the engine's bookkeeping: queue
lengths are recounted from packet positions, not read from the occupancy
table, and distances use each packet's own source and destination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Container, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.mesh.array_engine import ArrayMoves, ArraySimulator
from repro.mesh.simulator import ScheduledMove, Simulator

MODES = ("strict", "record", "off")

_EMPTY: NDArray[Any] = np.empty(0, dtype=np.int64)


class VerificationError(AssertionError):
    """An oracle observed a violated invariant (strict mode)."""

    def __init__(self, violation: "Violation") -> None:
        super().__init__(str(violation))
        self.violation = violation


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation."""

    oracle: str
    time: int
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle} @ step {self.time}] {self.message}"


class Oracle:
    """Base class: override any subset of the hook methods."""

    name = "oracle"

    def on_attach(self, checker: "InvariantChecker", sim: Simulator) -> None:
        """Called once when the checker attaches to the simulator."""

    def pre_step(self, checker: "InvariantChecker", sim: Simulator) -> None:
        """Called at the top of every step, before scheduling."""

    def post_step(
        self,
        checker: "InvariantChecker",
        sim: Simulator,
        moves: Sequence[ScheduledMove],
    ) -> None:
        """Called at the end of every step with the transmitted moves."""

    def on_finish(self, checker: "InvariantChecker", sim: Simulator) -> None:
        """Called once by :meth:`InvariantChecker.finish` after the run."""


@dataclass
class InvariantChecker:
    """Wires a set of oracles into one simulator and collects violations."""

    sim: Simulator
    oracles: list[Oracle]
    mode: str = "strict"
    violations: list[Violation] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "off":
            return
        for oracle in self.oracles:
            oracle.on_attach(self, self.sim)
        self.sim.pre_step_hooks.append(self._pre)
        self.sim.post_step_hooks.append(self._post)

    def _pre(self, sim: Simulator) -> None:
        for oracle in self.oracles:
            oracle.pre_step(self, sim)

    def _post(self, sim: Simulator, moves: Sequence[ScheduledMove]) -> None:
        for oracle in self.oracles:
            oracle.post_step(self, sim, moves)

    def finish(self) -> list[Violation]:
        """Run end-of-run checks; returns all collected violations."""
        if self.mode != "off":
            for oracle in self.oracles:
                oracle.on_finish(self, self.sim)
        return self.violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self, oracle: Oracle, message: str) -> None:
        violation = Violation(oracle.name, self.sim.time, message)
        self.counters[oracle.name] = self.counters.get(oracle.name, 0) + 1
        self.violations.append(violation)
        if self.mode == "strict":
            raise VerificationError(violation)


def attach_checker(
    sim: Simulator, oracles: Iterable[Oracle], mode: str = "strict"
) -> InvariantChecker:
    """Convenience constructor mirroring ``InvariantChecker(...)``."""
    return InvariantChecker(sim, list(oracles), mode)


# -- the oracles ---------------------------------------------------------------


class DualPathOracle(Oracle):
    """An oracle with an object path and an array path; the simulator it
    checks picks one (see the module docstring)."""

    def post_step(
        self, checker: InvariantChecker, sim: Simulator, moves: Sequence[ScheduledMove]
    ) -> None:
        if isinstance(sim, ArraySimulator) and isinstance(moves, ArrayMoves):
            self.check_arrays(checker, sim, moves)
        else:
            self.check_objects(checker, sim, moves)

    def check_objects(
        self, checker: InvariantChecker, sim: Simulator, moves: Sequence[ScheduledMove]
    ) -> None:
        """Check one step by walking Packet and ScheduledMove objects."""
        raise NotImplementedError

    def check_arrays(
        self, checker: InvariantChecker, sim: ArraySimulator, moves: ArrayMoves
    ) -> None:
        """Check the same step from the array engine's state and moves."""
        raise NotImplementedError


class PacketConservationOracle(DualPathOracle):
    """Packets are conserved: pending + in-network + delivered + dropped
    + rejected == total, no pid occupies two queues, deliveries happen at
    the destination, and the delivered set only grows.

    The dropped term is conservation-modulo-dropped for faulty runs (see
    :mod:`repro.faults`): a packet leaves the accounting only by being
    delivered or by being explicitly recorded in ``Simulator.dropped``.
    The rejected term is its admission-time analogue for open-loop
    streaming runs (see :mod:`repro.streaming`): a packet refused at the
    source under backpressure is recorded in ``Simulator.rejected`` and
    never enters the network, but stays in the accounting.  In closed-loop
    fault-free runs both dicts are empty and the invariant reduces to the
    original equality."""

    name = "packet-conservation"

    def on_attach(self, checker: InvariantChecker, sim: Simulator) -> None:
        if isinstance(sim, ArraySimulator):
            led = sim.deliveries
            self._delivered_seen: set[int] = set(led.pid.tolist())
            # The array path's view of the ledger: rows read, the pid of
            # the last of them, and the distinct delivered pids (sorted
            # chunks, one per step that added any).
            self._read = led.size
            self._last = int(led.pid[-1]) if led.size else 0
            self._chunks = [_distinct(led.pid)]
            self._distinct = len(self._chunks[0])
            # Slots below ``_fresh_from`` were checked against the delivered
            # set when last queued; ``_offenders`` are the queued pids that
            # were delivered already (at 0, the first check checks all).
            self._fresh_from = 0
            self._offenders = _EMPTY
        else:
            self._delivered_seen = set(sim.delivery_times)
        self._dropped = _Ledger(sim.dropped)
        self._rejected = _Ledger(sim.rejected)

    def check_objects(
        self, checker: InvariantChecker, sim: Simulator, moves: Sequence[ScheduledMove]
    ) -> None:
        """The object path: walks the queued Packet objects."""
        queued = [p.pid for p in sim.iter_packets()]
        delivered = sim.delivery_times
        self._check_queued(checker, queued, delivered, sim.dropped, sim.rejected)
        self._check_totals(checker, sim, len(queued), len(delivered))
        delivered_now = set(delivered)
        if not self._delivered_seen <= delivered_now:
            lost = sorted(self._delivered_seen - delivered_now)[:5]
            checker.report(self, f"delivered set shrank (lost pids {lost})")
        newly_delivered = delivered_now - self._delivered_seen
        for mv in moves:
            p = mv.packet
            if p.pid in newly_delivered and p.pos != p.dest:
                checker.report(
                    self,
                    f"packet {p.pid} recorded delivered at {p.pos}, "
                    f"destination is {p.dest}",
                )
        self._delivered_seen = delivered_now

    def check_arrays(
        self, checker: InvariantChecker, sim: ArraySimulator, moves: ArrayMoves
    ) -> None:
        """The array path: the same checks over the queued pids and the
        engine's delivery ledger.

        Reports exactly what :meth:`check_objects` reports, in the same
        order; only a step that violates something walks its packets.
        """
        st = sim._state
        act = sim._act
        pids = st.pids[act]
        ordered = np.sort(pids)
        added, added_slots, lost, offenders = self._read_ledger(
            sim, act, pids, ordered
        )
        self._dropped.update(sim.dropped)
        self._rejected.update(sim.rejected)
        suspect = bool(len(offenders)) or bool((ordered[1:] == ordered[:-1]).any())
        for ledger in (self._dropped, self._rejected):
            if len(ledger.keys) and not suspect:
                suspect = bool(ledger.contains(ordered).any())
        if suspect:
            # Name the offenders in the order the object path meets them:
            # materialized queue order, (node, queue key, FIFO).
            order = np.lexsort((st.qseq[act], st.qkey[act], st.posf[act]))
            self._check_queued(
                checker,
                pids[order].tolist(),
                set(offenders.tolist()),
                sim.dropped,
                sim.rejected,
            )
        self._check_totals(checker, sim, len(pids), self._distinct)
        if len(lost):
            checker.report(
                self, f"delivered set shrank (lost pids {lost[:5].tolist()})"
            )
        if len(added) and len(moves):
            slots = moves.slots
            if added_slots is not None and not len(offenders):
                # No queued pid is delivered, so a move of a newly
                # delivered pid is one that wrote its row: mark those slots.
                mark = np.zeros(st.size, dtype=bool)
                mark[added_slots] = True
                delivering = mark[slots]
            else:
                delivering = _member(added, st.pids[slots])
            wrong = delivering & (moves.target != sim._slots.dest[slots])
            height = sim.topology.height
            for slot, target in zip(
                slots[wrong].tolist(), moves.target[wrong].tolist()
            ):
                p = sim._slots.objects()[slot]
                checker.report(
                    self,
                    f"packet {p.pid} recorded delivered at "
                    f"{(target // height, target % height)}, "
                    f"destination is {p.dest}",
                )

    def _read_ledger(
        self,
        sim: ArraySimulator,
        act: NDArray[Any],
        pids: NDArray[Any],
        ordered: NDArray[Any],
    ) -> tuple[NDArray[Any], NDArray[Any] | None, NDArray[Any], NDArray[Any]]:
        """Catch up with the delivery ledger.  Returns the pids delivered
        since the last check and not before (sorted), the slots of their
        rows (None when the rows read before changed), the pids no longer
        delivered (sorted), and the queued pids that are delivered.

        The ledger only grows, so this reads its new rows.  A new row can
        repeat an earlier delivery only if its pid was queued after that
        delivery at the last check (an offender then), or if its slot was
        not queued at the last check (a slot made since, or none): only
        those rows are looked up in the earlier rows.  Likewise a queued
        pid is delivered only if it was an offender, was delivered now, or
        holds a slot made since the last check; packets enter the network
        only in new slots.  If the rows read before changed (the pid of the
        last one moved), the whole delivered set is compared instead.
        """
        led = sim.deliveries
        rows = led.pid
        n, seen = led.size, self._read
        added_slots: NDArray[Any] | None
        if n >= seen and (not seen or rows[seen - 1] == self._last):
            entries = rows[seen:]
            entry_slots = led.slot[seen:]
            lost = _EMPTY
            made = sim._state.size > self._fresh_from  # new slots since
            unseen = entry_slots < 0
            if made:
                unseen |= entry_slots >= self._fresh_from
            if len(self._offenders) or bool(unseen.any()):
                again = _member(self._offenders, entries)
                again[unseen] |= np.isin(entries[unseen], rows[:seen])
                entries, entry_slots = entries[~again], entry_slots[~again]
            added = _distinct(entries)
            added_slots = entry_slots[entry_slots >= 0]
            found = [added[_member(ordered, added)]]
            if len(self._offenders):
                found.append(self._offenders[_member(ordered, self._offenders)])
            if made:
                born = pids[act >= self._fresh_from]
                found.append(born[np.isin(born, rows)])
            offenders = _distinct(np.concatenate(found)) if len(found) > 1 else found[0]
            if len(added):
                self._chunks.append(added)
        else:
            before = np.sort(np.concatenate(self._chunks))
            now = _distinct(rows)
            added = np.setdiff1d(now, before, assume_unique=True)
            lost = np.setdiff1d(before, now, assume_unique=True)
            offenders = _distinct(ordered[_member(now, ordered)])
            self._chunks = [now]
            added_slots = None
        self._distinct += len(added) - len(lost)
        self._read = n
        self._last = int(rows[-1]) if n else 0
        self._fresh_from = sim._state.size
        self._offenders = offenders
        return added, added_slots, lost, offenders

    def _check_queued(
        self,
        checker: InvariantChecker,
        queued: list[int],
        delivered: Container[int],
        dropped: Container[int],
        rejected: Container[int],
    ) -> None:
        """Per-packet checks over the queued pids, in queue order."""
        seen: set[int] = set()
        for pid in queued:
            if pid in seen:
                checker.report(self, f"packet {pid} occupies two queues")
            seen.add(pid)
            if pid in delivered:
                checker.report(self, f"packet {pid} still queued after delivery")
            if pid in dropped:
                checker.report(self, f"packet {pid} still queued after being dropped")
            if pid in rejected:
                checker.report(
                    self, f"packet {pid} queued despite admission rejection"
                )

    def _check_totals(
        self, checker: InvariantChecker, sim: Simulator, in_network: int, delivered: int
    ) -> None:
        """The in-flight counter and the conservation sum."""
        if in_network != sim.in_flight:
            checker.report(
                self,
                f"in-flight counter {sim.in_flight} != queued packets {in_network}",
            )
        total = (
            delivered
            + in_network
            + sim.pending_count
            + len(sim.dropped)
            + len(sim.rejected)
        )
        if total != sim.total_packets:
            checker.report(
                self,
                f"conservation broken: delivered {delivered} + "
                f"queued {in_network} + pending {sim.pending_count} + "
                f"dropped {len(sim.dropped)} + rejected {len(sim.rejected)} "
                f"!= total {sim.total_packets}",
            )


class QueueBoundOracle(DualPathOracle):
    """No queue ever holds more than ``k`` packets, and only queue keys the
    regime defines are in use (Section 2 / Section 5 queue models)."""

    name = "queue-bound"

    def check_arrays(
        self, checker: InvariantChecker, sim: ArraySimulator, moves: ArrayMoves
    ) -> None:
        """The array path: queue lengths recounted from packet positions.

        The count comes from each queued packet's node and queue key, never
        from the engine's incrementally kept occupancy table, so a slip in
        that bookkeeping cannot hide an overflow.  Queues are visited in
        the object path's order, (node, queue key).  The regime check has
        nothing to do here: the engine's key indices are the regime's keys.
        """
        capacity = sim.spec.capacity
        st = sim._state
        act = sim._act
        num_keys = st.num_keys
        counts = np.bincount(
            st.posf[act] * num_keys + st.qkey[act],
            minlength=st.geom.num_nodes * num_keys,
        )
        if int(counts.max()) <= capacity:
            return
        height = sim.topology.height
        for cell in np.flatnonzero(counts > capacity).tolist():
            flat, kidx = divmod(cell, num_keys)
            checker.report(
                self,
                f"queue {sim._key_object(kidx)!r} at {(flat // height, flat % height)} "
                f"holds {counts[cell]} > capacity {capacity}",
            )

    def check_objects(
        self, checker: InvariantChecker, sim: Simulator, moves: Sequence[ScheduledMove]
    ) -> None:
        """The object path: walks the (materialized) queue dicts."""
        spec = sim.spec
        allowed = set(spec.keys)
        for node, node_queues in sim.queues.items():
            for key, q in node_queues.items():
                if len(q) > spec.capacity:
                    checker.report(
                        self,
                        f"queue {key!r} at {node} holds {len(q)} > "
                        f"capacity {spec.capacity}",
                    )
                if q and key not in allowed:
                    checker.report(
                        self,
                        f"queue key {key!r} at {node} is outside the "
                        f"{spec.kind} regime",
                    )


class MinimalityOracle(DualPathOracle):
    """Minimal routers shrink distance-to-destination by exactly one per
    move; delta-bounded routers never stray more than ``delta`` hops beyond
    the rectangle spanned by source and destination (Section 5's class).

    The rectangle check is skipped on wrapping topologies, where the
    spanned rectangle is not well defined, and under an interceptor, whose
    destination exchanges redefine the rectangle mid-flight.
    """

    name = "minimality"

    def on_attach(self, checker: InvariantChecker, sim: Simulator) -> None:
        if isinstance(sim, ArraySimulator) and not sim.topology.wraps:
            # int32 copies of the geometry's coordinate tables for the
            # array path: coordinates are small, and int32 gathers and
            # arithmetic move half the memory of int64 ones.
            self._coords = sim._state.geom.xy.astype(np.int32)

    def check_arrays(
        self, checker: InvariantChecker, sim: ArraySimulator, moves: ArrayMoves
    ) -> None:
        """The array path: both checks vectorized over the step's moves.

        Distances come from the engine's grid geometry and each packet's
        source and destination as the caller gave them (kept per slot by
        the engine's slot store), not from the engine's destination array.
        Coordinates are read off the geometry's per-node tables.
        """
        delta = sim.algorithm.excursion_delta()
        if delta is None or not len(moves):
            return
        topo = sim.topology
        geom = sim._state.geom
        slots = moves.slots
        dest = sim._slots.dest[slots]
        minimal = sim.algorithm.minimal
        if topo.wraps:
            # No rectangle check: the array engine runs neither
            # interceptors nor irregular topologies, the object path's
            # other two reasons to skip it.
            if minimal:
                before = geom.distance(moves.src, dest)
                after = geom.distance(moves.target, dest)
                bad = np.flatnonzero(after != before - 1)
                self._report_unprofitable(checker, sim, moves, dest, bad)
            return
        # On the mesh both checks come from one pass over the coordinates:
        # the move's change of distance, and the target's distance from
        # the source-destination rectangle.
        src = sim._slots.source[slots]
        gain: Any = 0
        excess: Any = 0
        for coord in self._coords:
            t = coord[moves.target]
            b = coord[dest]
            if minimal:
                gain = gain + (np.abs(t - b) - np.abs(coord[moves.src] - b))
            a = coord[src]
            excess = excess + np.maximum(
                np.maximum(np.minimum(a, b) - t, 0), t - np.maximum(a, b)
            )
        if minimal:
            bad = np.flatnonzero(gain != -1)
            self._report_unprofitable(checker, sim, moves, dest, bad)
        height = topo.height
        for i in np.flatnonzero(excess > delta).tolist():
            p = sim._slots.objects()[int(slots[i])]
            t = int(moves.target[i])
            checker.report(
                self,
                f"packet {p.pid} at {(t // height, t % height)} strays "
                f"{excess[i]} > delta {delta} beyond rectangle {p.source}..{p.dest}",
            )

    def _report_unprofitable(
        self,
        checker: InvariantChecker,
        sim: ArraySimulator,
        moves: ArrayMoves,
        dest: NDArray[Any],
        bad: NDArray[Any],
    ) -> None:
        """Report moves ``bad``, which did not shrink the distance by one."""
        if not len(bad):
            return
        geom = sim._state.geom
        before = geom.distance(moves.src[bad], dest[bad]).tolist()
        after = geom.distance(moves.target[bad], dest[bad]).tolist()
        height = sim.topology.height
        for i, d0, d1 in zip(bad.tolist(), before, after):
            p = sim._slots.objects()[int(moves.slots[i])]
            a, b = int(moves.src[i]), int(moves.target[i])
            checker.report(
                self,
                f"packet {p.pid} moved {(a // height, a % height)}->"
                f"{(b // height, b % height)} (distance {d0}->{d1}), "
                f"not a profitable move for dest {p.dest}",
            )

    def check_objects(
        self, checker: InvariantChecker, sim: Simulator, moves: Sequence[ScheduledMove]
    ) -> None:
        """The object path: walks the step's ScheduledMove list."""
        delta = sim.algorithm.excursion_delta()
        if delta is None:
            return
        topo = sim.topology
        if sim.algorithm.minimal:
            for mv in moves:
                before = topo.distance(mv.src, mv.packet.dest)
                after = topo.distance(mv.target, mv.packet.dest)
                if after != before - 1:
                    checker.report(
                        self,
                        f"packet {mv.packet.pid} moved {mv.src}->{mv.target} "
                        f"(distance {before}->{after}), not a profitable move "
                        f"for dest {mv.packet.dest}",
                    )
        if topo.wraps or not topo.regular or sim.interceptor is not None:
            # Irregular topologies (sparse-pillar) route minimally *around*
            # missing links, so minimal paths legitimately leave the box.
            return
        for mv in moves:
            p = mv.packet
            excess = _rectangle_excess(p.pos, p.source, p.dest)
            if excess > delta:
                checker.report(
                    self,
                    f"packet {p.pid} at {p.pos} strays {excess} > delta "
                    f"{delta} beyond rectangle {p.source}..{p.dest}",
                )


class _Ledger:
    """The keys of one pid-keyed dict, mirrored as a sorted array.

    The simulator's dropped and rejected dicts gain keys at the end of
    their insertion order, so an update reads only the entries added since
    the last one, plus the entry just before them: that must still be the
    newest key the last update saw.  Any deletion moves it, and the dict
    is then re-read whole, so the mirror is always exact.
    """

    def __init__(self, ledger: dict[int, int]) -> None:
        self.seen = len(ledger)
        self.newest = next(reversed(ledger), None)
        self.keys = np.sort(np.fromiter(ledger, dtype=np.int64, count=self.seen))

    def update(self, ledger: dict[int, int]) -> tuple[NDArray[Any], NDArray[Any]]:
        """Catch up with ``ledger``; returns the keys (added, lost) since
        the last update."""
        n = len(ledger)
        fresh = n - self.seen
        if not fresh and (not n or next(reversed(ledger)) == self.newest):
            return _EMPTY, _EMPTY
        tail = list(islice(reversed(ledger), fresh + 1)) if fresh >= 0 else []
        if fresh >= 0 and (not self.seen or tail[-1] == self.newest):
            added = np.sort(np.array(tail[:fresh], dtype=np.int64))
            lost = _EMPTY
            if fresh:
                self.keys = np.insert(
                    self.keys, np.searchsorted(self.keys, added), added
                )
        else:
            now = np.sort(np.fromiter(ledger, dtype=np.int64, count=n))
            added = np.setdiff1d(now, self.keys)
            lost = np.setdiff1d(self.keys, now)
            self.keys = now
        self.seen = n
        self.newest = next(reversed(ledger), None)
        return added, lost

    def contains(self, pids: NDArray[Any]) -> NDArray[Any]:
        """Membership mask of ``pids`` in the ledger."""
        return _member(self.keys, pids)


def _member(keys: NDArray[Any], values: NDArray[Any]) -> NDArray[Any]:
    """Membership mask of ``values`` in the sorted array ``keys``."""
    if not len(keys):
        return np.zeros(len(values), dtype=bool)
    at = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
    return keys[at] == values


def _distinct(values: NDArray[Any]) -> NDArray[Any]:
    """The distinct ``values``, sorted (a sort, not numpy's hash unique)."""
    values = np.sort(values)
    if len(values) > 1:
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    return values


def _rectangle_excess(
    pos: tuple[int, ...], a: tuple[int, ...], b: tuple[int, ...]
) -> int:
    """Manhattan distance from ``pos`` to the box spanned by a and b (any d)."""
    excess = 0
    for x, ax, bx in zip(pos, a, b):
        lo, hi = min(ax, bx), max(ax, bx)
        excess += max(lo - x, 0, x - hi)
    return excess


class StepBoundOracle(Oracle):
    """Completed runs respect the algorithm's proven step budget and the
    trivial distance floor.

    ``bound_steps`` is the theorem budget the run is held to (None = no
    proven bound, only the floor is checked).  The floor is checked per
    packet, but only when no interceptor rewrote destinations: a packet
    queued at ``pos`` when the oracle attaches (at step ``time``) cannot be
    delivered before ``time + distance(pos, dest)``, and a pending one not
    before ``injection_time + distance(source, dest)`` -- at attach time 0
    both are the source-to-destination distance.  The array engine's floors
    come from its packet and pending-pool arrays, the reference engine's
    from its Packet objects.
    """

    name = "step-bound"

    def __init__(self, bound_steps: int | None) -> None:
        self.bound_steps = bound_steps

    def on_attach(self, checker: InvariantChecker, sim: Simulator) -> None:
        self._floor: dict[int, int] = {}
        if sim.interceptor is not None:
            return
        if isinstance(sim, ArraySimulator):
            pids, floors = self._floors_from_arrays(sim)
        else:
            pids, floors = self._floors_from_objects(sim)
        self._floor = dict(zip(pids, floors))

    @staticmethod
    def _floors_from_objects(sim: Simulator) -> tuple[list[int], list[int]]:
        topo = sim.topology
        pids: list[int] = []
        floors: list[int] = []
        for p in sim.iter_packets():
            pids.append(p.pid)
            floors.append(sim.time + topo.distance(p.pos, p.dest))
        # Pending (dynamic) packets are not in the queues yet.
        for p in sim._pending:
            pids.append(p.pid)
            floors.append(p.injection_time + topo.distance(p.source, p.dest))
        return pids, floors

    @staticmethod
    def _floors_from_arrays(sim: ArraySimulator) -> tuple[list[int], list[int]]:
        st = sim._state
        act = sim._act
        g = st.geom
        queued = sim.time + g.distance(st.posf[act], st.destf[act])
        ptime, ppid, psrc, pdst = sim.pending_arrays()
        pending = ptime + g.distance(psrc, pdst)
        pids = np.concatenate([st.pids[act], ppid])
        return pids.tolist(), np.concatenate([queued, pending]).tolist()

    def post_step(
        self, checker: InvariantChecker, sim: Simulator, moves: Sequence[ScheduledMove]
    ) -> None:
        if self.bound_steps is not None and sim.time > self.bound_steps:
            checker.report(
                self,
                f"step {sim.time} exceeds the proven bound {self.bound_steps} "
                f"with {sim.undelivered} packet(s) undelivered",
            )

    def on_finish(self, checker: InvariantChecker, sim: Simulator) -> None:
        for pid, t in sim.delivery_times.items():
            floor = self._floor.get(pid)
            if floor is not None and t < floor:
                checker.report(
                    self,
                    f"packet {pid} delivered at step {t}, before its "
                    f"distance floor {floor}",
                )


def default_oracles(sim: Simulator, *, bound_steps: int | None = None) -> list[Oracle]:
    """The full oracle battery for one simulator.

    When ``bound_steps`` is None, the algorithm's own contract bound for
    the topology's side length is used (when it has one).
    """
    if bound_steps is None:
        bound_steps = sim.algorithm.permutation_step_bound(
            max(sim.topology.width, sim.topology.height)
        )
    return [
        PacketConservationOracle(),
        QueueBoundOracle(),
        MinimalityOracle(),
        StepBoundOracle(bound_steps),
    ]
