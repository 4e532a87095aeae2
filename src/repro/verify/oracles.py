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

Every oracle has one path, which runs on either engine: numpy reductions
over the simulator's :meth:`~repro.mesh.simulator.Simulator.step_view`
(flat-id arrays of the queued packets, the step's moves and the pending
pool) and its outcome ledgers (:class:`~repro.mesh.stepview.PacketLedger`).
The oracles re-derive their figures rather than read the engine's
bookkeeping: queue lengths are recounted from packet positions, not read
from an occupancy table, and distances use each packet's own source and
destination.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.mesh.simulator import ScheduledMove, Simulator
from repro.mesh.stepview import PacketLedger, StepView
from repro.mesh.topology import Topology

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


class PacketConservationOracle(Oracle):
    """Packets are conserved: pending + in-network + delivered + dropped
    + rejected == total, no pid occupies two queues, deliveries happen at
    the destination, and the delivered set only grows.

    The dropped term is conservation-modulo-dropped for faulty runs (see
    :mod:`repro.faults`): a packet leaves the accounting only by being
    delivered or by being explicitly recorded in ``Simulator.drops``.
    The rejected term is its admission-time analogue for open-loop
    streaming runs (see :mod:`repro.streaming`): a packet refused at the
    source under backpressure is recorded in ``Simulator.rejections`` and
    never enters the network, but stays in the accounting.  In closed-loop
    fault-free runs both ledgers are empty and the invariant reduces to
    the original equality.  Each step sorts the queued pids once and
    otherwise reads only what is new since the last check: the ledgers'
    new rows and the slots made since (see :class:`_Outcomes`).  Only a
    step that violates something walks its packets.
    """

    name = "packet-conservation"

    def on_attach(self, checker: InvariantChecker, sim: Simulator) -> None:
        # Deliveries, drops and rejections as read so far.  Rows recorded
        # before the oracle attached are read now: they are not this
        # step's, so no move is checked against them.
        self._outcomes = tuple(
            _Outcomes(led) for led in (sim.deliveries, sim.drops, sim.rejections)
        )
        # Slots below ``_fresh_from`` were looked up in every outcome set
        # when last queued (at 0, the first check looks up all).
        self._fresh_from = 0

    def post_step(
        self, checker: InvariantChecker, sim: Simulator, moves: Sequence[ScheduledMove]
    ) -> None:
        view = sim.step_view(moves)
        pids = view.pid
        ordered = np.sort(pids)
        if not view.slots_made:
            born = ordered  # an engine that numbers no slots: every pid is new
        elif view.slots_made > self._fresh_from:
            born = pids[(view.slot < 0) | (view.slot >= self._fresh_from)]
        else:
            born = _EMPTY
        self._fresh_from = view.slots_made
        delivered, dropped, rejected = self._outcomes
        added, lost = delivered.catch_up(sim.deliveries, ordered, born)
        dropped.catch_up(sim.drops, ordered, born)
        rejected.catch_up(sim.rejections, ordered, born)
        offenders = delivered.offenders
        suspect = bool((ordered[1:] == ordered[:-1]).any()) or any(
            len(outcomes.offenders) for outcomes in self._outcomes
        )
        if suspect:
            # Name the offenders in queue order: (node, queue key, FIFO).
            was_delivered = set(offenders.tolist())
            was_dropped = set(dropped.offenders.tolist())
            was_rejected = set(rejected.offenders.tolist())
            seen: set[int] = set()
            for pid in pids[np.lexsort((view.order, view.key, view.node))].tolist():
                if pid in seen:
                    checker.report(self, f"packet {pid} occupies two queues")
                seen.add(pid)
                if pid in was_delivered:
                    checker.report(self, f"packet {pid} still queued after delivery")
                if pid in was_dropped:
                    checker.report(
                        self, f"packet {pid} still queued after being dropped"
                    )
                if pid in was_rejected:
                    checker.report(
                        self, f"packet {pid} queued despite admission rejection"
                    )
        in_network = len(pids)
        if in_network != sim.in_flight:
            checker.report(
                self,
                f"in-flight counter {sim.in_flight} != queued packets {in_network}",
            )
        pending = sim.pending_count
        n_delivered = len(delivered.pids)
        n_dropped, n_rejected = len(dropped.pids), len(rejected.pids)
        total = n_delivered + in_network + pending + n_dropped + n_rejected
        if total != sim.total_packets:
            checker.report(
                self,
                f"conservation broken: delivered {n_delivered} + "
                f"queued {in_network} + pending {pending} + dropped {n_dropped} "
                f"+ rejected {n_rejected} != total {sim.total_packets}",
            )
        if len(lost):
            checker.report(
                self, f"delivered set shrank (lost pids {lost[:5].tolist()})"
            )
        if len(added) and len(moves):
            target, dest = view.move_target, view.move_dest
            arrived = np.sort(view.move_pid[target == dest])
            if not len(offenders) and np.array_equal(arrived, added):
                return  # each new delivery is a move that reached its goal
            delivering = _member(added, view.move_pid)
            for i in view.move_rows(delivering & (target != dest)).tolist():
                at, goal = _nodes(sim.topology, [target[i], dest[i]])
                checker.report(
                    self,
                    f"packet {view.move_pid[i]} recorded delivered at {at}, "
                    f"destination is {goal}",
                )


class _Outcomes:
    """One outcome ledger (deliveries, drops or rejections) as the
    conservation oracle has read it: the rows read, the pid of the last
    of them, the distinct pids, and ``offenders``, the queued pids among
    them at the last check (sorted)."""

    def __init__(self, ledger: PacketLedger) -> None:
        self.read = ledger.size
        self.last = int(ledger.pid[-1]) if ledger.size else 0
        self.pids: set[int] = set(ledger.pid.tolist())
        self.offenders = _EMPTY

    def catch_up(
        self, ledger: PacketLedger, ordered: NDArray[Any], born: NDArray[Any]
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Read ``ledger``'s new rows and find the queued pids (``ordered``,
        sorted) among its pids.  Returns the pids added since the last
        check and not before (sorted), and the pids no longer there
        (sorted).

        The ledger only grows, so a queued pid can be among its pids only
        if it was an offender at the last check, has a new row, or is in
        ``born`` (it holds a slot made since the last check, or none);
        only those are looked up.  If the rows read before changed (the
        pid of the last one moved), the whole set is rebuilt and every
        queued pid looked up instead.
        """
        n = ledger.size
        added = lost = _EMPTY
        found: list[NDArray[Any]] = []
        if not _kept(ledger, self.read, self.last):
            now = set(ledger.pid.tolist())
            added, lost = _sorted(now - self.pids), _sorted(self.pids - now)
            self.pids = now
            found.append(_among(now, ordered))
        else:
            if n > self.read:
                new = ledger.pid[self.read :]
                added = self._add(new)
                found.append(new[_member(ordered, new)])
            if len(self.offenders):
                found.append(self.offenders[_member(ordered, self.offenders)])
            if len(born) and self.pids:
                found.append(_among(self.pids, born))
        found = [f for f in found if len(f)]
        self.offenders = _distinct(np.concatenate(found)) if found else _EMPTY
        self.read, self.last = n, int(ledger.pid[-1]) if n else 0
        return added, lost

    def _add(self, new: NDArray[Any]) -> NDArray[Any]:
        """Add the pids ``new`` to the set; returns those it did not hold,
        distinct and sorted."""
        pids = self.pids
        values = new.tolist()
        if not pids.isdisjoint(values):  # a row repeats an earlier one
            new = new[~_isin(pids, new)]
            values = new.tolist()
        size = len(pids)
        pids.update(values)
        # The usual case: every row is a pid the set did not hold.
        return np.sort(new) if len(pids) - size == len(values) else _distinct(new)


class QueueBoundOracle(Oracle):
    """No queue ever holds more than ``k`` packets, and only queue keys the
    regime defines are in use (Section 2 / Section 5 queue models).

    Queue lengths are recounted from each queued packet's node and queue
    key, never read from an engine's occupancy bookkeeping, so a slip in
    that bookkeeping cannot hide an overflow.
    """

    name = "queue-bound"

    def post_step(
        self, checker: InvariantChecker, sim: Simulator, moves: Sequence[ScheduledMove]
    ) -> None:
        view = sim.step_view(moves)
        spec = sim.spec
        capacity = spec.capacity
        num_keys = len(spec.keys)
        node, key = view.node, view.key
        outside = bool(view.outside_keys)
        if outside:
            inside = key >= 0
            node, key = node[inside], key[inside]
        counts = np.bincount(
            node * num_keys + key, minlength=sim.topology.num_nodes * num_keys
        )
        if int(counts.max()) > capacity:
            for cell in np.flatnonzero(counts > capacity).tolist():
                flat, kidx = divmod(cell, num_keys)
                checker.report(
                    self,
                    f"queue {spec.keys[kidx]!r} at {_nodes(sim.topology, [flat])[0]} "
                    f"holds {counts[cell]} > capacity {capacity}",
                )
        if not outside:
            return
        # Queues whose key is outside the regime, by node.
        flats = view.node[view.key < 0].tolist()
        queues = Counter(zip(flats, map(repr, view.outside_keys)))
        for (flat, name), length in sorted(queues.items()):
            at = _nodes(sim.topology, [flat])[0]
            if length > capacity:
                checker.report(
                    self, f"queue {name} at {at} holds {length} > capacity {capacity}"
                )
            checker.report(
                self, f"queue key {name} at {at} is outside the {spec.kind} regime"
            )


class MinimalityOracle(Oracle):
    """Minimal routers shrink distance-to-destination by exactly one per
    move; delta-bounded routers never stray more than ``delta`` hops beyond
    the rectangle spanned by source and destination (Section 5's class).

    The rectangle check is skipped on wrapping topologies, where the
    spanned rectangle is not well defined; on irregular ones
    (sparse-pillar), whose minimal paths legitimately leave it to route
    around missing links; and under an interceptor, whose destination
    exchanges redefine the rectangle mid-flight.
    """

    name = "minimality"

    def on_attach(self, checker: InvariantChecker, sim: Simulator) -> None:
        topo = sim.topology
        self._coords: NDArray[Any] | None = None
        if not topo.wraps and topo.regular and sim.interceptor is None:
            # int32 copies of the coordinate table: coordinates are small,
            # and int32 gathers and arithmetic move half the memory.
            self._coords = topo.coords.astype(np.int32)

    def post_step(
        self, checker: InvariantChecker, sim: Simulator, moves: Sequence[ScheduledMove]
    ) -> None:
        delta = sim.algorithm.excursion_delta()
        if delta is None or not len(moves):
            return
        view = sim.step_view(moves)
        minimal = sim.algorithm.minimal
        dest = view.move_dest
        target = view.move_target
        if self._coords is None:
            if minimal:
                topo = sim.topology
                before = topo.flat_distance(view.move_src, dest)
                after = topo.flat_distance(target, dest)
                bad = view.move_rows(after != before - 1)
                self._report_unprofitable(checker, sim, view, bad)
            return
        # On a mesh both checks come from one pass over the coordinates:
        # the move's change of distance, and the target's distance from
        # the source-destination rectangle.  On one axis the target t lies
        # (|t-a| + |t-b| - |a-b|) / 2 outside the span of a and b; ``twice``
        # sums the numerators.
        src = view.move_source
        gain: Any = 0
        twice: Any = 0
        for coord in self._coords:
            t = coord[target]
            b = coord[dest]
            a = coord[src]
            tb = np.abs(t - b)
            if minimal:
                gain = gain + (tb - np.abs(coord[view.move_src] - b))
            twice = twice + (np.abs(t - a) + tb - np.abs(a - b))
        if minimal:
            self._report_unprofitable(checker, sim, view, view.move_rows(gain != -1))
        for i in view.move_rows(twice > 2 * delta).tolist():
            at, a, b = _nodes(sim.topology, [target[i], src[i], dest[i]])
            checker.report(
                self,
                f"packet {view.move_pid[i]} at {at} strays {twice[i] // 2} > delta "
                f"{delta} beyond rectangle {a}..{b}",
            )

    def _report_unprofitable(
        self,
        checker: InvariantChecker,
        sim: Simulator,
        view: StepView,
        bad: NDArray[Any],
    ) -> None:
        """Report moves ``bad`` (row indices, in report order), which did
        not shrink the distance by one."""
        topo = sim.topology
        for i in bad.tolist():
            ends = [view.move_src[i], view.move_target[i]]
            d0, d1 = topo.flat_distance(np.array(ends), view.move_dest[i]).tolist()
            a, b, goal = _nodes(topo, ends + [view.move_dest[i]])
            checker.report(
                self,
                f"packet {view.move_pid[i]} moved {a}->{b} (distance {d0}->{d1}), "
                f"not a profitable move for dest {goal}",
            )


def _kept(ledger: PacketLedger, read: int, last: int) -> bool:
    """Whether the ``read`` rows read before are still ``ledger``'s first
    rows: it did not shrink, and row ``read - 1`` still holds pid ``last``."""
    return ledger.size >= read and (not read or ledger.pid[read - 1] == last)


def _member(keys: NDArray[Any], values: NDArray[Any]) -> NDArray[Any]:
    """Membership mask of ``values`` in the sorted array ``keys``."""
    if not len(keys):
        return np.zeros(len(values), dtype=bool)
    return keys.take(keys.searchsorted(values), mode="clip") == values


def _isin(pids: set[int], values: NDArray[Any]) -> NDArray[Any]:
    """Membership mask of ``values`` in the set ``pids``: one hash lookup
    per value, however large the set."""
    return np.fromiter(map(pids.__contains__, values.tolist()), bool, len(values))


def _among(pids: set[int], values: NDArray[Any]) -> NDArray[Any]:
    """The ``values`` that are in the set ``pids``."""
    return values[_isin(pids, values)] if pids else _EMPTY


def _sorted(pids: set[int]) -> NDArray[Any]:
    """The set ``pids`` as a sorted array."""
    return np.array(sorted(pids), dtype=np.int64)


def _distinct(values: NDArray[Any]) -> NDArray[Any]:
    """The distinct ``values``, sorted (a sort, not numpy's hash unique)."""
    values = np.sort(values)
    if len(values) > 1:
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    return values


def _nodes(topology: Topology, flat: Any) -> list[tuple[int, ...]]:
    """The coordinate tuples of flat node ids, for messages."""
    return [tuple(c) for c in topology.coords[:, flat].T.tolist()]


class StepBoundOracle(Oracle):
    """Completed runs respect the algorithm's proven step budget and the
    trivial distance floor.

    ``bound_steps`` is the theorem budget the run is held to (None = no
    proven bound, only the floor is checked).  The floor is checked per
    packet, but only when no interceptor rewrote destinations: a packet
    queued at ``pos`` when the oracle attaches (at step ``time``) cannot be
    delivered before ``time + distance(pos, dest)``, and a pending one not
    before ``injection_time + distance(source, dest)`` -- at attach time 0
    both are the source-to-destination distance.  The floors, aligned to
    the sorted pids, are checked against the delivery ledger's rows.
    """

    name = "step-bound"

    def __init__(self, bound_steps: int | None) -> None:
        self.bound_steps = bound_steps

    def on_attach(self, checker: InvariantChecker, sim: Simulator) -> None:
        self._pids = self._floors = _EMPTY
        if sim.interceptor is not None:
            return
        view = sim.step_view()
        distance = sim.topology.flat_distance
        ptime, ppid, psrc, pdst = view.pending
        pids = np.concatenate([view.pid, ppid])
        floors = np.concatenate(
            [sim.time + distance(view.node, view.dest), ptime + distance(psrc, pdst)]
        )
        order = np.argsort(pids, kind="stable")
        self._pids, self._floors = pids[order], floors[order]

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
        led = sim.deliveries
        if not len(self._pids) or not led.size:
            return
        at = np.minimum(np.searchsorted(self._pids, led.pid), len(self._pids) - 1)
        floor = self._floors[at]
        early = np.flatnonzero((self._pids[at] == led.pid) & (led.step < floor))
        for pid, t, f in zip(
            led.pid[early].tolist(), led.step[early].tolist(), floor[early].tolist()
        ):
            checker.report(
                self,
                f"packet {pid} delivered at step {t}, before its distance floor {f}",
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
