"""Engine-neutral records for observers: the packet-outcome ledgers and
the per-step array view.

Both step engines record deliveries, drops and admission rejections in
:class:`PacketLedger` rows (``Simulator.deliveries``, ``drops`` and
``rejections``) and answer :meth:`~repro.mesh.simulator.Simulator.step_view` with a
:class:`StepView`, so an observer -- the :mod:`repro.verify` oracles --
is written once, over flat arrays, and runs on either engine.  Nodes are
flat ids (:meth:`~repro.mesh.topology.Topology.node_index`); the
topology's :attr:`~repro.mesh.topology.Topology.coords` table turns them
back into coordinates.
"""

from __future__ import annotations

from typing import Any

import numpy as np


class PacketLedger:
    """One kind of packet outcome (delivery, drop or rejection): append-only
    int64 columns of pid, step and slot, one row per outcome, in the order
    they happened.

    ``slot`` is the array engine's packet slot of a delivered packet; -1
    for a row with none (a drop, a rejection, a packet delivered at its
    source, or any row of the reference engine, which numbers no slots).  Observers read the rows past the last ones they
    saw.  Nothing keyed by pid exists until :meth:`as_dict` is called.
    """

    def __init__(self) -> None:
        self.size = 0
        self._rows = np.zeros((3, 64), dtype=np.int64)  # [pid, step, slot]
        # The dict view of the first _view_size rows, and the pid of the
        # last of them (which tells whether those rows are still there).
        self._view: dict[int, int] = {}
        self._view_size = 0
        self._view_last = 0

    @property
    def pid(self) -> np.ndarray:
        return self._rows[0, : self.size]

    @property
    def step(self) -> np.ndarray:
        return self._rows[1, : self.size]

    @property
    def slot(self) -> np.ndarray:
        return self._rows[2, : self.size]

    def append(self, pid: Any, step: int, slot: np.ndarray | int = -1) -> None:
        """Record the outcomes of ``pid`` (an array or a list) at
        ``step``, from ``slot``."""
        start = self.size
        self.size = end = start + len(pid)
        if end > self._rows.shape[1]:
            grown = np.zeros((3, max(end, 2 * self._rows.shape[1])), dtype=np.int64)
            grown[:, :start] = self._rows[:, :start]
            self._rows = grown
        self._rows[0, start:end] = pid
        self._rows[1, start:end] = step
        self._rows[2, start:end] = slot

    def as_dict(self) -> dict[int, int]:
        """pid -> step, in row order (``delivery_times``, ``dropped``,
        ``rejected``).

        Built on the first call and extended by the rows appended since;
        rebuilt whole if the rows it was built from changed.  The dict is
        a cached view, to be read, not written: the rows are the record.
        """
        n, seen = self.size, self._view_size
        if seen and (n < seen or self._rows[0, seen - 1] != self._view_last):
            self._view, seen = {}, 0
        if n > seen:
            self._view.update(
                zip(self._rows[0, seen:n].tolist(), self._rows[1, seen:n].tolist())
            )
            self._view_last = int(self._rows[0, n - 1])
        self._view_size = n
        return self._view

    def last_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The pid and step columns of :meth:`as_dict`: a pid with several
        rows (corrupted state) keeps only its last one."""
        view = self.as_dict()
        n = len(view)
        if n == self.size:
            return self.pid, self.step
        return np.fromiter(view, np.int64, n), np.fromiter(view.values(), np.int64, n)


class StepView:
    """One step's network state as flat-id arrays, made by each engine.

    Queued rows, one per packet in the network: ``pid``, ``node``,
    ``dest``, ``key`` (the index of the queue's key in ``spec.keys``; -1
    for a key outside the regime, listed in row order in
    ``outside_keys``), ``order`` (ascending within a queue is its FIFO
    order) and ``slot`` (the array engine's slot; -1 for none).  The
    step's moves, one row each in no particular order: ``move_pid``, the
    link's ``move_src``/``move_target``, and the packet's
    ``move_source``/``move_dest`` as its caller gave them (on the
    reference engine, its current ones); :meth:`move_rows` puts the rows a
    report names in the reference order.  ``pending`` is the pool
    outside the network as ``(injection_time, pid, source, dest)`` sorted
    by (time, pid).  ``slots_made`` counts the slots numbered so far (0 on
    an engine that numbers none), so a row whose slot is -1 or at least an
    earlier count is one that count did not cover.
    """

    pid: np.ndarray
    node: np.ndarray
    dest: np.ndarray
    key: np.ndarray
    order: np.ndarray
    slot: np.ndarray
    outside_keys: list[Any]
    move_pid: np.ndarray
    move_src: np.ndarray
    move_target: np.ndarray
    move_source: np.ndarray
    move_dest: np.ndarray
    pending: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    slots_made: int

    def move_rows(self, mask: np.ndarray) -> np.ndarray:
        """The indices of the move rows where ``mask`` holds, in the
        reference engine's move order, (target, inlink): the order a
        report names them in.  The reference engine's rows come in that
        order already."""
        return np.flatnonzero(mask)

