"""Continuous open-loop simulation: inject, route, measure, drain.

:func:`run_streaming` drives one simulator under an
:class:`~repro.streaming.arrivals.ArrivalProcess` instead of a fixed
instance.  Per step, the process's
:meth:`~repro.streaming.arrivals.ArrivalProcess.arrivals_array` gives
every node's arrivals as arrays, in deterministic (column-major node)
order, and one :func:`offer_packet` call offers the whole batch to the
network: an arrival is **admitted** when its initial queue has space
left this step and **rejected** otherwise (recorded in
``Simulator.rejected`` -- the open-loop analogue of a dropped call,
visible to the conservation oracle).  The run is split
into the standard three windows:

- **warmup** steps fill the network to steady state (excluded from
  every measured figure);
- **measure** steps define the measured population: packets *offered*
  during this window produce the offered/delivered rates and latency
  percentiles;
- **drain** steps stop injection and let in-flight packets finish, so
  measured latencies are not truncated at the horizon.

The verify oracles attach in ``record`` mode by default, so queue
overflows under overload are *counted*, not fatal -- exactly what a
saturation sweep wants to see.  Everything reported is a pure function
of (topology, algorithm, process, windows): byte-identical across
repeats, worker counts, and machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.analysis.stats import latency_percentiles, violation_counts
from repro.mesh.interfaces import RoutingAlgorithm
from repro.mesh.simulator import RunResult, Simulator
from repro.mesh.topology import Topology
from repro.streaming.arrivals import ArrivalProcess
from repro.verify.oracles import (
    MinimalityOracle,
    PacketConservationOracle,
    QueueBoundOracle,
    Violation,
    attach_checker,
)

#: Consecutive zero-move steps after which the drain declares a wedge.
#: Sustained overload can *exchange-deadlock* the central-queue routers
#: (full neighbours refusing each other's head forever -- the documented
#: Section 2 caveat that motivates Theorem 15's four incoming queues);
#: a wedged network makes no move ever again, but phase-based routers may
#: legitimately idle a few steps, hence a threshold rather than one step.
STALL_STEPS = 16


@dataclass
class StreamingReport:
    """Everything one open-loop streaming run produced.

    Attributes:
        result: The simulator's :class:`RunResult` after the drain.
        violations: Invariant violations the record-mode oracles saw.
        offered / admitted / rejected: Packet counts over the whole run
            (warmup + measure; the drain injects nothing).
        offered_measured / admitted_measured / rejected_measured /
        delivered_measured: The same counts restricted to packets offered
            during the measurement window (delivery may happen later).
        nodes: Node count (the rate denominators).
        measure: Measurement-window length in steps.
        latencies: Sorted delivery - injection latencies of the measured,
            delivered packets.
        drained: True when every admitted packet was resolved before the
            drain budget ran out.
        stalled: True when the drain detected a wedged network (no move
            for :data:`STALL_STEPS` consecutive steps with packets still
            in flight) -- the overload exchange-deadlock of central-queue
            routers, reported as data rather than an error.
        engine: The step engine that ran (:attr:`Simulator.engine_name`);
            throughput metrics are meaningless without knowing which one
            produced them.
    """

    result: RunResult
    violations: list[Violation]
    engine: str
    offered: int
    admitted: int
    rejected: int
    offered_measured: int
    admitted_measured: int
    rejected_measured: int
    delivered_measured: int
    nodes: int
    measure: int
    latencies: list[int]
    drained: bool
    stalled: bool

    @property
    def ok(self) -> bool:
        """No invariant was violated (delivery may still be partial)."""
        return not self.violations

    @property
    def offered_rate(self) -> float:
        """Empirical offered packets per node per step, measured window."""
        return self.offered_measured / (self.nodes * self.measure)

    @property
    def delivered_rate(self) -> float:
        """Delivered packets per node per step, of the measured offers."""
        return self.delivered_measured / (self.nodes * self.measure)

    @property
    def rejection_fraction(self) -> float:
        """Share of measured offers refused at admission."""
        if self.offered_measured == 0:
            return 0.0
        return self.rejected_measured / self.offered_measured

    def to_metrics(self) -> dict[str, Any]:
        """Flat, JSON-serializable, deterministic metrics row."""
        counts = violation_counts(self.violations)
        return {
            "engine": self.engine,
            "steps": self.result.steps,
            "offered_packets": self.offered,
            "admitted_packets": self.admitted,
            "rejected_packets": self.rejected,
            "offered_measured": self.offered_measured,
            "admitted_measured": self.admitted_measured,
            "rejected_measured": self.rejected_measured,
            "delivered_measured": self.delivered_measured,
            "offered_rate": self.offered_rate,
            "delivered_rate": self.delivered_rate,
            "rejection_fraction": self.rejection_fraction,
            "drained": self.drained,
            "stalled": self.stalled,
            "max_queue_len": self.result.max_queue_len,
            "max_node_load": self.result.max_node_load,
            "total_moves": self.result.total_moves,
            **latency_percentiles(self.latencies, (50, 95, 99)),
            "queue_bound_violations": counts.get(QueueBoundOracle.name, 0),
            "conservation_violations": counts.get(
                PacketConservationOracle.name, 0
            ),
            "minimality_violations": counts.get(MinimalityOracle.name, 0),
        }


def offer_packet(
    sim: Simulator, sources: np.ndarray, dests: np.ndarray, first_pid: int
) -> np.ndarray:
    """Offer one batch of packets for admission; returns the admitted mask.

    Offer ``i`` is packet ``first_pid + i`` from flat node ``sources[i]``
    to ``dests[i]``, injected at the current step.  The admission rule is
    purely local: an offer is admitted iff fewer than ``capacity -
    occupancy`` earlier offers of the batch reached the queue it would
    initially join (``queue_spec.initial_key`` of its profitable
    directions at the source).  A step's traffic is offered in one batch:
    :meth:`Simulator.offer_packets` raises ``ValueError`` on a second call
    in the same step.  Rejected offers consume their pid and stay visible
    to the conservation oracle.
    """
    return sim.offer_packets(first_pid, sources, dests)


def run_streaming(
    topology: Topology,
    algorithm: RoutingAlgorithm,
    process: ArrivalProcess,
    *,
    warmup: int,
    measure: int,
    drain: int,
    oracle_mode: str = "record",
    plan: Any | None = None,
    engine: str = "reference",
) -> StreamingReport:
    """Route ``process``'s open-loop traffic through ``algorithm``.

    Args:
        warmup: Steps of injection before measurement starts, >= 0.
        measure: Steps of measured injection, >= 1.
        drain: Steps without injection to let in-flight packets finish,
            >= 0.  The run stops early once every packet is resolved.
        oracle_mode: ``record`` (default) counts violations without
            aborting; ``strict`` raises on the first one (tests); ``off``
            disables the oracles.
        plan: Optional :class:`repro.faults.plan.FaultPlan` attached
            through ``plan.attach`` -- streaming under faults composes
            freely, on either engine (the array engine evaluates the
            plan's vectorized link mask).
        engine: Step engine (``Simulator(engine=...)``); ``"array"``
            raises ``ValueError`` for a router it has not ported.

    The simulator runs with ``validate=False`` for the same reason the
    faults layer does: observing overload-induced overflows is the
    oracles' job, and record mode must outlive them.
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if measure < 1:
        raise ValueError(f"measure must be >= 1, got {measure}")
    if drain < 0:
        raise ValueError(f"drain must be >= 0, got {drain}")

    sim = Simulator(topology, algorithm, [], validate=False, engine=engine)
    if plan is not None:
        plan.attach(sim)
    checker = attach_checker(
        sim,
        [PacketConservationOracle(), QueueBoundOracle(), MinimalityOracle()],
        mode=oracle_mode,
    )

    horizon = warmup + measure
    next_pid = 0
    # Step t offers pids first_pid[t], first_pid[t] + 1, ...
    first_pid = np.zeros(horizon, dtype=np.int64)
    offered = admitted = 0
    offered_m = admitted_m = 0

    for t in range(horizon):
        sources, dests = process.arrivals_array(topology, t)
        first_pid[t] = next_pid
        m = len(sources)
        if m:
            took = int(offer_packet(sim, sources, dests, next_pid).sum())
            next_pid += m
            offered += m
            admitted += took
            if t >= warmup:
                offered_m += m
                admitted_m += took
        sim.step()

    deadline = horizon + drain
    idle = 0
    while not sim.done and sim.time < deadline and idle < STALL_STEPS:
        moves_before = sim.total_moves
        sim.step()
        idle = idle + 1 if sim.total_moves == moves_before else 0
    stalled = not sim.done and idle >= STALL_STEPS
    checker.finish()

    result = sim.result()
    # Only admitted offers are delivered; a pid's offer step is the last
    # step whose first pid is at most it (a step that offers nothing
    # shares its first pid with the next one).
    pid, step = sim.deliveries.last_rows()
    offered_at = np.searchsorted(first_pid, pid, side="right") - 1
    measured = offered_at >= warmup
    latencies = np.sort(step[measured] - offered_at[measured]).tolist()
    return StreamingReport(
        result=result,
        violations=list(checker.violations),
        engine=sim.engine_name,
        offered=offered,
        admitted=admitted,
        rejected=offered - admitted,
        offered_measured=offered_m,
        admitted_measured=admitted_m,
        rejected_measured=offered_m - admitted_m,
        delivered_measured=len(latencies),
        nodes=topology.num_nodes,
        measure=measure,
        latencies=latencies,
        drained=sim.done,
        stalled=stalled,
    )
