"""Faulty-run orchestration: one simulator, one fault plan, full telemetry.

:func:`run_faulty` wires the pieces the rest of the package provides into
a single measured run:

- the plan attaches as the simulator's ``link_filter`` (a scheduled move
  over a down link silently fails, like a refusal);
- the verify oracles attach in ``record`` mode by default, so invariant
  violations (queue overflow under flakiness, broken conservation) are
  *detected and counted* instead of aborting the run -- exactly what an
  availability sweep wants;
- optionally a :class:`~repro.faults.resilience.ResilienceManager`
  provides retransmission and node-outage drops;
- degradation metrics -- delivered fraction and latency percentiles --
  are computed over *original* packets (retransmitted copies count toward
  their original's delivery, never as extra traffic).

The result is a :class:`FaultyRunReport` whose :meth:`~FaultyRunReport.to_metrics`
dict is deterministic: a pure function of (topology, algorithm, packets,
plan, parameters), byte-identical across worker counts and runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.analysis.stats import degradation_metrics, violation_counts
from repro.faults.plan import FaultPlan
from repro.faults.resilience import ResilienceManager
from repro.mesh.batch import PacketBatch
from repro.mesh.interfaces import RoutingAlgorithm
from repro.mesh.packet import Packet
from repro.mesh.simulator import RunResult, Simulator
from repro.mesh.stepview import PacketLedger
from repro.mesh.topology import Topology
from repro.verify.oracles import (
    MinimalityOracle,
    PacketConservationOracle,
    QueueBoundOracle,
    Violation,
    attach_checker,
)


@dataclass
class FaultyRunReport:
    """Everything one faulty run produced.

    Attributes:
        result: The simulator's :class:`RunResult` (``total_packets``
            includes retransmitted copies; the degradation metrics below
            are per-original).
        violations: Invariant violations the oracles recorded.
        degradation: The per-original degradation metrics (also merged
            into ``result.counters``).
    """

    result: RunResult
    violations: list[Violation]
    degradation: dict[str, Any]

    @property
    def ok(self) -> bool:
        """No invariant was violated (delivery may still be partial)."""
        return not self.violations

    @property
    def overflowed(self) -> bool:
        """Some queue exceeded its capacity ``k`` during the run."""
        return any(v.oracle == QueueBoundOracle.name for v in self.violations)

    def to_metrics(self) -> dict[str, Any]:
        """Flat, JSON-serializable, deterministic metrics row."""
        r = self.result
        counts = violation_counts(self.violations)
        return {
            "completed": r.completed,
            "steps": r.steps,
            "delivered": r.delivered,
            "total_packets": r.total_packets,
            "max_queue_len": r.max_queue_len,
            "max_node_load": r.max_node_load,
            "total_moves": r.total_moves,
            "queue_bound_violations": counts.get(QueueBoundOracle.name, 0),
            "conservation_violations": counts.get(
                PacketConservationOracle.name, 0
            ),
            "minimality_violations": counts.get(MinimalityOracle.name, 0),
            **self.degradation,
        }


def run_faulty(
    topology: Topology,
    algorithm: RoutingAlgorithm,
    packets: Iterable[Packet],
    plan: FaultPlan,
    *,
    max_steps: int,
    retransmit_timeout: int = 0,
    max_retransmits: int = 3,
    oracle_mode: str = "record",
    engine: str = "reference",
) -> FaultyRunReport:
    """Run ``algorithm`` on ``packets`` under ``plan`` and measure it.

    Args:
        retransmit_timeout: 0 disables the resilience layer entirely;
            otherwise sources re-inject undelivered packets every
            ``retransmit_timeout`` steps (at most ``max_retransmits``
            times each) and node outages drop resident packets.
            Requires the reference engine (ResilienceManager raises on
            any other).
        oracle_mode: ``record`` (default) counts violations without
            aborting; ``strict`` raises on the first one (tests).
        engine: Step-engine to run on (``reference`` or ``array``);
            fault plans evaluate the same pure counter-hash draws on
            either, so results are byte-identical.  ``array`` raises
            ``ValueError`` for a router it has not ported, the
            resilience-layer routers included.

    The simulator runs with ``validate=False``: enforcement is exactly
    the oracles' job here, and record mode must be able to observe a
    queue overflow rather than die on the simulator's own check.
    """
    batch = PacketBatch.of(packets, topology)

    sim = Simulator(topology, algorithm, batch, validate=False, engine=engine)
    plan.attach(sim)
    checker = attach_checker(
        sim,
        [PacketConservationOracle(), QueueBoundOracle(), MinimalityOracle()],
        mode=oracle_mode,
    )
    manager = (
        ResilienceManager(
            sim,
            plan,
            timeout=retransmit_timeout,
            max_retransmits=max_retransmits,
        )
        if retransmit_timeout > 0
        else None
    )

    result = sim.run(max_steps, until=(lambda: manager.settled) if manager else None)
    checker.finish()

    if manager is not None:
        delivered, total = len(manager.delivered_at), manager.originals
        latencies = manager.latencies()
        extra = dict(manager.counters())
    else:
        delivered, total = result.delivered, result.total_packets
        latencies = _latencies(sim.deliveries, batch)
        extra = {"retransmissions": 0, "dropped_by_outage": 0}
    extra["engine"] = sim.engine_name

    degradation = degradation_metrics(
        delivered=delivered,
        total=total,
        latencies=latencies,
        dropped=sim.drops.size,
        extra=extra,
    )
    result.counters.update(degradation)
    return FaultyRunReport(
        result=result, violations=list(checker.violations), degradation=degradation
    )


def _latencies(ledger: PacketLedger, batch: PacketBatch) -> list[int]:
    """Delivery minus injection step of each distinct delivered pid,
    sorted, from the ledger's columns.  A pid delivered twice (corrupted
    state) counts once, at its last delivery, as in ``delivery_times``."""
    pid, step = ledger.last_rows()
    order = np.argsort(batch.pid, kind="stable")
    row = order[np.searchsorted(batch.pid, pid, sorter=order)]
    return np.sort(step - batch.injection_time[row]).tolist()
