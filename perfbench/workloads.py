"""The benchmark's four workloads: inputs from a seed, one run, output checks.

Each workload builds its inputs from the seed (:meth:`Workload.inputs`),
runs them through the public ``repro`` entry points once
(:meth:`Workload.execute`) and checks the outputs, returning an
:class:`Outcome`.  :meth:`Workload.setup_probe` repeats everything a run
does before its first step -- input generation plus simulator
construction -- and is what ``setup_s`` times.

Why these four (the full reasoning is in README.md):

- ``perm-n256``: pure array-engine throughput on a closed permutation; the
  only workload whose set-up is large enough to matter.
- ``faults-n96``: the same router and engine under a fault plan and the
  record-mode oracles, so the checked path shows against ``perm-n256``.
- ``stream-n32``: open-loop arrivals just past bounded-dor's knee; the only
  workload that admits packets into the network every step.
- ``lowerbound-n168``: the paper's Theorem 13/14 construction and its
  Lemma 12 replay on the reference engine, which the adversary requires.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, ContextManager

from repro.analysis.stats import violation_counts
from repro.core import AdaptiveLowerBoundConstruction, replay_constructed_permutation
from repro.core.adversary import AdaptiveAdversary
from repro.faults.plan import BernoulliLinkPlan
from repro.faults.run import run_faulty
from repro.mesh.simulator import Simulator
from repro.mesh.topology import Mesh
from repro.routing import BoundedDimensionOrderRouter, GreedyAdaptiveRouter
from repro.streaming.arrivals import PoissonArrivals
from repro.streaming.run import run_streaming
from repro.verify.oracles import (
    MinimalityOracle,
    PacketConservationOracle,
    QueueBoundOracle,
)
from repro.workloads import random_permutation

ORACLES = (PacketConservationOracle, QueueBoundOracle, MinimalityOracle)

#: Link availability of faults-n96's ``BernoulliLinkPlan``.
AVAILABILITY = 0.9

#: stream-n32's Poisson rate (packets per node per step), just past
#: bounded-dor's knee at k=2, and its warm-up steps.
RATE = 0.08
WARMUP = 32


class NullTracer:
    """Stand-in for :class:`tracing.Tracer` in untraced runs."""

    def span(self, name: str) -> ContextManager[None]:
        return nullcontext()


NULL_TRACER = NullTracer()


@dataclass
class Outcome:
    """What one run of a workload produced.

    Attributes:
        offered: Packets offered to the network.
        delivered: Packets delivered.
        rejected: Packets refused at admission (open-loop backpressure,
            by design; not a failure).
        sim_steps: Simulated steps to completion or drain.
        latencies: Sorted delivery minus injection step per measured packet.
        run_start, run_end: ``perf_counter`` stamps around the routing
            call(s), the part of a run that steps the simulators.
        counters: Deterministic counters; equal on every run of one seed.
        failures: Output checks that failed (empty when correct).
    """

    offered: int
    delivered: int
    rejected: int
    sim_steps: int
    latencies: list[int]
    run_start: float
    run_end: float
    counters: dict[str, int]
    failures: list[str] = field(default_factory=list)

    @property
    def step_s(self) -> float:
        """Host seconds spent in the routing call(s)."""
        return self.run_end - self.run_start

    @property
    def failed_packets(self) -> int:
        """Packets lost to a failure: every packet when a check failed,
        else those still undelivered and not rejected at admission."""
        if self.failures:
            return self.offered
        return self.offered - self.delivered - self.rejected


def sim_counters(sims: list[Any]) -> dict[str, int]:
    """Deterministic scheduling counters summed over a run's simulators."""
    return {
        "total_moves": sum(s.total_moves for s in sims),
        "scheduled_moves": sum(s.scheduled_moves for s in sims),
        "refused_moves": sum(s.refused_moves for s in sims),
        "injected_packets": sum(s.injected_packets for s in sims),
    }


def violation_counters(violations: list[Any]) -> dict[str, int]:
    counts = violation_counts(violations)
    return {f"violations.{o.name}": counts.get(o.name, 0) for o in ORACLES}


class Workload:
    """One named workload; subclasses define inputs, set-up and the run.

    ``rep_s`` and ``setup_s`` are the nominal paced seconds one run and
    one set-up take at benchmark size on the reference host (README.md).  They
    fix how many runs and set-ups a measurement makes for a given
    ``--seconds``; they are constants, so the counts are the same on every
    commit however fast the code under test is.
    """

    name = ""
    engine = "array"
    rep_s = 1.0
    setup_s = 0.1

    def __init__(self, n: int, k: int) -> None:
        self.n = n
        self.k = k

    def inputs(self, seed: int, tracer: Any = NULL_TRACER) -> Any:
        raise NotImplementedError

    def setup_probe(self, seed: int) -> Any:
        raise NotImplementedError

    def execute(self, inputs: Any, sims: list[Any], tracer: Any = NULL_TRACER) -> Outcome:
        """Run ``inputs``; ``sims`` lists the simulators the run built."""
        raise NotImplementedError

    def common_checks(self, sims: list[Any], failures: list[str]) -> None:
        """Checks every workload shares: engine and queue bound."""
        for sim in sims:
            if sim.engine_name != self.engine:
                failures.append(
                    f"engine {sim.engine_name!r} ran, expected {self.engine!r}"
                )
            if sim.max_queue_len > self.k:
                failures.append(f"max_queue_len {sim.max_queue_len} > k={self.k}")
        if not sims:
            failures.append("no simulator was constructed")


class PermutationWorkload(Workload):
    """Closed random permutation, greedy-adaptive, incoming queues, array."""

    def __init__(self, n: int, k: int = 2) -> None:
        super().__init__(n, k)
        self.name = f"perm-n{n}"
        self.max_steps = 20 * n

    def inputs(self, seed: int, tracer: Any = NULL_TRACER) -> Any:
        topology = Mesh(self.n)
        with tracer.span("workloads.generate"):
            packets = random_permutation(topology, seed)
        with tracer.span("array.construct"):
            return Simulator(
                topology,
                GreedyAdaptiveRouter(self.k, "incoming"),
                packets,
                validate=False,
                engine="array",
            )

    def setup_probe(self, seed: int) -> Any:
        return self.inputs(seed)

    def execute(self, sim: Any, sims: list[Any], tracer: Any = NULL_TRACER) -> Outcome:
        t0 = perf_counter()
        with tracer.span("array.run"):
            result = sim.run(max_steps=self.max_steps)
        t1 = perf_counter()
        failures: list[str] = []
        self.common_checks(sims, failures)
        if not result.completed:
            failures.append(
                f"{result.total_packets - result.delivered} packets undelivered "
                f"after {result.steps} steps"
            )
        return Outcome(
            offered=result.total_packets,
            delivered=result.delivered,
            rejected=0,
            sim_steps=result.steps,
            latencies=sorted(result.delivery_times.values()),
            run_start=t0,
            run_end=t1,
            counters={"sim_steps": result.steps, **sim_counters(sims)},
            failures=failures,
        )


class FaultsWorkload(Workload):
    """Closed random permutation under Bernoulli link faults, checked."""

    def __init__(self, n: int, k: int = 2) -> None:
        super().__init__(n, k)
        self.name = f"faults-n{n}"
        self.max_steps = 20 * n

    def inputs(self, seed: int, tracer: Any = NULL_TRACER) -> Any:
        topology = Mesh(self.n)
        with tracer.span("workloads.generate"):
            packets = random_permutation(topology, seed)
        return topology, packets, BernoulliLinkPlan(AVAILABILITY, seed=seed)

    def setup_probe(self, seed: int) -> Any:
        topology, packets, plan = self.inputs(seed)
        sim = Simulator(
            topology,
            GreedyAdaptiveRouter(self.k, "incoming"),
            packets,
            validate=False,
            engine="array",
        )
        return plan.attach(sim)

    def execute(self, inputs: Any, sims: list[Any], tracer: Any = NULL_TRACER) -> Outcome:
        topology, packets, plan = inputs
        t0 = perf_counter()
        with tracer.span("faults.run_faulty"):
            report = run_faulty(
                topology,
                GreedyAdaptiveRouter(self.k, "incoming"),
                packets,
                plan,
                max_steps=self.max_steps,
                engine="array",
            )
        t1 = perf_counter()
        result = report.result
        failures: list[str] = []
        self.common_checks(sims, failures)
        if report.degradation["engine"] != self.engine:
            failures.append(f"run_faulty reports engine {report.degradation['engine']!r}")
        violations = violation_counters(report.violations)
        failures.extend(
            f"{count} {name} violation(s)" for name, count in violations.items() if count
        )
        return Outcome(
            offered=result.total_packets,
            delivered=result.delivered,
            rejected=0,
            sim_steps=result.steps,
            latencies=sorted(result.delivery_times.values()),
            run_start=t0,
            run_end=t1,
            counters={"sim_steps": result.steps, **sim_counters(sims), **violations},
            failures=failures,
        )


class StreamWorkload(Workload):
    """Open-loop Poisson arrivals, bounded-dor, admission backpressure."""

    def __init__(self, n: int, k: int = 2, measure: int = 160, drain: int = 1024) -> None:
        super().__init__(n, k)
        self.name = f"stream-n{n}"
        self.measure = measure
        self.drain = drain

    def inputs(self, seed: int, tracer: Any = NULL_TRACER) -> Any:
        return Mesh(self.n), PoissonArrivals(RATE, seed=seed)

    def setup_probe(self, seed: int) -> Any:
        topology, _ = self.inputs(seed)
        return Simulator(
            topology,
            BoundedDimensionOrderRouter(self.k),
            [],
            validate=False,
            engine="array",
        )

    def execute(self, inputs: Any, sims: list[Any], tracer: Any = NULL_TRACER) -> Outcome:
        topology, process = inputs
        t0 = perf_counter()
        with tracer.span("streaming.run_streaming"):
            report = run_streaming(
                topology,
                BoundedDimensionOrderRouter(self.k),
                process,
                warmup=WARMUP,
                measure=self.measure,
                drain=self.drain,
                engine="array",
            )
        t1 = perf_counter()
        result = report.result
        failures: list[str] = []
        self.common_checks(sims, failures)
        if report.engine != self.engine:
            failures.append(f"run_streaming reports engine {report.engine!r}")
        if report.stalled:
            failures.append("the network stalled")
        if not report.drained:
            failures.append("the run did not drain")
        violations = violation_counters(report.violations)
        failures.extend(
            f"{count} {name} violation(s)" for name, count in violations.items() if count
        )
        return Outcome(
            offered=report.offered,
            delivered=result.delivered,
            rejected=report.rejected,
            sim_steps=result.steps,
            latencies=list(report.latencies),
            run_start=t0,
            run_end=t1,
            counters={
                "sim_steps": result.steps,
                **sim_counters(sims),
                "offered": report.offered,
                "rejected": report.rejected,
                **violations,
            },
            failures=failures,
        )


class LowerBoundWorkload(Workload):
    """Theorem 13/14: adversarial construction, then its Lemma 12 replay.

    The construction is deterministic by definition, so the seed does not
    change this workload's inputs.
    """

    engine = "reference"

    def __init__(self, n: int, k: int = 1) -> None:
        super().__init__(n, k)
        self.name = f"lowerbound-n{n}"
        self.max_steps = 2_000_000

    def router(self) -> GreedyAdaptiveRouter:
        return GreedyAdaptiveRouter(self.k)

    def inputs(self, seed: int, tracer: Any = NULL_TRACER) -> Any:
        return AdaptiveLowerBoundConstruction(self.n, self.router)

    def setup_probe(self, seed: int) -> Any:
        con = self.inputs(seed)
        adversary = AdaptiveAdversary(con.constants, con.geometry)
        return Simulator(
            con.topology, self.router(), con.build_packets(), interceptor=adversary
        )

    def execute(self, con: Any, sims: list[Any], tracer: Any = NULL_TRACER) -> Outcome:
        t0 = perf_counter()
        with tracer.span("core.construct"):
            construction = con.run()
        with tracer.span("core.replay"):
            report = replay_constructed_permutation(
                construction,
                self.router,
                run_to_completion=True,
                max_steps=self.max_steps,
            )
        t1 = perf_counter()
        failures: list[str] = []
        self.common_checks(sims, failures)
        _, replay = sims  # the construction's simulator, then the replay's
        if not report.completed:
            failures.append(f"{replay.undelivered} packets undelivered by the replay")
        if not report.configuration_matches:
            failures.append("Lemma 12: replay configuration differs at the bound")
        if not report.delivery_times_match:
            failures.append("Lemma 12: replay delivery times differ before the bound")
        if report.undelivered_at_bound < 1:
            failures.append("Theorem 13: no packet undelivered at the bound")
        steps = report.total_steps or replay.time
        return Outcome(
            offered=replay.total_packets,
            delivered=len(replay.delivery_times),
            rejected=0,
            sim_steps=steps,
            latencies=sorted(replay.delivery_times.values()),
            run_start=t0,
            run_end=t1,
            counters={
                "sim_steps": steps,
                **sim_counters(sims),
                "exchange_count": construction.exchange_count,
                "undelivered_at_bound": report.undelivered_at_bound,
            },
            failures=failures,
        )


#: Workload name -> (benchmark size, seconds-long smoke size, nominal
#: paced seconds of one run and of one set-up at benchmark size).
SIZES = {
    "perm-n256": (
        lambda: PermutationWorkload(256), lambda: PermutationWorkload(16), 7.3, 0.68
    ),
    "faults-n96": (lambda: FaultsWorkload(96), lambda: FaultsWorkload(12), 4.2, 0.077),
    "stream-n32": (
        lambda: StreamWorkload(32),
        lambda: StreamWorkload(8, measure=64, drain=512),
        3.1,
        0.00031,
    ),
    "lowerbound-n168": (
        lambda: LowerBoundWorkload(168), lambda: LowerBoundWorkload(60), 4.0, 0.14
    ),
}

NAMES = tuple(SIZES)


def build(name: str, smoke: bool = False) -> Workload:
    """The named workload, at benchmark size or at the smoke size.

    Both sizes carry the benchmark size's nominal timings, so a smoke run
    makes the same number of runs and set-ups for the same ``--seconds``.
    """
    big, small, rep_s, setup_s = SIZES[name]
    workload = small() if smoke else big()
    workload.rep_s, workload.setup_s = rep_s, setup_s
    return workload
