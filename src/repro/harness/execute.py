"""Trial execution: turn one :class:`TrialSpec` into a metrics dict.

This is the single entrypoint worker processes call.  Every value in the
returned dict is JSON-serializable and fully determined by the spec, so
equal specs produce byte-identical stored rows regardless of which worker
(or how many workers) ran them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core import (
    AdaptiveLowerBoundConstruction,
    DorLowerBoundConstruction,
    FfLowerBoundConstruction,
    replay_constructed_permutation,
)
from repro.core.bounds import diameter_bound
from repro.core.extensions import HhLowerBoundConstruction, TorusLowerBoundConstruction
from repro.harness.specs import DEFAULT_VICTIMS, TrialSpec
from repro.mesh import Mesh, Simulator, Torus
from repro.mesh.simulator import RunResult
from repro.mesh.interfaces import RoutingAlgorithm
from repro.routing import (
    AlternatingAdaptiveRouter,
    BoundedDimensionOrderRouter,
    BoundedExcursionRouter,
    CreditAdaptiveRouter,
    DimensionOrderRouter,
    FarthestFirstRouter,
    GreedyAdaptiveRouter,
    HotPotatoRouter,
    RandomizedAdaptiveRouter,
    ShearsortRouter,
)
from repro.workloads import (
    bit_reversal_permutation,
    random_partial_permutation,
    random_permutation,
    rotation_permutation,
    transpose_permutation,
)


def build_workload(name: str, topology, seed: int):
    """The named workload on ``topology`` (shared with the CLI)."""
    if name == "random":
        return random_permutation(topology, seed=seed)
    if name == "partial":
        return random_partial_permutation(topology, 0.5, seed=seed)
    if name == "transpose":
        return transpose_permutation(topology)
    if name == "bit-reversal":
        return bit_reversal_permutation(topology)
    if name == "rotation":
        # One shift per axis; in 2D this is the historical (w // 2, h // 3).
        shifts = (side // (axis + 2) for axis, side in enumerate(topology.shape))
        return rotation_permutation(topology, *shifts)
    raise ValueError(f"unknown workload {name!r}")


def build_trial_topology(spec: TrialSpec):
    """The topology a simulator-driving trial runs on.

    ``spec.topology`` names any registered analysis topology (the validated
    spec guarantees the algorithm can route on it); empty falls back to the
    historical ``torus`` flag choosing between the two 2D topologies.
    """
    if spec.topology:
        from repro.mesh import build_topology

        return build_topology(spec.topology, spec.n)
    return Torus(spec.n) if spec.torus else Mesh(spec.n)


def build_router(spec: TrialSpec) -> RoutingAlgorithm:
    """The routing algorithm a ``route`` trial exercises."""
    a = spec.algorithm
    if a == "dor":
        return DimensionOrderRouter(spec.k)
    if a == "bounded-dor":
        return BoundedDimensionOrderRouter(spec.k)
    if a == "farthest-first":
        return FarthestFirstRouter(spec.k, spec.queues)
    if a == "greedy-adaptive":
        return GreedyAdaptiveRouter(spec.k, spec.queues)
    if a == "alternating-adaptive":
        return AlternatingAdaptiveRouter(spec.k, spec.queues)
    if a == "hot-potato":
        return HotPotatoRouter()
    if a == "randomized-adaptive":
        return RandomizedAdaptiveRouter(spec.k, spec.seed, spec.queues)
    if a == "bounded-excursion":
        return BoundedExcursionRouter(spec.k, spec.delta, spec.queues)
    if a == "credit-adaptive":
        return CreditAdaptiveRouter(spec.k)
    raise ValueError(f"unknown route algorithm {a!r}")


def _victim_factory(spec: TrialSpec) -> Callable[[], RoutingAlgorithm]:
    victim = spec.algorithm or DEFAULT_VICTIMS[spec.construction]
    k = max(spec.k, spec.h) if spec.construction == "hh" else spec.k
    if victim == "greedy-adaptive":
        return lambda: GreedyAdaptiveRouter(k)
    if victim == "alternating-adaptive":
        return lambda: AlternatingAdaptiveRouter(k)
    if victim == "bounded-dor":
        return lambda: BoundedDimensionOrderRouter(k)
    if victim == "farthest-first":
        return lambda: FarthestFirstRouter(k)
    raise ValueError(f"unknown victim algorithm {victim!r}")


@dataclass(frozen=True)
class BuiltTrial:
    """A trial whose arguments are checked and whose objects are built.

    The build step (``build_route``, ``build_lower_bound``,
    ``build_section6``) raises ``ValueError`` on every bad argument;
    ``run()`` then does the work and returns the trial's metrics.
    ``simulator`` is a route trial's :class:`Simulator` (None otherwise),
    handed back so a caller can attach instrumentation before ``run()``.
    """

    run: Callable[[], dict[str, Any]]
    simulator: Simulator | None = None


def build_route(spec: TrialSpec) -> BuiltTrial:
    """Build a ``route`` trial: topology, router, workload, simulator, links."""
    spec.validate()
    topology = build_trial_topology(spec)
    algorithm = build_router(spec)
    packets = build_workload(spec.workload, topology, spec.seed)
    sim = Simulator(topology, algorithm, packets, engine=spec.engine)
    if spec.availability < 1.0:
        from repro.faults import BernoulliLinkPlan

        BernoulliLinkPlan(spec.availability, seed=spec.seed).attach(sim)

    def run() -> dict[str, Any]:
        if spec.availability < 1.0:
            result = sim.run(max_steps=spec.max_steps)
        else:
            result = _run_closed(sim, spec.max_steps)
        return {
            "algorithm_name": algorithm.name,
            "engine": sim.engine_name,
            "completed": result.completed,
            "steps": result.steps,
            "delivered": result.delivered,
            "total_packets": result.total_packets,
            "max_queue_len": result.max_queue_len,
            "max_node_load": result.max_node_load,
            "total_moves": result.total_moves,
            "diameter": topology.diameter,
        }

    return BuiltTrial(run, sim)


def _run_closed(sim: Simulator, max_steps: int) -> RunResult:
    """Run a fault-free trial like ``sim.run``, but stop at a wedge:
    :data:`~repro.streaming.run.STALL_STEPS` consecutive steps without a
    move while no packet waits outside the network.  Without faults or
    arrivals such a network has settled into the stalled configuration
    (the central-queue routers' exchange deadlocks and livelocks), so the
    rest of the step budget would change nothing but the step count."""
    from repro.streaming.run import STALL_STEPS

    idle = 0
    while not sim.done and sim.time < max_steps and idle < STALL_STEPS:
        moves_before = sim.total_moves
        sim.step()
        if sim.total_moves != moves_before or sim.pending_count:
            idle = 0
        else:
            idle += 1
    return sim.result()


def build_lower_bound(spec: TrialSpec, *, check_invariants: bool = False) -> BuiltTrial:
    """Build a ``lower_bound`` trial: the construction against its victim.

    ``check_invariants`` asks the construction to re-check its invariants
    every step (a debugging aid, so not part of the spec's identity).
    """
    spec.validate()
    factory = _victim_factory(spec)
    constructions = {
        "adaptive": AdaptiveLowerBoundConstruction,
        "torus": TorusLowerBoundConstruction,
        "dor": DorLowerBoundConstruction,
        "ff": FfLowerBoundConstruction,
    }
    if spec.construction == "hh":
        con = HhLowerBoundConstruction(
            spec.n, spec.h, factory, check_invariants=check_invariants
        )
    else:
        con = constructions[spec.construction](
            spec.n, factory, check_invariants=check_invariants
        )
    topology = con.topology if spec.construction == "torus" else None

    def run() -> dict[str, Any]:
        result = con.run()
        report = replay_constructed_permutation(
            result,
            factory,
            topology=topology,
            run_to_completion=spec.run_to_completion,
            max_steps=spec.max_steps,
        )
        return {
            "victim": spec.algorithm or DEFAULT_VICTIMS[spec.construction],
            "bound_steps": result.bound_steps,
            "exchange_count": result.exchange_count,
            "undelivered_at_bound": report.undelivered_at_bound,
            "configuration_matches": report.configuration_matches,
            "delivery_times_match": report.delivery_times_match,
            "completed": report.completed,
            "measured_steps": report.total_steps if report.completed else None,
            "max_queue_len": report.max_queue_len,
            "k_node": con.k,
            "diameter": diameter_bound(spec.n),
        }

    return BuiltTrial(run)


def build_section6(spec: TrialSpec) -> BuiltTrial:
    """Build a ``section6`` trial: the Section 6 router and its workload."""
    from repro.tiling import Section6Router

    spec.validate()
    router = Section6Router(spec.n, improved=spec.improved, record_phases=False)
    packets = build_workload(spec.workload, Mesh(spec.n), spec.seed)

    def run() -> dict[str, Any]:
        result = router.route(packets)
        return {
            "completed": result.completed,
            "delivered": result.delivered,
            "total_packets": result.total_packets,
            "actual_steps": result.actual_steps,
            "scheduled_steps": result.scheduled_steps,
            "paper_time_bound": result.paper_time_bound,
            "max_node_load": result.max_node_load,
            "paper_queue_bound": result.paper_queue_bound,
        }

    return BuiltTrial(run)


def _run_sort_route(spec: TrialSpec) -> dict[str, Any]:
    mesh = Mesh(spec.n)
    packets = build_workload(spec.workload, mesh, spec.seed)
    result = ShearsortRouter(spec.n).route(packets)
    return {
        "completed": result.completed,
        "total_steps": result.total_steps,
        "max_node_load": result.max_node_load,
    }


def _run_verify(spec: TrialSpec) -> dict[str, Any]:
    """One differential-verification cell (see repro.verify.differential).

    ``workload`` names the family, and ``algorithm`` may pin the sweep to a
    single registered router (empty = all).  The trial *fails* (raises) when
    the cell has findings, so campaign telemetry surfaces broken invariants
    the same way it surfaces crashed trials.
    """
    from repro.verify import cross_check

    report = cross_check(
        spec.workload,
        spec.n,
        spec.k,
        spec.seed,
        routers=[spec.algorithm] if spec.algorithm else None,
        mode="record",
    )
    metrics = report.to_metrics()
    if not report.ok:
        raise AssertionError(
            f"verify cell {spec.workload} n={spec.n} k={spec.k} seed={spec.seed}: "
            + "; ".join(report.findings)
        )
    return metrics


def _run_analyze(spec: TrialSpec) -> dict[str, Any]:
    """One static-analysis cell (see repro.analysis.static_check).

    ``workload`` names the engine (``cdg``, ``bounds``, ``lint`` or
    ``all``) and ``algorithm`` may pin the CDG/bounds sweep to one
    registered router.  Like ``verify`` trials, a cell with findings
    *fails* (raises) so campaign telemetry surfaces static regressions
    like crashed trials.
    """
    from repro.analysis.static_check import (
        analyze_registry,
        check_agreement,
        diff_against_baseline,
        run_lint,
    )

    metrics: dict[str, Any] = {}
    findings: list[str] = []
    if spec.workload in ("cdg", "all"):
        verdicts = analyze_registry(
            ns=(spec.n,),
            ks=(spec.k,),
            routers=[spec.algorithm] if spec.algorithm else None,
        )
        metrics["verdicts"] = len(verdicts)
        metrics["cyclic"] = sum(v.verdict == "CYCLIC" for v in verdicts)
        metrics["deadlock_free"] = sum(
            v.verdict == "DEADLOCK_FREE" for v in verdicts
        )
        findings.extend(check_agreement(verdicts))
    if spec.workload in ("bounds", "all"):
        bounds_metrics, bounds_findings = _bounds_cell(spec)
        metrics.update(bounds_metrics)
        findings.extend(bounds_findings)
    if spec.workload in ("lint", "all"):
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).resolve().parents[2]
        new, _fixed = diff_against_baseline(run_lint(root))
        metrics["lint_new"] = len(new)
        findings.extend(str(v) for v in new)
    if findings:
        raise AssertionError(
            f"analyze {spec.workload} n={spec.n} k={spec.k}: "
            + "; ".join(findings)
        )
    return metrics


def _bounds_cell(spec: TrialSpec) -> tuple[dict[str, Any], list[str]]:
    """Shared body of ``bounds`` trials and ``analyze`` bounds cells."""
    from repro.analysis.static_check import (
        certify_registry,
        check_bounds_agreement,
    )

    verdicts = certify_registry(
        ns=(spec.n,),
        ks=(spec.k,),
        routers=(spec.algorithm,) if spec.algorithm else None,
    )
    metrics = {
        "bounds_verdicts": len(verdicts),
        "bounded": sum(v.verdict == "BOUNDED" for v in verdicts),
        "unbounded": sum(v.verdict == "UNBOUNDED" for v in verdicts),
    }
    findings = check_bounds_agreement(verdicts, n=spec.n, ks=(spec.k,))
    return metrics, findings


def _run_bounds(spec: TrialSpec) -> dict[str, Any]:
    """One queue-bound certification cell (repro.analysis.static_check.bounds).

    Certifies every registered router (or the one pinned by
    ``algorithm``) at the cell's ``(n, k)`` and cross-checks the verdicts
    against the runtime ``QueueBoundOracle``; a disagreement raises, like
    a failed ``verify`` trial.
    """
    metrics, findings = _bounds_cell(spec)
    if findings:
        raise AssertionError(
            f"bounds n={spec.n} k={spec.k}: " + "; ".join(findings)
        )
    return metrics


def _run_faults(spec: TrialSpec) -> dict[str, Any]:
    """One fault-injection cell (see repro.faults and docs/FAULTS.md).

    ``availability`` drives an i.i.d. Bernoulli link plan; ``mttf``/
    ``mttr`` add a renewal node-outage process; ``retransmit_timeout``
    enables the resilience layer.  The oracles run in record mode, so an
    overflow under faults is *reported* in the metrics
    (``queue_bound_violations``), not raised -- detecting which algorithms
    break is the point of the sweep.
    """
    from repro.faults import (
        BernoulliLinkPlan,
        CompositeFaultPlan,
        ConservativeBoundedDimensionOrderRouter,
        FaultAwareRerouteRouter,
        FaultPlan,
        RenewalOutagePlan,
        run_faulty,
    )

    topology = Torus(spec.n) if spec.torus else Mesh(spec.n)
    plans: list[FaultPlan] = [BernoulliLinkPlan(spec.availability, seed=spec.seed)]
    if spec.mttf > 0:
        plans.append(
            RenewalOutagePlan(spec.mttf, spec.mttr, seed=spec.seed + 1, scope="node")
        )
    plan = plans[0] if len(plans) == 1 else CompositeFaultPlan(*plans)

    if spec.algorithm == "conservative-bounded-dor":
        algorithm: RoutingAlgorithm = ConservativeBoundedDimensionOrderRouter(spec.k)
    elif spec.algorithm == "fault-reroute":
        algorithm = FaultAwareRerouteRouter(
            ConservativeBoundedDimensionOrderRouter(spec.k), plan, delta=spec.delta
        )
    else:
        algorithm = build_router(spec)

    packets = build_workload(spec.workload, topology, spec.seed)
    report = run_faulty(
        topology,
        algorithm,
        packets,
        plan,
        max_steps=spec.max_steps,
        retransmit_timeout=spec.retransmit_timeout,
        max_retransmits=spec.max_retransmits,
        engine=spec.engine,
    )
    return {"algorithm_name": algorithm.name, **report.to_metrics()}


def _run_streaming(spec: TrialSpec) -> dict[str, Any]:
    """One open-loop streaming cell (see repro.streaming, docs/STREAMING.md).

    ``rate``/``arrival`` configure the arrival process, ``warmup``/
    ``measure``/``drain`` the windows.  Oracles run in record mode: a
    wedged or overflowing network is a *result* of the sweep
    (``stalled`` / ``queue_bound_violations``), not an error.
    """
    from repro.streaming import build_process, run_streaming

    topology = Torus(spec.n) if spec.torus else Mesh(spec.n)
    algorithm = build_router(spec)
    process = build_process(spec.arrival, spec.rate, seed=spec.seed)
    report = run_streaming(
        topology,
        algorithm,
        process,
        warmup=spec.warmup,
        measure=spec.measure,
        drain=spec.drain,
        engine=spec.engine,
    )
    return {"algorithm_name": algorithm.name, **report.to_metrics()}


#: Kinds split into a build step and a run step (the CLI calls both).
_BUILDERS: dict[str, Callable[[TrialSpec], BuiltTrial]] = {
    "route": build_route,
    "lower_bound": build_lower_bound,
    "section6": build_section6,
}

_RUNNERS = {
    "sort_route": _run_sort_route,
    "verify": _run_verify,
    "analyze": _run_analyze,
    "bounds": _run_bounds,
    "faults": _run_faults,
    "streaming": _run_streaming,
}


def execute_trial(spec: TrialSpec) -> dict[str, Any]:
    """Run one trial to completion and return its deterministic metrics."""
    builder = _BUILDERS.get(spec.kind)
    if builder is not None:
        return builder(spec).run()
    spec.validate()
    return _RUNNERS[spec.kind](spec)
