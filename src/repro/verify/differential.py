"""Differential and metamorphic cross-checking of every registered router.

One *cell* is (workload family, n, k, seed).  For each cell the runner
routes the same instance through every registered router with the full
oracle battery attached, then cross-checks the outcomes:

- **Bound compliance / invariants**: every run is oracle-clean (queue
  bound, conservation, minimality, step bounds) -- even runs that stall.
- **Completion expectations**: routers route the families they are
  guaranteed (or long observed) to finish; an unexpected stall is a
  finding.  Deadlock-prone configurations (the paper's own subject
  matter!) are encoded as expectations, not failures: e.g. plain FIFO
  dimension order livelocks on dynamic h-h traffic.
- **Delivered-set equality**: every completed router delivered exactly the
  same packet-id set (all of them).
- **Determinism**: repeating a run step-count- and delivery-time-identical
  (catches hidden global state; the randomized router is seeded).
- **Metamorphic symmetry**: the transpose and reflection images of an
  instance are routed clean and complete whenever the original does.
  (Step counts may legitimately differ: tie-breaking priorities are not
  symmetric under the transforms, so only validity is asserted.)
- **Exchangeability probe** (per run, not per cell): the Section 3/5
  adversaries perform their EX1-EX4 destination exchanges mid-flight, and
  replaying the final permutation from scratch must reproduce the exact
  same configuration trace (Lemma 12) -- the paper's indistinguishability
  claim, executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.mesh import (
    Mesh,
    MeshND,
    Packet,
    Simulator,
    SparsePillarMesh,
    Topology,
    Torus,
    TorusND,
    TOPOLOGY_NAMES,
)
from repro.mesh.batch import PacketBatch
from repro.mesh.errors import SimulationError
from repro.mesh.interfaces import RoutingAlgorithm
from repro.verify.oracles import (
    InvariantChecker,
    MinimalityOracle,
    PacketConservationOracle,
    QueueBoundOracle,
    StepBoundOracle,
    VerificationError,
    Violation,
)

FAMILIES = ("permutation", "hh", "torus", "dynamic", "mesh3d", "torus3d", "pillar")

#: The analysis-topology name (see ``repro.mesh.ndtopology.TOPOLOGY_NAMES``)
#: each workload family runs on.  Routers are only exercised on families
#: whose topology they are registered for (``RouterEntry.topologies``).
FAMILY_TOPOLOGY: dict[str, str] = {
    "permutation": "mesh",
    "hh": "mesh",
    "dynamic": "mesh",
    "torus": "torus",
    "mesh3d": "mesh3d",
    "torus3d": "torus3d",
    "pillar": "pillar",
}

#: Families included by ``python -m repro verify --smoke``.
SMOKE_FAMILIES = ("permutation", "hh", "torus", "mesh3d", "pillar")


@dataclass(frozen=True)
class RouterEntry:
    """One registered router: how to build it, and what it promises.

    ``factory(k, seed)`` must return a fresh algorithm instance.  Capacity
    floors (e.g. the adaptive routers need k >= 2 incoming queues to avoid
    the head-on deadlock the paper studies) live inside the factory.
    ``completes`` maps a family name to the expectation that the router
    delivers every packet there; unlisted families default to True.
    ``topologies`` lists the analysis topologies the router is registered
    on -- the 2D routers hard-code the four-direction mesh, so they default
    to the classic pair; a d-dimensional router opts into the rest.
    """

    name: str
    factory: Callable[[int, int], RoutingAlgorithm]
    completes: dict[str, bool] = field(default_factory=dict)
    topologies: tuple[str, ...] = ("mesh", "torus")

    def expects_completion(self, family: str) -> bool:
        return self.completes.get(family, True)

    def supports_topology(self, topology_name: str) -> bool:
        return topology_name in self.topologies

    def supports_family(self, family: str) -> bool:
        return FAMILY_TOPOLOGY.get(family, "mesh") in self.topologies


def _registry() -> dict[str, RouterEntry]:
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
    )

    entries = [
        # Plain FIFO dimension order deadlocks head-of-line on sustained
        # h-h traffic at any central capacity; that *is* the Section 5
        # lower-bound story, so it is an expectation, not a bug.
        RouterEntry(
            "dor",
            lambda k, s: DimensionOrderRouter(max(k, 4)),
            completes={"hh": False, "dynamic": False},
        ),
        RouterEntry("bounded-dor", lambda k, s: BoundedDimensionOrderRouter(k)),
        RouterEntry("farthest-first", lambda k, s: FarthestFirstRouter(k)),
        RouterEntry(
            "greedy-adaptive",
            lambda k, s: GreedyAdaptiveRouter(max(k, 2), "incoming"),
        ),
        RouterEntry(
            "alternating-adaptive",
            lambda k, s: AlternatingAdaptiveRouter(max(k, 2), "incoming"),
        ),
        RouterEntry("hot-potato", lambda k, s: HotPotatoRouter()),
        RouterEntry(
            "randomized-adaptive",
            lambda k, s: RandomizedAdaptiveRouter(max(k, 2), s, "incoming"),
        ),
        RouterEntry(
            "bounded-excursion",
            lambda k, s: BoundedExcursionRouter(max(k, 2), 1, "incoming"),
        ),
        # The only d-dimensional entry: its escape channel is topology-bound
        # at load time, so one registration covers every analysis topology.
        RouterEntry(
            "credit-adaptive",
            lambda k, s: CreditAdaptiveRouter(k),
            topologies=TOPOLOGY_NAMES,
        ),
    ]
    return {e.name: e for e in entries}


REGISTRY: dict[str, RouterEntry] = _registry()


# -- instances -----------------------------------------------------------------


def build_instance(
    family: str, n: int, seed: int
) -> tuple[Topology, Sequence[Packet]]:
    """The (topology, packets) of one cell.  Deterministic in (family, n, seed).

    Permutation families come as an unbuilt
    :class:`~repro.mesh.batch.PacketBatch`, the others as Packet lists."""
    from repro.workloads import bernoulli_traffic, dynamic_hh_problem, random_permutation

    if family == "permutation":
        mesh = Mesh(n)
        return mesh, random_permutation(mesh, seed=seed)
    if family == "hh":
        mesh = Mesh(n)
        return mesh, dynamic_hh_problem(mesh, 2, spacing=1, seed=seed)
    if family == "torus":
        torus = Torus(n)
        return torus, random_permutation(torus, seed=seed)
    if family == "dynamic":
        mesh = Mesh(n)
        return mesh, bernoulli_traffic(mesh, 0.1, 2 * n, seed=seed)
    if family == "mesh3d":
        cube = MeshND((n, n, n))
        return cube, random_permutation(cube, seed=seed)
    if family == "torus3d":
        cube3 = TorusND((n, n, n))
        return cube3, random_permutation(cube3, seed=seed)
    if family == "pillar":
        pillar = SparsePillarMesh(n)
        return pillar, random_permutation(pillar, seed=seed)
    raise ValueError(f"unknown workload family {family!r}; expected one of {FAMILIES}")


def fresh_copies(packets: Sequence[Packet]) -> Sequence[Packet]:
    """Pristine copies for one more run (pos/state reset, no shared objects).

    A batch's copy is an unbuilt batch, so copying builds no Packet."""
    if isinstance(packets, PacketBatch):
        return packets.fresh()
    out = []
    for p in packets:
        q = Packet(p.pid, p.source, p.dest, injection_time=p.injection_time)
        out.append(q)
    return out


def transpose_instance(
    topology: Topology, packets: Sequence[Packet]
) -> tuple[Topology, list[Packet]]:
    """The instance under coordinate reversal -- (x, y) -> (y, x) in 2D.

    Valid on regular, equal-sided topologies (axis permutation is then a
    graph automorphism); the sparse-pillar mesh breaks it because the
    vertical axis is not exchangeable with the grid axes.
    """
    shape = topology.shape
    if not topology.regular or len(set(shape)) != 1:
        raise ValueError(
            "transpose metamorphic transform needs an equal-sided regular topology"
        )
    t = lambda node: tuple(reversed(node))
    image = [
        Packet(p.pid, t(p.source), t(p.dest), injection_time=p.injection_time)
        for p in packets
    ]
    return topology, image


def reflect_instance(
    topology: Topology, packets: Sequence[Packet]
) -> tuple[Topology, list[Packet]]:
    """The instance under first-axis reflection -- (x, y) -> (width-1-x, y).

    Valid on regular topologies; reflection moves the pillar columns of the
    sparse-pillar mesh, so it is rejected there.
    """
    if not topology.regular:
        raise ValueError("reflect metamorphic transform needs a regular topology")
    w = topology.shape[0]
    r = lambda node: (w - 1 - node[0], *node[1:])
    image = [
        Packet(p.pid, r(p.source), r(p.dest), injection_time=p.injection_time)
        for p in packets
    ]
    return topology, image


def step_budget(n: int, k: int) -> int:
    """Generous per-run step cap: several times every proven bound at this size."""
    return max(30 * (n * n // max(k, 1) + n), 4000)


# -- one routed, oracle-checked run -------------------------------------------


@dataclass
class RunOutcome:
    router: str
    completed: bool
    steps: int
    delivered: frozenset[int]
    delivery_times: dict[int, int]
    max_queue_len: int
    violations: list[Violation]


def checked_run(
    entry: RouterEntry,
    topology: Topology,
    packets: Sequence[Packet],
    *,
    k: int,
    seed: int,
    mode: str = "strict",
    bound_steps: int | None = None,
    max_steps: int | None = None,
) -> RunOutcome:
    """Route one instance with the full oracle battery attached."""
    algorithm = entry.factory(k, seed)
    sim = Simulator(topology, algorithm, fresh_copies(packets))
    oracles = [
        PacketConservationOracle(),
        QueueBoundOracle(),
        MinimalityOracle(),
        StepBoundOracle(bound_steps),
    ]
    checker = InvariantChecker(sim, oracles, mode)
    try:
        result = sim.run(max_steps or step_budget(topology.width, k))
        checker.finish()
    except VerificationError:
        # Strict mode aborts the run at the first violation; the checker
        # already recorded it, so the partial outcome is reported as-is.
        result = sim.result()
    except SimulationError as exc:
        # The simulator's own model enforcement tripped (e.g. an overflow
        # with validate on); fold it into the findings as a violation.
        result = sim.result()
        checker.violations.append(
            Violation("simulator", sim.time, f"{type(exc).__name__}: {exc}")
        )
    return RunOutcome(
        router=entry.name,
        completed=result.completed,
        steps=result.steps,
        delivered=frozenset(sim.delivery_times),
        delivery_times=dict(sim.delivery_times),
        max_queue_len=result.max_queue_len,
        violations=checker.violations,
    )


# -- the cell cross-check ------------------------------------------------------


@dataclass
class CellReport:
    """Outcome of cross-checking one (family, n, k, seed) cell."""

    family: str
    n: int
    k: int
    seed: int
    outcomes: dict[str, RunOutcome] = field(default_factory=dict)
    findings: list[str] = field(default_factory=list)
    stalls: list[str] = field(default_factory=list)
    runs: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_metrics(self) -> dict[str, Any]:
        """JSON-serializable summary (the campaign-harness row payload)."""
        return {
            "family": self.family,
            "n": self.n,
            "k": self.k,
            "seed": self.seed,
            "routers": len(self.outcomes),
            "runs": self.runs,
            "violations": sum(len(o.violations) for o in self.outcomes.values()),
            "findings": self.findings,
            "expected_stalls": self.stalls,
            "steps": {name: o.steps for name, o in self.outcomes.items()},
            "ok": self.ok,
        }


def _theorem_bound(entry: RouterEntry, family: str, n: int, k: int, seed: int) -> int | None:
    """The proven step budget this run is held to, if the paper gives one.

    Contract bounds cover permutations on the mesh; other families and the
    torus are outside the theorems' hypotheses, so no budget applies.
    """
    if family != "permutation":
        return None
    return entry.factory(k, seed).permutation_step_bound(n)


def cross_check(
    family: str,
    n: int,
    k: int,
    seed: int,
    *,
    routers: list[str] | None = None,
    mode: str = "strict",
    metamorphic: bool = True,
) -> CellReport:
    """Run one cell through every router and cross-check the outcomes.

    In ``record`` mode oracle violations become findings instead of raising,
    so one report can carry several routers' failures.
    """
    topology, packets = build_instance(family, n, seed)
    report = CellReport(family=family, n=n, k=k, seed=seed)
    names = [
        name
        for name in (routers or list(REGISTRY))
        if REGISTRY[name].supports_family(family)
    ]
    all_pids = frozenset(p.pid for p in packets)
    # Metamorphic transforms that are automorphisms of *this* topology.
    transforms: list[tuple[str, Callable[..., tuple[Topology, list[Packet]]]]] = []
    if topology.regular:
        if len(set(topology.shape)) == 1:
            transforms.append(("transpose", transpose_instance))
        transforms.append(("reflect", reflect_instance))

    for name in names:
        entry = REGISTRY[name]
        bound = _theorem_bound(entry, family, n, k, seed)
        expected = entry.expects_completion(family)
        # Expected stalls burn the whole step budget; cap them short.
        cap = None if expected else min(step_budget(n, k), 50 * n)
        outcome = checked_run(
            entry, topology, packets, k=k, seed=seed, mode=mode,
            bound_steps=bound, max_steps=cap,
        )
        report.outcomes[name] = outcome
        report.runs += 1
        for v in outcome.violations:
            report.findings.append(f"{name}: {v}")
        if expected and not outcome.completed:
            report.findings.append(
                f"{name}: expected to complete {family} n={n} k={k} seed={seed}, "
                f"delivered {len(outcome.delivered)}/{len(all_pids)} "
                f"in {outcome.steps} steps"
            )
        elif not expected and not outcome.completed:
            report.stalls.append(name)

        if outcome.completed and outcome.delivered != all_pids:
            missing = sorted(all_pids - outcome.delivered)[:5]
            report.findings.append(
                f"{name}: completed but delivered set mismatch (missing {missing})"
            )

        # Determinism: the identical run must replay step- and
        # delivery-identical (the randomized router is seeded).
        rerun = checked_run(
            entry, topology, packets, k=k, seed=seed, mode=mode,
            bound_steps=bound, max_steps=cap,
        )
        report.runs += 1
        if (rerun.steps, rerun.delivery_times) != (
            outcome.steps,
            outcome.delivery_times,
        ):
            report.findings.append(
                f"{name}: nondeterministic replay (steps {outcome.steps} vs "
                f"{rerun.steps})"
            )

        if metamorphic and expected:
            for tname, transform in transforms:
                itopo, ipackets = transform(topology, packets)
                image = checked_run(
                    entry, itopo, ipackets, k=k, seed=seed, mode=mode,
                    bound_steps=bound,
                )
                report.runs += 1
                for v in image.violations:
                    report.findings.append(f"{name}/{tname}: {v}")
                if not image.completed:
                    report.findings.append(
                        f"{name}: {tname} image of {family} n={n} k={k} "
                        f"seed={seed} stalled at {image.steps} steps"
                    )
                elif image.delivered != all_pids:
                    report.findings.append(
                        f"{name}: {tname} image delivered set mismatch"
                    )

    # Delivered-set equality across completed routers (all must equal the
    # full pid set; asymmetries were already reported individually, this
    # catches consistent-but-wrong subsets).
    delivered_sets = {
        o.delivered for o in report.outcomes.values() if o.completed
    }
    if len(delivered_sets) > 1:
        report.findings.append(
            f"completed routers disagree on the delivered set "
            f"({len(delivered_sets)} distinct sets)"
        )
    return report


# -- paper-level probes (per verification run, not per cell) -------------------


def exchangeability_probe(construction: str = "adaptive", n: int = 60, k: int = 1) -> list[str]:
    """The EX1-EX4 swap test: adversary exchanges must be invisible.

    Runs a lower-bound construction (whose interceptor performs the paper's
    EX1-EX4 destination exchanges mid-flight) and then replays the *final*
    permutation from scratch without any interceptor.  Lemma 12: both runs
    must produce identical configuration traces and delivery times.  A
    router that sneaks destination information into a policy breaks this
    immediately.
    """
    from repro.core import (
        AdaptiveLowerBoundConstruction,
        DorLowerBoundConstruction,
        replay_constructed_permutation,
    )
    from repro.routing import BoundedDimensionOrderRouter, GreedyAdaptiveRouter

    if construction == "adaptive":
        factory = lambda: GreedyAdaptiveRouter(k)
        con = AdaptiveLowerBoundConstruction(n, factory)
    elif construction == "dor":
        factory = lambda: BoundedDimensionOrderRouter(k)
        con = DorLowerBoundConstruction(n, factory)
    else:
        raise ValueError(f"unknown probe construction {construction!r}")

    result = con.run()
    rep = replay_constructed_permutation(result, factory, run_to_completion=False)
    findings = []
    if result.exchange_count == 0:
        findings.append(f"{construction} probe n={n}: adversary performed no exchanges")
    if not rep.configuration_matches:
        findings.append(
            f"{construction} probe n={n} k={k}: configurations diverge after "
            f"EX swaps (destination-exchangeability broken)"
        )
    if not rep.delivery_times_match:
        findings.append(
            f"{construction} probe n={n} k={k}: delivery times diverge after EX swaps"
        )
    return findings


def section6_probe(n: int = 27, seed: int = 0) -> list[str]:
    """The Section 6 tiling bound: scheduled steps and queue occupancy must
    stay within the paper's 972n / 834 budgets on a routed permutation."""
    from repro.tiling import Section6Router
    from repro.workloads import random_permutation

    mesh = Mesh(n)
    result = Section6Router(n).route(random_permutation(mesh, seed=seed))
    findings = []
    if not result.completed:
        findings.append(f"section6 probe n={n}: routing did not complete")
    if result.scheduled_steps > result.paper_time_bound:
        findings.append(
            f"section6 probe n={n}: scheduled {result.scheduled_steps} steps "
            f"> paper bound {result.paper_time_bound}"
        )
    if result.max_node_load > result.paper_queue_bound:
        findings.append(
            f"section6 probe n={n}: node load {result.max_node_load} "
            f"> paper bound {result.paper_queue_bound}"
        )
    return findings


# -- whole verification sweeps -------------------------------------------------


@dataclass
class VerificationReport:
    cells: list[CellReport] = field(default_factory=list)
    probe_findings: list[str] = field(default_factory=list)

    @property
    def findings(self) -> list[str]:
        out = list(self.probe_findings)
        for cell in self.cells:
            out.extend(
                f"[{cell.family} n={cell.n} k={cell.k} seed={cell.seed}] {f}"
                for f in cell.findings
            )
        return out

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def runs(self) -> int:
        return sum(c.runs for c in self.cells)


def run_verification(
    *,
    families: tuple[str, ...] = SMOKE_FAMILIES,
    sizes: tuple[int, ...] = (8,),
    ks: tuple[int, ...] = (1, 2),
    seeds: tuple[int, ...] = (0,),
    routers: list[str] | None = None,
    mode: str = "record",
    metamorphic: bool = True,
    probes: bool = True,
    progress: Callable[[str], None] | None = None,
) -> VerificationReport:
    """Cross-check every cell in the given grid plus the paper-level probes."""
    report = VerificationReport()
    if probes:
        for construction in ("adaptive", "dor"):
            if progress:
                progress(f"probe {construction} (EX1-EX4 swap test)")
            report.probe_findings.extend(exchangeability_probe(construction))
        if progress:
            progress("probe section6 (tiling bounds)")
        report.probe_findings.extend(section6_probe())
    for family in families:
        for n in sizes:
            for k in ks:
                for seed in seeds:
                    if progress:
                        progress(f"cell {family} n={n} k={k} seed={seed}")
                    report.cells.append(
                        cross_check(
                            family, n, k, seed,
                            routers=routers, mode=mode, metamorphic=metamorphic,
                        )
                    )
    return report
