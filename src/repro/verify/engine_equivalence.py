"""Lockstep equivalence harness: the array engine vs. the reference engine.

The array backend (:mod:`repro.mesh.array_engine`) re-implements the
step engine as batched numpy operations.  Its correctness claim is not
"statistically similar" but **bit-identical**: on every instance it
accepts, it must produce exactly the configuration trace the reference
engine produces -- same queues, same packet order inside each queue,
same packet states, same delivery times, same counters.  This module is
the gate that enforces that claim.

One *lockstep run* builds the same instance twice (fresh packet copies),
once per engine, then advances both simulators one step at a time and
compares :meth:`Simulator.configuration` -- the paper's "configuration
of the network" -- after **every** step, not just at the end.  Any
divergence is reported with the exact step at which it first appeared,
which localizes a kernel bug to one phase of one step.  After the run
(completion, budget exhaustion, or divergence) the full
:class:`~repro.mesh.simulator.RunResult` fields and the deterministic
scheduling counters are compared field by field.

The harness reuses the differential runner's router registry and
instance families (:mod:`repro.verify.differential`), so a lockstep cell
is addressed the same way as a differential cell: (router, family, n, k,
seed).  :func:`run_engine_matrix` sweeps a grid of cells -- this is what
the CI ``engine-lockstep`` job and ``repro verify --engines`` run.

The default grid sweeps every router in
:data:`~repro.harness.specs.ARRAY_PORTED`; an unported router cannot
reach a lockstep run, because ``Simulator(engine="array")`` raises on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.harness.specs import ARRAY_PORTED
from repro.mesh import Packet, Simulator, Topology
from repro.verify.differential import (
    REGISTRY,
    RouterEntry,
    build_instance,
    fresh_copies,
    step_budget,
)

#: Instance families the lockstep matrix sweeps by default: static
#: permutations on both topologies plus the dynamic (timed-injection)
#: family, which exercises the array engine's pending-packet path.
LOCKSTEP_FAMILIES = ("permutation", "torus", "dynamic")


@dataclass
class LockstepReport:
    """Outcome of one lockstep cell (router, family, n, k, seed).

    Attributes:
        steps: Steps both engines executed together.
        divergence_step: First step whose configurations differed, or
            ``None`` when the trace matched throughout.
        findings: Human-readable mismatch descriptions; empty means the
            engines were bit-identical on this cell.
    """

    router: str
    family: str
    n: int
    k: int
    seed: int
    steps: int = 0
    divergence_step: int | None = None
    findings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the cell produced no findings."""
        return not self.findings

    def to_metrics(self) -> dict[str, Any]:
        """Flat JSON-serializable summary (campaign-harness row payload)."""
        return {
            "router": self.router,
            "family": self.family,
            "n": self.n,
            "k": self.k,
            "seed": self.seed,
            "steps": self.steps,
            "divergence_step": self.divergence_step,
            "findings": self.findings,
            "ok": self.ok,
        }


#: RunResult fields compared after a lockstep run.  ``series`` is omitted
#: (recording is off here; the golden tests cover it) and ``counters``
#: is compared separately because instrumented runs add wall-clock keys.
_RESULT_FIELDS = (
    "completed",
    "steps",
    "total_packets",
    "delivered",
    "max_queue_len",
    "max_node_load",
    "total_moves",
    "delivery_times",
)

#: Deterministic scheduling counters; wall-clock instrumentation keys
#: (``wall_s`` etc.) are intentionally not in this list.
_COUNTER_KEYS = (
    "scheduled_moves",
    "accepted_moves",
    "refused_moves",
    "injected_packets",
)


def lockstep(
    reference: Simulator,
    array: Simulator,
    max_steps: int,
    report: LockstepReport,
) -> None:
    """Advance both simulators together, comparing every configuration.

    Appends findings to ``report`` in place.  Stops at the first trace
    divergence (later steps of a diverged pair compare garbage against
    garbage), at completion of both runs, or at ``max_steps``.
    """
    while not (reference.done and array.done) and report.steps < max_steps:
        if reference.done != array.done:
            report.findings.append(
                f"done-state diverged at step {report.steps}: "
                f"reference={reference.done} array={array.done}"
            )
            report.divergence_step = report.steps
            return
        reference.step()
        array.step()
        report.steps += 1
        if reference.configuration() != array.configuration():
            report.findings.append(
                f"configuration diverged at step {report.steps}"
            )
            report.divergence_step = report.steps
            return
    compare_final(reference, array, report)


def compare_final(
    reference: Simulator, array: Simulator, report: LockstepReport
) -> None:
    """Field-by-field comparison of the two engines' final outcomes."""
    ref_result = reference.result()
    arr_result = array.result()
    for name in _RESULT_FIELDS:
        ref_value = getattr(ref_result, name)
        arr_value = getattr(arr_result, name)
        if ref_value != arr_value:
            detail = (
                f"({len(ref_value)} vs {len(arr_value)} entries)"
                if isinstance(ref_value, dict)
                else f"(reference={ref_value!r} array={arr_value!r})"
            )
            report.findings.append(f"result.{name} mismatch {detail}")
    for key in _COUNTER_KEYS:
        ref_value = ref_result.counters.get(key)
        arr_value = arr_result.counters.get(key)
        if ref_value != arr_value:
            report.findings.append(
                f"counter {key} mismatch "
                f"(reference={ref_value!r} array={arr_value!r})"
            )
    if reference.rejected != array.rejected:
        report.findings.append(
            f"rejected-set mismatch ({len(reference.rejected)} vs "
            f"{len(array.rejected)} packets)"
        )


def lockstep_cell(
    router: str,
    family: str,
    n: int,
    k: int,
    seed: int,
    *,
    max_steps: int | None = None,
) -> LockstepReport:
    """Run one (router, family, n, k, seed) cell on both engines in lockstep.

    ``max_steps`` defaults to the differential runner's step budget,
    shortened for router/family pairs documented never to complete (the
    engines must still agree step for step while livelocked, so those
    cells are compared over a bounded window rather than skipped).
    An unported ``router`` raises ``ValueError`` at array construction.
    """
    entry: RouterEntry = REGISTRY[router]
    topology, packets = build_instance(family, n, seed)
    if max_steps is None:
        budget = step_budget(n, k)
        max_steps = (
            budget if entry.expects_completion(family) else min(budget, 50 * n)
        )

    # The array engine loads the generator's own output -- for permutation
    # families an unbuilt batch, the path a benchmark run takes -- and the
    # reference engine pristine copies of it.
    reference = Simulator(
        topology, entry.factory(k, seed), fresh_copies(packets)
    )
    array = Simulator(topology, entry.factory(k, seed), packets, engine="array")
    report = LockstepReport(router=router, family=family, n=n, k=k, seed=seed)
    lockstep(reference, array, max_steps, report)
    return report


def run_engine_matrix(
    *,
    routers: tuple[str, ...] = ARRAY_PORTED,
    families: tuple[str, ...] = LOCKSTEP_FAMILIES,
    sizes: tuple[int, ...] = (8, 16),
    ks: tuple[int, ...] = (1, 2),
    seeds: tuple[int, ...] = (0,),
    max_steps: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[LockstepReport]:
    """Lockstep-compare every cell of the grid; the CI equivalence gate.

    Returns one report per cell; the sweep is clean iff every report's
    ``ok`` is True.  The default grid covers every ported router on mesh
    and torus permutations plus dynamic timed-injection traffic.
    ``max_steps`` caps every cell at a fixed lockstep window (the per-step
    comparison makes a bounded prefix a sound gate); ``None`` lets each
    cell run to its own step budget.
    """
    reports = []
    for router in routers:
        for family in families:
            for n in sizes:
                for k in ks:
                    for seed in seeds:
                        if progress:
                            progress(
                                f"lockstep {router} {family} "
                                f"n={n} k={k} seed={seed}"
                            )
                        reports.append(
                            lockstep_cell(
                                router, family, n, k, seed,
                                max_steps=max_steps,
                            )
                        )
    return reports
