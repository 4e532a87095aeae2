"""Property-based lockstep equivalence: array engine vs reference engine.

The fixed lockstep matrix (``repro verify --engines``) and the golden
tables cover curated cells; this suite lets hypothesis roam the input
space -- any ported router on any small mesh/torus with any seed and
workload shape must produce the *same configuration after every step*,
not merely the same final result.  Step-by-step comparison is the point:
a kernel bug that transposes two same-step moves can cancel out in the
aggregate counters but cannot survive a per-step configuration check.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import BernoulliLinkPlan
from repro.mesh import Mesh, Simulator, Torus
from repro.verify import (
    ARRAY_PORTED,
    REGISTRY,
    MinimalityOracle,
    PacketConservationOracle,
    QueueBoundOracle,
    attach_checker,
)
from repro.verify.differential import fresh_copies, step_budget
from repro.verify.engine_equivalence import LockstepReport, lockstep
from repro.workloads import (
    bernoulli_traffic,
    random_partial_permutation,
    random_permutation,
)


def build_workload(name, topology, n, seed):
    """One of the shapes the lockstep property roams over."""
    if name == "permutation":
        return random_permutation(topology, seed=seed)
    if name == "partial":
        return random_partial_permutation(topology, 0.5, seed=seed)
    # Timed injections exercise the array engine's pending-packet path.
    return bernoulli_traffic(topology, 0.1, 2 * n, seed=seed)


@st.composite
def lockstep_case(draw):
    router = draw(st.sampled_from(ARRAY_PORTED))
    n = draw(st.integers(4, 10))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31 - 1))
    torus = draw(st.booleans())
    workload = draw(st.sampled_from(["permutation", "partial", "dynamic"]))
    return router, n, k, seed, torus, workload


@st.composite
def faulted_lockstep_case(draw):
    router = draw(st.sampled_from(ARRAY_PORTED))
    n = draw(st.integers(4, 8))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31 - 1))
    torus = draw(st.booleans())
    availability = draw(st.sampled_from([0.5, 0.8, 0.95]))
    fault_seed = draw(st.integers(0, 2**16))
    return router, n, k, seed, torus, availability, fault_seed


@given(faulted_lockstep_case())
@settings(max_examples=25, deadline=None)
def test_engines_agree_step_by_step_under_link_faults(case):
    """Per-step equality must survive a Bernoulli link plan: both engines
    evaluate the same pure counter-hash draws (scalar closure vs
    vectorized mask), so the filtered traces are byte-identical too."""
    router, n, k, seed, torus, availability, fault_seed = case
    topology = Torus(n) if torus else Mesh(n)
    packets = random_permutation(topology, seed=seed)
    entry = REGISTRY[router]

    # validate=False: flaky links void the synchrony assumption behind
    # e.g. bounded-dor's always-accept vertical queues, so overflow is a
    # legitimate outcome here -- the engines must agree about it, not die.
    reference = Simulator(
        topology, entry.factory(k, seed), fresh_copies(packets), validate=False
    )
    array = Simulator(
        topology,
        entry.factory(k, seed),
        fresh_copies(packets),
        engine="array",
        validate=False,
    )
    BernoulliLinkPlan(availability, seed=fault_seed).attach(reference)
    BernoulliLinkPlan(availability, seed=fault_seed).attach(array)

    report = LockstepReport(router=router, family="faulted", n=n, k=k, seed=seed)
    # Degraded links can stall any router indefinitely; compare over a
    # bounded window rather than a completion budget.
    budget = min(step_budget(n, k), 40 * n)
    lockstep(reference, array, budget, report)
    assert report.ok, report.findings


@given(lockstep_case())
@settings(max_examples=40, deadline=None)
def test_engines_agree_step_by_step(case):
    """Every step's configuration (and the final result) must be equal."""
    router, n, k, seed, torus, workload = case
    topology = Torus(n) if torus else Mesh(n)
    packets = build_workload(workload, topology, n, seed)
    entry = REGISTRY[router]

    reference = Simulator(topology, entry.factory(k, seed), fresh_copies(packets))
    array = Simulator(
        topology, entry.factory(k, seed), fresh_copies(packets), engine="array"
    )

    report = LockstepReport(router=router, family=workload, n=n, k=k, seed=seed)
    # Central-queue dor can legitimately exchange-deadlock (e.g. dynamic
    # traffic); the engines must then agree while wedged, compared over a
    # bounded window instead of the full completion budget.
    budget = min(step_budget(n, k), 60 * n)
    lockstep(reference, array, budget, report)
    assert report.ok, report.findings


# -- the oracles' one path: both engines report alike ---------------------------


def checked_pair(topology, router, packets, plan):
    """The same faulted cell on both engines (validate off), each checked
    in record mode by the conservation, queue-bound and minimality
    oracles."""
    pair = []
    for engine in ("reference", "array"):
        sim = Simulator(
            topology, router(), fresh_copies(packets), engine=engine, validate=False
        )
        plan().attach(sim)
        oracles = [PacketConservationOracle(), QueueBoundOracle(), MinimalityOracle()]
        pair.append((sim, attach_checker(sim, oracles, mode="record")))
    return pair


def violations_in_lockstep(pair, steps):
    """Step both engines together; after every step their violation lists
    must be equal.  Returns the reference engine's."""
    (reference, ref_checker), (array, array_checker) = pair
    while not reference.done and reference.time < steps:
        reference.step()
        array.step()
        assert array_checker.violations == ref_checker.violations, (
            f"engines report differently at step {reference.time}"
        )
    return ref_checker.violations


@given(faulted_lockstep_case())
@settings(max_examples=25, deadline=None)
def test_engines_report_the_same_violations_step_by_step(case):
    """The one oracle path reports the same violations, step by step, on
    the reference and array engines running any ported router under any
    link plan (overflows of the always-accepting inqueues included)."""
    router, n, k, seed, torus, availability, fault_seed = case
    topology = Torus(n) if torus else Mesh(n)
    violations_in_lockstep(
        checked_pair(
            topology,
            lambda: REGISTRY[router].factory(k, seed),
            random_permutation(topology, seed=seed),
            lambda: BernoulliLinkPlan(availability, seed=fault_seed),
        ),
        min(step_budget(n, k), 40 * n),
    )


def test_engines_report_the_same_real_overflow():
    """bounded-dor's vertical inqueues always accept, so flaky links
    overflow them: both engines must report the same overflows."""
    topology = Mesh(8)
    violations = violations_in_lockstep(
        checked_pair(
            topology,
            lambda: REGISTRY["bounded-dor"].factory(2, 0),
            random_permutation(topology, seed=0),
            lambda: BernoulliLinkPlan(0.8, seed=0),
        ),
        400,
    )
    assert len(violations) >= 1
    assert {v.oracle for v in violations} == {"queue-bound"}
