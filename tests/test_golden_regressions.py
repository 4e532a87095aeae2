"""Golden regression tests: pinned end-to-end numbers.

Every algorithm here is deterministic, so exact step counts and bound
values are stable release artifacts.  If a refactor changes any of these
numbers, that is a *behavioural* change and must be deliberate (update the
pin in the same change that explains why).
"""

import pytest

from repro.core import AdaptiveLowerBoundConstruction, replay_constructed_permutation
from repro.core.constants import (
    AdaptiveConstants,
    DimensionOrderConstants,
    FarthestFirstConstants,
)
from repro.core.dor_adversary import DorLowerBoundConstruction
from repro.mesh import Mesh, Simulator
from repro.routing import (
    BoundedDimensionOrderRouter,
    CreditAdaptiveRouter,
    DimensionOrderRouter,
    FarthestFirstRouter,
    GreedyAdaptiveRouter,
    HotPotatoRouter,
)
from repro.streaming import run_streaming
from repro.streaming.arrivals import build_process
from repro.tiling import Section6Router
from repro.verify import ARRAY_PORTED, REGISTRY
from repro.workloads import (
    bit_reversal_permutation,
    random_permutation,
    transpose_permutation,
)


class TestGoldenConstants:
    def test_adaptive_constants_n216_k1(self):
        c = AdaptiveConstants.choose(216, 1)
        assert (c.cn, c.dn, c.p, c.l_floor, c.bound_steps) == (36, 86, 170, 3, 258)

    def test_adaptive_constants_n120_k1(self):
        c = AdaptiveConstants.choose(120, 1)
        assert (c.cn, c.dn, c.p, c.l_floor, c.bound_steps) == (20, 48, 94, 2, 96)

    def test_dor_constants_n60_k4(self):
        c = DimensionOrderConstants.choose(60, 4)
        assert (c.cn, c.dn, c.p, c.l_floor) == (5, 24, 49, 5)

    def test_ff_constants_n60_k1(self):
        c = FarthestFirstConstants.choose(60, 1)
        assert (c.cn, c.dn, c.p, c.l_floor) == (7, 24, 45, 9)


class TestGoldenRuns:
    def test_bounded_dor_transpose_16(self):
        mesh = Mesh(16)
        result = Simulator(
            mesh, BoundedDimensionOrderRouter(1), transpose_permutation(mesh)
        ).run(10_000)
        assert (result.completed, result.steps) == (True, 44)

    def test_farthest_first_random_16(self):
        mesh = Mesh(16)
        result = Simulator(
            mesh, FarthestFirstRouter(2), random_permutation(mesh, seed=0)
        ).run(10_000)
        assert (result.completed, result.steps) == (True, 28)

    def test_hot_potato_random_16(self):
        mesh = Mesh(16)
        result = Simulator(
            mesh, HotPotatoRouter(), random_permutation(mesh, seed=1)
        ).run(10_000)
        assert result.completed
        assert result.steps == 27

    def test_section6_random_27(self):
        mesh = Mesh(27)
        result = Section6Router(27).route(random_permutation(mesh, seed=0))
        assert (result.completed, result.actual_steps, result.scheduled_steps) == (
            True,
            244,
            10456,
        )
        assert result.max_node_load == 6

    def test_adaptive_construction_n60(self):
        factory = lambda: GreedyAdaptiveRouter(1)
        con = AdaptiveLowerBoundConstruction(60, factory)
        result = con.run()
        assert result.bound_steps == 24
        assert result.exchange_count == 15
        assert result.undelivered_at_bound == 84
        report = replay_constructed_permutation(
            result, factory, run_to_completion=True, max_steps=100_000
        )
        assert report.configuration_matches
        assert report.total_steps == 209

    def test_dor_construction_n60(self):
        factory = lambda: BoundedDimensionOrderRouter(1)
        con = DorLowerBoundConstruction(60, factory)
        result = con.run()
        assert result.bound_steps == 120
        report = replay_constructed_permutation(
            result, factory, run_to_completion=True, max_steps=200_000
        )
        assert report.configuration_matches
        assert report.total_steps == 212


#: Pinned step counts for every registered router on the two classic
#: structured permutations.  Routers are built by the repro.verify registry
#: at k=1, which applies the capacity floors each algorithm needs to route
#: permutations at all (dor gets a central queue of 4; the adaptive family
#: gets incoming queues of 2; bounded-dor/farthest-first run at the true
#: k=1; randomized-adaptive is seeded with 0).  Interesting structure: on
#: bit-reversal all eight agree exactly (traffic is so spread out nothing
#: ever queues), while transpose separates the diagonal-crossing behaviours
#: into three groups.
GOLDEN_STEPS = {
    ("transpose", 8): {
        "dor": 14,
        "bounded-dor": 20,
        "farthest-first": 20,
        "greedy-adaptive": 14,
        "alternating-adaptive": 14,
        "hot-potato": 14,
        "randomized-adaptive": 15,
        "bounded-excursion": 14,
        "credit-adaptive": 20,
    },
    ("transpose", 16): {
        "dor": 30,
        "bounded-dor": 44,
        "farthest-first": 44,
        "greedy-adaptive": 30,
        "alternating-adaptive": 30,
        "hot-potato": 30,
        "randomized-adaptive": 30,
        "bounded-excursion": 30,
        "credit-adaptive": 44,
    },
    ("bit-reversal", 8): {name: 6 for name in (
        "dor", "bounded-dor", "farthest-first", "greedy-adaptive",
        "alternating-adaptive", "hot-potato", "randomized-adaptive",
        "bounded-excursion", "credit-adaptive",
    )},
    ("bit-reversal", 16): {name: 18 for name in (
        "dor", "bounded-dor", "farthest-first", "greedy-adaptive",
        "alternating-adaptive", "hot-potato", "randomized-adaptive",
        "bounded-excursion", "credit-adaptive",
    )},
}

_WORKLOAD_GENERATORS = {
    "transpose": transpose_permutation,
    "bit-reversal": bit_reversal_permutation,
}


class TestGoldenStepTables:
    @pytest.mark.parametrize(
        "workload,n", sorted(GOLDEN_STEPS), ids=lambda v: str(v)
    )
    def test_all_routers_pinned(self, workload, n):
        table = GOLDEN_STEPS[(workload, n)]
        assert set(table) == set(REGISTRY), "table must cover every router"
        mesh = Mesh(n)
        packets_source = _WORKLOAD_GENERATORS[workload]
        actual = {}
        for name, entry in REGISTRY.items():
            sim = Simulator(mesh, entry.factory(1, 0), packets_source(mesh))
            result = sim.run(100_000)
            assert result.completed, f"{name} stalled on {workload} n={n}"
            actual[name] = result.steps
        assert actual == table


#: Pinned n=64 outcomes for the routers the array backend has ported,
#: as (step budget, completed, steps, delivered, total_moves,
#: max_queue_len).  Both engines must reproduce each row exactly -- this
#: is the golden half of the engine-equivalence gate at a size where a
#: vectorization bug has thousands of packets to show up in.  Central
#: dimension order wedges (exchange-deadlock) on bit-reversal at this
#: size, so its row pins the wedged state over a capped window; no move
#: happens after the cap, which is itself part of the pin.
GOLDEN_N64 = {
    ("transpose", "dor"): (1000, True, 126, 4096, 174720, 2),
    ("transpose", "bounded-dor"): (1000, True, 188, 4096, 174720, 1),
    ("transpose", "hot-potato"): (1000, True, 126, 4096, 174720, 2),
    ("transpose", "greedy-adaptive"): (1000, True, 126, 4096, 174720, 1),
    ("transpose", "farthest-first"): (1000, True, 188, 4096, 174720, 1),
    ("transpose", "credit-adaptive"): (1000, True, 188, 4096, 174720, 1),
    ("bit-reversal", "dor"): (300, False, 300, 3735, 152050, 4),
    ("bit-reversal", "bounded-dor"): (1000, True, 104, 4096, 159744, 1),
    ("bit-reversal", "hot-potato"): (1000, True, 98, 4096, 161664, 4),
    ("bit-reversal", "greedy-adaptive"): (1000, True, 101, 4096, 159744, 2),
    ("bit-reversal", "farthest-first"): (1000, True, 104, 4096, 159744, 1),
    ("bit-reversal", "credit-adaptive"): (1000, True, 104, 4096, 159744, 1),
}

#: Pinned seed-0 random-permutation outcomes per ported router, as (step
#: budget, steps, completed, total_moves, scheduled_moves, refused_moves).
#: Routers run in the configurations of _RANDOM_ROUTERS.  Central dimension
#: order exchange-deadlocks from n=64 on, so its cells run a capped
#: 500-step window; the n=256 greedy-adaptive cell is capped at 24 steps to
#: keep the largest size affordable.  The scheduled/refused counters pin
#: every arbitration decision, not just the outcome.  The credit-adaptive
#: n=16/32 rows and the bounded-dor n=32/128 rows were measured on this
#: code; every other row is the value the retired step-throughput baseline
#: stored for the same cell.
GOLDEN_RANDOM = {
    ("bounded-dor", 16): (1_000_000, 28, True, 2666, 2668, 2),
    ("bounded-dor", 32): (1_000_000, 58, True, 21696, 21718, 22),
    ("bounded-dor", 64): (1_000_000, 114, True, 175500, 175627, 127),
    ("bounded-dor", 128): (1_000_000, 243, True, 1397704, 1398535, 831),
    ("dor", 16): (500, 28, True, 2666, 2759, 93),
    ("dor", 32): (500, 58, True, 21696, 22598, 902),
    ("dor", 64): (500, 500, False, 164101, 263550, 99449),
    ("dor", 128): (500, 500, False, 1088193, 2165900, 1077707),
    ("farthest-first", 16): (1_000_000, 28, True, 2666, 2667, 1),
    ("farthest-first", 32): (1_000_000, 58, True, 21696, 21715, 19),
    ("farthest-first", 64): (1_000_000, 114, True, 175500, 175653, 153),
    ("farthest-first", 128): (1_000_000, 243, True, 1397704, 1398500, 796),
    ("greedy-adaptive", 16): (1_000_000, 28, True, 2666, 2669, 3),
    ("greedy-adaptive", 32): (1_000_000, 58, True, 21696, 21760, 64),
    ("greedy-adaptive", 64): (1_000_000, 114, True, 175500, 176163, 663),
    ("greedy-adaptive", 128): (1_000_000, 243, True, 1397704, 1402276, 4572),
    ("greedy-adaptive", 256): (24, 24, False, 1546659, 1548856, 2197),
    ("hot-potato", 16): (1_000_000, 28, True, 2748, 2748, 0),
    ("hot-potato", 32): (1_000_000, 58, True, 22188, 22188, 0),
    ("hot-potato", 64): (1_000_000, 114, True, 177722, 177722, 0),
    ("hot-potato", 128): (1_000_000, 243, True, 1407290, 1407290, 0),
    ("credit-adaptive", 16): (1_000_000, 28, True, 2666, 2668, 2),
    ("credit-adaptive", 32): (1_000_000, 58, True, 21696, 21718, 22),
    ("credit-adaptive", 64): (1_000_000, 114, True, 175500, 175627, 127),
    ("credit-adaptive", 128): (1_000_000, 243, True, 1397704, 1398535, 831),
}

_RANDOM_ROUTERS = {
    "bounded-dor": lambda: BoundedDimensionOrderRouter(2),
    "dor": lambda: DimensionOrderRouter(4),
    "farthest-first": lambda: FarthestFirstRouter(2, "incoming"),
    "greedy-adaptive": lambda: GreedyAdaptiveRouter(2, "incoming"),
    "hot-potato": lambda: HotPotatoRouter(),
    "credit-adaptive": lambda: CreditAdaptiveRouter(2),
}

#: Which engines reproduce each size: the reference engine where it is
#: cheap, the array engine from n=32 up (both at n=32).
_RANDOM_ENGINES = {
    16: ("reference",),
    32: ("reference", "array"),
    64: ("array",),
    128: ("array",),
    256: ("array",),
}

#: Pinned open-loop streaming trace per ported router: Mesh(8), poisson
#: arrivals at rate 0.05 seed 0, warmup 16 / measure 64 / drain 256,
#: k=2 registry capacities.  Streaming exercises the engine paths the
#: closed tables cannot: mid-run injection, admission-time occupancy
#: reads, and rejection accounting.
GOLDEN_STREAMING = {
    "dor": {
        "steps": 87, "offered_packets": 216, "admitted_packets": 216,
        "rejected_packets": 0, "delivered_measured": 174,
        "total_moves": 1206, "max_queue_len": 4,
        "latency_p50": 6, "latency_p99": 12, "drained": True,
    },
    "bounded-dor": {
        "steps": 87, "offered_packets": 216, "admitted_packets": 216,
        "rejected_packets": 0, "delivered_measured": 174,
        "total_moves": 1206, "max_queue_len": 2,
        "latency_p50": 6, "latency_p99": 12, "drained": True,
    },
    "hot-potato": {
        "steps": 87, "offered_packets": 216, "admitted_packets": 216,
        "rejected_packets": 0, "delivered_measured": 174,
        "total_moves": 1236, "max_queue_len": 3,
        "latency_p50": 6, "latency_p99": 12, "drained": True,
    },
    "greedy-adaptive": {
        "steps": 87, "offered_packets": 216, "admitted_packets": 216,
        "rejected_packets": 0, "delivered_measured": 174,
        "total_moves": 1206, "max_queue_len": 2,
        "latency_p50": 5, "latency_p99": 12, "drained": True,
    },
    "farthest-first": {
        "steps": 87, "offered_packets": 216, "admitted_packets": 216,
        "rejected_packets": 0, "delivered_measured": 174,
        "total_moves": 1206, "max_queue_len": 2,
        "latency_p50": 6, "latency_p99": 12, "drained": True,
    },
    "credit-adaptive": {
        "steps": 87, "offered_packets": 216, "admitted_packets": 216,
        "rejected_packets": 0, "delivered_measured": 174,
        "total_moves": 1206, "max_queue_len": 2,
        "latency_p50": 6, "latency_p99": 12, "drained": True,
    },
}


class TestGoldenArrayEngineTables:
    def test_tables_cover_exactly_the_ported_routers(self):
        assert {r for _, r in GOLDEN_N64} == set(ARRAY_PORTED)
        assert set(GOLDEN_STREAMING) == set(ARRAY_PORTED)
        assert {r for r, _ in GOLDEN_RANDOM} == set(ARRAY_PORTED)

    @pytest.mark.parametrize("engine", ["reference", "array"])
    @pytest.mark.parametrize(
        "workload,router", sorted(GOLDEN_N64), ids=lambda v: str(v)
    )
    def test_n64_pinned(self, workload, router, engine):
        budget, *pinned = GOLDEN_N64[(workload, router)]
        mesh = Mesh(64)
        sim = Simulator(
            mesh,
            REGISTRY[router].factory(1, 0),
            _WORKLOAD_GENERATORS[workload](mesh),
            engine=engine,
        )
        result = sim.run(budget)
        actual = (
            result.completed,
            result.steps,
            result.delivered,
            result.total_moves,
            result.max_queue_len,
        )
        assert actual == tuple(pinned)

    @pytest.mark.parametrize("engine", ["reference", "array"])
    @pytest.mark.parametrize("router", sorted(GOLDEN_STREAMING))
    def test_streaming_trace_pinned(self, router, engine):
        report = run_streaming(
            Mesh(8),
            REGISTRY[router].factory(2, 0),
            build_process("poisson", 0.05, seed=0),
            warmup=16,
            measure=64,
            drain=256,
            engine=engine,
        )
        metrics = report.to_metrics()
        pinned = GOLDEN_STREAMING[router]
        assert {key: metrics[key] for key in pinned} == pinned


class TestGoldenRandomPermutation:
    @pytest.mark.parametrize(
        "router,n,engine",
        [
            (router, n, engine)
            for router, n in sorted(GOLDEN_RANDOM)
            for engine in _RANDOM_ENGINES[n]
        ],
        ids=lambda v: str(v),
    )
    def test_random_pinned(self, router, n, engine):
        budget, *pinned = GOLDEN_RANDOM[(router, n)]
        mesh = Mesh(n)
        sim = Simulator(
            mesh,
            _RANDOM_ROUTERS[router](),
            random_permutation(mesh, seed=0),
            engine=engine,
        )
        result = sim.run(budget)
        actual = (
            result.steps,
            result.completed,
            result.total_moves,
            result.counters["scheduled_moves"],
            result.counters["refused_moves"],
        )
        assert actual == tuple(pinned)
