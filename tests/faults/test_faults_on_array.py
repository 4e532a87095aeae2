"""Fault plans on the array engine: byte-identity with the reference path.

The array engine evaluates fault plans as a vectorized per-step
availability mask built from the same pure counter-hash draws the
reference engine's scalar ``link_filter`` closure consumes -- so a
faulted run must be *byte-identical* across engines: same per-step
moves, same refusal accounting, same delivery times.  These tests pin
that contract for both plan families the issue names (Bernoulli and
scheduled outages) plus their composition, and check the fail-fast
guardrails around what the backend still does not model.
"""

import pytest

from repro.faults import (
    BernoulliLinkPlan,
    CompositeFaultPlan,
    Outage,
    ScheduledOutagePlan,
    run_faulty,
)
from repro.faults.plan import counter_draw_array, link_draw
from repro.mesh import Mesh, Simulator, Torus
from repro.mesh.directions import Direction
from repro.streaming.arrivals import PoissonArrivals, _node_prefix
from repro.verify import ARRAY_PORTED, REGISTRY
from repro.workloads import random_permutation

import numpy as np


def _trace(engine, router, plan, topology, steps=50):
    """Per-step configuration fingerprints of a faulted run."""
    sim = Simulator(
        topology,
        REGISTRY[router].factory(2, 0),
        random_permutation(topology, seed=0),
        engine=engine,
    )
    plan.attach(sim)
    assert sim.engine_name == engine
    trace = []
    for _ in range(steps):
        if sim.done:
            break
        sim.step()
        trace.append(
            (
                sim.time,
                sim.total_moves,
                sim.refused_moves,
                sim.scheduled_moves,
                sim.max_queue_len,
                tuple(sorted(sim.delivery_times.items())),
            )
        )
    return trace


def _plans():
    return {
        "bernoulli": lambda: BernoulliLinkPlan(0.8, seed=7),
        "scheduled": lambda: ScheduledOutagePlan(
            [
                Outage((2, 2), 3, 15),
                Outage((1, 0), 0, 10, Direction.E),
                Outage((3, 3), 5, 25),
                Outage((0, 2), 8, 12, Direction.N),
            ]
        ),
        "composite": lambda: CompositeFaultPlan(
            BernoulliLinkPlan(0.9, seed=3),
            ScheduledOutagePlan([Outage((2, 1), 2, 20)]),
        ),
    }


class TestFaultedByteIdentity:
    @pytest.mark.parametrize("router", sorted(ARRAY_PORTED))
    @pytest.mark.parametrize("plan_name", sorted(_plans()))
    def test_mesh_trace_identical(self, router, plan_name):
        make_plan = _plans()[plan_name]
        ref = _trace("reference", router, make_plan(), Mesh(6))
        arr = _trace("array", router, make_plan(), Mesh(6))
        assert arr == ref

    @pytest.mark.parametrize("router", sorted(ARRAY_PORTED))
    def test_torus_trace_identical_under_bernoulli(self, router):
        ref = _trace("reference", router, BernoulliLinkPlan(0.7, seed=1), Torus(6))
        arr = _trace("array", router, BernoulliLinkPlan(0.7, seed=1), Torus(6))
        assert arr == ref


class TestVectorizedDraws:
    def test_counter_draw_array_matches_link_draw_exactly(self):
        xs = np.array([0, 1, 2, 5, 7, 0, 3], dtype=np.int64)
        ys = np.array([0, 0, 3, 5, 1, 7, 3], dtype=np.int64)
        dirs = np.array([0, 1, 2, 3, 0, 1, 2], dtype=np.int64)
        for seed in (0, 1, 12345):
            for t in (0, 1, 99, 10_000):
                batched = counter_draw_array(seed, xs, ys, dirs, t)
                scalar = [
                    link_draw(seed, (int(x), int(y)), Direction(int(d)), t)
                    for x, y, d in zip(xs, ys, dirs)
                ]
                assert batched.tolist() == scalar  # exact, not approx

    def test_elementwise_fallback_used_for_scheduled_plans(self):
        plan = ScheduledOutagePlan([Outage((1, 1), 0, 10, Direction.E)])
        xs = np.array([1, 1, 2], dtype=np.int64)
        ys = np.array([1, 1, 1], dtype=np.int64)
        dirs = np.array([1, 0, 1], dtype=np.int64)  # E, N, E
        up = plan.link_up_array(xs, ys, dirs, 5)
        assert up.tolist() == [False, True, True]

    def test_prefix_tables_are_built_inside_the_run(self):
        """Constructing a plan or an arrival process, attaching the plan
        and constructing the simulator build no prefix table; the first
        query does."""
        _node_prefix.cache_clear()
        topology = Mesh(8)
        plan = BernoulliLinkPlan(0.9, seed=1)
        process = PoissonArrivals(0.1, seed=1)
        sims = [
            plan.attach(
                Simulator(
                    topology,
                    REGISTRY["bounded-dor"].factory(2, 0),
                    random_permutation(topology, seed=0),
                    engine=engine,
                )
            )
            for engine in ("reference", "array")
        ]
        Simulator(topology, REGISTRY["bounded-dor"].factory(2, 0), [], engine="array")
        assert plan._table.size == 0
        assert _node_prefix.cache_info().currsize == 0
        sims[-1].step()
        assert plan._table.size == topology.num_nodes * len(Direction)
        process.arrivals_array(topology, 0)
        assert _node_prefix.cache_info().currsize == 2  # counts, destinations

    def test_all_up_plan_shortcuts_to_ones(self):
        plan = BernoulliLinkPlan(1.0)
        xs = np.array([0, 1], dtype=np.int64)
        up = plan.link_up_array(xs, xs, xs, 0)
        assert up.all()


class TestRunFaultyEngine:
    def test_run_faulty_array_matches_reference(self):
        topo = Mesh(6)
        reports = {}
        for engine in ("reference", "array"):
            reports[engine] = run_faulty(
                topo,
                REGISTRY["bounded-dor"].factory(2, 0),
                random_permutation(topo, seed=0),
                BernoulliLinkPlan(0.85, seed=2),
                max_steps=400,
                engine=engine,
            ).to_metrics()
        ref, arr = reports["reference"], reports["array"]
        assert ref.pop("engine") == "reference"
        assert arr.pop("engine") == "array"
        assert arr == ref

    def test_run_faulty_records_actual_engine(self):
        topo = Mesh(4)
        metrics = run_faulty(
            topo,
            REGISTRY["bounded-dor"].factory(2, 0),
            random_permutation(topo, seed=0),
            BernoulliLinkPlan(0.9, seed=0),
            max_steps=200,
            engine="array",
        ).to_metrics()
        assert metrics["engine"] == "array"

    def test_retransmission_on_array_fails_fast(self):
        topo = Mesh(4)
        with pytest.raises(NotImplementedError, match="reference"):
            run_faulty(
                topo,
                REGISTRY["bounded-dor"].factory(2, 0),
                random_permutation(topo, seed=0),
                BernoulliLinkPlan(0.9, seed=0),
                max_steps=200,
                retransmit_timeout=20,
                engine="array",
            )
