"""Unit tests for the array-backend step engine: dispatch and guardrails.

The lockstep suites prove the array engine *computes* the same thing as
the reference engine; these tests pin the dispatch contract around it --
when ``Simulator(engine="array")`` engages, that it raises (naming the
supported set) on everything else, and how the backend refuses features
it does not model instead of guessing at them.
"""

import pytest

from repro.mesh import Mesh, Packet, Simulator, Torus
from repro.mesh.array_engine import ArraySimulator, ported_router_types
from repro.mesh.ndtopology import MeshND, SparsePillarMesh, TorusND
from repro.routing import (
    AlternatingAdaptiveRouter,
    BoundedDimensionOrderRouter,
    CreditAdaptiveRouter,
    DimensionOrderRouter,
    FarthestFirstRouter,
    GreedyAdaptiveRouter,
    HotPotatoRouter,
)
from repro.workloads import random_permutation


#: Every rejection names the supported set: the ported router classes and
#: the two 2D topologies.
SUPPORTED = "BoundedDimensionOrderRouter.*CreditAdaptiveRouter on Mesh or Torus"


def make(engine="array", algorithm=None, topology=None, **kwargs):
    topology = topology if topology is not None else Mesh(6)
    algorithm = algorithm or BoundedDimensionOrderRouter(2)
    packets = random_permutation(topology, seed=0)
    return Simulator(topology, algorithm, packets, engine=engine, **kwargs)


class TestDispatch:
    def test_array_engine_engages_for_ported_routers(self):
        for algorithm in (
            BoundedDimensionOrderRouter(2),
            DimensionOrderRouter(4),
            HotPotatoRouter(),
            GreedyAdaptiveRouter(2, "incoming"),
            GreedyAdaptiveRouter(4, "central"),
            FarthestFirstRouter(2),
            FarthestFirstRouter(2, "central"),
            CreditAdaptiveRouter(2),
        ):
            sim = make(algorithm=algorithm)
            assert isinstance(sim, ArraySimulator)
            assert sim.engine_name == "array"

    def test_reference_is_the_default(self):
        sim = Simulator(Mesh(6), BoundedDimensionOrderRouter(2), [])
        assert not isinstance(sim, ArraySimulator)
        assert sim.engine_name == "reference"

    def test_torus_supported(self):
        sim = make(topology=Torus(6))
        assert sim.engine_name == "array"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            make(engine="simd")

    def test_unported_router_raises(self):
        with pytest.raises(ValueError, match=SUPPORTED):
            make(algorithm=AlternatingAdaptiveRouter(2))

    def test_router_subclass_raises(self):
        """A subclass may override any policy hook; the kernel only models
        the exact base class, so subclasses are rejected."""

        class Tweaked(BoundedDimensionOrderRouter):
            pass

        with pytest.raises(ValueError, match="Tweaked.*" + SUPPORTED):
            make(algorithm=Tweaked(2))

    @pytest.mark.parametrize(
        "topology",
        [MeshND((4, 4, 4)), TorusND((4, 4, 4)), SparsePillarMesh(4, layers=3)],
        ids=repr,
    )
    def test_nd_topology_raises(self, topology):
        with pytest.raises(ValueError, match=SUPPORTED):
            Simulator(topology, CreditAdaptiveRouter(2), [], engine="array")

    def test_interceptor_raises(self):
        with pytest.raises(ValueError, match="interceptors.*" + SUPPORTED):
            make(interceptor=lambda s, moves: None)

    def test_link_load_recording_raises(self):
        with pytest.raises(ValueError, match="link-load.*" + SUPPORTED):
            make(record_link_loads=True)

    def test_ported_types_match_public_list(self):
        from repro.harness.specs import ARRAY_PORTED
        from repro.verify import REGISTRY

        ported = {type(REGISTRY[name].factory(2, 0)) for name in ARRAY_PORTED}
        assert ported == set(ported_router_types())


class TestGuardrails:
    def test_drop_packet_unsupported(self):
        sim = make()
        with pytest.raises(NotImplementedError, match="reference"):
            sim.drop_packet(Packet(999, (0, 0), (1, 1)))

    def test_drop_pending_unsupported(self):
        sim = make()
        with pytest.raises(NotImplementedError, match="reference"):
            sim.drop_pending(999)

    def test_arbitrary_link_filter_refused_at_assignment(self):
        """Fault plans go through attach_fault_plan (vectorized path);
        an arbitrary scalar closure cannot be vectorized, so assigning
        one must fail fast, not explode mid-run at step() time."""
        sim = make()
        with pytest.raises(NotImplementedError, match="link filters"):
            sim.link_filter = lambda src, direction, time: True

    def test_clearing_link_filter_is_allowed(self):
        sim = make()
        sim.link_filter = None
        assert sim.link_filter is None

    def test_resilience_manager_refused_at_construction(self):
        from repro.faults import BernoulliLinkPlan, ResilienceManager

        sim = make()
        with pytest.raises(NotImplementedError, match="reference"):
            ResilienceManager(sim, BernoulliLinkPlan(0.9), timeout=8)

    def test_duplicate_pid_rejected_at_load(self):
        with pytest.raises(ValueError, match="duplicate"):
            Simulator(
                Mesh(4),
                BoundedDimensionOrderRouter(2),
                [Packet(0, (0, 0), (1, 1)), Packet(0, (2, 2), (3, 3))],
                engine="array",
            )

    def test_duplicate_pid_rejected_at_injection(self):
        sim = make()
        with pytest.raises(ValueError, match="duplicate"):
            sim.inject_packet(Packet(0, (0, 0), (1, 1)))


class TestEngineAccessors:
    def test_queue_occupancy_agrees_with_materialized_queues(self):
        sim = make()
        reference = Simulator(
            Mesh(6), BoundedDimensionOrderRouter(2), random_permutation(Mesh(6), seed=0)
        )
        for _ in range(5):
            sim.step()
            reference.step()
        for node, queues in reference.queues.items():
            for key, queue in queues.items():
                assert sim.queue_occupancy(node, key) == len(queue)
                assert reference.queue_occupancy(node, key) == len(queue)

    def test_queue_occupancy_empty_queue_is_zero(self):
        sim = make()
        reference = Simulator(Mesh(6), BoundedDimensionOrderRouter(2), [])
        assert sim.queue_occupancy((5, 5), 0) >= 0
        assert reference.queue_occupancy((5, 5), 0) == 0

    def test_run_result_matches_reference(self):
        topology = Mesh(6)
        array = make()
        reference = Simulator(
            topology, BoundedDimensionOrderRouter(2), random_permutation(topology, seed=0)
        )
        ra = array.run(10_000)
        rr = reference.run(10_000)
        assert (ra.completed, ra.steps, ra.total_moves) == (
            rr.completed,
            rr.steps,
            rr.total_moves,
        )
        assert ra.delivery_times == rr.delivery_times
        assert ra.counters == rr.counters

    def test_hooks_and_step_see_the_reference_move_lists(self):
        """Object-level post-step hooks (and ``step``'s return value) get
        the reference engine's ScheduledMove list, built only on demand,
        with each moved Packet's ``pos`` at its target."""

        def seen(sim):
            log = []
            sim.post_step_hooks.append(
                lambda s, moves: log.append(
                    [
                        (m.packet.pid, m.src, m.direction, m.target, m.packet.pos)
                        for m in moves
                    ]
                )
            )
            return log

        topology = Mesh(6)
        array = make(algorithm=GreedyAdaptiveRouter(2, "incoming"))
        reference = Simulator(
            topology,
            GreedyAdaptiveRouter(2, "incoming"),
            random_permutation(topology, seed=0),
        )
        array_log, reference_log = seen(array), seen(reference)
        for _ in range(8):
            returned = array.step()
            expected = reference.step()
            assert len(returned) == len(expected)
            assert [(m.packet.pid, m.target) for m in returned] == [
                (m.packet.pid, m.target) for m in expected
            ]
        assert array_log == reference_log

    def test_moves_are_built_only_when_iterated(self):
        sim = make()
        moves = sim.step()
        assert len(moves) > 0 and moves._moves is None
        assert moves[0].target == (moves.target[0] // 6, moves.target[0] % 6)
        assert moves._moves is not None
