"""Unit tests for the synchronous simulator's model semantics."""

import pytest

from repro.mesh import (
    Mesh,
    MeshND,
    Packet,
    QueueSpec,
    Simulator,
    SparsePillarMesh,
)
from repro.mesh.directions import Direction
from repro.mesh.errors import (
    InvalidScheduleError,
    NonMinimalMoveError,
    QueueOverflowError,
    SimulationLimitError,
)
from repro.mesh.interfaces import RoutingAlgorithm
from repro.routing import (
    BoundedDimensionOrderRouter,
    DimensionOrderRouter,
    GreedyAdaptiveRouter,
)


class AcceptAllDOR(DimensionOrderRouter):
    """Dimension-order variant that accepts everything (overflow-prone)."""

    name = "accept-all"

    def inqueue(self, ctx, offers):
        return list(offers)


class NonMinimalRouter(RoutingAlgorithm):
    """Schedules every packet on an unprofitable link (to test enforcement)."""

    name = "perverse"
    minimal = True  # declared minimal, behaves nonminimally -> must be caught

    def __init__(self):
        super().__init__(QueueSpec(4))

    def outqueue(self, ctx):
        chosen = {}
        for view in ctx.packets:
            for d in ctx.out_directions:
                if d not in view.profitable and d not in chosen:
                    chosen[d] = view
                    break
        return chosen

    def inqueue(self, ctx, offers):
        return list(offers)


class TestBasics:
    def test_packet_at_destination_delivered_at_step_zero(self):
        mesh = Mesh(4)
        sim = Simulator(mesh, DimensionOrderRouter(2), [Packet(0, (1, 1), (1, 1))])
        assert sim.done
        assert sim.delivery_times[0] == 0

    def test_single_packet_takes_exactly_distance_steps(self):
        mesh = Mesh(8)
        p = Packet(0, (0, 0), (5, 3))
        sim = Simulator(mesh, DimensionOrderRouter(2), [p])
        result = sim.run(max_steps=100)
        assert result.completed
        assert result.steps == mesh.distance((0, 0), (5, 3)) == 8
        assert result.delivery_times[0] == 8

    def test_dimension_order_path_row_first(self):
        mesh = Mesh(8)
        p = Packet(0, (0, 0), (3, 2))
        sim = Simulator(mesh, DimensionOrderRouter(2), [p])
        trace = [p.pos]
        while not sim.done:
            sim.step()
            trace.append(p.pos)
        assert trace == [
            (0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2),
        ]

    def test_duplicate_pid_rejected(self):
        mesh = Mesh(4)
        with pytest.raises(ValueError, match="duplicate"):
            Simulator(
                mesh,
                DimensionOrderRouter(2),
                [Packet(0, (0, 0), (1, 1)), Packet(0, (1, 0), (2, 2))],
            )

    def test_endpoint_outside_topology_rejected(self):
        mesh = Mesh(4)
        with pytest.raises(ValueError, match="outside"):
            Simulator(mesh, DimensionOrderRouter(2), [Packet(0, (0, 0), (9, 9))])

    def test_total_moves_equals_sum_of_distances_when_uncontended(self):
        mesh = Mesh(8)
        packets = [Packet(0, (0, 0), (4, 4)), Packet(1, (7, 7), (3, 3))]
        result = Simulator(mesh, DimensionOrderRouter(2), packets).run(100)
        assert result.total_moves == 8 + 8


class TestModelEnforcement:
    def test_queue_overflow_raises(self):
        mesh = Mesh(8)
        # Four packets converge on (1,1)'s tiny queue; accept-all overflows.
        packets = [
            Packet(0, (0, 1), (7, 1)),
            Packet(1, (1, 0), (1, 7)),
            Packet(2, (2, 1), (0, 1)),
            Packet(3, (1, 2), (1, 0)),
        ]
        sim = Simulator(mesh, AcceptAllDOR(1), packets)
        with pytest.raises(QueueOverflowError):
            sim.run(max_steps=10)

    def test_nonminimal_move_raises(self):
        mesh = Mesh(6)
        sim = Simulator(mesh, NonMinimalRouter(), [Packet(0, (2, 2), (4, 2))])
        with pytest.raises(NonMinimalMoveError):
            sim.step()

    def test_scheduling_foreign_packet_raises(self):
        mesh = Mesh(6)

        class Thief(DimensionOrderRouter):
            def outqueue(self, ctx):
                chosen = dict(super().outqueue(ctx))
                # Re-schedule the same view on a second outlink.
                if chosen:
                    d, v = next(iter(chosen.items()))
                    for other in ctx.out_directions:
                        if other != d:
                            chosen[other] = v
                            break
                return chosen

        sim = Simulator(mesh, Thief(2), [Packet(0, (2, 2), (4, 4))])
        with pytest.raises(InvalidScheduleError):
            sim.step()

    @pytest.mark.parametrize("topology", [MeshND((4, 4, 4)), SparsePillarMesh(4)], ids=repr)
    def test_2d_router_refuses_other_grids_at_construction(self, topology):
        with pytest.raises(ValueError, match=r"GreedyAdaptiveRouter.*routes only on 2D"):
            Simulator(topology, GreedyAdaptiveRouter(2), [])

    def test_run_raise_on_limit(self):
        mesh = Mesh(8)
        sim = Simulator(mesh, DimensionOrderRouter(2), [Packet(0, (0, 0), (7, 7))])
        with pytest.raises(SimulationLimitError):
            sim.run(max_steps=3, raise_on_limit=True)


class TestInterceptor:
    def test_interceptor_sees_schedule_and_can_exchange(self):
        mesh = Mesh(8)
        a = Packet(0, (0, 0), (5, 5))
        b = Packet(1, (0, 2), (6, 6))
        seen = []

        def interceptor(sim, schedule):
            seen.append([(mv.packet.pid, mv.src, mv.direction) for mv in schedule])
            if sim.time == 1:
                a.exchange_destinations(b)

        sim = Simulator(
            mesh, DimensionOrderRouter(2), [a, b], interceptor=interceptor
        )
        result = sim.run(max_steps=100)
        assert result.completed
        assert seen[0]  # schedules were visible
        assert a.dest == (6, 6) and b.dest == (5, 5)

    def test_adversary_breaking_minimality_is_caught(self):
        mesh = Mesh(8)
        a = Packet(0, (3, 0), (7, 0))  # eastbound
        b = Packet(1, (0, 3), (0, 7))  # northbound

        def bad_adversary(sim, schedule):
            # Swapping these destinations makes the scheduled moves
            # unprofitable; the simulator must detect it.
            a.exchange_destinations(b)

        sim = Simulator(mesh, DimensionOrderRouter(2), [a, b], interceptor=bad_adversary)
        with pytest.raises(NonMinimalMoveError):
            sim.step()


class TestDynamicInjection:
    def test_injection_time_delays_entry(self):
        mesh = Mesh(8)
        p = Packet(0, (0, 0), (3, 0), injection_time=5)
        sim = Simulator(mesh, DimensionOrderRouter(2), [p])
        result = sim.run(max_steps=100)
        assert result.completed
        # Enters at step 5, then needs 3 moves.
        assert result.delivery_times[0] == 5 + 3

    def test_injection_waits_for_queue_space(self):
        mesh = Mesh(8)
        # Fill (0,0) with a packet that cannot move (its outlink target is
        # full too), then inject another at the same node.
        blocker = Packet(0, (0, 0), (2, 0))
        plug = Packet(1, (1, 0), (3, 0))
        late = Packet(2, (0, 0), (0, 3), injection_time=1)
        sim = Simulator(mesh, DimensionOrderRouter(1), [blocker, plug, late])
        result = sim.run(max_steps=100)
        assert result.completed
        # late could not enter at step 1 (node full), so it finishes later
        # than the unobstructed 1 + 3 steps.
        assert result.delivery_times[2] > 4


class TestConfigurationSnapshot:
    def test_snapshot_stable_across_identical_runs(self):
        mesh = Mesh(8)

        def build():
            return [
                Packet(0, (0, 0), (5, 5)),
                Packet(1, (1, 0), (5, 6)),
                Packet(2, (0, 1), (6, 5)),
            ]

        sims = [
            Simulator(mesh, BoundedDimensionOrderRouter(2), build()) for _ in range(2)
        ]
        for _ in range(6):
            for s in sims:
                s.step()
            assert sims[0].configuration() == sims[1].configuration()

    def test_snapshot_reflects_exchange(self):
        mesh = Mesh(8)
        a, b = Packet(0, (0, 0), (5, 5)), Packet(1, (0, 1), (6, 6))
        sim = Simulator(mesh, BoundedDimensionOrderRouter(2), [a, b])
        before = sim.configuration()
        a.exchange_destinations(b)
        assert sim.configuration() != before


class TestSeries:
    def test_series_recording(self):
        mesh = Mesh(8)
        p = Packet(0, (0, 0), (4, 0))
        sim = Simulator(mesh, DimensionOrderRouter(2), [p], record_series=True)
        result = sim.run(max_steps=100)
        assert len(result.series) == result.steps
        assert result.series[-1].delivered_total == 1
        assert result.series[0].in_flight == 1

    def test_max_node_load_tracked(self):
        mesh = Mesh(8)
        packets = [
            Packet(0, (0, 1), (7, 1)),
            Packet(1, (1, 0), (1, 7)),
        ]
        result = Simulator(mesh, DimensionOrderRouter(4), packets).run(100)
        assert result.max_node_load >= 1
        assert result.max_queue_len <= 4
