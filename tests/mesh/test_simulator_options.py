"""Tests for less-traveled simulator options and queue-spec hooks."""

import pytest

from repro.mesh import Mesh, Packet, QueueSpec, Simulator
from repro.mesh.directions import Direction
from repro.mesh.queues import default_incoming_initial_key
from repro.routing import (
    BoundedDimensionOrderRouter,
    GreedyAdaptiveRouter,
    HotPotatoRouter,
)
from repro.workloads import random_permutation


class TestValidateOff:
    def test_validate_false_matches_validated_run(self):
        """Disabling validation (benchmark hot path) must not change
        behaviour, only skip the checks."""
        mesh = Mesh(12)
        results = []
        for validate in (True, False):
            sim = Simulator(
                mesh,
                BoundedDimensionOrderRouter(2),
                random_permutation(mesh, seed=6),
                validate=validate,
            )
            results.append(sim.run(10_000))
        assert results[0].delivery_times == results[1].delivery_times
        assert results[0].max_queue_len == results[1].max_queue_len


class TestCustomInitialKey:
    def test_custom_initial_key_is_used(self):
        """An algorithm may override where injected packets wait."""
        seen = []

        def initial_key(profitable):
            seen.append(profitable)
            return default_incoming_initial_key(profitable)

        class Custom(GreedyAdaptiveRouter):
            def __init__(self):
                super().__init__(2, "incoming")
                self.queue_spec = QueueSpec(2, "incoming", initial_key=initial_key)

        mesh = Mesh(8)
        result = Simulator(
            mesh, Custom(), [Packet(0, (0, 0), (5, 5))]
        ).run(1000)
        assert result.completed
        assert seen and seen[0] == frozenset({Direction.N, Direction.E})


class TestRecordSeries:
    def test_series_and_link_loads_together(self):
        mesh = Mesh(8)
        sim = Simulator(
            mesh,
            BoundedDimensionOrderRouter(2),
            random_permutation(mesh, seed=1),
            record_series=True,
        )
        result = sim.run(10_000)
        assert result.completed
        assert len(result.series) == result.steps
        # The series' move counts sum to the run's total.
        assert sum(rec.moves for rec in result.series) == result.total_moves

    def test_in_flight_monotone_for_static_instances(self):
        mesh = Mesh(8)
        sim = Simulator(
            mesh,
            BoundedDimensionOrderRouter(2),
            random_permutation(mesh, seed=2),
            record_series=True,
        )
        result = sim.run(10_000)
        flights = [rec.in_flight for rec in result.series]
        assert all(a >= b for a, b in zip(flights, flights[1:]))


@pytest.mark.parametrize("engine", ["reference", "array"])
@pytest.mark.parametrize(
    "router",
    [
        lambda: BoundedDimensionOrderRouter(2),
        lambda: GreedyAdaptiveRouter(2, "incoming"),
        HotPotatoRouter,
    ],
    ids=["bounded-dor", "greedy-incoming", "hot-potato"],
)
def test_at_most_one_packet_per_link_per_step(engine, router):
    """Every step's moves use distinct links (src, direction)."""
    mesh = Mesh(10)
    sim = Simulator(mesh, router(), random_permutation(mesh, seed=1), engine=engine)
    moved = 0
    while not sim.done and sim.time < 10_000:
        links = [(mv.src, mv.direction) for mv in sim.step()]
        assert len(set(links)) == len(links)
        moved += len(links)
    assert sim.done
    assert moved == sim.total_moves
