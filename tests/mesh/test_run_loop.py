"""``Simulator.run``: the one loop that steps a run to its end, on both engines.

A run ends ``done`` (every packet resolved and ``until`` holds), ``limit``
(the step budget ran out) or, with ``stop_on_stall``, ``stalled``
(``STALL_STEPS`` consecutive steps without a move while no packet waits
to enter).  Every scenario here uses routers the array engine has ported,
so each runs on both engines and must stop for the same reason at the
same step.
"""

import pytest

from repro.mesh import Mesh, Packet, Simulator
from repro.mesh.simulator import STALL_STEPS
from repro.routing import BoundedDimensionOrderRouter, DimensionOrderRouter
from repro.workloads import random_permutation, rotation_permutation

ENGINES = ("reference", "array")


def wedged(engine):
    """k=1 central dimension order on a rotation: every queue is full and
    every head waits on a full neighbour, so no packet ever moves."""
    mesh = Mesh(8)
    return Simulator(
        mesh, DimensionOrderRouter(1), rotation_permutation(mesh, 3, 0), engine=engine
    )


def permutation(engine, n=8):
    mesh = Mesh(n)
    return Simulator(
        mesh, BoundedDimensionOrderRouter(2), random_permutation(mesh, seed=0), engine=engine
    )


def late_packet(engine, injection_time=30):
    """One dynamic packet entering an otherwise empty network late."""
    packet = Packet(0, (0, 0), (3, 2), injection_time=injection_time)
    return Simulator(Mesh(8), BoundedDimensionOrderRouter(2), [packet], engine=engine)


@pytest.mark.parametrize("engine", ENGINES)
class TestStopReasons:
    def test_done(self, engine):
        result = permutation(engine).run(10_000, stop_on_stall=True)
        assert result.stop == "done"
        assert result.completed
        assert result.delivered == result.total_packets == 64

    def test_limit(self, engine):
        result = permutation(engine).run(3)
        assert (result.stop, result.steps, result.completed) == ("limit", 3, False)

    def test_stalled(self, engine):
        result = wedged(engine).run(1_000, stop_on_stall=True)
        assert (result.stop, result.steps, result.total_moves) == ("stalled", STALL_STEPS, 0)
        assert not result.completed

    def test_without_stop_on_stall_a_wedge_runs_to_the_limit(self, engine):
        result = wedged(engine).run(100)
        assert (result.stop, result.steps, result.total_moves) == ("limit", 100, 0)

    def test_a_pending_packet_resets_the_stall_count(self, engine):
        """No move happens for 30 steps, but a packet waits to enter, so
        the network is not wedged: a moves-only rule would stop it at
        step 16."""
        result = late_packet(engine).run(1_000, stop_on_stall=True)
        assert result.stop == "done"
        assert result.completed
        assert result.steps > 30 > STALL_STEPS

    def test_until_keeps_stepping_past_done(self, engine):
        sim = late_packet(engine, injection_time=0)
        result = sim.run(1_000, until=lambda: sim.time >= 40)
        assert (result.stop, result.steps) == ("done", 40)
        assert sim.delivery_times[0] < 40

    def test_until_that_never_holds_ends_at_the_limit(self, engine):
        sim = late_packet(engine, injection_time=0)
        result = sim.run(50, until=lambda: False)
        assert (result.stop, result.steps, result.completed) == ("limit", 50, True)

    def test_idle_steps_after_done_are_not_a_stall(self, engine):
        """While ``until`` holds the run open past done, the empty network
        makes no move, but it is not wedged."""
        sim = late_packet(engine, injection_time=0)
        result = sim.run(1_000, stop_on_stall=True, until=lambda: sim.time >= 40)
        assert (result.stop, result.steps) == ("done", 40)

    def test_result_outside_run_names_done_or_limit(self, engine):
        sim = permutation(engine)
        sim.step()
        assert sim.result().stop == "limit"
        sim.run(10_000)
        assert sim.result().stop == "done"


@pytest.mark.parametrize(
    "make, kwargs",
    [
        (permutation, {"stop_on_stall": True}),
        (lambda engine: permutation(engine, n=12), {}),
        (wedged, {"stop_on_stall": True}),
        (late_packet, {"stop_on_stall": True}),
    ],
    ids=["done", "done-n12", "stalled", "pending"],
)
def test_both_engines_stop_at_the_same_step(make, kwargs):
    reference, array = (make(engine).run(1_000, **kwargs) for engine in ENGINES)
    assert (array.stop, array.steps, array.total_moves, array.delivered) == (
        reference.stop,
        reference.steps,
        reference.total_moves,
        reference.delivered,
    )
