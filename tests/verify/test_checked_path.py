"""The checked array path reads the step's moves unsorted, and the oracles
still report offending moves in one order on both engines.

The array engine hands its step view the moves in schedule order, so an
oracle that names offending moves puts them in the reference engine's
move order, (target, inlink), itself.  These tests pin that order across
engines with several offending moves in one step, and pin that a checked
array run never sorts its moves unless something else reads them.
"""

import numpy as np
import pytest

from repro.faults.plan import BernoulliLinkPlan
from repro.mesh import Mesh, Simulator, Torus
from repro.mesh.array_state import OPP
from repro.routing import GreedyAdaptiveRouter
from repro.verify import (
    MinimalityOracle,
    PacketConservationOracle,
    QueueBoundOracle,
    attach_checker,
)
from repro.workloads import random_permutation

GOAL = (0, 0)


def corrupt_goals_on_a_busy_step(sim, packets):
    """Post-step tamper, ahead of the checker: on the first step that
    delivers at least five packets, every packet's caller-given destination
    becomes ``GOAL``, behind the engine's back.  The step's moves were
    already made toward the true destinations, so its deliveries land
    away from ``GOAL`` and many of its moves lead away from it.  Returns
    the list the tampered step's time is appended to."""
    hit = []

    def tamper(sim, moves):
        if hit or np.count_nonzero(sim.deliveries.step == sim.time) < 5:
            return
        hit.append(sim.time)
        if sim.engine_name == "array":
            sim._slots.dest[:] = sim.topology.node_index(GOAL)
        else:
            for packet in packets:  # the reference engine's own objects
                packet.dest = GOAL

    sim.post_step_hooks.insert(0, tamper)
    return hit


def violations_of_the_tampered_step(engine, topology):
    packets = random_permutation(topology, seed=5)
    sim = Simulator(
        topology, GreedyAdaptiveRouter(2), packets, validate=False, engine=engine
    )
    assert sim.engine_name == engine
    checker = attach_checker(
        sim, [MinimalityOracle(), PacketConservationOracle()], mode="record"
    )
    hit = corrupt_goals_on_a_busy_step(sim, list(packets))
    while not hit:
        sim.step()
    assert {v.time for v in checker.violations} == set(hit)
    return [str(v) for v in checker.violations]


@pytest.mark.parametrize("topology", [Mesh(8), Torus(8)], ids=["mesh", "torus"])
def test_engines_name_offending_moves_in_one_order(topology):
    """Several unprofitable moves and several wrong-node deliveries in one
    step: both engines report the same messages in the same order.  The
    array engine's schedule order differs from that order on this step,
    so an oracle that named the moves in view order would fail here."""
    reference = violations_of_the_tampered_step("reference", topology)
    array = violations_of_the_tampered_step("array", topology)
    assert array == reference
    unprofitable = [m for m in reference if "not a profitable move" in m]
    misdelivered = [m for m in reference if "recorded delivered at" in m]
    assert len(unprofitable) >= 2 and len(misdelivered) >= 4
    if not topology.wraps:
        assert sum("beyond rectangle" in m for m in reference) >= 2


def test_checked_array_run_never_sorts_its_moves():
    """``run_faulty``'s three oracles on an array run under link faults:
    no step's moves are sorted by the checks, and a later read of the
    moves' arrays still gives them in (target, inlink) order."""
    mesh = Mesh(12)
    sim = Simulator(
        mesh,
        GreedyAdaptiveRouter(2, "incoming"),
        random_permutation(mesh, seed=0),
        validate=False,
        engine="array",
    )
    BernoulliLinkPlan(0.9, seed=0).attach(sim)
    checker = attach_checker(
        sim,
        [PacketConservationOracle(), QueueBoundOracle(), MinimalityOracle()],
        mode="record",
    )
    steps = []
    sim.post_step_hooks.append(
        lambda sim, moves: steps.append((moves, moves._cols is None))
    )
    assert sim.run(10_000).completed
    assert checker.ok
    assert len(steps) == sim.time and all(unsorted for _, unsorted in steps)
    for moves, _ in steps:
        cell = (moves.target << 2) | OPP[moves.direction]
        assert (np.diff(cell) > 0).all()
        assert sorted(moves.slots.tolist()) == sorted(moves.scheduled[0].tolist())
    assert sum(len(moves) for moves, _ in steps) == sim.total_moves
