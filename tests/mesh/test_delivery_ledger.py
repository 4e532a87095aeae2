"""Both engines' delivery ledgers read back alike.

Each engine records deliveries in an append-only array ledger (pid, step,
slot; the reference engine numbers no slots, so its slots are -1) and
builds the ``delivery_times`` dict from it only when asked.  Each
scenario here runs both engines side by side and requires, per step,
equal ``done``/``undelivered``/``delivered_count`` and equal series rows,
and at the end the same ledger rows and the same ``delivery_times``
items in the same order.  The streaming case also compares the rejection
ledgers.
"""

import numpy as np
import pytest

from repro.faults.plan import BernoulliLinkPlan
from repro.mesh import Mesh, Packet, Simulator, Torus
from repro.mesh.stepview import PacketLedger
from repro.routing import BoundedDimensionOrderRouter, GreedyAdaptiveRouter
from repro.workloads import random_permutation
from tests.conftest import ARRAY_CONFIGURATIONS

ENGINES = ("reference", "array")


def pair(topology, router, packets):
    """The same instance on both engines (own Packet copies), series
    recording on."""
    return [
        Simulator(
            topology,
            router(),
            [p.copy() for p in packets],
            engine=engine,
            record_series=True,
            validate=False,
        )
        for engine in ENGINES
    ]


def assert_same_step(sims):
    ref, arr = sims
    assert arr.done == ref.done
    assert arr.undelivered == ref.undelivered
    assert arr.delivered_count == ref.delivered_count == len(ref.delivery_times)
    assert arr.series == ref.series


def assert_same_result(sims):
    ref_led, arr_led = (s.deliveries for s in sims)
    assert arr_led.pid.tolist() == ref_led.pid.tolist()
    assert arr_led.step.tolist() == ref_led.step.tolist()
    assert (ref_led.slot == -1).all()
    ref, arr = (s.result() for s in sims)
    assert list(arr.delivery_times.items()) == list(ref.delivery_times.items())
    assert arr.delivered == ref.delivered
    assert [r.delivered_total for r in arr.series] == [
        r.delivered_total for r in ref.series
    ]


def run_pair(sims, max_steps=2_000, finish=True):
    """Step both engines to completion (or, unless ``finish``, to the step
    cap), comparing every step and then the results."""
    assert_same_step(sims)
    while not sims[0].done and sims[0].time < max_steps:
        for sim in sims:
            sim.step()
        assert_same_step(sims)
    assert sims[0].done or not finish
    assert_same_result(sims)


def assert_ledger_columns(sim, homes):
    """Rows match ``delivery_times`` and only ``homes`` have no slot."""
    led = sim.deliveries
    assert dict(zip(led.pid.tolist(), led.step.tolist())) == sim.delivery_times
    assert sorted(led.pid[led.slot < 0].tolist()) == sorted(homes)
    assert (led.slot[led.slot >= 0] < sim._state.size).all()


def test_permutation_with_fixed_points():
    mesh = Mesh(8)
    packets = list(random_permutation(mesh, seed=3))
    homes = [p.pid for p in packets if p.source == p.dest]
    assert homes  # the instance has fixed points: delivered at load, no slot
    sims = pair(mesh, lambda: GreedyAdaptiveRouter(2, "incoming"), packets)
    run_pair(sims)
    assert_ledger_columns(sims[1], homes)


def test_torus():
    torus = Torus(6)
    sims = pair(torus, lambda: BoundedDimensionOrderRouter(2), random_permutation(torus, seed=1))
    run_pair(sims)


@pytest.mark.parametrize("topology", [Mesh(8), Torus(8)], ids=["mesh", "torus"])
@pytest.mark.parametrize("config", sorted(ARRAY_CONFIGURATIONS))
def test_every_array_configuration(config, topology):
    """Deliveries land in the ledger in the reference (target, inlink)
    order, in every queue regime, including central queues that take
    several arrivals a step and bufferless hot-potato."""
    base = list(random_permutation(topology, seed=1))
    base += random_permutation(topology, seed=2)
    packets = [Packet(i, p.source, p.dest) for i, p in enumerate(base)]
    router = ARRAY_CONFIGURATIONS[config]
    sims = pair(topology, router, packets)
    # The step cap bounds the central-queue cells, which may livelock.
    run_pair(sims, max_steps=200, finish=router().queue_spec.kind != "central")


def test_bernoulli_link_plan():
    mesh = Mesh(8)
    sims = pair(mesh, lambda: GreedyAdaptiveRouter(2, "incoming"), random_permutation(mesh, seed=2))
    for sim in sims:
        BernoulliLinkPlan(0.7, seed=5).attach(sim)
    run_pair(sims)


def test_streaming_with_source_equals_destination_offers():
    mesh = Mesh(6)
    sims = pair(mesh, lambda: BoundedDimensionOrderRouter(2), [])
    rng = np.random.default_rng(0)
    homes = []
    pid = 0
    for _ in range(12):
        sources = rng.integers(0, mesh.num_nodes, size=8)
        dests = rng.integers(0, mesh.num_nodes, size=8)
        dests[::4] = sources[::4]  # two offers a step enter at their goal
        admitted = [sim.offer_packets(pid, sources, dests) for sim in sims]
        assert admitted[0].tolist() == admitted[1].tolist()
        homes += (pid + np.flatnonzero(admitted[0] & (sources == dests))).tolist()
        pid += len(sources)
        for sim in sims:
            sim.step()
        assert_same_step(sims)
        # Admitted offers have no Packet until read; built, they sit in
        # the same queue positions as the reference engine's.
        assert sims[1].configuration() == sims[0].configuration()
    run_pair(sims)
    assert homes
    assert_ledger_columns(sims[1], homes)
    ref_rej, arr_rej = (s.rejections for s in sims)
    assert ref_rej.size  # the offers overbook some queues
    assert arr_rej.pid.tolist() == ref_rej.pid.tolist()
    assert arr_rej.step.tolist() == ref_rej.step.tolist()
    assert (arr_rej.slot == -1).all() and (ref_rej.slot == -1).all()
    assert list(sims[1].rejected.items()) == list(sims[0].rejected.items())


def test_late_packets_entering_at_their_goal():
    """A loaded packet with a later injection time and source == dest is
    delivered when it enters, from the pending pool, with no slot."""
    mesh = Mesh(5)
    packets = [
        Packet(0, (0, 0), (4, 4)),
        Packet(1, (2, 2), (2, 2), injection_time=3),
        Packet(2, (1, 3), (3, 1), injection_time=2),
    ]
    sims = pair(mesh, lambda: GreedyAdaptiveRouter(2, "incoming"), packets)
    run_pair(sims)
    assert_ledger_columns(sims[1], [1])
    assert sims[1].delivery_times[1] == 4


@pytest.mark.parametrize("engine", ENGINES)
def test_no_delivery_dict_until_read(engine):
    """The dict view exists only once something reads it (``result()``
    does)."""
    mesh = Mesh(6)
    sim = Simulator(
        mesh, GreedyAdaptiveRouter(2, "incoming"), random_permutation(mesh, seed=0),
        engine=engine,
    )
    while not sim.done:
        sim.step()
    assert sim.deliveries._view == {}
    assert sim.delivered_count == sim.deliveries.size == 36
    assert len(sim.delivery_times) == 36


def test_last_rows_keep_each_pids_last_row():
    """``last_rows`` are ``as_dict``'s items as columns: a pid recorded
    twice (corrupted state) keeps its last step."""
    led = PacketLedger()
    led.append(np.array([3, 1]), 5)
    pid, step = led.last_rows()
    assert (pid.tolist(), step.tolist()) == ([3, 1], [5, 5])
    led.append(np.array([3, 2]), 7)
    pid, step = led.last_rows()
    assert dict(zip(pid.tolist(), step.tolist())) == led.as_dict() == {3: 7, 1: 5, 2: 7}
