"""The oracle layer catches deliberately broken routers.

Every test here runs with ``validate=False`` where it matters, proving the
oracles re-derive the paper's invariants independently of the simulator's
own enforcement -- a regression in either layer is caught by the other.

The conservation, queue-bound and minimality tests run on both engines:
each ``...OnArrays`` class reruns its parent's tests with ``engine =
"array"``.  The broken routers are not ported to the array engine, so
there the same defect is planted in its ``ArrayState`` instead, and a
second checker forced onto the object path (walking the materialized
queues) must report exactly what the array path reports.
"""

import numpy as np
import pytest

from repro.mesh import Mesh, Packet, Simulator, Torus
from repro.mesh.directions import Direction
from repro.mesh.errors import QueueOverflowError
from repro.routing import BoundedDimensionOrderRouter, GreedyAdaptiveRouter
from repro.verify import (
    InvariantChecker,
    MinimalityOracle,
    PacketConservationOracle,
    QueueBoundOracle,
    StepBoundOracle,
    VerificationError,
    attach_checker,
    default_oracles,
)
from repro.workloads import random_permutation


class OverflowingRouter(GreedyAdaptiveRouter):
    """Deliberately broken: accepts one packet more than the queue holds."""

    name = "broken-overflow"

    def inqueue(self, ctx, offers):
        free = (self.queue_spec.capacity + 1) - ctx.total_occupancy
        return list(offers)[: max(free, 0)]


class NonMinimalLiar(GreedyAdaptiveRouter):
    """Claims minimality but schedules the first packet unprofitably."""

    name = "broken-nonminimal"

    def outqueue(self, ctx):
        for view in ctx.packets:
            for d in ctx.out_directions:
                if d not in view.profitable:
                    return {d: view}
        return super().outqueue(ctx)


def object_path(oracle):
    """``oracle`` forced onto its object path, whatever engine runs it."""
    oracle.post_step = oracle.check_objects
    return oracle


def attach_paths(sim, make_oracles, mode):
    """Attach ``make_oracles()`` on the engine's own path and, on the array
    engine, a second copy forced onto the object path.  Returns both
    checkers (the second is None on the reference engine)."""
    checker = attach_checker(sim, make_oracles(), mode=mode)
    if sim.engine_name == "reference":
        return checker, None
    objects = attach_checker(sim, [object_path(o) for o in make_oracles()], mode=mode)
    return checker, objects


def assert_paths_agree(checker, objects):
    if objects is not None:
        assert checker.violations == objects.violations
        assert checker.counters == objects.counters


def build(engine, topology, router, packets, **kwargs):
    sim = Simulator(topology, router, packets, engine=engine, **kwargs)
    assert sim.engine_name == engine
    return sim


def pile_into_one_queue(sim, moves):
    """Post-step tamper (array engine): every queued packet joins the first
    packet's queue.  Only positions change; the occupancy table the
    engine keeps does not, so only a recount from positions sees it."""
    st = sim._state
    act = sim._act
    st.posf[act] = st.posf[act[0]]
    st.qkey[act] = st.qkey[act[0]]
    sim._mat = None


def clone_slot(sim, slot):
    """Array-engine tamper: a second slot holding slot ``slot``'s packet
    (same pid, position, queue and FIFO place), queued behind the
    engine's back; the in-flight counter is not told.  Returns the
    clone's slot."""
    st = sim._state
    one = np.array([slot])
    clone = st.new_slots(
        st.pids[one], st.posf[one], st.destf[one], st.qkey[one], st.qseq[one]
    )
    store = sim._slots  # the clone's Packet and endpoints
    store.append(
        st.pids[one],
        store.source[one].copy(),
        store.dest[one].copy(),
        np.zeros(1, dtype=np.int64),
        {int(st.pids[slot]): store.objects()[slot].copy()},
    )
    sim._act = np.append(sim._act, clone)
    sim._mat = None
    return int(clone[0])


def forget_first_delivery(sim):
    """Delete the oldest delivery record: the reference engine's first
    ``delivery_times`` entry, the array engine's first ledger row."""
    if sim.engine_name == "reference":
        del sim.delivery_times[next(iter(sim.delivery_times))]
        return
    led = sim.deliveries
    led._rows[:, : led.size - 1] = led._rows[:, 1 : led.size].copy()
    led.size -= 1


def overflowing_sim(engine):
    """Four packets converging on one queue of capacity 1: the broken
    router on the reference engine, the tampered state on the array one."""
    if engine == "reference":
        return build(
            engine, Mesh(8), OverflowingRouter(1), converging_packets(), validate=False
        )
    return build(
        engine, Mesh(8), GreedyAdaptiveRouter(1), converging_packets(), validate=False
    )


def plant_overflow(sim):
    """Runs ahead of the checkers' hooks (no-op on the reference engine,
    whose router overflows by itself)."""
    if sim.engine_name == "array":
        sim.post_step_hooks.insert(0, pile_into_one_queue)


def converging_packets():
    # Four packets converge on (1,1); an accept-all inqueue overflows k=1.
    return [
        Packet(0, (0, 1), (7, 1)),
        Packet(1, (1, 0), (1, 7)),
        Packet(2, (2, 1), (0, 1)),
        Packet(3, (1, 2), (1, 0)),
    ]


class TestQueueBoundOracle:
    engine = "reference"

    def test_broken_router_caught_by_oracle_alone(self):
        """The acceptance scenario: queue bound k+1, simulator enforcement
        off, the oracle layer still catches it."""
        sim = overflowing_sim(self.engine)
        checker = attach_checker(sim, [QueueBoundOracle()], mode="strict")
        plant_overflow(sim)
        with pytest.raises(VerificationError) as exc_info:
            sim.run(10)
        assert "queue-bound" in str(exc_info.value)
        assert not checker.ok

    def test_simulator_raises_typed_structured_overflow(self):
        """With validation on, the simulator raises first -- and the typed
        exception carries node/queue/occupancy/capacity for tests."""
        if self.engine != "reference":
            pytest.skip("the overflowing router runs on the reference engine only")
        sim = Simulator(Mesh(8), OverflowingRouter(1), converging_packets())
        with pytest.raises(QueueOverflowError) as exc_info:
            sim.run(10)
        err = exc_info.value
        assert err.node == (1, 1)
        assert err.occupancy == err.capacity + 1
        assert err.capacity == 1
        assert err.algorithm == "broken-overflow"

    def test_record_mode_collects_instead_of_raising(self):
        sim = overflowing_sim(self.engine)
        checker, objects = attach_paths(sim, lambda: [QueueBoundOracle()], "record")
        plant_overflow(sim)
        sim.run(5)
        assert checker.counters["queue-bound"] >= 1
        assert all(v.oracle == "queue-bound" for v in checker.violations)
        assert_paths_agree(checker, objects)

    def test_off_mode_attaches_nothing(self):
        sim = overflowing_sim(self.engine)
        checker = attach_checker(sim, [QueueBoundOracle()], mode="off")
        sim.run(5)
        assert checker.ok
        assert not sim.pre_step_hooks and not sim.post_step_hooks

    def test_clean_router_is_clean(self):
        mesh = Mesh(8)
        sim = build(
            self.engine,
            mesh,
            GreedyAdaptiveRouter(2, "incoming"),
            random_permutation(mesh, seed=0),
        )
        checker = attach_checker(sim, default_oracles(sim), mode="strict")
        _, objects = attach_paths(
            sim,
            lambda: [PacketConservationOracle(), QueueBoundOracle(), MinimalityOracle()],
            "strict",
        )
        result = sim.run(5_000)
        checker.finish()
        assert result.completed
        assert checker.ok
        assert objects is None or objects.ok


class TestQueueBoundOracleOnArrays(TestQueueBoundOracle):
    """The same tests on the array engine, overflows planted in ArrayState."""

    engine = "array"

    @pytest.mark.parametrize("occupancy", [0, 9])
    def test_array_path_ignores_the_occupancy_table(self, occupancy):
        """The recount reads positions only: an occupancy table overwritten
        behind the engine's back neither hides the planted overflow (all
        zeros) nor invents one (all past capacity)."""
        sim = overflowing_sim("array")
        checker = attach_checker(sim, [QueueBoundOracle()], mode="record")
        if occupancy == 0:
            plant_overflow(sim)
        sim.post_step_hooks.insert(0, lambda s, moves: s._state.occ.fill(occupancy))
        sim.step()
        expected = ["queue 'central' at (0, 1) holds 4 > capacity 1"]
        assert [v.message for v in checker.violations] == (
            expected if occupancy == 0 else []
        )


class TestMinimalityOracle:
    engine = "reference"

    def test_nonminimal_liar_caught(self):
        mesh = Mesh(6)
        # One packet that gets deflected unprofitably (west) on step 1.
        packets = [Packet(0, (5, 5), (5, 4))]
        if self.engine == "reference":
            sim = build(self.engine, mesh, NonMinimalLiar(2), packets, validate=False)
        else:
            # The array engine routes by its own destination array; point
            # it west of the packet's real destination.
            sim = build(self.engine, mesh, GreedyAdaptiveRouter(2), packets, validate=False)
            sim._state.destf[0] = mesh.node_index((0, 5))
        checker, objects = attach_paths(sim, lambda: [MinimalityOracle()], "record")
        sim.run(3)
        assert any("not a profitable move" in v.message for v in checker.violations)
        assert_paths_agree(checker, objects)

    def test_minimal_router_distance_monotone_clean(self):
        mesh = Mesh(8)
        sim = build(
            self.engine,
            mesh,
            BoundedDimensionOrderRouter(1),
            random_permutation(mesh, seed=3),
        )
        checker, objects = attach_paths(sim, lambda: [MinimalityOracle()], "strict")
        assert sim.run(5_000).completed
        assert checker.ok
        assert objects is None or objects.ok


class TestMinimalityOracleOnArrays(TestMinimalityOracle):
    """The same tests on the array engine, a wrong destination planted in
    ArrayState."""

    engine = "array"

    def test_excursion_beyond_rectangle_is_flagged(self):
        """A move west of a packet whose rectangle is the column x=2
        strays one hop beyond it (and is unprofitable): both paths report
        both, in the same order."""
        mesh = Mesh(6)
        sim = build(
            self.engine, mesh, GreedyAdaptiveRouter(2), [Packet(0, (2, 2), (2, 4))],
            validate=False,
        )
        sim._state.destf[0] = mesh.node_index((0, 2))
        checker, objects = attach_paths(sim, lambda: [MinimalityOracle()], "record")
        sim.step()
        assert [v.message for v in checker.violations] == [
            "packet 0 moved (2, 2)->(1, 2) (distance 2->3), not a profitable "
            "move for dest (2, 4)",
            "packet 0 at (1, 2) strays 1 > delta 0 beyond rectangle (2, 2)..(2, 4)",
        ]
        assert_paths_agree(checker, objects)


class TestConservationOracle:
    engine = "reference"

    def test_clean_run_conserves(self):
        mesh = Mesh(6)
        packets = random_permutation(mesh, seed=1)
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(4), packets)
        checker, objects = attach_paths(sim, lambda: [PacketConservationOracle()], "strict")
        assert sim.run(5_000).completed
        assert checker.ok
        assert objects is None or objects.ok

    def test_detects_duplicated_packet(self):
        mesh = Mesh(6)
        sim = build(
            self.engine, mesh, GreedyAdaptiveRouter(4), [Packet(0, (0, 0), (3, 3))],
            validate=False,
        )
        checker, objects = attach_paths(sim, lambda: [PacketConservationOracle()], "record")
        sim.step()
        # Corrupt the state behind the simulator's back: clone a packet.
        if self.engine == "reference":
            p = next(sim.iter_packets())
            for node_queues in sim.queues.values():
                for q in node_queues.values():
                    if q:
                        q.append(p.copy())
                        break
        else:
            clone_slot(sim, int(sim._act[0]))
        sim.step()
        assert any("occupies two queues" in v.message for v in checker.violations) or any(
            "in-flight counter" in v.message for v in checker.violations
        )
        assert_paths_agree(checker, objects)

    def test_rejected_packets_conserve(self):
        """Regression for the streaming layer: packets refused at admission
        (offer_packets) count toward the conservation total instead of
        tripping the oracle as lost."""
        mesh = Mesh(6)
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(2), [], validate=False)
        checker, objects = attach_paths(sim, lambda: [PacketConservationOracle()], "strict")
        # Four offers into (0, 0)'s central queue of capacity 2.
        admitted = sim.offer_packets(0, np.zeros(4, dtype=np.int64), np.full(4, 35))
        assert admitted.tolist() == [True, True, False, False]
        assert sim.run(5_000).completed
        assert checker.ok
        assert objects is None or objects.ok
        assert sim.total_packets == 4
        assert len(sim.delivery_times) == 2 and sorted(sim.rejected) == [2, 3]

    def test_rejected_packet_in_a_queue_is_flagged(self):
        """A pid that is both rejected and queued is corruption, not
        backpressure -- the oracle must say so."""
        mesh = Mesh(6)
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(2), [], validate=False)
        checker, objects = attach_paths(sim, lambda: [PacketConservationOracle()], "record")
        sim.inject_packet(Packet(0, (0, 0), (5, 5), injection_time=0))
        sim.step()
        # Corrupt: mark the in-network packet as rejected behind the
        # simulator's back.
        sim.rejected[0] = sim.time
        sim.total_packets += 1  # keep the aggregate count consistent
        sim.step()
        assert any(
            "despite admission rejection" in v.message for v in checker.violations
        )
        assert_paths_agree(checker, objects)

    def test_forgotten_delivery_is_flagged(self):
        """Deleting a delivery record (on the array engine, the first row
        of its delivery ledger) shrinks the delivered set and breaks the
        sum; both are reported, by both paths alike."""
        mesh = Mesh(6)
        packets = random_permutation(mesh, seed=1)
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(4), packets)
        checker, objects = attach_paths(sim, lambda: [PacketConservationOracle()], "record")
        while not sim.delivered_count:
            sim.step()
        forget_first_delivery(sim)
        sim.step()
        messages = [v.message for v in checker.violations]
        assert any("delivered set shrank" in m for m in messages)
        assert any("conservation broken" in m for m in messages)
        assert_paths_agree(checker, objects)

    def test_duplicate_pid_rejected_across_outcomes(self):
        """Rejected offers, admitted offers and injected packets share the
        duplicate-pid guard."""
        mesh = Mesh(6)
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(1), [], validate=False)
        assert sim.offer_packets(6, np.zeros(2, dtype=np.int64), np.full(2, 35)).tolist() == [
            True,
            False,
        ]
        for pid in (6, 7):
            with pytest.raises(ValueError, match="duplicate packet id"):
                sim.inject_packet(Packet(pid, (0, 0), (5, 5)))
            with pytest.raises(ValueError, match="duplicate packet id"):
                sim.offer_packets(pid, np.array([6]), np.array([35]))


class TestConservationOracleOnArrays(TestConservationOracle):
    """The same tests on the array engine, corruption planted in ArrayState."""

    engine = "array"

    def test_clone_of_delivered_packet_stays_queued(self):
        """A delivered packet's clone, queued far from its destination for
        two steps: each step reports it as still queued after delivery,
        and the counts, by both paths alike."""
        mesh = Mesh(6)
        sim = build(
            self.engine, mesh, GreedyAdaptiveRouter(4), random_permutation(mesh, seed=1),
            validate=False,
        )
        checker, objects = attach_paths(sim, lambda: [PacketConservationOracle()], "record")
        led = sim.deliveries
        while not (led.slot >= 0).any():
            sim.step()
        row = int(np.argmax(led.slot >= 0))  # the first delivery from a slot
        slot, pid = int(led.slot[row]), int(led.pid[row])
        clone = clone_slot(sim, slot)
        # In the corner farthest from its destination, 5+ hops away.
        x, y = divmod(int(sim._state.destf[clone]), mesh.height)
        sim._state.posf[clone] = mesh.node_index((5 if x < 3 else 0, 5 if y < 3 else 0))
        sim.step()
        sim.step()
        messages = [v.message for v in checker.violations]
        assert messages.count(f"packet {pid} still queued after delivery") == 2
        assert any("in-flight counter" in m for m in messages)
        assert_paths_agree(checker, objects)

    def test_clone_delivered_again(self):
        """A clone one hop from its destination is delivered a second time
        in the step after it was planted: the ledger then holds that pid
        twice, both paths count it once, and only the in-flight counter
        (decremented twice) is off."""
        mesh = Mesh(6)
        sim = build(
            self.engine, mesh, GreedyAdaptiveRouter(4), [Packet(0, (0, 0), (0, 1))],
            validate=False,
        )
        checker, objects = attach_paths(sim, lambda: [PacketConservationOracle()], "record")
        sim.step()
        clone = clone_slot(sim, 0)
        sim._state.posf[clone] = mesh.node_index((0, 0))
        sim.step()
        assert sim.deliveries.pid.tolist() == [0, 0]
        assert len(sim.delivery_times) == 1
        assert [v.message for v in checker.violations] == [
            "in-flight counter -1 != queued packets 0"
        ]
        assert_paths_agree(checker, objects)

    def test_wrong_node_delivery_is_flagged(self):
        """The engine's destination array moved next to the source: the
        packet is delivered there, which both paths report."""
        mesh = Mesh(6)
        sim = build(
            self.engine, mesh, GreedyAdaptiveRouter(2), [Packet(0, (0, 0), (5, 5))],
            validate=False,
        )
        checker, objects = attach_paths(sim, lambda: [PacketConservationOracle()], "record")
        sim._state.destf[0] = mesh.node_index((1, 0))
        sim.step()
        assert sim.delivered_count == 1
        assert [v.message for v in checker.violations] == [
            "packet 0 recorded delivered at (1, 0), destination is (5, 5)"
        ]
        assert_paths_agree(checker, objects)


class TestStepBoundOracle:
    def test_theorem15_budget_enforced(self):
        mesh = Mesh(8)
        router = BoundedDimensionOrderRouter(1)
        bound = router.permutation_step_bound(8)
        sim = Simulator(mesh, router, random_permutation(mesh, seed=0))
        checker = attach_checker(sim, [StepBoundOracle(bound)], mode="strict")
        result = sim.run(bound)
        checker.finish()
        assert result.completed and checker.ok

    def test_absurdly_small_bound_fires(self):
        mesh = Mesh(8)
        sim = Simulator(
            mesh, BoundedDimensionOrderRouter(1), random_permutation(mesh, seed=0)
        )
        checker = attach_checker(sim, [StepBoundOracle(1)], mode="record")
        sim.run(50)
        assert checker.counters.get("step-bound", 0) >= 1

    def test_distance_floor_checked_at_finish(self):
        mesh = Mesh(8)
        sim = Simulator(
            mesh, BoundedDimensionOrderRouter(1), random_permutation(mesh, seed=0)
        )
        checker = attach_checker(sim, [StepBoundOracle(None)], mode="strict")
        sim.run(5_000)
        checker.finish()
        assert checker.ok
        # Corrupt a delivery time below the floor; finish() must object.
        pid = next(iter(sim.delivery_times))
        sim.delivery_times[pid] = 0
        checker2 = InvariantChecker(sim, [], mode="record")
        oracle = StepBoundOracle(None)
        oracle._floor = {pid: 1}
        checker2.oracles = [oracle]
        oracle.on_finish(checker2, sim)
        assert checker2.violations


class TestStepBoundFloors:
    """The array engine's distance floors come from its arrays; they must
    equal the object path's, packet for packet."""

    @staticmethod
    def floors(engine, topology, packets, steps_before_attach):
        sim = Simulator(
            topology, GreedyAdaptiveRouter(2, "incoming"), [p.copy() for p in packets],
            engine=engine,
        )
        for _ in range(steps_before_attach):
            sim.step()
        oracle = StepBoundOracle(None)
        attach_checker(sim, [oracle], mode="strict")
        return oracle._floor

    @pytest.mark.parametrize("topology", [Mesh(7), Torus(6)], ids=["mesh", "torus"])
    @pytest.mark.parametrize("steps_before_attach", [0, 3])
    def test_array_floors_equal_object_floors(self, topology, steps_before_attach):
        packets = list(random_permutation(topology, seed=4))  # appended to below
        # Some packets wait in the pending pool, some start at their goal.
        for p in packets[::5]:
            p.injection_time = 2 + p.pid % 7
        packets.append(Packet(len(packets), (1, 1), (1, 1), injection_time=5))
        reference = self.floors("reference", topology, packets, steps_before_attach)
        array = self.floors("array", topology, packets, steps_before_attach)
        assert array == reference
        if steps_before_attach == 0:
            # At step 0 a queued packet's floor is its source-to-destination
            # distance; a pending one adds its injection time.
            assert reference == {
                p.pid: p.injection_time + topology.distance(p.source, p.dest)
                for p in packets
                if p.source != p.dest or p.injection_time > 0
            }


class TestContractMetadata:
    def test_bounded_dor_contract(self):
        c = BoundedDimensionOrderRouter(2).contract(16)
        assert c.minimal and c.destination_exchangeable
        assert c.excursion_delta == 0
        assert c.queue_kind == "incoming" and c.queue_capacity == 2
        from repro.core.bounds import theorem15_upper_bound

        assert c.step_bound == theorem15_upper_bound(16, 2)

    def test_unbounded_and_delta_contracts(self):
        from repro.routing import BoundedExcursionRouter, HotPotatoRouter

        assert HotPotatoRouter().contract(8).excursion_delta is None
        assert BoundedExcursionRouter(2, 3).contract(8).excursion_delta == 3
        assert GreedyAdaptiveRouter(2).contract(8).step_bound is None

    def test_checker_rejects_bad_mode(self):
        mesh = Mesh(4)
        sim = Simulator(mesh, GreedyAdaptiveRouter(2), [])
        with pytest.raises(ValueError):
            attach_checker(sim, [], mode="loose")
