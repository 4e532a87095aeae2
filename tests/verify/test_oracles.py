"""The oracle layer catches deliberately broken routers.

Every test here runs with ``validate=False`` where it matters, proving the
oracles re-derive the paper's invariants independently of the simulator's
own enforcement -- a regression in either layer is caught by the other.

The conservation, queue-bound, minimality and step-bound tests run on
both engines: each ``...OnArrays`` class reruns its parent's tests with
``engine = "array"``.  The oracles have one path, over the simulator's
step view and delivery ledger, so each planted defect must fire on
either engine, and the tests pin its messages verbatim per engine.  The
broken routers are not ported to the array engine, so there the same
defect is planted in its ``ArrayState`` instead; where the two plants
differ, so may the messages.
"""

from bisect import insort

import numpy as np
import pytest

from repro.mesh import Mesh, MeshND, Packet, Simulator, SparsePillarMesh, Torus
from repro.mesh.directions import Direction
from repro.mesh.errors import QueueOverflowError
from repro.mesh.queues import CENTRAL
from repro.routing import (
    BoundedDimensionOrderRouter,
    CreditAdaptiveRouter,
    GreedyAdaptiveRouter,
)
from repro.verify import (
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


class LiesAboutMinimality:
    """Claims minimality but schedules the first packet unprofitably."""

    name = "broken-nonminimal"

    def outqueue(self, ctx):
        for view in ctx.packets:
            for d in ctx.out_directions:
                if d not in view.profitable:
                    return {d: view}
        return super().outqueue(ctx)


class NonMinimalLiar(LiesAboutMinimality, GreedyAdaptiveRouter):
    """The lie on a 2D router."""


class NonMinimalGridLiar(LiesAboutMinimality, CreditAdaptiveRouter):
    """The lie on a router that runs on d-dimensional grids."""


def build(engine, topology, router, packets, **kwargs):
    sim = Simulator(topology, router, packets, engine=engine, **kwargs)
    assert sim.engine_name == engine
    return sim


def messages(checker):
    return [v.message for v in checker.violations]


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


def plant_copy(sim, packet, node):
    """Tamper: a second copy of ``packet`` (queued or delivered; same pid)
    queued at ``node`` behind the engine's back; the in-flight counter is
    not told.  On the reference engine the copy joins the back of the
    node's injection queue for it (the node's load is raised so that the
    copy can leave again); on the array engine it is a clone of the
    packet's slot (same queue key and FIFO place)."""
    if sim.engine_name == "array":
        st = sim._state
        clone = clone_slot(sim, int(np.flatnonzero(st.pids[: st.size] == packet.pid)[0]))
        st.posf[clone] = sim.topology.node_index(node)
        return
    clone = packet.copy()
    clone.pos = node
    key = sim.spec.initial_key(sim.topology.profitable_directions(node, clone.dest))
    sim.queues.setdefault(node, {}).setdefault(key, []).append(clone)
    if node not in sim._sorted_nodes:
        insort(sim._sorted_nodes, node)
    sim._node_load[node] = sim._node_load.get(node, 0) + 1


def forget_first_row(led):
    """Delete the oldest row of an outcome ledger."""
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


def plant_foreign_key(sim, moves):
    """Post-step tamper: the first queued packet moves into its node's S
    queue, a key the central regime does not have."""
    if sim.engine_name == "array":
        sim._state.qkey[sim._act[0]] = Direction.S
        sim._mat = None
        return
    node = min(sim.queues)
    packet = sim.queues[node][CENTRAL].pop(0)
    sim.queues[node][Direction.S] = [packet]


class TestQueueBoundOracle:
    engine = "reference"
    overflow = {
        "reference": ["queue 'central' at (1, 1) holds 2 > capacity 1"],
        "array": ["queue 'central' at (0, 1) holds 4 > capacity 1"],
    }

    def test_broken_router_caught_by_oracle_alone(self):
        """The acceptance scenario: queue bound k+1, simulator enforcement
        off, the oracle layer still catches it."""
        sim = overflowing_sim(self.engine)
        checker = attach_checker(sim, [QueueBoundOracle()], mode="strict")
        plant_overflow(sim)
        with pytest.raises(VerificationError) as exc_info:
            sim.run(10)
        expected = self.overflow[self.engine][0]
        assert str(exc_info.value) == f"[queue-bound @ step 1] {expected}"
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
        checker = attach_checker(sim, [QueueBoundOracle()], mode="record")
        plant_overflow(sim)
        sim.step()
        assert messages(checker) == self.overflow[self.engine]
        sim.run(5)
        assert checker.counters["queue-bound"] >= 1
        assert all(v.oracle == "queue-bound" for v in checker.violations)

    def test_key_outside_the_regime_is_flagged(self):
        """A packet in a queue the central regime does not have is named
        with its key, whatever the length of that queue."""
        mesh = Mesh(6)
        sim = build(
            self.engine, mesh, GreedyAdaptiveRouter(2), [Packet(0, (0, 0), (5, 5))],
            validate=False,
        )
        checker = attach_checker(sim, [QueueBoundOracle()], mode="record")
        sim.post_step_hooks.insert(0, plant_foreign_key)
        sim.step()
        assert messages(checker) == [
            "queue key <Direction.S: 2> at (1, 0) is outside the central regime"
        ]

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
        result = sim.run(5_000)
        checker.finish()
        assert result.completed
        assert checker.ok


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
        assert messages(checker) == (expected if occupancy == 0 else [])


class TestMinimalityOracle:
    engine = "reference"

    def wrong_way_sim(self, mesh, source, dest, west_of):
        """One packet that moves unprofitably on step 1: the liar router on
        the reference engine; on the array engine, whose router follows
        its own destination array, a destination planted at ``west_of``."""
        packets = [Packet(0, source, dest)]
        if self.engine == "reference":
            return build(self.engine, mesh, NonMinimalLiar(2), packets, validate=False)
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(2), packets, validate=False)
        sim._state.destf[0] = mesh.node_index(west_of)
        return sim

    def test_nonminimal_liar_caught(self):
        sim = self.wrong_way_sim(Mesh(6), (5, 5), (5, 4), west_of=(0, 5))
        checker = attach_checker(sim, [MinimalityOracle()], mode="record")
        sim.step()
        assert messages(checker) == [
            "packet 0 moved (5, 5)->(4, 5) (distance 1->2), not a profitable move "
            "for dest (5, 4)",
            "packet 0 at (4, 5) strays 1 > delta 0 beyond rectangle (5, 5)..(5, 4)",
        ]

    def test_excursion_beyond_rectangle_is_flagged(self):
        """A move off a packet's source-destination rectangle strays one
        hop beyond it (and is unprofitable): both are reported, in that
        order."""
        sim = self.wrong_way_sim(Mesh(6), (2, 2), (2, 4), west_of=(0, 2))
        checker = attach_checker(sim, [MinimalityOracle()], mode="record")
        sim.step()
        assert messages(checker) == {
            "reference": [
                "packet 0 moved (2, 2)->(3, 2) (distance 2->3), not a profitable "
                "move for dest (2, 4)",
                "packet 0 at (3, 2) strays 1 > delta 0 beyond rectangle (2, 2)..(2, 4)",
            ],
            "array": [
                "packet 0 moved (2, 2)->(1, 2) (distance 2->3), not a profitable "
                "move for dest (2, 4)",
                "packet 0 at (1, 2) strays 1 > delta 0 beyond rectangle (2, 2)..(2, 4)",
            ],
        }[self.engine]

    def test_minimal_router_distance_monotone_clean(self):
        mesh = Mesh(8)
        sim = build(
            self.engine,
            mesh,
            BoundedDimensionOrderRouter(1),
            random_permutation(mesh, seed=3),
        )
        checker = attach_checker(sim, [MinimalityOracle()], mode="strict")
        assert sim.run(5_000).completed
        assert checker.ok


class TestMinimalityOracleOnArrays(TestMinimalityOracle):
    """The same tests on the array engine, a wrong destination planted in
    ArrayState."""

    engine = "array"


@pytest.mark.parametrize(
    "topology, packet, expected",
    [
        (
            MeshND((4, 4, 4)),
            Packet(0, (3, 3, 3), (3, 3, 1)),
            [
                "packet 0 moved (3, 3, 3)->(3, 2, 3) (distance 2->3), not a "
                "profitable move for dest (3, 3, 1)",
                "packet 0 at (3, 2, 3) strays 1 > delta 0 beyond rectangle "
                "(3, 3, 3)..(3, 3, 1)",
            ],
        ),
        (
            # Off the pillar columns the distance is the walk to a pillar,
            # so a +y step from (1, 0, 0) costs one more than a mesh's.
            SparsePillarMesh(8),
            Packet(0, (1, 0, 0), (1, 0, 2)),
            [
                "packet 0 moved (1, 0, 0)->(1, 1, 0) (distance 4->5), not a "
                "profitable move for dest (1, 0, 2)",
            ],
        ),
    ],
    ids=["mesh3d", "pillar"],
)
def test_nonminimal_liar_caught_in_three_dimensions(topology, packet, expected):
    """The reference engine's one path on d=3 grids: distances from the
    topology's own metric, nodes named by their three coordinates, and no
    rectangle check on the irregular pillar mesh."""
    sim = Simulator(topology, NonMinimalGridLiar(2), [packet], validate=False)
    checker = attach_checker(sim, [MinimalityOracle()], mode="record")
    sim.step()
    assert messages(checker) == expected


class TestConservationOracle:
    engine = "reference"

    def test_clean_run_conserves(self):
        mesh = Mesh(6)
        packets = random_permutation(mesh, seed=1)
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(4), packets)
        checker = attach_checker(sim, [PacketConservationOracle()], mode="strict")
        assert sim.run(5_000).completed
        assert checker.ok

    def test_detects_duplicated_packet(self):
        mesh = Mesh(6)
        packet = Packet(0, (0, 0), (3, 3))
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(4), [packet], validate=False)
        checker = attach_checker(sim, [PacketConservationOracle()], mode="record")
        sim.step()
        # Corrupt the state behind the simulator's back: clone the packet.
        plant_copy(sim, packet, (2, 2))
        sim.step()
        assert messages(checker) == [
            "packet 0 occupies two queues",
            "in-flight counter 1 != queued packets 2",
            "conservation broken: delivered 0 + queued 2 + pending 0 + dropped 0 "
            "+ rejected 0 != total 1",
        ]

    def test_rejected_packets_conserve(self):
        """Regression for the streaming layer: packets refused at admission
        (offer_packets) count toward the conservation total instead of
        tripping the oracle as lost."""
        mesh = Mesh(6)
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(2), [], validate=False)
        checker = attach_checker(sim, [PacketConservationOracle()], mode="strict")
        # Four offers into (0, 0)'s central queue of capacity 2.
        admitted = sim.offer_packets(0, np.zeros(4, dtype=np.int64), np.full(4, 35))
        assert admitted.tolist() == [True, True, False, False]
        assert sim.run(5_000).completed
        assert checker.ok
        assert sim.total_packets == 4
        assert len(sim.delivery_times) == 2 and sorted(sim.rejected) == [2, 3]

    def test_rejected_packet_in_a_queue_is_flagged(self):
        """A pid that is both rejected and queued is corruption, not
        backpressure -- the oracle must say so."""
        mesh = Mesh(6)
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(2), [], validate=False)
        checker = attach_checker(sim, [PacketConservationOracle()], mode="record")
        sim.inject_packet(Packet(0, (0, 0), (5, 5), injection_time=0))
        sim.step()
        # Corrupt: mark the in-network packet as rejected behind the
        # simulator's back.
        sim.rejections.append([0], sim.time)
        sim.total_packets += 1  # keep the aggregate count consistent
        sim.step()
        assert messages(checker) == ["packet 0 queued despite admission rejection"]
        # Reported again on every step the packet stays queued.
        sim.step()
        sim.step()
        assert sim.in_flight == 1
        assert [(v.time, v.message) for v in checker.violations] == [
            (t, "packet 0 queued despite admission rejection") for t in (2, 3, 4)
        ]

    def test_rejection_row_for_a_long_queued_packet_is_flagged_at_once(self):
        """A rejection row written, mid-step, for a packet queued since
        several steps before is reported in that same step."""
        mesh = Mesh(6)
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(2), [], validate=False)
        checker = attach_checker(sim, [PacketConservationOracle()], mode="record")
        sim.inject_packet(Packet(0, (0, 0), (5, 5), injection_time=0))

        def reject_at_step_4(sim, moves):
            if sim.time == 4:
                sim.rejections.append([0], sim.time)
                sim.total_packets += 1

        sim.post_step_hooks.insert(0, reject_at_step_4)
        for _ in range(4):
            sim.step()
        assert [(v.time, v.message) for v in checker.violations] == [
            (4, "packet 0 queued despite admission rejection")
        ]

    def test_new_slot_with_a_rejected_pid_is_flagged_on_its_first_step(self):
        """A pid with a rejection row that enters the network later, in a
        slot made then, is reported on the step it enters, and after."""
        mesh = Mesh(6)
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(2), [], validate=False)
        checker = attach_checker(sim, [PacketConservationOracle()], mode="record")
        sim.inject_packet(Packet(7, (0, 0), (5, 5), injection_time=2))
        sim.step()
        # Corrupt: reject the pending packet behind the simulator's back.
        sim.rejections.append([7], sim.time)
        sim.total_packets += 1  # keep the aggregate count consistent
        sim.step()
        assert sim.in_flight == 0 and checker.ok
        sim.step()  # the packet enters the network
        sim.step()
        assert [(v.time, v.message) for v in checker.violations] == [
            (t, "packet 7 queued despite admission rejection") for t in (3, 4)
        ]

    def test_rewritten_rejection_ledger_is_recounted(self):
        """Deleting a row of the rejection ledger changes rows already read:
        the oracle recounts the whole ledger and the sum breaks."""
        mesh = Mesh(6)
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(2), [], validate=False)
        checker = attach_checker(sim, [PacketConservationOracle()], mode="record")
        sim.offer_packets(0, np.zeros(4, dtype=np.int64), np.full(4, 35))
        sim.step()
        assert checker.ok and sim.rejections.pid.tolist() == [2, 3]
        forget_first_row(sim.rejections)
        sim.step()
        assert messages(checker) == [
            "conservation broken: delivered 0 + queued 2 + pending 0 + dropped 0 "
            "+ rejected 1 != total 4"
        ]

    def test_forgotten_delivery_is_flagged(self):
        """Deleting the first row of the delivery ledger shrinks the
        delivered set and breaks the sum; both are reported."""
        mesh = Mesh(6)
        packets = random_permutation(mesh, seed=1)
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(4), packets)
        checker = attach_checker(sim, [PacketConservationOracle()], mode="record")
        while not sim.delivered_count:
            sim.step()
        forget_first_row(sim.deliveries)
        sim.step()
        assert messages(checker) == [
            "conservation broken: delivered 12 + queued 23 + pending 0 + dropped 0 "
            "+ rejected 0 != total 36",
            "delivered set shrank (lost pids [1])",
        ]

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

    def test_clone_of_delivered_packet_stays_queued(self):
        """A delivered packet's clone, queued far from its destination for
        two steps: each step reports it as still queued after delivery,
        and the counts."""
        mesh = Mesh(6)
        packet = Packet(0, (0, 0), (0, 1))
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(4), [packet], validate=False)
        checker = attach_checker(sim, [PacketConservationOracle()], mode="record")
        sim.step()
        # In the corner farthest from its destination, 9 hops away.
        plant_copy(sim, packet, (5, 5))
        sim.step()
        sim.step()
        assert messages(checker) == [
            "packet 0 still queued after delivery",
            "in-flight counter 0 != queued packets 1",
            "conservation broken: delivered 1 + queued 1 + pending 0 + dropped 0 "
            "+ rejected 0 != total 1",
        ] * 2

    def test_clone_delivered_again(self):
        """A clone one hop from its destination is delivered a second time
        in the step after it was planted: the ledger then holds that pid
        twice, which counts once, and only the in-flight counter
        (decremented twice) is off."""
        mesh = Mesh(6)
        packet = Packet(0, (0, 0), (0, 1))
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(4), [packet], validate=False)
        checker = attach_checker(sim, [PacketConservationOracle()], mode="record")
        sim.step()
        plant_copy(sim, packet, (0, 0))
        sim.step()
        assert sim.deliveries.pid.tolist() == [0, 0]
        assert len(sim.delivery_times) == 1
        assert messages(checker) == ["in-flight counter -1 != queued packets 0"]

    def test_wrong_node_delivery_is_flagged(self):
        """A packet delivered away from the destination its caller gave:
        on the array engine its working destination was moved next to the
        source; on the reference engine its destination is moved away
        once it is delivered."""
        mesh = Mesh(6)
        if self.engine == "array":
            packet = Packet(0, (0, 0), (5, 5))
        else:
            packet = Packet(0, (0, 0), (1, 0))
        sim = build(self.engine, mesh, GreedyAdaptiveRouter(2), [packet], validate=False)
        checker = attach_checker(sim, [PacketConservationOracle()], mode="record")
        if self.engine == "array":
            sim._state.destf[0] = mesh.node_index((1, 0))
        else:
            # The reference engine's Packet is the caller's own object.
            sim.post_step_hooks.insert(0, lambda s, m: setattr(packet, "dest", (5, 5)))
        sim.step()
        assert sim.delivered_count == 1
        assert messages(checker) == [
            "packet 0 recorded delivered at (1, 0), destination is (5, 5)"
        ]


class TestConservationOracleOnArrays(TestConservationOracle):
    """The same tests on the array engine, corruption planted in ArrayState."""

    engine = "array"


class TestStepBoundOracle:
    engine = "reference"

    def test_theorem15_budget_enforced(self):
        mesh = Mesh(8)
        router = BoundedDimensionOrderRouter(1)
        bound = router.permutation_step_bound(8)
        sim = build(self.engine, mesh, router, random_permutation(mesh, seed=0))
        checker = attach_checker(sim, [StepBoundOracle(bound)], mode="strict")
        result = sim.run(bound)
        checker.finish()
        assert result.completed and checker.ok

    def test_absurdly_small_bound_fires(self):
        mesh = Mesh(8)
        packets = random_permutation(mesh, seed=0)
        sim = build(self.engine, mesh, BoundedDimensionOrderRouter(1), packets)
        checker = attach_checker(sim, [StepBoundOracle(1)], mode="record")
        sim.run(50)
        assert messages(checker)[0] == (
            "step 2 exceeds the proven bound 1 with 54 packet(s) undelivered"
        )

    def test_distance_floor_checked_at_finish(self):
        mesh = Mesh(8)
        packets = random_permutation(mesh, seed=0)
        sim = build(self.engine, mesh, BoundedDimensionOrderRouter(1), packets)
        checker = attach_checker(sim, [StepBoundOracle(None)], mode="record")
        sim.run(5_000)
        assert checker.finish() == []
        # Plant a second delivery of a packet, at step 0, below its floor:
        # finish() must object.
        p = next(p for p in packets if p.source != p.dest)
        sim.deliveries.append(np.array([p.pid]), 0)
        checker.finish()
        assert messages(checker) == [
            f"packet {p.pid} delivered at step 0, before its distance floor "
            f"{mesh.distance(p.source, p.dest)}"
        ]


class TestStepBoundOracleOnArrays(TestStepBoundOracle):
    engine = "array"


class TestStepBoundFloors:
    """Each engine's distance floors, from its step view, are the closed
    form: queued packets at attach time ``t`` cannot arrive before ``t``
    plus their distance to go, pending ones before their injection time
    plus their source-to-destination distance."""

    @pytest.mark.parametrize("engine", ["reference", "array"])
    @pytest.mark.parametrize("topology", [Mesh(7), Torus(6)], ids=["mesh", "torus"])
    @pytest.mark.parametrize("steps_before_attach", [0, 3])
    def test_floors_are_the_closed_form(self, engine, topology, steps_before_attach):
        packets = list(random_permutation(topology, seed=4))  # appended to below
        # Some packets wait in the pending pool, some start at their goal.
        for p in packets[::5]:
            p.injection_time = 2 + p.pid % 7
        packets.append(Packet(len(packets), (1, 1), (1, 1), injection_time=5))
        sim = Simulator(
            topology, GreedyAdaptiveRouter(2, "incoming"), [p.copy() for p in packets],
            engine=engine,
        )
        for _ in range(steps_before_attach):
            sim.step()
        oracle = StepBoundOracle(None)
        attach_checker(sim, [oracle], mode="strict")
        floors = dict(zip(oracle._pids.tolist(), oracle._floors.tolist()))
        assert oracle._pids.tolist() == sorted(floors)
        queued = {p.pid: p.pos for p in sim.iter_packets()}
        delivered = sim.delivery_times
        expected = {
            p.pid: steps_before_attach + topology.distance(queued[p.pid], p.dest)
            if p.pid in queued
            else p.injection_time + topology.distance(p.source, p.dest)
            for p in packets
            if p.pid not in delivered
        }
        assert floors == expected
        if steps_before_attach == 0:
            assert floors == {
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
