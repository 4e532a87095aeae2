"""Unit tests for the array-backend step engine: dispatch and guardrails.

The lockstep suites prove the array engine *computes* the same thing as
the reference engine; these tests pin the dispatch contract around it --
when ``Simulator(engine="array")`` engages, that it raises (naming the
supported set) on everything else, and how the backend refuses features
it does not model instead of guessing at them.
"""

import numpy as np
import pytest

from repro.faults.plan import Outage, ScheduledOutagePlan
from repro.mesh import Mesh, Packet, Simulator, Topology, Torus
from repro.mesh.directions import Direction
from repro.mesh.queues import CENTRAL
from repro.mesh.array_engine import ArraySimulator, ported_router_types
from repro.mesh.array_state import OPP
from repro.mesh.errors import QueueOverflowError
from repro.verify.engine_equivalence import LockstepReport, lockstep
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
from tests.conftest import ARRAY_CONFIGURATIONS


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

    @pytest.mark.parametrize(
        "grid,twin",
        [(MeshND((6, 6)), Mesh(6)), (TorusND((6, 6)), Torus(6))],
        ids=["meshnd", "torusnd"],
    )
    def test_2d_grid_runs_like_mesh_and_torus(self, grid, twin):
        """Support is a property of the data (a regular 2D grid with both
        axes wrapped or neither), not of the class that built it."""
        results = []
        for topology in (grid, twin):
            sim = make(topology=topology, algorithm=GreedyAdaptiveRouter(2, "incoming"))
            assert sim.engine_name == "array"
            sim.run(max_steps=500)
            results.append(sim.result())
        assert results[0].completed
        assert results[0] == results[1]

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
        [
            MeshND((4, 4, 4)),
            TorusND((4, 4, 4)),
            SparsePillarMesh(4, layers=3),
            Topology((6, 6), wrap=(True, False)),
        ],
        ids=repr,
    )
    def test_nd_topology_raises(self, topology):
        with pytest.raises(ValueError, match=SUPPORTED):
            Simulator(topology, CreditAdaptiveRouter(2), [], engine="array")

    def test_interceptor_raises(self):
        with pytest.raises(ValueError, match="interceptors.*" + SUPPORTED):
            make(interceptor=lambda s, moves: None)

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

    @pytest.mark.parametrize("engine", ["reference", "array"])
    def test_overflow_in_cell_order(self, engine):
        """Two packets swap places head-on between P and Q above it, each
        into an always-accept N/S queue whose one occupant is held by a
        down link: both queues overflow in step 1.  The first arrival in
        (target, inlink) order is the one into P, though the move from P
        is scheduled first."""
        p, q = (3, 3), (3, 4)
        packets = [
            Packet(0, p, (3, 6)),
            Packet(1, q, (3, 1)),
            Packet(2, p, (3, 0)),  # held in P's N queue
            Packet(3, q, (3, 7)),  # held in Q's S queue
        ]
        sim = Simulator(Mesh(8), BoundedDimensionOrderRouter(1), packets, engine=engine)
        ScheduledOutagePlan(
            [Outage(p, 0, 5, Direction.S), Outage(q, 0, 5, Direction.N)]
        ).attach(sim)
        with pytest.raises(QueueOverflowError) as info:
            sim.step()
        err = info.value
        assert (err.node, err.queue_key, err.occupancy) == (p, Direction.N, 2)

    @pytest.mark.parametrize("engine", ["reference", "array"])
    def test_central_overflow_length(self, engine):
        """Hot-potato's four packets at P are held by down outlinks while
        two neighbours' packets arrive: the first arrival takes P's queue
        to 5 > 4, where the reference engine raises."""
        p = (3, 3)
        packets = [Packet(i, p, d) for i, d in enumerate([(0, 0), (7, 7), (0, 7), (7, 0)])]
        packets += [Packet(4, (2, 3), (5, 3)), Packet(5, (4, 3), (0, 3))]
        sim = Simulator(Mesh(8), HotPotatoRouter(), packets, engine=engine)
        ScheduledOutagePlan([Outage(p, 0, 5, d) for d in Direction]).attach(sim)
        with pytest.raises(QueueOverflowError) as info:
            sim.step()
        err = info.value
        assert (err.node, err.queue_key, err.occupancy) == (p, CENTRAL, 5)

    def test_configurations_cover_every_ported_router_and_regime(self):
        made = [factory() for factory in ARRAY_CONFIGURATIONS.values()]
        assert {type(a) for a in made} == set(ported_router_types())
        regimes = {(type(a), a.queue_spec.kind) for a in made}
        assert len(regimes) == len(made)
        assert {kind for _, kind in regimes} == {"central", "incoming"}

    @pytest.mark.parametrize("topology", [Mesh(8), Torus(8)], ids=["mesh", "torus"])
    @pytest.mark.parametrize("config", sorted(ARRAY_CONFIGURATIONS))
    def test_hook_move_lists(self, config, topology):
        """Object-level post-step hooks (and ``step``'s return value) get
        the reference engine's ScheduledMove list, in (target, inlink)
        order, built only on demand, with each moved Packet's ``pos`` at
        its target."""

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

        router = ARRAY_CONFIGURATIONS[config]
        # Two packets per source: queues fill, and central queues take
        # several arrivals in one step.
        base = list(random_permutation(topology, seed=1))
        base += random_permutation(topology, seed=2)
        packets = [Packet(i, p.source, p.dest) for i, p in enumerate(base)]
        array, reference = (
            Simulator(
                topology,
                router(),
                [p.copy() for p in packets],
                engine=engine,
                validate=False,
            )
            for engine in ("array", "reference")
        )
        array_log, reference_log = seen(array), seen(reference)
        # The step cap bounds the central cells, which may livelock.
        while not reference.done and reference.time < 200:
            returned = array.step()
            expected = reference.step()
            assert len(returned) == len(expected)
            assert [(m.packet.pid, m.target) for m in returned] == [
                (m.packet.pid, m.target) for m in expected
            ]
        assert array.done == reference.done
        assert array_log == reference_log
        assert any(array_log)

    def test_moves_are_built_only_when_iterated(self):
        sim = make()
        moves = sim.step()
        # Unread, the moves are neither sorted into (target, inlink) order
        # nor built.
        assert len(moves) > 0 and moves._cols is None and moves._moves is None
        cells = (moves.target << 2) | OPP[moves.direction]
        assert moves._cols is not None and moves._moves is None
        assert (np.diff(cells) > 0).all()
        assert moves[0].target == (moves.target[0] // 6, moves.target[0] % 6)
        assert moves._moves is not None


def overflow_on(engine, algorithm, packets):
    with pytest.raises(QueueOverflowError) as info:
        Simulator(Mesh(6), algorithm, packets, engine=engine)
    err = info.value
    return err.node, err.queue_key, err.occupancy, err.capacity


class TestBatchedEntry:
    """Load and injection place whole batches at once; every figure the
    one-at-a-time reference placement produces must come out the same."""

    def overloaded(self):
        # Node (4, 4) appears first and creates its S queue (packets heading
        # north) before its E queue (heading west); (1, 1), lower in flat
        # order, is overloaded too (three packets heading north) but
        # appears later.
        return [
            Packet(7, (4, 4), (4, 5)),
            Packet(3, (1, 1), (1, 4)),
            Packet(8, (4, 4), (0, 4)),
            Packet(5, (4, 4), (4, 0)),
            Packet(2, (4, 4), (1, 4)),
            Packet(1, (1, 1), (1, 5)),
            Packet(4, (4, 4), (4, 5)),
            Packet(6, (1, 1), (1, 2)),
        ]

    def created_against_key_order(self):
        # Node (4, 4) creates its S queue (pids 1 and 2 head north) before
        # its E queue (pids 3 and 4 head west): creation order is not key
        # order (E=1 < S=2), and both queues overflow at k=1.
        return [
            Packet(4, (4, 4), (0, 4)),
            Packet(3, (4, 4), (1, 4)),
            Packet(2, (4, 4), (4, 5)),
            Packet(1, (4, 4), (4, 5)),
        ]

    @pytest.mark.parametrize(
        "algorithm",
        [
            lambda: BoundedDimensionOrderRouter(1),
            lambda: GreedyAdaptiveRouter(1, "incoming"),
            lambda: DimensionOrderRouter(2),
            lambda: CreditAdaptiveRouter(1),
            lambda: FarthestFirstRouter(1),
        ],
        ids=[
            "bounded-dor",
            "greedy-incoming",
            "dor-central",
            "credit-adaptive",
            "farthest-first-incoming",
        ],
    )
    def test_load_overflow_reports_the_same_queue(self, algorithm):
        """Both engines report the lowest over-capacity (node, key), whatever
        order the packets are listed and their queues created in."""
        spec = algorithm().queue_spec
        central, k = spec.kind == "central", spec.capacity
        for engine in ("reference", "array"):
            assert overflow_on(engine, algorithm(), self.overloaded()) == (
                (1, 1), CENTRAL if central else Direction.S, 3, k
            )
            assert overflow_on(engine, algorithm(), self.created_against_key_order()) == (
                (4, 4), CENTRAL if central else Direction.E, 4 if central else 2, k
            )

    def test_load_places_like_the_reference(self):
        packets = self.overloaded() + [Packet(9, (2, 3), (2, 3), injection_time=2)]
        sims = {
            engine: Simulator(
                Mesh(6), BoundedDimensionOrderRouter(4), [p.copy() for p in packets],
                engine=engine,
            )
            for engine in ("reference", "array")
        }
        reference, array = sims["reference"], sims["array"]
        assert array.configuration() == reference.configuration()
        assert (array.max_queue_len, array.max_node_load) == (
            reference.max_queue_len,
            reference.max_node_load,
        )
        for _ in range(4):
            reference.step()
            array.step()
            assert array.configuration() == reference.configuration()
        assert array.delivery_times == reference.delivery_times

    @pytest.mark.parametrize(
        "algorithm",
        [lambda: BoundedDimensionOrderRouter(2), lambda: HotPotatoRouter()],
        ids=["bounded-dor", "hot-potato"],
    )
    def test_pending_retries_like_the_reference(self, algorithm):
        """Due packets whose queue is full stay pending, in order, and
        retry; late single injections re-sort the pool."""
        packets = [Packet(i, (0, 0), (5, i % 6), injection_time=1) for i in range(6)]
        packets += [Packet(6 + i, (0, 0), (0, 5), injection_time=2) for i in range(3)]
        packets += [Packet(9, (3, 3), (3, 3), injection_time=1)]
        packets += [Packet(10, (2, 4), (4, 1))]
        sims = {
            engine: Simulator(
                Mesh(6), algorithm(), [p.copy() for p in packets], engine=engine
            )
            for engine in ("reference", "array")
        }
        for t in range(12):
            if t == 2:
                for sim in sims.values():
                    sim.inject_packet(Packet(30, (1, 1), (4, 4), injection_time=3))
                    sim.inject_packet(Packet(20, (0, 0), (5, 0), injection_time=2))
            for sim in sims.values():
                sim.step()
            reference, array = sims["reference"], sims["array"]
            assert array.configuration() == reference.configuration()
            assert (array.pending_count, array.injected_packets) == (
                reference.pending_count,
                reference.injected_packets,
            )
            assert array.delivery_times == reference.delivery_times
        assert sims["array"].injected_packets == 11

    @pytest.mark.parametrize("engine", ["reference", "array"])
    def test_offers_take_one_call_per_step(self, engine):
        sim = Simulator(Mesh(4), BoundedDimensionOrderRouter(2), [], engine=engine)
        east = np.array([0, 0, 0]), np.array([12, 12, 13])  # all into (0,0)'s W queue
        # Within the call, earlier offers to a queue count against it.
        assert sim.offer_packets(0, *east).tolist() == [True, True, False]
        # A second call in the same step is refused and changes nothing.
        with pytest.raises(ValueError, match="already called at step 0"):
            sim.offer_packets(3, np.array([0]), np.array([3]))
        assert sim.rejected == {2: 0}
        assert (sim.total_packets, sim.pending_count) == (3, 2)
        sim.step()  # the admitted offers enter, one leaves the W queue
        assert sim.injected_packets == 2 and sim.in_flight == 2
        # The next step takes a call again: one place is free in the queue.
        assert sim.offer_packets(3, *east).tolist() == [True, False, False]

    @pytest.mark.parametrize("engine", ["reference", "array"])
    def test_offers_reject_known_pids_and_foreign_nodes(self, engine):
        sim = Simulator(Mesh(4), BoundedDimensionOrderRouter(2), [], engine=engine)
        sim.offer_packets(0, np.array([0, 1]), np.array([5, 6]))
        with pytest.raises(ValueError, match="duplicate packet id 1"):
            sim.offer_packets(1, np.array([2]), np.array([3]))
        with pytest.raises(ValueError, match="packet 9 endpoints outside"):
            sim.offer_packets(8, np.array([1, 16]), np.array([2, 3]))


class TestQueueOrder:
    """A node's queues are scanned in key order (N, E, S, W), not in the
    order they were created in."""

    def turners_against_key_order(self):
        # Node (2, 2) creates its W queue (pid 1 heads east) before its E
        # queue (pid 2 heads west).  On step 1 both leave, and pids 3 and 4
        # arrive in those queues, each turning north to (2, 5): two turners,
        # three hops out, competing for the N outlink with no straight
        # (S queue) candidate.  A loaded packet always sits in its straight
        # queue, so turners meet only after a transit step.
        return [
            Packet(1, (2, 2), (5, 2)),
            Packet(2, (2, 2), (0, 2)),
            Packet(3, (1, 2), (2, 5)),
            Packet(4, (3, 2), (2, 5)),
        ]

    @pytest.mark.parametrize(
        "algorithm",
        [lambda: BoundedDimensionOrderRouter(2), lambda: FarthestFirstRouter(2)],
        ids=["bounded-dor", "farthest-first-incoming"],
    )
    @pytest.mark.parametrize("engine", ["reference", "array"])
    def test_turner_from_the_lower_key_goes_first(self, algorithm, engine):
        sim = Simulator(
            Mesh(6), algorithm(), self.turners_against_key_order(), engine=engine
        )
        sim.step()
        waiting = sim.queues[(2, 2)]
        assert [p.pid for p in waiting[Direction.W]] == [3]
        assert [p.pid for p in waiting[Direction.E]] == [4]
        moves = {m.packet.pid: m.direction for m in sim.step() if m.src == (2, 2)}
        assert moves == {4: Direction.N}


class TestPackedSortKeys:
    """Phase (a) sorts one packed ``(fields, qseq)`` int64 key per packet;
    sequence numbers too large for the bits the fields leave are
    renumbered densely, in order, instead of overflowing."""

    @pytest.mark.parametrize(
        "algorithm",
        [
            lambda: GreedyAdaptiveRouter(2, "incoming"),
            lambda: BoundedDimensionOrderRouter(2),
        ],
        ids=["greedy-incoming", "bounded-dor"],
    )
    @pytest.mark.parametrize("pids", ["huge", "negative"])
    def test_user_pids_run_in_lockstep(self, algorithm, pids):
        mesh = Mesh(12)
        # Two packets per source, so load-time FIFO order decides which
        # leaves first.
        base = random_permutation(mesh, seed=3) + random_permutation(mesh, seed=4)
        count = len(base)
        # Distinct pids in an order unrelated to the load order.  Load-time
        # sequence numbers are the pids: the huge ones (at least 2**50)
        # need more bits than any packed key leaves for them, and negative
        # ones cannot be packed at all.
        scrambled = [(i * 37) % count for i in range(count)]
        if pids == "huge":
            labels = [(j + 1) << 50 for j in scrambled]
        else:
            labels = [-j - 1 for j in scrambled]
        packets = [Packet(pid, p.source, p.dest) for pid, p in zip(labels, base)]
        reference = Simulator(mesh, algorithm(), [p.copy() for p in packets])
        array = Simulator(
            mesh, algorithm(), [p.copy() for p in packets], engine="array"
        )
        report = LockstepReport(f"{pids}-pids", "permutation", 12, 2, 3)
        lockstep(reference, array, 2000, report)
        assert report.ok, report.findings
        assert reference.done and report.steps > 0
        # Renumbered: a step advances the counter by one number per
        # (node, inlink) cell, so unrenumbered huge pids would exceed this.
        assert 0 <= array._seq <= count + 4 * mesh.num_nodes * array.time

    @pytest.mark.parametrize(
        "algorithm,field_bits",
        [
            (lambda: GreedyAdaptiveRouter(2, "incoming"), lambda g: g.node_bits + 2),
            (lambda: BoundedDimensionOrderRouter(2), lambda g: g.node_bits + 5),
            (lambda: DimensionOrderRouter(4), lambda g: g.node_bits + 2),
            (
                lambda: FarthestFirstRouter(2),
                lambda g: g.node_bits + 5 + g.dist_bits,
            ),
        ],
        ids=["greedy-incoming", "bounded-dor", "dor", "farthest-first-incoming"],
    )
    def test_mid_run_renumbering_runs_in_lockstep(self, algorithm, field_bits):
        """Arrivals take the counter plus their (target, inlink) cell, so
        in-network sequence numbers are sparse and far apart.  With the
        counter pushed to just under the limit of the kernel's packed
        phase (a) key (``field_bits`` is what its fields use), the next
        step's arrivals push it over and phase (a) renumbers them."""
        mesh = Mesh(12)
        base = random_permutation(mesh, seed=3) + random_permutation(mesh, seed=4)
        packets = [Packet(i, p.source, p.dest) for i, p in enumerate(base)]
        reference = Simulator(mesh, algorithm(), [p.copy() for p in packets])
        array = Simulator(
            mesh, algorithm(), [p.copy() for p in packets], engine="array"
        )
        renumbered = []
        renumber = array._renumber_qseq
        array._renumber_qseq = lambda: (renumbered.append(array.time), renumber())
        report = LockstepReport("renumber", "permutation", 12, 2, 3)
        lockstep(reference, array, 3, report)
        assert report.ok and not renumbered, report.findings
        limit = 1 << (63 - field_bits(array._state.geom))
        array._seq = limit - 1
        lockstep(reference, array, 400, report)
        assert report.ok, report.findings
        # Step 4's arrivals take the counter past the limit: the first
        # packed sort after them renumbers (the configuration read of step
        # 4 when its key is as wide as the kernel's, else step 5's phase
        # (a)), once.
        assert renumbered in ([4], [5])
        assert array._seq < limit

    @pytest.mark.parametrize("bits", [8, 40, 61], ids=["wide", "medium", "no-room"])
    def test_fifo_order_matches_lexsort(self, bits):
        sim = make(algorithm=GreedyAdaptiveRouter(2, "incoming"))
        sim.step()
        act = sim._act
        st = sim._state
        major = st.posf[act] % 5  # ties, so the FIFO tiebreak decides
        expected = np.lexsort((st.qseq[act], major))
        assert np.array_equal(sim._fifo_order(act, (major, bits)), expected)
