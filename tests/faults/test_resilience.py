"""Resilience layer: conservative queueing, drops, retransmission."""

import pytest

from repro.faults import (
    BernoulliLinkPlan,
    CompositeFaultPlan,
    ConservativeBoundedDimensionOrderRouter,
    FaultPlan,
    Outage,
    RenewalOutagePlan,
    ResilienceManager,
    ScheduledOutagePlan,
    run_faulty,
)
from repro.mesh import Mesh, Simulator
from repro.mesh.packet import Packet
from repro.verify.oracles import (
    PacketConservationOracle,
    QueueBoundOracle,
    attach_checker,
)
from repro.workloads import random_permutation


def fresh_sim(packets, n=4, k=2, validate=False):
    return Simulator(
        Mesh(n),
        ConservativeBoundedDimensionOrderRouter(k),
        packets,
        validate=validate,
    )


class TestSimulatorFaultHooks:
    def test_drop_packet_removes_from_queue_and_counts(self):
        p = Packet(0, (0, 0), (3, 3))
        sim = fresh_sim([p])
        assert sim.packets_at((0, 0)) == [p]
        sim.drop_packet(p)
        assert sim.packets_at((0, 0)) == []
        assert sim.dropped == {0: 0}
        assert sim.done  # dropped counts as resolved

    def test_drop_pending_removes_future_injection(self):
        p = Packet(0, (0, 0), (3, 3), injection_time=10)
        sim = fresh_sim([p])
        sim.drop_pending(0)
        assert sim.dropped == {0: 0}
        assert sim.pending_count == 0
        with pytest.raises(ValueError, match="not pending"):
            sim.drop_pending(0)

    def test_inject_packet_mid_run(self):
        sim = fresh_sim([Packet(0, (0, 0), (1, 0))])
        sim.step()
        sim.inject_packet(Packet(1, (2, 2), (2, 2), injection_time=sim.time + 1))
        assert sim.total_packets == 2
        result = sim.run(max_steps=50)
        assert result.completed and result.delivered == 2

    def test_inject_packet_rejects_duplicate_and_offgrid(self):
        sim = fresh_sim([Packet(0, (0, 0), (3, 3))])
        with pytest.raises(ValueError, match="duplicate packet id"):
            sim.inject_packet(Packet(0, (1, 1), (2, 2)))
        with pytest.raises(ValueError, match="outside topology"):
            sim.inject_packet(Packet(7, (9, 9), (0, 0)))

    def test_conservation_oracle_accounts_for_drops(self):
        packets = [Packet(0, (0, 0), (3, 3)), Packet(1, (3, 3), (0, 0))]
        sim = fresh_sim(packets)
        checker = attach_checker(
            sim, [PacketConservationOracle()], mode="strict"
        )
        sim.drop_packet(packets[0])
        sim.run(max_steps=50)  # strict mode: any imbalance would raise
        checker.finish()
        assert sim.dropped == {0: 0}
        assert sim.delivery_times.keys() == {1}


class TestConservativeRouter:
    def test_never_overflows_under_heavy_flakiness(self):
        topo = Mesh(8)
        sim = Simulator(
            topo,
            ConservativeBoundedDimensionOrderRouter(1),
            random_permutation(topo, seed=0),
            validate=False,
        )
        BernoulliLinkPlan(0.5, seed=0).attach(sim)
        checker = attach_checker(sim, [QueueBoundOracle()], mode="record")
        sim.run(max_steps=2000)
        checker.finish()
        assert checker.violations == []

    def test_contract_model_blockable_everywhere(self):
        model = ConservativeBoundedDimensionOrderRouter(2).enumerate_transitions(
            Mesh(4), 2
        )
        assert model is not None
        assert "accept-if-space" in model.note


class TestResilienceManager:
    def test_validation(self):
        sim = fresh_sim([])
        with pytest.raises(ValueError, match="timeout"):
            ResilienceManager(sim, FaultPlan(), timeout=0)
        with pytest.raises(ValueError, match="max_retransmits"):
            ResilienceManager(sim, FaultPlan(), timeout=5, max_retransmits=-1)

    def test_node_outage_drops_then_retransmits_to_completion(self):
        """A packet parked at a node that dies is dropped, re-injected at
        its source after the timeout, and eventually delivered."""
        p = Packet(0, (0, 0), (3, 0))
        sim = fresh_sim([p], n=4)
        # Node (1, 0) is down for steps 1..40: the eastbound packet gets
        # dropped (it cannot reach (1,0) -- links into a down node fail --
        # unless it is already there; kill its source instead).
        plan = ScheduledOutagePlan([Outage((0, 0), 1, 40)])
        plan.attach(sim)
        # timeout=25: the first retransmit (step 25) also dies at the
        # still-down source; the second (step 50) finally gets through.
        manager = ResilienceManager(sim, plan, timeout=25)
        sim.run(200, until=lambda: manager.settled)
        assert manager.dropped_by_outage >= 1
        assert manager.retransmissions >= 1
        assert 0 in manager.delivered_at
        assert manager.delivered_fraction == 1.0
        # Latency is measured against the *original* injection time.
        assert manager.latencies()[0] >= 40

    def test_duplicate_suppression_keeps_conservation(self):
        """When the original survives after all, late copies are dropped
        the moment the first one arrives; strict conservation holds."""
        topo = Mesh(6)
        sim = Simulator(
            topo,
            ConservativeBoundedDimensionOrderRouter(2),
            random_permutation(topo, seed=3),
            validate=False,
        )
        plan = BernoulliLinkPlan(0.6, seed=4)
        plan.attach(sim)
        checker = attach_checker(
            sim, [PacketConservationOracle()], mode="strict"
        )
        manager = ResilienceManager(sim, plan, timeout=15)
        sim.run(1500, until=lambda: manager.settled)
        checker.finish()
        assert manager.delivered_fraction == 1.0
        assert manager.retransmissions > 0
        # Every original delivered exactly once; surplus copies dropped.
        assert len(sim.delivery_times) == manager.originals
        assert len(sim.dropped) == manager.retransmissions

    def test_settled_semantics(self):
        p = Packet(0, (0, 0), (3, 3))
        sim = fresh_sim([p])
        # The destination is dead forever: delivery is impossible.
        plan = ScheduledOutagePlan([Outage((3, 3), 0, 10**6)])
        plan.attach(sim)
        manager = ResilienceManager(sim, plan, timeout=5, max_retransmits=2)
        assert not manager.settled  # retransmission budget remains
        sim.run(100, until=lambda: manager.settled)
        assert manager.settled
        assert manager._attempts[0] == 2
        assert manager.delivered_fraction == 0.0

    def test_counters_shape(self):
        sim = fresh_sim([Packet(0, (0, 0), (1, 1))])
        manager = ResilienceManager(sim, FaultPlan(), timeout=50)
        sim.run(50, until=lambda: manager.settled)
        assert manager.counters() == {
            "originals": 1,
            "delivered_originals": 1,
            "retransmissions": 0,
            "dropped_by_outage": 0,
        }


class TestRunFaulty:
    def test_retransmission_recovers_most_of_an_outage_heavy_run(self):
        """The verified headline scenario: Bernoulli flakiness plus a node
        renewal process; retransmission recovers 63/64 originals."""
        topo = Mesh(8)
        plan = CompositeFaultPlan(
            BernoulliLinkPlan(0.9, seed=3),
            RenewalOutagePlan(60, 8, seed=5, scope="node"),
        )
        report = run_faulty(
            topo,
            ConservativeBoundedDimensionOrderRouter(2),
            random_permutation(topo, seed=1),
            plan,
            max_steps=2000,
            retransmit_timeout=50,
        )
        metrics = report.to_metrics()
        assert metrics["originals"] == 64
        assert metrics["delivered_fraction"] >= 0.9
        assert metrics["retransmissions"] > 0
        assert metrics["queue_bound_violations"] == 0
        assert not report.overflowed

    def test_fault_free_run_is_clean_and_complete(self):
        topo = Mesh(6)
        report = run_faulty(
            topo,
            ConservativeBoundedDimensionOrderRouter(2),
            random_permutation(topo, seed=0),
            FaultPlan(),
            max_steps=500,
        )
        assert report.ok
        m = report.to_metrics()
        assert m["completed"] and m["delivered_fraction"] == 1.0
        assert m["dropped_packets"] == 0 and m["retransmissions"] == 0
        assert m["latency_p50"] is not None
        assert m["latency_p50"] <= m["latency_p99"]
