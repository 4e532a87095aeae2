"""Asynchronous links: i.i.d. Bernoulli link availability attached to a
simulator, and which of the paper's synchrony-based guarantees survive it."""

import pytest

from repro.faults import BernoulliLinkPlan, ConservativeBoundedDimensionOrderRouter
from repro.mesh import Mesh, Simulator
from repro.mesh.errors import QueueOverflowError
from repro.routing import BoundedDimensionOrderRouter, GreedyAdaptiveRouter, HotPotatoRouter
from repro.workloads import random_permutation


class TestBernoulliAttach:
    def test_validation(self):
        mesh = Mesh(4)
        sim = Simulator(mesh, GreedyAdaptiveRouter(2), [])
        with pytest.raises(ValueError):
            BernoulliLinkPlan(0.0).attach(sim)
        with pytest.raises(ValueError):
            BernoulliLinkPlan(1.5).attach(sim)

    def test_full_availability_is_identity(self):
        mesh = Mesh(10)
        base = Simulator(
            mesh, GreedyAdaptiveRouter(2, "incoming"), random_permutation(mesh, seed=0)
        ).run(10_000)
        flaky = BernoulliLinkPlan(1.0).attach(
            Simulator(
                mesh, GreedyAdaptiveRouter(2, "incoming"), random_permutation(mesh, seed=0)
            )
        ).run(10_000)
        assert base.delivery_times == flaky.delivery_times

    def test_reproducible_given_seed(self):
        mesh = Mesh(10)
        runs = []
        for _ in range(2):
            sim = BernoulliLinkPlan(0.8, seed=42).attach(
                Simulator(
                    mesh,
                    GreedyAdaptiveRouter(2, "incoming"),
                    random_permutation(mesh, seed=3),
                )
            )
            runs.append(sim.run(20_000))
        assert runs[0].delivery_times == runs[1].delivery_times


class TestSynchronyAssumptions:
    def test_theorem15_overflows_under_asynchrony(self):
        """The always-accept N/S rule is sound only because the synchronous
        model guarantees ejection; flaky links void the guarantee."""
        mesh = Mesh(16)
        sim = BernoulliLinkPlan(0.9, seed=1).attach(
            Simulator(
                mesh, BoundedDimensionOrderRouter(1), random_permutation(mesh, seed=0)
            )
        )
        with pytest.raises(QueueOverflowError):
            sim.run(5_000)

    def test_conservative_variant_is_safe_and_completes(self):
        mesh = Mesh(16)
        for avail in (0.9, 0.7):
            sim = BernoulliLinkPlan(avail, seed=1).attach(
                Simulator(
                    mesh,
                    ConservativeBoundedDimensionOrderRouter(1),
                    random_permutation(mesh, seed=0),
                )
            )
            result = sim.run(50_000)
            assert result.completed
            assert result.max_queue_len <= 1

    def test_adaptive_incoming_is_robust(self):
        mesh = Mesh(16)
        sim = BernoulliLinkPlan(0.7, seed=2).attach(
            Simulator(
                mesh,
                GreedyAdaptiveRouter(2, "incoming"),
                random_permutation(mesh, seed=0),
            )
        )
        result = sim.run(50_000)
        assert result.completed

    def test_hot_potato_bufferless_guarantee_breaks(self):
        """Deflection routing *requires* draining every packet every step;
        down outlinks make that impossible and the node overflows."""
        mesh = Mesh(16)
        sim = BernoulliLinkPlan(0.6, seed=3).attach(
            Simulator(mesh, HotPotatoRouter(), random_permutation(mesh, seed=0))
        )
        with pytest.raises(QueueOverflowError):
            sim.run(5_000)

    def test_slowdown_grows_as_availability_drops(self):
        mesh = Mesh(12)
        steps = {}
        for avail in (1.0, 0.8, 0.6):
            sim = BernoulliLinkPlan(avail, seed=4).attach(
                Simulator(
                    mesh,
                    GreedyAdaptiveRouter(2, "incoming"),
                    random_permutation(mesh, seed=5),
                )
            )
            result = sim.run(50_000)
            assert result.completed
            steps[avail] = result.steps
        assert steps[0.6] > steps[1.0]
