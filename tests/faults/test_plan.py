"""Unit and property tests for the deterministic fault plans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import (
    BernoulliLinkPlan,
    CompositeFaultPlan,
    Outage,
    RenewalOutagePlan,
    ScheduledOutagePlan,
    counter_draw,
    link_draw,
)
from repro.mesh import Mesh, Simulator
from repro.mesh.directions import Direction
from repro.routing import BoundedDimensionOrderRouter
from repro.workloads import random_permutation


class TestCounterDraw:
    def test_in_unit_interval(self):
        for args in [(0,), (0, 1, 2, 3), (7, 0, 0, 0, 10**9)]:
            assert 0.0 <= counter_draw(*args) < 1.0

    def test_pure_function_of_arguments(self):
        a = counter_draw(3, 1, 2, int(Direction.E), 40)
        # Interleave unrelated draws; the repeat must be unaffected.
        counter_draw(3, 9, 9, 9, 9)
        counter_draw(99, 0)
        assert counter_draw(3, 1, 2, int(Direction.E), 40) == a

    def test_distinct_arguments_give_distinct_draws(self):
        draws = {
            counter_draw(seed, x, y, d, t)
            for seed in range(2)
            for x in range(3)
            for y in range(3)
            for d in range(4)
            for t in range(5)
        }
        # 360 argument tuples; a sequential-RNG bug or weak mixing would
        # collapse many of them onto shared values.
        assert len(draws) == 2 * 3 * 3 * 4 * 5

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        x=st.integers(min_value=0, max_value=63),
        y=st.integers(min_value=0, max_value=63),
        d=st.sampled_from(list(Direction)),
        t=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_link_state_consistent_within_a_step(self, seed, x, y, d, t):
        """The same link queried any number of times in one step agrees --
        the exact property the old sequential-RNG stub violated."""
        plan = BernoulliLinkPlan(0.5, seed=seed)
        first = plan.link_up((x, y), d, t)
        for _ in range(3):
            assert plan.link_up((x, y), d, t) == first
        assert link_draw(seed, (x, y), d, t) == link_draw(seed, (x, y), d, t)


class TestBernoulliLinkPlan:
    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_availability_validated(self, bad):
        with pytest.raises(ValueError, match="availability"):
            BernoulliLinkPlan(bad)

    def test_full_availability_short_circuits(self):
        plan = BernoulliLinkPlan(1.0, seed=0)
        assert all(
            plan.link_up((x, y), d, t)
            for x in range(4)
            for y in range(4)
            for d in Direction
            for t in range(50)
        )

    def test_empirical_frequency_tracks_availability(self):
        plan = BernoulliLinkPlan(0.8, seed=11)
        samples = [
            plan.link_up((x, y), d, t)
            for x in range(8)
            for y in range(8)
            for d in Direction
            for t in range(40)
        ]
        freq = sum(samples) / len(samples)
        assert 0.77 < freq < 0.83

    def test_seed_changes_the_history(self):
        a = BernoulliLinkPlan(0.5, seed=0)
        b = BernoulliLinkPlan(0.5, seed=1)
        history_a = [a.link_up((2, 3), Direction.N, t) for t in range(64)]
        history_b = [b.link_up((2, 3), Direction.N, t) for t in range(64)]
        assert history_a != history_b

    def test_nodes_always_up(self):
        assert BernoulliLinkPlan(0.5).node_up((0, 0), 0)


class TestScheduledOutagePlan:
    def test_window_boundaries_are_half_open(self):
        plan = ScheduledOutagePlan([Outage((1, 1), 10, 20)])
        assert plan.node_up((1, 1), 9)
        assert not plan.node_up((1, 1), 10)
        assert not plan.node_up((1, 1), 19)
        assert plan.node_up((1, 1), 20)

    def test_link_outage_fails_only_that_outlink(self):
        plan = ScheduledOutagePlan(
            [Outage((2, 2), 5, 8, direction=Direction.E)]
        )
        assert not plan.link_up((2, 2), Direction.E, 6)
        assert plan.link_up((2, 2), Direction.W, 6)
        assert plan.link_up((3, 2), Direction.W, 6)  # reverse link independent
        assert plan.node_up((2, 2), 6)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError, match="start < end"):
            Outage((0, 0), 5, 5)
        with pytest.raises(ValueError, match="start < end"):
            Outage((0, 0), -1, 3)


class TestRenewalOutagePlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="mttf and mttr"):
            RenewalOutagePlan(0, 5)
        with pytest.raises(ValueError, match="scope"):
            RenewalOutagePlan(10, 5, scope="board")

    def test_starts_up_and_alternates(self):
        plan = RenewalOutagePlan(10, 3, seed=2, scope="node")
        history = [plan.node_up((3, 4), t) for t in range(400)]
        assert history[0]  # window 0 is always an up window
        assert not all(history) and any(not h for h in history)
        # The history is a sequence of alternating runs, never two
        # adjacent down-windows merged with an up-window between them
        # missing -- i.e. it has both states and flips more than once.
        flips = sum(1 for a, b in zip(history, history[1:]) if a != b)
        assert flips >= 2

    def test_state_independent_of_query_order(self):
        forward = RenewalOutagePlan(20, 5, seed=7, scope="node")
        backward = RenewalOutagePlan(20, 5, seed=7, scope="node")
        times = list(range(300))
        a = [forward.node_up((1, 2), t) for t in times]
        b = list(reversed([backward.node_up((1, 2), t) for t in reversed(times)]))
        assert a == b

    def test_scope_selects_entity_kind(self):
        node_plan = RenewalOutagePlan(5, 5, seed=1, scope="node")
        link_plan = RenewalOutagePlan(5, 5, seed=1, scope="link")
        assert all(
            node_plan.link_up((x, 0), Direction.E, t)
            for x in range(4)
            for t in range(100)
        )
        assert all(
            link_plan.node_up((x, 0), t) for x in range(4) for t in range(100)
        )


class TestCompositeFaultPlan:
    def test_intersection_semantics(self):
        always_down = ScheduledOutagePlan([Outage((0, 0), 0, 100)])
        composite = CompositeFaultPlan(BernoulliLinkPlan(1.0), always_down)
        assert not composite.node_up((0, 0), 50)
        assert composite.node_up((1, 1), 50)

    def test_needs_at_least_one_plan(self):
        with pytest.raises(ValueError, match="at least one"):
            CompositeFaultPlan()


def test_has_node_faults_only_when_node_up_is_overridden():
    """The array engine skips its node queries for plans whose nodes are
    always up; every plan that can take a node down says it may."""
    assert not BernoulliLinkPlan(0.5).has_node_faults
    assert ScheduledOutagePlan([Outage((0, 0), 0, 1)]).has_node_faults
    assert RenewalOutagePlan(5.0, 2.0).has_node_faults
    assert CompositeFaultPlan(
        BernoulliLinkPlan(0.5), RenewalOutagePlan(5.0, 2.0)
    ).has_node_faults
    # Plans whose node_up is True by construction say False.
    assert not RenewalOutagePlan(5.0, 2.0, scope="link").has_node_faults
    assert not CompositeFaultPlan(BernoulliLinkPlan(0.5)).has_node_faults
    assert not CompositeFaultPlan(
        BernoulliLinkPlan(0.5), RenewalOutagePlan(5.0, 2.0, scope="link")
    ).has_node_faults


class TestAttach:
    def test_link_filter_fails_links_into_and_out_of_down_nodes(self):
        sim = Simulator(
            Mesh(4), BoundedDimensionOrderRouter(2), [], validate=False
        )
        plan = ScheduledOutagePlan([Outage((1, 1), 0, 10)])
        plan.attach(sim)
        assert sim.link_filter is not None
        # Out of the down node, into it, and an unrelated link.
        assert not sim.link_filter((1, 1), Direction.E, 5)
        assert not sim.link_filter((1, 0), Direction.N, 5)
        assert sim.link_filter((3, 3), Direction.W, 5)
        # After the window the same queries pass.
        assert sim.link_filter((1, 1), Direction.E, 10)

    def test_bernoulli_attach_run_is_reproducible(self):
        def run_once():
            topo = Mesh(6)
            sim = Simulator(
                topo,
                BoundedDimensionOrderRouter(2),
                random_permutation(topo, seed=5),
                validate=False,
            )
            BernoulliLinkPlan(0.9, seed=5).attach(sim)
            result = sim.run(max_steps=500)
            return result.steps, result.delivery_times

        assert run_once() == run_once()
