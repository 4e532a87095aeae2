"""Property tests for the batched counter draws.

``run_streaming`` draws one step's arrivals for every node at once
(:meth:`ArrivalProcess.arrivals_array`), and the array engine masks a
step's moves with :meth:`BernoulliLinkPlan.link_up_array`.  Both continue
per-entity prefix tables (:func:`repro.faults.plan.counter_prefix_array`)
with the step's counters.  Every batched query must equal its scalar
reference -- :func:`counter_draw`, :meth:`BernoulliLinkPlan.link_up` and
the per-source :meth:`ArrivalProcess.arrivals` -- exactly, element by
element.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.plan import (
    BernoulliLinkPlan,
    counter_continue_array,
    counter_draw,
    counter_draw_array,
    counter_prefix_array,
)
from repro.mesh import Mesh, Torus
from repro.mesh.directions import Direction
from repro.streaming import (
    MAX_ARRIVALS_PER_STEP,
    PROCESS_NAMES,
    ArrivalProcess,
    DestinationModel,
    PoissonArrivals,
    build_process,
)

#: int64-representable counters, reaching past 2**32 and below zero.
counters = st.integers(min_value=-(2**62), max_value=2**62)


@st.composite
def mixed_counters(draw):
    """A list of counters, each a Python int or an int64 array (one length)."""
    length = draw(st.integers(min_value=1, max_value=6))
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=5))
    return [
        np.array(draw(st.lists(counters, min_size=length, max_size=length)), dtype=np.int64)
        if is_array
        else draw(st.one_of(counters, st.integers(min_value=-(2**80), max_value=2**80)))
        for is_array in kinds
    ]


#: Seeds on both sides of the int64 and uint64 ranges.
seeds = st.integers(min_value=-(2**64), max_value=2**65)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, args=mixed_counters(), split=st.integers(min_value=0, max_value=5))
@example(seed=-1, args=[3, np.array([0, 7], dtype=np.int64)], split=1)
@example(seed=2**63, args=[3, np.array([0, 7], dtype=np.int64)], split=2)
def test_counter_draw_array_equals_scalar_elementwise(seed, args, split):
    """So does a prefix of the leading ``split`` counters, continued."""
    batched = np.atleast_1d(counter_draw_array(seed, *args))
    head, tail = args[:split], args[split:]
    continued = counter_continue_array(counter_prefix_array(seed, *head), *tail)
    assert np.array_equal(np.atleast_1d(continued), batched)
    length = max((len(c) for c in args if isinstance(c, np.ndarray)), default=1)
    assert batched.shape == (length,)
    for i in range(length):
        scalar = [int(c[i]) if isinstance(c, np.ndarray) else c for c in args]
        assert batched[i] == counter_draw(seed, *scalar)  # exact, not approx


def grid_links(topology):
    """Every (x, y, direction) of ``topology``'s nodes, as int64 columns."""
    xs, ys = np.repeat(topology.coords, len(Direction), axis=1)
    dirs = np.tile(np.arange(len(Direction), dtype=np.int64), topology.num_nodes)
    return xs, ys, dirs


def assert_link_mask_is_scalar(plan, xs, ys, dirs, time):
    up = plan.link_up_array(xs, ys, dirs, time)
    assert up.dtype == bool and up.shape == xs.shape
    assert up.tolist() == [
        plan.link_up((x, y), Direction(d), time)
        for x, y, d in zip(xs.tolist(), ys.tolist(), dirs.tolist())
    ]


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    availability=st.floats(min_value=0.01, max_value=0.99),
    extents=st.lists(
        st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=4
    ),
    time=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_link_prefix_table_equals_scalar_link_up(seed, availability, extents, time, data):
    """One plan queried on boxes of varying extent: the table grows past
    its first extent and stays exact on every later query."""
    plan = BernoulliLinkPlan(availability, seed=seed)
    for i, (w, h) in enumerate(extents):
        size = data.draw(st.integers(1, 40))
        xs = np.array(data.draw(st.lists(st.integers(0, w - 1), min_size=size, max_size=size)))
        ys = np.array(data.draw(st.lists(st.integers(0, h - 1), min_size=size, max_size=size)))
        dirs = np.array(data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)))
        assert_link_mask_is_scalar(plan, xs, ys, dirs, time + i)


def test_one_link_plan_is_exact_on_any_grid():
    """A plan first queried on Mesh(5), then on the taller, narrower
    Mesh(3, 9) and back, for negative and past-2**63 seeds."""
    for seed in (0, -1, -(2**63), 2**63, 2**64 - 1, 2**64 + 5):
        plan = BernoulliLinkPlan(0.6, seed=seed)
        for t, topology in enumerate((Mesh(5), Mesh(3, 9), Mesh(5), Mesh(12, 2))):
            assert_link_mask_is_scalar(plan, *grid_links(topology), t)


def test_links_off_the_table_hash_directly():
    """Negative coordinates (on no grid) and a box too large to tabulate
    are answered by hashing, exactly, and leave the table as it was."""
    plan = BernoulliLinkPlan(0.5, seed=7)
    assert_link_mask_is_scalar(plan, *grid_links(Mesh(4)), 1)
    table = plan._table
    negative = np.array([-3, 0, 2], dtype=np.int64)
    assert_link_mask_is_scalar(plan, negative, np.array([1, -1, 2]), np.array([0, 1, 3]), 2)
    far = np.array([2, 2**40], dtype=np.int64)
    assert_link_mask_is_scalar(plan, far, np.array([1, 3]), np.array([0, 2]), 3)
    assert plan._table is table


TOPOLOGIES = [Mesh(2), Mesh(5), Mesh(3, 7), Torus(4), Torus(6), Mesh(8)]


def scalar_offers(process, topology, time):
    """The concatenated scalar arrivals, as (source, destination) flat ids."""
    return [
        (topology.node_index(node), topology.node_index(dest))
        for node in topology.nodes()
        for dest in process.arrivals(topology, node, time)
    ]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(PROCESS_NAMES),
    topology=st.sampled_from(TOPOLOGIES),
    rate=st.floats(min_value=0.0, max_value=80.0),
    seed=st.integers(min_value=0, max_value=2**31),
    time=st.integers(min_value=0, max_value=10**5),
)
def test_arrivals_array_equals_concatenated_scalar_arrivals(name, topology, rate, seed, time):
    process = build_process(name, rate, seed=seed)
    sources, dests = process.arrivals_array(topology, time)
    assert sources.dtype == dests.dtype == np.int64
    assert list(zip(sources.tolist(), dests.tolist())) == scalar_offers(
        process, topology, time
    )


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(PROCESS_NAMES),
    rate=st.floats(min_value=0.0, max_value=6.0),
    seed=seeds,
    time=st.integers(min_value=0, max_value=10**5),
)
@example(name="hotspot", rate=1.0, seed=-5, time=3)
@example(name="onoff", rate=1.0, seed=2**63 + 1, time=3)
def test_one_process_is_exact_on_any_grid(name, rate, seed, time):
    """The per-node prefix tables are per grid shape: one process queried
    on Mesh(5), then Mesh(3, 9), then Mesh(5) again matches the scalar
    arrivals each time."""
    process = build_process(name, rate, seed=seed)
    for i, topology in enumerate((Mesh(5), Mesh(3, 9), Mesh(5))):
        sources, dests = process.arrivals_array(topology, time + i)
        assert list(zip(sources.tolist(), dests.tolist())) == scalar_offers(
            process, topology, time + i
        )


def test_rates_past_the_cap_are_capped_on_both_paths():
    topology = Mesh(4)
    process = build_process("poisson", 80.0, seed=1)
    sources, dests = process.arrivals_array(topology, 3)
    counts = np.bincount(sources, minlength=topology.num_nodes)
    assert counts.max() == MAX_ARRIVALS_PER_STEP
    assert list(zip(sources.tolist(), dests.tolist())) == scalar_offers(process, topology, 3)


def test_arrivals_array_is_query_order_independent():
    """The on/off window cache must not make the batched query stateful."""
    topology = Torus(6)
    fresh = build_process("onoff", 2.0, seed=9)
    warmed = build_process("onoff", 2.0, seed=9)
    for t in (50, 3, 200, 0):
        warmed.arrivals_array(topology, t)
    for t in (0, 3, 50, 200):
        a, b = fresh.arrivals_array(topology, t), warmed.arrivals_array(topology, t)
        assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()


class NextNode(DestinationModel):
    """A destination model with only the scalar query."""

    def draw(self, topology, source, time, index):
        flat = (topology.node_index(source) + 1 + index + time) % topology.num_nodes
        return (flat // topology.height, flat % topology.height)


class ColumnBursts(ArrivalProcess):
    """An arrival process with only the scalar count."""

    def count(self, source, time):
        return (source[0] + time) % 3


def test_scalar_only_models_batch_through_the_defaults():
    topology = Mesh(4, 5)
    for process in (PoissonArrivals(1.5, destinations=NextNode(), seed=2), ColumnBursts(NextNode())):
        for time in (0, 1, 7):
            sources, dests = process.arrivals_array(topology, time)
            assert list(zip(sources.tolist(), dests.tolist())) == scalar_offers(
                process, topology, time
            )
