"""Property tests for the batched packet-entry path.

``run_streaming`` draws one step's arrivals for every node at once
(:meth:`ArrivalProcess.arrivals_array`, built on
:func:`repro.faults.plan.counter_draw_array`).  Both batched queries must
equal their scalar references -- :func:`counter_draw` and the per-source
:meth:`ArrivalProcess.arrivals` -- exactly, element by element.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import counter_draw, counter_draw_array
from repro.mesh import Mesh, Torus
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


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1), args=mixed_counters())
def test_counter_draw_array_equals_scalar_elementwise(seed, args):
    batched = np.atleast_1d(counter_draw_array(seed, *args))
    length = max((len(c) for c in args if isinstance(c, np.ndarray)), default=1)
    assert batched.shape == (length,)
    for i in range(length):
        scalar = [int(c[i]) if isinstance(c, np.ndarray) else c for c in args]
        assert batched[i] == counter_draw(seed, *scalar)  # exact, not approx


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
